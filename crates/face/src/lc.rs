//! The Lazy Cleaning (LC) baseline [Do et al., SIGMOD 2011] as described in
//! the paper's §2.3 and §5.
//!
//! LC caches pages on exit from the DRAM buffer with a write-back policy —
//! the same "when" and "sync" choices as FaCE — but manages the flash cache
//! with LRU-2 replacement and keeps exactly one copy per page, overwriting it
//! in place. Every admission or replacement therefore costs a *random* flash
//! write, which is what saturates the flash device in the paper's Table 4.
//! A lazy cleaner flushes cold dirty pages to disk in the background once the
//! dirty fraction exceeds a threshold.
//!
//! Because LC provides no mechanism for making the flash-resident dirty pages
//! part of the persistent database, checkpoints must write them to disk
//! ([`FlashCache::drain_dirty_for_checkpoint`]).

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use face_pagestore::{DeviceResult, Lsn, PageId};

use crate::io::IoLog;
use crate::policy::{FlashCache, PageSupplier};
use crate::store::FlashStore;
use crate::types::{
    CacheConfig, CacheRecoveryInfo, CacheStatCounters, CacheStats, Evacuation, FetchPin,
    FlashFetch, InsertOutcome, QuarantineOutcome, SlotGenerations, StagedPage,
};

#[derive(Debug, Clone, Copy)]
struct LcMeta {
    slot: usize,
    lsn: Lsn,
    dirty: bool,
    /// Most recent and second most recent access times (logical clock).
    last: u64,
    penultimate: u64,
}

/// The LC flash cache.
pub struct LcCache {
    config: CacheConfig,
    store: Arc<dyn FlashStore>,
    map: HashMap<PageId, LcMeta>,
    /// Victim order for LRU-2: pages keyed by (penultimate access, last
    /// access, page). A page referenced only once has penultimate = 0 and is
    /// evicted before any page with two references, as LRU-2 prescribes.
    victim_order: BTreeSet<(u64, u64, PageId)>,
    free_slots: Vec<usize>,
    clock: u64,
    dirty_count: usize,
    /// Per-slot version counters for the lock-light fetch protocol. LC
    /// overwrites slots **in place**, so the counter bumps on every slot
    /// write (admission and refresh), not only on reuse: an off-lock reader
    /// racing an in-place overwrite must discard its read and retry.
    generations: SlotGenerations,
    /// Slots removed from rotation after repeated device failures. RAM-only:
    /// a restart clears the set and retries the slots fresh (persistent
    /// faults simply re-quarantine). A quarantined slot never re-enters
    /// `free_slots`, so LC's usable capacity shrinks by one per entry.
    quarantined: HashSet<usize>,
    /// Dirty pages diverted to disk when an inline flash write failed. The
    /// concurrent wrapper drains this via [`FlashCache::take_write_fallout`]
    /// and routes the pages to the disk store WAL-guarded.
    write_fallout: Vec<StagedPage>,
    stats: CacheStatCounters,
}

impl LcCache {
    /// Create an LC cache over `store`.
    pub fn new(config: CacheConfig, store: Arc<dyn FlashStore>) -> Self {
        assert!(config.capacity_pages > 0, "flash cache needs capacity");
        assert!(
            store.capacity() >= config.capacity_pages,
            "flash store smaller than configured capacity"
        );
        let free_slots = (0..config.capacity_pages).rev().collect();
        let generations = SlotGenerations::new(config.capacity_pages);
        Self {
            config,
            store,
            map: HashMap::new(),
            victim_order: BTreeSet::new(),
            free_slots,
            clock: 0,
            dirty_count: 0,
            generations,
            quarantined: HashSet::new(),
            write_fallout: Vec::new(),
            stats: CacheStatCounters::default(),
        }
    }

    fn bump_generation(&mut self, slot: usize) {
        self.generations.bump(slot);
    }

    /// Current fraction of cached pages that are dirty.
    pub fn dirty_fraction(&self) -> f64 {
        if self.map.is_empty() {
            0.0
        } else {
            self.dirty_count as f64 / self.map.len() as f64
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn bump(&mut self, page: PageId) {
        let now = self.tick();
        if let Some(meta) = self.map.get_mut(&page) {
            let old_key = (meta.penultimate, meta.last, page);
            meta.penultimate = meta.last;
            meta.last = now;
            self.victim_order.remove(&old_key);
            self.victim_order
                .insert((meta.penultimate, meta.last, page));
        }
    }

    fn remove_entry(&mut self, page: PageId) -> Option<LcMeta> {
        let meta = self.map.remove(&page)?;
        self.victim_order
            .remove(&(meta.penultimate, meta.last, page));
        if meta.dirty {
            self.dirty_count -= 1;
        }
        self.bump_generation(meta.slot);
        self.free_slots.push(meta.slot);
        Some(meta)
    }

    /// Evict the LRU-2 victim, returning its stage-out (if it was dirty).
    ///
    /// A dirty victim is read back out of flash *before* any bookkeeping is
    /// touched, so a device read error aborts the eviction with the cache
    /// unchanged — the victim stays cached and dirty.
    fn evict_victim(&mut self, io: &mut IoLog) -> DeviceResult<Option<StagedPage>> {
        let Some(&(_, _, victim)) = self.victim_order.iter().next() else {
            return Ok(None);
        };
        let meta = *self.map.get(&victim).expect("victim is cached");
        let frame = if meta.dirty {
            // Reading the page back out of flash and writing it to disk are
            // both random operations.
            io.flash_read_rand(1);
            self.store.read_slot(meta.slot)?
        } else {
            None
        };
        self.remove_entry(victim).expect("victim is cached");
        self.stats.staged_out.inc();
        if meta.dirty {
            io.disk_write(victim);
            self.stats.staged_out_to_disk.inc();
            Ok(Some(StagedPage {
                page: victim,
                lsn: meta.lsn,
                dirty: true,
                fdirty: false,
                data: frame.map(Arc::new),
            }))
        } else {
            Ok(None)
        }
    }

    /// Route a dirty page whose flash write failed to the disk side: charge
    /// the disk write and park the page in the write-fallout buffer for the
    /// caller to drain ([`FlashCache::take_write_fallout`]) and persist
    /// WAL-guarded.
    fn divert_to_fallout(&mut self, staged: StagedPage, io: &mut IoLog) {
        io.disk_write(staged.page);
        self.stats.staged_out_to_disk.inc();
        self.write_fallout.push(StagedPage {
            dirty: true,
            fdirty: false,
            ..staged
        });
    }

    /// The background lazy cleaner: once the dirty fraction exceeds the
    /// threshold, flush the coldest dirty pages to disk until the target
    /// fraction is reached. Returns the cleaned pages so the engine can write
    /// them to the disk store in data-carrying mode.
    fn lazy_clean(&mut self, io: &mut IoLog) -> Vec<StagedPage> {
        let mut cleaned = Vec::new();
        if self.dirty_fraction() <= self.config.lc_dirty_threshold {
            return cleaned;
        }
        let target = (self.config.lc_clean_target * self.map.len() as f64).floor() as usize;
        // Coldest-first order is exactly the victim order.
        let order: Vec<PageId> = self.victim_order.iter().map(|&(_, _, p)| p).collect();
        for page in order {
            if self.dirty_count <= target {
                break;
            }
            let Some(meta) = self.map.get(&page) else {
                continue;
            };
            if !meta.dirty {
                continue;
            }
            let (slot, lsn) = (meta.slot, meta.lsn);
            io.flash_read_rand(1);
            // The cleaner is best-effort background work: a page whose slot
            // cannot be read is simply skipped and stays dirty — the
            // checkpoint drain (or a later retry) will surface the error,
            // and the degrade controller quarantines the slot on repeats.
            let Ok(frame) = self.store.read_slot(slot) else {
                continue;
            };
            let meta = self.map.get_mut(&page).expect("still cached");
            meta.dirty = false;
            self.dirty_count -= 1;
            self.stats.lazily_cleaned.inc();
            io.disk_write(page);
            cleaned.push(StagedPage {
                page,
                lsn,
                dirty: true,
                fdirty: false,
                data: frame.map(Arc::new),
            });
        }
        cleaned
    }
}

impl FlashCache for LcCache {
    fn policy_name(&self) -> &'static str {
        "LC"
    }

    fn contains(&self, page: PageId) -> bool {
        self.map.contains_key(&page)
    }

    fn fetch(&mut self, page: PageId, io: &mut IoLog) -> DeviceResult<Option<FlashFetch>> {
        self.stats.lookups.inc();
        let Some(meta) = self.map.get(&page).copied() else {
            return Ok(None);
        };
        self.stats.hits.inc();
        self.bump(page);
        io.flash_read_rand(1);
        Ok(Some(FlashFetch {
            data: self.store.read_slot(meta.slot)?,
            dirty: meta.dirty,
            lsn: meta.lsn,
        }))
    }

    fn fetch_pin(&mut self, page: PageId, retry: bool, io: &mut IoLog) -> Option<FetchPin> {
        if retry {
            self.stats.fetch_retries.inc();
        } else {
            self.stats.lookups.inc();
        }
        let meta = *self.map.get(&page)?;
        if !retry {
            self.stats.hits.inc();
        }
        self.bump(page);
        io.flash_read_rand(1);
        Some(FetchPin {
            slot: meta.slot,
            lsn: meta.lsn,
            dirty: meta.dirty,
            generation: self.generations.current(meta.slot),
            frame: None,
            data_expected: true,
        })
    }

    fn fetch_validate(&self, slot: usize, generation: u64) -> bool {
        self.generations.check(slot, generation)
    }

    fn insert(
        &mut self,
        staged: StagedPage,
        _supplier: &mut dyn PageSupplier,
        io: &mut IoLog,
    ) -> DeviceResult<InsertOutcome> {
        self.stats.inserts.inc();
        if staged.dirty {
            self.stats.dirty_inserts.inc();
        }
        let mut outcome = InsertOutcome {
            cached: true,
            ..Default::default()
        };

        if let Some(meta) = self.map.get_mut(&staged.page) {
            // Single-copy design: overwrite the existing copy in place.
            let became_dirty = staged.dirty && !meta.dirty;
            let was_dirty = meta.dirty;
            meta.dirty |= staged.dirty;
            meta.lsn = staged.lsn;
            if became_dirty {
                self.dirty_count += 1;
            }
            let slot = meta.slot;
            io.flash_write_rand(1);
            self.bump_generation(slot);
            if let Some(data) = &staged.data {
                if let Err(e) = self.store.write_slot(slot, data) {
                    // The in-place overwrite may have torn the only flash
                    // copy, so the entry cannot stay cached. Drop it, free
                    // the slot (the degrade controller quarantines it on
                    // repeats), and divert the freshest version to disk.
                    self.remove_entry(staged.page);
                    if was_dirty || staged.dirty {
                        self.divert_to_fallout(staged, io);
                    }
                    return Err(e);
                }
            }
            self.bump(staged.page);
            self.stats.cached_inserts.inc();
        } else {
            // Admit a new page, evicting the LRU-2 victim if full.
            if self.free_slots.is_empty() {
                if let Some(out) = self.evict_victim(io)? {
                    outcome.staged_out.push(out);
                }
            }
            let Some(slot) = self.free_slots.pop() else {
                // Every slot is quarantined: serve the page through to disk
                // instead of caching it.
                outcome.cached = false;
                if staged.dirty {
                    io.disk_write(staged.page);
                    self.stats.staged_out_to_disk.inc();
                    outcome.staged_out.push(staged);
                }
                return Ok(outcome);
            };
            io.flash_write_rand(1);
            self.bump_generation(slot);
            if let Some(data) = &staged.data {
                if let Err(e) = self.store.write_slot(slot, data) {
                    // Nothing was mapped yet: return the slot to rotation
                    // and divert the page to disk if it carried updates.
                    self.free_slots.push(slot);
                    if staged.dirty {
                        self.divert_to_fallout(staged, io);
                    }
                    return Err(e);
                }
            }
            let now = self.tick();
            self.map.insert(
                staged.page,
                LcMeta {
                    slot,
                    lsn: staged.lsn,
                    dirty: staged.dirty,
                    last: now,
                    penultimate: 0,
                },
            );
            self.victim_order.insert((0, now, staged.page));
            if staged.dirty {
                self.dirty_count += 1;
            }
            self.stats.cached_inserts.inc();
        }

        // Background lazy cleaning.
        let cleaned = self.lazy_clean(io);
        outcome.staged_out.extend(cleaned);
        Ok(outcome)
    }

    fn sync(&mut self, _io: &mut IoLog) -> DeviceResult<()> {
        // LC has no buffered batch; nothing to do.
        Ok(())
    }

    fn take_write_fallout(&mut self) -> Vec<StagedPage> {
        std::mem::take(&mut self.write_fallout)
    }

    fn drain_dirty_for_checkpoint(&mut self, io: &mut IoLog) -> DeviceResult<Vec<StagedPage>> {
        // Coldest first, in victim order: walking the hash map instead would
        // change the disk write order (and the simulated seek times) from
        // run to run.
        let dirty_pages: Vec<PageId> = self
            .victim_order
            .iter()
            .map(|&(_, _, p)| p)
            .filter(|p| self.map[p].dirty)
            .collect();
        let mut out: Vec<StagedPage> = Vec::with_capacity(dirty_pages.len());
        for page in dirty_pages {
            let meta = self.map.get(&page).expect("still cached");
            let (slot, lsn) = (meta.slot, meta.lsn);
            io.flash_read_rand(1);
            let frame = match self.store.read_slot(slot) {
                Ok(f) => f,
                Err(e) => {
                    // Re-dirty the pages already drained this call: the
                    // caller drops `out` on error, and a cleared flag would
                    // let a retried checkpoint treat them as safe to skip.
                    for undone in out {
                        let meta = self.map.get_mut(&undone.page).expect("still cached");
                        meta.dirty = true;
                        self.dirty_count += 1;
                    }
                    return Err(e);
                }
            };
            let meta = self.map.get_mut(&page).expect("still cached");
            meta.dirty = false;
            self.dirty_count -= 1;
            io.disk_write(page);
            out.push(StagedPage {
                page,
                lsn,
                dirty: true,
                fdirty: false,
                data: frame.map(Arc::new),
            });
        }
        Ok(out)
    }

    fn evacuate_dirty(&mut self, io: &mut IoLog) -> Evacuation {
        // Like the checkpoint drain, but without clearing the dirty flags:
        // the caller's disk writes may fail, and a cleared flag would let a
        // retry treat the page as safe to drop (see the trait contract).
        let mut ev = Evacuation::default();
        ev.pages.append(&mut self.write_fallout);
        for (page, meta) in &self.map {
            if !meta.dirty {
                continue;
            }
            io.flash_read_rand(1);
            let frame = match self.store.read_slot(meta.slot) {
                Ok(f) => f,
                Err(_) if self.store.carries_data() => {
                    // The only copy of this dirty page is unreadable; emit a
                    // data-less marker so the caller can block stale disk
                    // serves of it until WAL redo rebuilds the page.
                    ev.unread_dirty += 1;
                    ev.pages.push(StagedPage {
                        page: *page,
                        lsn: meta.lsn,
                        dirty: true,
                        fdirty: false,
                        data: None,
                    });
                    continue;
                }
                Err(_) => None,
            };
            io.disk_write(*page);
            ev.pages.push(StagedPage {
                page: *page,
                lsn: meta.lsn,
                dirty: true,
                fdirty: false,
                data: frame.map(Arc::new),
            });
        }
        ev
    }

    fn quarantine_slot(&mut self, slot: usize, io: &mut IoLog) -> QuarantineOutcome {
        let mut out = QuarantineOutcome::default();
        if slot >= self.config.capacity_pages || !self.quarantined.insert(slot) {
            return out;
        }
        out.quarantined = true;
        self.bump_generation(slot);
        // Whether free or occupied, the slot leaves rotation for good (until
        // a restart or a heal clears the RAM-only tombstone set).
        self.free_slots.retain(|&s| s != slot);
        let Some((&page, &meta)) = self.map.iter().find(|(_, m)| m.slot == slot) else {
            return out;
        };
        // Remove the resident without returning its slot to the free list.
        self.map.remove(&page);
        self.victim_order
            .remove(&(meta.penultimate, meta.last, page));
        if meta.dirty {
            self.dirty_count -= 1;
        }
        out.removed = Some(page);
        if !meta.dirty {
            // A clean resident is simply dropped; the next fetch misses to
            // disk, which still has the authoritative copy.
            return out;
        }
        // Dirty resident: LC keeps the only copy on the (failing) flash
        // slot. Try to read it back one last time.
        io.flash_read_rand(1);
        let frame = match self.store.read_slot(slot) {
            Ok(f) => f,
            Err(_) if self.store.carries_data() => {
                // Bytes lost: hand back a data-less evacuee so the caller
                // can block stale disk serves until WAL redo rebuilds it.
                out.dirty_unread = true;
                out.evacuee = Some(StagedPage {
                    page,
                    lsn: meta.lsn,
                    dirty: true,
                    fdirty: false,
                    data: None,
                });
                return out;
            }
            Err(_) => None,
        };
        io.disk_write(page);
        self.stats.staged_out_to_disk.inc();
        out.evacuee = Some(StagedPage {
            page,
            lsn: meta.lsn,
            dirty: true,
            fdirty: false,
            data: frame.map(Arc::new),
        });
        out
    }

    fn persists_dirty_pages(&self) -> bool {
        false
    }

    fn crash_and_recover(&mut self, _durable_lsn: Lsn, _io: &mut IoLog) -> CacheRecoveryInfo {
        // LC keeps no persistent metadata: after a crash the flash-resident
        // copies are unreachable and the cache restarts cold (paper §4.1).
        // Quarantine tombstones are RAM-only and clear with the restart —
        // persistently bad slots get re-quarantined by fresh failures.
        self.map.clear();
        self.victim_order.clear();
        self.free_slots = (0..self.config.capacity_pages).rev().collect();
        self.dirty_count = 0;
        self.quarantined.clear();
        self.write_fallout.clear();
        CacheRecoveryInfo::default()
    }

    fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }

    fn capacity(&self) -> usize {
        self.config.capacity_pages
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NoSupplier;
    use crate::store::NullFlashStore;

    fn pid(n: u32) -> PageId {
        PageId::new(0, n)
    }

    fn staged(n: u32, dirty: bool) -> StagedPage {
        StagedPage::meta_only(pid(n), Lsn(n as u64), dirty, dirty)
    }

    fn cache(capacity: usize) -> LcCache {
        let cfg = CacheConfig {
            capacity_pages: capacity,
            lc_dirty_threshold: 2.0, // unreachable: the cleaner never runs in these tests
            lc_clean_target: 0.5,
            ..CacheConfig::default()
        };
        LcCache::new(cfg, Arc::new(NullFlashStore::new(capacity)))
    }

    #[test]
    fn single_copy_overwrite_in_place() {
        let mut c = cache(4);
        let mut io = IoLog::new();
        c.insert(staged(1, false), &mut NoSupplier, &mut io)
            .unwrap();
        c.insert(staged(1, true), &mut NoSupplier, &mut io).unwrap();
        assert_eq!(c.len(), 1, "LC keeps one copy per page");
        // Both writes are random flash writes.
        assert_eq!(io.flash_pages_written_random(), 2);
        assert!((c.dirty_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fetch_hits_and_misses() {
        let mut c = cache(4);
        let mut io = IoLog::new();
        c.insert(staged(1, true), &mut NoSupplier, &mut io).unwrap();
        assert!(c.fetch(pid(1), &mut io).unwrap().unwrap().dirty);
        assert!(c.fetch(pid(2), &mut io).unwrap().is_none());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().lookups, 2);
    }

    #[test]
    fn lru2_prefers_single_reference_victims() {
        let mut c = cache(3);
        let mut io = IoLog::new();
        c.insert(staged(1, false), &mut NoSupplier, &mut io)
            .unwrap();
        c.insert(staged(2, false), &mut NoSupplier, &mut io)
            .unwrap();
        c.insert(staged(3, false), &mut NoSupplier, &mut io)
            .unwrap();
        // Page 1 gets a second reference (older than page 2's first), page 2
        // and 3 have only one. LRU-2 evicts among single-reference pages
        // first, oldest first: page 2.
        c.fetch(pid(1), &mut io).unwrap().unwrap();
        c.insert(staged(4, false), &mut NoSupplier, &mut io)
            .unwrap();
        assert!(c.contains(pid(1)));
        assert!(!c.contains(pid(2)));
        assert!(c.contains(pid(3)));
        assert!(c.contains(pid(4)));
    }

    #[test]
    fn dirty_eviction_goes_to_disk() {
        let mut c = cache(2);
        let mut io = IoLog::new();
        c.insert(staged(1, true), &mut NoSupplier, &mut io).unwrap();
        c.insert(staged(2, false), &mut NoSupplier, &mut io)
            .unwrap();
        let mut io = IoLog::new();
        let out = c
            .insert(staged(3, false), &mut NoSupplier, &mut io)
            .unwrap();
        // Page 1 (oldest, dirty) is evicted: flash read + disk write.
        assert_eq!(io.disk_writes(), 1);
        assert_eq!(out.staged_out.len(), 1);
        assert_eq!(out.staged_out[0].page, pid(1));
        assert_eq!(c.stats().staged_out_to_disk, 1);
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut c = cache(1);
        let mut io = IoLog::new();
        c.insert(staged(1, false), &mut NoSupplier, &mut io)
            .unwrap();
        let mut io = IoLog::new();
        let out = c
            .insert(staged(2, false), &mut NoSupplier, &mut io)
            .unwrap();
        assert_eq!(io.disk_writes(), 0);
        assert!(out.staged_out.is_empty());
    }

    #[test]
    fn lazy_cleaner_kicks_in_above_threshold() {
        let cfg = CacheConfig {
            capacity_pages: 10,
            lc_dirty_threshold: 0.5,
            lc_clean_target: 0.2,
            ..CacheConfig::default()
        };
        let mut c = LcCache::new(cfg, Arc::new(NullFlashStore::new(10)));
        let mut io = IoLog::new();
        for i in 0..8 {
            c.insert(staged(i, true), &mut NoSupplier, &mut io).unwrap();
        }
        // 8/8 dirty > 0.5 threshold -> cleaner runs down to 20%.
        assert!(c.dirty_fraction() <= 0.5);
        assert!(c.stats().lazily_cleaned > 0);
        assert!(io.disk_writes() > 0);
        // Cleaned pages stay cached (clean), so the cache still contains them.
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn checkpoint_drains_dirty_pages_to_disk() {
        let mut c = cache(8);
        let mut io = IoLog::new();
        for i in 0..5 {
            c.insert(staged(i, i % 2 == 0), &mut NoSupplier, &mut io)
                .unwrap();
        }
        assert!(!c.persists_dirty_pages());
        let mut ckpt_io = IoLog::new();
        let drained = c.drain_dirty_for_checkpoint(&mut ckpt_io).unwrap();
        assert_eq!(drained.len(), 3); // pages 0, 2, 4
        assert_eq!(ckpt_io.disk_writes(), 3);
        assert!((c.dirty_fraction() - 0.0).abs() < 1e-9);
        // Second drain is free.
        assert!(c
            .drain_dirty_for_checkpoint(&mut ckpt_io)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn all_flash_writes_are_random() {
        let mut c = cache(16);
        let mut io = IoLog::new();
        for i in 0..100 {
            c.insert(staged(i % 30, i % 2 == 0), &mut NoSupplier, &mut io)
                .unwrap();
        }
        assert_eq!(io.flash_pages_written(), io.flash_pages_written_random());
        assert!(c.len() <= c.capacity());
    }
}
