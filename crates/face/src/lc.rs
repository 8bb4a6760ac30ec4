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

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use face_pagestore::{DeviceResult, Lsn, PageId};

use crate::io::IoLog;
use crate::policy::{FlashCache, PageSupplier};
use crate::store::FlashStore;
use crate::types::{
    CacheConfig, CacheRecoveryInfo, CacheStats, FlashFetch, InsertFailure, InsertOutcome,
    StagedPage,
};

/// Fraction of dirty pages that triggers the lazy cleaner.
const DIRTY_THRESHOLD: f64 = 0.75;
/// Fraction the cleaner reduces the dirty share to.
const CLEAN_TARGET: f64 = 0.6;

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
    stats: CacheStats,
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
        Self {
            config,
            store,
            map: HashMap::new(),
            victim_order: BTreeSet::new(),
            free_slots,
            clock: 0,
            dirty_count: 0,
            stats: CacheStats::default(),
        }
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
        self.stats.staged_out += 1;
        if meta.dirty {
            io.disk_write(victim);
            self.stats.staged_out_to_disk += 1;
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

    /// The background lazy cleaner: once the dirty fraction exceeds the
    /// threshold, flush the coldest dirty pages to disk until the target
    /// fraction is reached. Returns the cleaned pages so the caller can write
    /// them to disk.
    fn lazy_clean(&mut self, io: &mut IoLog) -> DeviceResult<Vec<StagedPage>> {
        let mut cleaned = Vec::new();
        if self.dirty_fraction() <= DIRTY_THRESHOLD {
            return Ok(cleaned);
        }
        let target = (CLEAN_TARGET * self.map.len() as f64).floor() as usize;
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
            let frame = self.store.read_slot(slot)?;
            let meta = self.map.get_mut(&page).expect("still cached");
            meta.dirty = false;
            self.dirty_count -= 1;
            self.stats.lazily_cleaned += 1;
            io.disk_write(page);
            cleaned.push(StagedPage {
                page,
                lsn,
                dirty: true,
                fdirty: false,
                data: frame.map(Arc::new),
            });
        }
        Ok(cleaned)
    }
}

impl FlashCache for LcCache {
    fn fetch(&mut self, page: PageId, io: &mut IoLog) -> DeviceResult<Option<FlashFetch>> {
        self.stats.lookups += 1;
        let Some(meta) = self.map.get(&page).copied() else {
            return Ok(None);
        };
        self.stats.hits += 1;
        self.bump(page);
        io.flash_read_rand(1);
        Ok(Some(FlashFetch {
            data: self.store.read_slot(meta.slot)?,
            dirty: meta.dirty,
            lsn: meta.lsn,
        }))
    }

    fn insert(
        &mut self,
        staged: StagedPage,
        _supplier: &mut dyn PageSupplier,
        io: &mut IoLog,
    ) -> Result<InsertOutcome, InsertFailure> {
        self.stats.inserts += 1;
        if staged.dirty {
            self.stats.dirty_inserts += 1;
        }
        let mut outcome = InsertOutcome {
            cached: true,
            ..Default::default()
        };

        if let Some(meta) = self.map.get_mut(&staged.page) {
            // Single-copy design: overwrite the existing copy in place.
            let became_dirty = staged.dirty && !meta.dirty;
            meta.dirty |= staged.dirty;
            meta.lsn = staged.lsn;
            if became_dirty {
                self.dirty_count += 1;
            }
            let slot = meta.slot;
            io.flash_write_rand(1);
            if let Some(data) = &staged.data {
                self.store.write_slot(slot, data)?;
            }
            self.bump(staged.page);
            self.stats.cached_inserts += 1;
        } else {
            // Admit a new page, evicting the LRU-2 victim if full.
            if self.free_slots.is_empty() {
                if let Some(out) = self.evict_victim(io)? {
                    outcome.staged_out.push(out);
                }
            }
            let slot = self.free_slots.pop().expect("a full cache has a victim");
            io.flash_write_rand(1);
            if let Some(data) = &staged.data {
                self.store.write_slot(slot, data)?;
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
            self.stats.cached_inserts += 1;
        }

        // Background lazy cleaning.
        outcome.staged_out.extend(self.lazy_clean(io)?);
        Ok(outcome)
    }

    fn sync(&mut self, _io: &mut IoLog) -> Result<(), InsertFailure> {
        // LC has no buffered batch; nothing to do.
        Ok(())
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
            let frame = self.store.read_slot(slot)?;
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

    fn persists_dirty_pages(&self) -> bool {
        false
    }

    fn crash_and_recover(&mut self, _durable_lsn: Lsn, _io: &mut IoLog) -> CacheRecoveryInfo {
        // LC keeps no persistent metadata: after a crash the flash-resident
        // copies are unreachable and the cache restarts cold (paper §4.1).
        self.map.clear();
        self.victim_order.clear();
        self.free_slots = (0..self.config.capacity_pages).rev().collect();
        self.dirty_count = 0;
        CacheRecoveryInfo::default()
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
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
            ..CacheConfig::default()
        };
        LcCache::new(cfg, Arc::new(NullFlashStore::new(capacity)))
    }

    #[test]
    fn single_copy_overwrite_in_place() {
        let mut c = cache(4);
        let mut io = IoLog::new();
        // Two clean neighbours keep the dirty share under the cleaner's
        // threshold.
        for n in [2, 3, 1] {
            c.insert(staged(n, false), &mut NoSupplier, &mut io)
                .unwrap();
        }
        c.insert(staged(1, true), &mut NoSupplier, &mut io).unwrap();
        assert_eq!(c.map.len(), 3, "LC keeps one copy per page");
        // Every write is a random flash write.
        assert_eq!(io.flash_pages_written_random(), 4);
        assert!((c.dirty_fraction() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn fetch_hits_and_misses() {
        let mut c = cache(4);
        let mut io = IoLog::new();
        c.insert(staged(2, false), &mut NoSupplier, &mut io)
            .unwrap();
        c.insert(staged(1, true), &mut NoSupplier, &mut io).unwrap();
        assert!(c.fetch(pid(1), &mut io).unwrap().unwrap().dirty);
        assert!(c.fetch(pid(3), &mut io).unwrap().is_none());
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
        assert!(c.map.contains_key(&pid(1)));
        assert!(!c.map.contains_key(&pid(2)));
        assert!(c.map.contains_key(&pid(3)));
        assert!(c.map.contains_key(&pid(4)));
    }

    #[test]
    fn dirty_eviction_goes_to_disk() {
        let mut c = cache(2);
        let mut io = IoLog::new();
        c.insert(staged(2, false), &mut NoSupplier, &mut io)
            .unwrap();
        c.insert(staged(1, true), &mut NoSupplier, &mut io).unwrap();
        // A second reference keeps page 2 out of LRU-2's victim slot.
        c.fetch(pid(2), &mut io).unwrap();
        let mut io = IoLog::new();
        let out = c
            .insert(staged(3, false), &mut NoSupplier, &mut io)
            .unwrap();
        // Page 1 (dirty, referenced once) is evicted: flash read + disk write.
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
        let mut c = cache(10);
        let mut io = IoLog::new();
        for i in 0..8 {
            c.insert(staged(i, true), &mut NoSupplier, &mut io).unwrap();
        }
        // Every insert is dirty: whenever the dirty share passes the
        // threshold, the cleaner brings it down to the target.
        assert!(c.dirty_fraction() <= DIRTY_THRESHOLD);
        assert!(c.stats().lazily_cleaned > 0);
        assert!(io.disk_writes() > 0);
        // Cleaned pages stay cached (clean), so the cache still contains them.
        assert_eq!(c.map.len(), 8);
    }

    #[test]
    fn checkpoint_drains_dirty_pages_to_disk() {
        let mut c = cache(8);
        let mut io = IoLog::new();
        // Clean pages first, so the dirty share stays under the cleaner's
        // threshold.
        for i in [1, 3, 0, 2, 4] {
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
        assert!(c.map.len() <= c.config.capacity_pages);
    }
}
