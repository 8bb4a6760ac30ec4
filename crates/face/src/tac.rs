//! The Temperature-Aware Caching (TAC) baseline [Canim et al., PVLDB 2010;
//! Bhattacharjee et al., DaMoN 2011] as characterised in the paper's §2.3 and
//! Table 2.
//!
//! TAC differs from FaCE along every design axis:
//! * pages are cached **on entry** to the DRAM buffer (when fetched from
//!   disk), so the flash cache and the DRAM buffer hold overlapping copies;
//! * the cache is **write-through**: a dirty page evicted from DRAM is
//!   written to disk *and*, if cached, its flash copy is updated — the flash
//!   cache therefore never reduces disk writes;
//! * replacement is **temperature-based**: accesses are counted per fixed-size
//!   extent and cold-extent pages are preferred victims;
//! * the slot directory is maintained persistently in flash, costing two
//!   additional random flash writes (invalidate + validate) per admission or
//!   replacement (paper §4.1).

use std::collections::HashMap;
use std::sync::Arc;

use face_pagestore::{DeviceResult, Lsn, PageId};

use crate::io::IoLog;
use crate::policy::{FlashCache, PageSupplier};
use crate::store::FlashStore;
use crate::types::{
    CacheConfig, CacheRecoveryInfo, CacheStats, FlashFetch, InsertFailure, InsertOutcome,
    StagedPage,
};

/// Pages per temperature extent.
const EXTENT_PAGES: u64 = 32;
/// Minimum extent temperature (accesses) for admission.
const ADMISSION_TEMPERATURE: u32 = 2;

#[derive(Debug, Clone, Copy)]
struct TacMeta {
    slot: usize,
    lsn: Lsn,
    last_access: u64,
    /// Whether this entry's slot has been written with this page's data.
    /// Admission on a disk fetch records metadata only; serving the old
    /// occupant of a recycled slot would be a correctness bug.
    has_data: bool,
}

/// The TAC flash cache.
pub struct TacCache {
    config: CacheConfig,
    store: Arc<dyn FlashStore>,
    map: HashMap<PageId, TacMeta>,
    /// Access counts per extent (extent = [`EXTENT_PAGES`] consecutive
    /// pages of a file), the "temperature".
    extent_heat: HashMap<u64, u32>,
    free_slots: Vec<usize>,
    clock: u64,
    stats: CacheStats,
}

impl TacCache {
    /// Create a TAC cache over `store`.
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
            extent_heat: HashMap::new(),
            free_slots,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn extent_of(&self, page: PageId) -> u64 {
        page.to_u64() / EXTENT_PAGES
    }

    fn heat_of(&self, page: PageId) -> u32 {
        *self.extent_heat.get(&self.extent_of(page)).unwrap_or(&0)
    }

    fn warm_up(&mut self, page: PageId) {
        let extent = self.extent_of(page);
        *self.extent_heat.entry(extent).or_insert(0) += 1;
    }

    /// Persistent slot-directory maintenance: one invalidation write plus one
    /// validation write, both random (paper §4.1).
    fn charge_metadata_update(&mut self, io: &mut IoLog) {
        io.flash_write_rand(1);
        io.flash_write_rand(1);
        self.stats.metadata_flushes += 1;
    }

    /// Evict a victim chosen by temperature (coldest extent first, LRU as the
    /// tie-break within the sampled candidates). TAC copies are never dirty
    /// (write-through), so eviction needs no disk write.
    fn evict_victim(&mut self, io: &mut IoLog) {
        let victim = {
            let candidates = lru_sample_victim(&self.map, 16, |m| m.last_access);
            candidates
                .into_iter()
                .min_by_key(|p| (self.heat_of(*p), self.map[p].last_access))
        };
        if let Some(victim) = victim {
            let meta = self.map.remove(&victim).expect("victim cached");
            self.free_slots.push(meta.slot);
            self.stats.staged_out += 1;
            self.charge_metadata_update(io);
        }
    }

    fn admit(
        &mut self,
        page: PageId,
        lsn: Lsn,
        data: Option<&face_pagestore::Page>,
        io: &mut IoLog,
    ) -> DeviceResult<()> {
        if self.free_slots.is_empty() {
            self.evict_victim(io);
        }
        let slot = self.free_slots.pop().expect("a full cache has a victim");
        io.flash_write_rand(1);
        self.charge_metadata_update(io);
        if let Some(d) = data {
            self.store.write_slot(slot, d)?;
        }
        let has_data = data.is_some();
        self.clock += 1;
        self.map.insert(
            page,
            TacMeta {
                slot,
                lsn,
                last_access: self.clock,
                has_data,
            },
        );
        self.stats.cached_inserts += 1;
        Ok(())
    }
}

impl FlashCache for TacCache {
    fn fetch(&mut self, page: PageId, io: &mut IoLog) -> DeviceResult<Option<FlashFetch>> {
        self.stats.lookups += 1;
        self.warm_up(page);
        let Some(meta) = self.map.get_mut(&page) else {
            return Ok(None);
        };
        self.clock += 1;
        meta.last_access = self.clock;
        let meta = *meta;
        self.stats.hits += 1;
        io.flash_read_rand(1);
        Ok(Some(FlashFetch {
            data: if meta.has_data {
                self.store.read_slot(meta.slot)?
            } else {
                None
            },
            // Write-through: the cached copy is never newer than disk.
            dirty: false,
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
        let mut outcome = InsertOutcome::default();
        if staged.dirty {
            // Write-through: the dirty page always goes to disk, so TAC never
            // reduces the disk write traffic (counted as a stage-out so the
            // write-reduction metric reflects that).
            io.disk_write(staged.page);
            self.stats.staged_out_to_disk += 1;
            // And, if a flash copy exists, it is refreshed in place.
            if let Some(meta) = self.map.get_mut(&staged.page) {
                meta.lsn = staged.lsn;
                if staged.data.is_some() {
                    meta.has_data = true;
                }
                let slot = meta.slot;
                io.flash_write_rand(1);
                self.charge_metadata_update(io);
                if let Some(d) = &staged.data {
                    self.store.write_slot(slot, d)?;
                }
                outcome.cached = true;
                self.stats.cached_inserts += 1;
            }
        } else {
            // Clean pages leaving the DRAM buffer are not cached on exit —
            // TAC caches on entry.
            outcome.cached = self.map.contains_key(&staged.page);
        }
        Ok(outcome)
    }

    fn on_fetched_from_disk(
        &mut self,
        page: PageId,
        io: &mut IoLog,
    ) -> DeviceResult<InsertOutcome> {
        self.warm_up(page);
        let mut outcome = InsertOutcome::default();
        if self.map.contains_key(&page) {
            outcome.cached = true;
            return Ok(outcome);
        }
        // Admit only pages from sufficiently warm extents.
        if self.heat_of(page) >= ADMISSION_TEMPERATURE {
            self.admit(page, Lsn::ZERO, None, io)?;
            outcome.cached = true;
        }
        Ok(outcome)
    }

    fn sync(&mut self, _io: &mut IoLog) -> Result<(), InsertFailure> {
        Ok(())
    }

    fn persists_dirty_pages(&self) -> bool {
        // Nothing in the cache is ever dirty, so checkpoints need no extra
        // work — but the cache also never absorbs a disk write.
        false
    }

    fn crash_and_recover(&mut self, _durable_lsn: Lsn, _io: &mut IoLog) -> CacheRecoveryInfo {
        // TAC maintains its slot directory persistently in flash, so its
        // clean cached copies would in principle survive. The reproduction
        // models the conservative outcome the paper measures against: the
        // cache restarts cold and only correctness-neutral clean copies are
        // lost.
        self.map.clear();
        self.extent_heat.clear();
        self.free_slots = (0..self.config.capacity_pages).rev().collect();
        CacheRecoveryInfo::default()
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

/// Return up to `sample` keys with the smallest `last_access` values — the
/// candidate set for temperature-aware victim selection.
fn lru_sample_victim<K: Eq + std::hash::Hash + Copy, V>(
    map: &HashMap<K, V>,
    sample: usize,
    last_access: impl Fn(&V) -> u64,
) -> Vec<K> {
    let mut entries: Vec<(u64, K)> = map.iter().map(|(k, v)| (last_access(v), *k)).collect();
    entries.sort_by_key(|(t, _)| *t);
    entries.truncate(sample);
    entries.into_iter().map(|(_, k)| k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NoSupplier;
    use crate::store::NullFlashStore;

    fn pid(n: u32) -> PageId {
        PageId::new(0, n)
    }

    fn cache(capacity: usize) -> TacCache {
        let cfg = CacheConfig {
            capacity_pages: capacity,
            ..CacheConfig::default()
        };
        TacCache::new(cfg, Arc::new(NullFlashStore::new(capacity)))
    }

    #[test]
    fn caches_on_entry_after_warming() {
        let mut c = cache(8);
        let mut io = IoLog::new();
        // First disk fetch of a cold extent: not admitted.
        let o = c.on_fetched_from_disk(pid(1), &mut io).unwrap();
        assert!(!o.cached);
        assert!(!c.map.contains_key(&pid(1)));
        // Second access to the same extent crosses the admission temperature.
        let o = c.on_fetched_from_disk(pid(1), &mut io).unwrap();
        assert!(o.cached);
        assert!(c.map.contains_key(&pid(1)));
        // Admission cost: page write + 2 metadata writes, all random.
        assert_eq!(io.flash_pages_written_random(), 3);
    }

    #[test]
    fn write_through_always_hits_disk() {
        let mut c = cache(8);
        let mut io = IoLog::new();
        // Warm and admit page 1.
        c.on_fetched_from_disk(pid(1), &mut io).unwrap();
        c.on_fetched_from_disk(pid(1), &mut io).unwrap();
        let mut io = IoLog::new();
        let out = c
            .insert(
                StagedPage::meta_only(pid(1), Lsn(5), true, true),
                &mut NoSupplier,
                &mut io,
            )
            .unwrap();
        assert_eq!(io.disk_writes(), 1, "written through");
        assert!(out.cached);
        // The flash copy was refreshed too (random write + metadata).
        assert!(io.flash_pages_written_random() >= 1);
        // Cached copies are never dirty.
        assert!(!c.fetch(pid(1), &mut io).unwrap().unwrap().dirty);
    }

    #[test]
    fn dirty_page_not_cached_if_absent() {
        let mut c = cache(8);
        let mut io = IoLog::new();
        let out = c
            .insert(
                StagedPage::meta_only(pid(9), Lsn(1), true, true),
                &mut NoSupplier,
                &mut io,
            )
            .unwrap();
        assert_eq!(io.disk_writes(), 1, "written through");
        assert_eq!(c.stats().staged_out_to_disk, 1);
        assert!(!out.cached);
        assert!(!c.map.contains_key(&pid(9)));
        // Clean exit of an uncached page does nothing at all.
        let out = c
            .insert(
                StagedPage::meta_only(pid(10), Lsn(1), false, false),
                &mut NoSupplier,
                &mut io,
            )
            .unwrap();
        assert!(!out.cached);
    }

    #[test]
    fn cold_extent_pages_evicted_before_hot_ones() {
        let mut c = cache(2);
        let mut io = IoLog::new();
        // Page 0 (extent 0) becomes hot: many accesses.
        for _ in 0..5 {
            c.on_fetched_from_disk(pid(0), &mut io).unwrap();
        }
        assert!(c.map.contains_key(&pid(0)));
        // Page 64 (extent 2) just warm enough to admit.
        c.on_fetched_from_disk(pid(64), &mut io).unwrap();
        c.on_fetched_from_disk(pid(64), &mut io).unwrap();
        assert!(c.map.contains_key(&pid(64)));
        // Page 128 (extent 4) warms up and needs a slot: the cold page 64
        // goes, the hot page 0 stays.
        c.on_fetched_from_disk(pid(128), &mut io).unwrap();
        c.on_fetched_from_disk(pid(128), &mut io).unwrap();
        assert!(c.map.contains_key(&pid(0)));
        assert!(!c.map.contains_key(&pid(64)));
        assert!(c.map.contains_key(&pid(128)));
        assert_eq!(c.stats().staged_out, 1);
    }

    #[test]
    fn eviction_never_writes_disk() {
        let mut c = cache(2);
        let mut io = IoLog::new();
        for p in [0u32, 32, 64, 96, 128, 160] {
            c.on_fetched_from_disk(pid(p), &mut io).unwrap();
            c.on_fetched_from_disk(pid(p), &mut io).unwrap();
        }
        assert_eq!(io.disk_writes(), 0);
        assert!(c.map.len() <= c.config.capacity_pages);
        assert!(!c.persists_dirty_pages());
        assert!(c.drain_dirty_for_checkpoint(&mut io).unwrap().is_empty());
    }

    #[test]
    fn metadata_persistence_overhead_is_charged() {
        let mut c = cache(4);
        let mut io = IoLog::new();
        c.on_fetched_from_disk(pid(1), &mut io).unwrap();
        c.on_fetched_from_disk(pid(1), &mut io).unwrap();
        // Admission: 1 data write + 2 metadata writes.
        assert_eq!(io.flash_pages_written_random(), 3);
        assert_eq!(c.stats().metadata_flushes, 1);
    }

    #[test]
    fn fetch_misses_and_hits_update_stats() {
        let mut c = cache(4);
        let mut io = IoLog::new();
        assert!(c.fetch(pid(3), &mut io).unwrap().is_none());
        c.on_fetched_from_disk(pid(3), &mut io).unwrap();
        c.on_fetched_from_disk(pid(3), &mut io).unwrap();
        assert!(c.fetch(pid(3), &mut io).unwrap().is_some());
        assert_eq!(c.stats().lookups, 2);
        assert_eq!(c.stats().hits, 1);
        c.reset_stats();
        assert_eq!(c.stats().lookups, 0);
    }
}
