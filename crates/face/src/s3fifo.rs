//! S3-FIFO replacement with ghost-queue admission — a wear-aware set of
//! decisions over a two-region [`GroupRing`] (which owns the queue, batch,
//! journal and recovery mechanics, exactly as for [`crate::mvfifo`]).
//!
//! The flash device is split into two **static circular queues**: a small
//! probationary region (default 10 % of capacity) and a main region, plus a
//! RAM-only **ghost** FIFO of recently rejected/evicted page ids
//! ([`crate::admission::GhostQueue`]). The flow:
//!
//! * a **clean first touch** is recorded only in the ghost directory and is
//!   *not* admitted — no flash write for a potential one-hit wonder;
//! * a page whose id is live in the ghost (it came back), or a new version
//!   of a cached page, is admitted straight into the **main** queue — the
//!   re-reference earned the flash write;
//! * a **dirty** first touch must be absorbed (that is FaCE's write-economy
//!   bargain), so it enters the **small** queue on probation;
//! * eviction from *small* quickly demotes one-hit wonders: an unreferenced
//!   victim leaves the flash (dirty → disk, clean → dropped) and its id goes
//!   to the ghost; a referenced victim is promoted to *main*. Promotion
//!   always vacates the small queue, so it needs no forced progress;
//! * eviction from *main* is group FIFO with second chance, exactly like
//!   FaCE+GSC's dequeue (forced progress when every victim is referenced).
//!
//! The ghost directory is volatile by design: it is an admission heuristic,
//! and after a crash it restarts empty.
//!
//! ```
//! use std::sync::Arc;
//! use face_cache::{
//!     CacheConfig, FlashCache, FlashStore, IoLog, MemFlashStore, NoSupplier, RingCache,
//!     S3FifoCache, StagedPage,
//! };
//! use face_pagestore::{Page, PageId};
//!
//! let store = Arc::new(MemFlashStore::new(16));
//! let config = CacheConfig { capacity_pages: 16, group_size: 2, ..CacheConfig::default() };
//! let mut cache = S3FifoCache::new(config, Arc::clone(&store) as Arc<dyn FlashStore>);
//! let mut io = IoLog::new();
//!
//! let mut page = Page::new(PageId::new(0, 1));
//! page.update_checksum();
//! // A clean one-touch page is ghosted, not cached: no flash write is paid.
//! let first = cache.insert(StagedPage::with_data(page.clone(), false, true), &mut NoSupplier, &mut io).unwrap();
//! assert!(!first.cached);
//! assert_eq!(cache.ghost_len(), 1);
//! // The re-reference earns admission (straight into the main queue).
//! let second = cache.insert(StagedPage::with_data(page, false, true), &mut NoSupplier, &mut io).unwrap();
//! assert!(second.cached);
//! assert!(cache.contains(PageId::new(0, 1)));
//! ```

use face_pagestore::DeviceResult;

use crate::admission::GhostQueue;
use crate::io::IoLog;
use crate::policy::PageSupplier;
use crate::ring::{GroupRing, RingCache, RingPolicy};
use crate::types::{CacheConfig, InsertOutcome, StagedPage};

/// The S3-FIFO flash cache: small/main/ghost decisions over the shared ring.
pub type S3FifoCache = GroupRing<S3Fifo>;

/// The S3-FIFO decision rules and their one piece of state.
#[derive(Debug)]
pub struct S3Fifo {
    /// RAM-only ghost directory (rejected first touches + small-queue
    /// evictions). Lost on crash — admission heuristic, not metadata.
    ghost: GhostQueue,
}

/// The probationary queue.
const SMALL: usize = 0;
/// The main queue.
const MAIN: usize = 1;

impl S3FifoCache {
    /// Split `capacity` into the small-queue share and the rest, both at
    /// least one slot.
    fn split_capacity(config: &CacheConfig) -> (usize, usize) {
        let capacity = config.capacity_pages;
        assert!(
            capacity >= 2,
            "S3-FIFO needs at least two pages (one per region)"
        );
        let fraction = if config.s3_small_fraction.is_finite() {
            config.s3_small_fraction.clamp(0.0, 1.0)
        } else {
            0.1
        };
        let small = ((capacity as f64 * fraction).round() as usize).clamp(1, capacity - 1);
        (small, capacity - small)
    }

    /// (small, main) occupied sizes — queue-membership assertions in tests.
    pub fn region_sizes(&self) -> (usize, usize) {
        (self.regions[SMALL].size, self.regions[MAIN].size)
    }

    /// Live ghost entries (diagnostics).
    pub fn ghost_len(&self) -> usize {
        self.policy.ghost.len()
    }
}

impl RingPolicy for S3Fifo {
    fn new(config: &CacheConfig) -> Self {
        Self {
            ghost: GhostQueue::new(config.effective_ghost_capacity()),
        }
    }

    fn name(_config: &CacheConfig) -> &'static str {
        "S3-FIFO"
    }

    fn region_capacities(config: &CacheConfig) -> Vec<usize> {
        let (small, main) = S3FifoCache::split_capacity(config);
        vec![small, main]
    }

    fn place(
        ring: &mut GroupRing<Self>,
        staged: StagedPage,
        _supplier: &mut dyn PageSupplier,
        outcome: &mut InsertOutcome,
        io: &mut IoLog,
    ) -> DeviceResult<()> {
        if ring.skip_clean_duplicate(&staged) {
            return Ok(());
        }
        if ring.contains(staged.page) {
            // A newer version of a cached page: it is demonstrably no
            // one-hit wonder — the fresh version goes to main.
            ring.admit(MAIN, staged, outcome, io)
        } else if ring.policy.ghost.take(staged.page) {
            // The id came back while its ghost entry was live: the
            // re-reference earns the flash write, straight into main.
            ring.stats.admission_ghost_hits += 1;
            ring.admit(MAIN, staged, outcome, io)
        } else if staged.dirty {
            // A dirty first touch must be absorbed (write economy is bought
            // with exactly these writes) — probation in the small queue.
            ring.admit(SMALL, staged, outcome, io)
        } else {
            // Clean first touch: ghost only. No flash write for a potential
            // one-hit wonder; the disk copy is current, so rejecting is safe.
            ring.policy.ghost.record(staged.page);
            ring.stats.admission_filtered += 1;
            outcome.cached = false;
            Ok(())
        }
    }

    fn make_room(
        ring: &mut GroupRing<Self>,
        region: usize,
        outcome: &mut InsertOutcome,
        io: &mut IoLog,
    ) -> DeviceResult<()> {
        let mut batch = ring.group_dequeue(region, true, io)?;
        if region == MAIN {
            ring.force_progress(&mut batch, io);
            outcome.staged_out.append(&mut batch.to_disk);
            ring.reenqueue(MAIN, batch.survivors, outcome, io);
            return Ok(());
        }
        // Quick demotion: remember the ids so a comeback is admitted
        // straight to main. Referenced victims are promoted.
        for page in batch.evicted {
            ring.policy.ghost.record(page);
        }
        outcome.staged_out.append(&mut batch.to_disk);
        ring.admit_all(MAIN, batch.survivors, outcome, io)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use face_pagestore::{Lsn, Page, PageId};

    use super::*;
    use crate::policy::{FlashCache, NoSupplier};
    use crate::ring::{pack_pointers, unpack_pointers};
    use crate::store::{FlashStore, MemFlashStore};

    fn pid(n: u32) -> PageId {
        PageId::new(0, n)
    }

    fn cfg(capacity: usize, group: usize) -> CacheConfig {
        CacheConfig {
            capacity_pages: capacity,
            group_size: group,
            meta_checkpoint_interval_groups: 4,
            ..CacheConfig::default()
        }
    }

    fn staged(n: u32, lsn: u64, dirty: bool) -> StagedPage {
        let mut page = Page::new(pid(n));
        page.set_lsn(Lsn(lsn));
        page.update_checksum();
        StagedPage::with_data(page, dirty, true)
    }

    fn cache(capacity: usize, group: usize) -> (S3FifoCache, Arc<MemFlashStore>) {
        let store = Arc::new(MemFlashStore::new(capacity));
        (
            S3FifoCache::new(
                cfg(capacity, group),
                Arc::clone(&store) as Arc<dyn FlashStore>,
            ),
            store,
        )
    }

    #[test]
    fn clean_first_touch_is_ghosted_not_cached() {
        let (mut c, store) = cache(16, 2);
        let mut io = IoLog::new();
        let outcome = c
            .insert(staged(1, 1, false), &mut NoSupplier, &mut io)
            .unwrap();
        assert!(!outcome.cached, "one-touch clean page is rejected");
        assert!(!c.contains(pid(1)));
        assert_eq!(c.ghost_len(), 1);
        assert_eq!(c.stats().admission_filtered, 1);
        c.sync(&mut io).unwrap();
        assert_eq!(store.pages_written(), 0, "no flash write was paid");
    }

    #[test]
    fn ghost_re_reference_is_admitted_to_main() {
        let (mut c, store) = cache(16, 1);
        let mut io = IoLog::new();
        assert!(
            !c.insert(staged(1, 1, false), &mut NoSupplier, &mut io)
                .unwrap()
                .cached
        );
        let outcome = c
            .insert(staged(1, 2, false), &mut NoSupplier, &mut io)
            .unwrap();
        assert!(outcome.cached, "re-referenced ghost entry is admitted");
        assert!(c.contains(pid(1)));
        let (small, main) = c.region_sizes();
        assert_eq!((small, main), (0, 1), "ghost hits go straight to main");
        assert_eq!(c.stats().admission_ghost_hits, 1);
        c.sync(&mut io).unwrap();
        assert!(store.pages_written() >= 1, "the comeback paid its write");
    }

    #[test]
    fn dirty_first_touch_enters_small_queue() {
        let (mut c, _) = cache(16, 1);
        let mut io = IoLog::new();
        assert!(
            c.insert(staged(1, 1, true), &mut NoSupplier, &mut io)
                .unwrap()
                .cached
        );
        let (small, main) = c.region_sizes();
        assert_eq!((small, main), (1, 0));
        assert!(c.contains(pid(1)));
    }

    #[test]
    fn unreferenced_small_victims_demote_to_ghost_dirty_ones_reach_disk() {
        // capacity 20 → small cap 2. Fill small with dirty pages and keep
        // inserting: victims are unreferenced, so they demote.
        let (mut c, _) = cache(20, 1);
        let mut io = IoLog::new();
        for n in 0..5 {
            assert!(
                c.insert(staged(n, n as u64 + 1, true), &mut NoSupplier, &mut io)
                    .unwrap()
                    .cached
            );
        }
        let (small, main) = c.region_sizes();
        assert_eq!(small, 2, "small queue stays at its capacity");
        assert_eq!(main, 0, "no victim was referenced, nothing promoted");
        let stats = c.stats();
        assert_eq!(stats.staged_out_to_disk, 3, "dirty demotions reached disk");
        assert!(c.ghost_len() >= 3, "demoted ids are remembered as ghosts");
    }

    #[test]
    fn referenced_small_victims_promote_to_main() {
        let (mut c, _) = cache(20, 1);
        let mut io = IoLog::new();
        c.insert(staged(1, 1, true), &mut NoSupplier, &mut io)
            .unwrap();
        assert!(
            c.fetch(pid(1), &mut io).unwrap().is_some(),
            "touch it while cached"
        );
        // Force small evictions by pushing more dirty first-touches.
        c.insert(staged(2, 2, true), &mut NoSupplier, &mut io)
            .unwrap();
        c.insert(staged(3, 3, true), &mut NoSupplier, &mut io)
            .unwrap();
        assert!(c.contains(pid(1)), "referenced victim survived");
        let slot = *c.dir.get(&pid(1)).unwrap();
        assert!(
            slot >= c.regions[SMALL].cap,
            "page 1 now lives in the main region"
        );
        assert!(c.stats().second_chances >= 1);
    }

    #[test]
    fn main_eviction_gives_second_chances_with_forced_progress() {
        let (mut c, _) = cache(20, 2);
        let mut io = IoLog::new();
        // Fill main via ghost re-references (reject once, insert again).
        for n in 0..30u32 {
            c.insert(
                staged(n, u64::from(n) * 2 + 1, false),
                &mut NoSupplier,
                &mut io,
            )
            .unwrap();
            c.insert(
                staged(n, u64::from(n) * 2 + 2, false),
                &mut NoSupplier,
                &mut io,
            )
            .unwrap();
        }
        let (_, main) = c.region_sizes();
        assert_eq!(main, 18, "main region is full");
        // Reference everything cached, then keep inserting: forced progress
        // must still evict.
        let cached: Vec<PageId> = c.dir.keys().copied().collect();
        for p in &cached {
            assert!(c.fetch(*p, &mut io).unwrap().is_some());
        }
        for n in 100..110u32 {
            c.insert(
                staged(n, 1000 + u64::from(n), false),
                &mut NoSupplier,
                &mut io,
            )
            .unwrap();
            c.insert(
                staged(n, 2000 + u64::from(n), false),
                &mut NoSupplier,
                &mut io,
            )
            .unwrap();
        }
        assert!(c.len() <= c.capacity());
        assert!(c.stats().second_chances > 0);
    }

    #[test]
    fn updates_of_cached_pages_invalidate_previous_versions() {
        let (mut c, _) = cache(20, 1);
        let mut io = IoLog::new();
        c.insert(staged(1, 1, true), &mut NoSupplier, &mut io)
            .unwrap();
        c.insert(staged(1, 2, true), &mut NoSupplier, &mut io)
            .unwrap();
        assert_eq!(c.stats().invalidations, 1);
        let f = c.fetch(pid(1), &mut io).unwrap().unwrap();
        assert_eq!(f.lsn, Lsn(2), "latest version is served");
        // The update of a cached page goes to main (proven re-reference).
        let slot = *c.dir.get(&pid(1)).unwrap();
        assert!(slot >= c.regions[SMALL].cap);
    }

    #[test]
    fn clean_identical_copy_is_skipped() {
        let (mut c, _) = cache(16, 1);
        let mut io = IoLog::new();
        c.insert(staged(1, 1, true), &mut NoSupplier, &mut io)
            .unwrap();
        let mut page = Page::new(pid(1));
        page.set_lsn(Lsn(1));
        let dup = StagedPage::with_data(page, false, false);
        let outcome = c.insert(dup, &mut NoSupplier, &mut io).unwrap();
        assert!(outcome.cached);
        assert_eq!(c.stats().skipped_inserts, 1);
    }

    #[test]
    fn fetch_serves_data_and_pins_validate() {
        let (mut c, _) = cache(16, 1);
        let mut io = IoLog::new();
        c.insert(staged(7, 3, true), &mut NoSupplier, &mut io)
            .unwrap();
        let f = c.fetch(pid(7), &mut io).unwrap().unwrap();
        assert!(f.dirty);
        assert_eq!(f.lsn, Lsn(3));
        assert!(f.data.is_some());

        let pin = c.fetch_pin(pid(7), false, &mut io).unwrap();
        assert!(c.fetch_validate(pin.slot, pin.generation));
        // Evicting the slot invalidates the pin.
        let mut io2 = IoLog::new();
        for n in 100..140u32 {
            c.insert(
                staged(n, 100 + u64::from(n), true),
                &mut NoSupplier,
                &mut io2,
            )
            .unwrap();
            c.insert(
                staged(n, 200 + u64::from(n), true),
                &mut NoSupplier,
                &mut io2,
            )
            .unwrap();
        }
        let still_valid = c.fetch_validate(pin.slot, pin.generation);
        if !c.contains(pid(7)) {
            assert!(!still_valid, "a pin on an evicted slot must not validate");
        }
    }

    #[test]
    fn deferred_groups_seal_in_epoch_order() {
        let store = Arc::new(MemFlashStore::new(20));
        let config = CacheConfig {
            defer_group_writes: true,
            // Keep the checkpoint cadence out of the way: a checkpoint folds
            // (prunes) sealed groups, which would hide the seals under test.
            meta_checkpoint_interval_groups: 1000,
            ..cfg(20, 2)
        };
        let mut c = S3FifoCache::new(config, store);
        let mut io = IoLog::new();
        let mut pending = Vec::new();
        for n in 0..8u32 {
            let out = c
                .insert(staged(n, u64::from(n) + 1, true), &mut NoSupplier, &mut io)
                .unwrap();
            if let Some(w) = out.pending_group {
                pending.push(w);
            }
        }
        assert!(!pending.is_empty(), "deferred mode hands groups back");
        // Complete out of order: seals must still be contiguous.
        let sealed_before = c.journal().sealed_groups();
        for w in pending.iter().rev() {
            assert!(c.group_write_pending(w.epoch));
            w.apply(&*c.store, &mut io).unwrap();
            c.complete_group(w.epoch, &mut io);
        }
        assert!(c.journal().sealed_groups() > sealed_before);
        for w in &pending {
            assert!(!c.group_write_pending(w.epoch));
        }
    }

    #[test]
    fn crash_and_recover_preserves_queue_membership() {
        let (mut c, _) = cache(24, 2);
        let mut io = IoLog::new();
        // Mixed population: dirty first-touches (small), ghost comebacks
        // (main), promotions.
        for n in 0..6u32 {
            c.insert(staged(n, u64::from(n) + 1, true), &mut NoSupplier, &mut io)
                .unwrap();
        }
        for n in 10..14u32 {
            c.insert(staged(n, u64::from(n) + 1, false), &mut NoSupplier, &mut io)
                .unwrap();
            c.insert(
                staged(n, u64::from(n) + 20, false),
                &mut NoSupplier,
                &mut io,
            )
            .unwrap();
        }
        c.sync(&mut io).unwrap();
        let before = c.valid_versions();
        let sizes_before = c.region_sizes();
        let info = c.crash_and_recover(Lsn(u64::MAX), &mut io);
        assert!(info.survived);
        assert_eq!(c.valid_versions(), before, "directory survives the crash");
        assert_eq!(c.region_sizes(), sizes_before, "queue membership survives");
        assert_eq!(c.ghost_len(), 0, "the ghost directory is volatile");
        // Served versions still fetch.
        for (page, lsn, _) in before {
            let f = c
                .fetch(page, &mut io)
                .unwrap()
                .expect("recovered page fetches");
            assert_eq!(f.lsn, lsn);
        }
    }

    #[test]
    fn recovery_never_resurrects_beyond_durable_versions() {
        let (mut c, _) = cache(24, 2);
        let mut io = IoLog::new();
        // Admit via ghost comebacks so all six land in main (the small queue
        // holds only two pages at this capacity and would demote the rest).
        for n in 0..6u32 {
            c.insert(staged(n, 1, false), &mut NoSupplier, &mut io)
                .unwrap();
            c.insert(
                staged(n, 10 + u64::from(n), false),
                &mut NoSupplier,
                &mut io,
            )
            .unwrap();
        }
        c.sync(&mut io).unwrap();
        // durable_lsn 12: versions with LSN 13..15 outran the log.
        let info = c.crash_and_recover(Lsn(12), &mut io);
        assert!(
            info.entries_discarded_beyond_wal >= 3,
            "discarded {}",
            info.entries_discarded_beyond_wal
        );
        for n in 0..6u32 {
            if let Some(f) = c.fetch(pid(n), &mut io).unwrap() {
                assert!(f.lsn <= Lsn(12), "resurrected beyond-durable version");
            }
        }
        // A second crash/recovery stays consistent (doomed slots were
        // physically invalidated and the checkpoint rewritten).
        let before = c.valid_versions();
        c.crash_and_recover(Lsn(u64::MAX), &mut io);
        assert_eq!(c.valid_versions(), before);
    }

    #[test]
    fn capacity_splits_give_both_regions_at_least_one_slot() {
        for capacity in [2usize, 3, 10, 100] {
            let config = cfg(capacity, 1);
            let (small, main) = S3FifoCache::split_capacity(&config);
            assert!(small >= 1 && main >= 1);
            assert_eq!(small + main, capacity);
        }
        let extreme = CacheConfig {
            s3_small_fraction: 1.0,
            ..cfg(8, 1)
        };
        let (small, main) = S3FifoCache::split_capacity(&extreme);
        assert_eq!((small, main), (7, 1));
    }

    #[test]
    fn pointer_packing_round_trips() {
        for (s, m) in [(0usize, 0usize), (3, 7), (u32::MAX as usize - 1, 12)] {
            assert_eq!(unpack_pointers(pack_pointers(s, m)), (s, m));
        }
    }

    mod properties {
        use proptest::prelude::*;

        use super::*;
        use crate::ring::tests::check_structure;

        /// An arbitrary interleaving of inserts and fetches against any
        /// geometry preserves the structural invariants of S3-FIFO (bounded
        /// regions, a directory that only points at valid in-window slots),
        /// and — the admission property — a clean page the workload touches
        /// once never costs a flash write.
        fn check(ops: Vec<(u8, u32, bool)>, capacity: usize, group: usize) {
            let store = Arc::new(MemFlashStore::new(capacity));
            let mut cache = S3FifoCache::new(
                cfg(capacity, group),
                Arc::clone(&store) as Arc<dyn FlashStore>,
            );
            let mut io = IoLog::new();
            let mut touched: std::collections::HashMap<PageId, u32> =
                std::collections::HashMap::new();
            let mut any_dirty_or_repeat = false;
            for (i, (op, page, dirty)) in ops.iter().enumerate() {
                let page_id = pid(page % 64);
                if op % 3 == 0 {
                    cache.fetch(page_id, &mut io).unwrap();
                } else {
                    cache
                        .insert(
                            staged(page % 64, i as u64 + 1, *dirty),
                            &mut NoSupplier,
                            &mut io,
                        )
                        .unwrap();
                    let n = touched.entry(page_id).or_insert(0);
                    *n += 1;
                    if *dirty || *n > 1 {
                        any_dirty_or_repeat = true;
                    }
                }
                check_structure(&cache);
            }
            cache.sync(&mut io).unwrap();
            if !any_dirty_or_repeat {
                assert_eq!(
                    store.pages_written(),
                    0,
                    "a stream of clean one-touch pages must not cost flash writes"
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn invariants_hold_under_arbitrary_interleavings(
                ops in prop::collection::vec((any::<u8>(), any::<u32>(), any::<bool>()), 1..200),
                group in 1usize..8,
            ) {
                check(ops, 24, group);
            }

            /// Distinct clean pages only (one touch each, forced clean): the
            /// write-economy promise holds for any such stream.
            #[test]
            fn one_touch_clean_streams_never_pay_flash_writes(
                raw in prop::collection::vec(0u32..512, 1..100),
            ) {
                let mut seen = std::collections::HashSet::new();
                let ops = raw
                    .into_iter()
                    .filter(|p| seen.insert(*p))
                    .map(|p| (1u8, p, false))
                    .collect::<Vec<_>>();
                let store = Arc::new(MemFlashStore::new(16));
                let mut cache = S3FifoCache::new(
                    cfg(16, 2),
                    Arc::clone(&store) as Arc<dyn FlashStore>,
                );
                let mut io = IoLog::new();
                for (i, (_, p, _)) in ops.iter().enumerate() {
                    let out = cache.insert(
                        staged(*p, i as u64 + 1, false),
                        &mut NoSupplier,
                        &mut io,
                    )
                    .unwrap();
                    prop_assert!(!out.cached);
                }
                cache.sync(&mut io).unwrap();
                prop_assert_eq!(store.pages_written(), 0);
            }
        }
    }
}
