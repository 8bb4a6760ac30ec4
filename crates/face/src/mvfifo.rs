//! Multi-Version FIFO replacement with Group Replacement and Group Second
//! Chance — the FaCE caching decisions (paper §3.2–3.3, Algorithm 1) over a
//! single-region [`GroupRing`] (which owns the queue, batch, journal and
//! recovery mechanics).
//!
//! * **Conditional enqueue.** A clean page whose identical copy is already
//!   cached is not enqueued again; every other page is enqueued at the rear,
//!   invalidating the version it supersedes.
//! * **FaCE** (base): `group_size = 1` — every enqueue is an append of one
//!   page, every replacement dequeues one page.
//! * **FaCE + GR**: enqueues are buffered and written as one batch-sized
//!   sequential I/O; replacements dequeue a whole group at once. Dirty valid
//!   victims go to disk, everything else is discarded.
//! * **FaCE + GSC**: like GR, but a dequeued page whose reference bit is set
//!   (it was hit while cached) is re-enqueued instead of discarded — unless
//!   the whole group was referenced, in which case the oldest is forced out
//!   so the replacement makes progress. If the write batch still has room it
//!   is topped up with dirty pages pulled from the DRAM buffer's LRU tail.
//! * **Ghost admission** ([`CacheConfig::ghost_admission`], off by default):
//!   a clean page the directory does not hold is recorded in a RAM-only
//!   [`GhostQueue`] on its first touch and not cached; only its comeback
//!   while the ghost entry is live earns the flash write. Dirty pages, GSC's
//!   pulled extras included, are always admitted.

use face_pagestore::DeviceResult;

use crate::admission::GhostQueue;
use crate::io::IoLog;
use crate::policy::PageSupplier;
use crate::ring::{GroupRing, RingCache, RingPolicy};
use crate::types::{CacheConfig, InsertOutcome, StagedPage};

/// The FaCE flash cache: mvFIFO decisions over the shared ring.
pub type MvFifoCache = GroupRing<MvFifo>;

/// The mvFIFO decision rules; which of FaCE, FaCE+GR and FaCE+GSC runs is
/// read from [`CacheConfig::group_size`] and [`CacheConfig::second_chance`].
#[derive(Debug, Default)]
pub struct MvFifo {
    /// The admission filter's RAM-only ghost directory, when
    /// [`CacheConfig::ghost_admission`] is set. Lost on crash.
    ghost: Option<GhostQueue>,
}

/// The single queue.
const QUEUE: usize = 0;

impl RingPolicy for MvFifo {
    fn new(config: &CacheConfig) -> Self {
        Self {
            ghost: config
                .ghost_admission
                .then(|| GhostQueue::new(config.effective_ghost_capacity())),
        }
    }

    fn name(config: &CacheConfig) -> &'static str {
        if config.second_chance {
            "FaCE+GSC"
        } else if config.group_size > 1 {
            "FaCE+GR"
        } else {
            "FaCE"
        }
    }

    fn region_capacities(config: &CacheConfig) -> Vec<usize> {
        vec![config.capacity_pages]
    }

    fn place(
        ring: &mut GroupRing<Self>,
        staged: StagedPage,
        supplier: &mut dyn PageSupplier,
        outcome: &mut InsertOutcome,
        io: &mut IoLog,
    ) -> DeviceResult<()> {
        if ring.skip_clean_duplicate(&staged) {
            return Ok(());
        }
        if !staged.dirty && !ring.contains(staged.page) {
            if let Some(ghost) = ring.policy.ghost.as_mut() {
                // A clean first touch: the disk copy is current, so leaving
                // it uncached is safe. Its comeback earns the flash write.
                if ghost.admit_or_record(staged.page) {
                    ring.stats.admission_ghost_hits += 1;
                } else {
                    ring.stats.admission_filtered += 1;
                    outcome.cached = false;
                    return Ok(());
                }
            }
        }
        let replacing = ring.free(QUEUE) == 0;
        ring.admit(QUEUE, staged, outcome, io)?;

        // Group Second Chance: top the write batch up with dirty pages pulled
        // from the DRAM buffer's LRU tail so the batch write is full-sized.
        if ring.config().second_chance && replacing {
            loop {
                ring.absorb_quarantined_rear(QUEUE);
                if ring.pending_len() >= ring.config().group_size || ring.free(QUEUE) == 0 {
                    break;
                }
                let Some(extra) = supplier.next_dirty_page() else {
                    break;
                };
                ring.stats.pulled_from_dram += 1;
                ring.count_insert(&extra);
                if !ring.skip_clean_duplicate(&extra) {
                    ring.enqueue_fresh(QUEUE, &extra);
                }
            }
        }
        Ok(())
    }

    fn make_room(
        ring: &mut GroupRing<Self>,
        region: usize,
        outcome: &mut InsertOutcome,
        io: &mut IoLog,
    ) -> DeviceResult<()> {
        let mut batch = ring.group_dequeue(region, ring.config().second_chance, io)?;
        ring.force_progress(&mut batch, io);
        outcome.staged_out.append(&mut batch.to_disk);
        ring.reenqueue(region, batch.survivors, outcome, io);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use face_pagestore::{Lsn, Page, PageId};

    use super::*;
    use crate::policy::{FlashCache, NoSupplier};
    use crate::ring::RingCache;
    use crate::store::{FlashStore, MemFlashStore, NullFlashStore};

    fn pid(n: u32) -> PageId {
        PageId::new(0, n)
    }

    fn meta_cfg(capacity: usize, group: usize, sc: bool) -> CacheConfig {
        CacheConfig {
            capacity_pages: capacity,
            group_size: group,
            second_chance: sc,
            meta_checkpoint_interval_groups: 1_000_000, // keep checkpoints out of the way
            ..CacheConfig::default()
        }
    }

    fn meta_cache(capacity: usize, group: usize, sc: bool) -> MvFifoCache {
        MvFifoCache::new(
            meta_cfg(capacity, group, sc),
            Arc::new(NullFlashStore::new(capacity)),
        )
    }

    fn staged(n: u32, dirty: bool, fdirty: bool) -> StagedPage {
        StagedPage::meta_only(pid(n), Lsn(n as u64), dirty, fdirty)
    }

    #[test]
    fn enqueue_and_hit() {
        let mut c = meta_cache(4, 1, false);
        let mut io = IoLog::new();
        c.insert(staged(1, true, true), &mut NoSupplier, &mut io)
            .unwrap();
        assert!(c.contains(pid(1)));
        assert_eq!(c.len(), 1);
        // The enqueue is a sequential flash write of one data page plus the
        // group's journal-record append riding along.
        assert_eq!(io.flash_pages_written(), 2);
        assert_eq!(io.flash_pages_written_random(), 0);

        let mut io = IoLog::new();
        let hit = c.fetch(pid(1), &mut io).unwrap().unwrap();
        assert!(hit.dirty);
        assert_eq!(hit.lsn, Lsn(1));
        assert_eq!(c.stats().hits, 1);
        // A flash hit is one random flash read.
        assert_eq!(io.events().len(), 1);
        assert!(c.fetch(pid(99), &mut io).unwrap().is_none());
        assert_eq!(c.stats().lookups, 2);
    }

    #[test]
    fn conditional_enqueue_skips_clean_duplicates() {
        let mut c = meta_cache(4, 1, false);
        let mut io = IoLog::new();
        c.insert(staged(1, false, true), &mut NoSupplier, &mut io)
            .unwrap();
        assert_eq!(c.len(), 1);
        // Clean page, identical copy already cached: skipped.
        c.insert(staged(1, false, false), &mut NoSupplier, &mut io)
            .unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().skipped_inserts, 1);
        // fdirty copy is enqueued unconditionally and invalidates the old one.
        c.insert(staged(1, true, true), &mut NoSupplier, &mut io)
            .unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(
            c.valid_versions().len(),
            1,
            "one of the two versions is valid"
        );
    }

    #[test]
    fn ghost_admission_filters_clean_first_touches_only() {
        let mut cfg = meta_cfg(8, 1, false);
        cfg.ghost_admission = true;
        let mut c = MvFifoCache::new(cfg, Arc::new(NullFlashStore::new(8)));
        let mut io = IoLog::new();
        // A clean first touch is remembered, not cached: no flash write.
        let out = c
            .insert(staged(1, false, true), &mut NoSupplier, &mut io)
            .unwrap();
        assert!(!out.cached);
        assert!(!c.contains(pid(1)));
        assert!(io.is_empty());
        // Its comeback while the ghost entry is live earns the write.
        let out = c
            .insert(staged(1, false, true), &mut NoSupplier, &mut io)
            .unwrap();
        assert!(out.cached);
        assert!(c.contains(pid(1)));
        // A dirty first touch is always admitted.
        let out = c
            .insert(staged(2, true, true), &mut NoSupplier, &mut io)
            .unwrap();
        assert!(out.cached);
        assert!(c.contains(pid(2)));
        let stats = c.stats();
        assert_eq!(stats.inserts, 3, "a filtered insert still counts");
        assert_eq!(stats.admission_filtered, 1);
        assert_eq!(stats.admission_ghost_hits, 1);

        // With the flag off nothing is filtered.
        let mut c = meta_cache(8, 1, false);
        let out = c
            .insert(staged(3, false, true), &mut NoSupplier, &mut io)
            .unwrap();
        assert!(out.cached);
        assert!(c.contains(pid(3)));
        assert_eq!(c.stats().admission_filtered, 0);
    }

    #[test]
    fn dequeue_flushes_only_latest_dirty_version() {
        let mut c = meta_cache(2, 1, false);
        let mut io = IoLog::new();
        // Two versions of page 1 fill the cache; the older one is invalid.
        c.insert(staged(1, true, true), &mut NoSupplier, &mut io)
            .unwrap();
        c.insert(staged(1, true, true), &mut NoSupplier, &mut io)
            .unwrap();
        assert_eq!(c.len(), 2);

        // Inserting page 2 dequeues the front slot: the *invalid* old version
        // of page 1, which must be discarded without a disk write.
        let mut io = IoLog::new();
        let out = c
            .insert(staged(2, true, true), &mut NoSupplier, &mut io)
            .unwrap();
        assert_eq!(io.disk_writes(), 0);
        assert!(out.staged_out.is_empty());
        assert!(c.contains(pid(1)));

        // Next insert dequeues the valid dirty version of page 1: disk write.
        let mut io = IoLog::new();
        let out = c
            .insert(staged(3, true, true), &mut NoSupplier, &mut io)
            .unwrap();
        assert_eq!(io.disk_writes(), 1);
        assert_eq!(out.staged_out.len(), 1);
        assert_eq!(out.staged_out[0].page, pid(1));
        assert!(!c.contains(pid(1)));
        assert_eq!(c.stats().staged_out_to_disk, 1);
    }

    #[test]
    fn clean_valid_pages_are_discarded_without_disk_write() {
        let mut c = meta_cache(2, 1, false);
        let mut io = IoLog::new();
        c.insert(staged(1, false, true), &mut NoSupplier, &mut io)
            .unwrap();
        c.insert(staged(2, false, true), &mut NoSupplier, &mut io)
            .unwrap();
        let mut io = IoLog::new();
        let out = c
            .insert(staged(3, false, true), &mut NoSupplier, &mut io)
            .unwrap();
        assert_eq!(io.disk_writes(), 0);
        assert!(out.staged_out.is_empty());
        assert!(!c.contains(pid(1)));
    }

    #[test]
    fn group_replacement_batches_io() {
        let mut c = meta_cache(16, 4, false);
        let mut io = IoLog::new();
        // Fill the cache with 16 dirty pages: writes happen in batches of 4.
        for i in 0..16 {
            c.insert(staged(i, true, true), &mut NoSupplier, &mut io)
                .unwrap();
        }
        let data_batches = io
            .events()
            .iter()
            .filter(|e| matches!(e, crate::io::FlashIoEvent::FlashWrite { pages: 4, .. }))
            .count();
        assert_eq!(data_batches, 4, "4 batches of 4 pages");
        // 16 data pages plus one small journal append per sealed group.
        assert_eq!(io.flash_pages_written(), 20);

        // The next insert triggers a group dequeue of 4 dirty pages: one
        // sequential flash read of 4 pages + 4 disk writes.
        let mut io = IoLog::new();
        c.insert(staged(100, true, true), &mut NoSupplier, &mut io)
            .unwrap();
        assert_eq!(io.disk_writes(), 4);
        let seq_reads: u64 = io
            .events()
            .iter()
            .filter_map(|e| match e {
                crate::io::FlashIoEvent::FlashRead {
                    pages,
                    sequential: true,
                } => Some(*pages as u64),
                _ => None,
            })
            .sum();
        assert_eq!(seq_reads, 4);
        assert_eq!(c.len(), 13); // 16 - 4 dequeued + 1 inserted
    }

    #[test]
    fn second_chance_reenqueues_referenced_pages() {
        let mut c = meta_cache(8, 4, true);
        let mut io = IoLog::new();
        for i in 0..8 {
            c.insert(staged(i, true, true), &mut NoSupplier, &mut io)
                .unwrap();
        }
        // Reference pages 0 and 2 (they sit in the first group).
        c.fetch(pid(0), &mut io).unwrap().unwrap();
        c.fetch(pid(2), &mut io).unwrap().unwrap();

        let mut io = IoLog::new();
        let out = c
            .insert(staged(100, true, true), &mut NoSupplier, &mut io)
            .unwrap();
        // Pages 1 and 3 (unreferenced, dirty) go to disk; 0 and 2 survive.
        assert_eq!(io.disk_writes(), 2);
        assert!(c.contains(pid(0)));
        assert!(c.contains(pid(2)));
        assert!(!c.contains(pid(1)));
        assert!(!c.contains(pid(3)));
        assert_eq!(c.stats().second_chances, 2);
        assert_eq!(out.staged_out.len(), 2);
    }

    #[test]
    fn gsc_pulls_dirty_pages_from_dram_to_fill_batch() {
        let mut c = meta_cache(8, 4, true);
        let mut io = IoLog::new();
        for i in 0..8 {
            c.insert(staged(i, true, true), &mut NoSupplier, &mut io)
                .unwrap();
        }
        // Supplier provides extra dirty pages 200, 201, ...
        let mut next = 200u32;
        let mut supplier = || {
            let s = staged(next, true, true);
            next += 1;
            Some(s)
        };
        let mut io = IoLog::new();
        c.insert(staged(100, true, true), &mut supplier, &mut io)
            .unwrap();
        assert!(c.stats().pulled_from_dram > 0);
        assert!(c.contains(pid(200)));
        // The batch written was full-sized (4 pages) in a single write.
        let max_batch = io
            .events()
            .iter()
            .filter_map(|e| match e {
                crate::io::FlashIoEvent::FlashWrite { pages, .. } => Some(*pages),
                _ => None,
            })
            .max()
            .unwrap();
        assert_eq!(max_batch, 4);
    }

    #[test]
    fn all_referenced_group_still_makes_progress() {
        let mut c = meta_cache(4, 4, true);
        let mut io = IoLog::new();
        for i in 0..4 {
            c.insert(staged(i, true, true), &mut NoSupplier, &mut io)
                .unwrap();
        }
        for i in 0..4 {
            c.fetch(pid(i), &mut io).unwrap().unwrap();
        }
        // Every cached page is referenced; the insert must still succeed.
        let out = c
            .insert(staged(99, true, true), &mut NoSupplier, &mut io)
            .unwrap();
        assert!(c.contains(pid(99)));
        // The forced-out page went to disk (it was dirty).
        assert_eq!(out.staged_out.len(), 1);
        assert!(c.len() <= c.capacity());
    }

    #[test]
    fn data_round_trips_through_mem_store() {
        let store = Arc::new(MemFlashStore::new(8));
        let mut c = MvFifoCache::new(meta_cfg(8, 1, false), store);
        let mut io = IoLog::new();
        let mut page = Page::new(pid(5));
        page.set_lsn(Lsn(42));
        page.write_body(0, b"flash resident");
        c.insert(
            StagedPage::with_data(page, true, true),
            &mut NoSupplier,
            &mut io,
        )
        .unwrap();

        let hit = c.fetch(pid(5), &mut io).unwrap().unwrap();
        let data = hit.data.expect("mem store carries data");
        assert_eq!(data.read_body(0, 14), b"flash resident");
        assert_eq!(data.lsn(), Lsn(42));
    }

    #[test]
    fn staged_out_pages_carry_data_for_disk_write() {
        let store = Arc::new(MemFlashStore::new(2));
        let mut c = MvFifoCache::new(meta_cfg(2, 1, false), store);
        let mut io = IoLog::new();
        let mut p1 = Page::new(pid(1));
        p1.write_body(0, b"v1");
        c.insert(
            StagedPage::with_data(p1, true, true),
            &mut NoSupplier,
            &mut io,
        )
        .unwrap();
        c.insert(staged(2, false, true), &mut NoSupplier, &mut io)
            .unwrap();
        // Page 1 is dequeued dirty; its data must be available for the disk
        // write the engine will perform.
        let out = c
            .insert(staged(3, false, true), &mut NoSupplier, &mut io)
            .unwrap();
        assert_eq!(out.staged_out.len(), 1);
        let data = out.staged_out[0].data.as_ref().expect("data present");
        assert_eq!(data.read_body(0, 2), b"v1");
    }

    #[test]
    fn sync_flushes_pending_batch_and_metadata() {
        let cfg = meta_cfg(64, 16, false);
        let mut c = MvFifoCache::new(cfg, Arc::new(NullFlashStore::new(64)));
        let mut io = IoLog::new();
        for i in 0..5 {
            c.insert(staged(i, true, true), &mut NoSupplier, &mut io)
                .unwrap();
        }
        // 5 < group of 16: nothing written yet.
        assert_eq!(io.flash_pages_written(), 0);
        assert_eq!(c.pending_len(), 5);
        let mut io = IoLog::new();
        c.sync(&mut io).unwrap();
        // Pending batch (5 pages) + its journal group seal (1 page) + the
        // cache checkpoint snapshot (1 page).
        assert_eq!(io.flash_pages_written(), 7);
        // All writes sequential.
        assert_eq!(io.flash_pages_written_random(), 0);
        assert_eq!(c.pending_len(), 0);
        // A clean shutdown restarts with zero journal replay.
        assert_eq!(c.journal().replay_entries(), 0);
        assert!(c.journal().checkpoint().is_some());
        // A second sync with nothing new to fold writes no second snapshot.
        assert_eq!(c.journal().stats().checkpoints_written, 1);
        let mut io = IoLog::new();
        c.sync(&mut io).unwrap();
        assert_eq!(c.journal().stats().checkpoints_written, 1);
        assert!(io.is_empty(), "idempotent sync must cost no flash I/O");
    }

    #[test]
    fn metadata_checkpointing_is_sequential_and_periodic() {
        let mut cfg = meta_cfg(1024, 1, false);
        cfg.meta_checkpoint_interval_groups = 100;
        let mut c = MvFifoCache::new(cfg, Arc::new(NullFlashStore::new(1024)));
        let mut io = IoLog::new();
        for i in 0..250 {
            c.insert(staged(i, true, true), &mut NoSupplier, &mut io)
                .unwrap();
        }
        // Group size 1: every insert seals a group; every 100 groups a cache
        // checkpoint snapshots the directory and prunes the journal.
        assert_eq!(c.journal().stats().checkpoints_written, 2);
        assert_eq!(c.journal().stats().groups_sealed, 250);
        // Replay is bounded by the cadence, not the cache's lifetime.
        assert_eq!(c.journal().replay_entries(), 50);
        assert_eq!(io.flash_pages_written_random(), 0);
    }

    #[test]
    fn recovery_restores_cache_contents_from_flash() {
        let store = Arc::new(MemFlashStore::new(64));
        let mut cfg = meta_cfg(64, 1, false);
        cfg.meta_checkpoint_interval_groups = 8;
        let mut c = MvFifoCache::new(cfg.clone(), Arc::clone(&store) as Arc<dyn FlashStore>);
        let mut io = IoLog::new();
        for i in 0..20u32 {
            let mut p = Page::new(pid(i));
            p.set_lsn(Lsn(i as u64 + 1));
            p.write_body(0, &i.to_le_bytes());
            c.insert(
                StagedPage::with_data(p, true, true),
                &mut NoSupplier,
                &mut io,
            )
            .unwrap();
        }
        // 20 enqueues, group size 1, checkpoint every 8 groups: two cache
        // checkpoints plus 4 sealed groups remain to replay.
        assert_eq!(c.journal().stats().checkpoints_written, 2);
        assert_eq!(c.journal().replay_entries(), 4);

        // Crash: flash contents, the checkpoint and the sealed groups — all
        // the journal holds — survive.
        let survivor = c.journal().clone();

        let mut recovery_io = IoLog::new();
        let (recovered, info) = MvFifoCache::recover(
            cfg,
            store as Arc<dyn FlashStore>,
            &survivor,
            Lsn(u64::MAX),
            &mut recovery_io,
        );
        assert!(info.checkpoint_loaded);
        assert_eq!(info.journal_records_replayed, 4);
        assert_eq!(info.entries_restored, 20);
        assert_eq!(info.entries_discarded_beyond_wal, 0);
        assert_eq!(recovered.len(), 20);
        let mut io = IoLog::new();
        let mut ok = 0;
        let mut recovered = recovered;
        for i in 0..20u32 {
            if let Some(hit) = recovered.fetch(pid(i), &mut io).unwrap() {
                let data = hit.data.unwrap();
                assert_eq!(data.read_body(0, 4), &i.to_le_bytes());
                ok += 1;
            }
        }
        assert_eq!(ok, 20, "all cached pages recoverable");
        // Recovery itself used only sequential flash reads.
        assert!(recovery_io
            .events()
            .iter()
            .all(|e| e.is_flash() && !e.is_write()));
    }

    #[test]
    fn recovery_keeps_only_latest_version() {
        let store = Arc::new(MemFlashStore::new(16));
        let cfg = meta_cfg(16, 1, false);
        let mut c = MvFifoCache::new(cfg.clone(), Arc::clone(&store) as Arc<dyn FlashStore>);
        let mut io = IoLog::new();
        let mut old = Page::new(pid(7));
        old.set_lsn(Lsn(1));
        old.write_body(0, b"old");
        c.insert(
            StagedPage::with_data(old, true, true),
            &mut NoSupplier,
            &mut io,
        )
        .unwrap();
        let mut newer = Page::new(pid(7));
        newer.set_lsn(Lsn(2));
        newer.write_body(0, b"new");
        c.insert(
            StagedPage::with_data(newer, true, true),
            &mut NoSupplier,
            &mut io,
        )
        .unwrap();

        let survivor = c.journal().clone();
        let (mut recovered, _) = MvFifoCache::recover(
            cfg.clone(),
            Arc::clone(&store) as Arc<dyn FlashStore>,
            &survivor,
            Lsn(u64::MAX),
            &mut IoLog::new(),
        );
        let hit = recovered.fetch(pid(7), &mut IoLog::new()).unwrap().unwrap();
        assert_eq!(hit.lsn, Lsn(2));
        assert_eq!(hit.data.unwrap().read_body(0, 3), b"new");

        // With a durable LSN between the two versions, reconciliation
        // discards the too-new copy and the older version is served again.
        let (mut reconciled, info) = MvFifoCache::recover(
            cfg,
            store as Arc<dyn FlashStore>,
            &survivor,
            Lsn(1),
            &mut IoLog::new(),
        );
        assert_eq!(info.entries_discarded_beyond_wal, 1);
        let hit = reconciled
            .fetch(pid(7), &mut IoLog::new())
            .unwrap()
            .unwrap();
        assert_eq!(hit.lsn, Lsn(1));
        assert_eq!(hit.data.unwrap().read_body(0, 3), b"old");

        // The discard is durable: even if the (reused) LSN range later
        // becomes durable again, another crash cannot resurrect the
        // discarded version from stale persistent metadata.
        let info = reconciled.crash_and_recover(Lsn(u64::MAX), &mut IoLog::new());
        assert_eq!(info.entries_discarded_beyond_wal, 0);
        let hit = reconciled
            .fetch(pid(7), &mut IoLog::new())
            .unwrap()
            .unwrap();
        assert_eq!(hit.lsn, Lsn(1), "dead-timeline version resurrected");
    }

    #[test]
    fn rule1_discard_also_evicts_the_stale_occupant_of_a_reused_slot() {
        // Checkpoint maps slot 0 -> page A. The slot is then dequeued and
        // reused by page C (sealed, so C's bytes physically overwrite A's).
        // When recovery discards C (lsn beyond durable), it must NOT leave
        // the checkpoint's A entry pointing at a slot that now holds C's
        // bytes — A was staged out to disk at dequeue and is correct there.
        let store = Arc::new(MemFlashStore::new(2));
        let cfg = meta_cfg(2, 1, false);
        let mut c = MvFifoCache::new(cfg.clone(), Arc::clone(&store) as Arc<dyn FlashStore>);
        let mut io = IoLog::new();
        let mut a = Page::new(pid(1));
        a.set_lsn(Lsn(1));
        a.write_body(0, b"AAAA");
        c.insert(
            StagedPage::with_data(a, true, true),
            &mut NoSupplier,
            &mut io,
        )
        .unwrap();
        let mut b = Page::new(pid(2));
        b.set_lsn(Lsn(2));
        b.write_body(0, b"BBBB");
        c.insert(
            StagedPage::with_data(b, true, true),
            &mut NoSupplier,
            &mut io,
        )
        .unwrap();
        c.checkpoint_metadata(&mut io); // snapshot: slot0->A, slot1->B

        // C evicts A (slot 0 reused) and seals with lsn 50.
        let mut newer = Page::new(pid(3));
        newer.set_lsn(Lsn(50));
        newer.write_body(0, b"CCCC");
        c.insert(
            StagedPage::with_data(newer, true, true),
            &mut NoSupplier,
            &mut io,
        )
        .unwrap();

        let survivor = c.journal().clone();
        let (mut rec, info) = MvFifoCache::recover(
            cfg,
            store as Arc<dyn FlashStore>,
            &survivor,
            Lsn(10),
            &mut IoLog::new(),
        );
        assert_eq!(info.entries_discarded_beyond_wal, 1);
        // B survives with its own bytes; neither A nor C may be served.
        assert!(!rec.contains(pid(3)), "C outran the durable log");
        assert!(
            !rec.contains(pid(1)),
            "A's slot holds C's bytes — serving it would return the wrong page"
        );
        let hit = rec.fetch(pid(2), &mut IoLog::new()).unwrap().unwrap();
        assert_eq!(hit.data.unwrap().read_body(0, 4), b"BBBB");

        // The discard is physical, not just metadata: even after durability
        // advances past C's (reused) LSN range, another recovery — whose
        // tail scan probes the empty window slot — must not resurrect C's
        // dead-timeline bytes from the flash device.
        let info = rec.crash_and_recover(Lsn(u64::MAX), &mut IoLog::new());
        assert_eq!(info.entries_discarded_beyond_wal, 0);
        assert!(
            !rec.contains(pid(3)),
            "dead-timeline version resurrected by the tail scan"
        );
        assert!(rec.contains(pid(2)));
    }

    #[test]
    fn evacuation_lists_dirty_pages_without_clearing_flags() {
        let store = Arc::new(MemFlashStore::new(8));
        let mut c = MvFifoCache::new(
            meta_cfg(8, 1, false),
            Arc::clone(&store) as Arc<dyn FlashStore>,
        );
        let mut io = IoLog::new();
        for i in 0..4u32 {
            let mut p = Page::new(pid(i));
            p.set_lsn(Lsn(i as u64 + 1));
            p.write_body(0, &i.to_le_bytes());
            c.insert(
                StagedPage::with_data(p, i % 2 == 0, true),
                &mut NoSupplier,
                &mut io,
            )
            .unwrap();
        }
        let first = c.evacuate_dirty(&mut io);
        assert_eq!(first.pages.len(), 2, "pages 0 and 2 are dirty");
        assert_eq!(first.unread_dirty, 0);
        assert!(first.pages.iter().all(|s| s.dirty && s.data.is_some()));
        // The flags stay set until the caller's disk writes succeed and the
        // cache is wiped: a repeated call re-lists the same pages instead of
        // silently treating them as clean.
        let second = c.evacuate_dirty(&mut io);
        assert_eq!(
            first.pages.iter().map(|s| s.page).collect::<Vec<_>>(),
            second.pages.iter().map(|s| s.page).collect::<Vec<_>>()
        );
        assert_eq!(c.valid_versions().iter().filter(|(_, _, d)| *d).count(), 2);
    }

    #[test]
    fn recovery_preserves_fifo_eviction_order() {
        let store = Arc::new(MemFlashStore::new(8));
        let cfg = meta_cfg(8, 1, false);
        let mut c = MvFifoCache::new(cfg.clone(), Arc::clone(&store) as Arc<dyn FlashStore>);
        let mut io = IoLog::new();
        for i in 0..8u32 {
            let mut p = Page::new(pid(i));
            p.set_lsn(Lsn(i as u64 + 1));
            c.insert(
                StagedPage::with_data(p, true, true),
                &mut NoSupplier,
                &mut io,
            )
            .unwrap();
        }
        let pre = c.valid_versions();
        let survivor = c.journal().clone();
        let (mut rec, _) = MvFifoCache::recover(
            cfg,
            store as Arc<dyn FlashStore>,
            &survivor,
            Lsn(u64::MAX),
            &mut IoLog::new(),
        );
        // Same versions in the same queue order...
        assert_eq!(rec.valid_versions(), pre);
        // ...so the next replacement dequeues the same victim as it would
        // have before the crash (page 0, the queue front).
        let out = rec
            .insert(staged(100, true, true), &mut NoSupplier, &mut io)
            .unwrap();
        assert_eq!(out.staged_out[0].page, pid(0));
    }
}
