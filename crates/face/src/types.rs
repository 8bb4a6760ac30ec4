//! Shared types for the flash-cache policies.

use std::sync::Arc;

pub use face_pagestore::Counter;
use face_pagestore::{DeviceError, Lsn, Page, PageId};
use serde::{Deserialize, Serialize};

use crate::destage::PendingGroupWrite;

/// A page handed to the flash cache by the DRAM buffer (eviction or
/// checkpoint flush) or pulled from the DRAM LRU tail by Group Second Chance.
///
/// The body travels behind an [`Arc`]: a page staged into a pending group,
/// queued for destaging and finally written to the flash store or the disk is
/// one shared 4 KiB frame, not a chain of copies. Cloning a `StagedPage` is
/// a pointer bump.
#[derive(Debug, Clone)]
pub struct StagedPage {
    /// The page id.
    pub page: PageId,
    /// The pageLSN of this version.
    pub lsn: Lsn,
    /// Newer than the disk copy.
    pub dirty: bool,
    /// Newer than the flash copy (false means an identical copy may already
    /// be cached).
    pub fdirty: bool,
    /// The page contents. `None` in metadata-only simulation mode.
    pub data: Option<Arc<Page>>,
}

impl StagedPage {
    /// A metadata-only staged page (simulation mode).
    pub fn meta_only(page: PageId, lsn: Lsn, dirty: bool, fdirty: bool) -> Self {
        Self {
            page,
            lsn,
            dirty,
            fdirty,
            data: None,
        }
    }

    /// A staged page carrying real data (the page is moved into a shared
    /// frame, not copied again downstream).
    pub fn with_data(page: Page, dirty: bool, fdirty: bool) -> Self {
        Self {
            page: page.id(),
            lsn: page.lsn(),
            dirty,
            fdirty,
            data: Some(Arc::new(page)),
        }
    }

    /// A staged page over an already-shared frame.
    pub fn with_shared(page: Arc<Page>, dirty: bool, fdirty: bool) -> Self {
        Self {
            page: page.id(),
            lsn: page.lsn(),
            dirty,
            fdirty,
            data: Some(page),
        }
    }
}

/// A cached version pinned under the shard lock for an off-lock flash read —
/// the first half of the lock-light fetch protocol
/// ([`crate::RingCache::fetch_pin`]).
///
/// The pin is *optimistic*: nothing prevents the slot from being evicted or
/// reused after the lock is dropped. `generation` is the slot's version
/// counter at pin time; the caller performs the device read with no lock
/// held and then revalidates with
/// [`crate::RingCache::fetch_validate`] — a mismatch means the
/// bytes read may belong to a different version (or page) and must be
/// discarded and the lookup retried.
#[derive(Debug, Clone)]
pub struct FetchPin {
    /// The flash slot holding the pinned version.
    pub slot: usize,
    /// The pinned version's pageLSN.
    pub lsn: Lsn,
    /// Whether the pinned version is newer than the disk copy.
    pub dirty: bool,
    /// The slot's generation counter at pin time.
    pub generation: u64,
    /// A RAM-resident frame for the version (pending batch or in-flight
    /// deferred group). When present the caller needs no device read at all
    /// — the shared frame is immutable and outlives any eviction race.
    pub frame: Option<Arc<Page>>,
    /// Whether a device read is expected to yield data for this version.
    /// `false` for stores/entries without page bodies (the caller serves the
    /// hit metadata-only, exactly like the locked path).
    pub data_expected: bool,
}

/// The result of a successful flash-cache fetch.
#[derive(Debug, Clone)]
pub struct FlashFetch {
    /// The cached copy's contents (present when the cache carries data).
    pub data: Option<Page>,
    /// Whether the cached copy is newer than the disk copy.
    pub dirty: bool,
    /// The pageLSN of the cached copy.
    pub lsn: Lsn,
}

/// What happened when a page was handed to the cache.
#[derive(Debug, Clone, Default)]
pub struct InsertOutcome {
    /// The page was admitted to the flash cache (metadata now references it).
    pub cached: bool,
    /// Dirty pages staged *out* of the flash cache to disk as a consequence
    /// of this insert. In data-carrying mode each carries its contents;
    /// [`crate::ShardedFlashCache`] records them in transit before its shard
    /// lock drops, and the caller must write them to the disk store.
    pub staged_out: Vec<StagedPage>,
    /// With [`CacheConfig::defer_group_writes`] set, a filled replacement
    /// group is *returned* here instead of being written under the caller's
    /// lock. The caller must perform the physical batch write
    /// ([`PendingGroupWrite::apply`]) outside any cache lock and then seal
    /// its metadata ([`crate::RingCache::complete_group`]).
    pub pending_group: Option<PendingGroupWrite>,
}

/// A failed [`crate::FlashCache::insert`] or [`crate::FlashCache::sync`]:
/// the device error, and the dirty pages the call un-cached, in the order
/// they left — victims it had already dequeued, then the page it could not
/// place or the group it aborted. [`crate::ShardedFlashCache`] records them
/// in transit under the shard lock; the caller must write them to disk.
#[derive(Debug)]
pub struct InsertFailure {
    /// The final device error.
    pub error: DeviceError,
    /// The dirty pages that now need a disk write.
    pub fallout: Vec<StagedPage>,
}

/// A failure that un-cached nothing (LC and TAC never do).
impl From<DeviceError> for InsertFailure {
    fn from(error: DeviceError) -> Self {
        Self {
            error,
            fallout: Vec::new(),
        }
    }
}

/// What [`crate::RingCache::evacuate_dirty`] salvaged. Best-effort
/// by contract: evacuation runs when the device is suspect, so unreadable
/// dirty pages are counted instead of failing the sweep.
#[derive(Debug, Default)]
pub struct Evacuation {
    /// Every dirty valid cached page. Pages whose bytes could be produced
    /// (from RAM or a successful device read) carry `data` and must be
    /// written to disk by the caller; unreadable ones appear with
    /// `data: None` — *wound markers*, kept in transit by
    /// [`crate::ShardedFlashCache`] so stale disk copies are refused until
    /// WAL redo rebuilds the page.
    pub pages: Vec<StagedPage>,
    /// Dirty valid pages whose flash bytes were unreadable (the number of
    /// `data: None` markers in `pages`).
    pub unread_dirty: u64,
}

/// What [`crate::RingCache::quarantine_slot`] displaced.
#[derive(Debug, Default)]
pub struct QuarantineOutcome {
    /// Whether the slot was newly quarantined by this call (false when it
    /// was already quarantined or out of range).
    pub quarantined: bool,
    /// A *dirty* displaced resident. With bytes (`data: Some`) the caller
    /// writes it to disk under the WAL guard; with `data: None` (see
    /// `dirty_unread`) it is a wound marker, kept in transit by
    /// [`crate::ShardedFlashCache`] so stale disk copies are refused until
    /// WAL redo rebuilds the page.
    pub evacuee: Option<StagedPage>,
    /// The displaced resident was dirty but its bytes were unreadable
    /// (neither in RAM nor readable from the failing device): it must be
    /// recovered from WAL redo.
    pub dirty_unread: bool,
}

/// What a flash cache could restore of itself after a simulated crash.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheRecoveryInfo {
    /// Whether any cached state survived and is usable after restart.
    pub survived: bool,
    /// Persistent metadata units read back (cache checkpoint + sealed
    /// journal groups).
    pub metadata_segments_loaded: u64,
    /// Data pages scanned to rebuild lost metadata entries.
    pub pages_scanned: u64,
    /// Cached page versions accessible after recovery.
    pub entries_restored: u64,
    /// Whether a [`crate::meta::CacheCheckpoint`] was found and loaded.
    pub checkpoint_loaded: bool,
    /// Entries loaded from the cache checkpoint snapshot.
    pub checkpoint_entries_loaded: u64,
    /// Journal records replayed from sealed groups past the checkpoint —
    /// the replay length the checkpoint cadence bounds.
    pub journal_records_replayed: u64,
    /// Journaled versions discarded because their pageLSN exceeded the WAL's
    /// durable end (reconciliation rule: flash must never run ahead of the
    /// durable log).
    pub entries_discarded_beyond_wal: u64,
}

impl CacheRecoveryInfo {
    /// Element-wise sum with `other` (merging per-shard reports). `survived`
    /// is the conjunction: the cache is warm only if every shard recovered.
    pub fn merged(&self, other: &CacheRecoveryInfo) -> CacheRecoveryInfo {
        CacheRecoveryInfo {
            survived: self.survived && other.survived,
            metadata_segments_loaded: self.metadata_segments_loaded
                + other.metadata_segments_loaded,
            pages_scanned: self.pages_scanned + other.pages_scanned,
            entries_restored: self.entries_restored + other.entries_restored,
            checkpoint_loaded: self.checkpoint_loaded || other.checkpoint_loaded,
            checkpoint_entries_loaded: self.checkpoint_entries_loaded
                + other.checkpoint_entries_loaded,
            journal_records_replayed: self.journal_records_replayed
                + other.journal_records_replayed,
            entries_discarded_beyond_wal: self.entries_discarded_beyond_wal
                + other.entries_discarded_beyond_wal,
        }
    }
}

/// Configuration for a flash cache instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Capacity in pages (flash cache bytes / 4 KiB).
    pub capacity_pages: usize,
    /// Batch size (pages) for group replacement / group second chance.
    /// The paper suggests the number of pages in a flash block, typically 64
    /// or 128.
    pub group_size: usize,
    /// Enable second chance for referenced pages (GSC).
    pub second_chance: bool,
    /// Cache-checkpoint cadence of the mapping-metadata journal: a
    /// [`crate::meta::CacheCheckpoint`] is written every this many sealed
    /// groups, bounding restart metadata replay to
    /// `meta_checkpoint_interval_groups × group_size` journal records.
    pub meta_checkpoint_interval_groups: usize,
    /// Who applies a formed replacement group. Every filled batch forms a
    /// group the same way; when set, the group is handed back to the caller
    /// as a [`PendingGroupWrite`], the insert mutates only the directory and
    /// bookkeeping, and the caller performs the flash batch write off-lock
    /// (typically on a [`crate::destage::Destager`] thread) before
    /// [`crate::RingCache::complete_group`] seals its journal records. Off
    /// by default: [`crate::policy::FlashCache::insert`] applies and seals
    /// the group itself before it returns, the contract the trace-driven
    /// simulator and single-threaded callers keep. Only a bare ring reads
    /// it (the trace simulator and the `ring_golden` tests):
    /// [`crate::ShardedFlashCache::build`] turns it on for every shard,
    /// because a shard never writes flash under its lock.
    pub defer_group_writes: bool,
    /// Read by no code; kept only so existing configurations that set it
    /// still build. Every [`crate::ShardedFlashCache::fetch`] is lock-light
    /// whatever its value: the version is pinned under the shard lock
    /// ([`crate::RingCache::fetch_pin`]), the lock is dropped, the flash
    /// device read runs **off-lock**, and the result is validated against
    /// the slot's generation counter ([`crate::RingCache::fetch_validate`])
    /// — a lost eviction race retries ([`CacheStats::fetch_retries`]). The
    /// read-under-lock fetch it once selected was removed.
    pub lock_light_reads: bool,
    /// Ghost-queue admission filtering for the mvFIFO family, read by the
    /// mvFIFO policy ([`crate::mvfifo::MvFifo`]) of every ring it builds: a
    /// **clean** page the directory does not hold is recorded on its first
    /// touch only in the ring's RAM-resident ghost directory and is *not*
    /// admitted (no flash write); only a re-reference while the ghost entry
    /// is live earns the flash write. Dirty pages are always admitted —
    /// rejecting them would forfeit the write absorption FaCE is built on.
    /// [`crate::CachePolicyKind::S3Fifo`] ignores this flag: its ghost queue
    /// is an integral part of the policy and always on.
    pub ghost_admission: bool,
    /// S3-FIFO only: fraction of the capacity given to the small
    /// (probationary) queue. The remainder is the main queue. Clamped so both
    /// regions hold at least one page.
    pub s3_small_fraction: f64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity_pages: 64 * 1024, // 256 MB at 4 KiB/page
            group_size: 64,
            second_chance: false,
            meta_checkpoint_interval_groups: 8,
            defer_group_writes: false,
            lock_light_reads: false,
            ghost_admission: false,
            s3_small_fraction: 0.1,
        }
    }
}

impl CacheConfig {
    /// Builder-style override of the group size.
    pub fn group_size(mut self, group_size: usize) -> Self {
        self.group_size = group_size;
        self
    }

    /// Builder-style override of the cache-checkpoint cadence (sealed groups
    /// between two [`crate::meta::CacheCheckpoint`] writes).
    pub fn meta_checkpoint_interval_groups(mut self, groups: usize) -> Self {
        self.meta_checkpoint_interval_groups = groups.max(1);
        self
    }

    /// Builder-style enable of ghost-queue admission filtering (see
    /// [`CacheConfig::ghost_admission`]).
    pub fn ghost_admission(mut self, on: bool) -> Self {
        self.ghost_admission = on;
        self
    }

    /// Builder-style override of the S3-FIFO small-queue fraction.
    pub fn s3_small_fraction(mut self, fraction: f64) -> Self {
        self.s3_small_fraction = fraction;
        self
    }

    /// The ghost-directory capacity in page ids of one ring (the mvFIFO
    /// admission filter's and the S3-FIFO policy's ghost queue alike): the
    /// ring's capacity, the classic S3-FIFO choice ("as many ghosts as the
    /// main cache holds objects"). A sharded cache gives each shard's ring
    /// its slice of the capacity, so its ghosts together remember as many
    /// ids as the whole cache holds pages.
    pub fn effective_ghost_capacity(&self) -> usize {
        self.capacity_pages.max(1)
    }
}

/// Counters describing flash-cache activity. The paper's Tables 3 and 4 are
/// derived from these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookup attempts (every DRAM miss consults the cache).
    pub lookups: u64,
    /// Lookups that found a valid cached copy (flash hits).
    pub hits: u64,
    /// Pages handed to the cache from the DRAM buffer.
    pub inserts: u64,
    /// Inserts admitted (enqueued / written into the cache).
    pub cached_inserts: u64,
    /// Inserts skipped because an identical copy was already cached
    /// (conditional enqueue of clean pages).
    pub skipped_inserts: u64,
    /// Dirty inserts (dirty flag set when handed over).
    pub dirty_inserts: u64,
    /// Previous versions invalidated by unconditional enqueues.
    pub invalidations: u64,
    /// Pages staged out of the cache (dequeued / replaced).
    pub staged_out: u64,
    /// Pages the cache sent to disk: dirty valid victims of a dequeue, and —
    /// for every ring policy alike — dirty pages that left through a fault
    /// path (an aborted group, applied inline or deferred, an insert
    /// displaced by a failed dequeue, a serve-through past a fully
    /// quarantined region). Those are handed to the caller's disk failover,
    /// so they do reach disk and are counted here.
    pub staged_out_to_disk: u64,
    /// Pages given a second chance (re-enqueued by GSC).
    pub second_chances: u64,
    /// Dirty pages pulled from the DRAM LRU tail to fill a GSC batch.
    pub pulled_from_dram: u64,
    /// Pages cleaned by LC's lazy cleaner.
    pub lazily_cleaned: u64,
    /// Persistent metadata segment flushes.
    pub metadata_flushes: u64,
    /// Lock-light fetches that lost the eviction race: the slot's generation
    /// changed between pinning the version and finishing the off-lock flash
    /// read, so the read was discarded and the lookup retried.
    pub fetch_retries: u64,
    /// Physical pages written to the flash device — the flash-wear cost every
    /// hit-ratio figure must be priced against. Counted by the
    /// [`crate::store::FlashStore`] implementations themselves (so batch,
    /// deferred and destaged writes are all captured) and surfaced by
    /// [`crate::ShardedFlashCache::stats`] without taking any shard lock.
    /// Individual policies leave this at zero; it is a device-level tally.
    pub flash_pages_written: u64,
    /// Clean first-touch inserts the ghost-queue admission filter rejected —
    /// flash writes *not* paid for one-touch pages.
    pub admission_filtered: u64,
    /// Inserts admitted because the page's id was found in the ghost
    /// directory (a filtered page proved it was no one-hit wonder).
    pub admission_ghost_hits: u64,
}

impl CacheStats {
    /// Element-wise sum with `other` (merging per-shard snapshots).
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            lookups: self.lookups + other.lookups,
            hits: self.hits + other.hits,
            inserts: self.inserts + other.inserts,
            cached_inserts: self.cached_inserts + other.cached_inserts,
            skipped_inserts: self.skipped_inserts + other.skipped_inserts,
            dirty_inserts: self.dirty_inserts + other.dirty_inserts,
            invalidations: self.invalidations + other.invalidations,
            staged_out: self.staged_out + other.staged_out,
            staged_out_to_disk: self.staged_out_to_disk + other.staged_out_to_disk,
            second_chances: self.second_chances + other.second_chances,
            pulled_from_dram: self.pulled_from_dram + other.pulled_from_dram,
            lazily_cleaned: self.lazily_cleaned + other.lazily_cleaned,
            metadata_flushes: self.metadata_flushes + other.metadata_flushes,
            fetch_retries: self.fetch_retries + other.fetch_retries,
            flash_pages_written: self.flash_pages_written + other.flash_pages_written,
            admission_filtered: self.admission_filtered + other.admission_filtered,
            admission_ghost_hits: self.admission_ghost_hits + other.admission_ghost_hits,
        }
    }

    /// Flash bytes written — [`CacheStats::flash_pages_written`] priced in
    /// bytes, the unit the write-economy gate compares.
    pub fn flash_bytes_written(&self) -> u64 {
        self.flash_pages_written * face_pagestore::PAGE_SIZE as u64
    }

    /// Flash hit ratio over lookups — Table 3(a) ("ratio of flash cache hits
    /// to all DRAM misses") when every DRAM miss performs a lookup.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Write-reduction ratio — Table 3(b): the share of dirty evictions from
    /// the DRAM buffer that did *not* reach the disk at this point
    /// (absorbed by the flash cache). Some of them reach disk later when
    /// staged out; that delayed, deduplicated traffic is what the paper
    /// credits as the reduction.
    pub fn write_reduction_ratio(&self) -> f64 {
        if self.dirty_inserts == 0 {
            0.0
        } else {
            1.0 - (self.staged_out_to_disk as f64 / self.dirty_inserts as f64).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_page_constructors() {
        let meta = StagedPage::meta_only(PageId::new(1, 2), Lsn(3), true, false);
        assert!(meta.data.is_none());
        assert!(meta.dirty);
        assert!(!meta.fdirty);

        let mut page = Page::new(PageId::new(4, 5));
        page.set_lsn(Lsn(9));
        let with_data = StagedPage::with_data(page, false, true);
        assert_eq!(with_data.page, PageId::new(4, 5));
        assert_eq!(with_data.lsn, Lsn(9));
        assert!(with_data.data.is_some());
    }

    #[test]
    fn default_config_matches_paper_constants() {
        let cfg = CacheConfig::default();
        assert_eq!(cfg.meta_checkpoint_interval_groups, 8);
        assert!(cfg.group_size == 64 || cfg.group_size == 128);
    }

    #[test]
    fn stats_ratios() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.write_reduction_ratio(), 0.0);
        s.lookups = 100;
        s.hits = 70;
        s.dirty_inserts = 50;
        s.staged_out_to_disk = 20;
        assert!((s.hit_ratio() - 0.7).abs() < 1e-9);
        assert!((s.write_reduction_ratio() - 0.6).abs() < 1e-9);
        // More disk writes than dirty inserts clamps to zero reduction.
        s.staged_out_to_disk = 80;
        assert_eq!(s.write_reduction_ratio(), 0.0);
    }

    #[test]
    fn stats_merge_element_wise() {
        let a = CacheStats {
            lookups: 10,
            hits: 2,
            flash_pages_written: 3,
            ..CacheStats::default()
        };
        let b = CacheStats {
            lookups: 5,
            hits: 1,
            ..CacheStats::default()
        };
        let merged = a.merged(&b);
        assert_eq!(merged.lookups, 15);
        assert_eq!(merged.hits, 3);
        assert_eq!(merged.flash_pages_written, 3);
        assert_eq!(merged.second_chances, 0);
    }

    #[test]
    fn insert_outcome_default_is_empty() {
        let o = InsertOutcome::default();
        assert!(!o.cached);
        assert!(o.staged_out.is_empty());
    }
}
