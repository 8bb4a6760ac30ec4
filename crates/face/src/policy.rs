//! The [`FlashCache`] trait implemented by every caching policy, and the
//! factories that build a policy by name: [`build_cache`] for the trace
//! simulator, [`build_ring`] for the functional engine.

use std::sync::Arc;

use face_pagestore::{DeviceResult, PageId};

use crate::io::IoLog;
use crate::lc::LcCache;
use crate::mvfifo::MvFifoCache;
use crate::ring::RingCache;
use crate::s3fifo::S3FifoCache;
use crate::store::FlashStore;
use crate::tac::TacCache;
use crate::types::{
    CacheConfig, CacheRecoveryInfo, CacheStats, FlashFetch, InsertFailure, InsertOutcome,
    StagedPage,
};

/// Supplies additional dirty pages from the DRAM buffer's LRU tail so Group
/// Second Chance can fill a flash write batch (paper §3.3 — analogous to the
/// Linux writeback daemons / Oracle DBWR pulling victims in batches).
pub trait PageSupplier {
    /// The next dirty page pulled from the DRAM LRU tail, or `None` if the
    /// buffer has no more dirty pages to give.
    fn next_dirty_page(&mut self) -> Option<StagedPage>;
}

/// A supplier that never provides pages (used by non-GSC policies, unit tests
/// and checkpoint-time inserts).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoSupplier;

impl PageSupplier for NoSupplier {
    fn next_dirty_page(&mut self) -> Option<StagedPage> {
        None
    }
}

impl<F> PageSupplier for F
where
    F: FnMut() -> Option<StagedPage>,
{
    fn next_dirty_page(&mut self) -> Option<StagedPage> {
        self()
    }
}

/// A second-level cache on a flash device, sitting between the DRAM buffer
/// pool and the disk array, as the engine's trace simulator
/// (`face_engine::sim`) drives it: every policy of the paper's comparison,
/// LC and TAC included, implements exactly this. The functional engine's
/// contract (lock-light fetches, deferred group writes, the fault paths) is
/// the [`crate::RingCache`] subtrait, which only the ring policies carry.
///
/// `Sync` is required because [`crate::ShardedFlashCache`] exposes the
/// `&self` surface (lookups, validation, stats) through shared `RwLock` read
/// guards — implementations keep their mutable state behind `&mut self`, so
/// this is free.
pub trait FlashCache: Send + Sync {
    /// Look up `page` on a DRAM miss. On a hit the cached copy is returned
    /// (with data when the backing store carries data) and the physical flash
    /// read is recorded in `io`. `Err` means the device failed the read —
    /// distinct from `Ok(None)`, a plain miss. The device read runs inside
    /// the call.
    fn fetch(&mut self, page: PageId, io: &mut IoLog) -> DeviceResult<Option<FlashFetch>>;

    /// Hand a page leaving the DRAM buffer (eviction or checkpoint flush) to
    /// the cache. `supplier` lets Group Second Chance pull extra dirty pages
    /// from the DRAM LRU tail; pass [`NoSupplier`] when that must not happen
    /// (e.g. during checkpoints).
    ///
    /// With [`crate::types::CacheConfig::defer_group_writes`] set, a ring
    /// policy hands a filled replacement group back in
    /// [`InsertOutcome::pending_group`](crate::types::InsertOutcome) instead
    /// of writing it here (see [`crate::RingCache::complete_group`]).
    ///
    /// An `Err` means a device operation inside the call failed (a victim
    /// read, or a group write the policy applied itself); its
    /// [`InsertFailure::fallout`] lists the dirty pages the call un-cached,
    /// in the order they left. LC and TAC never un-cache any.
    fn insert(
        &mut self,
        staged: StagedPage,
        supplier: &mut dyn PageSupplier,
        io: &mut IoLog,
    ) -> Result<InsertOutcome, InsertFailure>;

    /// Notification that `page` was fetched from *disk* into the DRAM buffer.
    /// Only on-entry policies (TAC) react to this.
    fn on_fetched_from_disk(
        &mut self,
        _page: PageId,
        _io: &mut IoLog,
    ) -> DeviceResult<InsertOutcome> {
        Ok(InsertOutcome::default())
    }

    /// Flush any buffered page batch and metadata to flash (called by
    /// checkpoints and before clean shutdown), failing as `insert` does.
    fn sync(&mut self, io: &mut IoLog) -> Result<(), InsertFailure>;

    /// Checkpoint support for policies whose cached dirty pages are *not*
    /// part of the persistent database (LC): return every dirty cached page
    /// (with data when available) so the caller can write them to disk, and
    /// mark them clean. The ring policies and TAC return nothing.
    fn drain_dirty_for_checkpoint(&mut self, _io: &mut IoLog) -> DeviceResult<Vec<StagedPage>> {
        Ok(Vec::new())
    }

    /// Whether dirty pages staged in this cache are part of the persistent
    /// database (true for the ring policies: checkpoints may flush to flash
    /// and recovery may read from flash; false for LC/TAC, which must
    /// checkpoint to disk).
    fn persists_dirty_pages(&self) -> bool;

    /// Simulate a crash followed by restart-time cache recovery. Volatile
    /// (RAM-resident) cache metadata is lost; whatever the policy keeps
    /// persistently in flash is restored. The ring policies rebuild their
    /// directory from the cache checkpoint plus the sealed journal groups,
    /// reconciled against the WAL: any version whose pageLSN exceeds
    /// `durable_lsn` (the durable end of the log) is discarded, because its
    /// log records are lost and serving it would diverge from redo. LC and
    /// TAC lose everything (the paper's §4.1 point: without persistent
    /// metadata the flash copies become inaccessible). Callers without a WAL
    /// pass `Lsn(u64::MAX)` to disable reconciliation.
    fn crash_and_recover(
        &mut self,
        durable_lsn: face_pagestore::Lsn,
        io: &mut IoLog,
    ) -> CacheRecoveryInfo;

    /// Activity counters.
    fn stats(&self) -> CacheStats;

    /// Reset activity counters (after warm-up).
    fn reset_stats(&mut self);
}

/// Which caching policy to run. `None` disables the flash cache entirely
/// (the HDD-only and SSD-only configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum CachePolicyKind {
    /// No flash cache.
    None,
    /// Base FaCE: mvFIFO, per-page append writes.
    Face,
    /// FaCE with Group Replacement (batched dequeue/enqueue).
    FaceGr,
    /// FaCE with Group Second Chance.
    FaceGsc,
    /// S3-FIFO: small/main static queues plus a ghost admission directory
    /// (quick demotion of one-hit wonders, no flash write for a clean first
    /// touch).
    S3Fifo,
    /// Lazy Cleaning baseline (LRU-2, write-back, in-place overwrite).
    Lc,
    /// Temperature-aware caching baseline (on-entry, write-through).
    Tac,
}

impl CachePolicyKind {
    /// All policies that actually cache (excludes `None`).
    pub const CACHING: [CachePolicyKind; 6] = [
        CachePolicyKind::Face,
        CachePolicyKind::FaceGr,
        CachePolicyKind::FaceGsc,
        CachePolicyKind::S3Fifo,
        CachePolicyKind::Lc,
        CachePolicyKind::Tac,
    ];

    /// Short label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            CachePolicyKind::None => "none",
            CachePolicyKind::Face => "FaCE",
            CachePolicyKind::FaceGr => "FaCE+GR",
            CachePolicyKind::FaceGsc => "FaCE+GSC",
            CachePolicyKind::S3Fifo => "S3-FIFO",
            CachePolicyKind::Lc => "LC",
            CachePolicyKind::Tac => "TAC",
        }
    }
}

impl std::fmt::Display for CachePolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Build a flash cache of the given kind over `store`, for the trace
/// simulator. Returns `None` for [`CachePolicyKind::None`].
pub fn build_cache(
    kind: CachePolicyKind,
    config: CacheConfig,
    store: Arc<dyn FlashStore>,
) -> Option<Box<dyn FlashCache>> {
    match kind {
        CachePolicyKind::Lc => Some(Box::new(LcCache::new(config, store))),
        CachePolicyKind::Tac => Some(Box::new(TacCache::new(config, store))),
        _ => build_ring(kind, config, store).map(|ring| ring as Box<dyn FlashCache>),
    }
}

/// Build a ring policy (FaCE, FaCE+GR, FaCE+GSC or S3-FIFO) over `store`:
/// the policies the functional engine hosts. Returns `None` for
/// [`CachePolicyKind::None`].
///
/// # Panics
/// Panics for LC and TAC, which only the trace simulator runs
/// ([`build_cache`]).
pub fn build_ring(
    kind: CachePolicyKind,
    config: CacheConfig,
    store: Arc<dyn FlashStore>,
) -> Option<Box<dyn RingCache>> {
    match kind {
        CachePolicyKind::None => None,
        CachePolicyKind::Lc | CachePolicyKind::Tac => {
            panic!("{kind} is a trace-simulator baseline, not a ring policy")
        }
        CachePolicyKind::Face => {
            let cfg = CacheConfig {
                group_size: 1,
                second_chance: false,
                ..config
            };
            Some(Box::new(MvFifoCache::new(cfg, store)))
        }
        CachePolicyKind::FaceGr => {
            let cfg = CacheConfig {
                second_chance: false,
                ..config
            };
            Some(Box::new(MvFifoCache::new(cfg, store)))
        }
        CachePolicyKind::FaceGsc => {
            let cfg = CacheConfig {
                second_chance: true,
                ..config
            };
            Some(Box::new(MvFifoCache::new(cfg, store)))
        }
        CachePolicyKind::S3Fifo => Some(Box::new(S3FifoCache::new(config, store))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::NullFlashStore;
    use face_pagestore::Lsn;

    #[test]
    fn labels_and_display() {
        assert_eq!(CachePolicyKind::FaceGsc.label(), "FaCE+GSC");
        assert_eq!(format!("{}", CachePolicyKind::Lc), "LC");
        assert_eq!(CachePolicyKind::S3Fifo.label(), "S3-FIFO");
        assert_eq!(CachePolicyKind::CACHING.len(), 6);
    }

    #[test]
    fn factory_builds_every_policy() {
        let cfg = CacheConfig {
            capacity_pages: 128,
            ..CacheConfig::default()
        };
        let store = || Arc::new(NullFlashStore::new(128));
        assert!(build_cache(CachePolicyKind::None, cfg.clone(), store()).is_none());
        assert!(build_ring(CachePolicyKind::None, cfg.clone(), store()).is_none());
        for kind in CachePolicyKind::CACHING {
            assert!(build_cache(kind, cfg.clone(), store()).is_some(), "{kind}");
        }
        for kind in &CachePolicyKind::CACHING[..4] {
            let ring = build_ring(*kind, cfg.clone(), store()).expect("ring policy");
            assert_eq!(ring.capacity(), 128);
            assert!(ring.is_empty());
        }
        // Base FaCE forces group_size to 1.
        let face = build_ring(
            CachePolicyKind::Face,
            cfg.clone().group_size(64),
            Arc::new(NullFlashStore::new(128)),
        )
        .unwrap();
        assert_eq!(face.policy_name(), "FaCE");
        let gsc = build_ring(
            CachePolicyKind::FaceGsc,
            cfg,
            Arc::new(NullFlashStore::new(128)),
        )
        .unwrap();
        assert_eq!(gsc.policy_name(), "FaCE+GSC");
    }

    #[test]
    fn every_policy_keeps_its_stats_across_a_crash_and_resets_them() {
        let cfg = CacheConfig {
            capacity_pages: 32,
            group_size: 4,
            ..CacheConfig::default()
        };
        for kind in CachePolicyKind::CACHING {
            let mut cache = build_cache(kind, cfg.clone(), Arc::new(NullFlashStore::new(32)))
                .expect("a caching policy");
            let mut io = IoLog::new();
            // Twice the capacity, so every policy also replaces.
            for n in 0..64u32 {
                let page = PageId::new(1, n % 48);
                cache.on_fetched_from_disk(page, &mut io).unwrap();
                let staged = StagedPage::meta_only(page, Lsn(u64::from(n) + 1), n % 2 == 0, true);
                cache.insert(staged, &mut NoSupplier, &mut io).unwrap();
                cache.fetch(PageId::new(1, n % 16), &mut io).unwrap();
            }
            let stats = cache.stats();
            assert!(stats.lookups > 0 && stats.inserts > 0, "{kind}: {stats:?}");
            cache.crash_and_recover(Lsn(u64::MAX), &mut io);
            assert_eq!(cache.stats(), stats, "{kind}: a crash keeps the counters");
            cache.reset_stats();
            assert_eq!(cache.stats(), CacheStats::default(), "{kind}");
        }
    }

    #[test]
    #[should_panic(expected = "trace-simulator baseline")]
    fn ring_factory_refuses_the_baselines() {
        build_ring(
            CachePolicyKind::Tac,
            CacheConfig::default(),
            Arc::new(NullFlashStore::new(8)),
        );
    }

    #[test]
    fn no_supplier_returns_nothing() {
        let mut s = NoSupplier;
        assert!(s.next_dirty_page().is_none());
        // Closures work as suppliers too.
        let mut n = 0;
        let mut closure_supplier = || {
            n += 1;
            None
        };
        assert!(closure_supplier.next_dirty_page().is_none());
        assert_eq!(n, 1);
    }
}
