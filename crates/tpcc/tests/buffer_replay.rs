//! Hit-ratio regression for the DRAM buffer pool's S3-FIFO replacement: one
//! seeded TPC-C page trace, replayed on one thread through the shape the
//! engine ships (512 frames over 8 shards), and through an exact-LRU
//! reference of the same shape — one [`BufferSim`] of 64 frames per stripe.
//! The trace, the pool and the reference are deterministic, so the hit
//! counts are literals; a change to the replacement policy that moves them
//! must say so here.

use face_buffer::{
    BufferPool, BufferSim, BufferStats, FetchOutcome, FetchSource, LowerTier, TierResult,
    WriteBackOutcome, WriteBackReason,
};
use face_pagestore::{Lsn, Page, PageId};
use face_tpcc::{TpccConfig, TpccWorkload};

/// Below the pool: every page exists (the pool formats an empty one), and
/// write-backs vanish.
struct NullTier;

impl LowerTier for NullTier {
    fn fetch(&self, _id: PageId, _buf: &mut Page) -> TierResult<FetchOutcome> {
        Ok(FetchOutcome {
            source: FetchSource::Disk,
            dirty: false,
        })
    }

    fn write_back(
        &self,
        _page: &Page,
        _dirty: bool,
        _fdirty: bool,
        _reason: WriteBackReason,
    ) -> TierResult<WriteBackOutcome> {
        Ok(WriteBackOutcome {
            in_flash: false,
            on_disk: true,
        })
    }

    fn allocate(&self, _file: u32) -> TierResult<PageId> {
        unreachable!("the replay allocates no page")
    }

    fn sync(&self) -> TierResult<()> {
        Ok(())
    }
}

const TRANSACTIONS: usize = 20_000;
const FRAMES: usize = 512;
const SHARDS: usize = 8;

/// The trace of the benchmark's TPC-C scale (4 warehouses) and seed (7), as
/// `(page, write)` accesses.
fn trace() -> Vec<(PageId, bool)> {
    let mut workload = TpccWorkload::new(TpccConfig {
        warehouses: 4,
        seed: 7,
    });
    (0..TRANSACTIONS)
        .flat_map(|_| workload.next_transaction().accesses)
        .map(|access| (access.page, access.write))
        .collect()
}

/// Replay through the pool: a read access reads the page, a write access
/// updates it.
fn replay_pool(trace: &[(PageId, bool)]) -> BufferStats {
    let pool = BufferPool::with_shards(FRAMES, SHARDS, NullTier);
    for &(page, write) in trace {
        if write {
            pool.update(page, Lsn(1), |_| ()).unwrap();
        } else {
            pool.read(page, |_| ()).unwrap();
        }
    }
    pool.stats()
}

/// Replay through exact LRU, striped as the pool is: `(hits, accesses)`.
fn replay_lru(trace: &[(PageId, bool)]) -> (u64, u64) {
    let mut stripes: Vec<BufferSim> = (0..SHARDS)
        .map(|_| BufferSim::new(FRAMES / SHARDS))
        .collect();
    for &(page, write) in trace {
        let stripe = &mut stripes[page.stripe_of(SHARDS)];
        if !stripe.access(page, write).hit {
            stripe.install(page, false, write);
        }
    }
    stripes.iter().fold((0, 0), |(hits, accesses), s| {
        (hits + s.stats().hits, accesses + s.stats().accesses)
    })
}

#[test]
fn s3fifo_hit_count_is_pinned_and_beats_exact_lru() {
    let trace = trace();
    let s3fifo = replay_pool(&trace);
    let (lru_hits, lru_accesses) = replay_lru(&trace);
    assert_eq!(s3fifo.accesses, lru_accesses);
    assert_eq!(s3fifo.hits + s3fifo.misses, s3fifo.accesses);
    // 426,689 accesses: S3-FIFO hits 50.8 % of them, exact LRU 43.8 %.
    assert_eq!(s3fifo.hits, 216_634);
    assert_eq!(lru_hits, 187_026);
    assert!(
        s3fifo.hits > lru_hits,
        "S3-FIFO {s3fifo:?}, LRU {lru_hits} hits"
    );
}
