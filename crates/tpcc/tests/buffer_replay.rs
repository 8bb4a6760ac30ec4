//! Hit-ratio regression for the DRAM buffer pool's lock-light replacement:
//! one seeded TPC-C page trace, replayed on one thread through the shape the
//! engine ships (512 frames over 8 shards), once under S3-FIFO and once under
//! the exact-LRU path. The trace and the pool are deterministic, so the hit
//! count is a literal; a change to the replacement policy that moves it must
//! say so here.

use face_buffer::{
    BufferPool, BufferStats, FetchOutcome, FetchSource, LowerTier, TierResult, WriteBackOutcome,
    WriteBackReason,
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

/// Replay the trace of the benchmark's TPC-C scale (4 warehouses) and seed
/// (7): a read access reads the page, a write access updates it.
fn replay(lock_light: bool) -> BufferStats {
    let pool = BufferPool::with_shards(512, 8, NullTier).lock_light_reads(lock_light);
    let mut trace = TpccWorkload::new(TpccConfig {
        warehouses: 4,
        seed: 7,
    });
    for _ in 0..TRANSACTIONS {
        for access in trace.next_transaction().accesses {
            if access.write {
                pool.update(access.page, Lsn(1), |_| ()).unwrap();
            } else {
                pool.read(access.page, |_| ()).unwrap();
            }
        }
    }
    pool.stats()
}

#[test]
fn s3fifo_hit_count_is_pinned_and_beats_exact_lru() {
    let s3fifo = replay(true);
    let lru = replay(false);
    assert_eq!(s3fifo.accesses, lru.accesses);
    assert_eq!(s3fifo.hits + s3fifo.misses, s3fifo.accesses);
    // 426,689 accesses: S3-FIFO hits 50.8 % of them, exact LRU 43.8 %.
    assert_eq!(s3fifo.hits, 216_634);
    assert!(s3fifo.hits > lru.hits, "S3-FIFO {s3fifo:?}, LRU {lru:?}");
}
