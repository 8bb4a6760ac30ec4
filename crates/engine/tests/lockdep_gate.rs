//! Engine-level lockdep gate: a concurrent mixed workload over the full
//! FaCE stack must complete with zero lock-order violations and zero
//! unacknowledged device operations under a `forbids_io` lock.
//!
//! The witness counters are process-global, so this file is the CI gate:
//! any violation recorded anywhere during these scenarios fails the final
//! assertion. When `LOCKDEP_DOT` names a path, the observed acquisition-order
//! graph is rendered there as Graphviz DOT (uploaded as a CI artifact).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use face_analysis::witness;
use face_engine::{CachePolicyKind, Database, EngineConfig};
use face_pagestore::{FaultMode, FaultPlan};

const THREADS: usize = 4;
const OPS_PER_THREAD: u64 = 300;
const KEY_SPACE: u64 = 64;

/// Run a mixed put/get/delete workload from several threads, then force the
/// maintenance paths (checkpoint, destage drain, crash + warm restart).
fn hammer(db: &Arc<Database>) {
    let seed = AtomicU64::new(1);
    thread::scope(|s| {
        for t in 0..THREADS {
            let db = Arc::clone(db);
            let base = seed.fetch_add(0x9e37, Ordering::Relaxed) + t as u64;
            s.spawn(move || {
                let mut x = base | 1;
                for i in 0..OPS_PER_THREAD {
                    // xorshift keeps the mix deterministic per thread.
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let key = x % KEY_SPACE;
                    match x % 10 {
                        0..=4 => {
                            let txn = db.begin();
                            let value = vec![(x % 251) as u8; 64];
                            db.put(txn, key, &value).unwrap();
                            db.commit(txn).unwrap();
                        }
                        5..=8 => {
                            let _ = db.get(key).unwrap();
                        }
                        _ => {
                            let txn = db.begin();
                            let _ = db.delete(txn, key).unwrap();
                            db.commit(txn).unwrap();
                        }
                    }
                    if i % 100 == 99 {
                        db.drain_destage().unwrap();
                    }
                }
            });
        }
    });
    db.checkpoint().unwrap();
    db.drain_destage().unwrap();
    db.crash();
    db.restart().unwrap();
    // The restarted engine must still serve reads.
    for key in 0..KEY_SPACE {
        let _ = db.get(key).unwrap();
    }
}

fn scenario(policy: CachePolicyKind, ghost_admission: bool) {
    let mut config = EngineConfig::in_memory()
        .buffer_frames(32)
        .flash_cache(policy, 128)
        .cache_shards(2)
        .buffer_shards(2)
        .destage_threads(2);
    config.cache_config.ghost_admission = ghost_admission;
    let db = Arc::new(Database::open(config).unwrap());
    hammer(&db);
}

#[test]
fn concurrent_engine_has_no_lockdep_violations() {
    if !face_analysis::enabled() {
        eprintln!("lockdep witness compiled out; gate is a no-op");
        return;
    }

    for policy in [
        CachePolicyKind::Face,
        CachePolicyKind::FaceGr,
        CachePolicyKind::FaceGsc,
        CachePolicyKind::S3Fifo,
    ] {
        scenario(policy, false);
    }
    // The I/O detector is wired into the device stack: every scenario's
    // warm restart reads flash under the cache shard locks inside
    // `crash_and_recover`'s acknowledged scope, and a ring dequeue that
    // reads back a dirty victim does so inside its own, so a stack that
    // dropped `check_device_op` would tally nothing here (and pass the
    // zero-violations assertion below vacuously).
    assert!(
        witness::exempted_io_ops() > 0,
        "no device op reached the I/O-under-lock detector — is the check hooked in?"
    );
    // The ghost-admission filter runs inside the mvFIFO policy, under the
    // shard lock.
    scenario(CachePolicyKind::FaceGsc, true);

    if let Ok(path) = std::env::var("LOCKDEP_DOT") {
        if !path.is_empty() {
            std::fs::write(&path, face_analysis::dot::render()).unwrap();
            eprintln!("wrote acquisition-order graph to {path}");
        }
    }

    let order = witness::order_violation_count();
    let io = witness::io_violation_count();
    assert_eq!(
        (order, io),
        (0, 0),
        "lockdep violations recorded:\n{}",
        witness::reports().join("\n")
    );
    // Sanity: the witness actually watched something.
    assert!(
        !witness::edges().is_empty(),
        "no acquisition edges recorded — is the witness wired in?"
    );
}

/// A `Page` is created and dropped wherever the engine happens to be — a
/// flash read's result or a retired page in transit dies under the cache
/// shard, a store's old slot under its own lock — and both can reach for the
/// shared free list of page buffers. Its lock class ranks innermost, so
/// doing that under any of those guards is in order.
#[test]
fn pages_are_created_and_dropped_under_engine_locks_in_order() {
    use face_analysis::classes::{CACHE_SHARD, FLASH_SLOTS};
    use face_analysis::{OrderedMutex, OrderedRwLock};
    use face_pagestore::page::THREAD_CACHE_BUFFERS;
    use face_pagestore::Page;

    // A fresh thread starts with an empty buffer cache: its first page
    // refills from the shared list, and dropping more pages than the cache
    // holds spills back to it — both under both guards.
    thread::spawn(|| {
        let shard = OrderedRwLock::new(CACHE_SHARD, ());
        let slots = OrderedMutex::new(FLASH_SLOTS, ());
        let _shard = shard.write();
        let _slots = slots.lock();
        let pages: Vec<Page> = (0..2 * THREAD_CACHE_BUFFERS + 1)
            .map(|_| Page::zeroed())
            .collect();
        drop(pages);
    })
    .join()
    .unwrap();
    if face_analysis::enabled() {
        assert!(
            witness::edges()
                .iter()
                .any(|(from, to)| from.name() == "flash_slots" && to.name() == "page_buffers"),
            "the free list's lock was never taken under the guards"
        );
    }
    assert_eq!(
        (
            witness::order_violation_count(),
            witness::io_violation_count()
        ),
        (0, 0),
        "lockdep violations recorded:\n{}",
        witness::reports().join("\n")
    );
}

/// A disk read parked mid-flight (a one-second latency spike on the first
/// read after arming) holds the loading frame's page latch and nothing else
/// of the buffer pool: with a single buffer shard, an update of a resident
/// page and a miss on a third page both complete while it is parked, and the
/// witness sees the fetch's locks (page latch → cache shard → disk) in
/// order.
#[test]
fn parked_disk_read_does_not_hold_the_buffer_shard() {
    const SPIKE: Duration = Duration::from_secs(1);
    let plan = Arc::new(
        FaultPlan::new(15)
            .reads_only()
            .probability(1.0)
            .max_faults(1)
            .mode(FaultMode::LatencySpike(SPIKE))
            .armed_on_crash(),
    );
    let config = EngineConfig::in_memory()
        .buffer_frames(8)
        .buffer_shards(1)
        .table_buckets(1024)
        .flash_cache(CachePolicyKind::FaceGsc, 128)
        .cache_shards(2)
        .destage_threads(2)
        .disk_faults(Arc::clone(&plan));
    let db = Database::open(config).unwrap();
    let put = |key: u64, byte: u8| {
        let txn = db.begin();
        db.put(txn, key, &[byte; 16]).unwrap();
        db.commit(txn).unwrap();
    };
    put(1, 1); // key 1's page is resident from here on

    plan.arm();
    let before = db.buffer_stats();
    thread::scope(|s| {
        let parked = s.spawn(|| db.get(2).unwrap());
        while plan.faults_injected() == 0 {
            thread::yield_now();
        }
        let start = Instant::now();
        put(1, 2); // a hit on the same (only) shard
        put(3, 3); // a miss on the same shard, to disk, not spiked
        let took = start.elapsed();
        let during = db.buffer_stats();
        assert!(
            took < SPIKE / 2,
            "updates waited {took:?} behind a parked disk read"
        );
        assert!(during.hits > before.hits);
        assert_eq!(during.disk_fetches, before.disk_fetches + 1, "key 3's");
        assert_eq!(parked.join().unwrap(), None);
    });
    assert_eq!(db.buffer_stats().disk_fetches, before.disk_fetches + 2);
    assert_eq!(db.get(1).unwrap().unwrap(), [2; 16]);
    assert_eq!(db.get(3).unwrap().unwrap(), [3; 16]);
    assert_eq!(
        (
            witness::order_violation_count(),
            witness::io_violation_count()
        ),
        (0, 0),
        "lockdep violations recorded:\n{}",
        witness::reports().join("\n")
    );
}
