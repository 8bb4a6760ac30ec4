//! Warm crash-recovery stress tests — the CI `recovery` gate that runs in
//! **release mode** (`cargo test --release -p face-engine --test
//! recovery_stress`).
//!
//! What is pinned down here:
//! * repeated crashes injected between rounds of a concurrent group-commit
//!   loop recover a *warm* flash cache every time, and no recovered flash
//!   slot ever carries a pageLSN beyond the WAL's durable end (the
//!   reconciliation invariant);
//! * the volatile WAL tail really dies with a crash (LSNs rewind to the
//!   durable end) and recovery still restores every committed key;
//! * a cold restart on the same history loses the cache but not the data;
//! * crashes landing *inside the destage pipeline* — group writes enqueued
//!   but not yet on flash, and a batch on flash whose journal seal never
//!   happened — still recover a prefix-consistent cache and every committed
//!   key (PR 3's invariants survive the PR 4 asynchronous pipeline);
//! * recovery itself survives a seeded crash-anywhere schedule: restarts
//!   crashed mid-redo and mid-undo (persisted loser pages included)
//!   converge to the committed state with no loser byte visible.
//!
//! Every scenario that does not need a destage *queue* to park work in runs
//! under both destage drivers: the inline one (`destage_threads(0)`) and the
//! default worker pool.

use std::sync::Arc;
use std::time::Duration;

use face_cache::{CachePolicyKind, FlashStore, GateFlashStore};
use face_engine::config::FlashStoreFactory;
use face_engine::{Database, DeviceLatency, EngineConfig};

const THREADS: u64 = 8;

/// Run `scenario` under the inline destage driver and under the default
/// worker pool.
fn under_both_drivers(scenario: fn(usize)) {
    for destage_threads in [0, EngineConfig::in_memory().destage_threads] {
        // Shown with a failure's captured output: which driver it was.
        println!("destage_threads({destage_threads})");
        scenario(destage_threads);
    }
}

fn stress_db(destage_threads: usize) -> Arc<Database> {
    Arc::new(
        Database::open(
            EngineConfig::in_memory()
                .buffer_frames(128)
                .buffer_shards(16)
                .table_buckets(2048)
                .flash_cache(CachePolicyKind::FaceGsc, 8192)
                .cache_shards(8)
                .destage_threads(destage_threads),
        )
        .unwrap(),
    )
}

fn key_of(thread: u64, i: u64) -> u64 {
    thread * 1_000_000 + i
}

/// Every flash slot of every shard must satisfy the reconciliation
/// invariant: no recovered page version outruns the durable log.
fn assert_flash_below_durable(db: &Database) {
    let durable = db.wal_durable_lsn();
    for (s, store) in db.flash_stores().iter().enumerate() {
        for slot in 0..store.capacity() {
            if let Some((page, lsn)) = store.slot_header(slot) {
                assert!(
                    lsn <= durable,
                    "shard {s} slot {slot}: page {page} at lsn {lsn:?} beyond durable {durable:?}"
                );
            }
        }
    }
}

#[test]
fn crash_mid_group_commit_loop_recovers_warm_every_iteration() {
    under_both_drivers(crash_mid_group_commit_loop);
}

fn crash_mid_group_commit_loop(destage_threads: usize) {
    // N iterations of: concurrent group-commit load (small DRAM buffer, so
    // plenty of pages cross into the flash cache) -> crash -> warm restart.
    // Each iteration must recover persistent cache metadata, serve redo
    // mostly from flash once the cache is populated, keep every committed
    // key, and never resurrect a flash page beyond the durable log.
    let db = stress_db(destage_threads);
    let keys_per_thread = 60u64;
    let iterations = 6u64;
    for iter in 0..iterations {
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    // Several small transactions per round: commits interleave
                    // across threads, so group commit and the write-ahead
                    // guard both see real contention.
                    for chunk in 0..6u64 {
                        let txn = db.begin();
                        for i in 0..keys_per_thread / 6 {
                            let key = key_of(t, chunk * 10 + i);
                            db.put(txn, key, format!("i{iter}-t{t}-{key}").as_bytes())
                                .unwrap();
                        }
                        db.commit(txn).unwrap();
                    }
                });
            }
        });
        // Take a checkpoint on even iterations so both "fresh WAL tail" and
        // "bounded redo" restarts are exercised.
        if iter % 2 == 0 {
            db.checkpoint().unwrap();
        }
        db.crash();
        let report = db.restart().unwrap();
        assert!(
            report.cache_recovery.survived,
            "iteration {iter}: cache metadata lost"
        );
        assert!(
            report.cache_recovery.entries_restored > 0,
            "iteration {iter}: cache came back empty"
        );
        assert_eq!(
            report.cache_recovery.entries_discarded_beyond_wal, 0,
            "iteration {iter}: the write-ahead guard let a page outrun the log"
        );
        assert_flash_below_durable(&db);
        // Every committed key readable with its last committed value.
        for t in 0..THREADS {
            for chunk in 0..6u64 {
                for i in 0..keys_per_thread / 6 {
                    let key = key_of(t, chunk * 10 + i);
                    assert_eq!(
                        db.get(key).unwrap().as_deref(),
                        Some(format!("i{iter}-t{t}-{key}").as_bytes()),
                        "iteration {iter}: key {key} lost"
                    );
                }
            }
        }
    }
    // Across the whole loop, redo found pages in flash (the warm-restart
    // effect the gate exists to protect).
    assert!(db.buffer_stats().flash_hits > 0);
}

#[test]
fn crash_discards_the_volatile_wal_tail() {
    under_both_drivers(crash_discards_the_wal_tail);
}

fn crash_discards_the_wal_tail(destage_threads: usize) {
    // A slow log device so the in-flight tail is observable: appends whose
    // force never completed must vanish with the crash, and LSN assignment
    // must rewind to the durable end.
    let db = Arc::new(
        Database::open(
            EngineConfig::in_memory()
                // Large enough that neither wave forces an eviction: the
                // loser's pages must stay purely volatile for this test.
                .buffer_frames(256)
                .table_buckets(512)
                .flash_cache(CachePolicyKind::FaceGsc, 2048)
                .destage_threads(destage_threads)
                .device_latency(DeviceLatency {
                    log_sync: Duration::from_millis(1),
                    ..DeviceLatency::zero()
                }),
        )
        .unwrap(),
    );
    let txn = db.begin();
    for k in 0..40u64 {
        db.put(txn, k, b"committed").unwrap();
    }
    db.commit(txn).unwrap();
    let durable_before = db.wal_durable_lsn();

    // Appended, never forced: a begin + puts without commit.
    let loser = db.begin();
    for k in 100..120u64 {
        db.put(loser, k, b"in flight").unwrap();
    }
    db.crash();
    assert_eq!(
        db.wal_durable_lsn(),
        durable_before,
        "crash must not advance durability"
    );
    let report = db.restart().unwrap();
    assert_eq!(report.durable_lsn, durable_before);
    assert_flash_below_durable(&db);
    for k in 0..40u64 {
        assert_eq!(db.get(k).unwrap().as_deref(), Some(b"committed".as_ref()));
    }
    // The loser's records died in the log buffer; with no eviction of its
    // pages (they fit in DRAM and were dropped), the keys are simply gone.
    for k in 100..120u64 {
        assert_eq!(db.get(k).unwrap(), None, "loser key {k} resurrected");
    }
}

#[test]
fn crash_inside_the_destage_pipeline_recovers_prefix_consistently() {
    // One gated flash store (single cache shard) and a single destage
    // worker: the first group write parks on the closed gate while more
    // groups pile up in the queue. The crash therefore lands with
    //   * one batch in flight at the device (its seal will be discarded —
    //     "flash write done, journal seal pending"), and
    //   * several groups enqueued but never written ("work enqueued, flash
    //     write incomplete").
    // Recovery must keep every committed key and never serve a flash
    // version beyond the durable log.
    let gates: Arc<std::sync::Mutex<Vec<Arc<GateFlashStore>>>> =
        Arc::new(std::sync::Mutex::new(Vec::new()));
    let gates_for_factory = Arc::clone(&gates);
    let db = Arc::new(
        Database::open(
            EngineConfig::in_memory()
                .buffer_frames(64)
                .buffer_shards(8)
                .table_buckets(1024)
                .flash_cache(CachePolicyKind::FaceGr, 2048)
                .cache_shards(1)
                .destage_threads(1)
                .destage_queue_depth(1024)
                .flash_store_factory(FlashStoreFactory::new(move |capacity| {
                    let store = Arc::new(GateFlashStore::new(capacity));
                    gates_for_factory.lock().unwrap().push(Arc::clone(&store));
                    store as Arc<dyn FlashStore>
                })),
        )
        .unwrap(),
    );

    // Committed load while the gate is closed: the worker parks on the
    // first batch, later groups queue up. The foreground never blocks on
    // the gate — commits keep flowing, which is itself the acceptance
    // property (no flash batch I/O on the commit path).
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for chunk in 0..5u64 {
                    let txn = db.begin();
                    for i in 0..10u64 {
                        let key = key_of(t, chunk * 10 + i);
                        db.put(txn, key, format!("pipe-{key}").as_bytes()).unwrap();
                    }
                    db.commit(txn).unwrap();
                }
            });
        }
    });
    let stats = db.destage_stats().expect("destager enabled");
    assert!(
        stats.groups_enqueued > stats.groups_completed,
        "test setup: the gate must have parked the pipeline \
         (enqueued {}, completed {})",
        stats.groups_enqueued,
        stats.groups_completed
    );

    // Crash with the pipeline full, then open the gate: the in-flight batch
    // lands on the device post-crash (a write that was racing the failure),
    // but its journal seal is discarded; the queued groups are simply gone.
    db.crash();
    for gate in gates.lock().unwrap().iter() {
        gate.release();
    }
    let report = db.restart().unwrap();
    assert!(report.cache_recovery.survived);
    assert_flash_below_durable(&db);
    let stats = db.destage_stats().unwrap();
    assert!(
        stats.groups_dropped > 0,
        "queued groups died with the crash"
    );
    for t in 0..4u64 {
        for chunk in 0..5u64 {
            for i in 0..10u64 {
                let key = key_of(t, chunk * 10 + i);
                assert_eq!(
                    db.get(key).unwrap().as_deref(),
                    Some(format!("pipe-{key}").as_bytes()),
                    "key {key} lost in the pipeline crash"
                );
            }
        }
    }

    // The reopened pipeline keeps working: more load, another crash (gate
    // now open, so this one lands at arbitrary queue depth), recover again.
    let txn = db.begin();
    for i in 0..50u64 {
        db.put(txn, 900_000 + i, b"post-recovery").unwrap();
    }
    db.commit(txn).unwrap();
    db.crash();
    let report = db.restart().unwrap();
    assert!(report.cache_recovery.survived);
    assert_flash_below_durable(&db);
    for i in 0..50u64 {
        assert_eq!(
            db.get(900_000 + i).unwrap().as_deref(),
            Some(b"post-recovery".as_ref())
        );
    }
}

#[test]
fn pipeline_backpressure_blocks_foreground_without_losing_data() {
    // A depth-1 queue against a gated store: the foreground must hit
    // backpressure (blocking in enqueue — without holding any cache lock),
    // and once the gate opens everything drains and reads back correctly.
    let gates: Arc<std::sync::Mutex<Vec<Arc<GateFlashStore>>>> =
        Arc::new(std::sync::Mutex::new(Vec::new()));
    let gates_for_factory = Arc::clone(&gates);
    let db = Arc::new(
        Database::open(
            EngineConfig::in_memory()
                .buffer_frames(32)
                .table_buckets(512)
                .flash_cache(CachePolicyKind::FaceGr, 1024)
                .cache_shards(1)
                .destage_threads(1)
                .destage_queue_depth(1)
                .flash_store_factory(FlashStoreFactory::new(move |capacity| {
                    let store = Arc::new(GateFlashStore::new(capacity));
                    gates_for_factory.lock().unwrap().push(Arc::clone(&store));
                    store as Arc<dyn FlashStore>
                })),
        )
        .unwrap(),
    );
    // Open the gate from a helper thread shortly after the writer starts
    // stalling on the full queue.
    let opener = {
        let gates = Arc::clone(&gates);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            for gate in gates.lock().unwrap().iter() {
                gate.release();
            }
        })
    };
    let txn = db.begin();
    for k in 0..200u64 {
        db.put(txn, k, b"backpressured").unwrap();
    }
    db.commit(txn).unwrap();
    opener.join().unwrap();
    db.drain_destage().unwrap();
    let stats = db.destage_stats().unwrap();
    assert_eq!(stats.groups_enqueued, stats.groups_completed);
    for k in 0..200u64 {
        assert_eq!(
            db.get(k).unwrap().as_deref(),
            Some(b"backpressured".as_ref())
        );
    }
}

#[test]
fn crash_mid_undo_loop_converges_with_persisted_losers() {
    under_both_drivers(crash_mid_undo_loop);
}

fn crash_mid_undo_loop(destage_threads: usize) {
    // The crash-anywhere loop over restart *undo*: concurrent committed
    // load, then a wave of loser transactions whose pages are pushed into
    // the flash cache by a checkpoint (so redo alone could never remove
    // them), then a crash. Recovery is crashed again and again at seeded
    // budgets — landing in redo on the early attempts and mid-undo on the
    // later ones — until it completes. Every attempt must leave a state the
    // next one converges from: committed keys intact, no loser byte
    // visible, and the reconciliation invariant holding throughout.
    let db = stress_db(destage_threads);
    let keys_per_thread = 48u64;
    for iter in 0..4u64 {
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    let txn = db.begin();
                    for i in 0..keys_per_thread {
                        db.put(txn, key_of(t, i), format!("i{iter}-t{t}-{i}").as_bytes())
                            .unwrap();
                    }
                    db.commit(txn).unwrap();
                });
            }
        });
        // Loser wave: one in-flight transaction per thread, writing a
        // disjoint high key range, never committed.
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    let loser = db.begin();
                    for i in 0..12u64 {
                        db.put(loser, key_of(t, 500_000 + i), b"loser bytes")
                            .unwrap();
                    }
                    // No commit, no abort: in flight at the crash.
                });
            }
        });
        // The checkpoint flushes the losers' dirty pages into the flash
        // cache (WAL-ahead guard forces their records first).
        db.checkpoint().unwrap();
        db.crash();

        // Seeded crash-anywhere schedule: budgets stride differently each
        // iteration, so crash points move through redo into undo.
        let mut budget = iter * 3;
        let stride = 2 * iter + 5;
        let mut crashes = 0u64;
        let report = loop {
            db.arm_restart_crash(budget);
            match db.restart() {
                Ok(report) => break report,
                Err(face_engine::EngineError::Crashed) => {
                    crashes += 1;
                    assert!(
                        crashes < 10_000,
                        "iteration {iter}: recovery never converged"
                    );
                    budget += stride;
                }
                Err(other) => panic!("iteration {iter}: unexpected recovery error {other}"),
            }
        };
        assert!(
            crashes > 0,
            "iteration {iter}: the schedule never crashed recovery"
        );
        assert!(
            report.undo.losers_found > 0 || report.undo.clrs_skipped > 0,
            "iteration {iter}: undo saw no loser work at all"
        );
        assert_flash_below_durable(&db);
        for t in 0..THREADS {
            for i in 0..keys_per_thread {
                assert_eq!(
                    db.get(key_of(t, i)).unwrap().as_deref(),
                    Some(format!("i{iter}-t{t}-{i}").as_bytes()),
                    "iteration {iter}: committed key lost"
                );
            }
            for i in 0..12u64 {
                assert_eq!(
                    db.get(key_of(t, 500_000 + i)).unwrap(),
                    None,
                    "iteration {iter}: loser byte visible at thread {t} slot {i}"
                );
            }
        }
    }
}

#[test]
fn cold_restart_loses_the_cache_but_not_the_data() {
    under_both_drivers(cold_restart);
}

fn cold_restart(destage_threads: usize) {
    let db = stress_db(destage_threads);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let db = Arc::clone(&db);
            s.spawn(move || {
                let txn = db.begin();
                for i in 0..50u64 {
                    db.put(txn, key_of(t, i), format!("t{t}-{i}").as_bytes())
                        .unwrap();
                }
                db.commit(txn).unwrap();
            });
        }
    });
    db.checkpoint().unwrap();
    db.crash();
    let report = db.restart_cold().unwrap();
    assert!(!report.cache_recovery.survived);
    assert_eq!(report.cache_recovery.entries_restored, 0);
    assert_eq!(
        report.pages_from_flash, 0,
        "cold restart must not see flash"
    );
    for t in 0..THREADS {
        for i in 0..50u64 {
            assert_eq!(
                db.get(key_of(t, i)).unwrap().as_deref(),
                Some(format!("t{t}-{i}").as_bytes()),
                "cold restart lost a committed key"
            );
        }
    }

    // And the next crash on the refilled cache recovers warm again.
    db.crash();
    let report = db.restart().unwrap();
    assert!(report.cache_recovery.survived);
    assert_flash_below_durable(&db);
}

/// `history` committed transactions, then a fixed epilogue: two losers, a
/// checkpoint, a few committed transactions and one more loser, a crash, and
/// the restart whose report is returned with the database.
fn restart_after_history(
    history: u64,
    destage_threads: usize,
) -> (Arc<Database>, face_engine::RecoveryReport) {
    let db = stress_db(destage_threads);
    for t in 0..history {
        let txn = db.begin();
        for i in 0..4 {
            db.put(txn, key_of(0, t * 4 + i), b"history").unwrap();
        }
        db.commit(txn).unwrap();
    }
    // Losers from before the checkpoint (their pages get flushed by it)...
    for l in 0..2 {
        let loser = db.begin();
        db.put(loser, key_of(1, l), b"loser").unwrap();
    }
    db.checkpoint().unwrap();
    // ...redo work behind it, and a loser the checkpoint never saw.
    for t in 0..5 {
        let txn = db.begin();
        db.put(txn, key_of(2, t), b"tail").unwrap();
        db.commit(txn).unwrap();
    }
    let loser = db.begin();
    db.put(loser, key_of(1, 2), b"loser").unwrap();
    let flusher = db.begin();
    db.put(flusher, key_of(2, 5), b"tail").unwrap();
    db.commit(flusher).unwrap();
    db.crash();
    let report = db.restart().unwrap();
    (db, report)
}

#[test]
fn restart_reads_the_log_since_the_checkpoint_not_the_history() {
    under_both_drivers(restart_reads_the_log_since_the_checkpoint);
}

fn restart_reads_the_log_since_the_checkpoint(destage_threads: usize) {
    let (short_db, short) = restart_after_history(30, destage_threads);
    let (long_db, long) = restart_after_history(300, destage_threads);
    // Ten times the committed history ahead of the same epilogue: the two
    // restarts decode the same records, do the same redo and undo...
    assert_eq!(long.records_scanned, short.records_scanned);
    assert_eq!(short.undo.losers_found, 3);
    assert_eq!(long.undo.losers_found, 3);
    assert_eq!(long.undo.updates_undone, short.undo.updates_undone);
    assert_eq!(long.undo.clrs_skipped, short.undo.clrs_skipped);
    assert_eq!(
        long.redo_applied + long.redo_skipped,
        short.redo_applied + short.redo_skipped
    );
    // ...and that is the epilogue's ~30 records read twice, not the 1,800
    // records of history (and ten times the log) behind it.
    assert!(
        long.records_scanned < 80,
        "{} records",
        long.records_scanned
    );
    assert!(long.durable_lsn.0 > 5 * short.durable_lsn.0);
    for (db, history) in [(&short_db, 30), (&long_db, 300)] {
        assert_eq!(db.get(key_of(0, 0)).unwrap().unwrap(), b"history");
        assert_eq!(
            db.get(key_of(0, history * 4 - 1)).unwrap().unwrap(),
            b"history"
        );
        for t in 0..=5 {
            assert_eq!(db.get(key_of(2, t)).unwrap().unwrap(), b"tail");
        }
        for l in 0..3 {
            assert_eq!(db.get(key_of(1, l)).unwrap(), None, "loser {l} visible");
        }
        // A second restart anchors at the same checkpoint and finds the
        // rollback already durable.
        db.crash();
        let again = db.restart().unwrap();
        assert_eq!(again.undo.updates_undone, 0);
        assert_eq!(db.get(key_of(1, 0)).unwrap(), None);
    }
}
