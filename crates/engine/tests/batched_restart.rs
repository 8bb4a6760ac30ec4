//! A warm restart reads its pages from flash in batches: redo's pages, then
//! undo's, each read ahead in windows the buffer pool can hold, with one
//! flash read call per cache shard per window
//! (`cargo test --release -p face-engine --test batched_restart`).
//!
//! What is pinned down here:
//! * a restart whose redo and undo pages lie on every cache shard issues at
//!   most one flash read call per shard per window, and every committed key
//!   reads back;
//! * the recovery report keeps its meaning: redo loads count in
//!   `pages_from_*`, undo loads in `undo_pages_from_*`, and the buffer pool
//!   still accounts every access as a hit or a miss.

use std::sync::{Arc, Mutex};

use face_buffer::BufferStats;
use face_cache::{CachePolicyKind, FlashStore, GateFlashStore};
use face_engine::config::FlashStoreFactory;
use face_engine::{Database, EngineConfig, RecoveryReport};

const CACHE_SHARDS: usize = 4;

/// Keys the committed history writes: enough to touch every table page.
const KEYS: u64 = 512;

/// Keys updated after the checkpoint: redo's pages are some of the table's,
/// so some of the losers' pages are left for undo to load.
const REDO_KEYS: u64 = 24;

/// A database whose flash stores count their read calls, and the stores.
fn counted_db(buffer_frames: usize) -> (Database, Arc<Mutex<Vec<Arc<GateFlashStore>>>>) {
    let stores: Arc<Mutex<Vec<Arc<GateFlashStore>>>> = Arc::default();
    let built = Arc::clone(&stores);
    let db = Database::open(
        EngineConfig::in_memory()
            .buffer_frames(buffer_frames)
            .buffer_shards(8)
            .table_buckets(64)
            .flash_cache(CachePolicyKind::FaceGsc, 1024)
            .cache_shards(CACHE_SHARDS)
            // One driver whose work is done when a write-back returns: the
            // crash finds nothing of the history in flight.
            .destage_threads(0)
            .flash_store_factory(FlashStoreFactory::new(move |capacity| {
                let store = Arc::new(GateFlashStore::new(capacity));
                store.release();
                built.lock().unwrap().push(Arc::clone(&store));
                store as Arc<dyn FlashStore>
            })),
    )
    .unwrap();
    (db, stores)
}

fn value(key: u64, round: u64) -> Vec<u8> {
    format!("k{key}-r{round}").into_bytes()
}

/// Every key in flash after a checkpoint; losers in flight across it; then
/// committed updates after it, so a restart has redo and undo work both.
/// Returns the flash read calls each store had made before the restart,
/// the buffer pool's counters then, and the restart's report.
fn crash_after_redo_and_undo_work(
    db: &Database,
    stores: &Mutex<Vec<Arc<GateFlashStore>>>,
) -> (Vec<u64>, BufferStats, RecoveryReport) {
    let txn = db.begin();
    for key in 0..KEYS {
        db.put(txn, key, &value(key, 0)).unwrap();
    }
    db.commit(txn).unwrap();
    for loser in 0..3u64 {
        let txn = db.begin();
        for i in 0..4 {
            db.put(txn, 10_000 + loser * 10 + i, b"loser").unwrap();
        }
    }
    db.checkpoint().unwrap();
    let txn = db.begin();
    for key in 0..REDO_KEYS {
        db.put(txn, key, &value(key, 1)).unwrap();
    }
    db.commit(txn).unwrap();
    db.crash();
    let (calls, pool) = (read_calls(stores), db.buffer_stats());
    let report = db.restart().unwrap();
    (calls, pool, report)
}

fn read_calls(stores: &Mutex<Vec<Arc<GateFlashStore>>>) -> Vec<u64> {
    stores
        .lock()
        .unwrap()
        .iter()
        .map(|s| s.read_calls())
        .collect()
}

fn assert_committed_keys(db: &Database) {
    for key in 0..KEYS {
        let round = u64::from(key < REDO_KEYS);
        assert_eq!(db.get(key).unwrap(), Some(value(key, round)), "key {key}");
    }
    for key in 10_000..10_030 {
        assert_eq!(db.get(key).unwrap(), None, "loser key {key} survived");
    }
}

#[test]
fn a_warm_restart_reads_each_window_with_one_flash_call_per_shard() {
    // 256 frames hold every table page: redo is one window, and undo's
    // pages that redo did not load are one more.
    let (db, stores) = counted_db(256);
    let (before, _, report) = crash_after_redo_and_undo_work(&db, &stores);
    let calls: Vec<u64> = read_calls(&stores)
        .iter()
        .zip(&before)
        .map(|(after, before)| after - before)
        .collect();
    assert_eq!(calls.len(), CACHE_SHARDS);
    let pages = report.pages_from_flash + report.undo.undo_pages_from_flash;
    assert!(
        report.pages_from_flash >= CACHE_SHARDS as u64 && report.undo.undo_pages_from_flash > 0,
        "redo and undo both read from flash: {report:?}"
    );
    for (shard, &calls) in calls.iter().enumerate() {
        assert!(
            (1..=2).contains(&calls),
            "shard {shard}: {calls} flash read calls for two windows ({calls:?} over {pages} pages)"
        );
    }
    assert_eq!(report.redo_base_mismatches, 0);
    assert_committed_keys(&db);
}

#[test]
fn a_pool_smaller_than_the_working_set_reads_it_in_several_windows() {
    // 16 frames, 2 per buffer shard: redo's pages need several windows,
    // each still batched per cache shard.
    let (db, stores) = counted_db(16);
    let (before, _, report) = crash_after_redo_and_undo_work(&db, &stores);
    let calls: u64 = read_calls(&stores)
        .iter()
        .zip(&before)
        .map(|(after, before)| after - before)
        .sum();
    let pages = report.pages_from_flash + report.undo.undo_pages_from_flash;
    assert!(
        calls < pages,
        "{calls} flash read calls for {pages} pages: no batching"
    );
    assert_eq!(report.redo_base_mismatches, 0);
    assert_committed_keys(&db);
}

#[test]
fn the_recovery_report_counts_redo_and_undo_loads_apart() {
    let (db, stores) = counted_db(256);
    let (_, pool_before, report) = crash_after_redo_and_undo_work(&db, &stores);
    let pool = db.buffer_stats();
    // After the checkpoint every table page is in flash: nothing comes
    // from disk, in either pass.
    assert!(report.pages_from_flash > 0, "{report:?}");
    assert_eq!(report.pages_from_disk, 0);
    assert!(report.undo.undo_pages_from_flash > 0, "{report:?}");
    assert_eq!(report.undo.undo_pages_from_disk, 0);
    assert_eq!(report.undo.updates_undone, 12);
    assert_eq!(report.redo_base_mismatches, 0);
    // Every page the restart loaded was read ahead and counted once, as a
    // miss from its source; the accesses that used it were hits.
    let loads = report.pages_from_flash
        + report.pages_from_disk
        + report.undo.undo_pages_from_flash
        + report.undo.undo_pages_from_disk;
    assert_eq!(pool.misses - pool_before.misses, loads);
    assert_eq!(pool.flash_hits - pool_before.flash_hits, loads);
    assert_eq!(pool.hits + pool.misses, pool.accesses);
    assert_committed_keys(&db);
    let pool = db.buffer_stats();
    assert_eq!(pool.hits + pool.misses, pool.accesses);
}
