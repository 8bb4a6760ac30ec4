//! Read-path stress tests for the lock-light fetch protocol — the CI gate
//! that runs in **release mode** (`cargo test --release -p face-engine
//! --test read_stress`), because optimistic-read races that survive debug
//! builds tend to bite only under optimisation.
//!
//! What is pinned down here:
//! * readers hammering `get` while writers churn the flash cache (destager
//!   on, groups destaged and slots reused underneath them) never observe a
//!   torn page (value/key mismatch) and never observe time running backwards
//!   (a stale in-transit or disk copy served after a newer version was
//!   readable) — and the generation-validation retry path is *actually
//!   exercised* (`CacheStats::fetch_retries > 0`), not just never needed;
//! * with the crash-point gated store holding the flash batch write open,
//!   reads of in-flight deferred groups are served from their shared RAM
//!   frames while a destage worker is parked mid-device-write.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use face_cache::{CachePolicyKind, FlashStore, GateFlashStore};
use face_engine::config::FlashStoreFactory;
use face_engine::{Database, EngineConfig};
use face_pagestore::Page;

/// The crash-point store with a read-side magnifier: every slot read costs
/// `delay`, widening the pin → validate window so eviction races that would
/// need millions of iterations to surface at memory speed occur reliably.
/// Writes and gates pass through to the [`GateFlashStore`].
struct SlowReadStore {
    inner: Arc<GateFlashStore>,
    delay: Duration,
}

impl FlashStore for SlowReadStore {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }
    fn write_slot(&self, slot: usize, page: &Page) -> face_pagestore::DeviceResult<()> {
        self.inner.write_slot(slot, page)
    }
    fn write_batch(&self, writes: &[(usize, &Page)]) -> face_pagestore::DeviceResult<()> {
        self.inner.write_batch(writes)
    }
    fn read_slot(&self, slot: usize) -> face_pagestore::DeviceResult<Option<Page>> {
        std::thread::sleep(self.delay);
        self.inner.read_slot(slot)
    }
    fn carries_data(&self) -> bool {
        true
    }
    fn clear(&self) {
        self.inner.clear();
    }
    fn clear_slot(&self, slot: usize) {
        self.inner.clear_slot(slot);
    }
}

const KEYS: u64 = 1024;

/// The per-shard gated stores collected by the injected factory.
type Gates = Arc<std::sync::Mutex<Vec<Arc<GateFlashStore>>>>;

fn value_for(key: u64, round: u64) -> [u8; 16] {
    let mut v = [0u8; 16];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..].copy_from_slice(&round.to_le_bytes());
    v
}

/// A cache too small for the bucket pages, so slots dequeue and get reused
/// constantly underneath the readers; reads pay 200 µs at the device, so a
/// pinned slot routinely loses its generation mid-read.
fn stress_db(read_delay: Duration) -> (Arc<Database>, Gates) {
    let gates: Gates = Arc::new(std::sync::Mutex::new(Vec::new()));
    let gates_for_factory = Arc::clone(&gates);
    let db = Arc::new(
        Database::open(
            EngineConfig::in_memory()
                .buffer_frames(128)
                .buffer_shards(8)
                .table_buckets(1024)
                .flash_cache(CachePolicyKind::FaceGsc, 256)
                .cache_shards(2)
                .destage_threads(2)
                .flash_store_factory(FlashStoreFactory::new(move |capacity| {
                    let gate = Arc::new(GateFlashStore::new(capacity));
                    gate.release(); // writes flow unless a test closes them
                    gates_for_factory.lock().unwrap().push(Arc::clone(&gate));
                    Arc::new(SlowReadStore {
                        inner: gate,
                        delay: read_delay,
                    }) as Arc<dyn FlashStore>
                })),
        )
        .unwrap(),
    );
    (db, gates)
}

fn load(db: &Arc<Database>) {
    let mut key = 0;
    while key < KEYS {
        let txn = db.begin();
        for k in key..(key + 64).min(KEYS) {
            db.put(txn, k, &value_for(k, 0)).unwrap();
        }
        db.commit(txn).unwrap();
        key += 64;
    }
}

#[test]
fn readers_survive_concurrent_destage_and_eviction() {
    let (db, _gates) = stress_db(Duration::from_micros(200));
    assert!(db.cache_stats().is_some());
    load(&db);

    let stop = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut exercised = false;
    while !exercised && Instant::now() < deadline {
        std::thread::scope(|s| {
            // Two writers churning disjoint halves of the key space: every
            // put dirties a bucket page, evicts through the buffer into the
            // 256-slot cache, and forces dequeues + slot reuse.
            for w in 0..2u64 {
                let db = Arc::clone(&db);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let half = KEYS / 2;
                    let mut round = 1u64;
                    while !stop.load(Ordering::Relaxed) {
                        let txn = db.begin();
                        for i in 0..16 {
                            let key = w * half + (round * 31 + i * 17) % half;
                            db.put(txn, key, &value_for(key, round)).unwrap();
                        }
                        db.commit(txn).unwrap();
                        round += 1;
                    }
                });
            }
            // Four readers over the whole key space. Each checks both halves
            // of the contract: the value belongs to the key it asked for
            // (no torn or foreign page), and per-key rounds never regress
            // (no stale in-transit/disk copy served after a newer version).
            let mut readers = Vec::new();
            for r in 0..4u64 {
                let db = Arc::clone(&db);
                readers.push(s.spawn(move || {
                    let mut state = 0x9E37_79B9_u64.wrapping_mul(r + 1);
                    let mut last_seen: HashMap<u64, u64> = HashMap::new();
                    for _ in 0..2_000 {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let key = (state >> 16) % KEYS;
                        let val = db.get(key).unwrap().expect("loaded key vanished");
                        assert_eq!(val.len(), 16, "torn value");
                        let k = u64::from_le_bytes(val[..8].try_into().unwrap());
                        assert_eq!(k, key, "read returned another page's bytes");
                        let round = u64::from_le_bytes(val[8..].try_into().unwrap());
                        let last = last_seen.entry(key).or_insert(0);
                        assert!(
                            round >= *last,
                            "stale read: key {key} went from round {last} back to {round}"
                        );
                        *last = round;
                    }
                }));
            }
            for reader in readers {
                reader.join().expect("reader panicked");
            }
            stop.store(true, Ordering::Relaxed);
        });
        stop.store(false, Ordering::Relaxed);
        exercised = db.cache_stats().unwrap().fetch_retries > 0;
    }

    let cache = db.cache_stats().unwrap();
    assert!(
        exercised,
        "the generation-validation retry path was never exercised \
         (lookups {}, hits {})",
        cache.lookups, cache.hits
    );
    assert!(cache.hits > 0, "readers never reached the flash cache");
    let destage = db.destage_stats().unwrap();
    assert!(
        destage.groups_completed > 0,
        "the destager was not actually running"
    );
    // Quiesced now: the engine still answers consistently.
    for key in 0..KEYS {
        let val = db.get(key).unwrap().expect("key lost after the storm");
        assert_eq!(u64::from_le_bytes(val[..8].try_into().unwrap()), key);
    }
}

#[test]
fn inflight_groups_serve_reads_while_destage_write_is_parked() {
    // No read delay: this test parks the *write* side (a crash-point store
    // holding the flash batch), and reads of the in-flight group must come
    // from the shared RAM frames without ever touching the parked device.
    let (db, gates) = stress_db(Duration::ZERO);
    load(&db);
    db.drain_destage().unwrap();

    // Close the write gates: the next filled groups park a destage worker
    // mid-device-write ("written but unsealed" crash point territory).
    for gate in gates.lock().unwrap().iter() {
        gate.hold_writes();
    }
    let hot: Vec<u64> = (0..64).collect();
    let txn = db.begin();
    for &key in &hot {
        db.put(txn, key, &value_for(key, 7)).unwrap();
    }
    db.commit(txn).unwrap();
    // Spill the dirty pages out of the DRAM buffer so they enter cache
    // groups (whose physical writes are now parked at the gate).
    let filler = db.begin();
    for key in KEYS..KEYS + 256 {
        db.put(filler, key, &value_for(key, 1)).unwrap();
    }
    db.commit(filler).unwrap();

    // Every hot key must read back its round-7 value right now — from DRAM,
    // from an in-flight RAM frame, or from its copy in transit — never the stale
    // flash/disk copy, and never blocking on the parked device write.
    let start = Instant::now();
    for &key in &hot {
        let val = db.get(key).unwrap().expect("hot key vanished");
        assert_eq!(u64::from_le_bytes(val[..8].try_into().unwrap()), key);
        let round = u64::from_le_bytes(val[8..].try_into().unwrap());
        assert!(round >= 7, "key {key} served a pre-update round {round}");
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "reads blocked behind the parked destage write"
    );

    for gate in gates.lock().unwrap().iter() {
        gate.release();
    }
    db.drain_destage().unwrap();
    for &key in &hot {
        let val = db.get(key).unwrap().unwrap();
        let round = u64::from_le_bytes(val[8..].try_into().unwrap());
        assert!(round >= 7);
    }
}
