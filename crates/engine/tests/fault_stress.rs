//! Seeded device-fault chaos tests — the CI `faults` gate that runs in
//! **release mode with the lockdep witness compiled in** (`cargo test
//! --release --features lockdep -p face-engine --test fault_stress`).
//!
//! Each scenario drives a concurrent commit workload through a
//! [`FaultPlan`]-wrapped device and then asserts the robustness contract:
//!
//! * **no panic** — every injected error travels a typed `Result` path;
//! * **no lost committed update** — every committed key reads back with its
//!   last committed value, either live (transient faults, write faults that
//!   fail over to disk) or after a crash-restart (permanent read faults,
//!   where WAL redo repairs what the dead flash slots dropped);
//! * **the degraded-mode counters move** — whenever the plan fired, the
//!   retries, quarantined slots, breaker trips and bypassed operations it
//!   must have caused are observable through [`Database::degrade_stats`];
//! * **lockdep / iocheck stay clean** — with the witness enabled a lock
//!   order or I/O-under-lock violation panics the offending thread, so
//!   passing at all certifies the fault paths hold the same discipline as
//!   the happy paths.
//!
//! Every plan is seed-deterministic: the nth device operation always gets
//! the same verdict, so a failing run replays with the same fault sequence.
//! *Which* operation is the nth depends on how fast the destagers run, so no
//! scenario asserts that its plan fired after a fixed amount of load — only
//! what must hold if it did. The two scenarios that are about what follows
//! the faults (the trip, the crash and redo, the heal) repeat their load
//! until the faults have happened, and fail loudly if they never do.
//!
//! Every scenario runs under both destage drivers: the inline one
//! (`destage_threads(0)`, group writes and stage-outs on the evicting
//! thread) and the default worker pool.

use std::sync::Arc;

use face_cache::{CachePolicyKind, DegradeConfig};
use face_engine::{Database, EngineConfig};
use face_pagestore::FaultPlan;

const THREADS: u64 = 4;
const KEYS_PER_THREAD: u64 = 150;

fn key_of(thread: u64, i: u64) -> u64 {
    thread * 1_000_000 + i
}

fn value_of(key: u64, round: u64) -> Vec<u8> {
    format!("r{round}-k{key}").into_bytes()
}

/// Run `scenario` under the inline destage driver and under the default
/// worker pool.
fn under_both_drivers(scenario: fn(usize)) {
    for destage_threads in [0, EngineConfig::in_memory().destage_threads] {
        // Shown with a failure's captured output: which driver it was.
        println!("destage_threads({destage_threads})");
        scenario(destage_threads);
    }
}

/// A small-buffer FaCE configuration so plenty of pages cross into (and
/// back out of) the flash cache while the workload runs.
fn faulty_db(
    plan: Arc<FaultPlan>,
    degrade: DegradeConfig,
    destage_threads: usize,
) -> Arc<Database> {
    Arc::new(
        Database::open(
            EngineConfig::in_memory()
                .buffer_frames(32)
                .buffer_shards(8)
                .table_buckets(256)
                .flash_cache(CachePolicyKind::FaceGsc, 1024)
                .cache_shards(4)
                .destage_threads(destage_threads)
                .degrade_config(degrade)
                .flash_faults(plan),
        )
        .unwrap(),
    )
}

/// Commit `KEYS_PER_THREAD` keys per thread (several transactions each) and
/// then read every key back through the faulty stack.
fn run_round(db: &Arc<Database>, round: u64) {
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let db = Arc::clone(db);
            s.spawn(move || {
                for chunk in 0..5u64 {
                    let txn = db.begin();
                    for i in 0..KEYS_PER_THREAD / 5 {
                        let key = key_of(t, chunk * (KEYS_PER_THREAD / 5) + i);
                        db.put(txn, key, &value_of(key, round)).unwrap();
                    }
                    db.commit(txn).unwrap();
                }
            });
        }
    });
}

fn assert_all_committed_keys(db: &Database, round: u64) {
    for t in 0..THREADS {
        for i in 0..KEYS_PER_THREAD {
            let key = key_of(t, i);
            assert_eq!(
                db.get(key).unwrap().as_deref(),
                Some(value_of(key, round).as_slice()),
                "key {key} lost or stale"
            );
        }
    }
}

/// Scenario 1: a low rate of transient flash errors on both reads and
/// writes. The retry/absorb machinery must keep every operation succeeding
/// with the breaker still closed — the workload never notices the device
/// hiccuping.
#[test]
fn transient_flash_errors_are_absorbed() {
    under_both_drivers(transient_flash_errors);
}

fn transient_flash_errors(destage_threads: usize) {
    let plan = Arc::new(
        FaultPlan::new(7)
            .probability(0.02)
            .transient()
            .max_faults(60),
    );
    // A high trip threshold keeps this scenario in the absorb/retry regime.
    let degrade = DegradeConfig {
        trip_threshold: 100_000,
        slot_failure_threshold: 100,
        ..DegradeConfig::default()
    };
    let db = faulty_db(Arc::clone(&plan), degrade, destage_threads);
    run_round(&db, 1);
    db.drain_destage().unwrap();
    assert_all_committed_keys(&db, 1);

    let stats = db.degrade_stats().expect("cache configured");
    assert_eq!(stats.breaker, "closed", "breaker tripped in absorb regime");
    assert!(
        plan.faults_injected() == 0 || stats.transient_errors + stats.retries > 0,
        "no transient error ever surfaced to the degrade machinery: {stats:?}"
    );
}

/// Scenario 2: permanent read failures pinned to a slot range. The strikes
/// quarantine those slots out of the rotation, the mounting error tally
/// trips the breaker into disk-only mode, and a crash-restart replays the
/// WAL over the bypassed cache — no committed update is lost, even where
/// the flash bytes died unread.
///
/// While the device is failing, operations MAY return typed errors: a dirty
/// page whose only fresh copy died with a poisoned slot is *wounded* and
/// refuses reads (serving the stale disk copy would let later updates stamp
/// it with high LSNs and silently defeat WAL redo). The contract under test
/// is that every *successfully committed* transaction survives the crash.
#[test]
fn permanent_slot_failures_quarantine_then_trip_and_redo_repairs() {
    under_both_drivers(permanent_slot_failures);
}

fn permanent_slot_failures(destage_threads: usize) {
    let plan = Arc::new(
        FaultPlan::new(13)
            .probability(1.0)
            .permanent()
            .reads_only()
            .slot_range(0, 16),
    );
    // Default thresholds: one strike quarantines a permanently failing
    // slot, eight total failures trip the breaker.
    let db = faulty_db(Arc::clone(&plan), DegradeConfig::default(), destage_threads);

    // Fault-tolerant load: each chunk's transaction either commits whole or
    // is abandoned on the first wound error; only committed keys join the
    // expectation set. Then touch every key so fetches land on the poisoned
    // slots. Errors (wounded pages) are expected here; panics are not.
    //
    // Every read of a poisoned slot is a final error: the first one
    // quarantines a slot, the eighth trips the breaker. How many of the
    // sixteen poisoned slots hold a version somebody reads depends on the
    // eviction order, so the pass repeats — every pass writes the same
    // values — until the tally has crossed the trip threshold.
    let trip_threshold = DegradeConfig::default().trip_threshold as u64;
    let committed = std::sync::Mutex::new(std::collections::HashSet::new());
    let mut passes = 0;
    while db
        .degrade_stats()
        .expect("cache configured")
        .permanent_errors
        < trip_threshold
    {
        passes += 1;
        assert!(
            passes <= 20,
            "{passes} passes over the poisoned slots never reached the trip threshold: {:?}",
            db.degrade_stats()
        );
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let db = Arc::clone(&db);
                let committed = &committed;
                s.spawn(move || {
                    for chunk in 0..5u64 {
                        let txn = db.begin();
                        let keys: Vec<u64> = (0..KEYS_PER_THREAD / 5)
                            .map(|i| key_of(t, chunk * (KEYS_PER_THREAD / 5) + i))
                            .collect();
                        let ok = keys
                            .iter()
                            .all(|&key| db.put(txn, key, &value_of(key, 2)).is_ok());
                        if ok && db.commit(txn).is_ok() {
                            committed.lock().unwrap().extend(keys);
                        } else {
                            let _ = db.abort(txn);
                        }
                    }
                });
            }
        });
        let _ = db.drain_destage();
        for t in 0..THREADS {
            for i in 0..KEYS_PER_THREAD {
                let _ = db.get(key_of(t, i));
            }
        }
    }
    println!("{passes} load-and-read passes to the trip threshold");
    let committed = committed.into_inner().unwrap();
    assert!(
        !committed.is_empty(),
        "not a single transaction committed through the failing device"
    );
    let stats = db.degrade_stats().expect("cache configured");
    assert!(
        stats.quarantined_slots > 0,
        "no slot was quarantined: {stats:?}"
    );
    assert_eq!(
        stats.breaker, "tripped",
        "sustained permanent failures must trip: {stats:?}"
    );

    // The breaker state survives the restart (same controller), so redo and
    // all post-restart traffic bypass the bad device; WAL replay over the
    // disk restores every committed key, including those whose only fresh
    // copy had been on a now-unreadable flash slot.
    db.crash();
    db.restart().unwrap();
    for &key in &committed {
        assert_eq!(
            db.get(key).unwrap().as_deref(),
            Some(value_of(key, 2).as_slice()),
            "committed key {key} lost or stale after redo"
        );
    }
    let stats = db.degrade_stats().expect("cache configured");
    assert_eq!(stats.breaker, "tripped");
    assert!(stats.bypassed_fetches > 0, "nothing bypassed: {stats:?}");
}

/// Scenario 3: permanent write failures hitting the destage pipeline's
/// group writes. Aborted groups must fail over to disk (write fallout), so
/// every committed key stays readable *live* — no crash needed, because a
/// failed write never destroys data that only exists elsewhere.
#[test]
fn mid_destage_batch_failure_fails_over_to_disk() {
    under_both_drivers(mid_destage_batch_failure);
}

fn mid_destage_batch_failure(destage_threads: usize) {
    let plan = Arc::new(
        FaultPlan::new(23)
            .probability(0.15)
            .permanent()
            .writes_only()
            .max_faults(40),
    );
    let degrade = DegradeConfig {
        trip_threshold: 100_000,
        slot_failure_threshold: 100,
        ..DegradeConfig::default()
    };
    let db = faulty_db(Arc::clone(&plan), degrade, destage_threads);
    run_round(&db, 3);
    db.drain_destage().unwrap();
    assert_all_committed_keys(&db, 3);

    if plan.faults_injected() == 0 {
        return;
    }
    let stats = db.degrade_stats().expect("cache configured");
    assert!(
        stats.write_errors > 0,
        "no write error reached the degrade machinery: {stats:?}"
    );
    // The inline driver reports no pipeline counters.
    assert_eq!(db.destage_stats().is_some(), destage_threads > 0);
    if let Some(destage) = db.destage_stats() {
        assert!(
            destage.groups_aborted + destage.permanent_errors > 0,
            "the destager never saw the failing device: {destage:?}"
        );
    }
}

/// Scenario 4: the plan stays dormant through the initial load, arms at the
/// crash, and injects transient faults into recovery itself. Redo must
/// retry through them and restore every committed key.
#[test]
fn faults_during_recovery_are_survived() {
    under_both_drivers(faults_during_recovery);
}

fn faults_during_recovery(destage_threads: usize) {
    let plan = Arc::new(
        FaultPlan::new(31)
            .probability(0.1)
            .transient()
            .reads_only()
            .max_faults(50)
            .armed_on_crash(),
    );
    let degrade = DegradeConfig {
        trip_threshold: 100_000,
        slot_failure_threshold: 100,
        ..DegradeConfig::default()
    };
    let db = faulty_db(Arc::clone(&plan), degrade, destage_threads);
    run_round(&db, 4);
    db.drain_destage().unwrap();
    assert_eq!(plan.faults_injected(), 0, "dormant plan fired during load");

    db.crash();
    plan.arm();
    db.restart().unwrap();
    assert_all_committed_keys(&db, 4);
}

/// Scenario 4b: device faults injected into the *undo* path. The plan stays
/// dormant while committed and loser waves load (the losers' pages pushed
/// to flash by a checkpoint), then arms at the crash and throws transient
/// faults at recovery — whose undo pass must retry through them, roll every
/// loser back, and keep every committed key.
#[test]
fn faults_injected_into_undo_are_survived() {
    under_both_drivers(faults_injected_into_undo);
}

fn faults_injected_into_undo(destage_threads: usize) {
    let plan = Arc::new(
        FaultPlan::new(61)
            .probability(0.1)
            .transient()
            .max_faults(50)
            .armed_on_crash(),
    );
    let degrade = DegradeConfig {
        trip_threshold: 100_000,
        slot_failure_threshold: 100,
        ..DegradeConfig::default()
    };
    let db = faulty_db(Arc::clone(&plan), degrade, destage_threads);
    run_round(&db, 8);
    // Loser wave: in-flight transactions over a disjoint high key range.
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let db = Arc::clone(&db);
            s.spawn(move || {
                let loser = db.begin();
                for i in 0..20u64 {
                    db.put(loser, key_of(t, 700_000 + i), b"loser bytes")
                        .unwrap();
                }
                // Never committed, never aborted.
            });
        }
    });
    // Persist the losers' pages so only undo can remove them.
    db.checkpoint().unwrap();
    db.drain_destage().unwrap();
    assert_eq!(plan.faults_injected(), 0, "dormant plan fired during load");

    db.crash();
    plan.arm();
    // Crash recovery once mid-way for good measure, then let it finish
    // through the faulting device.
    db.arm_restart_crash(40);
    let report = match db.restart() {
        Err(face_engine::EngineError::Crashed) => db.restart().unwrap(),
        Ok(report) => report,
        Err(other) => panic!("unexpected recovery error: {other}"),
    };
    assert!(
        report.undo.losers_found > 0 || report.undo.clrs_skipped > 0,
        "no loser reached the undo pass: {report:?}"
    );
    assert_all_committed_keys(&db, 8);
    for t in 0..THREADS {
        for i in 0..20u64 {
            assert_eq!(
                db.get(key_of(t, 700_000 + i)).unwrap(),
                None,
                "loser byte visible at thread {t} slot {i}"
            );
        }
    }
}

/// Scenario 5: a permanent whole-device error trips the breaker into
/// disk-only degraded mode — the engine keeps serving reads and writes off
/// the disk — and `heal_flash` brings the (replaced) device back cold.
#[test]
fn breaker_trips_to_disk_only_and_heals() {
    under_both_drivers(breaker_trips_and_heals);
}

/// The plan of the whole-device scenarios: quiet for the first 200 flash
/// operations, then one permanent whole-device error.
fn one_device_fault() -> Arc<FaultPlan> {
    Arc::new(
        FaultPlan::new(47)
            .arm_after(200)
            .probability(1.0)
            .permanent()
            .device_scoped()
            .max_faults(1),
    )
}

/// Run rounds of load — the nth one writes the values of round
/// `round_of(n)` — until `plan`'s one fault has fired, and return how many
/// it took. The plan arms on a device-operation count, and how many
/// operations one round costs depends on how the groups fill.
fn load_until_the_fault(db: &Arc<Database>, plan: &FaultPlan, round_of: fn(u64) -> u64) -> u64 {
    let mut rounds = 0;
    while plan.faults_injected() == 0 {
        rounds += 1;
        assert!(
            rounds <= 20,
            "{rounds} rounds of load made {} flash operations, short of the plan's 200",
            plan.ops_observed()
        );
        run_round(db, round_of(rounds));
        db.drain_destage().unwrap();
    }
    println!("{rounds} rounds of load to the device fault");
    rounds
}

fn breaker_trips_and_heals(destage_threads: usize) {
    let plan = one_device_fault();
    let db = faulty_db(Arc::clone(&plan), DegradeConfig::default(), destage_threads);
    // Every repeat of the round writes the same values.
    load_until_the_fault(&db, &plan, |_| 5);

    // More load after the fault: the first foreground operation claims the
    // trip (evacuating dirty flash pages), then everything bypasses flash.
    run_round(&db, 6);
    db.drain_destage().unwrap();
    assert_all_committed_keys(&db, 6);
    let stats = db.degrade_stats().expect("cache configured");
    assert_eq!(stats.breaker, "tripped", "breaker never tripped: {stats:?}");
    assert_eq!(stats.trips, 1);
    assert!(
        stats.bypassed_inserts + stats.bypassed_fetches > 0,
        "tripped breaker bypassed nothing: {stats:?}"
    );

    // Heal: the cache restarts cold and the breaker closes. The plan's
    // fault budget is spent, so the "replaced" device behaves.
    db.heal_flash().unwrap();
    let stats = db.degrade_stats().expect("cache configured");
    assert_eq!(stats.breaker, "closed", "heal did not close the breaker");
    assert_eq!(stats.heals, 1);
    run_round(&db, 7);
    db.drain_destage().unwrap();
    assert_all_committed_keys(&db, 7);
    let cache = db.cache_stats().expect("cache configured");
    assert!(cache.inserts > 0, "healed cache admits nothing: {cache:?}");
}

/// Scenario 5's blind spot, kept as the in-workspace reproduction of a known
/// fault (ROADMAP open item 2): the device fault lands while four clients
/// are writing, and the values of *that* round are read back at once — the
/// scenario above rewrites every key with the breaker tripped first, which
/// hides what this shows. Dirty pages that pass through the cache while the
/// trip's one evacuation sweep runs end up in flash only, and a tripped
/// breaker never looks there again: committed keys read `None`. Under both
/// drivers, at `2bf125a` as much as here; the share of failing runs swings
/// with the machine (0 of 40 to 46 of 60 in one afternoon, release with
/// the witness). It takes a second client: with `THREADS` = 1 it passed 30
/// of 30, with 2 it failed 27 of 30.
#[test]
#[ignore = "known fault: pages inserted while the trip evacuates are lost to reads (ROADMAP item 2)"]
fn a_trip_under_load_keeps_every_committed_key() {
    under_both_drivers(|destage_threads| {
        let plan = one_device_fault();
        let db = faulty_db(Arc::clone(&plan), DegradeConfig::default(), destage_threads);
        let rounds = load_until_the_fault(&db, &plan, |n| 100 + n);
        assert_all_committed_keys(&db, 100 + rounds);
    });
}

/// Scenario 5's second blind spot, kept as the reproduction of a known fault
/// (ROADMAP open item 2): the trip evacuates every dirty flash page but
/// leaves its dirty flag set, so `heal_flash`'s cold reset evacuates the
/// same pages again — over the newer versions written to disk while
/// tripped. Round 6, written and read back correctly while tripped, then
/// reads round 5's values. Scenario 5 hides it because its next round
/// rewrites every key before anything is read.
#[test]
#[ignore = "known fault: heal_flash writes the trip's stale evacuees over newer disk pages (ROADMAP item 2)"]
fn a_heal_after_a_trip_keeps_every_committed_key() {
    under_both_drivers(|destage_threads| {
        let plan = one_device_fault();
        let db = faulty_db(Arc::clone(&plan), DegradeConfig::default(), destage_threads);
        load_until_the_fault(&db, &plan, |_| 5);
        run_round(&db, 6);
        db.drain_destage().unwrap();
        assert_all_committed_keys(&db, 6);
        db.heal_flash().unwrap();
        assert_all_committed_keys(&db, 6);
    });
}
