//! Crash-anywhere proptest for restart undo.
//!
//! Property: after a crash with a loser transaction in flight — whatever the
//! loser wrote, whether its pages were persisted (checkpoint) or merely its
//! records made durable (a later commit's log force), and wherever recovery
//! itself is crashed (`Database::arm_restart_crash` counts down redo and
//! undo page applications alike) — recovery converges, committed values are
//! intact, and **no loser byte is visible**. A final unarmed crash-restart
//! round asserts the recovered state is a fixpoint.

use std::collections::HashMap;

use face_cache::CachePolicyKind;
use face_engine::{Database, EngineConfig, EngineError};
use proptest::prelude::*;

fn small_db() -> Database {
    Database::open(
        EngineConfig::in_memory()
            .buffer_frames(8)
            .table_buckets(64)
            .flash_cache(CachePolicyKind::FaceGsc, 128),
    )
    .unwrap()
}

fn arb_value() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 1..12)
}

/// What the loser writes over a key: a fresh value, or the value the key
/// holds with only its first or only its last byte XORed — update records
/// whose images are a single byte, or (XOR with zero) no byte at all.
#[derive(Debug, Clone)]
enum LoserValue {
    Fresh(Vec<u8>),
    FirstByte(u8),
    LastByte(u8),
}

fn arb_loser_value() -> impl Strategy<Value = LoserValue> {
    prop_oneof![
        arb_value().prop_map(LoserValue::Fresh),
        any::<u8>().prop_map(LoserValue::FirstByte),
        any::<u8>().prop_map(LoserValue::LastByte),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn no_loser_byte_survives_any_crash_point(
        committed in prop::collection::vec((0..40u64, arb_value()), 1..20),
        loser_puts in prop::collection::vec((0..60u64, arb_loser_value()), 1..16),
        loser_deletes in prop::collection::vec(0..40u64, 0..4),
        checkpoint_after in any::<bool>(),
        commit_after in any::<bool>(),
        crash_budget in 0..40u64,
    ) {
        let db = small_db();

        // Committed baseline (later writes win per key).
        let mut expected: HashMap<u64, Vec<u8>> = HashMap::new();
        let setup = db.begin();
        for (k, v) in &committed {
            if db.put(setup, *k, v).is_ok() {
                expected.insert(*k, v.clone());
            }
        }
        db.commit(setup).unwrap();

        // The loser: overwrites committed keys, inserts fresh ones, deletes.
        let loser = db.begin();
        let mut loser_view = expected.clone();
        for (k, v) in &loser_puts {
            let held = loser_view.get(k).cloned().unwrap_or_else(|| vec![0]);
            let value = match v {
                LoserValue::Fresh(fresh) => fresh.clone(),
                LoserValue::FirstByte(x) => {
                    let mut value = held;
                    value[0] ^= x;
                    value
                }
                LoserValue::LastByte(x) => {
                    let mut value = held;
                    *value.last_mut().unwrap() ^= x;
                    value
                }
            };
            if db.put(loser, *k, &value).is_ok() {
                loser_view.insert(*k, value);
            }
        }
        for k in &loser_deletes {
            let _ = db.delete(loser, *k);
        }
        if checkpoint_after {
            // Persist the loser's pages into the flash cache (WAL-ahead
            // guard forces its records first): the hardest case for
            // recovery, beyond redo-only reach.
            db.checkpoint().unwrap();
        }
        if commit_after {
            // An unrelated commit forces the log: the loser's records are
            // durable even though its pages may not be.
            let t = db.begin();
            db.put(t, 999, b"forcer").unwrap();
            db.commit(t).unwrap();
            expected.insert(999, b"forcer".to_vec());
        }
        db.crash();

        // Crash recovery itself at the sampled point, then keep restarting
        // until it completes.
        db.arm_restart_crash(crash_budget);
        let mut attempts = 0;
        loop {
            match db.restart() {
                Ok(_) => break,
                Err(EngineError::Crashed) => {
                    attempts += 1;
                    prop_assert!(attempts < 100, "recovery never converged");
                }
                Err(other) => panic!("recovery error: {other}"),
            }
        }

        let check = |db: &Database| {
            for (k, v) in &expected {
                prop_assert_eq!(
                    db.get(*k).unwrap().as_deref(),
                    Some(v.as_slice()),
                    "committed key {} lost or stale",
                    k
                );
            }
            for (k, _) in &loser_puts {
                if !expected.contains_key(k) {
                    prop_assert_eq!(
                        db.get(*k).unwrap(),
                        None,
                        "loser byte visible at key {}",
                        k
                    );
                }
            }
        };
        check(&db);

        // The recovered state is a fixpoint: another (unarmed) crash-restart
        // changes nothing and finds no undo work left.
        db.crash();
        let report = db.restart().unwrap();
        prop_assert_eq!(report.undo.updates_undone, 0, "undo work resurfaced");
        check(&db);
    }
}
