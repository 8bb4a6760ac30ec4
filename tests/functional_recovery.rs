//! End-to-end functional tests across crates: the real engine (real pages,
//! WAL, flash cache with data) under workloads with crashes, checkpoints and
//! aborts, for every caching policy.

use face_repro::prelude::*;

fn db_with(policy: CachePolicyKind, buffer_frames: usize, flash_pages: usize) -> Database {
    let mut config = EngineConfig::in_memory()
        .buffer_frames(buffer_frames)
        .table_buckets(256)
        .flash_cache(policy, flash_pages);
    if policy == CachePolicyKind::None {
        config = config.no_flash_cache();
    }
    Database::open(config).unwrap()
}

fn value(k: u64, version: u32) -> Vec<u8> {
    format!("key-{k}-version-{version}").into_bytes()
}

#[test]
fn every_policy_preserves_committed_data_across_a_crash() {
    for policy in [
        CachePolicyKind::FaceGsc,
        CachePolicyKind::FaceGr,
        CachePolicyKind::Face,
        CachePolicyKind::S3Fifo,
        CachePolicyKind::None,
    ] {
        let db = db_with(policy, 16, 512);
        let txn = db.begin();
        for k in 0..300u64 {
            db.put(txn, k, &value(k, 1)).unwrap();
        }
        db.commit(txn).unwrap();
        db.checkpoint().unwrap();

        let txn = db.begin();
        for k in 0..300u64 {
            if k % 3 == 0 {
                db.put(txn, k, &value(k, 2)).unwrap();
            }
        }
        db.commit(txn).unwrap();
        db.crash();
        db.restart().unwrap();

        for k in 0..300u64 {
            let expected = if k % 3 == 0 { value(k, 2) } else { value(k, 1) };
            assert_eq!(
                db.get(k).unwrap().as_deref(),
                Some(expected.as_slice()),
                "{policy}: key {k}"
            );
        }
    }
}

#[test]
fn repeated_crash_restart_cycles_converge() {
    let db = db_with(CachePolicyKind::FaceGsc, 16, 256);
    for round in 1..=4u32 {
        let txn = db.begin();
        for k in 0..150u64 {
            db.put(txn, k, &value(k, round)).unwrap();
        }
        db.commit(txn).unwrap();
        if round % 2 == 0 {
            db.checkpoint().unwrap();
        }
        db.crash();
        let report = db.restart().unwrap();
        assert!(report.cache_recovery.survived);
        for k in 0..150u64 {
            assert_eq!(
                db.get(k).unwrap().unwrap(),
                value(k, round),
                "round {round}"
            );
        }
    }
}

#[test]
fn mixed_commit_abort_workload_is_consistent_after_crash() {
    let db = db_with(CachePolicyKind::FaceGsc, 32, 512);
    // Committed baseline.
    let txn = db.begin();
    for k in 0..200u64 {
        db.put(txn, k, &value(k, 1)).unwrap();
    }
    db.commit(txn).unwrap();

    // An aborted transaction whose changes must vanish.
    let txn = db.begin();
    for k in 0..200u64 {
        db.put(txn, k, b"should never be visible").unwrap();
    }
    db.abort(txn).unwrap();

    // Another committed wave over half the keys.
    let txn = db.begin();
    for k in (0..200u64).step_by(2) {
        db.put(txn, k, &value(k, 3)).unwrap();
    }
    db.commit(txn).unwrap();

    db.crash();
    db.restart().unwrap();
    for k in 0..200u64 {
        let expected = if k % 2 == 0 { value(k, 3) } else { value(k, 1) };
        assert_eq!(db.get(k).unwrap().unwrap(), expected, "key {k}");
    }
}

#[test]
fn persisted_loser_writes_are_undone_end_to_end() {
    // The loser's pages reach flash via the checkpoint, beyond redo-only
    // reach: restart must roll them back from before-images and log CLRs.
    let db = db_with(CachePolicyKind::FaceGsc, 16, 512);
    let txn = db.begin();
    for k in 0..120u64 {
        db.put(txn, k, &value(k, 1)).unwrap();
    }
    db.commit(txn).unwrap();

    let loser = db.begin();
    for k in 0..120u64 {
        if k % 2 == 0 {
            db.put(loser, k, b"loser overwrite").unwrap();
        }
    }
    for k in 500..520u64 {
        db.put(loser, k, b"loser insert").unwrap();
    }
    db.checkpoint().unwrap();
    db.crash();

    let report = db.restart().unwrap();
    assert_eq!(report.undo.losers_found, 1);
    assert!(report.undo.updates_undone >= 80, "{:?}", report.undo);
    assert_eq!(report.undo.clrs_written, report.undo.updates_undone);
    for k in 0..120u64 {
        assert_eq!(db.get(k).unwrap().unwrap(), value(k, 1), "key {k}");
    }
    for k in 500..520u64 {
        assert_eq!(db.get(k).unwrap(), None, "loser insert {k} visible");
    }
    // recovery_info surfaces the same report after the fact.
    assert_eq!(db.recovery_info().unwrap().undo, report.undo);
}

#[test]
fn crash_during_recovery_converges_end_to_end() {
    let db = db_with(CachePolicyKind::FaceGsc, 16, 512);
    let txn = db.begin();
    for k in 0..100u64 {
        db.put(txn, k, &value(k, 1)).unwrap();
    }
    db.commit(txn).unwrap();
    let loser = db.begin();
    for k in 0..100u64 {
        db.put(loser, k, b"never visible").unwrap();
    }
    db.checkpoint().unwrap();
    db.crash();

    // Crash recovery after 0, 3, 6, ... page applications until it finishes;
    // every retry resumes from the durable CLRs of the one before.
    let mut crashes = 0u32;
    let mut budget = 0u64;
    loop {
        db.arm_restart_crash(budget);
        match db.restart() {
            Ok(_) => break,
            Err(EngineError::Crashed) => {
                crashes += 1;
                budget += 3;
                assert!(crashes < 1_000, "recovery never converged");
            }
            Err(other) => panic!("unexpected recovery error: {other}"),
        }
    }
    assert!(crashes > 0, "the schedule never interrupted recovery");
    for k in 0..100u64 {
        assert_eq!(db.get(k).unwrap().unwrap(), value(k, 1), "key {k}");
    }
    // The recovered state is a fixpoint.
    db.crash();
    let report = db.restart().unwrap();
    assert_eq!(report.undo.updates_undone, 0);
    for k in 0..100u64 {
        assert_eq!(db.get(k).unwrap().unwrap(), value(k, 1), "key {k}");
    }
}

#[test]
fn deletes_survive_crash_and_recovery() {
    let db = db_with(CachePolicyKind::FaceGr, 16, 256);
    let txn = db.begin();
    for k in 0..100u64 {
        db.put(txn, k, &value(k, 1)).unwrap();
    }
    db.commit(txn).unwrap();
    let txn = db.begin();
    for k in (0..100u64).step_by(4) {
        assert!(db.delete(txn, k).unwrap());
    }
    db.commit(txn).unwrap();
    db.crash();
    db.restart().unwrap();
    for k in 0..100u64 {
        let got = db.get(k).unwrap();
        if k % 4 == 0 {
            assert!(got.is_none(), "key {k} should have stayed deleted");
        } else {
            assert_eq!(got.unwrap(), value(k, 1));
        }
    }
}

#[test]
fn warm_restart_keeps_the_cache_hot_and_reconciled() {
    for policy in [
        CachePolicyKind::FaceGsc,
        CachePolicyKind::FaceGr,
        CachePolicyKind::Face,
    ] {
        let db = db_with(policy, 16, 2048);
        // A working set far beyond 16 DRAM frames: most pages live in flash.
        let txn = db.begin();
        for k in 0..400u64 {
            db.put(txn, k, &value(k, 1)).unwrap();
        }
        db.commit(txn).unwrap();
        db.checkpoint().unwrap();
        let txn = db.begin();
        for k in 0..400u64 {
            db.put(txn, k, &value(k, 2)).unwrap();
        }
        db.commit(txn).unwrap();
        db.crash();
        let report = db.restart().unwrap();
        assert!(report.cache_recovery.survived, "{policy}");
        assert!(report.cache_recovery.entries_restored > 0, "{policy}");
        // The write-ahead guard means nothing in flash ever outran the log.
        assert_eq!(
            report.cache_recovery.entries_discarded_beyond_wal, 0,
            "{policy}"
        );
        assert_eq!(report.durable_lsn, db.wal_durable_lsn(), "{policy}");
        // Re-reads after the restart are served by the warm cache, not disk.
        let before = db.buffer_stats();
        for k in 0..400u64 {
            assert_eq!(db.get(k).unwrap().unwrap(), value(k, 2), "{policy}: {k}");
        }
        let after = db.buffer_stats();
        let flash = after.flash_hits - before.flash_hits;
        let disk = after.disk_fetches - before.disk_fetches;
        assert!(
            flash > disk,
            "{policy}: post-restart reads hit flash {flash} vs disk {disk}"
        );
        // No recovered flash slot carries an LSN beyond the durable log.
        let durable = db.wal_durable_lsn();
        for store in db.flash_stores() {
            for slot in 0..store.capacity() {
                if let Some((page, lsn)) = store.slot_header(slot) {
                    assert!(lsn <= durable, "{policy}: {page} at {lsn:?} > {durable:?}");
                }
            }
        }
    }
}

#[test]
fn cold_restart_evacuates_dirty_flash_pages_before_wiping() {
    // Under FaCE, checkpointed dirty pages live only in flash. A cold
    // restart (cache device decommissioned) must drain them to disk or it
    // would lose committed data.
    let db = db_with(CachePolicyKind::FaceGsc, 16, 2048);
    let txn = db.begin();
    for k in 0..300u64 {
        db.put(txn, k, &value(k, 7)).unwrap();
    }
    db.commit(txn).unwrap();
    db.checkpoint().unwrap();
    db.crash();
    let disk_writes_before = db.tier_stats().disk_writes;
    let report = db.restart_cold().unwrap();
    assert!(!report.cache_recovery.survived);
    assert!(
        db.tier_stats().disk_writes > disk_writes_before,
        "evacuation must write dirty flash pages to disk"
    );
    for k in 0..300u64 {
        assert_eq!(db.get(k).unwrap().unwrap(), value(k, 7), "key {k} lost");
    }
    // The cache is genuinely cold: it refills as the workload resumes.
    let cache = db.cache_stats().unwrap();
    let inserts_before = cache.inserts;
    for _ in 0..2 {
        for k in 0..300u64 {
            db.get(k).unwrap();
        }
    }
    assert!(db.cache_stats().unwrap().inserts > inserts_before);
}

#[test]
fn checkpoint_cadence_bounds_journal_replay() {
    // A tight cadence keeps the journal short: recovery loads the checkpoint
    // plus at most `interval x group_size` records per shard.
    let mut config = EngineConfig::in_memory()
        .buffer_frames(16)
        .table_buckets(256)
        .flash_cache(CachePolicyKind::FaceGsc, 1024);
    config.cache_config.group_size = 8;
    config.cache_config.meta_checkpoint_interval_groups = 2;
    let db = Database::open(config).unwrap();
    let txn = db.begin();
    for k in 0..500u64 {
        db.put(txn, k, &value(k, 1)).unwrap();
    }
    db.commit(txn).unwrap();
    // The cadence checkpoint is taken by the background destager as groups
    // seal; drain it so the crash deterministically lands after the
    // checkpoint rather than racing it.
    db.drain_destage().unwrap();
    db.crash();
    let report = db.restart().unwrap();
    assert!(report.cache_recovery.survived);
    assert!(report.cache_recovery.checkpoint_loaded);
    // 4 shards x (2 groups x 8 entries) is the worst case the cadence allows.
    assert!(
        report.cache_recovery.journal_records_replayed <= 4 * 2 * 8,
        "replay {} exceeds the cadence bound",
        report.cache_recovery.journal_records_replayed
    );
}

#[test]
fn face_reduces_disk_writes_versus_no_cache() {
    let run = |policy: CachePolicyKind| -> (u64, u64) {
        let db = db_with(policy, 16, 1024);
        for round in 0..6u32 {
            let txn = db.begin();
            for k in 0..400u64 {
                db.put(txn, k, &value(k, round)).unwrap();
            }
            db.commit(txn).unwrap();
        }
        let t = db.tier_stats();
        (t.disk_writes, t.flash_fetches)
    };
    let (face_writes, face_flash_fetches) = run(CachePolicyKind::FaceGsc);
    let (plain_writes, _) = run(CachePolicyKind::None);
    assert!(
        face_writes < plain_writes / 2,
        "FaCE should absorb most disk writes: {face_writes} vs {plain_writes}"
    );
    assert!(face_flash_fetches > 0);
}

#[test]
fn flash_cache_serves_rereads_after_buffer_pressure() {
    let db = db_with(CachePolicyKind::Face, 8, 2048);
    let txn = db.begin();
    for k in 0..500u64 {
        db.put(txn, k, &value(k, 1)).unwrap();
    }
    db.commit(txn).unwrap();
    // Re-read everything twice: with only 8 DRAM frames nearly every read
    // misses DRAM, and the flash cache should serve the bulk of them.
    for _ in 0..2 {
        for k in 0..500u64 {
            assert!(db.get(k).unwrap().is_some());
        }
    }
    let buffer = db.buffer_stats();
    assert!(
        buffer.flash_hits > buffer.disk_fetches,
        "flash {} vs disk {}",
        buffer.flash_hits,
        buffer.disk_fetches
    );
}
