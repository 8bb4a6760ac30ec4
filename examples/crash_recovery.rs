//! Crash and restart with the flash cache as part of the persistent database.
//!
//! The example commits work, takes a checkpoint (which, with FaCE, flushes
//! dirty pages to the *flash cache*, not the disk), keeps working, crashes,
//! and restarts. The recovery report shows that most pages needed by redo
//! were fetched from the flash cache — the paper's §5.5 result. A cold
//! restart of the same setup (the cache device wiped after its dirty pages
//! are evacuated to disk) and a run without a cache are the contrast.
//!
//! Run with `cargo run --example crash_recovery`.

use face_repro::prelude::*;

fn run(policy: CachePolicyKind, cold: bool) -> Result<(), Box<dyn std::error::Error>> {
    let config = EngineConfig::in_memory()
        .buffer_frames(32)
        .table_buckets(512)
        .flash_cache(policy, 2048);
    let config = if policy == CachePolicyKind::None {
        config.no_flash_cache()
    } else {
        config
    };
    let db = Database::open(config)?;

    // Phase 1: committed work, then a checkpoint.
    let txn = db.begin();
    for k in 0..2_000u64 {
        db.put(txn, k, format!("v1-{k}").as_bytes())?;
    }
    db.commit(txn)?;
    db.checkpoint()?;

    // Phase 2: more committed work after the checkpoint, then a crash.
    let txn = db.begin();
    for k in 0..2_000u64 {
        db.put(txn, k, format!("v2-{k}").as_bytes())?;
    }
    db.commit(txn)?;
    db.crash();

    let report = if cold {
        db.restart_cold()?
    } else {
        db.restart()?
    };
    println!(
        "--- {policy}{} ---",
        if cold { ", cold restart" } else { "" }
    );
    println!(
        "  redo: {} applied, {} skipped ({} log records scanned)",
        report.redo_applied, report.redo_skipped, report.records_scanned
    );
    println!(
        "  redo page fetches: {} from flash, {} from disk ({:.0}% from flash)",
        report.pages_from_flash,
        report.pages_from_disk,
        report.flash_fetch_ratio() * 100.0
    );
    println!(
        "  cache recovery: survived={} segments={} pages_scanned={} entries={}",
        report.cache_recovery.survived,
        report.cache_recovery.metadata_segments_loaded,
        report.cache_recovery.pages_scanned,
        report.cache_recovery.entries_restored,
    );

    // All committed data is intact.
    for k in 0..2_000u64 {
        assert_eq!(db.get(k)?.unwrap(), format!("v2-{k}").as_bytes());
    }
    println!("  all 2000 keys verified after restart\n");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    run(CachePolicyKind::FaceGsc, false)?;
    run(CachePolicyKind::FaceGsc, true)?;
    run(CachePolicyKind::None, false)?;
    println!("Only a warm restart keeps the flash cache and serves redo from it.");
    Ok(())
}
