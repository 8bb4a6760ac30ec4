//! Drop-and-reopen of a file-backed database, with and without a checkpoint
//! before the process dies, for every functional cache policy and none.
//!
//! Fails today (ROADMAP item 3): the flash store and the cache directory
//! live in process RAM, yet a checkpoint flushes dirty pages into flash and
//! moves the redo LSN past them, so a reopened FaCE-family database has lost
//! every page the checkpoint flushed. The no-cache arm and the arms without
//! a checkpoint lose nothing.
//!
//! Run with `cargo test -p face-engine --test reopen_after_checkpoint -- --ignored`.

use std::path::Path;

use face_engine::{CachePolicyKind, Database, EngineConfig};

const KEYS: u64 = 40;

fn config(dir: &Path, policy: CachePolicyKind) -> EngineConfig {
    let config = EngineConfig::on_disk(dir)
        .buffer_frames(8)
        .table_buckets(16);
    match policy {
        CachePolicyKind::None => config.no_flash_cache(),
        _ => config.flash_cache(policy, 64),
    }
}

/// Commit `KEYS` single-key transactions, optionally checkpoint, drop the
/// database without a clean shutdown, reopen it and count the keys that no
/// longer read back.
fn lost_keys(policy: CachePolicyKind, checkpoint: bool) -> u64 {
    let dir = std::env::temp_dir().join(format!(
        "face_engine_reopen_after_checkpoint_{}_{policy}_{checkpoint}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Database::open(config(&dir, policy)).unwrap();
        for k in 0..KEYS {
            let txn = db.begin();
            db.put(txn, k, format!("value-{k}").as_bytes()).unwrap();
            db.commit(txn).unwrap();
        }
        if checkpoint {
            db.checkpoint().unwrap();
        }
    }
    let db = Database::open(config(&dir, policy)).unwrap();
    let lost = (0..KEYS)
        .filter(|&k| db.get(k).unwrap().as_deref() != Some(format!("value-{k}").as_bytes()))
        .count() as u64;
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
    lost
}

#[test]
#[ignore = "ROADMAP item 3: a checkpoint flushes into a flash cache that dies with the process"]
fn every_committed_key_survives_drop_and_reopen() {
    let mut losses = Vec::new();
    for policy in [
        CachePolicyKind::None,
        CachePolicyKind::Face,
        CachePolicyKind::FaceGr,
        CachePolicyKind::FaceGsc,
        CachePolicyKind::S3Fifo,
    ] {
        for checkpoint in [false, true] {
            let lost = lost_keys(policy, checkpoint);
            if lost > 0 {
                losses.push(format!(
                    "{policy} checkpoint={checkpoint}: {lost} of {KEYS}"
                ));
            }
        }
    }
    assert!(losses.is_empty(), "keys lost on reopen: {losses:?}");
}
