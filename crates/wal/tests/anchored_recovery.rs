//! Restart analysis anchored at the last checkpoint must plan exactly what a
//! scan of the whole log plans.
//!
//! The property test builds seeded random logs the way the engine writes
//! them — interleaved transactions, runtime aborts with partial CLR chains,
//! checkpoints whose transaction table was read at an earlier instant than
//! the record was appended, checkpoints whose anchor write never happened,
//! torn tails — and compares [`build_recovery_plan`] on the log with its
//! restart anchor against the same bytes with no anchor at all. The other
//! tests pin the anchor's validation and the fallback to a scan from LSN 0.

use std::sync::Arc;

use face_pagestore::{Lsn, PageId};
use face_wal::{
    build_recovery_plan, ActiveTxn, AnalysisResult, CheckpointData, FileLogStorage,
    InMemoryLogStorage, LogRecord, LogStorage, RedoPlan, TxnId, UndoPlan, WalWriter,
};

/// SplitMix64: the log generator's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// One transaction as the generator tracks it.
struct Txn {
    id: u64,
    first_lsn: Lsn,
    /// `(lsn, prev_lsn)` of each update, oldest first.
    updates: Vec<(Lsn, Lsn)>,
    /// In the transaction table. `begin` appends the Begin before it lists
    /// the transaction, and a transaction logs nothing more until listed.
    listed: bool,
    /// `Some(n)`: aborting, with the oldest `n` updates still to compensate.
    rolling_back: Option<usize>,
}

/// What a checkpoint could have read at one instant between two appends.
struct Instant {
    lsn: Lsn,
    table: Vec<ActiveTxn>,
    next_txn: u64,
}

/// A full-scan reference: the same bytes on a storage that has no anchor.
fn without_anchor(storage: &Arc<dyn LogStorage>) -> Arc<dyn LogStorage> {
    let mut bytes = vec![0u8; storage.len().unwrap() as usize];
    assert_eq!(storage.read_at(0, &mut bytes).unwrap(), bytes.len());
    let copy = InMemoryLogStorage::new();
    copy.append(&bytes).unwrap();
    assert_eq!(copy.restart_anchor().unwrap(), None);
    Arc::new(copy)
}

type Plan = (AnalysisResult, RedoPlan, UndoPlan);

/// The anchored plan does the work of the full-scan plan.
fn assert_same_work(anchored: &Plan, full: &Plan, context: &str) {
    assert_eq!(anchored.0.losers, full.0.losers, "{context}: losers");
    assert_eq!(
        anchored.1.redo_start, full.1.redo_start,
        "{context}: redo start"
    );
    assert_eq!(anchored.1.updates, full.1.updates, "{context}: redo list");
    assert_eq!(anchored.1.pages, full.1.pages, "{context}: redo pages");
    assert_eq!(anchored.2.updates, full.2.updates, "{context}: undo list");
    assert!(
        anchored.0.max_txn_seen >= full.0.max_txn_seen,
        "{context}: id fence {} below the full scan's {}",
        anchored.0.max_txn_seen,
        full.0.max_txn_seen
    );
    assert_eq!(anchored.0.end_lsn, full.0.end_lsn, "{context}: log end");
}

/// Write one random log; returns the storage (anchor included).
fn random_log(seed: u64) -> Arc<dyn LogStorage> {
    let mut rng = Rng(seed);
    let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
    let w = WalWriter::new(Arc::clone(&storage)).unwrap();
    let mut txns: Vec<Txn> = Vec::new();
    let mut instants: Vec<Instant> = Vec::new();
    let mut next_txn = 1u64;
    let steps = 30 + rng.below(220);
    for _ in 0..steps {
        instants.push(Instant {
            lsn: w.next_lsn(),
            table: txns
                .iter()
                .filter(|t| t.listed)
                .map(|t| ActiveTxn {
                    txn: TxnId(t.id),
                    first_lsn: t.first_lsn,
                })
                .collect(),
            next_txn,
        });
        let pick = |rng: &mut Rng, txns: &[Txn], want: fn(&Txn) -> bool| {
            let matching: Vec<usize> = (0..txns.len()).filter(|&i| want(&txns[i])).collect();
            (!matching.is_empty()).then(|| matching[rng.below(matching.len())])
        };
        let live = |t: &Txn| t.listed && t.rolling_back.is_none();
        match rng.below(16) {
            0..=2 if txns.len() < 6 => {
                let id = next_txn;
                next_txn += 1;
                let first_lsn = w.append(&LogRecord::Begin { txn: TxnId(id) });
                txns.push(Txn {
                    id,
                    first_lsn,
                    updates: Vec::new(),
                    listed: rng.below(3) != 0,
                    rolling_back: None,
                });
            }
            3 => {
                if let Some(i) = pick(&mut rng, &txns, |t| !t.listed) {
                    txns[i].listed = true;
                }
            }
            4..=8 => {
                if let Some(i) = pick(&mut rng, &txns, live) {
                    let prev_lsn = txns[i].updates.last().map_or(Lsn::ZERO, |u| u.0);
                    let lsn = w.append(&LogRecord::Update {
                        txn: TxnId(txns[i].id),
                        page: PageId::new(1, rng.below(40) as u32),
                        offset: 8 * rng.below(16) as u32,
                        data: vec![rng.next() as u8; 8],
                        before: vec![rng.next() as u8; 8],
                        prev_lsn,
                    });
                    txns[i].updates.push((lsn, prev_lsn));
                }
            }
            9 | 10 => {
                if let Some(i) = pick(&mut rng, &txns, live) {
                    w.append(&LogRecord::Commit {
                        txn: TxnId(txns[i].id),
                    });
                    txns.swap_remove(i);
                }
            }
            11 => {
                if let Some(i) = pick(&mut rng, &txns, live) {
                    w.append(&LogRecord::Abort {
                        txn: TxnId(txns[i].id),
                    });
                    if txns[i].updates.is_empty() {
                        txns.swap_remove(i);
                    } else {
                        txns[i].rolling_back = Some(txns[i].updates.len());
                    }
                }
            }
            12 | 13 => {
                if let Some(i) = pick(&mut rng, &txns, |t| t.rolling_back.is_some()) {
                    let left = txns[i].rolling_back.expect("picked a rolling-back txn");
                    let (_, undo_next_lsn) = txns[i].updates[left - 1];
                    w.append(&LogRecord::Clr {
                        txn: TxnId(txns[i].id),
                        page: PageId::new(1, rng.below(40) as u32),
                        offset: 0,
                        data: vec![rng.next() as u8; 8],
                        undo_next_lsn,
                    });
                    if left == 1 {
                        // The rollback is complete (and durable with the next
                        // force): the transaction leaves the table.
                        txns.swap_remove(i);
                    } else {
                        txns[i].rolling_back = Some(left - 1);
                    }
                }
            }
            _ => {
                // A checkpoint whose table and fence were read at some
                // recent instant, and whose redo LSN was taken before that.
                let newest = instants.len() - 1;
                let read_at = newest - rng.below(newest.min(6) + 1);
                let redo_at = read_at - rng.below(read_at.min(6) + 1);
                let data = CheckpointData {
                    redo_lsn: instants[redo_at].lsn,
                    active_txns: instants[read_at].table.clone(),
                    next_txn: TxnId(instants[read_at].next_txn),
                };
                if rng.below(4) == 0 {
                    // Durable record, anchor write lost.
                    w.append(&LogRecord::Checkpoint(data));
                } else {
                    w.append_checkpoint(data).unwrap();
                }
            }
        }
    }
    w.force_all().unwrap();
    if rng.below(3) == 0 {
        // A crash tears the tail, sometimes below the anchored checkpoint.
        let len = storage.len().unwrap();
        storage
            .truncate(len - (rng.below(600) as u64).min(len))
            .unwrap();
    }
    storage
}

#[test]
fn anchored_plan_equals_full_scan_plan_over_random_logs() {
    let (mut anchored_scans, mut with_losers, mut skipped_records) = (0, 0, 0u64);
    for seed in 0..400u64 {
        let storage = random_log(seed);
        let full = build_recovery_plan(without_anchor(&storage)).unwrap();
        let anchored = build_recovery_plan(Arc::clone(&storage)).unwrap();
        assert_same_work(&anchored, &full, &format!("seed {seed}"));
        assert_eq!(full.0.scan_start, Lsn::ZERO);
        if anchored.0.scan_start > Lsn::ZERO {
            anchored_scans += 1;
            with_losers += usize::from(!anchored.0.losers.is_empty());
            skipped_records += full
                .0
                .records_scanned
                .saturating_sub(anchored.0.records_scanned);
        }
    }
    // The property is not vacuous: most logs really were read from a
    // checkpoint, many of those had undo work, and the anchor saved reads.
    assert!(anchored_scans > 200, "only {anchored_scans} anchored scans");
    assert!(
        with_losers > 100,
        "only {with_losers} anchored scans had losers"
    );
    assert!(skipped_records > 0);
}

// ---------------------------------------------------------------------------
// Anchor validation and the fallback to LSN 0
// ---------------------------------------------------------------------------

fn update(txn: u64, page: u32, prev_lsn: Lsn) -> LogRecord {
    LogRecord::Update {
        txn: TxnId(txn),
        page: PageId::new(0, page),
        offset: 0,
        data: vec![page as u8; 8],
        before: vec![0; 8],
        prev_lsn,
    }
}

fn clr(txn: u64, page: u32, undo_next_lsn: Lsn) -> LogRecord {
    LogRecord::Clr {
        txn: TxnId(txn),
        page: PageId::new(0, page),
        offset: 0,
        data: vec![0; 8],
        undo_next_lsn,
    }
}

/// A committed transaction, a loser, a checkpoint that lists the loser, and a
/// committed tail. Returns the storage, an update's LSN (a record boundary
/// that is not a checkpoint) and the checkpoint's LSN.
fn checkpointed_log() -> (Arc<dyn LogStorage>, Lsn, Lsn) {
    let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
    let w = WalWriter::new(Arc::clone(&storage)).unwrap();
    w.append(&LogRecord::Begin { txn: TxnId(1) });
    let an_update = w.append(&update(1, 1, Lsn::ZERO));
    w.append(&LogRecord::Commit { txn: TxnId(1) });
    let loser_begin = w.append(&LogRecord::Begin { txn: TxnId(2) });
    w.append(&update(2, 2, Lsn::ZERO));
    let ckpt = w
        .append_checkpoint(CheckpointData {
            redo_lsn: w.next_lsn(),
            active_txns: vec![ActiveTxn {
                txn: TxnId(2),
                first_lsn: loser_begin,
            }],
            next_txn: TxnId(3),
        })
        .unwrap();
    w.append(&LogRecord::Begin { txn: TxnId(3) });
    w.append(&update(3, 3, Lsn::ZERO));
    w.append(&LogRecord::Commit { txn: TxnId(3) });
    w.force_all().unwrap();
    (storage, an_update, ckpt)
}

#[test]
fn a_valid_anchor_skips_the_history_below_the_checkpoint() {
    let (storage, _, ckpt) = checkpointed_log();
    assert_eq!(storage.restart_anchor().unwrap(), Some(ckpt));
    let full = build_recovery_plan(without_anchor(&storage)).unwrap();
    let anchored = build_recovery_plan(Arc::clone(&storage)).unwrap();
    assert_same_work(&anchored, &full, "valid anchor");
    // The scan started at the listed loser's Begin, not at the committed
    // transaction before it.
    assert!(anchored.0.scan_start > Lsn::ZERO);
    assert_eq!(anchored.0.checkpoint_lsn, Some(ckpt));
    assert!(!anchored.0.committed.contains(&TxnId(1)));
    assert!(full.0.committed.contains(&TxnId(1)));
    assert_eq!(anchored.2.updates.len(), 1);
    assert_eq!(anchored.0.max_txn_seen, TxnId(3));
}

#[test]
fn a_file_log_honours_its_sidecar_anchor_after_reopen() {
    let path = std::env::temp_dir().join(format!("face_wal_anchored_{}.log", std::process::id()));
    let sidecar = path.with_extension("log.anchor");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&sidecar);
    let (ckpt, end) = {
        let storage: Arc<dyn LogStorage> = Arc::new(FileLogStorage::open(&path).unwrap());
        let w = WalWriter::new(Arc::clone(&storage)).unwrap();
        for t in 1..=20u64 {
            w.append(&LogRecord::Begin { txn: TxnId(t) });
            w.append(&update(t, t as u32, Lsn::ZERO));
            w.append(&LogRecord::Commit { txn: TxnId(t) });
        }
        let ckpt = w
            .append_checkpoint(CheckpointData {
                redo_lsn: w.next_lsn(),
                active_txns: vec![],
                next_txn: TxnId(21),
            })
            .unwrap();
        w.append(&LogRecord::Begin { txn: TxnId(21) });
        w.append(&update(21, 21, Lsn::ZERO));
        w.append(&LogRecord::Commit { txn: TxnId(21) });
        w.force_all().unwrap();
        (ckpt, w.next_lsn())
    };
    // A new process: nothing but the two files.
    let storage: Arc<dyn LogStorage> = Arc::new(FileLogStorage::open(&path).unwrap());
    assert_eq!(storage.restart_anchor().unwrap(), Some(ckpt));
    let (analysis, redo, undo) = build_recovery_plan(Arc::clone(&storage)).unwrap();
    assert_eq!(analysis.scan_start, ckpt);
    assert_eq!(analysis.end_lsn, end);
    // Probe, then checkpoint + three records in each of the two passes: the
    // sixty records of history were never read.
    assert_eq!(analysis.records_scanned, 1 + 4 + 4);
    assert_eq!(analysis.max_txn_seen, TxnId(21));
    assert_eq!(redo.len(), 1);
    assert!(undo.is_empty());
    // A torn sidecar costs a full scan and nothing else.
    std::fs::write(&sidecar, b"torn").unwrap();
    let (full, full_redo, _) = build_recovery_plan(storage).unwrap();
    assert_eq!(full.scan_start, Lsn::ZERO);
    assert_eq!(full.records_scanned, 64 + 4);
    assert_eq!(full_redo.updates, redo.updates);
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&sidecar).unwrap();
}

#[test]
fn an_anchor_that_does_not_hold_up_gives_the_full_scan() {
    let (storage, an_update, ckpt) = checkpointed_log();
    let full = build_recovery_plan(without_anchor(&storage)).unwrap();
    let assert_full = |storage: &Arc<dyn LogStorage>, what: &str| {
        let plan = build_recovery_plan(Arc::clone(storage)).unwrap();
        assert_eq!(plan.0.scan_start, Lsn::ZERO, "{what}");
        assert_same_work(&plan, &full, what);
        assert_eq!(plan.0.committed, full.0.committed, "{what}");
    };

    // No anchor at all.
    assert_full(&without_anchor(&storage), "no anchor");
    // A record boundary, but not a checkpoint record.
    storage.set_restart_anchor(an_update).unwrap();
    assert_full(&storage, "anchor at an update");
    // Not a record boundary: the frame there fails its CRC or its length.
    storage.set_restart_anchor(Lsn(ckpt.0 + 3)).unwrap();
    assert_full(&storage, "anchor inside a record");
    // Beyond the end of the log.
    storage
        .set_restart_anchor(Lsn(storage.len().unwrap() + 64))
        .unwrap();
    assert_full(&storage, "anchor beyond the log");

    // A tail truncated below the anchored checkpoint: the reference is the
    // full scan of the same shorter log.
    storage.set_restart_anchor(ckpt).unwrap();
    storage.truncate(ckpt.0 + 5).unwrap();
    let short = build_recovery_plan(without_anchor(&storage)).unwrap();
    let plan = build_recovery_plan(Arc::clone(&storage)).unwrap();
    assert_eq!(plan.0.scan_start, Lsn::ZERO);
    assert_same_work(&plan, &short, "anchor beyond a truncated tail");
    assert!(plan.0.last_checkpoint.is_none());
}

#[test]
fn a_checkpoint_that_claims_to_start_after_itself_is_not_an_anchor() {
    let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
    let w = WalWriter::new(Arc::clone(&storage)).unwrap();
    w.append(&LogRecord::Begin { txn: TxnId(1) });
    w.append(&update(1, 1, Lsn::ZERO));
    w.append(&LogRecord::Commit { txn: TxnId(1) });
    w.append_checkpoint(CheckpointData {
        redo_lsn: Lsn(w.next_lsn().0 + 1_000),
        active_txns: vec![],
        next_txn: TxnId(2),
    })
    .unwrap();
    let plan = build_recovery_plan(storage).unwrap();
    assert_eq!(plan.0.scan_start, Lsn::ZERO);
    assert!(plan.0.committed.contains(&TxnId(1)));
}

#[test]
fn a_chain_pointing_below_the_scan_start_triggers_the_full_scan() {
    // The table a checkpoint would have written had `abort` dropped the
    // transaction before rolling it back: three updates, an abort, one CLR
    // below the redo LSN, one above it, and an empty table. The CLR above
    // points at an update the anchored scan never read.
    let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
    let w = WalWriter::new(Arc::clone(&storage)).unwrap();
    w.append(&LogRecord::Begin { txn: TxnId(1) });
    let u1 = w.append(&update(1, 1, Lsn::ZERO));
    let u2 = w.append(&update(1, 2, u1));
    let u3 = w.append(&update(1, 3, u2));
    w.append(&LogRecord::Abort { txn: TxnId(1) });
    w.append(&clr(1, 3, u2));
    let redo_lsn = w.next_lsn();
    w.append(&clr(1, 2, u1));
    w.append_checkpoint(CheckpointData {
        redo_lsn,
        active_txns: vec![],
        next_txn: TxnId(2),
    })
    .unwrap();
    let _ = u3;

    let full = build_recovery_plan(without_anchor(&storage)).unwrap();
    let plan = build_recovery_plan(Arc::clone(&storage)).unwrap();
    assert_eq!(plan.0.scan_start, Lsn::ZERO, "the anchored scan was kept");
    assert_same_work(&plan, &full, "non-conservative table");
    assert_eq!(plan.0.losers.get(&TxnId(1)), Some(&u1));
    assert_eq!(plan.2.updates.len(), 1);
    assert_eq!(plan.2.updates[0].lsn, u1);
    // Both scans were paid for, and counted.
    assert!(plan.0.records_scanned > full.0.records_scanned);
}

#[test]
fn a_checkpoint_taken_mid_rollback_that_lists_the_transaction_finishes_it() {
    // Begin, three updates, Abort, two of three CLRs, then a checkpoint whose
    // redo LSN lies above all of it and whose table still lists the
    // transaction — what `abort` guarantees by keeping the transaction
    // listed until its rollback is durable. Then the crash.
    let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
    let w = WalWriter::new(Arc::clone(&storage)).unwrap();
    w.append(&LogRecord::Begin { txn: TxnId(9) });
    w.append(&LogRecord::Commit { txn: TxnId(9) });
    let begin = w.append(&LogRecord::Begin { txn: TxnId(10) });
    let u1 = w.append(&update(10, 1, Lsn::ZERO));
    let u2 = w.append(&update(10, 2, u1));
    let u3 = w.append(&update(10, 3, u2));
    w.append(&LogRecord::Abort { txn: TxnId(10) });
    w.append(&clr(10, 3, u2));
    w.append(&clr(10, 2, u1));
    let _ = u3;
    let redo_lsn = w.next_lsn();
    w.append_checkpoint(CheckpointData {
        redo_lsn,
        active_txns: vec![ActiveTxn {
            txn: TxnId(10),
            first_lsn: begin,
        }],
        next_txn: TxnId(11),
    })
    .unwrap();

    let full = build_recovery_plan(without_anchor(&storage)).unwrap();
    let plan = build_recovery_plan(Arc::clone(&storage)).unwrap();
    assert_eq!(plan.0.scan_start, begin, "anchored at the listed Begin");
    assert_same_work(&plan, &full, "mid-rollback checkpoint");
    // Undo resumes at the one update the runtime rollback had not reached;
    // the two CLRs lie below the redo LSN, their pages were flushed.
    assert_eq!(plan.0.losers.get(&TxnId(10)), Some(&u1));
    assert_eq!(plan.2.updates.len(), 1);
    assert_eq!(plan.2.updates[0].lsn, u1);
    assert_eq!(plan.2.updates[0].undo_next_lsn, Lsn::ZERO);
    assert!(plan.1.updates.is_empty());
}
