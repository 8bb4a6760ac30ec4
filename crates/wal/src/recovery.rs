//! Restart analysis, redo and undo planning.
//!
//! Recovery is ARIES-complete: **analysis** reads the log from the last
//! durable checkpoint to find the committed transactions and the losers
//! (not committed, with a non-empty undo chain); **redo** repeats history
//! — committed updates *and every CLR* at or after the checkpoint's redo LSN
//! — applying each after-image when the pageLSN is older (pages are fetched
//! from the flash cache if present: FaCE's restart advantage); **undo**
//! rolls losers back in descending-LSN order, writing a compensation log
//! record ([`crate::LogRecord::Clr`]) for every reverted update.
//!
//! ## Where the scan starts, and why that is enough
//!
//! A checkpoint record carries the redo LSN, the transaction table (each
//! listed transaction with the LSN of its first record) and the
//! transaction-id fence, and [`crate::WalWriter::append_checkpoint`] stores
//! the record's LSN as the log storage's *restart anchor* once the record is
//! durable. [`analyze`] reads the anchor, checks that the record there
//! frames, decodes as a checkpoint and does not claim to start after itself,
//! and scans from [`CheckpointData::scan_start`] — the earlier of the redo
//! LSN and the oldest listed transaction's first record — to the end of the
//! log. Restart cost therefore follows the work since the last checkpoint,
//! not the length of the history.
//!
//! Nothing below that point can matter:
//!
//! * **Redo** only ever repeats records at or after the last checkpoint's
//!   redo LSN, and the scan starts at or below it.
//! * **Undo** needs every update of every loser. The table is conservative:
//!   a transaction is listed from its `Begin` until its `Commit` is appended
//!   or its rollback is durable. A loser was therefore either listed — and
//!   the scan starts at or below its first record — or absent, in which case
//!   it logged its first update after the table was read, above the redo
//!   LSN. Only its `Begin` can lie below the scan start, so the scan
//!   classifies a transaction by the records it sees and never requires its
//!   `Begin`.
//! * **The id fence** covers every id that only appears below the scan start.
//!
//! As a safety net, a loser whose undo chain (`prev_lsn` / `undo_next_lsn`)
//! points below the scan start means the table was *not* conservative; the
//! same scan then runs again from LSN 0. That is also what happens when
//! there is no anchor, or the anchor is torn, or it names an LSN that is not
//! (or is no longer) a durable checkpoint record: the full scan is the
//! anchored scan started at LSN 0 with nothing known, not a second
//! implementation.
//!
//! ## Idempotence
//!
//! Idempotence across repeated crashes falls out of two facts. CLRs append
//! in increasing LSN while compensating in decreasing target LSN, and log
//! durability is always a prefix — so the durable CLRs of a transaction are
//! exactly a prefix of its rollback, and the analysis pass can resume each
//! loser at the `undo_next_lsn` of its latest durable CLR. Work already
//! compensated is counted ([`UndoPlan::already_compensated`]) but never
//! redone as undo; its page effects are repaired by redo repeating the CLRs
//! themselves.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use face_pagestore::{Lsn, PageId};

use crate::reader::{LogReader, LoggedRecord};
use crate::record::{CheckpointData, LogRecord, TxnId};
use crate::storage::{LogStorage, WalError};
use crate::WalResult;

/// One record that must be re-applied during restart redo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedoUpdate {
    /// LSN of the record.
    pub lsn: Lsn,
    /// The transaction that made the update (committed, or — for CLRs —
    /// a loser whose rollback is being repeated).
    pub txn: TxnId,
    /// The page to which the update applies.
    pub page: PageId,
    /// Byte offset within the page body.
    pub offset: u32,
    /// After-image bytes (for a CLR: the compensated update's before-image).
    pub data: Vec<u8>,
    /// Before-image of the same range: what the page must hold there when
    /// its pageLSN says the record is not applied yet. Empty for a CLR,
    /// whose record carries no before-image.
    pub before: Vec<u8>,
    /// Whether this redo item repeats a compensation record. CLRs are
    /// redo-only: repeating them repairs persisted loser pages without
    /// re-running undo.
    pub clr: bool,
}

/// One loser update that restart undo must revert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndoUpdate {
    /// LSN of the update record being undone.
    pub lsn: Lsn,
    /// The loser transaction.
    pub txn: TxnId,
    /// The page the update touched.
    pub page: PageId,
    /// Byte offset within the page body.
    pub offset: u32,
    /// Before-image bytes to restore.
    pub before: Vec<u8>,
    /// The transaction's next record to undo after this one (the update's
    /// `prev_lsn`; [`Lsn::ZERO`] when this is the oldest). Written into the
    /// CLR so a crash mid-undo resumes exactly here.
    pub undo_next_lsn: Lsn,
}

/// What the analysis pass learned from the log at and above
/// [`AnalysisResult::scan_start`].
#[derive(Debug, Clone, Default)]
pub struct AnalysisResult {
    /// Where the scan began: [`CheckpointData::scan_start`] of the anchored
    /// checkpoint, or [`Lsn::ZERO`] without a usable anchor (see the module
    /// docs).
    pub scan_start: Lsn,
    /// The most recent checkpoint found, if any.
    pub last_checkpoint: Option<CheckpointData>,
    /// LSN of that checkpoint record.
    pub checkpoint_lsn: Option<Lsn>,
    /// Transactions whose `Commit` lies at or above the scan start. A
    /// transaction that committed below it has no record the plan can need.
    pub committed: HashSet<TxnId>,
    /// Transactions with a record at or above the scan start and neither a
    /// `Commit` nor an `Abort`.
    pub in_flight: HashSet<TxnId>,
    /// Losers: transactions that must be (further) rolled back, mapped to
    /// the LSN of their next record to undo. Covers in-flight transactions
    /// and aborted ones whose runtime rollback did not finish; transactions
    /// whose CLR chain already reached [`Lsn::ZERO`] are fully compensated
    /// and excluded.
    pub losers: BTreeMap<TxnId, Lsn>,
    /// Records decoded so far: the anchor probe and the analysis scan (both
    /// scans, when the anchored one had to be repeated from LSN 0).
    /// [`build_recovery_plan`] adds its plan pass.
    pub records_scanned: u64,
    /// End of the log at the time of analysis.
    pub end_lsn: Lsn,
    /// A fence for the transaction-id allocator: at least the highest id
    /// mentioned by **any** record in the log — the ids the scan saw, and
    /// the anchored checkpoint's `next_txn` for everything below it. That is
    /// a superset of `committed` ∪ `in_flight` ∪ `losers`, because a fully
    /// rolled-back aborted transaction is in none of those sets. Reopen
    /// seeds its id allocator past this value: reusing a durable id would
    /// let a later crash stitch the old incarnation's already-compensated
    /// updates into the new transaction's undo chain.
    pub max_txn_seen: TxnId,
    /// Where a log scan that must see every loser record can safely start:
    /// the earliest record of any loser at or above the scan start (`None`
    /// when there are no losers). A loser has no update below it.
    pub undo_scan_start: Option<Lsn>,
}

/// The redo work restart must perform, in log order.
#[derive(Debug, Clone, Default)]
pub struct RedoPlan {
    /// Records to re-apply (committed updates and CLRs), ordered by LSN.
    pub updates: Vec<RedoUpdate>,
    /// The LSN redo scanning started from.
    pub redo_start: Lsn,
    /// Distinct pages touched by the plan.
    pub pages: Vec<PageId>,
}

impl RedoPlan {
    /// Number of updates in the plan.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Whether there is nothing to redo.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }
}

/// The undo work restart must perform.
#[derive(Debug, Clone, Default)]
pub struct UndoPlan {
    /// Loser updates to revert, in descending LSN order (newest first),
    /// interleaved across transactions exactly as single-pass ARIES undo
    /// would visit them.
    pub updates: Vec<UndoUpdate>,
    /// Loser updates that already have a durable CLR from a previous
    /// (crashed) rollback and are therefore skipped; redo repeats their
    /// CLRs instead. Counted over the records the plan scan decodes (the
    /// scan starts at the earlier of the redo point and the oldest loser's
    /// Begin), so compensated work before that point is never re-read and
    /// does not appear here.
    pub already_compensated: u64,
}

impl UndoPlan {
    /// Number of updates to undo.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Whether there is nothing to undo.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }
}

/// What one scan learned about one transaction.
#[derive(Default)]
struct TxnTrace {
    /// LSN of the first record seen.
    first_lsn: Lsn,
    committed: bool,
    /// A `Commit` or an `Abort` was seen.
    ended: bool,
    /// The next record needing undo: an Update sets it to its own LSN, a CLR
    /// rewinds it to its `undo_next_lsn` (everything newer is already
    /// compensated). [`Lsn::ZERO`] when there is nothing (left) to undo.
    undo_next: Lsn,
    /// A chain pointer (`prev_lsn` / `undo_next_lsn`) named a record below
    /// the scan start.
    reaches_below_start: bool,
}

/// The checkpoint the storage's restart anchor names, if the anchor holds up:
/// the record there must frame-check, lie wholly inside the log, decode as a
/// checkpoint, and start its scan at or below itself.
fn anchored_checkpoint(
    storage: &Arc<dyn LogStorage>,
    decoded: &mut u64,
) -> WalResult<Option<CheckpointData>> {
    let Some(anchor) = storage.restart_anchor()? else {
        return Ok(None);
    };
    match LogReader::record_at(Arc::clone(storage), anchor) {
        Ok(Some(LoggedRecord {
            record: LogRecord::Checkpoint(data),
            ..
        })) => {
            *decoded += 1;
            Ok((data.scan_start() <= anchor).then_some(data))
        }
        // Off a record boundary, beyond a truncated tail, or not a
        // checkpoint: stale, not fatal.
        Ok(_) | Err(WalError::Corrupt { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Classify transactions from the records at and above `start`, given that
/// every id below `next_txn` may be in use below it. Returns the result and
/// whether it is complete: `false` when a loser's undo chain points below
/// `start`, which a scan from [`Lsn::ZERO`] never reports.
fn scan(
    storage: &Arc<dyn LogStorage>,
    start: Lsn,
    next_txn: TxnId,
    decoded: &mut u64,
) -> WalResult<(AnalysisResult, bool)> {
    let mut reader = LogReader::from_lsn(Arc::clone(storage), start);
    let mut result = AnalysisResult {
        scan_start: start,
        ..AnalysisResult::default()
    };
    let mut seen: HashMap<TxnId, TxnTrace> = HashMap::new();
    let mut fence = next_txn;
    let below_start = |ptr: Lsn| ptr != Lsn::ZERO && ptr < start;
    while let Some(rec) = reader.next_record()? {
        *decoded += 1;
        let Some(txn) = rec.record.txn() else {
            if let LogRecord::Checkpoint(data) = rec.record {
                fence = fence.max(data.next_txn);
                result.last_checkpoint = Some(data);
                result.checkpoint_lsn = Some(rec.lsn);
            }
            continue;
        };
        fence = fence.max(TxnId(txn.0.saturating_add(1)));
        let trace = seen.entry(txn).or_insert_with(|| TxnTrace {
            first_lsn: rec.lsn,
            ..TxnTrace::default()
        });
        match rec.record {
            LogRecord::Commit { .. } => {
                trace.committed = true;
                trace.ended = true;
            }
            // Rollback began, but the transaction stays a loser until its
            // CLR chain reaches Lsn::ZERO.
            LogRecord::Abort { .. } => trace.ended = true,
            LogRecord::Update { prev_lsn, .. } => {
                trace.undo_next = rec.lsn;
                trace.reaches_below_start |= below_start(prev_lsn);
            }
            LogRecord::Clr { undo_next_lsn, .. } => {
                trace.undo_next = undo_next_lsn;
                trace.reaches_below_start |= below_start(undo_next_lsn);
            }
            LogRecord::Begin { .. } | LogRecord::Checkpoint(_) => {}
        }
    }
    result.end_lsn = reader.position();
    result.max_txn_seen = TxnId(fence.0.saturating_sub(1));
    let mut complete = true;
    for (txn, trace) in seen {
        if trace.committed {
            result.committed.insert(txn);
            continue;
        }
        if !trace.ended {
            result.in_flight.insert(txn);
        }
        if trace.undo_next != Lsn::ZERO {
            result.losers.insert(txn, trace.undo_next);
            complete &= !trace.reaches_below_start;
            result.undo_scan_start = Some(
                result
                    .undo_scan_start
                    .map_or(trace.first_lsn, |s| s.min(trace.first_lsn)),
            );
        }
    }
    Ok((result, complete))
}

/// The analysis pass: classify transactions from the last durable
/// checkpoint's scan start, or from [`Lsn::ZERO`] when the storage holds no
/// usable restart anchor or the anchored scan turned out incomplete (module
/// docs).
pub fn analyze(storage: Arc<dyn LogStorage>) -> WalResult<AnalysisResult> {
    let mut decoded = 0;
    let anchored = anchored_checkpoint(&storage, &mut decoded)?;
    let origins = anchored
        .iter()
        .map(|ckpt| (ckpt.scan_start(), ckpt.next_txn))
        .chain([(Lsn::ZERO, TxnId(0))]);
    for (start, next_txn) in origins {
        let (mut result, complete) = scan(&storage, start, next_txn, &mut decoded)?;
        if complete {
            result.records_scanned = decoded;
            return Ok(result);
        }
    }
    unreachable!("no undo chain points below LSN 0")
}

/// Build the full recovery plan: analysis, then a second scan producing the
/// redo plan (committed updates and all CLRs at or after the checkpoint's
/// redo LSN) and the undo plan (loser updates at or before each loser's
/// resume point, newest first).
pub fn build_recovery_plan(
    storage: Arc<dyn LogStorage>,
) -> WalResult<(AnalysisResult, RedoPlan, UndoPlan)> {
    let mut analysis = analyze(Arc::clone(&storage))?;
    let redo_start = analysis
        .last_checkpoint
        .as_ref()
        .map(|c| c.redo_lsn)
        .unwrap_or(Lsn::ZERO);

    // Loser updates may predate the checkpoint, so the second pass starts at
    // the earlier of the redo point and the oldest loser's first record —
    // with no losers it degenerates to redo_start.
    let scan_start = analysis
        .undo_scan_start
        .map_or(redo_start, |l| l.min(redo_start));
    let mut reader = LogReader::from_lsn(storage, scan_start);
    let mut redo_updates = Vec::new();
    let mut pages: BTreeMap<PageId, ()> = BTreeMap::new();
    let mut undo_updates = Vec::new();
    let mut already_compensated = 0u64;
    while let Some(rec) = reader.next_record()? {
        analysis.records_scanned += 1;
        match rec.record {
            LogRecord::Update {
                txn,
                page,
                offset,
                data,
                before,
                prev_lsn,
            } => {
                if analysis.committed.contains(&txn) {
                    if rec.lsn >= redo_start {
                        pages.insert(page, ());
                        redo_updates.push(RedoUpdate {
                            lsn: rec.lsn,
                            txn,
                            page,
                            offset,
                            data,
                            before,
                            clr: false,
                        });
                    }
                } else if let Some(resume) = analysis.losers.get(&txn) {
                    if rec.lsn <= *resume {
                        undo_updates.push(UndoUpdate {
                            lsn: rec.lsn,
                            txn,
                            page,
                            offset,
                            before,
                            undo_next_lsn: prev_lsn,
                        });
                    } else {
                        already_compensated += 1;
                    }
                } else {
                    // Fully compensated (or never-started garbage): redo of
                    // its CLRs is all that is needed.
                    already_compensated += 1;
                }
            }
            // Repeat history: every CLR at or after the redo start is redone
            // so persisted loser pages are repaired even when the
            // compensation itself never reached a device before the crash.
            LogRecord::Clr {
                txn,
                page,
                offset,
                data,
                ..
            } if rec.lsn >= redo_start => {
                pages.insert(page, ());
                redo_updates.push(RedoUpdate {
                    lsn: rec.lsn,
                    txn,
                    page,
                    offset,
                    data,
                    before: Vec::new(),
                    clr: true,
                });
            }
            _ => {}
        }
    }
    // The forward scan collected loser updates in ascending LSN order;
    // single-pass ARIES undo visits them newest first across transactions.
    undo_updates.reverse();
    let redo = RedoPlan {
        updates: redo_updates,
        redo_start,
        pages: pages.into_keys().collect(),
    };
    let undo = UndoPlan {
        updates: undo_updates,
        already_compensated,
    };
    Ok((analysis, redo, undo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ActiveTxn, LogRecord};
    use crate::storage::InMemoryLogStorage;
    use crate::writer::WalWriter;

    fn storage_with<F: FnOnce(&WalWriter)>(f: F) -> Arc<dyn LogStorage> {
        let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
        let w = WalWriter::new(Arc::clone(&storage)).unwrap();
        f(&w);
        w.force_all().unwrap();
        storage
    }

    fn update(txn: u64, page: u32, val: u8) -> LogRecord {
        update_chained(txn, page, val, Lsn::ZERO)
    }

    fn ckpt(redo_lsn: Lsn, table: &[(u64, Lsn)], next_txn: u64) -> CheckpointData {
        CheckpointData {
            redo_lsn,
            active_txns: table
                .iter()
                .map(|&(txn, first_lsn)| ActiveTxn {
                    txn: TxnId(txn),
                    first_lsn,
                })
                .collect(),
            next_txn: TxnId(next_txn),
        }
    }

    fn update_chained(txn: u64, page: u32, val: u8, prev_lsn: Lsn) -> LogRecord {
        LogRecord::Update {
            txn: TxnId(txn),
            page: PageId::new(0, page),
            offset: 0,
            data: vec![val; 8],
            before: vec![val.wrapping_sub(1); 8],
            prev_lsn,
        }
    }

    #[test]
    fn analysis_classifies_transactions() {
        let storage = storage_with(|w| {
            w.append(&LogRecord::Begin { txn: TxnId(1) });
            w.append(&update(1, 1, 1));
            w.append(&LogRecord::Commit { txn: TxnId(1) });
            w.append(&LogRecord::Begin { txn: TxnId(2) });
            w.append(&update(2, 2, 2));
            w.append(&LogRecord::Abort { txn: TxnId(2) });
            w.append(&LogRecord::Begin { txn: TxnId(3) });
            w.append(&update(3, 3, 3));
            // Txn 3 never finishes: in-flight at crash.
        });
        let a = analyze(storage).unwrap();
        assert!(a.committed.contains(&TxnId(1)));
        assert!(!a.committed.contains(&TxnId(2)));
        assert!(a.in_flight.contains(&TxnId(3)));
        assert_eq!(a.records_scanned, 8);
        assert!(a.last_checkpoint.is_none());
        // Both the aborted txn (no CLRs yet) and the in-flight txn are
        // losers; the committed one is not.
        assert!(a.losers.contains_key(&TxnId(2)));
        assert!(a.losers.contains_key(&TxnId(3)));
        assert!(!a.losers.contains_key(&TxnId(1)));
    }

    #[test]
    fn redo_plan_contains_only_committed_updates() {
        let storage = storage_with(|w| {
            w.append(&LogRecord::Begin { txn: TxnId(1) });
            w.append(&update(1, 1, 0xAA));
            w.append(&LogRecord::Commit { txn: TxnId(1) });
            w.append(&LogRecord::Begin { txn: TxnId(2) });
            w.append(&update(2, 2, 0xBB));
            // Txn 2 in-flight: must not be redone.
        });
        let (_, plan, _) = build_recovery_plan(storage).unwrap();
        assert_eq!(plan.len(), 1);
        assert!(!plan.is_empty());
        assert_eq!(plan.updates[0].page, PageId::new(0, 1));
        assert_eq!(plan.updates[0].txn, TxnId(1));
        assert!(!plan.updates[0].clr);
        assert_eq!(plan.redo_start, Lsn::ZERO);
        assert_eq!(plan.pages, vec![PageId::new(0, 1)]);
    }

    #[test]
    fn redo_starts_at_checkpoint_redo_lsn() {
        let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
        let w = WalWriter::new(Arc::clone(&storage)).unwrap();
        w.append(&LogRecord::Begin { txn: TxnId(1) });
        w.append(&update(1, 1, 1));
        w.append(&LogRecord::Commit { txn: TxnId(1) });
        // Checkpoint whose redo_lsn points past everything so far.
        let ckpt_redo = w.next_lsn();
        w.append_checkpoint(ckpt(ckpt_redo, &[], 2)).unwrap();
        w.append(&LogRecord::Begin { txn: TxnId(2) });
        w.append(&update(2, 5, 2));
        w.append(&LogRecord::Commit { txn: TxnId(2) });
        w.force_all().unwrap();

        let (analysis, plan, _) = build_recovery_plan(storage).unwrap();
        assert!(analysis.last_checkpoint.is_some());
        // Anchored: the three records below the checkpoint were never read,
        // the checkpoint was probed and scanned, the tail was read twice.
        assert_eq!(analysis.scan_start, ckpt_redo);
        assert_eq!(analysis.records_scanned, 1 + 4 + 4);
        assert_eq!(analysis.max_txn_seen, TxnId(2));
        assert_eq!(plan.redo_start, ckpt_redo);
        // Only txn 2's update is at/after the redo point.
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.updates[0].page, PageId::new(0, 5));
    }

    #[test]
    fn later_checkpoint_wins() {
        let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
        let w = WalWriter::new(Arc::clone(&storage)).unwrap();
        w.append_checkpoint(ckpt(Lsn(0), &[], 10)).unwrap();
        let second_redo = w.next_lsn();
        // The second checkpoint is durable but its anchor write never
        // happened: the scan anchored at the first still finds it.
        w.append(&LogRecord::Checkpoint(ckpt(second_redo, &[], 10)));
        w.force_all().unwrap();
        let a = analyze(storage).unwrap();
        assert_eq!(a.last_checkpoint.unwrap().redo_lsn, second_redo);
        // The fence outlives the transactions that set it.
        assert_eq!(a.max_txn_seen, TxnId(9));
    }

    #[test]
    fn empty_log_analyzes_cleanly() {
        let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
        let (a, redo, undo) = build_recovery_plan(storage).unwrap();
        assert_eq!(a.records_scanned, 0);
        assert!(redo.is_empty());
        assert!(undo.is_empty());
        assert!(a.losers.is_empty());
    }

    #[test]
    fn updates_ordered_by_lsn_and_pages_deduped() {
        let storage = storage_with(|w| {
            w.append(&LogRecord::Begin { txn: TxnId(1) });
            w.append(&update(1, 7, 1));
            w.append(&update(1, 7, 2));
            w.append(&update(1, 3, 3));
            w.append(&LogRecord::Commit { txn: TxnId(1) });
        });
        let (_, plan, _) = build_recovery_plan(storage).unwrap();
        assert_eq!(plan.len(), 3);
        assert!(plan.updates.windows(2).all(|w| w[0].lsn < w[1].lsn));
        assert_eq!(plan.pages.len(), 2);
    }

    #[test]
    fn undo_plan_walks_losers_newest_first_with_chain_pointers() {
        let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
        let w = WalWriter::new(Arc::clone(&storage)).unwrap();
        w.append(&LogRecord::Begin { txn: TxnId(1) });
        let l1 = w.append(&update(1, 1, 1));
        let l2 = w.append(&update_chained(1, 2, 2, l1));
        w.append(&LogRecord::Begin { txn: TxnId(2) });
        let l3 = w.append(&update(2, 3, 3));
        w.force_all().unwrap();

        let (a, _, undo) = build_recovery_plan(storage).unwrap();
        assert_eq!(a.losers.get(&TxnId(1)), Some(&l2));
        assert_eq!(a.losers.get(&TxnId(2)), Some(&l3));
        assert_eq!(undo.len(), 3);
        assert_eq!(undo.already_compensated, 0);
        // Newest first, across transactions.
        assert!(undo.updates.windows(2).all(|w| w[0].lsn > w[1].lsn));
        let first = &undo.updates[0];
        assert_eq!(first.lsn, l3);
        assert_eq!(first.undo_next_lsn, Lsn::ZERO);
        let second = &undo.updates[1];
        assert_eq!(second.lsn, l2);
        assert_eq!(second.undo_next_lsn, l1);
        assert_eq!(second.before, vec![1u8; 8]);
    }

    #[test]
    fn durable_clr_resumes_undo_and_skips_compensated_work() {
        let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
        let w = WalWriter::new(Arc::clone(&storage)).unwrap();
        w.append(&LogRecord::Begin { txn: TxnId(1) });
        let l1 = w.append(&update(1, 1, 1));
        let l2 = w.append(&update_chained(1, 2, 2, l1));
        w.append(&LogRecord::Abort { txn: TxnId(1) });
        // Rollback compensated the newest update, then crashed.
        w.append(&LogRecord::Clr {
            txn: TxnId(1),
            page: PageId::new(0, 2),
            offset: 0,
            data: vec![1; 8],
            undo_next_lsn: l1,
        });
        w.force_all().unwrap();

        let (a, redo, undo) = build_recovery_plan(storage).unwrap();
        // Resume point is the CLR's undo_next_lsn, not the newest update.
        assert_eq!(a.losers.get(&TxnId(1)), Some(&l1));
        assert_eq!(undo.len(), 1);
        assert_eq!(undo.updates[0].lsn, l1);
        assert_eq!(undo.already_compensated, 1);
        let _ = l2;
        // The CLR is repeated by redo.
        assert_eq!(redo.len(), 1);
        assert!(redo.updates[0].clr);
        assert_eq!(redo.updates[0].data, vec![1u8; 8]);
    }

    #[test]
    fn fully_compensated_txn_is_not_a_loser() {
        let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
        let w = WalWriter::new(Arc::clone(&storage)).unwrap();
        w.append(&LogRecord::Begin { txn: TxnId(1) });
        let l1 = w.append(&update(1, 1, 5));
        w.append(&LogRecord::Abort { txn: TxnId(1) });
        w.append(&LogRecord::Clr {
            txn: TxnId(1),
            page: PageId::new(0, 1),
            offset: 0,
            data: vec![4; 8],
            undo_next_lsn: Lsn::ZERO,
        });
        w.force_all().unwrap();

        let (a, redo, undo) = build_recovery_plan(storage).unwrap();
        assert!(a.losers.is_empty());
        assert!(undo.is_empty());
        assert_eq!(undo.already_compensated, 1);
        let _ = l1;
        // History is still repeated: the CLR is in the redo plan.
        assert_eq!(redo.len(), 1);
        assert!(redo.updates[0].clr);
    }

    #[test]
    fn max_txn_seen_covers_fully_compensated_txns() {
        // Txn 7 aborted and fully rolled back: it lands in none of
        // committed / in_flight / losers, yet its id must still fence the
        // allocator after reopen — reuse would poison the next
        // incarnation's undo chain.
        let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
        let w = WalWriter::new(Arc::clone(&storage)).unwrap();
        w.append(&LogRecord::Begin { txn: TxnId(7) });
        w.append(&update(7, 1, 3));
        w.append(&LogRecord::Abort { txn: TxnId(7) });
        w.append(&LogRecord::Clr {
            txn: TxnId(7),
            page: PageId::new(0, 1),
            offset: 0,
            data: vec![2; 8],
            undo_next_lsn: Lsn::ZERO,
        });
        w.force_all().unwrap();

        let a = analyze(storage).unwrap();
        assert!(a.committed.is_empty());
        assert!(a.in_flight.is_empty());
        assert!(a.losers.is_empty());
        assert_eq!(a.max_txn_seen, TxnId(7));
        assert_eq!(a.undo_scan_start, None);
    }

    #[test]
    fn plan_pass_skips_pre_checkpoint_log_when_no_losers() {
        // A fully-compensated transaction lives entirely before the
        // checkpoint. With no losers the plan-building scan starts at the
        // checkpoint's redo LSN, so those records are never decoded again:
        // already_compensated stays 0 and only post-checkpoint work appears.
        let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
        let w = WalWriter::new(Arc::clone(&storage)).unwrap();
        w.append(&LogRecord::Begin { txn: TxnId(1) });
        w.append(&update(1, 1, 1));
        w.append(&LogRecord::Abort { txn: TxnId(1) });
        w.append(&LogRecord::Clr {
            txn: TxnId(1),
            page: PageId::new(0, 1),
            offset: 0,
            data: vec![0; 8],
            undo_next_lsn: Lsn::ZERO,
        });
        let ckpt_redo = w.next_lsn();
        w.append_checkpoint(ckpt(ckpt_redo, &[], 2)).unwrap();
        w.append(&LogRecord::Begin { txn: TxnId(2) });
        w.append(&update(2, 9, 9));
        w.append(&LogRecord::Commit { txn: TxnId(2) });
        w.force_all().unwrap();

        let (a, redo, undo) = build_recovery_plan(storage).unwrap();
        assert!(a.losers.is_empty());
        assert_eq!(a.undo_scan_start, None);
        assert!(undo.is_empty());
        assert_eq!(undo.already_compensated, 0);
        assert_eq!(redo.len(), 1);
        assert_eq!(redo.updates[0].page, PageId::new(0, 9));
    }

    #[test]
    fn loser_updates_before_checkpoint_are_still_undone() {
        let storage: Arc<dyn LogStorage> = Arc::new(InMemoryLogStorage::new());
        let w = WalWriter::new(Arc::clone(&storage)).unwrap();
        let begin = w.append(&LogRecord::Begin { txn: TxnId(1) });
        let l1 = w.append(&update(1, 1, 1));
        // Checkpoint after the loser's update; redo starts past it.
        let ckpt_redo = w.next_lsn();
        w.append_checkpoint(ckpt(ckpt_redo, &[(1, begin)], 2))
            .unwrap();
        w.append(&LogRecord::Begin { txn: TxnId(2) });
        w.append(&update(2, 9, 9));
        w.append(&LogRecord::Commit { txn: TxnId(2) });
        w.force_all().unwrap();

        let (_, redo, undo) = build_recovery_plan(storage).unwrap();
        assert_eq!(redo.redo_start, ckpt_redo);
        assert_eq!(redo.len(), 1);
        assert_eq!(redo.updates[0].page, PageId::new(0, 9));
        // The pre-checkpoint loser update is still in the undo plan.
        assert_eq!(undo.len(), 1);
        assert_eq!(undo.updates[0].lsn, l1);
    }
}
