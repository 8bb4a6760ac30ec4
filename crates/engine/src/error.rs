//! Engine-level errors.

use face_buffer::{FetchSource, TierError};
use face_cache::CachePolicyKind;
use face_pagestore::{Lsn, PageId, StoreError};
use face_wal::WalError;

/// Anything that can go wrong inside the engine.
#[derive(Debug)]
pub enum EngineError {
    /// Error from the buffer pool / lower tier.
    Tier(TierError),
    /// Error from a page store.
    Store(StoreError),
    /// Error from the write-ahead log.
    Wal(WalError),
    /// The transaction id is unknown or already finished.
    UnknownTransaction(u64),
    /// Another operation on the same transaction is still in flight. The
    /// engine enforces one writer per transaction: the chain-head read, the
    /// WAL append and the new-head store of an update must not interleave
    /// with another operation on the same id.
    TransactionBusy(u64),
    /// A transaction's backward undo chain pointed at a missing or
    /// non-undoable log record — a truncated or corrupt log. The rollback
    /// is incomplete and must not be reported as successful.
    CorruptUndoChain {
        /// The transaction being rolled back.
        txn: u64,
        /// The chain LSN at which the walk failed.
        at: u64,
    },
    /// A value is too large to fit in a page.
    ValueTooLarge {
        /// Length of the offending value.
        len: usize,
        /// Maximum supported length.
        max: usize,
    },
    /// The table page addressed by a key has no free slot left.
    TableFull(u64),
    /// The engine is in a crashed state and must be restarted first.
    Crashed,
    /// The configured cache policy is one of the paper's baselines (LC,
    /// TAC), which only the trace simulator (`crate::sim::SimEngine`) runs.
    /// The functional engine hosts FaCE, FaCE+GR, FaCE+GSC and S3-FIFO.
    SimulatorOnlyPolicy(CachePolicyKind),
    /// Restart redo read a copy of a page that is not the version its
    /// pageLSN names: a copy carrying another page's id, or one whose
    /// pageLSN says an update record is not applied yet while the record's
    /// byte range does not hold the record's before-image. Redo repeats
    /// history, so either way the tier served a wrong (stale) copy. Debug
    /// and test builds fail the restart with this error (the database is
    /// left crashed); release builds count the mismatch in
    /// [`crate::RecoveryReport::redo_base_mismatches`] and carry on.
    RedoBaseMismatch {
        /// The page the record names.
        page: PageId,
        /// The page id the copy carries in its header.
        found: PageId,
        /// The table slot where the record's byte range starts.
        slot: usize,
        /// The page's LSN as redo found it.
        page_lsn: Lsn,
        /// The LSN of the record being redone.
        record_lsn: Lsn,
        /// The tier the page was read from.
        source: FetchSource,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Tier(e) => write!(f, "storage tier error: {e}"),
            EngineError::Store(e) => write!(f, "page store error: {e}"),
            EngineError::Wal(e) => write!(f, "WAL error: {e}"),
            EngineError::UnknownTransaction(id) => write!(f, "unknown transaction {id}"),
            EngineError::TransactionBusy(id) => {
                write!(
                    f,
                    "transaction {id} already has an operation in flight (one writer per transaction)"
                )
            }
            EngineError::CorruptUndoChain { txn, at } => {
                write!(
                    f,
                    "undo chain of transaction {txn} broken at LSN {at} (truncated or corrupt log)"
                )
            }
            EngineError::ValueTooLarge { len, max } => {
                write!(f, "value of {len} bytes exceeds the {max}-byte limit")
            }
            EngineError::TableFull(k) => {
                write!(f, "no free slot for key {k} (hash bucket exhausted)")
            }
            EngineError::Crashed => write!(f, "engine has crashed; call restart() first"),
            EngineError::SimulatorOnlyPolicy(policy) => write!(
                f,
                "cache policy {policy} runs only in the trace simulator (sim::SimEngine); \
                 the engine hosts FaCE, FaCE+GR, FaCE+GSC and S3-FIFO"
            ),
            EngineError::RedoBaseMismatch {
                page,
                found,
                slot,
                page_lsn,
                record_lsn,
                source,
            } => {
                let tier = match source {
                    FetchSource::FlashCache => "flash",
                    FetchSource::Disk => "disk",
                };
                write!(f, "redo base mismatch on page {page} slot {slot}: ")?;
                if found != page {
                    write!(
                        f,
                        "the copy read from {tier} is page {found} at {page_lsn} (redoing the record at {record_lsn})"
                    )
                } else {
                    write!(
                        f,
                        "the copy read from {tier} is at {page_lsn}, below the record's {record_lsn}, but does not hold the record's before-image"
                    )
                }
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Tier(e) => Some(e),
            EngineError::Store(e) => Some(e),
            EngineError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TierError> for EngineError {
    fn from(e: TierError) -> Self {
        EngineError::Tier(e)
    }
}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        EngineError::Store(e)
    }
}

impl From<WalError> for EngineError {
    fn from(e: WalError) -> Self {
        EngineError::Wal(e)
    }
}

/// Result alias for engine operations.
pub type EngineResult<T> = Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        assert!(format!("{}", EngineError::UnknownTransaction(7)).contains('7'));
        assert!(format!("{}", EngineError::TransactionBusy(4)).contains('4'));
        assert!(format!("{}", EngineError::CorruptUndoChain { txn: 2, at: 64 }).contains("64"));
        assert!(format!("{}", EngineError::ValueTooLarge { len: 10, max: 5 }).contains("10"));
        assert!(format!("{}", EngineError::TableFull(3)).contains('3'));
        assert!(format!("{}", EngineError::Crashed).contains("restart"));
        let baseline = format!("{}", EngineError::SimulatorOnlyPolicy(CachePolicyKind::Lc));
        assert!(baseline.contains("LC") && baseline.contains("SimEngine"));
        let stale = EngineError::RedoBaseMismatch {
            page: PageId::new(1, 5),
            found: PageId::new(1, 5),
            slot: 3,
            page_lsn: Lsn(40),
            record_lsn: Lsn(90),
            source: FetchSource::FlashCache,
        };
        let shown = format!("{stale}");
        for part in ["1:5", "slot 3", "lsn:40", "lsn:90", "flash", "before-image"] {
            assert!(shown.contains(part), "{shown}");
        }
        let foreign = EngineError::RedoBaseMismatch {
            page: PageId::new(1, 5),
            found: PageId::new(1, 6),
            slot: 0,
            page_lsn: Lsn(40),
            record_lsn: Lsn(90),
            source: FetchSource::Disk,
        };
        let shown = format!("{foreign}");
        for part in ["page 1:5", "is page 1:6", "disk"] {
            assert!(shown.contains(part), "{shown}");
        }
        let from_store: EngineError = StoreError::Closed.into();
        assert!(matches!(from_store, EngineError::Store(_)));
        let from_tier: EngineError = TierError::Cache("x".into()).into();
        assert!(matches!(from_tier, EngineError::Tier(_)));
    }
}
