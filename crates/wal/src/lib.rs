//! # face-wal — write-ahead logging and ARIES restart recovery
//!
//! The FaCE paper keeps the two classical recovery principles unchanged
//! (§4): write-ahead logging and commit-time force of the log tail. What
//! changes is *where* data pages are considered persistent — once a dirty
//! page reaches the flash cache it counts as propagated to the database, so
//! checkpoints flush to flash instead of disk and restart redo fetches most
//! pages from flash.
//!
//! This crate provides the substrate that makes that meaningful:
//!
//! * [`LogRecord`] — begin / update (after-image **and** before-image of
//!   the byte range that changed, possibly empty, with a per-transaction
//!   `prev_lsn` backward chain) / commit / abort /
//!   compensation ([`LogRecord::Clr`], carrying `undo_next_lsn`) /
//!   checkpoint records (redo LSN, transaction table, transaction-id fence)
//!   with a compact binary encoding.
//! * [`WalWriter`] — an append buffer that assigns LSNs and forces the tail to
//!   a [`LogStorage`] on commit (group commit). Records are framed off the
//!   append lock in a per-thread buffer, from an owned [`LogRecord`] or from
//!   borrowed images, and the durable horizon is an atomic: asking whether
//!   an LSN is durable takes no lock.
//! * [`LogReader`] — chunked sequential scan of the log from any LSN.
//! * [`recovery`] — the analysis → redo → undo pipeline: analysis starts at
//!   the last durable checkpoint (found through the storage's restart
//!   anchor, validated, with a scan from LSN 0 as the fallback) and finds
//!   the committed set and the losers with their undo resume points;
//!   [`recovery::build_recovery_plan`] produces a
//!   [`recovery::RedoPlan`] (committed updates plus repeated CLRs) and an
//!   [`recovery::UndoPlan`] (loser updates newest-first) that the engine
//!   applies through its buffer manager / flash cache, logging a CLR per
//!   reverted update so undo work is never repeated across crashes.
//!
//! LSNs are byte offsets into the logical log stream, as in ARIES and
//! PostgreSQL.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod reader;
pub mod record;
pub mod recovery;
pub mod storage;
pub mod writer;

pub use face_pagestore::Lsn;
pub use reader::LogReader;
pub use record::{ActiveTxn, CheckpointData, LogRecord, TxnId};
pub use recovery::{
    build_recovery_plan, AnalysisResult, RedoPlan, RedoUpdate, UndoPlan, UndoUpdate,
};
pub use storage::{
    FileLogStorage, InMemoryLogStorage, InstrumentedLogStorage, LogStorage, WalError, WalResult,
};
pub use writer::WalWriter;
