//! # face-cache — the FaCE flash cache extension
//!
//! The paper's primary contribution: managing a flash SSD as a second-level
//! cache between the DRAM buffer pool and the disk array, optimised for the
//! write asymmetry of flash memory, and extending the persistent database to
//! include the cached pages so that checkpointing and restart become cheaper.
//!
//! ## Policies
//!
//! | Policy | When cached | Sync | Replacement | Module |
//! |---|---|---|---|---|
//! | FaCE (mvFIFO) | on exit from DRAM | write-back | multi-version FIFO | [`mvfifo`] |
//! | FaCE + GR | on exit | write-back | mvFIFO, batched group I/O | [`mvfifo`] |
//! | FaCE + GSC | on exit | write-back | mvFIFO, group second chance | [`mvfifo`] |
//! | S3-FIFO | on exit, ghost-gated | write-back | small/main/ghost FIFO | [`s3fifo`] |
//! | LC (lazy cleaning) | on exit | write-back | LRU-2, in-place overwrite | [`lc`] |
//! | TAC (temperature-aware) | on entry | write-through | temperature buckets | [`tac`] |
//!
//! The four FIFO-family rows are decision rules over one shared mechanism,
//! the [`ring::GroupRing`]: slot table and circular regions, pending batch,
//! deferred in-flight groups, metadata journal, quarantine, evacuation and
//! journal recovery live there once, and [`mvfifo`] and [`s3fifo`] only decide
//! where a page goes and which victims survive a dequeue.
//!
//! All six policies implement the [`FlashCache`] trait — the surface the
//! trace simulator drives — and record the physical I/O they cause in an
//! [`IoLog`] (so the simulation driver can charge calibrated device times).
//! Only the four ring policies implement [`RingCache`], the contract of the
//! functional engine ([`ShardedFlashCache`]: lock-light fetches, deferred
//! group writes, quarantine, evacuation), and carry real page data through a
//! [`FlashStore`]; LC and TAC are the paper's baselines and run in the
//! simulator only.
//!
//! ## Recovery
//!
//! [`meta::MetaJournal`] implements the paper's §4 mapping-metadata
//! persistence for the functional engine: every slot a group writes gets a
//! compact journal record (page id, slot, pageLSN, dirty bit, group epoch)
//! that is flushed *with the group's batch write*, and a periodic
//! [`meta::CacheCheckpoint`] snapshots the directory so restart replays a
//! bounded amount of journal. Recovery reconciles the rebuilt directory
//! against the WAL's durable end: versions newer than the durable log are
//! discarded; dirty versions at or below it substitute for disk reads during
//! redo. Every ring cache, simulated or functional, recovers through the
//! journal ([`ring::GroupRing::recover`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod admission;
pub mod concurrent;
pub mod cost_model;
pub mod degrade;
pub mod destage;
pub mod io;
pub mod lc;
pub mod meta;
pub mod mvfifo;
pub mod policy;
pub mod ring;
pub mod s3fifo;
pub mod store;
pub mod tac;
pub mod types;

pub use admission::GhostQueue;
pub use concurrent::ShardedFlashCache;
pub use cost_model::{AccessMix, CostModel};
pub use degrade::{BreakerState, DegradeAction, DegradeConfig, DegradeController, DegradeStats};
pub use destage::{
    DestageConfig, DestageJob, DestageSink, DestageStats, Destager, PendingGroupWrite,
    PendingSlotWrite,
};
pub use io::{FlashIoEvent, IoLog};
pub use lc::LcCache;
pub use meta::{CacheCheckpoint, JournalEntry, JournalStats, MetaJournal, RecoveredJournal};
pub use mvfifo::MvFifoCache;
pub use policy::{build_cache, build_ring, CachePolicyKind, FlashCache, NoSupplier, PageSupplier};
pub use ring::{GroupRing, RingCache};
pub use s3fifo::S3FifoCache;
pub use store::{
    FlashStore, GateFlashStore, HeaderFlashStore, InstrumentedFlashStore, MemFlashStore,
    NullFlashStore,
};
pub use tac::TacCache;
pub use types::{
    CacheConfig, CacheRecoveryInfo, CacheStats, Counter, Evacuation, FetchPin, FlashFetch,
    InsertFailure, InsertOutcome, QuarantineOutcome, StagedPage,
};
