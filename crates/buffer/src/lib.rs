//! # face-buffer — the DRAM buffer pool
//!
//! The first-level cache of the storage hierarchy. The FaCE design hinges on
//! two properties of this layer (paper §3):
//!
//! 1. Pages enter the flash cache **on exit** from the DRAM buffer — never on
//!    entry — because a flash copy is useless while the DRAM copy exists.
//!    The buffer pool therefore hands every evicted page to a pluggable
//!    [`LowerTier`] (the flash cache + disk, or disk alone).
//! 2. Each DRAM frame carries two flags: `dirty` (newer than the disk copy)
//!    and `fdirty` (newer than the flash-cache copy). The pair drives the
//!    conditional/unconditional enqueue logic of mvFIFO (paper Algorithm 1).
//!
//! The crate provides:
//! * [`LruList`] — the recency list of the simulator's exact-LRU
//!   replacement (the paper uses PostgreSQL's buffer replacement; LRU is the
//!   reference policy its analysis assumes), and the FIFO queues of the
//!   pool's S3-FIFO replacement.
//! * [`BufferPool`] — a data-carrying pool over any [`LowerTier`], used by the
//!   functional engine, the examples and the recovery tests. Its reads are
//!   lock-light and its replacement is S3-FIFO.
//! * [`BufferSim`] — a metadata-only buffer (the pool's flag logic, exact
//!   LRU replacement, no page bodies), used by the performance experiments
//!   where the database is far larger than what is worth materialising.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

#[cfg(test)]
mod direct_disk;
pub mod flags;
pub mod lru;
pub mod pool;
pub mod sim;
pub mod tier;

pub use flags::{AtomicFrameFlags, FrameFlags};
pub use lru::LruList;
pub use pool::{BufferPool, BufferStats, DEFAULT_POOL_SHARDS};
pub use sim::{BufferSim, EvictedMeta, SimAccess};
pub use tier::{
    FetchOutcome, FetchSource, LowerTier, NoVictims, TierError, TierResult, VictimPull,
    WriteBackOutcome, WriteBackReason,
};
