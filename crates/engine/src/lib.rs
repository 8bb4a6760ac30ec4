//! # face-engine — the storage engine hosting the FaCE flash cache
//!
//! The paper implements FaCE inside PostgreSQL's buffer manager, checkpointer
//! and recovery daemon. This crate is the reproduction's stand-in for that
//! host system: a small but complete storage engine with
//!
//! * a transactional key-value table layer ([`Database`]) over slotted pages,
//! * write-ahead logging with commit-time log force (`face-wal`),
//! * a DRAM buffer pool (`face-buffer`) whose lower tier ([`FaceTier`])
//!   consults the flash cache (`face-cache`) before the disk,
//! * checkpointing that flushes dirty pages to the flash cache when FaCE is
//!   enabled and to disk otherwise,
//! * crash simulation and full ARIES restart (analysis, redo, and undo of
//!   losers via compensation records) that fetches most pages from the
//!   flash cache ([`RecoveryReport`] records how many, and
//!   [`RecoveryStats`] what undo had to roll back), and
//! * a trace-driven simulation engine ([`sim::SimEngine`]) that reproduces
//!   the paper's performance experiments on calibrated simulated devices.
//!
//! ## Quick start
//!
//! ```
//! use face_engine::{Database, EngineConfig};
//! use face_cache::CachePolicyKind;
//!
//! let config = EngineConfig::in_memory()
//!     .buffer_frames(64)
//!     .flash_cache(CachePolicyKind::FaceGsc, 256);
//! let db = Database::open(config).unwrap();
//!
//! let txn = db.begin();
//! db.put(txn, 42, b"hello flash cache").unwrap();
//! db.commit(txn).unwrap();
//! assert_eq!(db.get(42).unwrap().unwrap(), b"hello flash cache");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod db;
pub mod error;
pub mod latency;
pub mod sim;
pub mod table;
pub mod tier;

pub use config::EngineConfig;
pub use db::{Database, DbStats, RecoveryReport, RecoveryStats};
pub use error::{EngineError, EngineResult};
pub use latency::DeviceLatency;
pub use tier::FaceTier;

pub use face_cache::CachePolicyKind;
