//! # face-iosim — calibrated storage device simulator
//!
//! This crate provides the hardware substrate for the FaCE reproduction: a
//! virtual-clock simulation of the storage devices used in the paper's
//! evaluation (Table 1 of the paper):
//!
//! | Device | 4KB rand read | 4KB rand write | seq read | seq write |
//! |---|---|---|---|---|
//! | Samsung 470 MLC SSD | 28,495 IOPS | 6,314 IOPS | 251 MB/s | 243 MB/s |
//! | Intel X25-M G2 MLC SSD | 35,601 IOPS | 2,547 IOPS | 259 MB/s | 81 MB/s |
//! | Intel X25-E SLC SSD | 38,427 IOPS | 5,057 IOPS | 259 MB/s | 195 MB/s |
//! | Seagate 15k.6 disk | 409 IOPS | 343 IOPS | 156 MB/s | 154 MB/s |
//! | 8-disk RAID-0 | 2,598 IOPS | 2,502 IOPS | 848 MB/s | 843 MB/s |
//!
//! The simulator distinguishes the four operation classes (random/sequential x
//! read/write) because the entire FaCE design is motivated by the asymmetry
//! between them on flash SSDs: random writes are roughly an order of magnitude
//! slower than sequential writes, while random reads are close to sequential
//! reads.
//!
//! ## Model
//!
//! * [`SimClock`] — a shared virtual clock in nanoseconds.
//! * [`DeviceProfile`] — the calibration numbers of a device.
//! * [`Device`] — a queueing server: each request occupies the device for its
//!   service time; requests submitted while the device is busy wait in FIFO
//!   order. Sequentiality is detected from the byte offset of consecutive
//!   requests (plus an explicit hint for append-only writes).
//! * [`RaidArray`] — RAID-0 striping across N member disks.
//! * [`IoSystem`] — the set of devices used by an experiment, one per role
//!   (data, flash cache, log); it produces device utilisation, IOPS and
//!   elapsed simulated time. The closed client population that drives it
//!   lives in the workload driver (`face_engine::sim`).
//!
//! The model is intentionally a *service-time* model, not a full disk
//! geometry model: the reproduction targets the shape of the paper's results
//! (who wins, by what factor, where crossovers fall), which is driven by the
//! service-time ratios of Table 1.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod device;
pub mod profile;
pub mod raid;
pub mod request;
pub mod stats;
pub mod system;

pub use clock::{SimClock, SimDuration, SimInstant};
pub use device::{Device, DeviceId};
pub use profile::{DeviceKind, DeviceProfile};
pub use raid::RaidArray;
pub use request::{AccessPattern, IoOp, IoRequest};
pub use stats::{DeviceStats, OpClass, StatsSnapshot};
pub use system::{IoSystem, IoSystemBuilder, IoTarget, Role};

/// The page size used throughout the reproduction (PostgreSQL's 4 KiB pages,
/// matching the paper's setup).
pub const PAGE_SIZE: usize = 4096;
