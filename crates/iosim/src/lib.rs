//! # face-iosim — calibrated storage device model
//!
//! This crate provides the hardware substrate for the FaCE reproduction's
//! trace simulator: a service-time model of the storage devices used in the
//! paper's evaluation (Table 1 of the paper):
//!
//! | Device | 4KB rand read | 4KB rand write | seq read | seq write |
//! |---|---|---|---|---|
//! | Samsung 470 MLC SSD | 28,495 IOPS | 6,314 IOPS | 251 MB/s | 243 MB/s |
//! | Intel X25-M G2 MLC SSD | 35,601 IOPS | 2,547 IOPS | 259 MB/s | 81 MB/s |
//! | Intel X25-E SLC SSD | 38,427 IOPS | 5,057 IOPS | 259 MB/s | 195 MB/s |
//! | Seagate 15k.6 disk | 409 IOPS | 343 IOPS | 156 MB/s | 154 MB/s |
//! | 8-disk RAID-0 | 2,598 IOPS | 2,502 IOPS | 848 MB/s | 843 MB/s |
//!
//! The model distinguishes the four operation classes (random/sequential x
//! read/write) because the entire FaCE design is motivated by the asymmetry
//! between them on flash SSDs: random writes are roughly an order of magnitude
//! slower than sequential writes, while random reads are close to sequential
//! reads.
//!
//! ## Model
//!
//! * [`DeviceProfile`] — the calibration numbers of a device.
//! * A device — a FIFO queueing server: a request submitted at some
//!   instant starts when the device is free and occupies it for the service
//!   time of its [`OpClass`]. The submitter says whether a request is
//!   sequential; the device infers nothing.
//! * [`RaidArray`] — RAID-0 striping across N member devices; a single
//!   device is an array of one.
//! * [`IoSystem`] — the arrays of one experiment, one per [`Role`] (data,
//!   flash cache, log); it reports device utilisation and page IOPS.
//!
//! There is no shared clock: [`IoSystem::submit`] takes the issuing
//! instant and returns the finish instant, and the closed client population
//! that drives it keeps its own clocks (`face_engine::sim`).
//!
//! The model is intentionally a *service-time* model, not a full disk
//! geometry model: the reproduction targets the shape of the paper's results
//! (who wins, by what factor, where crossovers fall), which is driven by the
//! service-time ratios of Table 1.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod device;
mod profile;
mod raid;
mod request;
mod system;

pub use device::DeviceStats;
pub use profile::{DeviceKind, DeviceProfile};
pub use raid::RaidArray;
pub use request::{IoOp, IoRequest, OpClass};
pub use system::{IoSystem, Role};

/// The page size used throughout the reproduction (PostgreSQL's 4 KiB pages,
/// matching the paper's setup).
pub const PAGE_SIZE: usize = 4096;

/// A point in simulated time, in nanoseconds since the start of the run.
pub type SimInstant = u64;

/// A span of simulated time, in nanoseconds.
pub type SimDuration = u64;

/// Nanoseconds per second, for conversions.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Convert a [`SimDuration`] to floating-point seconds.
pub fn duration_to_secs(d: SimDuration) -> f64 {
    d as f64 / NANOS_PER_SEC as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_converts_to_seconds() {
        assert_eq!(duration_to_secs(NANOS_PER_SEC), 1.0);
        assert!((duration_to_secs(NANOS_PER_SEC * 5 / 2) - 2.5).abs() < 1e-9);
    }
}
