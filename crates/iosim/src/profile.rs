//! Device calibration profiles.
//!
//! Each profile captures the Table 1 measurements of the paper: 4 KiB random
//! read/write throughput (IOPS) and sequential read/write bandwidth (MB/s),
//! plus capacity and price so that the cost-effectiveness analysis (paper
//! §2.2, Table 5) can be reproduced.

use serde::{Deserialize, Serialize};

use crate::request::OpClass;
use crate::{SimDuration, NANOS_PER_SEC};

/// Broad class of a device, reported with its calibration numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// A rotating magnetic disk (or an array of them).
    HardDisk,
    /// A NAND-flash solid state drive.
    FlashSsd,
}

/// Calibration numbers for one device.
///
/// Service times are derived as:
/// * random ops: `1 / iops` (the IOPS measurements already include the
///   device's internal parallelism under a realistic queue depth);
/// * sequential ops: `len / bandwidth` plus a tiny per-op setup cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Human-readable name (used in reports).
    pub name: String,
    /// Device class.
    pub kind: DeviceKind,
    /// 4 KiB random read throughput, IOPS.
    pub random_read_iops: f64,
    /// 4 KiB random write throughput, IOPS.
    pub random_write_iops: f64,
    /// Sequential read bandwidth, MB/s (decimal megabytes, as in the paper).
    pub seq_read_mbps: f64,
    /// Sequential write bandwidth, MB/s.
    pub seq_write_mbps: f64,
    /// Capacity in gigabytes.
    pub capacity_gb: f64,
    /// Street price in USD (2012 numbers from the paper, used only for the
    /// cost-effectiveness analysis).
    pub price_usd: f64,
}

impl DeviceProfile {
    /// Samsung 470 Series 256 GB (MLC) — the paper's primary caching device.
    pub fn samsung470_mlc() -> Self {
        Self {
            name: "Samsung 470 MLC SSD".to_string(),
            kind: DeviceKind::FlashSsd,
            random_read_iops: 28_495.0,
            random_write_iops: 6_314.0,
            seq_read_mbps: 251.33,
            seq_write_mbps: 242.80,
            capacity_gb: 256.0,
            price_usd: 450.0,
        }
    }

    /// Intel X25-M G2 80 GB (MLC).
    pub fn intel_x25m_mlc() -> Self {
        Self {
            name: "Intel X25-M G2 MLC SSD".to_string(),
            kind: DeviceKind::FlashSsd,
            random_read_iops: 35_601.0,
            random_write_iops: 2_547.0,
            seq_read_mbps: 258.70,
            seq_write_mbps: 80.81,
            capacity_gb: 80.0,
            price_usd: 180.0,
        }
    }

    /// Intel X25-E 32 GB (SLC) — the paper's SLC caching device.
    pub fn intel_x25e_slc() -> Self {
        Self {
            name: "Intel X25-E SLC SSD".to_string(),
            kind: DeviceKind::FlashSsd,
            random_read_iops: 38_427.0,
            random_write_iops: 5_057.0,
            seq_read_mbps: 259.2,
            seq_write_mbps: 195.25,
            capacity_gb: 32.0,
            price_usd: 440.0,
        }
    }

    /// A single Seagate Cheetah 15K.6 146.8 GB enterprise disk.
    pub fn seagate_15k() -> Self {
        Self {
            name: "Seagate Cheetah 15K.6".to_string(),
            kind: DeviceKind::HardDisk,
            random_read_iops: 409.0,
            random_write_iops: 343.0,
            seq_read_mbps: 156.0,
            seq_write_mbps: 154.0,
            capacity_gb: 146.8,
            price_usd: 240.0,
        }
    }

    /// The paper's 8-disk RAID-0 array, measured as a single device.
    ///
    /// Prefer [`crate::RaidArray`] built from [`DeviceProfile::seagate_15k`]
    /// when the number of spindles is varied (Figure 5); this profile is the
    /// aggregate measurement from Table 1 and is kept for calibration tests.
    pub fn raid0_8disk_measured() -> Self {
        Self {
            name: "8-disk RAID-0 (measured)".to_string(),
            kind: DeviceKind::HardDisk,
            random_read_iops: 2_598.0,
            random_write_iops: 2_502.0,
            seq_read_mbps: 848.0,
            seq_write_mbps: 843.0,
            capacity_gb: 1_170.0,
            price_usd: 1_920.0,
        }
    }

    /// Price per gigabyte in USD.
    pub fn price_per_gb(&self) -> f64 {
        self.price_usd / self.capacity_gb
    }

    /// Service time of one request of the given class and length.
    pub fn service_time(&self, class: OpClass, len: u32) -> SimDuration {
        let secs = match class {
            OpClass::RandomRead => {
                // The IOPS calibration is for 4 KiB requests; larger random
                // requests pay the per-op cost plus transfer at sequential
                // bandwidth for the excess.
                let base = 1.0 / self.random_read_iops;
                base + self.excess_transfer_secs(len, self.seq_read_mbps)
            }
            OpClass::RandomWrite => {
                let base = 1.0 / self.random_write_iops;
                base + self.excess_transfer_secs(len, self.seq_write_mbps)
            }
            OpClass::SequentialRead => {
                Self::transfer_secs(len, self.seq_read_mbps) + Self::SEQ_SETUP_SECS
            }
            OpClass::SequentialWrite => {
                Self::transfer_secs(len, self.seq_write_mbps) + Self::SEQ_SETUP_SECS
            }
        };
        (secs * NANOS_PER_SEC as f64).round() as SimDuration
    }

    /// A small fixed per-request setup cost for sequential requests
    /// (command issue, DMA setup). 20 microseconds.
    const SEQ_SETUP_SECS: f64 = 20e-6;

    fn transfer_secs(len: u32, mbps: f64) -> f64 {
        len as f64 / (mbps * 1_000_000.0)
    }

    fn excess_transfer_secs(&self, len: u32, mbps: f64) -> f64 {
        let excess = len.saturating_sub(crate::PAGE_SIZE as u32);
        if excess == 0 {
            0.0
        } else {
            Self::transfer_secs(excess, mbps)
        }
    }

    /// The average time to access one 4 KiB page with a 50/50 random
    /// read/write mix. This is the `C_disk` / `C_flash` of the paper's §2.2
    /// cost analysis.
    pub fn avg_random_page_access_secs(&self) -> f64 {
        0.5 / self.random_read_iops + 0.5 / self.random_write_iops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_profiles_have_expected_iops() {
        assert_eq!(DeviceProfile::samsung470_mlc().random_read_iops, 28_495.0);
        assert_eq!(DeviceProfile::intel_x25m_mlc().random_write_iops, 2_547.0);
        assert_eq!(DeviceProfile::intel_x25e_slc().random_read_iops, 38_427.0);
        assert_eq!(DeviceProfile::seagate_15k().random_read_iops, 409.0);
        assert_eq!(
            DeviceProfile::raid0_8disk_measured().random_read_iops,
            2_598.0
        );
    }

    #[test]
    fn random_service_times_match_iops() {
        let p = DeviceProfile::samsung470_mlc();
        let t = p.service_time(OpClass::RandomRead, 4096);
        // 1/28495 s = ~35.1 us
        let expected_us = 1e6 / 28_495.0;
        assert!((t as f64 / 1e3 - expected_us).abs() < 0.5);

        let disk = DeviceProfile::seagate_15k();
        let t = disk.service_time(OpClass::RandomRead, 4096);
        // 1/409 s = ~2.44 ms
        assert!((t as f64 / 1e6 - 2.44).abs() < 0.05);
    }

    #[test]
    fn sequential_service_time_scales_with_length() {
        let p = DeviceProfile::samsung470_mlc();
        let one_page = p.service_time(OpClass::SequentialWrite, 4096);
        let big = p.service_time(OpClass::SequentialWrite, 64 * 4096);
        assert!(big > one_page);
        // 64 pages at 242.8 MB/s = ~1.08 ms (+setup)
        assert!((big as f64 / 1e6 - 1.1).abs() < 0.2);
    }

    #[test]
    fn disk_has_no_large_random_sequential_gap() {
        let d = DeviceProfile::seagate_15k();
        // A disk's random write IOPS is limited by seeks, so its "fraction of
        // sequential" is tiny; what matters is that read and write are
        // symmetric, unlike flash.
        let read_t = d.service_time(OpClass::RandomRead, 4096) as f64;
        let write_t = d.service_time(OpClass::RandomWrite, 4096) as f64;
        assert!((read_t / write_t - 343.0 / 409.0).abs() < 0.2);
    }

    #[test]
    fn price_per_gb_ordering_matches_paper() {
        // Disk is cheapest per GB, SLC flash most expensive.
        let disk = DeviceProfile::seagate_15k().price_per_gb();
        let mlc = DeviceProfile::samsung470_mlc().price_per_gb();
        let slc = DeviceProfile::intel_x25e_slc().price_per_gb();
        // 4 GB of DRAM for $80 (2012).
        let dram = 80.0 / 4.0;
        assert!(disk < mlc);
        assert!(mlc < slc);
        // DRAM is roughly 10x MLC flash per GB (paper §5.4.1 assumption).
        assert!(dram / mlc > 5.0);
    }

    #[test]
    fn cost_model_fraction_close_to_one() {
        // Paper §2.2: C_disk / (C_disk - C_flash) ~ 1.006 (read) to 1.025
        // (write) for the Seagate disk + Samsung SSD pair.
        let disk = DeviceProfile::seagate_15k();
        let flash = DeviceProfile::samsung470_mlc();
        let c_disk_r = 1.0 / disk.random_read_iops;
        let c_flash_r = 1.0 / flash.random_read_iops;
        let frac_read = c_disk_r / (c_disk_r - c_flash_r);
        assert!((frac_read - 1.0).abs() < 0.03, "read fraction {frac_read}");

        let c_disk_w = 1.0 / disk.random_write_iops;
        let c_flash_w = 1.0 / flash.random_write_iops;
        let frac_write = c_disk_w / (c_disk_w - c_flash_w);
        assert!(
            (frac_write - 1.0).abs() < 0.08,
            "write fraction {frac_write}"
        );
    }

    #[test]
    fn larger_random_requests_cost_more() {
        let p = DeviceProfile::seagate_15k();
        let small = p.service_time(OpClass::RandomRead, 4096);
        let large = p.service_time(OpClass::RandomRead, 128 * 1024);
        assert!(large > small);
    }
}
