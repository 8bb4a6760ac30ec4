//! The cost-effectiveness analysis of §2.2 of the paper.
//!
//! The paper models the buffer hit rate as `α·log(BufferSize)` (after Tsuei et
//! al.) and asks how much flash cache (`θ·B`) is needed to save as much I/O
//! time as a DRAM increment (`δ·B`). The break-even point is
//!
//! ```text
//! 1 + θ = (1 + δ)^( C_disk / (C_disk − C_flash) )
//! ```
//!
//! Because `C_disk / (C_disk − C_flash)` is barely above 1 for current
//! devices, a flash cache is almost exactly as effective per byte as DRAM
//! while being roughly ten times cheaper per byte — the economic argument for
//! FaCE, revisited empirically in Table 5.

use serde::{Deserialize, Serialize};

use face_iosim::DeviceProfile;

/// Inputs to the break-even analysis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    /// Time to access one page on disk, seconds.
    pub c_disk: f64,
    /// Time to access one page on flash, seconds.
    pub c_flash: f64,
    /// Disk price per gigabyte.
    pub disk_price_per_gb: f64,
    /// Flash price per gigabyte.
    pub flash_price_per_gb: f64,
    /// DRAM price per gigabyte.
    pub dram_price_per_gb: f64,
}

/// The workload mix assumed when deriving per-page access costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessMix {
    /// Only random reads (the paper's "read-only workload" case, ratio ≈ 1.006).
    ReadOnly,
    /// Only random writes (ratio ≈ 1.025).
    WriteOnly,
    /// A 50/50 mix.
    Mixed,
}

impl CostModel {
    /// Build the model from two device profiles and 2012 price assumptions
    /// (DRAM ≈ 10x the price of MLC flash per gigabyte, §5.4.1).
    pub fn from_profiles(disk: &DeviceProfile, flash: &DeviceProfile, mix: AccessMix) -> Self {
        let cost = |p: &DeviceProfile| match mix {
            AccessMix::ReadOnly => 1.0 / p.random_read_iops,
            AccessMix::WriteOnly => 1.0 / p.random_write_iops,
            AccessMix::Mixed => p.avg_random_page_access_secs(),
        };
        Self {
            c_disk: cost(disk),
            c_flash: cost(flash),
            disk_price_per_gb: disk.price_per_gb(),
            flash_price_per_gb: flash.price_per_gb(),
            dram_price_per_gb: flash.price_per_gb() * 10.0,
        }
    }

    /// The exponent `C_disk / (C_disk − C_flash)`.
    pub fn exponent(&self) -> f64 {
        self.c_disk / (self.c_disk - self.c_flash)
    }

    /// The flash fraction θ that matches the I/O-time saving of a DRAM
    /// increment δ (both relative to the DRAM buffer size B).
    pub fn break_even_theta(&self, delta: f64) -> f64 {
        (1.0 + delta).powf(self.exponent()) - 1.0
    }

    /// Ratio of the *cost* of the break-even flash increment to the cost of
    /// the DRAM increment: below 1 means flash is the better investment.
    pub fn cost_ratio(&self, delta: f64) -> f64 {
        let theta = self.break_even_theta(delta);
        (theta * self.flash_price_per_gb) / (delta * self.dram_price_per_gb)
    }
}

/// Convenience: the paper's reference pairing (Seagate 15K.6 + Samsung 470).
pub fn paper_reference_model(mix: AccessMix) -> CostModel {
    CostModel::from_profiles(
        &DeviceProfile::seagate_15k(),
        &DeviceProfile::samsung470_mlc(),
        mix,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_is_barely_above_one() {
        // Paper §2.2 reports ~1.006 (read-only) and ~1.025 (write-only) with
        // its own device measurements; with the Table 1 IOPS figures the
        // derived values are ~1.015 and ~1.06. The claim being reproduced is
        // that the exponent is very close to 1, so flash caching is nearly as
        // effective per byte as extra DRAM.
        let read = paper_reference_model(AccessMix::ReadOnly);
        assert!(
            read.exponent() > 1.0 && read.exponent() < 1.03,
            "{}",
            read.exponent()
        );
        let write = paper_reference_model(AccessMix::WriteOnly);
        assert!(
            write.exponent() > 1.0 && write.exponent() < 1.08,
            "{}",
            write.exponent()
        );
        let mixed = paper_reference_model(AccessMix::Mixed);
        assert!(mixed.exponent() > read.exponent());
        assert!(mixed.exponent() < write.exponent());
    }

    #[test]
    fn break_even_theta_is_close_to_delta() {
        let m = paper_reference_model(AccessMix::Mixed);
        for delta in [0.1, 0.5, 1.0, 2.0] {
            let theta = m.break_even_theta(delta);
            // Flash needs to be only slightly larger than the DRAM increment.
            assert!(theta > delta);
            assert!(theta < delta * 1.2, "delta={delta} theta={theta}");
        }
    }

    #[test]
    fn flash_is_cheaper_than_dram_at_break_even() {
        let m = paper_reference_model(AccessMix::Mixed);
        for delta in [0.1, 0.5, 1.0] {
            assert!(m.cost_ratio(delta) < 0.2, "flash should be >5x cheaper");
        }
    }
}
