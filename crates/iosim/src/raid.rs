//! RAID-0 striping over N member disks.
//!
//! The paper's testbed stores the database on an 8-disk RAID-0 array of
//! 15k-RPM drives, and Figure 5 varies the number of spindles from 4 to 16.
//! Modelling the array as N independent queueing servers with requests routed
//! by stripe reproduces both the aggregate random-IOPS scaling (Table 1 shows
//! the 8-disk array at ~6.3x a single disk) and the throughput scaling of
//! Figure 5.

use crate::clock::{SimDuration, SimInstant};
use crate::device::{Completion, Device, DeviceId};
use crate::profile::DeviceProfile;
use crate::request::IoRequest;
use crate::stats::{DeviceStats, StatsSnapshot};

/// Default stripe size: 64 KiB, a common hardware-RAID default.
pub const DEFAULT_STRIPE_BYTES: u64 = 64 * 1024;

/// A RAID-0 array of identical member devices.
#[derive(Debug, Clone)]
pub struct RaidArray {
    name: String,
    members: Vec<Device>,
    stripe_bytes: u64,
}

impl RaidArray {
    /// Build an array of `n` members with the given per-member profile and the
    /// default stripe size.
    pub fn new(name: impl Into<String>, member_profile: DeviceProfile, n: usize) -> Self {
        Self::with_stripe(name, member_profile, n, DEFAULT_STRIPE_BYTES)
    }

    /// Build an array with an explicit stripe size in bytes.
    pub fn with_stripe(
        name: impl Into<String>,
        member_profile: DeviceProfile,
        n: usize,
        stripe_bytes: u64,
    ) -> Self {
        assert!(n >= 1, "a RAID array needs at least one member");
        assert!(stripe_bytes > 0, "stripe size must be non-zero");
        let members = (0..n)
            .map(|i| Device::new(DeviceId(i as u32), member_profile.clone()))
            .collect();
        Self {
            name: name.into(),
            members,
            stripe_bytes,
        }
    }

    /// The paper's data store: `n` Seagate 15K.6 drives in RAID-0.
    pub fn seagate_raid0(n: usize) -> Self {
        Self::new(
            format!("{n}-disk RAID-0 (Seagate 15K.6)"),
            DeviceProfile::seagate_15k(),
            n,
        )
    }

    /// Number of member disks.
    pub fn width(&self) -> usize {
        self.members.len()
    }

    /// The array's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The member servicing a given byte offset.
    pub fn member_for_offset(&self, offset: u64) -> usize {
        ((offset / self.stripe_bytes) % self.members.len() as u64) as usize
    }

    /// Access a member device (for inspection in tests).
    pub fn member(&self, i: usize) -> &Device {
        &self.members[i]
    }

    /// Submit a request; it is routed to the member that owns the starting
    /// stripe. Requests larger than a stripe are still serviced by a single
    /// member — OLTP requests are 4 KiB pages, far below the stripe size.
    pub fn submit(&mut self, req: &IoRequest, issue_time: SimInstant) -> Completion {
        let idx = self.member_for_offset(req.offset);
        self.members[idx].submit(req, issue_time)
    }

    /// Aggregate statistics across all members.
    pub fn aggregate_stats(&self) -> DeviceStats {
        let mut agg = DeviceStats::new();
        for m in &self.members {
            agg.merge(m.stats());
        }
        agg
    }

    /// Array utilisation over a window: total member busy time divided by
    /// `width * elapsed` (i.e. the mean member utilisation).
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        let busy: u128 = self
            .members
            .iter()
            .map(|m| m.stats().busy_time() as u128)
            .sum();
        let cap = elapsed as u128 * self.members.len() as u128;
        (busy as f64 / cap as f64).min(1.0)
    }

    /// Snapshot aggregate statistics over a window.
    pub fn snapshot(&self, elapsed: SimDuration) -> StatsSnapshot {
        self.aggregate_stats().snapshot(&self.name, elapsed)
    }

    /// Reset statistics on every member (keeps queue positions).
    pub fn reset_stats(&mut self) {
        for m in &mut self.members {
            m.reset_stats();
        }
    }

    /// Fully reset every member.
    pub fn reset(&mut self) {
        for m in &mut self.members {
            m.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::NANOS_PER_SEC;
    use crate::request::IoRequest;

    #[test]
    fn striping_routes_by_offset() {
        let arr = RaidArray::seagate_raid0(4);
        assert_eq!(arr.member_for_offset(0), 0);
        assert_eq!(arr.member_for_offset(DEFAULT_STRIPE_BYTES), 1);
        assert_eq!(arr.member_for_offset(DEFAULT_STRIPE_BYTES * 4), 0);
        assert_eq!(arr.member_for_offset(DEFAULT_STRIPE_BYTES * 7), 3);
    }

    #[test]
    fn parallel_members_overlap_service() {
        let mut arr = RaidArray::seagate_raid0(4);
        // Four random reads landing on four different members all start at 0.
        let mut finishes = Vec::new();
        for i in 0..4u64 {
            let c = arr.submit(&IoRequest::random_page_read(i * DEFAULT_STRIPE_BYTES), 0);
            assert_eq!(c.wait, 0);
            finishes.push(c.finish);
        }
        // All serviced in parallel: same finish time.
        assert!(finishes.iter().all(|&f| f == finishes[0]));
    }

    #[test]
    fn same_member_requests_serialize() {
        let mut arr = RaidArray::seagate_raid0(4);
        let a = arr.submit(&IoRequest::random_page_read(0), 0);
        let b = arr.submit(&IoRequest::random_page_read(4096), 0);
        // Offsets 0 and 4096 are in the same 64 KiB stripe -> same member.
        assert_eq!(b.start, a.finish);
    }

    #[test]
    fn aggregate_iops_scales_with_width() {
        // Issue a fixed random-read workload with high concurrency and check
        // the array-level throughput scales roughly with member count.
        let run = |n: usize| -> f64 {
            let mut arr = RaidArray::seagate_raid0(n);
            let requests = 4000;
            // 16 concurrent streams.
            let mut client_time = [0u64; 16];
            let mut rng_off = 0u64;
            for i in 0..requests {
                let c = i % 16;
                rng_off = rng_off.wrapping_mul(6364136223846793005).wrapping_add(1);
                let off = (rng_off % (1 << 30)) & !0xFFF;
                let comp = arr.submit(&IoRequest::random_page_read(off), client_time[c]);
                client_time[c] = comp.finish;
            }
            let elapsed = *client_time.iter().max().unwrap();
            requests as f64 / (elapsed as f64 / NANOS_PER_SEC as f64)
        };
        let iops4 = run(4);
        let iops8 = run(8);
        let iops16 = run(16);
        assert!(iops8 > iops4 * 1.5, "iops4={iops4} iops8={iops8}");
        assert!(iops16 > iops8 * 1.4, "iops8={iops8} iops16={iops16}");
        // Single-disk random read is ~409 IOPS; 8 disks should be in the
        // neighbourhood of the measured 2598 IOPS (within a loose band, since
        // striping balance is probabilistic).
        assert!(iops8 > 1800.0 && iops8 < 3400.0, "iops8={iops8}");
    }

    #[test]
    fn utilization_is_mean_member_utilization() {
        let mut arr = RaidArray::seagate_raid0(2);
        // Busy member 0 for ~1s of service.
        let mut t = 0;
        for _ in 0..409 {
            let c = arr.submit(&IoRequest::random_page_read(0), t);
            t = c.finish;
        }
        let elapsed = t;
        let u = arr.utilization(elapsed);
        assert!((u - 0.5).abs() < 0.05, "u={u}");
    }

    #[test]
    fn reset_clears_members() {
        let mut arr = RaidArray::seagate_raid0(2);
        arr.submit(&IoRequest::random_page_read(0), 0);
        assert_eq!(arr.aggregate_stats().total_ops(), 1);
        arr.reset_stats();
        assert_eq!(arr.aggregate_stats().total_ops(), 0);
        // Statistics reset, queue kept: a request issued at 0 still waits.
        assert!(arr.submit(&IoRequest::random_page_read(0), 0).wait > 0);
        arr.reset();
        assert_eq!(arr.submit(&IoRequest::random_page_read(0), 0).wait, 0);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_width_array_rejected() {
        let _ = RaidArray::seagate_raid0(0);
    }
}
