//! RAID-0 striping over N member devices.
//!
//! The paper's testbed stores the database on an 8-disk RAID-0 array of
//! 15k-RPM drives, and Figure 5 varies the number of spindles from 4 to 16.
//! Modelling the array as N independent queueing servers with requests routed
//! by stripe reproduces both the aggregate random-IOPS scaling (Table 1 shows
//! the 8-disk array at ~6.3x a single disk) and the throughput scaling of
//! Figure 5. A single device is an array of one.

use crate::device::{Device, DeviceStats};
use crate::profile::DeviceProfile;
use crate::request::IoRequest;
use crate::{SimDuration, SimInstant};

/// Stripe size: 64 KiB, a common hardware-RAID default.
const STRIPE_BYTES: u64 = 64 * 1024;

/// A RAID-0 array of identical member devices.
#[derive(Debug)]
pub struct RaidArray {
    members: Vec<Device>,
}

impl RaidArray {
    /// An array of `n` members with the given per-member profile.
    pub fn new(member_profile: DeviceProfile, n: usize) -> Self {
        assert!(n >= 1, "a RAID array needs at least one member");
        Self {
            members: vec![Device::new(member_profile); n],
        }
    }

    /// The member servicing a given byte offset.
    fn member_for_offset(&self, offset: u64) -> usize {
        ((offset / STRIPE_BYTES) % self.members.len() as u64) as usize
    }

    /// Submit a request; it is routed to the member that owns the starting
    /// stripe, and the instant it finishes is returned. Requests larger than
    /// a stripe are still serviced by a single member — OLTP requests are
    /// 4 KiB pages, far below the stripe size.
    pub fn submit(&mut self, req: &IoRequest, issue_time: SimInstant) -> SimInstant {
        let idx = self.member_for_offset(req.offset);
        self.members[idx].submit(req, issue_time)
    }

    /// Statistics summed over the members.
    pub fn stats(&self) -> DeviceStats {
        self.members
            .iter()
            .fold(DeviceStats::default(), |sum, m| DeviceStats {
                busy: sum.busy + m.stats().busy,
                bytes: sum.bytes + m.stats().bytes,
            })
    }

    /// Array utilisation over a window: total member busy time divided by
    /// `width * elapsed` (i.e. the mean member utilisation), at most 1.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        let busy: u128 = self.members.iter().map(|m| m.stats().busy as u128).sum();
        let cap = elapsed as u128 * self.members.len() as u128;
        (busy as f64 / cap as f64).min(1.0)
    }

    /// Zero every member's statistics (queues are kept).
    pub fn reset_stats(&mut self) {
        for m in &mut self.members {
            m.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::OpClass;
    use crate::NANOS_PER_SEC;

    fn seagate_raid0(n: usize) -> RaidArray {
        RaidArray::new(DeviceProfile::seagate_15k(), n)
    }

    fn read_service() -> SimDuration {
        DeviceProfile::seagate_15k().service_time(OpClass::RandomRead, 4096)
    }

    #[test]
    fn striping_routes_by_offset() {
        let arr = seagate_raid0(4);
        assert_eq!(arr.member_for_offset(0), 0);
        assert_eq!(arr.member_for_offset(STRIPE_BYTES), 1);
        assert_eq!(arr.member_for_offset(STRIPE_BYTES * 4), 0);
        assert_eq!(arr.member_for_offset(STRIPE_BYTES * 7), 3);
    }

    #[test]
    fn parallel_members_overlap_service() {
        let mut arr = seagate_raid0(4);
        // Four random reads landing on four different members are all
        // serviced at once: none waits.
        for i in 0..4u64 {
            let finish = arr.submit(&IoRequest::random_page_read(i * STRIPE_BYTES), 0);
            assert_eq!(finish, read_service());
        }
    }

    #[test]
    fn same_member_requests_serialize() {
        let mut arr = seagate_raid0(4);
        let a = arr.submit(&IoRequest::random_page_read(0), 0);
        let b = arr.submit(&IoRequest::random_page_read(4096), 0);
        // Offsets 0 and 4096 are in the same 64 KiB stripe -> same member.
        assert_eq!(b, a + read_service());
    }

    #[test]
    fn aggregate_iops_scales_with_width() {
        // Issue a fixed random-read workload with high concurrency and check
        // the array-level throughput scales roughly with member count.
        let run = |n: usize| -> f64 {
            let mut arr = seagate_raid0(n);
            let requests = 4000;
            // 16 concurrent streams.
            let mut client_time = [0u64; 16];
            let mut rng_off = 0u64;
            for i in 0..requests {
                let c = i % 16;
                rng_off = rng_off.wrapping_mul(6364136223846793005).wrapping_add(1);
                let off = (rng_off % (1 << 30)) & !0xFFF;
                client_time[c] = arr.submit(&IoRequest::random_page_read(off), client_time[c]);
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
        let mut arr = seagate_raid0(2);
        // Busy member 0 for ~1s of service.
        let mut t = 0;
        for _ in 0..409 {
            t = arr.submit(&IoRequest::random_page_read(0), t);
        }
        let u = arr.utilization(t);
        assert!((u - 0.5).abs() < 0.05, "u={u}");
        // Clamped to fully busy; a zero window yields zero, not NaN.
        assert_eq!(arr.utilization(t / 4), 1.0);
        assert_eq!(arr.utilization(0), 0.0);
    }

    #[test]
    fn reset_stats_clears_members_and_keeps_queues() {
        let mut arr = seagate_raid0(2);
        let first = arr.submit(&IoRequest::random_page_read(0), 0);
        assert_eq!(
            arr.stats(),
            DeviceStats {
                busy: first,
                bytes: 4096
            }
        );
        arr.reset_stats();
        assert_eq!(arr.stats(), DeviceStats::default());
        // Statistics reset, queue kept: a request issued at 0 still waits.
        assert_eq!(arr.submit(&IoRequest::random_page_read(0), 0), 2 * first);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_width_array_rejected() {
        let _ = seagate_raid0(0);
    }
}
