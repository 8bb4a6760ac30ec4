//! A single simulated device modelled as a FIFO queueing server.

use crate::profile::DeviceProfile;
use crate::request::IoRequest;
use crate::{duration_to_secs, SimDuration, SimInstant, PAGE_SIZE};

/// What a device (or an array of them) did since its statistics were last
/// reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Time spent servicing requests.
    pub busy: SimDuration,
    /// Bytes transferred.
    pub bytes: u64,
}

impl DeviceStats {
    /// Operations per second over an elapsed window, counting every request
    /// as its 4 KiB-page equivalents (the paper's Table 4(b) reports
    /// "throughput of 4KB-page I/O operations").
    pub fn page_iops(&self, elapsed: SimDuration) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        let pages = self.bytes as f64 / PAGE_SIZE as f64;
        pages / duration_to_secs(elapsed)
    }
}

/// A single device: one queueing server with Table 1-calibrated service
/// times. A request starts when both it has been issued and every earlier
/// request has finished.
#[derive(Debug, Clone)]
pub(crate) struct Device {
    profile: DeviceProfile,
    next_free: SimInstant,
    stats: DeviceStats,
}

impl Device {
    /// An idle device with the given calibration profile.
    pub(crate) fn new(profile: DeviceProfile) -> Self {
        Self {
            profile,
            next_free: 0,
            stats: DeviceStats::default(),
        }
    }

    /// Statistics since the last `reset_stats`.
    pub(crate) fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Submit a request at `issue_time`; returns the instant it finishes.
    pub(crate) fn submit(&mut self, req: &IoRequest, issue_time: SimInstant) -> SimInstant {
        let service = self.profile.service_time(req.class(), req.len);
        let finish = issue_time.max(self.next_free) + service;
        self.next_free = finish;
        self.stats.busy += service;
        self.stats.bytes += req.len as u64;
        finish
    }

    /// Zero the statistics. The queue is kept: requests already submitted
    /// still occupy the device.
    pub(crate) fn reset_stats(&mut self) {
        self.stats = DeviceStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::OpClass;
    use crate::NANOS_PER_SEC;

    fn ssd() -> Device {
        Device::new(DeviceProfile::samsung470_mlc())
    }

    fn disk() -> Device {
        Device::new(DeviceProfile::seagate_15k())
    }

    #[test]
    fn idle_device_services_immediately() {
        let mut d = ssd();
        let service = DeviceProfile::samsung470_mlc().service_time(OpClass::RandomRead, 4096);
        assert!(service > 0);
        assert_eq!(
            d.submit(&IoRequest::random_page_read(0), 1_000),
            1_000 + service
        );
    }

    #[test]
    fn busy_device_queues_requests() {
        let mut d = disk();
        let service = DeviceProfile::seagate_15k().service_time(OpClass::RandomRead, 4096);
        let a = d.submit(&IoRequest::random_page_read(0), 0);
        let b = d.submit(&IoRequest::random_page_read(4096 * 100), 0);
        assert_eq!(a, service);
        assert_eq!(b, a + service);
        // A request issued after the queue drained starts at once.
        assert_eq!(
            d.submit(&IoRequest::random_page_read(0), 10 * b),
            10 * b + service
        );
    }

    #[test]
    fn sequential_writes_much_faster_than_random_on_flash() {
        let rnd = ssd().submit(&IoRequest::random_page_write(0), 0);
        let seq = ssd().submit(&IoRequest::sequential_write(0, 4096), 0);
        // 4KB random write ~158us vs sequential ~17+20us.
        assert!(rnd > 3 * seq, "random {rnd} vs sequential {seq}");
    }

    #[test]
    fn flash_random_read_much_faster_than_disk() {
        let fs = ssd().submit(&IoRequest::random_page_read(0), 0);
        let hd = disk().submit(&IoRequest::random_page_read(0), 0);
        // ~35us vs ~2.4ms: more than 50x.
        assert!(hd > 50 * fs);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut d = ssd();
        let mut finish = 0;
        for i in 0..10 {
            finish = d.submit(&IoRequest::random_page_read(i * (1 << 20)), 0);
        }
        assert_eq!(d.stats().busy, finish);
        assert_eq!(d.stats().bytes, 10 * 4096);
        d.reset_stats();
        assert_eq!(d.stats(), DeviceStats::default());
        // The queue survives the reset: a request issued at 0 still waits.
        assert!(d.submit(&IoRequest::random_page_read(0), 0) > finish);
    }

    #[test]
    fn writes_and_reads_classified_independently() {
        let p = DeviceProfile::seagate_15k();
        let mut d = disk();
        let w = d.submit(&IoRequest::random_page_write(0), 0);
        assert_eq!(w, p.service_time(OpClass::RandomWrite, 4096));
        let r = d.submit(&IoRequest::sequential_read(4096, 8192), w);
        assert_eq!(r - w, p.service_time(OpClass::SequentialRead, 8192));
    }

    #[test]
    fn page_iops_counts_large_requests_as_multiple_pages() {
        let s = DeviceStats {
            busy: 1_000_000,
            bytes: 16 * 4096,
        };
        assert!((s.page_iops(NANOS_PER_SEC) - 16.0).abs() < 1e-9);
        assert!((s.page_iops(2 * NANOS_PER_SEC) - 8.0).abs() < 1e-9);
        // A zero window yields zero, not NaN.
        assert_eq!(s.page_iops(0), 0.0);
    }
}
