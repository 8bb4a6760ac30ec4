//! Per-device statistics: operation counts, bytes, busy time, utilisation.

use serde::{Deserialize, Serialize};

use crate::clock::{duration_to_secs, SimDuration, SimInstant};
use crate::request::IoOp;

/// The four operation classes whose costs differ on flash devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Random read.
    RandomRead,
    /// Random write.
    RandomWrite,
    /// Sequential read.
    SequentialRead,
    /// Sequential write.
    SequentialWrite,
}

impl OpClass {
    /// All four classes, for iteration in reports.
    pub const ALL: [OpClass; 4] = [
        OpClass::RandomRead,
        OpClass::RandomWrite,
        OpClass::SequentialRead,
        OpClass::SequentialWrite,
    ];

    /// Build a class from an op and a sequentiality decision.
    pub fn from_op(op: IoOp, sequential: bool) -> Self {
        match (op, sequential) {
            (IoOp::Read, false) => OpClass::RandomRead,
            (IoOp::Write, false) => OpClass::RandomWrite,
            (IoOp::Read, true) => OpClass::SequentialRead,
            (IoOp::Write, true) => OpClass::SequentialWrite,
        }
    }

    /// `true` for the two read classes.
    pub fn is_read(self) -> bool {
        matches!(self, OpClass::RandomRead | OpClass::SequentialRead)
    }

    /// `true` for the two write classes.
    pub fn is_write(self) -> bool {
        !self.is_read()
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::RandomRead => "rand_read",
            OpClass::RandomWrite => "rand_write",
            OpClass::SequentialRead => "seq_read",
            OpClass::SequentialWrite => "seq_write",
        }
    }

    fn index(self) -> usize {
        match self {
            OpClass::RandomRead => 0,
            OpClass::RandomWrite => 1,
            OpClass::SequentialRead => 2,
            OpClass::SequentialWrite => 3,
        }
    }
}

/// Mutable statistics accumulated by a device during a run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DeviceStats {
    ops: [u64; 4],
    bytes: [u64; 4],
    busy: SimDuration,
    queue_wait: SimDuration,
    max_queue_wait: SimDuration,
}

impl DeviceStats {
    /// A fresh, zeroed statistics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed operation.
    pub fn record(&mut self, class: OpClass, bytes: u32, service: SimDuration, wait: SimDuration) {
        let i = class.index();
        self.ops[i] += 1;
        self.bytes[i] += bytes as u64;
        self.busy += service;
        self.queue_wait += wait;
        self.max_queue_wait = self.max_queue_wait.max(wait);
    }

    /// Number of operations of one class.
    pub fn ops(&self, class: OpClass) -> u64 {
        self.ops[class.index()]
    }

    /// Total operations across all classes.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Bytes transferred for one class.
    pub fn bytes(&self, class: OpClass) -> u64 {
        self.bytes[class.index()]
    }

    /// Total bytes transferred.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.bytes(OpClass::RandomWrite) + self.bytes(OpClass::SequentialWrite)
    }

    /// Total bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.bytes(OpClass::RandomRead) + self.bytes(OpClass::SequentialRead)
    }

    /// Total time the device was servicing requests.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Longest single queueing delay.
    pub fn max_queue_wait(&self) -> SimDuration {
        self.max_queue_wait
    }

    /// Utilisation over an elapsed window: busy time / elapsed.
    /// Clamped to 1.0 (a device cannot be more than fully busy).
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            (self.busy as f64 / elapsed as f64).min(1.0)
        }
    }

    /// Operations per second over an elapsed window, counting every request
    /// as its 4 KiB-page equivalents (the paper's Table 4(b) reports
    /// "throughput of 4KB-page I/O operations").
    pub fn page_iops(&self, elapsed: SimDuration) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        let pages = self.total_bytes() as f64 / crate::PAGE_SIZE as f64;
        pages / duration_to_secs(elapsed)
    }

    /// Plain operations per second over an elapsed window.
    pub fn iops(&self, elapsed: SimDuration) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        self.total_ops() as f64 / duration_to_secs(elapsed)
    }

    /// Reset all counters to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Merge another statistics block into this one (used to aggregate the
    /// member disks of a RAID array).
    pub fn merge(&mut self, other: &DeviceStats) {
        for i in 0..4 {
            self.ops[i] += other.ops[i];
            self.bytes[i] += other.bytes[i];
        }
        self.busy += other.busy;
        self.queue_wait += other.queue_wait;
        self.max_queue_wait = self.max_queue_wait.max(other.max_queue_wait);
    }

    /// Snapshot this statistics block together with a device name and window.
    pub fn snapshot(&self, device: &str, elapsed: SimDuration) -> StatsSnapshot {
        StatsSnapshot {
            device: device.to_string(),
            elapsed_secs: duration_to_secs(elapsed),
            random_reads: self.ops(OpClass::RandomRead),
            random_writes: self.ops(OpClass::RandomWrite),
            sequential_reads: self.ops(OpClass::SequentialRead),
            sequential_writes: self.ops(OpClass::SequentialWrite),
            bytes_read: self.bytes_read(),
            bytes_written: self.bytes_written(),
            busy_secs: duration_to_secs(self.busy),
            utilization: self.utilization(elapsed),
            page_iops: self.page_iops(elapsed),
            avg_queue_wait_secs: if self.total_ops() == 0 {
                0.0
            } else {
                duration_to_secs(self.queue_wait) / self.total_ops() as f64
            },
        }
    }
}

/// An immutable, serialisable summary of a device's activity over a window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Device name.
    pub device: String,
    /// Window length in seconds.
    pub elapsed_secs: f64,
    /// Random read count.
    pub random_reads: u64,
    /// Random write count.
    pub random_writes: u64,
    /// Sequential read count.
    pub sequential_reads: u64,
    /// Sequential write count.
    pub sequential_writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Busy time in seconds.
    pub busy_secs: f64,
    /// busy / elapsed, in [0, 1].
    pub utilization: f64,
    /// 4 KiB-page-equivalent operations per second.
    pub page_iops: f64,
    /// Mean queueing delay per request in seconds.
    pub avg_queue_wait_secs: f64,
}

/// A helper that tracks elapsed time windows for interval reporting
/// (used by the Figure 6 time-series experiment).
#[derive(Debug, Clone, Default)]
pub struct WindowTracker {
    window_start: SimInstant,
}

impl WindowTracker {
    /// Start tracking at time `start`.
    pub fn new(start: SimInstant) -> Self {
        Self {
            window_start: start,
        }
    }

    /// Close the current window at `now` and start a new one.
    /// Returns the length of the closed window.
    pub fn roll(&mut self, now: SimInstant) -> SimDuration {
        let len = now.saturating_sub(self.window_start);
        self.window_start = now;
        len
    }

    /// Start of the current window.
    pub fn window_start(&self) -> SimInstant {
        self.window_start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::NANOS_PER_SEC;

    #[test]
    fn op_class_from_op() {
        assert_eq!(OpClass::from_op(IoOp::Read, false), OpClass::RandomRead);
        assert_eq!(OpClass::from_op(IoOp::Write, false), OpClass::RandomWrite);
        assert_eq!(OpClass::from_op(IoOp::Read, true), OpClass::SequentialRead);
        assert_eq!(
            OpClass::from_op(IoOp::Write, true),
            OpClass::SequentialWrite
        );
    }

    #[test]
    fn op_class_predicates() {
        assert!(OpClass::RandomRead.is_read());
        assert!(!OpClass::RandomRead.is_write());
        assert_eq!(OpClass::ALL.len(), 4);
    }

    #[test]
    fn record_accumulates() {
        let mut s = DeviceStats::new();
        s.record(OpClass::RandomRead, 4096, 1000, 10);
        s.record(OpClass::RandomRead, 4096, 1000, 30);
        s.record(OpClass::SequentialWrite, 65536, 5000, 0);
        assert_eq!(s.ops(OpClass::RandomRead), 2);
        assert_eq!(s.ops(OpClass::SequentialWrite), 1);
        assert_eq!(s.total_ops(), 3);
        assert_eq!(s.bytes_read(), 8192);
        assert_eq!(s.bytes_written(), 65536);
        assert_eq!(s.busy_time(), 7000);
        assert_eq!(s.max_queue_wait(), 30);
    }

    #[test]
    fn utilization_and_iops() {
        let mut s = DeviceStats::new();
        // 1000 random reads of 1ms each = 1s busy.
        for _ in 0..1000 {
            s.record(OpClass::RandomRead, 4096, 1_000_000, 0);
        }
        let elapsed = 2 * NANOS_PER_SEC;
        assert!((s.utilization(elapsed) - 0.5).abs() < 1e-9);
        assert!((s.iops(elapsed) - 500.0).abs() < 1e-6);
        assert!((s.page_iops(elapsed) - 500.0).abs() < 1e-6);
        // Utilisation is clamped.
        assert_eq!(s.utilization(NANOS_PER_SEC / 2), 1.0);
        // Zero window yields zeros, not NaN.
        assert_eq!(s.utilization(0), 0.0);
        assert_eq!(s.iops(0), 0.0);
    }

    #[test]
    fn page_iops_counts_large_requests_as_multiple_pages() {
        let mut s = DeviceStats::new();
        s.record(OpClass::SequentialWrite, 16 * 4096, 1_000_000, 0);
        assert!((s.page_iops(NANOS_PER_SEC) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_reflects_counters() {
        let mut s = DeviceStats::new();
        s.record(OpClass::RandomWrite, 4096, 500_000, 100_000);
        let snap = s.snapshot("ssd", NANOS_PER_SEC);
        assert_eq!(snap.device, "ssd");
        assert_eq!(snap.random_writes, 1);
        assert_eq!(snap.bytes_written, 4096);
        assert!((snap.busy_secs - 0.0005).abs() < 1e-9);
        assert!((snap.avg_queue_wait_secs - 0.0001).abs() < 1e-9);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut s = DeviceStats::new();
        s.record(OpClass::RandomRead, 4096, 1000, 0);
        s.reset();
        assert_eq!(s.total_ops(), 0);
        assert_eq!(s.busy_time(), 0);
    }

    #[test]
    fn window_tracker_rolls() {
        let mut w = WindowTracker::new(100);
        assert_eq!(w.window_start(), 100);
        assert_eq!(w.roll(600), 500);
        assert_eq!(w.window_start(), 600);
        // Rolling backwards yields zero, not underflow.
        assert_eq!(w.roll(500), 0);
    }
}
