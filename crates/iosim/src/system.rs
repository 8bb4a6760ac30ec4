//! The set of devices used by one experiment.
//!
//! The paper's testbed has three I/O roles:
//!
//! * **Data** — the database files, on the RAID-0 disk array (HDD-only,
//!   LC, FaCE) or on a flash SSD (SSD-only).
//! * **Flash** — the flash cache extension, on an MLC or SLC SSD. Absent in
//!   the HDD-only and SSD-only configurations.
//! * **Log** — the WAL device. The paper keeps the log on the disk array;
//!   commit-time log forces are sequential appends.
//!
//! [`IoSystem`] owns one [`IoTarget`] per role and a shared virtual clock.
//! The workload driver (`face_engine::sim`) keeps the closed population of
//! clients (50 in the paper): it picks the earliest-ready client, executes
//! one transaction's logical page accesses, and charges each resulting
//! physical I/O to the proper role at the client's current virtual time.
//! Device queueing, overlap between clients, utilisation and the location of
//! the bottleneck all emerge from this model.

use crate::clock::{SimClock, SimDuration, SimInstant};
use crate::device::{Completion, Device, DeviceId};
use crate::profile::DeviceProfile;
use crate::raid::RaidArray;
use crate::request::IoRequest;
use crate::stats::{DeviceStats, StatsSnapshot};

/// Anything that can service I/O requests: a single device or a RAID array.
pub trait IoTarget: Send {
    /// Display name for reports.
    fn name(&self) -> &str;
    /// Submit a request at `issue_time`; returns service start/finish.
    fn submit(&mut self, req: &IoRequest, issue_time: SimInstant) -> Completion;
    /// Aggregate statistics since the last reset.
    fn aggregate_stats(&self) -> DeviceStats;
    /// Utilisation over an elapsed window.
    fn utilization(&self, elapsed: SimDuration) -> f64;
    /// Reset statistics but keep queue state.
    fn reset_stats(&mut self);
    /// Reset statistics and queue state.
    fn reset(&mut self);
}

impl IoTarget for Device {
    fn name(&self) -> &str {
        &self.profile().name
    }
    fn submit(&mut self, req: &IoRequest, issue_time: SimInstant) -> Completion {
        Device::submit(self, req, issue_time)
    }
    fn aggregate_stats(&self) -> DeviceStats {
        self.stats().clone()
    }
    fn utilization(&self, elapsed: SimDuration) -> f64 {
        self.stats().utilization(elapsed)
    }
    fn reset_stats(&mut self) {
        Device::reset_stats(self);
    }
    fn reset(&mut self) {
        Device::reset(self);
    }
}

impl IoTarget for RaidArray {
    fn name(&self) -> &str {
        RaidArray::name(self)
    }
    fn submit(&mut self, req: &IoRequest, issue_time: SimInstant) -> Completion {
        RaidArray::submit(self, req, issue_time)
    }
    fn aggregate_stats(&self) -> DeviceStats {
        RaidArray::aggregate_stats(self)
    }
    fn utilization(&self, elapsed: SimDuration) -> f64 {
        RaidArray::utilization(self, elapsed)
    }
    fn reset_stats(&mut self) {
        RaidArray::reset_stats(self);
    }
    fn reset(&mut self) {
        RaidArray::reset(self);
    }
}

/// The role a device plays in the storage hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Database files.
    Data,
    /// Flash cache extension.
    Flash,
    /// Write-ahead log.
    Log,
}

/// The full I/O subsystem of one experiment.
pub struct IoSystem {
    clock: SimClock,
    data: Box<dyn IoTarget>,
    flash: Option<Box<dyn IoTarget>>,
    log: Box<dyn IoTarget>,
}

impl IoSystem {
    /// Start building an [`IoSystem`].
    pub fn builder() -> IoSystemBuilder {
        IoSystemBuilder::default()
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Submit a request to the device in the given role at `issue_time`.
    ///
    /// # Panics
    /// Panics if `role` is [`Role::Flash`] and no flash device is configured.
    pub fn submit(&mut self, role: Role, req: &IoRequest, issue_time: SimInstant) -> Completion {
        let completion = match role {
            Role::Data => self.data.submit(req, issue_time),
            Role::Log => self.log.submit(req, issue_time),
            Role::Flash => self
                .flash
                .as_mut()
                .expect("no flash cache device configured")
                .submit(req, issue_time),
        };
        self.clock.advance_to(completion.finish);
        completion
    }

    /// The target serving a role, if present.
    pub fn target(&self, role: Role) -> Option<&dyn IoTarget> {
        match role {
            Role::Data => Some(self.data.as_ref()),
            Role::Log => Some(self.log.as_ref()),
            Role::Flash => self.flash.as_deref(),
        }
    }

    /// Aggregate statistics for a role (zeroed stats if the role is absent).
    pub fn stats(&self, role: Role) -> DeviceStats {
        self.target(role)
            .map(|t| t.aggregate_stats())
            .unwrap_or_default()
    }

    /// Utilisation of a role over a window (0.0 if the role is absent).
    pub fn utilization(&self, role: Role, elapsed: SimDuration) -> f64 {
        self.target(role)
            .map(|t| t.utilization(elapsed))
            .unwrap_or(0.0)
    }

    /// Snapshots of all configured devices over a window.
    pub fn snapshots(&self, elapsed: SimDuration) -> Vec<StatsSnapshot> {
        let mut v = Vec::with_capacity(3);
        v.push(
            self.data
                .aggregate_stats()
                .snapshot(self.data.name(), elapsed),
        );
        if let Some(f) = &self.flash {
            v.push(f.aggregate_stats().snapshot(f.name(), elapsed));
        }
        v.push(
            self.log
                .aggregate_stats()
                .snapshot(self.log.name(), elapsed),
        );
        v
    }

    /// Reset statistics on every device (used at the start of a measurement
    /// window, after warm-up).
    pub fn reset_stats(&mut self) {
        self.data.reset_stats();
        if let Some(f) = &mut self.flash {
            f.reset_stats();
        }
        self.log.reset_stats();
    }

    /// Reset everything including queue state and the clock.
    pub fn reset(&mut self) {
        self.data.reset();
        if let Some(f) = &mut self.flash {
            f.reset();
        }
        self.log.reset();
        self.clock.reset();
    }
}

impl std::fmt::Debug for IoSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoSystem")
            .field("data", &self.data.name())
            .field("flash", &self.flash.as_ref().map(|d| d.name().to_string()))
            .field("log", &self.log.name())
            .field("clock", &self.clock)
            .finish()
    }
}

/// Builder for [`IoSystem`].
pub struct IoSystemBuilder {
    clock: SimClock,
    data: Option<Box<dyn IoTarget>>,
    flash: Option<Box<dyn IoTarget>>,
    log: Option<Box<dyn IoTarget>>,
}

impl Default for IoSystemBuilder {
    fn default() -> Self {
        Self {
            clock: SimClock::new(),
            data: None,
            flash: None,
            log: None,
        }
    }
}

impl IoSystemBuilder {
    /// Use an existing clock (shared with other components).
    pub fn clock(mut self, clock: SimClock) -> Self {
        self.clock = clock;
        self
    }

    /// Put the database on a RAID-0 array of `n` Seagate 15K.6 disks.
    pub fn data_on_disk_array(mut self, n: usize) -> Self {
        self.data = Some(Box::new(RaidArray::seagate_raid0(n)));
        self
    }

    /// Put the database on a single device with the given profile
    /// (used by the SSD-only configuration).
    pub fn data_on_device(mut self, profile: DeviceProfile) -> Self {
        self.data = Some(Box::new(Device::new(DeviceId(100), profile)));
        self
    }

    /// Add a flash-cache device with the given profile.
    pub fn flash_device(mut self, profile: DeviceProfile) -> Self {
        self.flash = Some(Box::new(Device::new(DeviceId(200), profile)));
        self
    }

    /// Put the log on a single device with the given profile.
    pub fn log_device(mut self, profile: DeviceProfile) -> Self {
        self.log = Some(Box::new(Device::new(DeviceId(300), profile)));
        self
    }

    /// Finish building. Defaults: data on an 8-disk array, no flash, log on a
    /// single Seagate disk.
    pub fn build(self) -> IoSystem {
        IoSystem {
            clock: self.clock,
            data: self
                .data
                .unwrap_or_else(|| Box::new(RaidArray::seagate_raid0(8))),
            flash: self.flash,
            log: self.log.unwrap_or_else(|| {
                Box::new(Device::new(DeviceId(300), DeviceProfile::seagate_15k()))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::IoRequest;

    fn face_system() -> IoSystem {
        IoSystem::builder()
            .data_on_disk_array(8)
            .flash_device(DeviceProfile::samsung470_mlc())
            .log_device(DeviceProfile::seagate_15k())
            .build()
    }

    #[test]
    fn builder_defaults() {
        let sys = IoSystem::builder().build();
        assert!(sys.target(Role::Flash).is_none());
        assert!(sys.target(Role::Data).is_some());
        assert!(sys.target(Role::Log).is_some());
    }

    #[test]
    fn submit_routes_by_role_and_advances_clock() {
        let mut sys = face_system();
        assert!(sys.target(Role::Flash).is_some());
        let c = sys.submit(Role::Flash, &IoRequest::random_page_read(0), 0);
        assert!(c.finish > 0);
        assert!(sys.clock().now() >= c.finish);
        assert_eq!(sys.stats(Role::Flash).total_ops(), 1);
        assert_eq!(sys.stats(Role::Data).total_ops(), 0);

        sys.submit(Role::Data, &IoRequest::random_page_read(0), 0);
        sys.submit(Role::Log, &IoRequest::sequential_write(0, 4096), 0);
        assert_eq!(sys.stats(Role::Data).total_ops(), 1);
        assert_eq!(sys.stats(Role::Log).total_ops(), 1);
    }

    #[test]
    #[should_panic(expected = "no flash cache device")]
    fn flash_submit_without_flash_panics() {
        let mut sys = IoSystem::builder().build();
        sys.submit(Role::Flash, &IoRequest::random_page_read(0), 0);
    }

    #[test]
    fn snapshots_cover_configured_devices() {
        let mut sys = face_system();
        sys.submit(Role::Data, &IoRequest::random_page_read(0), 0);
        let snaps = sys.snapshots(1_000_000_000);
        assert_eq!(snaps.len(), 3);
        let hdd_only = IoSystem::builder().build();
        assert_eq!(hdd_only.snapshots(1).len(), 2);
    }

    #[test]
    fn reset_stats_keeps_queue_reset_clears_clock() {
        let mut sys = face_system();
        sys.submit(Role::Data, &IoRequest::random_page_read(0), 0);
        sys.reset_stats();
        assert_eq!(sys.stats(Role::Data).total_ops(), 0);
        assert!(sys.clock().now() > 0);
        sys.reset();
        assert_eq!(sys.clock().now(), 0);
    }

    #[test]
    fn ssd_only_configuration() {
        let mut sys = IoSystem::builder()
            .data_on_device(DeviceProfile::samsung470_mlc())
            .log_device(DeviceProfile::seagate_15k())
            .build();
        let c = sys.submit(Role::Data, &IoRequest::random_page_read(0), 0);
        // SSD random read should be far below 1 ms.
        assert!(c.service < 200_000, "service = {}", c.service);
    }

    #[test]
    fn concurrent_clients_overlap_on_parallel_devices() {
        // With 8 spindles and 8 clients doing random reads, the makespan
        // should be far below the serial sum of service times.
        let mut sys = IoSystem::builder().data_on_disk_array(8).build();
        let mut ready: Vec<SimInstant> = vec![0; 8];
        let per_client_reads = 50;
        let mut serial_time = 0u64;
        let mut offset = 0u64;
        for _ in 0..(8 * per_client_reads) {
            let (c, &at) = ready.iter().enumerate().min_by_key(|(_, &t)| t).unwrap();
            offset = offset
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            let off = (offset % (1u64 << 34)) & !0xFFF;
            let comp = sys.submit(Role::Data, &IoRequest::random_page_read(off), at);
            serial_time += comp.service;
            ready[c] = comp.finish;
        }
        let makespan = *ready.iter().max().unwrap();
        assert!(
            (makespan as f64) < 0.4 * serial_time as f64,
            "makespan {makespan} vs serial {serial_time}"
        );
    }
}
