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
//! [`IoSystem`] holds one [`RaidArray`] per role. The workload driver
//! (`face_engine::sim`) keeps the closed population of clients (50 in the
//! paper) and their clocks: it picks the earliest-ready client, executes one
//! transaction's logical page accesses, and charges each resulting physical
//! I/O to the proper role at the client's current virtual time. Device
//! queueing, overlap between clients, utilisation and the location of the
//! bottleneck all emerge from this model.

use crate::device::DeviceStats;
use crate::raid::RaidArray;
use crate::request::IoRequest;
use crate::{SimDuration, SimInstant};

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
#[derive(Debug)]
pub struct IoSystem {
    data: RaidArray,
    flash: Option<RaidArray>,
    log: RaidArray,
}

impl IoSystem {
    /// The data array, the flash cache device if there is one, and the log
    /// device.
    pub fn new(data: RaidArray, flash: Option<RaidArray>, log: RaidArray) -> Self {
        Self { data, flash, log }
    }

    fn array(&self, role: Role) -> Option<&RaidArray> {
        match role {
            Role::Data => Some(&self.data),
            Role::Flash => self.flash.as_ref(),
            Role::Log => Some(&self.log),
        }
    }

    /// Submit a request to the device in the given role at `issue_time`;
    /// returns the instant it finishes.
    ///
    /// # Panics
    /// Panics if `role` is [`Role::Flash`] and no flash device is configured.
    pub fn submit(&mut self, role: Role, req: &IoRequest, issue_time: SimInstant) -> SimInstant {
        let array = match role {
            Role::Data => &mut self.data,
            Role::Flash => self
                .flash
                .as_mut()
                .expect("no flash cache device configured"),
            Role::Log => &mut self.log,
        };
        array.submit(req, issue_time)
    }

    /// Statistics of a role (zeroed if the role is absent).
    pub fn stats(&self, role: Role) -> DeviceStats {
        self.array(role).map(RaidArray::stats).unwrap_or_default()
    }

    /// Utilisation of a role over a window (0.0 if the role is absent).
    pub fn utilization(&self, role: Role, elapsed: SimDuration) -> f64 {
        self.array(role).map_or(0.0, |a| a.utilization(elapsed))
    }

    /// Zero the statistics of every device (used at the start of a
    /// measurement window, after warm-up); queues are kept.
    pub fn reset_stats(&mut self) {
        self.data.reset_stats();
        if let Some(f) = &mut self.flash {
            f.reset_stats();
        }
        self.log.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DeviceProfile;
    use crate::request::OpClass;

    fn system(data: RaidArray, flash: Option<DeviceProfile>) -> IoSystem {
        IoSystem::new(
            data,
            flash.map(|p| RaidArray::new(p, 1)),
            RaidArray::new(DeviceProfile::seagate_15k(), 1),
        )
    }

    fn disks(n: usize) -> RaidArray {
        RaidArray::new(DeviceProfile::seagate_15k(), n)
    }

    #[test]
    fn submit_routes_by_role() {
        let mut sys = system(disks(8), Some(DeviceProfile::samsung470_mlc()));
        let finish = sys.submit(Role::Flash, &IoRequest::random_page_read(0), 0);
        assert!(finish > 0);
        assert_eq!(sys.stats(Role::Flash).bytes, 4096);
        assert_eq!(sys.stats(Role::Data).bytes, 0);

        sys.submit(Role::Data, &IoRequest::random_page_read(0), 0);
        sys.submit(Role::Log, &IoRequest::sequential_write(0, 8192), 0);
        assert_eq!(sys.stats(Role::Data).bytes, 4096);
        assert_eq!(sys.stats(Role::Log).bytes, 8192);
    }

    #[test]
    #[should_panic(expected = "no flash cache device")]
    fn flash_submit_without_flash_panics() {
        let mut sys = system(disks(8), None);
        sys.submit(Role::Flash, &IoRequest::random_page_read(0), 0);
    }

    #[test]
    fn reset_stats_keeps_queues() {
        let mut sys = system(disks(8), Some(DeviceProfile::samsung470_mlc()));
        let first = sys.submit(Role::Data, &IoRequest::random_page_read(0), 0);
        sys.reset_stats();
        assert_eq!(sys.stats(Role::Data), DeviceStats::default());
        assert_eq!(
            sys.submit(Role::Data, &IoRequest::random_page_read(0), 0),
            2 * first
        );
    }

    #[test]
    fn ssd_only_configuration() {
        let mut sys = system(RaidArray::new(DeviceProfile::samsung470_mlc(), 1), None);
        let finish = sys.submit(Role::Data, &IoRequest::random_page_read(0), 0);
        // SSD random read should be far below 1 ms.
        assert!(finish < 200_000, "service = {finish}");
    }

    #[test]
    fn concurrent_clients_overlap_on_parallel_devices() {
        // With 8 spindles and 8 clients doing random reads, the makespan
        // should be far below the serial sum of service times.
        let mut sys = system(disks(8), None);
        let service = DeviceProfile::seagate_15k().service_time(OpClass::RandomRead, 4096);
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
            ready[c] = sys.submit(Role::Data, &IoRequest::random_page_read(off), at);
            serial_time += service;
        }
        let makespan = *ready.iter().max().unwrap();
        assert!(
            (makespan as f64) < 0.4 * serial_time as f64,
            "makespan {makespan} vs serial {serial_time}"
        );
    }
}
