//! Trace-driven performance simulation of the paper's testbed.
//!
//! The functional [`crate::Database`] moves real bytes and is used for
//! correctness; this module reproduces the paper's *performance* experiments.
//! It combines
//!
//! * the metadata-only DRAM buffer ([`face_buffer::BufferSim`]),
//! * a real flash-cache policy instance (the same code the functional engine
//!   runs, over a [`face_cache::HeaderFlashStore`] that keeps each slot's
//!   page id and pageLSN but no page bodies), and
//! * the calibrated device models of `face-iosim`
//!
//! and replays logical page-access traces (TPC-C transactions generated by
//! `face-tpcc`) for a closed population of clients. Every physical I/O the
//! policies decide to do is charged to the simulated devices at the issuing
//! client's virtual time, so throughput (tpmC), device utilisation and the
//! location of the bottleneck emerge from the same mechanisms as on the
//! paper's hardware.

use std::collections::HashSet;
use std::sync::Arc;

use face_buffer::BufferSim;
use face_cache::{
    build_cache, CacheConfig, CachePolicyKind, CacheStats, FlashCache, FlashIoEvent,
    HeaderFlashStore, IoLog, NoSupplier, StagedPage,
};
use face_iosim::{
    duration_to_secs, DeviceProfile, IoOp, IoRequest, IoSystem, RaidArray, Role, SimDuration,
    SimInstant, PAGE_SIZE,
};
use face_pagestore::{Lsn, PageId};
use serde::{Deserialize, Serialize};

/// One logical page access inside a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageAccess {
    /// The page touched.
    pub page: PageId,
    /// Whether the access updates the page.
    pub write: bool,
}

impl PageAccess {
    /// A read access.
    pub fn read(page: PageId) -> Self {
        Self { page, write: false }
    }

    /// A write access.
    pub fn write(page: PageId) -> Self {
        Self { page, write: true }
    }
}

/// Configuration of one simulated system (one curve point in the paper's
/// figures).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Database size in pages.
    pub db_pages: u64,
    /// DRAM buffer capacity in page frames.
    pub buffer_frames: usize,
    /// Flash cache policy.
    pub policy: CachePolicyKind,
    /// Flash cache parameters (capacity, group size, ...).
    pub cache_config: CacheConfig,
    /// Profile of the flash caching device (MLC or SLC).
    pub flash_profile: DeviceProfile,
    /// Number of spindles in the data RAID-0 array.
    pub num_disks: usize,
    /// Store the database on the flash device instead of the disk array
    /// (the paper's "SSD only" configuration).
    pub data_on_flash: bool,
    /// Closed client population (50 in the paper).
    pub clients: usize,
    /// CPU cost charged per logical page access, nanoseconds.
    pub cpu_per_access_ns: u64,
    /// Bytes written per commit-time log force.
    pub log_force_bytes: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            db_pages: 1 << 20,
            buffer_frames: 4096,
            policy: CachePolicyKind::FaceGsc,
            cache_config: CacheConfig::default(),
            flash_profile: DeviceProfile::samsung470_mlc(),
            num_disks: 8,
            data_on_flash: false,
            clients: 50,
            cpu_per_access_ns: 20_000,
            log_force_bytes: 4096,
        }
    }
}

/// The outcome of a simulated crash-restart cycle.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimRecoveryReport {
    /// Total restart time in simulated seconds.
    pub restart_secs: f64,
    /// Time spent restoring the flash-cache metadata directory.
    pub metadata_restore_secs: f64,
    /// Redo page fetches served by the flash cache.
    pub pages_from_flash: u64,
    /// Redo page fetches served by the disk array.
    pub pages_from_disk: u64,
    /// Log bytes scanned.
    pub log_bytes_scanned: u64,
}

/// Per-run counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCounters {
    /// Transactions committed (all types).
    pub committed: u64,
    /// NewOrder transactions committed (the tpmC numerator).
    pub committed_new_orders: u64,
    /// Logical page accesses replayed.
    pub accesses: u64,
}

/// The trace-driven simulation engine.
pub struct SimEngine {
    config: SimConfig,
    buffer: BufferSim,
    cache: Option<Box<dyn FlashCache>>,
    io: IoSystem,
    client_ready: Vec<SimInstant>,
    io_log: IoLog,
    counters: SimCounters,
    /// Pages updated since the last checkpoint (the redo working set).
    dirty_since_checkpoint: HashSet<PageId>,
    /// Log volume since the last checkpoint, bytes.
    log_bytes_since_checkpoint: u64,
    /// Start of the current measurement window.
    measure_start: SimInstant,
    counters_at_measure_start: SimCounters,
}

impl SimEngine {
    /// Build a simulated system from its configuration.
    pub fn new(config: SimConfig) -> Self {
        let data = if config.data_on_flash {
            RaidArray::new(config.flash_profile.clone(), 1)
        } else {
            RaidArray::new(DeviceProfile::seagate_15k(), config.num_disks)
        };
        let flash = (config.policy != CachePolicyKind::None)
            .then(|| RaidArray::new(config.flash_profile.clone(), 1));
        let log = RaidArray::new(DeviceProfile::seagate_15k(), 1);
        let io = IoSystem::new(data, flash, log);
        let cache = build_cache(
            config.policy,
            config.cache_config.clone(),
            // Header-only store: a few bytes per slot, enough for recovery's
            // page-header scan to work without materialising page bodies.
            Arc::new(HeaderFlashStore::new(
                config.cache_config.capacity_pages.max(1),
            )),
        );
        Self {
            buffer: BufferSim::new(config.buffer_frames),
            cache,
            io,
            client_ready: vec![0; config.clients.max(1)],
            io_log: IoLog::new(),
            counters: SimCounters::default(),
            dirty_since_checkpoint: HashSet::new(),
            log_bytes_since_checkpoint: 0,
            measure_start: 0,
            counters_at_measure_start: SimCounters::default(),
            config,
        }
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    fn next_client(&self) -> (usize, SimInstant) {
        self.client_ready
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|(_, t)| *t)
            .expect("at least one client")
    }

    fn disk_offset(&self, page: PageId) -> u64 {
        (page.to_u64() % self.config.db_pages) * PAGE_SIZE as u64
    }

    /// Charge every event accumulated in the internal I/O log to the devices,
    /// starting at `t`, serially from the issuing client's point of view.
    /// Returns the time at which the last event completes.
    fn charge_io(&mut self, mut t: SimInstant) -> SimInstant {
        for event in self.io_log.drain() {
            let (role, req) = match event {
                FlashIoEvent::FlashWrite { pages, sequential } => (
                    Role::Flash,
                    IoRequest {
                        op: IoOp::Write,
                        offset: 0,
                        len: pages * PAGE_SIZE as u32,
                        sequential,
                    },
                ),
                FlashIoEvent::FlashRead { pages, sequential } => (
                    Role::Flash,
                    IoRequest {
                        op: IoOp::Read,
                        offset: 0,
                        len: pages * PAGE_SIZE as u32,
                        sequential,
                    },
                ),
                FlashIoEvent::DiskWrite { page } => (
                    Role::Data,
                    IoRequest::random_page_write(self.disk_offset(page)),
                ),
                FlashIoEvent::DiskRead { page } => (
                    Role::Data,
                    IoRequest::random_page_read(self.disk_offset(page)),
                ),
            };
            t = self.io.submit(role, &req, t);
        }
        t
    }

    /// Handle a page evicted from the DRAM buffer at time `t`.
    fn handle_eviction(&mut self, evicted: face_buffer::EvictedMeta, t: SimInstant) -> SimInstant {
        match self.cache.as_mut() {
            Some(cache) => {
                let staged =
                    StagedPage::meta_only(evicted.page, Lsn::ZERO, evicted.dirty, evicted.fdirty);
                // Group Second Chance may pull more dirty pages from the DRAM
                // LRU tail to fill its write batch.
                let buffer = &mut self.buffer;
                let mut supplier = || {
                    buffer
                        .evict_lru_dirty()
                        .map(|e| StagedPage::meta_only(e.page, Lsn::ZERO, e.dirty, e.fdirty))
                };
                // Every disk write the policy decides on (stage-outs, TAC's
                // write-through) is a `DiskWrite` event in the log.
                cache
                    .insert(staged, &mut supplier, &mut self.io_log)
                    .expect("simulated flash (null store) never fails");
                self.charge_io(t)
            }
            None => {
                if evicted.dirty {
                    let req = IoRequest::random_page_write(self.disk_offset(evicted.page));
                    return self.io.submit(Role::Data, &req, t);
                }
                t
            }
        }
    }

    /// Replay one transaction for the earliest-ready client.
    /// `is_new_order` marks transactions counted by tpmC.
    pub fn run_transaction(&mut self, accesses: &[PageAccess], is_new_order: bool) {
        let (client, mut t) = self.next_client();
        for access in accesses {
            self.counters.accesses += 1;
            t += self.config.cpu_per_access_ns;
            let hit = self.buffer.access(access.page, access.write).hit;
            if !hit {
                // DRAM miss: consult the flash cache, then the disk.
                let mut dirty_from_below = false;
                let mut served_by_flash = false;
                if let Some(cache) = self.cache.as_mut() {
                    let fetched = cache
                        .fetch(access.page, &mut self.io_log)
                        .expect("simulated flash (null store) never fails");
                    if let Some(hit) = fetched {
                        dirty_from_below = hit.dirty;
                        served_by_flash = true;
                    }
                }
                t = self.charge_io(t);
                if !served_by_flash {
                    let req = IoRequest::random_page_read(self.disk_offset(access.page));
                    t = self.io.submit(Role::Data, &req, t);
                    if let Some(cache) = self.cache.as_mut() {
                        cache
                            .on_fetched_from_disk(access.page, &mut self.io_log)
                            .expect("simulated flash (null store) never fails");
                    }
                    t = self.charge_io(t);
                }
                if let Some(evicted) =
                    self.buffer
                        .install(access.page, dirty_from_below, access.write)
                {
                    t = self.handle_eviction(evicted, t);
                }
            }
            if access.write {
                self.dirty_since_checkpoint.insert(access.page);
                self.log_bytes_since_checkpoint += 128;
            }
        }
        // Commit: force the log tail (sequential append on the log device).
        let req = IoRequest::sequential_write(0, self.config.log_force_bytes);
        t = self.io.submit(Role::Log, &req, t);

        self.counters.committed += 1;
        if is_new_order {
            self.counters.committed_new_orders += 1;
        }
        self.client_ready[client] = t;
    }

    /// Simulate a checkpoint: dirty DRAM pages are flushed to the flash cache
    /// (FaCE) or to disk (no cache, LC, TAC), and LC additionally drains its
    /// flash-resident dirty pages to disk.
    pub fn checkpoint(&mut self) {
        let t = *self.client_ready.iter().min().unwrap();
        let dirty = self.buffer.dirty_pages();
        for meta in dirty {
            match self.cache.as_mut() {
                Some(cache) if cache.persists_dirty_pages() => {
                    let staged =
                        StagedPage::meta_only(meta.page, Lsn::ZERO, meta.dirty, meta.fdirty);
                    cache
                        .insert(staged, &mut NoSupplier, &mut self.io_log)
                        .expect("simulated flash (null store) never fails");
                    self.buffer.mark_checkpointed(meta.page, true, false);
                }
                _ => {
                    self.io_log.disk_write(meta.page);
                    self.buffer.mark_checkpointed(meta.page, false, true);
                }
            }
        }
        if let Some(cache) = self.cache.as_mut() {
            cache
                .sync(&mut self.io_log)
                .expect("simulated flash (null store) never fails");
            cache
                .drain_dirty_for_checkpoint(&mut self.io_log)
                .expect("simulated flash (null store) never fails");
        }
        // Checkpoint I/O is charged to the devices (it competes with the
        // foreground work) but does not block any particular client.
        self.charge_io(t);
        self.dirty_since_checkpoint.clear();
        self.log_bytes_since_checkpoint = 0;
    }

    /// Simulate a crash followed by a restart, returning the restart timing.
    /// The redo working set is every page updated since the last checkpoint;
    /// each page is fetched from the flash cache if its metadata survived and
    /// from the disk array otherwise, exactly as the real recovery path does.
    pub fn crash_and_restart(&mut self) -> SimRecoveryReport {
        let crash_time = self.makespan();
        self.buffer.crash();

        let mut report = SimRecoveryReport::default();
        let mut t = crash_time;

        // Phase 1: restore the flash-cache metadata directory. The trace
        // simulator carries no real WAL LSNs, so reconciliation is disabled
        // (the functional engine passes its durable log end instead).
        if let Some(cache) = self.cache.as_mut() {
            cache.crash_and_recover(Lsn(u64::MAX), &mut self.io_log);
            let done = self.charge_io(t);
            report.metadata_restore_secs = duration_to_secs(done - t);
            t = done;
        }

        // Phase 2: scan the log written since the last checkpoint.
        report.log_bytes_scanned = self.log_bytes_since_checkpoint;
        if self.log_bytes_since_checkpoint > 0 {
            let req = IoRequest::sequential_read(
                0,
                self.log_bytes_since_checkpoint.min(u32::MAX as u64) as u32,
            );
            t = self.io.submit(Role::Log, &req, t);
        }

        // Phase 3: redo — fetch every page in the redo working set.
        let redo_pages: Vec<PageId> = self.dirty_since_checkpoint.drain().collect();
        for page in redo_pages {
            let from_flash = self
                .cache
                .as_mut()
                .map(|c| {
                    c.fetch(page, &mut self.io_log)
                        .expect("simulated flash (null store) never fails")
                        .is_some()
                })
                .unwrap_or(false);
            if from_flash {
                report.pages_from_flash += 1;
                t = self.charge_io(t);
            } else {
                report.pages_from_disk += 1;
                let req = IoRequest::random_page_read(self.disk_offset(page));
                t = self.io.submit(Role::Data, &req, t);
            }
        }
        report.restart_secs = duration_to_secs(t - crash_time);
        self.log_bytes_since_checkpoint = 0;

        // All clients resume once recovery finishes.
        for c in &mut self.client_ready {
            *c = t;
        }
        report
    }

    /// The simulated instant by which every client has finished its work.
    pub fn makespan(&self) -> SimInstant {
        *self.client_ready.iter().max().unwrap()
    }

    /// Elapsed simulated seconds since the start of the measurement window.
    pub fn measured_secs(&self) -> f64 {
        duration_to_secs(self.makespan().saturating_sub(self.measure_start))
    }

    /// Begin the measurement window now (call after warm-up): device
    /// statistics and throughput counters restart from here.
    pub fn start_measurement(&mut self) {
        self.measure_start = self.makespan();
        self.counters_at_measure_start = self.counters;
        self.io.reset_stats();
        if let Some(c) = self.cache.as_mut() {
            c.reset_stats();
        }
        self.buffer.reset_stats();
    }

    /// Committed NewOrder transactions per minute over the measurement
    /// window — the paper's tpmC metric.
    pub fn tpmc(&self) -> f64 {
        let secs = self.measured_secs();
        if secs <= 0.0 {
            return 0.0;
        }
        let new_orders = self.counters.committed_new_orders
            - self.counters_at_measure_start.committed_new_orders;
        new_orders as f64 * 60.0 / secs
    }

    /// Utilisation of the flash caching device over the measurement window.
    pub fn flash_utilization(&self) -> f64 {
        self.io.utilization(
            Role::Flash,
            self.makespan().saturating_sub(self.measure_start) as SimDuration,
        )
    }

    /// Utilisation of the data device (disk array or SSD) over the window.
    pub fn data_utilization(&self) -> f64 {
        self.io.utilization(
            Role::Data,
            self.makespan().saturating_sub(self.measure_start) as SimDuration,
        )
    }

    /// 4 KiB-page I/O operations per second sustained by the flash device
    /// over the measurement window (Table 4(b)).
    pub fn flash_page_iops(&self) -> f64 {
        self.io
            .stats(Role::Flash)
            .page_iops(self.makespan().saturating_sub(self.measure_start) as SimDuration)
    }

    /// Run counters.
    pub fn counters(&self) -> SimCounters {
        self.counters
    }

    /// Flash cache statistics, if a cache is configured.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// DRAM buffer statistics.
    pub fn buffer_stats(&self) -> face_buffer::sim::SimBufferStats {
        self.buffer.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> PageId {
        PageId::from_u64(n)
    }

    fn small_config(policy: CachePolicyKind) -> SimConfig {
        SimConfig {
            db_pages: 10_000,
            buffer_frames: 64,
            policy,
            cache_config: CacheConfig {
                capacity_pages: 512,
                group_size: 16,
                ..CacheConfig::default()
            },
            clients: 4,
            ..SimConfig::default()
        }
    }

    fn skewed_accesses(seed: u64, n: usize, db_pages: u64) -> Vec<PageAccess> {
        // 80/20-style skew without external dependencies.
        let mut rng = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let hot = rng % 100 < 80;
            let range = if hot { db_pages / 20 } else { db_pages };
            let page = (rng >> 16) % range.max(1);
            out.push(PageAccess {
                page: pid(page),
                write: i % 3 == 0,
            });
        }
        out
    }

    fn drive(engine: &mut SimEngine, txns: usize, seed: u64) {
        for i in 0..txns {
            let accesses = skewed_accesses(seed + i as u64, 20, engine.config().db_pages);
            engine.run_transaction(&accesses, i % 2 == 0);
        }
    }

    #[test]
    fn throughput_and_utilisation_are_produced() {
        let mut engine = SimEngine::new(small_config(CachePolicyKind::FaceGsc));
        drive(&mut engine, 200, 1);
        engine.start_measurement();
        drive(&mut engine, 400, 7);
        assert!(engine.tpmc() > 0.0);
        assert!(engine.measured_secs() > 0.0);
        assert!(engine.flash_utilization() > 0.0);
        assert!(engine.data_utilization() > 0.0);
        assert!(engine.counters().accesses > 0);
        assert!(engine.cache_stats().unwrap().lookups > 0);
        assert!(engine.buffer_stats().misses > 0);
    }

    #[test]
    fn hdd_only_has_no_flash_activity() {
        let mut engine = SimEngine::new(small_config(CachePolicyKind::None));
        drive(&mut engine, 100, 3);
        engine.start_measurement();
        drive(&mut engine, 100, 9);
        assert_eq!(engine.flash_utilization(), 0.0);
        assert!(engine.data_utilization() > 0.0);
        assert!(engine.cache_stats().is_none());
        assert!(engine.tpmc() > 0.0);
    }

    #[test]
    fn face_outperforms_hdd_only_on_skewed_workload() {
        let tpmc = |policy| {
            let mut engine = SimEngine::new(small_config(policy));
            drive(&mut engine, 300, 11);
            engine.start_measurement();
            drive(&mut engine, 600, 13);
            engine.tpmc()
        };
        let face = tpmc(CachePolicyKind::FaceGsc);
        let hdd = tpmc(CachePolicyKind::None);
        assert!(
            face > hdd,
            "FaCE ({face:.0} tpm) should beat HDD-only ({hdd:.0} tpm)"
        );
    }

    #[test]
    fn ssd_only_uses_flash_profile_for_data() {
        let mut cfg = small_config(CachePolicyKind::None);
        cfg.data_on_flash = true;
        let mut engine = SimEngine::new(cfg);
        drive(&mut engine, 100, 17);
        engine.start_measurement();
        drive(&mut engine, 200, 19);
        // Data device is the SSD: throughput should comfortably beat the
        // HDD-only configuration on the same workload.
        let ssd_tpm = engine.tpmc();
        let mut hdd = SimEngine::new(small_config(CachePolicyKind::None));
        drive(&mut hdd, 100, 17);
        hdd.start_measurement();
        drive(&mut hdd, 200, 19);
        assert!(ssd_tpm > hdd.tpmc());
    }

    #[test]
    fn checkpoint_clears_redo_working_set() {
        let mut engine = SimEngine::new(small_config(CachePolicyKind::FaceGsc));
        drive(&mut engine, 100, 23);
        assert!(!engine.dirty_since_checkpoint.is_empty());
        engine.checkpoint();
        assert!(engine.dirty_since_checkpoint.is_empty());
        // Work after the checkpoint re-populates it.
        drive(&mut engine, 50, 29);
        assert!(!engine.dirty_since_checkpoint.is_empty());
    }

    #[test]
    fn recovery_is_faster_with_face_than_without() {
        let restart = |policy| {
            // A flash cache sized like the paper's (a healthy fraction of the
            // hot set) so that most redo fetches can be served from flash.
            let mut cfg = small_config(policy);
            cfg.cache_config.capacity_pages = 2048;
            let mut engine = SimEngine::new(cfg);
            drive(&mut engine, 150, 31);
            engine.checkpoint();
            drive(&mut engine, 300, 1031);
            engine.crash_and_restart()
        };
        let face = restart(CachePolicyKind::FaceGsc);
        let hdd = restart(CachePolicyKind::None);
        assert!(face.pages_from_flash > face.pages_from_disk);
        assert_eq!(hdd.pages_from_flash, 0);
        assert!(
            face.restart_secs < hdd.restart_secs,
            "FaCE restart {:.3}s should beat HDD-only {:.3}s",
            face.restart_secs,
            hdd.restart_secs
        );
        assert!(face.metadata_restore_secs >= 0.0);
    }

    #[test]
    fn clients_resume_after_restart() {
        let mut engine = SimEngine::new(small_config(CachePolicyKind::FaceGsc));
        drive(&mut engine, 50, 41);
        let before = engine.makespan();
        let report = engine.crash_and_restart();
        assert!(engine.makespan() >= before);
        assert!(report.restart_secs >= 0.0);
        // The system keeps processing transactions afterwards.
        drive(&mut engine, 10, 43);
        assert_eq!(engine.counters().committed, 60);
    }
}
