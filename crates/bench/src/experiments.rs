//! The experiment runners behind every table and figure of the paper.

use face_cache::cost_model::{paper_reference_model, AccessMix};
use face_cache::{CacheConfig, CachePolicyKind, CacheStats};
use face_engine::sim::{SimConfig, SimEngine, SimRecoveryReport};
use face_iosim::DeviceProfile;
use face_tpcc::{TpccConfig, TpccWorkload, TransactionKind};
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// The paper's machine ratios that every experiment preserves:
/// a 200 MB DRAM buffer against a ~50 GB database.
pub const PAPER_BUFFER_FRACTION: f64 = 0.2 / 50.0;

/// The paper's database size in gigabytes, used to translate a
/// flash-cache fraction back into the "2 GB / 4 GB / ..." labels of the
/// tables.
pub const PAPER_DB_GB: f64 = 50.0;

/// How large (in transactions) a "second" of paper time is in the scaled-down
/// runs; only the *relative* checkpoint intervals of Table 6 depend on it.
pub const TXNS_PER_SIM_SECOND: u64 = 40;

/// The trace simulator's scale: `Default` is what `face-bench` runs,
/// [`ExperimentScale::tiny`] what the harness's own tests run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// TPC-C warehouses.
    pub warehouses: u32,
    /// Transactions run before measurement starts.
    pub warmup_txns: u64,
    /// Transactions measured.
    pub measure_txns: u64,
    /// Closed client population.
    pub clients: usize,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        Self {
            warehouses: 10,
            warmup_txns: 4_000,
            measure_txns: 8_000,
            clients: 50,
        }
    }
}

impl ExperimentScale {
    /// A tiny scale for unit tests of the harness itself.
    pub fn tiny() -> Self {
        Self {
            warehouses: 2,
            warmup_txns: 300,
            measure_txns: 600,
            clients: 8,
        }
    }
}

/// One configuration of the simulated system.
#[derive(Debug, Clone)]
pub struct SystemSetup {
    /// Flash cache policy (or `None`).
    pub policy: CachePolicyKind,
    /// Flash cache size as a fraction of the database size.
    pub flash_fraction: f64,
    /// Flash device profile.
    pub flash_profile: DeviceProfile,
    /// Number of spindles in the data array.
    pub num_disks: usize,
    /// Put the whole database on the flash device (SSD-only).
    pub data_on_flash: bool,
    /// Multiplier on the DRAM buffer relative to the paper's ratio
    /// (used by the Table 5 "more DRAM" arm).
    pub dram_multiplier: f64,
}

impl SystemSetup {
    /// A FaCE+GSC system with the paper's defaults and the given cache size.
    pub fn face_gsc(flash_fraction: f64) -> Self {
        Self {
            policy: CachePolicyKind::FaceGsc,
            flash_fraction,
            flash_profile: DeviceProfile::samsung470_mlc(),
            num_disks: 8,
            data_on_flash: false,
            dram_multiplier: 1.0,
        }
    }

    /// Same system with a different policy.
    pub fn with_policy(mut self, policy: CachePolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// The HDD-only baseline.
    pub fn hdd_only() -> Self {
        Self {
            policy: CachePolicyKind::None,
            flash_fraction: 0.0,
            ..Self::face_gsc(0.0)
        }
    }

    /// The SSD-only baseline (database stored on the flash device).
    pub fn ssd_only(flash_profile: DeviceProfile) -> Self {
        Self {
            policy: CachePolicyKind::None,
            flash_fraction: 0.0,
            flash_profile,
            data_on_flash: true,
            ..Self::face_gsc(0.0)
        }
    }
}

/// The measurements extracted from one run (one cell/point of a table or
/// figure).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Policy label ("FaCE+GSC", "LC", "HDD only", ...).
    pub policy: String,
    /// Flash cache size as a fraction of the database.
    pub flash_fraction: f64,
    /// The equivalent flash size at the paper's 50 GB database scale.
    pub flash_gb_paper_equivalent: f64,
    /// Committed NewOrder transactions per minute.
    pub tpmc: f64,
    /// Flash cache hit ratio over DRAM misses (Table 3a).
    pub flash_hit_ratio: f64,
    /// Write-reduction ratio (Table 3b).
    pub write_reduction: f64,
    /// Flash device utilisation (Table 4a).
    pub flash_utilization: f64,
    /// Data device (disk array / SSD) utilisation.
    pub data_utilization: f64,
    /// 4 KiB-page I/O operations per second on the flash device (Table 4b).
    pub flash_page_iops: f64,
    /// DRAM buffer hit ratio.
    pub dram_hit_ratio: f64,
    /// Number of spindles in the data array.
    pub num_disks: usize,
}

fn policy_label(setup: &SystemSetup) -> String {
    if setup.data_on_flash {
        "SSD only".to_string()
    } else if setup.policy == CachePolicyKind::None {
        "HDD only".to_string()
    } else {
        setup.policy.label().to_string()
    }
}

/// Build the simulation configuration for a setup at a given scale.
pub fn sim_config(scale: &ExperimentScale, setup: &SystemSetup) -> (SimConfig, TpccWorkload) {
    let workload = TpccWorkload::new(TpccConfig {
        warehouses: scale.warehouses,
        seed: 0xFACE,
    });
    let db_pages = workload.layout().total_pages();
    let buffer_frames =
        ((db_pages as f64 * PAPER_BUFFER_FRACTION * setup.dram_multiplier).ceil() as usize).max(64);
    let flash_pages = ((db_pages as f64 * setup.flash_fraction) as usize).max(16);
    let config = SimConfig {
        db_pages,
        buffer_frames,
        policy: setup.policy,
        cache_config: CacheConfig {
            capacity_pages: flash_pages,
            group_size: 64,
            // Keep the journal's checkpoint cadence equivalent to the old
            // 64k-entry segment flushes (one snapshot per 64k enqueues), so
            // the simulated metadata write traffic matches the paper's
            // amortized scheme rather than the functional engine's much
            // tighter recovery-oriented default.
            meta_checkpoint_interval_groups: 64_000 / 64,
            ..CacheConfig::default()
        },
        flash_profile: setup.flash_profile.clone(),
        num_disks: setup.num_disks,
        data_on_flash: setup.data_on_flash,
        clients: scale.clients,
        ..SimConfig::default()
    };
    (config, workload)
}

/// Warm `engine` up, start measuring, and run the measured transactions,
/// with a checkpoint every quarter of them if `checkpoints` is set.
fn warm_and_measure(
    engine: &mut SimEngine,
    workload: &mut TpccWorkload,
    scale: &ExperimentScale,
    checkpoints: bool,
) {
    for _ in 0..scale.warmup_txns {
        let txn = workload.next_transaction();
        engine.run_transaction(&txn.accesses, txn.kind == TransactionKind::NewOrder);
    }
    engine.start_measurement();
    let checkpoint_every = (scale.measure_txns / 4).max(1);
    for i in 0..scale.measure_txns {
        let txn = workload.next_transaction();
        engine.run_transaction(&txn.accesses, txn.kind == TransactionKind::NewOrder);
        if checkpoints && i > 0 && i % checkpoint_every == 0 {
            engine.checkpoint();
        }
    }
}

/// Run the TPC-C workload against one system setup and collect the paper's
/// metrics.
pub fn run_tpcc(scale: &ExperimentScale, setup: &SystemSetup) -> RunResult {
    let (config, mut workload) = sim_config(scale, setup);
    let mut engine = SimEngine::new(config);
    // Periodic checkpoints during measurement, as a real system would take.
    warm_and_measure(&mut engine, &mut workload, scale, true);

    let cache_stats = engine.cache_stats();
    let buffer = engine.buffer_stats();
    RunResult {
        policy: policy_label(setup),
        flash_fraction: setup.flash_fraction,
        flash_gb_paper_equivalent: setup.flash_fraction * PAPER_DB_GB,
        tpmc: engine.tpmc(),
        flash_hit_ratio: cache_stats.map(|s| s.hit_ratio()).unwrap_or(0.0),
        write_reduction: cache_stats
            .map(|s| s.write_reduction_ratio())
            .unwrap_or(0.0),
        flash_utilization: engine.flash_utilization(),
        data_utilization: engine.data_utilization(),
        flash_page_iops: engine.flash_page_iops(),
        dram_hit_ratio: {
            let s = buffer;
            if s.accesses == 0 {
                0.0
            } else {
                s.hits as f64 / s.accesses as f64
            }
        },
        num_disks: setup.num_disks,
    }
}

/// The flash-cache sizes of Tables 3 and 4 (2–10 GB on a 50 GB database),
/// expressed as fractions.
pub fn table3_fractions() -> Vec<f64> {
    vec![0.04, 0.08, 0.12, 0.16, 0.20]
}

/// The flash-cache sizes of Figure 4 (4–28 % of the database).
pub fn fig4_fractions() -> Vec<f64> {
    vec![0.04, 0.08, 0.12, 0.16, 0.20, 0.24, 0.28]
}

/// The policies compared throughout §5.3.
pub fn compared_policies() -> Vec<CachePolicyKind> {
    vec![
        CachePolicyKind::Lc,
        CachePolicyKind::Face,
        CachePolicyKind::FaceGr,
        CachePolicyKind::FaceGsc,
    ]
}

/// Tables 3 and 4: sweep policy x flash size on the MLC device.
pub fn run_policy_size_sweep(scale: &ExperimentScale) -> Vec<RunResult> {
    let mut out = Vec::new();
    for policy in compared_policies() {
        for fraction in table3_fractions() {
            let setup = SystemSetup::face_gsc(fraction).with_policy(policy);
            out.push(run_tpcc(scale, &setup));
        }
    }
    out
}

/// Figure 4: throughput vs flash size for one device type, including the
/// HDD-only and SSD-only reference lines.
pub fn run_fig4(scale: &ExperimentScale, flash_profile: DeviceProfile) -> Vec<RunResult> {
    let mut out = Vec::new();
    out.push(run_tpcc(scale, &SystemSetup::hdd_only()));
    out.push(run_tpcc(
        scale,
        &SystemSetup::ssd_only(flash_profile.clone()),
    ));
    for policy in compared_policies() {
        for fraction in fig4_fractions() {
            let mut setup = SystemSetup::face_gsc(fraction).with_policy(policy);
            setup.flash_profile = flash_profile.clone();
            out.push(run_tpcc(scale, &setup));
        }
    }
    out
}

/// Ablation (§3.3): FaCE+GSC at a 12 % cache across group sizes (scan
/// depths). Every row runs FaCE+GSC: group size 1 is not base FaCE, because
/// GSC's dequeue still reads referenced victims' bytes to give them their
/// second chance. Rows are `(group size, tpmC, cache statistics)`.
pub fn run_gsc_depth_ablation(scale: &ExperimentScale) -> Vec<(usize, f64, CacheStats)> {
    [1usize, 16, 32, 64, 128]
        .into_iter()
        .map(|group_size| {
            let (mut config, mut workload) = sim_config(scale, &SystemSetup::face_gsc(0.12));
            config.cache_config.group_size = group_size;
            let mut engine = SimEngine::new(config);
            warm_and_measure(&mut engine, &mut workload, scale, false);
            let stats = engine.cache_stats().expect("FaCE+GSC has a cache");
            (group_size, engine.tpmc(), stats)
        })
        .collect()
}

/// The §2.2 cost analysis: break-even flash size and cost ratio versus a
/// DRAM increment, per access mix. Rows are
/// `(mix, DRAM increment δ, break-even flash θ, cost ratio)`.
pub fn run_costmodel_breakeven() -> Vec<(String, f64, f64, f64)> {
    let mut rows = Vec::new();
    for (label, mix) in [
        ("read-only", AccessMix::ReadOnly),
        ("write-only", AccessMix::WriteOnly),
        ("50/50 mix", AccessMix::Mixed),
    ] {
        let model = paper_reference_model(mix);
        for delta in [0.25, 0.5, 1.0, 2.0] {
            let theta = model.break_even_theta(delta);
            rows.push((label.to_string(), delta, theta, model.cost_ratio(delta)));
        }
    }
    rows
}

/// One row of the Table 5 comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table5Row {
    /// Investment step (x1..x5).
    pub step: u32,
    /// tpmC with the extra money spent on DRAM.
    pub more_dram_tpmc: f64,
    /// tpmC with the same money spent on flash (FaCE+GSC).
    pub more_flash_tpmc: f64,
}

/// Table 5: each step adds the paper's 200 MB of DRAM or 2 GB of flash
/// (10x cheaper per byte, hence 10x larger for the same money).
pub fn run_table5(scale: &ExperimentScale) -> Vec<Table5Row> {
    let mut rows = Vec::new();
    for step in 1..=5u32 {
        let dram_setup = SystemSetup {
            dram_multiplier: 1.0 + step as f64,
            ..SystemSetup::hdd_only()
        };
        let flash_setup = SystemSetup::face_gsc(0.04 * step as f64);
        rows.push(Table5Row {
            step,
            more_dram_tpmc: run_tpcc(scale, &dram_setup).tpmc,
            more_flash_tpmc: run_tpcc(scale, &flash_setup).tpmc,
        });
    }
    rows
}

/// Figure 5: throughput vs number of disks at a fixed 12 % flash cache.
pub fn run_fig5(scale: &ExperimentScale) -> Vec<RunResult> {
    let mut out = Vec::new();
    for disks in [4usize, 8, 12, 16] {
        for setup in [
            Some(SystemSetup::face_gsc(0.12)),
            Some(SystemSetup::face_gsc(0.12).with_policy(CachePolicyKind::Lc)),
            Some(SystemSetup::hdd_only()),
        ]
        .into_iter()
        .flatten()
        {
            let mut setup = setup;
            setup.num_disks = disks;
            out.push(run_tpcc(scale, &setup));
        }
    }
    out
}

/// One row of the Table 6 recovery comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table6Row {
    /// Checkpoint interval in (paper-scale) seconds.
    pub checkpoint_interval_secs: u64,
    /// Policy label.
    pub policy: String,
    /// Simulated restart time in seconds.
    pub restart_secs: f64,
    /// Share of redo fetches served by the flash cache.
    pub flash_fetch_share: f64,
    /// Full recovery report.
    pub report: SimRecoveryReport,
}

/// Table 6: restart time after a crash at the middle of a checkpoint
/// interval, FaCE+GSC vs HDD-only, for several intervals.
pub fn run_table6(scale: &ExperimentScale) -> Vec<Table6Row> {
    let mut rows = Vec::new();
    for interval in [60u64, 120, 180] {
        for setup in [SystemSetup::face_gsc(0.08), SystemSetup::hdd_only()] {
            let (config, mut workload) = sim_config(scale, &setup);
            let mut engine = SimEngine::new(config);
            for _ in 0..scale.warmup_txns {
                let txn = workload.next_transaction();
                engine.run_transaction(&txn.accesses, false);
            }
            engine.checkpoint();
            // Crash at the mid-point of the interval, as in the paper.
            let txns_to_mid_interval = interval * TXNS_PER_SIM_SECOND / 2;
            for _ in 0..txns_to_mid_interval {
                let txn = workload.next_transaction();
                engine.run_transaction(&txn.accesses, false);
            }
            let report = engine.crash_and_restart();
            let total = report.pages_from_flash + report.pages_from_disk;
            rows.push(Table6Row {
                checkpoint_interval_secs: interval,
                policy: policy_label(&setup),
                restart_secs: report.restart_secs,
                flash_fetch_share: if total == 0 {
                    0.0
                } else {
                    report.pages_from_flash as f64 / total as f64
                },
                report,
            });
        }
    }
    rows
}

/// One point of the Figure 6 post-restart throughput time series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Point {
    /// Policy label.
    pub policy: String,
    /// Simulated seconds since the crash.
    pub time_secs: f64,
    /// Throughput (all transactions per minute) over the preceding window.
    pub tpm: f64,
}

/// Figure 6: time-varying throughput immediately after a restart.
pub fn run_fig6(scale: &ExperimentScale) -> Vec<Fig6Point> {
    let mut points = Vec::new();
    for setup in [SystemSetup::face_gsc(0.08), SystemSetup::hdd_only()] {
        let (config, mut workload) = sim_config(scale, &setup);
        let mut engine = SimEngine::new(config);
        for _ in 0..scale.warmup_txns {
            let txn = workload.next_transaction();
            engine.run_transaction(&txn.accesses, false);
        }
        engine.checkpoint();
        for _ in 0..(90 * TXNS_PER_SIM_SECOND) {
            let txn = workload.next_transaction();
            engine.run_transaction(&txn.accesses, false);
        }
        let crash_instant = engine.makespan();
        let report = engine.crash_and_restart();
        let label = policy_label(&setup);
        // The recovery window itself: zero throughput until redo finishes.
        points.push(Fig6Point {
            policy: label.clone(),
            time_secs: report.restart_secs,
            tpm: 0.0,
        });
        // Then measure throughput in windows.
        let windows = 12u64;
        let txns_per_window = (scale.measure_txns / windows).max(50);
        for _ in 0..windows {
            let window_start = engine.makespan();
            let mut committed = 0u64;
            for _ in 0..txns_per_window {
                let txn = workload.next_transaction();
                engine.run_transaction(&txn.accesses, false);
                committed += 1;
            }
            let window_end = engine.makespan();
            let secs = (window_end - window_start) as f64 / 1e9;
            points.push(Fig6Point {
                policy: label.clone(),
                time_secs: (window_end - crash_instant) as f64 / 1e9,
                tpm: if secs > 0.0 {
                    committed as f64 * 60.0 / secs
                } else {
                    0.0
                },
            });
        }
    }
    points
}

/// The concurrent TPC-C scale of the functional-engine throughput gate.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ConcurrentScale {
    /// TPC-C warehouses (also the maximum thread count).
    pub warehouses: u32,
    /// Warm-up transactions per run (split across the run's threads).
    pub warmup_txns: u64,
    /// Measured transactions per run, split evenly across the run's threads
    /// (rounded down to a multiple of the thread count, so pick a value
    /// divisible by every swept count — the defaults are — to keep the total
    /// work identical between rows).
    pub measure_txns: u64,
}

impl Default for ConcurrentScale {
    fn default() -> Self {
        Self {
            warehouses: 8,
            warmup_txns: 160,
            measure_txns: 480,
        }
    }
}

impl ConcurrentScale {
    /// A tiny scale for unit tests of the harness itself.
    pub fn tiny() -> Self {
        Self {
            warehouses: 4,
            warmup_txns: 40,
            measure_txns: 160,
        }
    }
}

fn concurrent_engine_config(scale: &ConcurrentScale) -> face_engine::EngineConfig {
    let layout = TpccWorkload::new(TpccConfig {
        warehouses: scale.warehouses,
        seed: 0,
    })
    .layout()
    .clone();
    // One bucket per ~8 database pages keeps bucket occupancy far below the
    // ~31 slots a bucket page holds while bounding open() cost.
    let buckets = (layout.total_pages() / 8).clamp(4_096, 262_144) as u32;
    face_engine::EngineConfig::in_memory()
        .buffer_frames(2_048)
        .buffer_shards(16)
        .table_buckets(buckets)
        .flash_cache(CachePolicyKind::FaceGsc, 16_384)
        .cache_shards(8)
        .simulated_devices()
}

// ---------------------------------------------------------------------------
// BENCH_throughput: the perf-trajectory baseline — tpm per thread count with
// the asynchronous destage pipeline on versus the synchronous baseline.
// ---------------------------------------------------------------------------

/// One row of the destage-on/off throughput matrix.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ThroughputBenchRow {
    /// Worker threads driving the shared engine.
    pub threads: usize,
    /// "async" (background destager threads) or "sync" (the destager runs
    /// the same group-write and stage-out jobs on the foreground thread,
    /// still off the shard locks).
    pub destage: String,
    /// Destager worker threads (0 for the sync arm).
    pub destage_threads: usize,
    /// Committed transactions in the measured window.
    pub committed: u64,
    /// Measured wall-clock seconds.
    pub wall_secs: f64,
    /// Aggregate committed transactions per second.
    pub tps: f64,
    /// Aggregate committed transactions per minute.
    pub tpm: f64,
    /// Group writes the pipeline completed during the run (0 for sync).
    pub destage_groups_completed: u64,
    /// Enqueue attempts that hit backpressure (0 for sync).
    pub destage_backpressure_stalls: u64,
    /// Flash pages physically programmed during the measured window.
    pub flash_pages_written: u64,
    /// The same, in bytes (pages × 4 KiB).
    pub flash_bytes_written: u64,
    /// Flash page writes per committed transaction — the write-economy
    /// figure of merit.
    pub flash_writes_per_txn: f64,
    /// Log bytes made durable per committed transaction (framed records:
    /// Begin, the updates' changed byte ranges both ways, Commit).
    pub wal_bytes_per_txn: f64,
    /// Median per-transaction commit latency, µs.
    pub p50_us: f64,
    /// 95th-percentile commit latency, µs.
    pub p95_us: f64,
    /// 99th-percentile commit latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile commit latency, µs.
    pub p999_us: f64,
}

/// Run the standard concurrent TPC-C configuration with the destager on
/// (2 workers) and off (sync baseline) across `thread_counts`, producing the
/// `BENCH_throughput.json` perf-trajectory matrix. Each cell gets a fresh
/// engine, its own warm-up and the same measured transaction budget; async
/// runs drain the pipeline before the clock stops so both arms account the
/// same physical work.
pub fn run_bench_throughput(
    scale: &ConcurrentScale,
    thread_counts: &[usize],
) -> Vec<ThroughputBenchRow> {
    use std::sync::Arc;
    let mut out = Vec::new();
    for &(label, destage_threads) in &[("sync", 0usize), ("async", 2usize)] {
        let mut ran = std::collections::BTreeSet::new();
        for &requested in thread_counts {
            let threads = requested.clamp(1, scale.warehouses as usize);
            if !ran.insert(threads) {
                continue;
            }
            // The fig4 cache (16k pages) never fills at smoke scale, so
            // nothing would ever destage; shrink the cache (and its groups)
            // until it cycles, so the foreground-vs-background difference
            // measures real group writes *and* real stage-out disk writes.
            let mut config = concurrent_engine_config(scale).destage_threads(destage_threads);
            config.cache_config.capacity_pages = 512;
            config.cache_config.group_size = 8;
            config.buffer_frames = 512;
            let db =
                Arc::new(face_engine::Database::open(config).expect("in-memory open cannot fail"));
            face_tpcc::run_concurrent(
                &db,
                &face_tpcc::DriverConfig {
                    threads,
                    txns_per_thread: (scale.warmup_txns as usize / threads).max(1),
                    warehouses: scale.warehouses,
                    seed: 1,
                },
            );
            let stats_before = db.destage_stats().unwrap_or_default();
            let flash_before = db.flash_pages_written();
            let wal_before = db.wal_durable_lsn();
            let started = std::time::Instant::now();
            let report = face_tpcc::run_concurrent(
                &db,
                &face_tpcc::DriverConfig {
                    threads,
                    txns_per_thread: (scale.measure_txns as usize / threads).max(1),
                    warehouses: scale.warehouses,
                    seed: 1_000,
                },
            );
            let wal_bytes = db.wal_durable_lsn().0 - wal_before.0;
            // Fairness: the async arm's queued writes are part of the same
            // physical work the sync arm paid inline.
            db.drain_destage().expect("pipeline drain");
            let latency = report.latency_summary();
            let wall = started.elapsed().as_secs_f64();
            let stats = db.destage_stats().unwrap_or_default();
            let flash_pages = db.flash_pages_written() - flash_before;
            let committed = report.committed();
            let tps = if wall > 0.0 {
                committed as f64 / wall
            } else {
                0.0
            };
            let per_txn = |count: u64| {
                if committed > 0 {
                    count as f64 / committed as f64
                } else {
                    0.0
                }
            };
            out.push(ThroughputBenchRow {
                threads,
                destage: label.to_string(),
                destage_threads,
                committed,
                wall_secs: wall,
                tps,
                tpm: tps * 60.0,
                destage_groups_completed: stats.groups_completed - stats_before.groups_completed,
                destage_backpressure_stalls: stats.backpressure_stalls
                    - stats_before.backpressure_stalls,
                flash_pages_written: flash_pages,
                flash_bytes_written: flash_pages * face_pagestore::PAGE_SIZE as u64,
                flash_writes_per_txn: per_txn(flash_pages),
                wal_bytes_per_txn: per_txn(wal_bytes),
                p50_us: latency.p50_us,
                p95_us: latency.p95_us,
                p99_us: latency.p99_us,
                p999_us: latency.p999_us,
            });
        }
    }
    out
}

/// The CI gate over [`run_bench_throughput`] rows: 4 async threads must beat
/// 1, async destage must not lose to sync at 4 threads, and the 4-thread
/// async arm must log at most `max_wal_bytes_per_txn` per transaction.
/// Returns the failures (empty means the gate passes).
pub fn evaluate_bench_throughput(
    rows: &[ThroughputBenchRow],
    max_wal_bytes_per_txn: f64,
) -> Vec<String> {
    let cell = |destage: &str, threads: usize| {
        rows.iter()
            .find(|r| r.destage == destage && r.threads == threads)
    };
    let (Some(one), Some(four), Some(sync)) = (cell("async", 1), cell("async", 4), cell("sync", 4))
    else {
        return vec!["missing row (need async 1- and 4-thread, sync 4-thread)".to_string()];
    };
    let mut failures = Vec::new();
    if four.tpm <= one.tpm {
        failures.push(format!(
            "async 4-thread {:.0} tpm does not beat 1-thread {:.0} tpm",
            four.tpm, one.tpm
        ));
    }
    if four.tpm < sync.tpm {
        failures.push(format!(
            "4-thread async {:.0} tpm loses to sync {:.0} tpm",
            four.tpm, sync.tpm
        ));
    }
    if four.wal_bytes_per_txn > max_wal_bytes_per_txn {
        failures.push(format!(
            "4-thread async logs {:.0} B per transaction (ceiling {max_wal_bytes_per_txn:.0})",
            four.wal_bytes_per_txn
        ));
    }
    failures
}

// ---------------------------------------------------------------------------
// BENCH_read: the read-path perf-trajectory matrix — read-heavy (90/10)
// throughput of the lock-light read path across thread counts.
// ---------------------------------------------------------------------------

/// The scale of the read-heavy sweep.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ReadScale {
    /// Keys pre-loaded into the table (≈ the hot working set in pages).
    pub keys: u64,
    /// Warm-up operations per run (split across the run's threads).
    pub warmup_ops: u64,
    /// Measured operations per run, split evenly across the run's threads.
    pub measure_ops: u64,
    /// Percentage of operations that are reads.
    pub read_pct: u32,
}

impl Default for ReadScale {
    fn default() -> Self {
        Self {
            keys: 8_192,
            warmup_ops: 4_000,
            measure_ops: 16_000,
            read_pct: 90,
        }
    }
}

impl ReadScale {
    /// A tiny scale for unit tests of the harness itself.
    pub fn tiny() -> Self {
        Self {
            keys: 512,
            warmup_ops: 400,
            measure_ops: 1_600,
            read_pct: 90,
        }
    }
}

/// One row of the read-throughput matrix.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReadBenchRow {
    /// Worker threads driving the shared engine.
    pub threads: usize,
    /// Operations (gets + puts) in the measured window.
    pub ops: u64,
    /// Reads among them.
    pub gets: u64,
    /// Measured wall-clock seconds.
    pub wall_secs: f64,
    /// Aggregate operations per second.
    pub ops_per_sec: f64,
    /// DRAM buffer hit ratio during the measured window.
    pub dram_hit_ratio: f64,
    /// Flash-cache hit ratio over DRAM misses during the window.
    pub flash_hit_ratio: f64,
    /// Cache fetches that lost the eviction race and retried.
    pub cache_fetch_retries: u64,
    /// Optimistic buffer-pool read hits that caught an eviction and retried.
    pub buffer_read_retries: u64,
    /// Flash pages physically programmed during the measured window.
    pub flash_pages_written: u64,
    /// The same, in bytes (pages × 4 KiB).
    pub flash_bytes_written: u64,
    /// Median per-transaction commit latency, µs.
    pub p50_us: f64,
    /// 95th-percentile commit latency, µs.
    pub p95_us: f64,
    /// 99th-percentile commit latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile commit latency, µs.
    pub p999_us: f64,
}

/// The engine configuration behind the read bench: a DRAM buffer far smaller
/// than the key working set (most reads miss to the flash cache) over
/// simulated devices, so threads really wait ~20 µs on flash reads — which
/// must not hold the shard locks other threads need. Two cache shards (not
/// fig4's eight) for the same reason `bench_throughput` shrinks its cache:
/// at smoke scale the contention under test must actually occur, as it would
/// on a production-sized shard at production thread counts.
fn read_engine_config() -> face_engine::EngineConfig {
    face_engine::EngineConfig::in_memory()
        .buffer_frames(256)
        .buffer_shards(8)
        .table_buckets(4_096)
        .flash_cache(CachePolicyKind::FaceGsc, 16_384)
        .cache_shards(2)
        .simulated_devices()
}

/// Run the read-heavy (90/10 by default) sweep across `thread_counts`,
/// producing the `BENCH_read.json` matrix. Each cell gets a fresh engine, a
/// full table load, its own warm-up and the same measured operation budget.
pub fn run_bench_read_throughput(scale: &ReadScale, thread_counts: &[usize]) -> Vec<ReadBenchRow> {
    use std::sync::Arc;
    let mut out = Vec::new();
    for &threads in thread_counts {
        let threads = threads.clamp(1, scale.keys.max(1) as usize);
        let db = Arc::new(
            face_engine::Database::open(read_engine_config()).expect("in-memory open cannot fail"),
        );
        face_tpcc::load_read_heavy(&db, scale.keys);
        let base = face_tpcc::ReadHeavyConfig {
            threads,
            ops_per_thread: (scale.warmup_ops as usize / threads).max(1),
            keys: scale.keys,
            read_pct: scale.read_pct,
            ops_per_txn: 8,
            seed: 7,
        };
        face_tpcc::run_read_heavy(&db, &base);

        let buffer_before = db.buffer_stats();
        let cache_before = db.cache_stats().unwrap_or_default();
        let flash_before = db.flash_pages_written();
        let report = face_tpcc::run_read_heavy(
            &db,
            &face_tpcc::ReadHeavyConfig {
                ops_per_thread: (scale.measure_ops as usize / threads).max(1),
                seed: 1_000,
                ..base
            },
        );
        let buffer = db.buffer_stats();
        let cache = db.cache_stats().unwrap_or_default();
        let flash_pages = db.flash_pages_written() - flash_before;
        let latency = report.latency_summary();
        let wall = report.wall.as_secs_f64();
        let ops = report.gets() + report.puts();
        let misses = buffer.misses - buffer_before.misses;
        let accesses = buffer.accesses - buffer_before.accesses;
        out.push(ReadBenchRow {
            threads,
            ops,
            gets: report.gets(),
            wall_secs: wall,
            ops_per_sec: if wall > 0.0 { ops as f64 / wall } else { 0.0 },
            dram_hit_ratio: if accesses > 0 {
                (buffer.hits - buffer_before.hits) as f64 / accesses as f64
            } else {
                0.0
            },
            flash_hit_ratio: if misses > 0 {
                (buffer.flash_hits - buffer_before.flash_hits) as f64 / misses as f64
            } else {
                0.0
            },
            cache_fetch_retries: cache.fetch_retries - cache_before.fetch_retries,
            buffer_read_retries: buffer.read_retries - buffer_before.read_retries,
            flash_pages_written: flash_pages,
            flash_bytes_written: flash_pages * face_pagestore::PAGE_SIZE as u64,
            p50_us: latency.p50_us,
            p95_us: latency.p95_us,
            p99_us: latency.p99_us,
            p999_us: latency.p999_us,
        });
    }
    out
}

/// The CI gate over [`run_bench_read_throughput`] rows: 4 threads must beat
/// 1 by at least `min_speedup`. Returns the failures (empty means the gate
/// passes).
pub fn evaluate_bench_read(rows: &[ReadBenchRow], min_speedup: f64) -> Vec<String> {
    let cell = |threads: usize| rows.iter().find(|r| r.threads == threads);
    let (Some(one), Some(four)) = (cell(1), cell(4)) else {
        return vec!["missing row (need 1- and 4-thread)".to_string()];
    };
    let speedup = four.ops_per_sec / one.ops_per_sec.max(f64::MIN_POSITIVE);
    if speedup < min_speedup {
        return vec![format!(
            "4-thread {:.0} ops/s vs 1-thread {:.0} ops/s is {speedup:.2}x, need {min_speedup}x",
            four.ops_per_sec, one.ops_per_sec
        )];
    }
    Vec::new()
}

// ---------------------------------------------------------------------------
// BENCH_flash_economy: the write-economy gate — flash bytes written per
// committed transaction under a skewed mix, admission-filtered policies
// versus the unfiltered FaCE baseline.
// ---------------------------------------------------------------------------

/// The scale of the flash write-economy bench.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EconomyScale {
    /// Keys pre-loaded into the table.
    pub keys: u64,
    /// Warm-up operations per arm (split across the arm's threads).
    pub warmup_ops: u64,
    /// Measured operations per arm, split evenly across the arm's threads.
    pub measure_ops: u64,
    /// Percentage of operations that are reads.
    pub read_pct: u32,
    /// Percentage of the key space forming the hot set.
    pub hot_key_pct: u32,
    /// Percentage of operations aimed at the hot set.
    pub hot_op_pct: u32,
    /// Worker threads per arm.
    pub threads: usize,
}

impl Default for EconomyScale {
    fn default() -> Self {
        Self {
            keys: 8_192,
            warmup_ops: 8_000,
            measure_ops: 24_000,
            read_pct: 80,
            hot_key_pct: 10,
            hot_op_pct: 90,
            threads: 4,
        }
    }
}

impl EconomyScale {
    /// A tiny scale for unit tests of the harness itself.
    pub fn tiny() -> Self {
        Self {
            keys: 1_024,
            warmup_ops: 1_000,
            measure_ops: 4_000,
            read_pct: 80,
            hot_key_pct: 10,
            hot_op_pct: 90,
            threads: 2,
        }
    }
}

/// One arm of the write-economy comparison.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EconomyBenchRow {
    /// Cache policy label ("face-gsc", "s3-fifo", ...).
    pub policy: String,
    /// Whether the ghost admission filter was enabled on top of the policy
    /// (always effectively true for S3-FIFO, whose ghost queue is built in).
    pub ghost_admission: bool,
    /// Committed transactions in the measured window.
    pub committed: u64,
    /// Operations (gets + puts) in the measured window.
    pub ops: u64,
    /// Measured wall-clock seconds.
    pub wall_secs: f64,
    /// Flash pages physically programmed during the measured window.
    pub flash_pages_written: u64,
    /// The same, in bytes (pages × 4 KiB).
    pub flash_bytes_written: u64,
    /// Flash page writes per committed transaction — the write-economy
    /// figure of merit (lower is better).
    pub flash_writes_per_txn: f64,
    /// DRAM buffer hit ratio during the measured window.
    pub dram_hit_ratio: f64,
    /// Flash-cache hit ratio over DRAM misses during the window (the
    /// "equal-or-better hit ratio" side of the gate).
    pub flash_hit_ratio: f64,
    /// Clean one-touch inserts the admission filter turned away.
    pub admission_filtered: u64,
    /// Ghost-directory hits that earned a page its flash write.
    pub admission_ghost_hits: u64,
}

/// The engine configuration behind the economy bench: the flash cache holds
/// a quarter of the key space, so the cold majority of a skewed mix cycles
/// through it — exactly the churn an admission filter is supposed to refuse
/// to pay flash writes for — while the DRAM buffer is far smaller than the
/// hot set, so hits still have to come from flash.
fn economy_engine_config(
    scale: &EconomyScale,
    policy: CachePolicyKind,
    ghost: bool,
) -> face_engine::EngineConfig {
    let cache_pages = (scale.keys / 4).max(128) as usize;
    let mut config = face_engine::EngineConfig::in_memory()
        .buffer_frames(128)
        .buffer_shards(8)
        .table_buckets(4_096)
        .flash_cache(policy, cache_pages)
        .cache_shards(2)
        .simulated_devices();
    config.cache_config.ghost_admission = ghost;
    config
}

/// Run the skewed-mix write-economy comparison: the unfiltered FaCE+GSC
/// baseline, the same policy behind the ghost admission filter, and S3-FIFO
/// (ghost queue built in). Each arm gets a fresh engine, a full table load,
/// its own warm-up and the same measured operation budget, so rows differ
/// only in admission policy. Produces `BENCH_flash_economy.json`.
pub fn run_bench_flash_economy(scale: &EconomyScale) -> Vec<EconomyBenchRow> {
    use std::sync::Arc;
    let arms = [
        ("face-gsc", CachePolicyKind::FaceGsc, false),
        ("face-gsc", CachePolicyKind::FaceGsc, true),
        ("s3-fifo", CachePolicyKind::S3Fifo, false),
    ];
    let mut out = Vec::new();
    for &(label, policy, ghost) in &arms {
        let threads = scale.threads.clamp(1, scale.keys.max(1) as usize);
        let db = Arc::new(
            face_engine::Database::open(economy_engine_config(scale, policy, ghost))
                .expect("in-memory open cannot fail"),
        );
        face_tpcc::load_read_heavy(&db, scale.keys);
        let base = face_tpcc::SkewedMixConfig {
            threads,
            ops_per_thread: (scale.warmup_ops as usize / threads).max(1),
            keys: scale.keys,
            hot_key_pct: scale.hot_key_pct,
            hot_op_pct: scale.hot_op_pct,
            read_pct: scale.read_pct,
            ops_per_txn: 8,
            seed: 7,
        };
        face_tpcc::run_skewed_mix(&db, &base);

        let buffer_before = db.buffer_stats();
        let cache_before = db.cache_stats().unwrap_or_default();
        let flash_before = db.flash_pages_written();
        let report = face_tpcc::run_skewed_mix(
            &db,
            &face_tpcc::SkewedMixConfig {
                ops_per_thread: (scale.measure_ops as usize / threads).max(1),
                seed: 1_000,
                ..base
            },
        );
        let buffer = db.buffer_stats();
        let cache = db.cache_stats().unwrap_or_default();
        let flash_pages = db.flash_pages_written() - flash_before;
        let committed = report.committed();
        let misses = buffer.misses - buffer_before.misses;
        let accesses = buffer.accesses - buffer_before.accesses;
        out.push(EconomyBenchRow {
            policy: label.to_string(),
            // S3-FIFO's ghost queue is part of the policy itself.
            ghost_admission: ghost || policy == CachePolicyKind::S3Fifo,
            committed,
            ops: report.gets() + report.puts(),
            wall_secs: report.wall.as_secs_f64(),
            flash_pages_written: flash_pages,
            flash_bytes_written: flash_pages * face_pagestore::PAGE_SIZE as u64,
            flash_writes_per_txn: if committed > 0 {
                flash_pages as f64 / committed as f64
            } else {
                0.0
            },
            dram_hit_ratio: if accesses > 0 {
                (buffer.hits - buffer_before.hits) as f64 / accesses as f64
            } else {
                0.0
            },
            flash_hit_ratio: if misses > 0 {
                (buffer.flash_hits - buffer_before.flash_hits) as f64 / misses as f64
            } else {
                0.0
            },
            admission_filtered: cache.admission_filtered - cache_before.admission_filtered,
            admission_ghost_hits: cache.admission_ghost_hits - cache_before.admission_ghost_hits,
        });
    }
    out
}

/// The CI gate over [`run_bench_flash_economy`] rows: every admission-
/// filtered arm must write fewer flash bytes than the unfiltered baseline
/// while giving up at most `hit_ratio_tolerance` of its flash hit ratio.
/// Returns the failures (empty means the gate passes).
pub fn evaluate_flash_economy(rows: &[EconomyBenchRow], hit_ratio_tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(baseline) = rows.iter().find(|r| !r.ghost_admission) else {
        return vec!["no unfiltered baseline row".to_string()];
    };
    let filtered: Vec<_> = rows.iter().filter(|r| r.ghost_admission).collect();
    if filtered.is_empty() {
        failures.push("no admission-filtered rows".to_string());
    }
    for row in filtered {
        let arm = format!("{} (ghost_admission={})", row.policy, row.ghost_admission);
        if row.flash_bytes_written >= baseline.flash_bytes_written {
            failures.push(format!(
                "{arm}: flash_bytes_written {} >= baseline {}",
                row.flash_bytes_written, baseline.flash_bytes_written
            ));
        }
        if row.flash_hit_ratio < baseline.flash_hit_ratio - hit_ratio_tolerance {
            failures.push(format!(
                "{arm}: flash_hit_ratio {:.4} < baseline {:.4} - {hit_ratio_tolerance}",
                row.flash_hit_ratio, baseline.flash_hit_ratio
            ));
        }
    }
    failures
}

// ---------------------------------------------------------------------------
// BENCH_degrade: throughput through a full flash-device failure — healthy,
// breaker-tripped (disk-only degraded mode) and post-heal, against a
// disk-only baseline engine that never had a flash tier.
// ---------------------------------------------------------------------------

/// The scale of the degraded-mode bench.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DegradeScale {
    /// TPC-C warehouses (also the maximum thread count).
    pub warehouses: u32,
    /// Warm-up / phase-transition transactions (split across threads).
    pub warmup_txns: u64,
    /// Measured transactions per phase, split evenly across threads.
    pub measure_txns: u64,
    /// Worker threads driving the shared engine.
    pub threads: usize,
}

impl Default for DegradeScale {
    fn default() -> Self {
        Self {
            warehouses: 8,
            warmup_txns: 160,
            measure_txns: 480,
            threads: 4,
        }
    }
}

impl DegradeScale {
    /// A tiny scale for unit tests of the harness itself.
    pub fn tiny() -> Self {
        Self {
            warehouses: 4,
            warmup_txns: 40,
            measure_txns: 160,
            threads: 2,
        }
    }
}

/// One phase of the degraded-mode trajectory.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DegradeBenchRow {
    /// "disk-only" (no flash tier configured), "healthy" (flash tier up),
    /// "tripped" (breaker open, disk-only degraded mode) or "healed"
    /// (after `Database::heal_flash`).
    pub phase: String,
    /// Worker threads driving the shared engine.
    pub threads: usize,
    /// Committed transactions in the measured window.
    pub committed: u64,
    /// Measured wall-clock seconds.
    pub wall_secs: f64,
    /// Aggregate committed transactions per second.
    pub tps: f64,
    /// Aggregate committed transactions per minute.
    pub tpm: f64,
    /// Breaker state at the end of the window ("n/a" without a flash tier).
    pub breaker: String,
    /// Cumulative breaker trips at the end of the window.
    pub trips: u64,
    /// Cumulative quarantined slots.
    pub quarantined_slots: u64,
    /// Cumulative transient-error retries.
    pub retries: u64,
    /// Cumulative transient device errors observed.
    pub transient_errors: u64,
    /// Cumulative permanent device errors observed.
    pub permanent_errors: u64,
    /// Cumulative flash inserts skipped because the breaker was open.
    pub bypassed_inserts: u64,
    /// Cumulative flash fetches skipped because the breaker was open.
    pub bypassed_fetches: u64,
    /// Cumulative dirty pages evacuated off the failing device.
    pub evacuated_pages: u64,
    /// Cumulative `heal_flash` completions.
    pub heals: u64,
    /// Flash pages physically programmed during the window.
    pub flash_pages_written: u64,
    /// Median per-transaction commit latency, µs.
    pub p50_us: f64,
    /// 95th-percentile commit latency, µs.
    pub p95_us: f64,
    /// 99th-percentile commit latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile commit latency, µs.
    pub p999_us: f64,
}

fn degrade_engine_config(
    scale: &DegradeScale,
    policy: CachePolicyKind,
) -> face_engine::EngineConfig {
    let mut config = concurrent_engine_config(&ConcurrentScale {
        warehouses: scale.warehouses,
        warmup_txns: scale.warmup_txns,
        measure_txns: scale.measure_txns,
    })
    .flash_cache(policy, 512);
    // Small enough that the cache cycles (groups fill, destage runs) at
    // smoke scale — the failure has to hit a tier that is actually working.
    config.cache_config.group_size = 8;
    config.buffer_frames = 512;
    config
}

/// Run one measured window against `db` and snapshot a trajectory row.
fn degrade_phase_row(
    db: &std::sync::Arc<face_engine::Database>,
    scale: &DegradeScale,
    phase: &str,
    seed: u64,
) -> DegradeBenchRow {
    let threads = scale.threads.clamp(1, scale.warehouses as usize);
    let flash_before = db.flash_pages_written();
    let report = face_tpcc::run_concurrent(
        db,
        &face_tpcc::DriverConfig {
            threads,
            txns_per_thread: (scale.measure_txns as usize / threads).max(1),
            warehouses: scale.warehouses,
            seed,
        },
    );
    db.drain_destage().expect("pipeline drain");
    let latency = report.latency_summary();
    let committed = report.committed();
    let wall = report.wall.as_secs_f64();
    let tps = if wall > 0.0 {
        committed as f64 / wall
    } else {
        0.0
    };
    let stats = db.degrade_stats();
    let breaker = stats
        .as_ref()
        .map(|s| s.breaker.clone())
        .unwrap_or_else(|| "n/a".to_string());
    let stats = stats.unwrap_or_default();
    DegradeBenchRow {
        phase: phase.to_string(),
        threads,
        committed,
        wall_secs: wall,
        tps,
        tpm: tps * 60.0,
        breaker,
        trips: stats.trips,
        quarantined_slots: stats.quarantined_slots,
        retries: stats.retries,
        transient_errors: stats.transient_errors,
        permanent_errors: stats.permanent_errors,
        bypassed_inserts: stats.bypassed_inserts,
        bypassed_fetches: stats.bypassed_fetches,
        evacuated_pages: stats.evacuated_pages,
        heals: stats.heals,
        flash_pages_written: db.flash_pages_written() - flash_before,
        p50_us: latency.p50_us,
        p95_us: latency.p95_us,
        p99_us: latency.p99_us,
        p999_us: latency.p999_us,
    }
}

/// The degraded-mode trajectory: a disk-only baseline engine, then one
/// flash-tier engine driven through healthy → tripped → healed phases. The
/// trip is a seed-deterministic whole-device permanent fault (dormant during
/// the healthy window, armed between phases, one shot), so the same four
/// rows come out every run. Produces `BENCH_degrade.json`.
pub fn run_bench_degrade(scale: &DegradeScale) -> Vec<DegradeBenchRow> {
    use std::sync::Arc;
    let threads = scale.threads.clamp(1, scale.warehouses as usize);
    let warm = |db: &Arc<face_engine::Database>, seed: u64| {
        face_tpcc::run_concurrent(
            db,
            &face_tpcc::DriverConfig {
                threads,
                txns_per_thread: (scale.warmup_txns as usize / threads).max(1),
                warehouses: scale.warehouses,
                seed,
            },
        );
    };
    let mut out = Vec::new();

    // Baseline arm: the engine FaCE's safety argument falls back to — no
    // flash tier at all, every miss and every dirty write-back on the disk.
    {
        let db = Arc::new(
            face_engine::Database::open(degrade_engine_config(scale, CachePolicyKind::None))
                .expect("in-memory open cannot fail"),
        );
        warm(&db, 1);
        out.push(degrade_phase_row(&db, scale, "disk-only", 1_000));
    }

    // Faulted arm: one engine through all three phases. The plan starts
    // disarmed, so the healthy window runs on a clean device.
    let plan = Arc::new(
        face_pagestore::FaultPlan::new(97)
            .probability(1.0)
            .permanent()
            .device_scoped()
            .max_faults(1)
            .armed_on_crash(),
    );
    let db = Arc::new(
        face_engine::Database::open(
            degrade_engine_config(scale, CachePolicyKind::FaceGsc).flash_faults(Arc::clone(&plan)),
        )
        .expect("in-memory open cannot fail"),
    );
    warm(&db, 2);
    out.push(degrade_phase_row(&db, scale, "healthy", 2_000));

    // Arm the one-shot device fault; the transition run absorbs the trip
    // (evacuation, breaker open) so the measured window is steady-state
    // degraded mode.
    plan.arm();
    warm(&db, 3);
    out.push(degrade_phase_row(&db, scale, "tripped", 3_000));

    // Replace the device: the fault budget is spent, so the healed tier
    // behaves. The rewarm refills the cold cache before measuring.
    db.heal_flash().expect("heal_flash");
    warm(&db, 4);
    out.push(degrade_phase_row(&db, scale, "healed", 4_000));
    out
}

/// The CI gate over [`run_bench_degrade`] rows: the engine must keep
/// serving with the breaker open (at a sane fraction of what a disk-only
/// engine manages) and must come back after `heal_flash`. Returns the
/// failures (empty means the gate passes).
pub fn evaluate_bench_degrade(
    rows: &[DegradeBenchRow],
    min_tripped_fraction_of_disk: f64,
    min_healed_fraction_of_healthy: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    let phase = |name: &str| rows.iter().find(|r| r.phase == name);
    let (Some(disk), Some(healthy), Some(tripped), Some(healed)) = (
        phase("disk-only"),
        phase("healthy"),
        phase("tripped"),
        phase("healed"),
    ) else {
        return vec!["missing phase row (need disk-only/healthy/tripped/healed)".to_string()];
    };
    if healthy.breaker != "closed" {
        failures.push(format!(
            "healthy: breaker `{}` (dormant fault plan fired early?)",
            healthy.breaker
        ));
    }
    if tripped.breaker != "tripped" || tripped.trips == 0 {
        failures.push(format!(
            "tripped: breaker `{}`, trips {} — the device fault never tripped",
            tripped.breaker, tripped.trips
        ));
    }
    if tripped.bypassed_inserts + tripped.bypassed_fetches == 0 {
        failures.push("tripped: breaker open but nothing bypassed the flash tier".to_string());
    }
    if tripped.flash_pages_written != 0 {
        failures.push(format!(
            "tripped: {} flash pages written with the breaker open",
            tripped.flash_pages_written
        ));
    }
    if tripped.committed == 0 || tripped.tps <= 0.0 {
        failures.push("tripped: engine stopped serving (0 committed)".to_string());
    }
    let disk_floor = disk.tps * min_tripped_fraction_of_disk;
    if tripped.tps < disk_floor {
        failures.push(format!(
            "tripped: {:.0} tps < {:.0} ({} of the {:.0} tps disk-only baseline)",
            tripped.tps, disk_floor, min_tripped_fraction_of_disk, disk.tps
        ));
    }
    if healed.breaker != "closed" || healed.heals == 0 {
        failures.push(format!(
            "healed: breaker `{}`, heals {} — heal_flash did not close the breaker",
            healed.breaker, healed.heals
        ));
    }
    let healthy_floor = healthy.tps * min_healed_fraction_of_healthy;
    if healed.tps < healthy_floor {
        failures.push(format!(
            "healed: {:.0} tps < {:.0} ({} of the {:.0} tps healthy window)",
            healed.tps, healthy_floor, min_healed_fraction_of_healthy, healthy.tps
        ));
    }
    failures
}

// ---------------------------------------------------------------------------
// Figure 6 / Table 6 (functional): warm-vs-cold crash recovery of the real
// engine — durable flash cache metadata, reconciled restart, throughput ramp.
// ---------------------------------------------------------------------------

/// The scale of the functional recovery experiments.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RecoveryScale {
    /// TPC-C warehouses (also the maximum thread count).
    pub warehouses: u32,
    /// Client threads for every phase.
    pub threads: usize,
    /// Load-phase transactions per thread (fills DRAM, flash and WAL).
    pub load_txns_per_thread: usize,
    /// Post-checkpoint transactions per thread before the crash.
    pub post_ckpt_txns_per_thread: usize,
    /// Measurement windows after the restart.
    pub windows: usize,
    /// Transactions per thread in each window.
    pub window_txns_per_thread: usize,
    /// Loser transactions left in flight at the crash (each writes a handful
    /// of keys above the TPC-C key space before the checkpoint, so their
    /// pages persist and recovery must undo them with CLRs).
    pub loser_txns: usize,
}

impl Default for RecoveryScale {
    fn default() -> Self {
        Self {
            warehouses: 4,
            threads: 2,
            load_txns_per_thread: 150,
            post_ckpt_txns_per_thread: 60,
            windows: 4,
            window_txns_per_thread: 40,
            loser_txns: 8,
        }
    }
}

/// Committed history before the checkpoint in the long-history warm arm of
/// the Figure 6 ramp, as a multiple of the warm arm's load phase.
pub const LONG_HISTORY_FACTOR: usize = 10;

/// Crash-and-restart repetitions of each warm arm of the Figure 6 ramp, each
/// on a fresh database; an arm's `restart_secs` is the median over them.
pub const WARM_RESTART_RUNS: usize = 3;

/// Largest regression of the warm/cold restart-time ratio the Figure 6 gate
/// allows against the committed `BENCH_recovery.json`.
pub const RATIO_REGRESSION_BOUND: f64 = 0.25;

/// Ratio under which a regression never fails the Figure 6 gate: a warm
/// restart takes a small fraction of a cold one, so jitter on the tiny
/// numerator can exceed 25 % without meaning anything. The regression only
/// matters once warm restart has lost its order-of-magnitude advantage.
pub const RATIO_ABSOLUTE_GUARD: f64 = 0.1;

/// Largest excess of the long-history warm restart over the short-history
/// one: restart cost follows the last checkpoint, not the length of the log.
pub const LONG_HISTORY_BOUND: f64 = 0.25;

impl RecoveryScale {
    /// A tiny scale for unit tests of the harness itself.
    pub fn tiny() -> Self {
        Self {
            warehouses: 2,
            threads: 2,
            load_txns_per_thread: 40,
            post_ckpt_txns_per_thread: 20,
            windows: 2,
            window_txns_per_thread: 15,
            loser_txns: 4,
        }
    }
}

/// Serializable subset of [`face_engine::RecoveryReport`] for JSON output.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RecoveryReportRow {
    /// Log records scanned by the analysis pass.
    pub records_scanned: u64,
    /// Redo updates applied.
    pub redo_applied: u64,
    /// Redo updates skipped (pageLSN already at or past the record).
    pub redo_skipped: u64,
    /// Redo page fetches served by the flash cache.
    pub pages_from_flash: u64,
    /// Redo page fetches served by the disk.
    pub pages_from_disk: u64,
    /// Share of redo fetches served by flash.
    pub flash_fetch_share: f64,
    /// The durable WAL end recovery reconciled against.
    pub durable_lsn: u64,
    /// Loser transactions the analysis pass found with undo work pending.
    pub losers_found: u64,
    /// Loser updates rolled back by the undo pass.
    pub updates_undone: u64,
    /// Compensation log records written by the undo pass.
    pub clrs_written: u64,
    /// Loser updates skipped because a durable CLR already compensated them.
    pub clrs_skipped: u64,
    /// CLRs from an earlier (interrupted) undo pass replayed during redo.
    pub clrs_replayed: u64,
    /// What the flash cache restored of itself.
    pub cache_recovery: face_cache::CacheRecoveryInfo,
}

impl From<&face_engine::RecoveryReport> for RecoveryReportRow {
    fn from(r: &face_engine::RecoveryReport) -> Self {
        Self {
            records_scanned: r.records_scanned,
            redo_applied: r.redo_applied,
            redo_skipped: r.redo_skipped,
            pages_from_flash: r.pages_from_flash,
            pages_from_disk: r.pages_from_disk,
            flash_fetch_share: r.flash_fetch_ratio(),
            durable_lsn: r.durable_lsn.0,
            losers_found: r.undo.losers_found,
            updates_undone: r.undo.updates_undone,
            clrs_written: r.undo.clrs_written,
            clrs_skipped: r.undo.clrs_skipped,
            clrs_replayed: r.undo.clrs_replayed,
            cache_recovery: r.cache_recovery,
        }
    }
}

/// One measurement window of a [`RampArmReport`].
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct RampWindowRow {
    /// Window index (0 = first window after the restart).
    pub window: usize,
    /// Committed transactions per minute over the window.
    pub tpm: f64,
    /// Wall-clock seconds of the window.
    pub secs: f64,
    /// DRAM misses served by the flash cache.
    pub flash_hits: u64,
    /// DRAM misses served by the disk.
    pub disk_fetches: u64,
}

/// One arm of the functional Figure 6 ramp.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RampArmReport {
    /// "warm" (journal + checkpoint recovery), "warm_long_history" (the
    /// same crash after [`LONG_HISTORY_FACTOR`] times the committed history)
    /// or "cold" (wiped cache).
    pub mode: String,
    /// Load-phase transactions per thread committed before the checkpoint.
    pub load_txns_per_thread: usize,
    /// Wall-clock seconds the restart (cache recovery + analysis + redo +
    /// undo) took: the median of `restart_secs_runs`.
    pub restart_secs: f64,
    /// The restart time of every repetition of this arm, in run order.
    pub restart_secs_runs: Vec<f64>,
    /// The last repetition's recovery report.
    pub recovery: RecoveryReportRow,
    /// Post-restart throughput windows of the last repetition.
    pub windows: Vec<RampWindowRow>,
}

fn recovery_engine_config(
    scale: &RecoveryScale,
    policy: CachePolicyKind,
) -> face_engine::EngineConfig {
    let layout = TpccWorkload::new(TpccConfig {
        warehouses: scale.warehouses,
        seed: 0,
    })
    .layout()
    .clone();
    let buckets = (layout.total_pages() / 8).clamp(2_048, 262_144) as u32;
    let mut config = face_engine::EngineConfig::in_memory()
        // A DRAM buffer far smaller than the working set: post-restart reads
        // miss DRAM and the warm-vs-cold difference is carried by whether
        // those misses hit flash (fast) or disk (slow).
        .buffer_frames(128)
        .buffer_shards(8)
        .table_buckets(buckets)
        .flash_cache(policy, 16_384)
        .cache_shards(4)
        .simulated_devices();
    if policy == CachePolicyKind::None {
        config = config.no_flash_cache();
    }
    config
}

fn driver(scale: &RecoveryScale, txns_per_thread: usize, seed: u64) -> face_tpcc::DriverConfig {
    face_tpcc::DriverConfig {
        threads: scale.threads.clamp(1, scale.warehouses as usize),
        txns_per_thread,
        warehouses: scale.warehouses,
        seed,
    }
}

/// Shared crash prologue: load, a loser wave, checkpoint, a post-checkpoint
/// wave, crash. The losers begin before the checkpoint and never commit, so
/// the checkpoint persists their pages and restart has real undo work.
fn load_and_crash(scale: &RecoveryScale, db: &std::sync::Arc<face_engine::Database>) {
    face_tpcc::run_concurrent(db, &driver(scale, scale.load_txns_per_thread, 11));
    for t in 0..scale.loser_txns as u64 {
        let loser = db.begin();
        for i in 0..4u64 {
            // Best-effort: a full table stops the wave, not the experiment.
            let key = u64::MAX - t * 4 - i;
            let _ = db.put(loser, key, format!("loser-{t}-{i}").as_bytes());
        }
        // Never committed, never aborted: in flight at the crash.
    }
    db.checkpoint().expect("checkpoint");
    face_tpcc::run_concurrent(db, &driver(scale, scale.post_ckpt_txns_per_thread, 23));
    db.crash();
}

/// Figure 6 (functional): crash the real engine mid-interval, restart warm
/// (journal + checkpoint + WAL reconciliation) versus cold (wiped cache
/// device), and trace the post-restart throughput ramp of each arm. The
/// `warm_long_history` arm repeats the warm crash behind
/// [`LONG_HISTORY_FACTOR`] times the committed history: restart reads the
/// log from the last checkpoint, so the two warm arms must restart in the
/// same time. Each warm arm is crashed and restarted [`WARM_RESTART_RUNS`]
/// times on a fresh database.
pub fn run_fig6_functional(scale: &RecoveryScale) -> Vec<RampArmReport> {
    use std::sync::Arc;
    use std::time::Instant;
    let long_load = scale.load_txns_per_thread * LONG_HISTORY_FACTOR;
    let arms = [
        ("warm", scale.load_txns_per_thread, WARM_RESTART_RUNS),
        ("cold", scale.load_txns_per_thread, 1),
        ("warm_long_history", long_load, WARM_RESTART_RUNS),
    ];
    arms.into_iter()
        .map(|(mode, load_txns_per_thread, runs)| {
            let arm_scale = RecoveryScale {
                load_txns_per_thread,
                ..*scale
            };
            let mut restart_secs_runs = Vec::new();
            let mut last = None;
            for _ in 0..runs {
                let config = recovery_engine_config(&arm_scale, CachePolicyKind::FaceGsc);
                let db = Arc::new(
                    face_engine::Database::open(config).expect("in-memory open cannot fail"),
                );
                load_and_crash(&arm_scale, &db);
                let started = Instant::now();
                let report = if mode == "cold" {
                    db.restart_cold().expect("restart_cold")
                } else {
                    db.restart().expect("restart")
                };
                restart_secs_runs.push(started.elapsed().as_secs_f64());
                last = Some((db, report));
            }
            let (db, report) = last.expect("every arm runs at least once");
            let windows = face_tpcc::run_ramp(
                &db,
                &driver(scale, scale.window_txns_per_thread, 37),
                scale.windows,
            )
            .into_iter()
            .map(|w| RampWindowRow {
                window: w.window,
                tpm: w.tpm,
                secs: w.secs,
                flash_hits: w.flash_hits,
                disk_fetches: w.disk_fetches,
            })
            .collect();
            RampArmReport {
                mode: mode.to_string(),
                load_txns_per_thread,
                restart_secs: crate::tail::median(&restart_secs_runs),
                restart_secs_runs,
                recovery: RecoveryReportRow::from(&report),
                windows,
            }
        })
        .collect()
}

/// The arms every Figure 6 run, fresh or committed, must hold.
const RAMP_ARMS: [&str; 3] = ["warm", "cold", "warm_long_history"];

/// The CI gate over [`run_fig6_functional`] arms: the warm restart's first
/// window must out-ramp the cold one's, the warm/cold restart-time ratio
/// must not regress past [`RATIO_REGRESSION_BOUND`] against the `committed`
/// run's (the parsed `BENCH_recovery.json`, when there is one; never below
/// [`RATIO_ABSOLUTE_GUARD`]), and the long-history warm restart must stay
/// within [`LONG_HISTORY_BOUND`] of the warm one. A committed run that
/// lacks an arm or a warm/cold ratio fails: it would turn the regression
/// check off. Returns the failures (empty means the gate passes).
pub fn evaluate_fig6_ramp(arms: &[RampArmReport], committed: Option<&Value>) -> Vec<String> {
    let mut failures = Vec::new();
    let committed_ratio = match committed.map(committed_restart_ratio).transpose() {
        Ok(ratio) => ratio,
        Err(e) => {
            failures.push(e);
            None
        }
    };
    let arm = |mode: &str| {
        arms.iter()
            .find(|a| a.mode == mode && !a.windows.is_empty())
    };
    let [Some(warm), Some(cold), Some(long)] = RAMP_ARMS.map(arm) else {
        failures.push(format!("missing arm (need {RAMP_ARMS:?} with windows)"));
        return failures;
    };
    let (w0, c0) = (warm.windows[0].tpm, cold.windows[0].tpm);
    if w0 <= c0 {
        failures.push(format!(
            "warm first window {w0:.0} tpm does not beat cold {c0:.0} tpm"
        ));
    }
    if cold.restart_secs <= 0.0 {
        failures.push("cold restart took no time: no warm/cold ratio".to_string());
    } else if let Some(committed) = committed_ratio {
        let ratio = warm.restart_secs / cold.restart_secs;
        let bound = (committed * (1.0 + RATIO_REGRESSION_BOUND)).max(RATIO_ABSOLUTE_GUARD);
        if ratio > bound {
            failures.push(format!(
                "warm/cold restart-time ratio {ratio:.3} above {bound:.3} \
                 (committed {committed:.3} + {:.0}%, or the {RATIO_ABSOLUTE_GUARD} guard)",
                RATIO_REGRESSION_BOUND * 100.0
            ));
        }
    }
    let bound = warm.restart_secs * (1.0 + LONG_HISTORY_BOUND);
    if long.restart_secs > bound {
        failures.push(format!(
            "warm restart behind the long history: median {:.3}s over {:?}, above {bound:.3}s \
             (warm {:.3}s over {:?} + {:.0}%)",
            long.restart_secs,
            long.restart_secs_runs,
            warm.restart_secs,
            warm.restart_secs_runs,
            LONG_HISTORY_BOUND * 100.0
        ));
    }
    failures
}

/// The warm/cold restart-time ratio of a committed Figure 6 run, which must
/// hold a restart time for every arm of [`RAMP_ARMS`].
fn committed_restart_ratio(committed: &Value) -> Result<f64, String> {
    let secs = |mode: &str| {
        committed
            .as_array()
            .into_iter()
            .flatten()
            .find(|arm| arm.get("mode").and_then(Value::as_str) == Some(mode))
            .and_then(|arm| arm.get("restart_secs")?.as_f64())
            .ok_or_else(|| format!("the committed run has no `{mode}` arm with a restart time"))
    };
    let [warm, cold, long] = RAMP_ARMS.map(secs);
    let (warm, cold, _) = (warm?, cold?, long?);
    if cold > 0.0 {
        Ok(warm / cold)
    } else {
        Err("the committed cold restart took no time: no warm/cold ratio".to_string())
    }
}

/// One row of the functional Table 6 restart-time sweep.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FunctionalRecoveryRow {
    /// Post-checkpoint transactions (per thread) executed before the crash —
    /// the functional stand-in for the paper's checkpoint interval.
    pub post_checkpoint_txns_per_thread: usize,
    /// Arm label ("FaCE+GSC warm", "FaCE+GSC cold", "HDD only").
    pub policy: String,
    /// Wall-clock seconds the restart took.
    pub restart_secs: f64,
    /// The restart's recovery report.
    pub recovery: RecoveryReportRow,
}

/// Table 6 (functional): restart wall time after a mid-interval crash on the
/// real engine, across post-checkpoint intervals, for a warm FaCE restart, a
/// cold FaCE restart and the no-cache baseline.
pub fn run_table6_functional(scale: &RecoveryScale) -> Vec<FunctionalRecoveryRow> {
    use std::sync::Arc;
    use std::time::Instant;
    let mut rows = Vec::new();
    let base = scale.post_ckpt_txns_per_thread.max(2);
    for interval in [base / 2, base, base * 2] {
        let arms: [(&str, CachePolicyKind, bool); 3] = [
            ("FaCE+GSC warm", CachePolicyKind::FaceGsc, false),
            ("FaCE+GSC cold", CachePolicyKind::FaceGsc, true),
            ("HDD only", CachePolicyKind::None, false),
        ];
        for (label, policy, cold) in arms {
            let db = Arc::new(
                face_engine::Database::open(recovery_engine_config(scale, policy))
                    .expect("in-memory open cannot fail"),
            );
            let interval_scale = RecoveryScale {
                post_ckpt_txns_per_thread: interval,
                ..*scale
            };
            load_and_crash(&interval_scale, &db);
            let started = Instant::now();
            let report = if cold {
                db.restart_cold().expect("restart_cold")
            } else {
                db.restart().expect("restart")
            };
            rows.push(FunctionalRecoveryRow {
                post_checkpoint_txns_per_thread: interval,
                policy: label.to_string(),
                restart_secs: started.elapsed().as_secs_f64(),
                recovery: RecoveryReportRow::from(&report),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_run_produces_consistent_metrics() {
        let scale = ExperimentScale::tiny();
        let r = run_tpcc(&scale, &SystemSetup::face_gsc(0.10));
        assert_eq!(r.policy, "FaCE+GSC");
        assert!(r.tpmc > 0.0);
        assert!(r.flash_hit_ratio >= 0.0 && r.flash_hit_ratio <= 1.0);
        assert!(r.write_reduction >= 0.0 && r.write_reduction <= 1.0);
        assert!(r.flash_utilization >= 0.0 && r.flash_utilization <= 1.0);
        assert!(r.dram_hit_ratio > 0.0);
        assert!((r.flash_gb_paper_equivalent - 5.0).abs() < 1e-9);
    }

    #[test]
    fn baselines_have_expected_labels() {
        let scale = ExperimentScale::tiny();
        let hdd = run_tpcc(&scale, &SystemSetup::hdd_only());
        assert_eq!(hdd.policy, "HDD only");
        assert_eq!(hdd.flash_utilization, 0.0);
        let ssd = run_tpcc(
            &scale,
            &SystemSetup::ssd_only(DeviceProfile::samsung470_mlc()),
        );
        assert_eq!(ssd.policy, "SSD only");
        assert!(ssd.tpmc > hdd.tpmc, "SSD-only should beat HDD-only");
    }

    #[test]
    fn face_beats_hdd_only_at_tiny_scale() {
        let scale = ExperimentScale::tiny();
        let face = run_tpcc(&scale, &SystemSetup::face_gsc(0.15));
        let hdd = run_tpcc(&scale, &SystemSetup::hdd_only());
        assert!(
            face.tpmc > hdd.tpmc,
            "FaCE {:.0} vs HDD-only {:.0}",
            face.tpmc,
            hdd.tpmc
        );
    }

    #[test]
    fn lc_runs_with_checkpoints_are_reproducible() {
        // LC drains its dirty pages to disk at every checkpoint; the drain
        // order sets the simulated seek times, so it must not depend on
        // hash-map iteration order.
        let run = || {
            let setup = SystemSetup::face_gsc(0.08).with_policy(CachePolicyKind::Lc);
            let (config, mut workload) = sim_config(&ExperimentScale::tiny(), &setup);
            let mut engine = SimEngine::new(config);
            warm_and_measure(&mut engine, &mut workload, &ExperimentScale::tiny(), true);
            (format!("{:?}", engine.counters()), engine.tpmc())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bench_throughput_arms_scale_with_threads() {
        let rows = run_bench_throughput(&ConcurrentScale::tiny(), &[1, 4]);
        assert_eq!(rows.len(), 4);
        let cell = |destage: &str, threads: usize| {
            rows.iter()
                .find(|r| r.destage == destage && r.threads == threads)
                .unwrap()
        };
        let (sync, async_) = (cell("sync", 1), cell("async", 1));
        assert_eq!(sync.destage_threads, 0);
        assert_eq!(async_.destage_threads, 2);
        assert_eq!(sync.committed, async_.committed, "same measured budget");
        assert!(sync.tpm > 0.0 && async_.tpm > 0.0);
        // The async arm actually exercised the pipeline; the sync arm never
        // touched it.
        assert!(async_.destage_groups_completed > 0);
        assert_eq!(sync.destage_groups_completed, 0);
        // Same transactions, same log: the destage arm does not change what
        // a commit makes durable.
        assert!(sync.wal_bytes_per_txn > 0.0);
        assert_eq!(sync.wal_bytes_per_txn, async_.wal_bytes_per_txn);
        // Real threads over the shared `Database`, real (scaled) device
        // service times hiding behind concurrency: 4 threads out-run 1 on
        // the same total work. (The flush identity — every commit led or
        // piggy-backed on a flush — is pinned by the engine's
        // `concurrent_stress` test.)
        let four = cell("async", 4);
        assert_eq!(four.committed, async_.committed, "same total work");
        assert!(
            four.tps > async_.tps,
            "4 threads ({:.0} tx/s) must beat 1 thread ({:.0} tx/s)",
            four.tps,
            async_.tps
        );
    }

    #[test]
    fn bench_degrade_trajectory_trips_and_heals() {
        let rows = run_bench_degrade(&DegradeScale::tiny());
        assert_eq!(rows.len(), 4);
        let failures = evaluate_bench_degrade(&rows, 0.0, 0.0);
        assert!(failures.is_empty(), "{failures:?}");
        // The state trajectory itself, beyond the (zeroed) tps floors.
        let phase = |p: &str| rows.iter().find(|r| r.phase == p).unwrap();
        assert_eq!(phase("disk-only").breaker, "n/a");
        assert!(phase("healthy").flash_pages_written > 0);
        assert_eq!(phase("tripped").flash_pages_written, 0);
        assert!(phase("healed").flash_pages_written > 0, "cache stayed cold");
        assert!(rows.iter().all(|r| r.committed > 0 && r.tps > 0.0));
    }

    #[test]
    fn bench_read_throughput_rows_cover_each_thread_count() {
        let rows = run_bench_read_throughput(&ReadScale::tiny(), &[1, 2]);
        let threads: Vec<usize> = rows.iter().map(|r| r.threads).collect();
        assert_eq!(threads, [1, 2]);
        assert_eq!(rows[0].ops, rows[1].ops, "same measured budget");
        for row in &rows {
            assert!(row.ops_per_sec > 0.0);
            // 90/10 mix: reads dominate.
            assert!(row.gets * 2 > row.ops, "mix is not read-heavy");
            // The working set exceeds the DRAM buffer and fits the flash
            // cache, so the bench really measures the flash fetch path.
            assert!(row.flash_hit_ratio > 0.5, "reads are not hitting flash");
        }
    }

    #[test]
    fn functional_ramp_warm_beats_cold_first_window() {
        let arms = run_fig6_functional(&RecoveryScale::tiny());
        let modes: Vec<&str> = arms.iter().map(|a| a.mode.as_str()).collect();
        assert_eq!(modes, ["warm", "cold", "warm_long_history"]);
        let (warm, cold, long) = (&arms[0], &arms[1], &arms[2]);
        // Ten times the committed history, the same post-checkpoint work:
        // restart decodes the same tail, not the history.
        assert_eq!(
            long.load_txns_per_thread,
            warm.load_txns_per_thread * LONG_HISTORY_FACTOR
        );
        assert_eq!(long.recovery.losers_found, warm.recovery.losers_found);
        assert!(
            long.recovery.records_scanned <= warm.recovery.records_scanned * 3 / 2,
            "long history scanned {} records, short {}",
            long.recovery.records_scanned,
            warm.recovery.records_scanned
        );
        assert!(long.recovery.durable_lsn > warm.recovery.durable_lsn * 4);
        // The warm arm actually recovered persistent cache metadata...
        assert!(warm.recovery.cache_recovery.survived);
        assert!(warm.recovery.cache_recovery.entries_restored > 0);
        // ...and reconciliation held: nothing beyond the durable log.
        assert_eq!(warm.recovery.cache_recovery.entries_discarded_beyond_wal, 0);
        assert!(!cold.recovery.cache_recovery.survived);
        // The first post-restart window is where the warm cache pays off.
        assert!(
            warm.windows[0].tpm > cold.windows[0].tpm,
            "warm first window {:.0} tpm vs cold {:.0} tpm",
            warm.windows[0].tpm,
            cold.windows[0].tpm
        );
        // The warm cache shifts the first window's miss traffic from disk to
        // flash relative to the cold arm (both arms run identical windows).
        assert!(warm.windows[0].flash_hits > cold.windows[0].flash_hits);
        assert!(warm.windows[0].disk_fetches < cold.windows[0].disk_fetches);
        // Warm redo itself was flash-dominated.
        assert!(warm.recovery.pages_from_flash > warm.recovery.pages_from_disk);
        // The loser wave left real undo work for both arms, and every undone
        // update was compensated in the log.
        for arm in [warm, cold] {
            assert!(
                arm.recovery.losers_found > 0,
                "{} arm found no losers",
                arm.mode
            );
            assert!(
                arm.recovery.updates_undone > 0,
                "{} arm undid nothing",
                arm.mode
            );
            assert_eq!(arm.recovery.clrs_written, arm.recovery.updates_undone);
        }
    }

    #[test]
    fn functional_restart_sweep_covers_all_arms() {
        let scale = RecoveryScale {
            load_txns_per_thread: 25,
            post_ckpt_txns_per_thread: 10,
            ..RecoveryScale::tiny()
        };
        let rows = run_table6_functional(&scale);
        assert_eq!(rows.len(), 9, "3 intervals x 3 arms");
        for row in &rows {
            assert!(row.restart_secs >= 0.0);
            assert!(row.recovery.records_scanned > 0);
        }
        let warm: Vec<_> = rows.iter().filter(|r| r.policy.contains("warm")).collect();
        let cold: Vec<_> = rows.iter().filter(|r| r.policy.contains("cold")).collect();
        let hdd: Vec<_> = rows.iter().filter(|r| r.policy == "HDD only").collect();
        assert_eq!(warm.len(), 3);
        assert_eq!(cold.len(), 3);
        assert_eq!(hdd.len(), 3);
        for (w, c) in warm.iter().zip(cold.iter()) {
            // The warm restarts really replayed journal/checkpoint state...
            assert!(w.recovery.cache_recovery.survived);
            assert!(w.recovery.cache_recovery.entries_restored > 0);
            assert!(!c.recovery.cache_recovery.survived);
            // ...and redo found more of its pages in flash than the cold arm
            // (which starts from a wiped device) ever can.
            assert!(
                w.recovery.pages_from_flash > c.recovery.pages_from_flash,
                "warm redo flash {} vs cold {}",
                w.recovery.pages_from_flash,
                c.recovery.pages_from_flash
            );
        }
        for h in &hdd {
            assert_eq!(h.recovery.pages_from_flash, 0);
        }
    }

    #[test]
    fn recovery_rows_cover_both_policies_and_intervals() {
        let scale = ExperimentScale {
            warmup_txns: 200,
            measure_txns: 200,
            ..ExperimentScale::tiny()
        };
        let rows = run_table6(&scale);
        assert_eq!(rows.len(), 6);
        let face_rows: Vec<_> = rows.iter().filter(|r| r.policy == "FaCE+GSC").collect();
        let hdd_rows: Vec<_> = rows.iter().filter(|r| r.policy == "HDD only").collect();
        assert_eq!(face_rows.len(), 3);
        assert_eq!(hdd_rows.len(), 3);
        for (f, h) in face_rows.iter().zip(hdd_rows.iter()) {
            assert!(
                f.restart_secs <= h.restart_secs,
                "FaCE restart should not be slower ({} vs {})",
                f.restart_secs,
                h.restart_secs
            );
        }
    }

    /// Assert that `failures` is exactly one failure mentioning `needle`.
    fn one_failure(failures: Vec<String>, needle: &str) {
        assert!(
            failures.len() == 1 && failures[0].contains(needle),
            "expected one `{needle}` failure, got {failures:?}"
        );
    }

    fn throughput_rows() -> Vec<ThroughputBenchRow> {
        let row = |destage: &str, threads, tpm| ThroughputBenchRow {
            destage: destage.to_string(),
            threads,
            tpm,
            wal_bytes_per_txn: 800.0,
            ..Default::default()
        };
        vec![
            row("async", 1, 1_000.0),
            row("async", 4, 3_000.0),
            row("sync", 4, 2_500.0),
        ]
    }

    #[test]
    fn throughput_gate_fails_each_condition_alone() {
        let gate = |edit: fn(&mut Vec<ThroughputBenchRow>)| {
            let mut rows = throughput_rows();
            edit(&mut rows);
            evaluate_bench_throughput(&rows, 1_200.0)
        };
        assert!(gate(|_| {}).is_empty());
        one_failure(gate(|r| r[0].tpm = 4_000.0), "does not beat 1-thread");
        one_failure(gate(|r| r[2].tpm = 3_500.0), "loses to sync");
        one_failure(
            gate(|r| r[1].wal_bytes_per_txn = 1_300.0),
            "B per transaction",
        );
        one_failure(gate(|r| drop(r.remove(2))), "missing row");
    }

    fn read_rows() -> Vec<ReadBenchRow> {
        let row = |threads, ops_per_sec| ReadBenchRow {
            threads,
            ops_per_sec,
            ..Default::default()
        };
        vec![row(1, 1_000.0), row(4, 2_500.0)]
    }

    #[test]
    fn read_gate_fails_each_condition_alone() {
        let gate = |edit: fn(&mut Vec<ReadBenchRow>)| {
            let mut rows = read_rows();
            edit(&mut rows);
            evaluate_bench_read(&rows, 2.0)
        };
        assert!(gate(|_| {}).is_empty());
        one_failure(gate(|r| r[1].ops_per_sec = 1_900.0), "need 2x");
        one_failure(
            gate(|r| {
                r.remove(0);
            }),
            "missing row",
        );
    }

    /// Warm 0.01 s, cold 0.2 s (ratio 0.05), long history 0.011 s; warm's
    /// first window out-ramps cold's.
    fn ramp_arms() -> Vec<RampArmReport> {
        let arm = |mode: &str, restart_secs, tpm| RampArmReport {
            mode: mode.to_string(),
            restart_secs,
            windows: vec![RampWindowRow {
                tpm,
                ..Default::default()
            }],
            ..Default::default()
        };
        vec![
            arm("warm", 0.01, 900.0),
            arm("cold", 0.2, 300.0),
            arm("warm_long_history", 0.011, 900.0),
        ]
    }

    /// [`ramp_arms`] as a committed `BENCH_recovery.json` parses (ratio
    /// 0.05), after `edit`.
    fn committed_ramp(edit: fn(&mut Vec<RampArmReport>)) -> Value {
        let mut arms = ramp_arms();
        edit(&mut arms);
        serde_json::from_str(&serde_json::to_string(&arms).unwrap()).unwrap()
    }

    #[test]
    fn ramp_gate_fails_each_condition_alone() {
        let base = committed_ramp(|_| {});
        let gate = |edit: fn(&mut Vec<RampArmReport>), committed: Option<&Value>| {
            let mut arms = ramp_arms();
            edit(&mut arms);
            evaluate_fig6_ramp(&arms, committed)
        };
        assert!(gate(|_| {}, Some(&base)).is_empty());
        one_failure(
            gate(|a| a[0].windows[0].tpm = 200.0, Some(&base)),
            "first window",
        );
        // Ratio 0.15: past the committed 0.05 + 25 % and past the guard.
        one_failure(gate(|a| a[0].restart_secs = 0.03, Some(&base)), "ratio");
        // Ratio 0.09: past the committed 0.05 + 25 %, but under the guard.
        assert!(gate(|a| a[0].restart_secs = 0.018, Some(&base)).is_empty());
        // Without a committed run there is nothing to regress against.
        assert!(gate(|a| a[0].restart_secs = 0.03, None).is_empty());
        one_failure(
            gate(|a| a[2].restart_secs = 0.02, Some(&base)),
            "long history",
        );
        one_failure(gate(|a| drop(a.remove(2)), Some(&base)), "missing arm");
    }

    /// A committed run the gate cannot take a ratio from fails the gate
    /// instead of turning the ratio check off.
    #[test]
    fn ramp_gate_fails_a_committed_run_without_every_arm() {
        let gate = |committed: Value| evaluate_fig6_ramp(&ramp_arms(), Some(&committed));
        one_failure(gate(committed_ramp(|a| drop(a.remove(0)))), "`warm`");
        one_failure(gate(committed_ramp(|a| drop(a.remove(1)))), "`cold`");
        one_failure(
            gate(committed_ramp(|a| drop(a.remove(2)))),
            "`warm_long_history`",
        );
        one_failure(
            gate(committed_ramp(|a| a[1].restart_secs = 0.0)),
            "took no time",
        );
        // A file that does not parse reaches the gate as `null`.
        one_failure(gate(Value::Null), "`warm`");
    }
}
