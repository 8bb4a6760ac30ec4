//! What the benchmark runs and what it reports: the four workloads, the
//! engine configuration they share, and the metric tables. `BENCHMARK.json`
//! at the repo root names the same workloads and metrics; a self-test keeps
//! the two in step.

use face_engine::{CachePolicyKind, DeviceLatency, EngineConfig};

/// Closed-loop client threads (this sandbox has two cores). The engine's own
/// two destager threads are part of the program under test.
pub const CLIENTS: usize = 2;

/// TPC-C scale factor of the `tpcc_*` and `crash_restart` workloads.
pub const WAREHOUSES: u32 = 4;

/// Default `--seed` and `--seconds`.
pub const DEFAULT_SEED: u64 = 7;
pub const DEFAULT_SECONDS: u64 = 10;

/// Set-ups per run; `setup_s` is their median. The last database is the one
/// measured; the others run [`RESTART_CYCLES`] crash cycles each and are
/// dropped.
pub const SETUPS: usize = 3;

/// Crash → warm restart cycles on each set-up database that is not measured.
/// `restart_ms` is the median over all of them: restarts of a database with a
/// fixed history, whatever the engine's speed.
pub const RESTART_CYCLES: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `face_tpcc::TpccWorkload` page accesses: a write is a `put`.
    Tpcc,
    /// `face_workload::WorkloadGen` zipfian mix: a write is a `get` + `put`.
    Kv,
}

/// One benchmark workload. Sizes are 4 KiB pages.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// `DeviceLatency::default()` sleeps when set, zero-latency devices when
    /// not.
    pub sim_devices: bool,
    /// Bucket pages of the key-value table (the database size).
    pub buckets: u32,
    pub dram_frames: usize,
    pub flash_pages: usize,
    /// Keys loaded (and committed) before the warm-up; 0 loads nothing.
    pub load_keys: u64,
    /// Warm-up transactions per client, sized so set-up takes about 2 s.
    pub warmup_txns: usize,
    /// Transactions generated per client and second of `--seconds`, about
    /// three times what the engine commits today; the stream wraps around if
    /// a faster engine exhausts it.
    pub stream_txns_per_s: usize,
    /// The measured phase is crash → restart cycles, each followed by a ramp
    /// window, instead of one uninterrupted run.
    pub crash_cycles: bool,
    /// Transactions per client between the start of a crash cycle and its
    /// crash.
    pub cycle_txns: usize,
    /// Transactions per client in the ramp window after each restart of the
    /// measured phase (`crash_cycles` only).
    pub ramp_txns: usize,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tpcc_sim",
        kind: Kind::Tpcc,
        sim_devices: true,
        buckets: 16_384,
        dram_frames: 512,
        flash_pages: 4_096,
        load_keys: 0,
        warmup_txns: 350,
        stream_txns_per_s: 600,
        crash_cycles: false,
        cycle_txns: 20,
        ramp_txns: 0,
        why: "TPC-C mix on sleep-simulated disk/flash/log: the paper's headline run, device-bound, decided by hit ratios, group writes and group commit",
    },
    Workload {
        name: "tpcc_mem",
        kind: Kind::Tpcc,
        sim_devices: false,
        buckets: 16_384,
        dram_frames: 512,
        flash_pages: 4_096,
        load_keys: 0,
        warmup_txns: 5_000,
        stream_txns_per_s: 7_000,
        crash_cycles: false,
        cycle_txns: 20,
        ramp_txns: 0,
        why: "same TPC-C inputs on zero-latency devices: the software cost of the write path (WAL, eviction, group write, destage, lock wrappers)",
    },
    Workload {
        name: "kv_read_mem",
        kind: Kind::Kv,
        sim_devices: false,
        buckets: 8_192,
        dram_frames: 512,
        flash_pages: 9_216,
        load_keys: 65_536,
        warmup_txns: 20_000,
        stream_txns_per_s: 45_000,
        crash_cycles: false,
        cycle_txns: 20,
        ramp_txns: 0,
        why: "zipfian 95% get / 5% read-modify-write, database fits flash but not DRAM, zero latency: buffer lookup, page latch and lock-light flash fetch, write path nearly idle",
    },
    Workload {
        name: "crash_restart",
        kind: Kind::Tpcc,
        sim_devices: true,
        buckets: 16_384,
        dram_frames: 512,
        flash_pages: 4_096,
        load_keys: 0,
        warmup_txns: 400,
        stream_txns_per_s: 600,
        crash_cycles: true,
        cycle_txns: 20,
        ramp_txns: 100,
        why: "checkpoint, in-flight losers, crash, timed warm restart, ramp window, repeated: the paper's recovery claim, and restart cost growing with an untruncated log",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Keys of the zipfian workload (8 per bucket page of `kv_read_mem`).
pub const KV_THETA: f64 = 0.9;
pub const KV_OPS_PER_TXN: u32 = 8;
pub const KV_RMW_PCT: u32 = 5;

/// The shipped default engine, spelled out so a changed default shows up
/// here as a diff and not as a silent shift of every number: FaCE+GSC, two
/// destager threads, lock-light reads, ghost admission off, 8 buffer shards,
/// 4 cache shards, replacement groups of 16 pages. Flush policy: commit-time
/// log force through group commit (the engine has no other).
///
/// `flash_sleeps_in_bench` is the traced run's arrangement: the engine's
/// flash latency is set to zero and the injected timing store sleeps the same
/// service times itself, so its spans contain the device time.
pub fn engine_config(
    w: &Workload,
    destage_threads: usize,
    flash_sleeps_in_bench: bool,
) -> EngineConfig {
    let mut config = EngineConfig::in_memory()
        .buffer_frames(w.dram_frames)
        .table_buckets(w.buckets)
        .flash_cache(CachePolicyKind::FaceGsc, w.flash_pages)
        .destage_threads(destage_threads)
        .lock_light_reads(true)
        .buffer_shards(8)
        .cache_shards(4);
    config.cache_config.group_size = 16;
    config.cache_config.ghost_admission = false;
    if w.sim_devices {
        let mut latency = DeviceLatency::default();
        if flash_sleeps_in_bench {
            latency.flash_read = std::time::Duration::ZERO;
            latency.flash_write = std::time::Duration::ZERO;
        }
        config = config.device_latency(latency);
    }
    config
}

/// A reported metric. `bound` is the share of the parent's median by which an
/// end-to-end metric may get worse; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the engine sees. Measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    e2e("txn_per_s", "1/s", "higher", 0.25),
    e2e("txn_p50_us", "us", "lower", 0.25),
    e2e("txn_p95_us", "us", "lower", 0.25),
    e2e("flash_pages_per_txn", "1/txn", "lower", 0.20),
    e2e("disk_ios_per_txn", "1/txn", "lower", 0.10),
    e2e("wal_bytes_per_txn", "B/txn", "lower", 0.08),
    e2e("restart_ms", "ms", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.20),
];

/// Single layers, from the traced run. Layer = crate: `client` is the bench
/// loop itself, `engine` face-engine, `buffer` face-buffer, `cache`
/// face-cache, `wal` face-wal, `flashdev` the injected timing flash store,
/// `pagestore` face-pagestore, `analysis` face-analysis.
pub const PER_LAYER: &[Metric] = &[
    layer("client.txn_p99_us", "us", "lower"),
    layer("client.txn_p999_us", "us", "lower"),
    layer("client.txn_max_us", "us", "lower"),
    layer("client.gen_ns_per_txn", "ns", "lower"),
    layer("client.self_share", "ratio", "lower"),
    layer("client.trace_overhead_share", "ratio", "lower"),
    layer("client.final_restart_ms", "ms", "lower"),
    layer("engine.begin_ns_p50", "ns", "lower"),
    layer("engine.get_ns_p50", "ns", "lower"),
    layer("engine.get_ns_p95", "ns", "lower"),
    layer("engine.put_ns_p50", "ns", "lower"),
    layer("engine.put_ns_p95", "ns", "lower"),
    layer("engine.commit_ns_p50", "ns", "lower"),
    layer("engine.commit_ns_p95", "ns", "lower"),
    layer("engine.begin_share", "ratio", "lower"),
    layer("engine.get_share", "ratio", "lower"),
    layer("engine.put_share", "ratio", "lower"),
    layer("engine.commit_share", "ratio", "lower"),
    layer("engine.disk_reads_per_txn", "1/txn", "lower"),
    layer("engine.disk_writes_per_txn", "1/txn", "lower"),
    layer("engine.wash_hits", "count", "higher"),
    layer("engine.wal_guard_forces", "count", "lower"),
    layer("engine.checkpoint_ms", "ms", "lower"),
    layer("engine.restart_first_ms", "ms", "lower"),
    layer("engine.restart_last_ms", "ms", "lower"),
    layer("engine.restart_growth", "ratio", "lower"),
    layer("engine.restart_cold_ms", "ms", "lower"),
    layer("engine.redo_flash_share", "ratio", "higher"),
    layer("engine.records_scanned_last", "count", "lower"),
    layer("buffer.hit_ratio", "ratio", "higher"),
    layer("buffer.evictions_per_txn", "1/txn", "lower"),
    layer("buffer.dirty_eviction_share", "ratio", "lower"),
    layer("buffer.read_retries", "count", "lower"),
    layer("buffer.ref_rescues", "count", "higher"),
    layer("buffer.probe.read_hit_ns", "ns", "lower"),
    layer("buffer.probe.read_miss_ns", "ns", "lower"),
    layer("buffer.probe.update_ns", "ns", "lower"),
    layer("cache.flash_hit_ratio", "ratio", "higher"),
    layer("cache.inserts_per_txn", "1/txn", "lower"),
    layer("cache.skipped_insert_share", "ratio", "higher"),
    layer("cache.second_chance_share", "ratio", "higher"),
    layer("cache.staged_out_to_disk_per_txn", "1/txn", "lower"),
    layer("cache.fetch_retries", "count", "lower"),
    layer("cache.metadata_flushes", "count", "lower"),
    layer("cache.admission_filtered", "count", "higher"),
    layer("cache.destage.groups_per_txn", "1/txn", "lower"),
    layer("cache.destage.backpressure_stalls", "count", "lower"),
    layer("cache.destage.retries", "count", "lower"),
    layer("cache.probe.fetch_hit_ns", "ns", "lower"),
    layer("cache.probe.fetch_miss_ns", "ns", "lower"),
    layer("cache.probe.insert_ns", "ns", "lower"),
    layer("cache.probe.group_write_ns", "ns", "lower"),
    layer("cache.probe.recover_ms", "ms", "lower"),
    layer("wal.records_per_txn", "1/txn", "lower"),
    layer("wal.update_records_per_txn", "1/txn", "lower"),
    layer("wal.forces_per_txn", "1/txn", "lower"),
    layer("wal.piggyback_share", "ratio", "higher"),
    layer("wal.bytes_per_record", "B", "lower"),
    layer("wal.probe.append_ns", "ns", "lower"),
    layer("wal.probe.force_ns", "ns", "lower"),
    layer("wal.probe.scan_ns_per_record", "ns", "lower"),
    layer("flashdev.reads_per_txn", "1/txn", "lower"),
    layer("flashdev.write_calls_per_txn", "1/txn", "lower"),
    layer("flashdev.pages_per_write", "pages", "higher"),
    layer("flashdev.busy_share", "ratio", "lower"),
    layer("flashdev.fg_read_ns_p50", "ns", "lower"),
    layer("pagestore.probe.read_ns", "ns", "lower"),
    layer("pagestore.probe.write_ns", "ns", "lower"),
    layer("analysis.probe.lock_ns", "ns", "lower"),
];
