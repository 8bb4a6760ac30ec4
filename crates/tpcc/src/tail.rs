//! Tail-latency driver: zipfian traffic in fixed wall-clock windows, with
//! optional mid-run scan injection and burst arrival.
//!
//! Unlike the transaction-count drivers in [`crate::driver`], this driver
//! runs for a fixed wall-clock [`TailConfig::duration`] sliced into equal
//! [`TailConfig::window`]s, and every thread records each transaction's
//! commit latency into the histogram of the *window the commit landed in*.
//! Windows are wall-clock-aligned across threads (all pacers and window
//! clocks share one start instant), so "the window the scan ran in" means
//! the same thing on every thread — the property the p99-under-scan gate
//! depends on.
//!
//! Three workload ingredients come from `face-workload`:
//!
//! - a zipfian [`WorkloadGen`] per thread (seed + thread index) dealing
//!   get/read-modify-write transactions over the loaded active set;
//! - an optional [`TailScan`]: at a configured elapsed time, thread 0 sweeps
//!   a contiguous *unloaded* key region sized to flush the flash cache
//!   (bucket pages exist without loading — the engine pre-allocates them —
//!   so each scan get is a real disk fetch and a clean first-touch insert,
//!   exactly the traffic ghost admission and S3-FIFO are built to reject);
//! - an [`Arrival`] schedule driving per-transaction pacing, including
//!   single-burst shapes for the burst-recovery gate.
//!
//! Scan gets are *not* recorded in the latency histograms (they are the
//! pollution, not the workload); they are counted in
//! [`TailReport::scan_pages`]. Read-modify-write operations whose key falls
//! outside the thread's write partition degrade to plain gets, keeping
//! write-sets disjoint (like every other driver here) without disturbing
//! the zipfian key stream.

use std::sync::Arc;
use std::time::{Duration, Instant};

use face_engine::Database;
use face_workload::{
    Arrival, LatencyHistogram, LatencySummary, MixConfig, Op, Pacer, ScanPlan, WorkloadGen,
};

/// A mid-run cache-flushing scan.
#[derive(Debug, Clone, Copy)]
pub struct TailScan {
    /// Elapsed run time at which thread 0 starts the sweep.
    pub at: Duration,
    /// The key range to sweep (see [`ScanPlan::sized_to_flush`]).
    pub plan: ScanPlan,
}

/// Configuration of a tail-latency run.
#[derive(Debug, Clone)]
pub struct TailConfig {
    /// Worker threads (thread 0 additionally runs the scan, if any).
    pub threads: usize,
    /// Total measured wall-clock time.
    pub duration: Duration,
    /// Window width; the run is sliced into `ceil(duration / window)`
    /// windows with per-window latency histograms.
    pub window: Duration,
    /// The zipfian get/read-modify-write mix each thread deals.
    pub mix: MixConfig,
    /// Arrival pacing shared by all threads (phases align on one clock).
    pub arrival: Arrival,
    /// Optional mid-run scan, executed once by thread 0.
    pub scan: Option<TailScan>,
    /// Base RNG seed; thread `t` streams from `seed + t`.
    pub seed: u64,
}

/// One wall-clock window of a [`TailReport`], merged across threads.
#[derive(Debug, Clone)]
pub struct TailWindow {
    /// Window index (0 = first window).
    pub window: usize,
    /// Transactions committed in this window (all threads).
    pub committed: u64,
    /// Merged latency summary for the window.
    pub summary: LatencySummary,
}

/// What a tail run observed.
#[derive(Debug, Clone)]
pub struct TailReport {
    /// Per-window merged views, in window order.
    pub windows: Vec<TailWindow>,
    /// Whole-run merged latency histogram.
    pub total: LatencyHistogram,
    /// Transactions committed across all threads and windows.
    pub committed: u64,
    /// `get` operations performed (scan gets excluded).
    pub gets: u64,
    /// `put` operations performed.
    pub puts: u64,
    /// Keys swept by the scan (0 when no scan configured).
    pub scan_pages: u64,
    /// Window index in which the scan started, if one ran.
    pub scan_window: Option<usize>,
    /// Window index in which the scan finished, if one ran. Windows after
    /// this one see the scan's *aftermath* (a flushed cache) without the
    /// scan's own device traffic — the p99-under-scan gate compares those,
    /// since during the sweep every arm pays the same buffer-pool and
    /// device contention regardless of admission policy.
    pub scan_end_window: Option<usize>,
    /// Wall-clock time the scan itself took, if one ran.
    pub scan_wall: Option<Duration>,
    /// Windows overlapping the unpaced burst phase, as
    /// `(first, last)` inclusive — present for single-burst arrivals.
    pub burst_windows: Option<(usize, usize)>,
    /// Transactions that committed after the nominal run end and were
    /// clamped into the last window (logged by the bench gate).
    pub clamped_txns: u64,
    /// Wall time from first spawn to last join.
    pub wall: Duration,
}

struct TailThreadResult {
    window_hists: Vec<LatencyHistogram>,
    window_committed: Vec<u64>,
    gets: u64,
    puts: u64,
    scan_pages: u64,
    scan_window: Option<usize>,
    scan_end_window: Option<usize>,
    scan_wall: Option<Duration>,
    clamped_txns: u64,
}

/// Number of windows a run of `duration` sliced by `window` produces.
fn window_count(duration: Duration, window: Duration) -> usize {
    let d = duration.as_nanos();
    let w = window.as_nanos().max(1);
    (d.div_ceil(w)).max(1) as usize
}

/// Drive `db` with zipfian tail-latency traffic (see [`TailConfig`]).
/// Call [`crate::driver::load_read_heavy`] for `config.mix.keys` first so
/// the active set is populated (and, having been written, flash-resident
/// under every admission policy).
///
/// # Panics
/// Panics if `threads == 0`, the window is zero, or an engine operation
/// fails (the driver is a benchmark harness; failures are bugs).
pub fn run_tail(db: &Arc<Database>, config: &TailConfig) -> TailReport {
    assert!(config.threads > 0, "need at least one thread");
    assert!(config.window > Duration::ZERO, "window must be non-zero");
    let n_windows = window_count(config.duration, config.window);
    let start = Instant::now();
    let mut results: Vec<Option<TailThreadResult>> = Vec::new();
    results.resize_with(config.threads, || None);
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(config.threads);
        for t in 0..config.threads {
            let db = Arc::clone(db);
            let cfg = config.clone();
            handles.push(s.spawn(move || run_tail_thread(&db, &cfg, t, start, n_windows)));
        }
        for (t, handle) in handles.into_iter().enumerate() {
            results[t] = Some(handle.join().expect("worker thread panicked"));
        }
    });

    let mut windows = Vec::with_capacity(n_windows);
    let mut merged_hists: Vec<LatencyHistogram> = Vec::new();
    merged_hists.resize_with(n_windows, LatencyHistogram::new);
    let mut window_committed = vec![0u64; n_windows];
    let mut total = LatencyHistogram::new();
    let (mut gets, mut puts, mut scan_pages, mut clamped) = (0u64, 0u64, 0u64, 0u64);
    let (mut scan_window, mut scan_end_window, mut scan_wall) = (None, None, None);
    for result in results.into_iter().flatten() {
        for (w, hist) in result.window_hists.iter().enumerate() {
            merged_hists[w].merge(hist);
            total.merge(hist);
        }
        for (w, c) in result.window_committed.iter().enumerate() {
            window_committed[w] += c;
        }
        gets += result.gets;
        puts += result.puts;
        scan_pages += result.scan_pages;
        clamped += result.clamped_txns;
        scan_window = scan_window.or(result.scan_window);
        scan_end_window = scan_end_window.or(result.scan_end_window);
        scan_wall = scan_wall.or(result.scan_wall);
    }
    for (w, hist) in merged_hists.iter().enumerate() {
        windows.push(TailWindow {
            window: w,
            committed: window_committed[w],
            summary: hist.summary(),
        });
    }
    let burst_windows = match config.arrival {
        Arrival::SingleBurst { pre, burst, .. } if burst > Duration::ZERO => {
            let first = (pre.as_nanos() / config.window.as_nanos().max(1)) as usize;
            let last_ns = (pre + burst).as_nanos().saturating_sub(1);
            let last = (last_ns / config.window.as_nanos().max(1)) as usize;
            Some((first.min(n_windows - 1), last.min(n_windows - 1)))
        }
        _ => None,
    };
    TailReport {
        windows,
        total,
        committed: window_committed.iter().sum(),
        gets,
        puts,
        scan_pages,
        scan_window,
        scan_end_window,
        scan_wall,
        burst_windows,
        clamped_txns: clamped,
        wall: start.elapsed(),
    }
}

fn run_tail_thread(
    db: &Database,
    config: &TailConfig,
    thread: usize,
    start: Instant,
    n_windows: usize,
) -> TailThreadResult {
    let n = config.threads as u64;
    let t = thread as u64;
    let keys = config.mix.keys;
    // Disjoint write partition over the active set, like the other drivers.
    let write_lo = t * keys / n;
    let write_hi = ((t + 1) * keys / n).max(write_lo + 1);
    let mut gen = WorkloadGen::new(config.mix, config.seed + t);
    let pacer = Pacer::started_at(config.arrival, start);
    let mut result = TailThreadResult {
        window_hists: Vec::new(),
        window_committed: vec![0u64; n_windows],
        gets: 0,
        puts: 0,
        scan_pages: 0,
        scan_window: None,
        scan_end_window: None,
        scan_wall: None,
        clamped_txns: 0,
    };
    result
        .window_hists
        .resize_with(n_windows, LatencyHistogram::new);
    let mut scan_pending = if thread == 0 { config.scan } else { None };
    let mut txn_ops = Vec::with_capacity(config.mix.ops_per_txn as usize);
    let mut value = [0u8; 16];
    let window_ns = config.window.as_nanos().max(1);
    loop {
        let elapsed = start.elapsed();
        if elapsed >= config.duration {
            break;
        }
        if let Some(scan) = scan_pending {
            if elapsed >= scan.at {
                // The cache-flushing sweep. Not paced, not latency-recorded:
                // it is the pollution the workload suffers, not part of it.
                result.scan_window =
                    Some(((elapsed.as_nanos() / window_ns) as usize).min(n_windows - 1));
                let scan_started = Instant::now();
                for key in scan.plan.keys() {
                    db.get(key).expect("scan get failed");
                    result.scan_pages += 1;
                }
                result.scan_wall = Some(scan_started.elapsed());
                result.scan_end_window =
                    Some(((start.elapsed().as_nanos() / window_ns) as usize).min(n_windows - 1));
                scan_pending = None;
                continue;
            }
        }
        pacer.pause();
        gen.next_txn(&mut txn_ops);
        let txn_started = Instant::now();
        let txn = db.begin();
        for op in &txn_ops {
            match *op {
                Op::ReadModifyWrite { key } if (write_lo..write_hi).contains(&key) => {
                    db.get(key).expect("rmw get failed");
                    value[..8].copy_from_slice(&key.to_le_bytes());
                    value[8..].copy_from_slice(&t.to_le_bytes());
                    db.put(txn, key, &value).expect("rmw put failed");
                    result.gets += 1;
                    result.puts += 1;
                }
                // Out-of-partition RMWs degrade to reads: write-sets stay
                // disjoint without perturbing the zipfian key stream.
                Op::Get { key } | Op::ReadModifyWrite { key } => {
                    db.get(key).expect("get failed");
                    result.gets += 1;
                }
            }
        }
        db.commit(txn).expect("commit failed");
        let latency = txn_started.elapsed();
        let end_elapsed = start.elapsed();
        let mut w = (end_elapsed.as_nanos() / window_ns) as usize;
        if w >= n_windows {
            w = n_windows - 1;
            result.clamped_txns += 1;
        }
        result.window_hists[w].record(latency);
        result.window_committed[w] += 1;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::load_read_heavy;
    use face_engine::{CachePolicyKind, EngineConfig};

    fn db() -> Arc<Database> {
        Arc::new(
            Database::open(
                EngineConfig::in_memory()
                    .buffer_frames(128)
                    .table_buckets(4096)
                    .flash_cache(CachePolicyKind::FaceGsc, 1024),
            )
            .unwrap(),
        )
    }

    fn mix(keys: u64) -> MixConfig {
        MixConfig {
            keys,
            theta: 0.9,
            rmw_pct: 10,
            ops_per_txn: 4,
            rotate_every_txns: 0,
            rotate_step: 0,
        }
    }

    #[test]
    fn windows_partition_the_run() {
        let db = db();
        load_read_heavy(&db, 512);
        let config = TailConfig {
            threads: 2,
            duration: Duration::from_millis(200),
            window: Duration::from_millis(50),
            mix: mix(512),
            arrival: Arrival::Unpaced,
            scan: None,
            seed: 7,
        };
        let report = run_tail(&db, &config);
        assert_eq!(report.windows.len(), 4);
        let per_window: u64 = report.windows.iter().map(|w| w.committed).sum();
        assert_eq!(per_window, report.committed);
        assert_eq!(report.total.count(), report.committed);
        assert!(report.committed > 0);
        assert!(report.scan_window.is_none());
        assert_eq!(report.scan_pages, 0);
        assert!(report.burst_windows.is_none());
        // Unpaced 200 ms across 2 threads commits in every window.
        for w in &report.windows {
            assert!(w.committed > 0, "window {} empty", w.window);
            assert_eq!(w.summary.count, w.committed);
        }
    }

    #[test]
    fn scan_runs_once_and_is_not_latency_recorded() {
        let db = db();
        load_read_heavy(&db, 256);
        let config = TailConfig {
            threads: 2,
            duration: Duration::from_millis(160),
            window: Duration::from_millis(40),
            mix: mix(256),
            arrival: Arrival::Unpaced,
            scan: Some(TailScan {
                at: Duration::from_millis(40),
                plan: ScanPlan {
                    first_key: 256,
                    key_span: 300,
                },
            }),
            seed: 3,
        };
        let report = run_tail(&db, &config);
        assert_eq!(report.scan_pages, 300);
        let sw = report.scan_window.expect("scan ran");
        assert!(sw >= 1, "scan window {sw} before its trigger");
        let end = report.scan_end_window.expect("scan finished");
        assert!(end >= sw, "scan end window {end} before start window {sw}");
        assert!(report.scan_wall.expect("scan wall") > Duration::ZERO);
        // Scan gets are excluded from both op counts and histograms.
        assert_eq!(report.total.count(), report.committed);
    }

    #[test]
    fn burst_windows_cover_the_unpaced_phase() {
        let db = db();
        load_read_heavy(&db, 256);
        let config = TailConfig {
            threads: 2,
            duration: Duration::from_millis(200),
            window: Duration::from_millis(40),
            mix: mix(256),
            arrival: Arrival::SingleBurst {
                pre: Duration::from_millis(80),
                burst: Duration::from_millis(40),
                gap: Duration::from_micros(300),
            },
            scan: None,
            seed: 5,
        };
        let report = run_tail(&db, &config);
        assert_eq!(report.burst_windows, Some((2, 2)));
        // The unpaced burst window commits more than the paced ones around it.
        let burst = report.windows[2].committed;
        assert!(burst > 0);
    }
}
