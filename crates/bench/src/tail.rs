//! The tail-latency gate: p99 under cache-flushing scans and arrival bursts.
//!
//! `bench_flash_economy` (PR 7) showed admission filtering saves flash
//! *writes*; this bench shows what that buys the *reader*: when a mid-run
//! sequential scan sweeps a cold key region through the cache, an unfiltered
//! FaCE+GSC cache admits every one-touch scan page, evicts the zipfian hot
//! set, and pays for it in post-scan p99 (hot reads fall back to ~500 µs
//! disk fetches until the set re-caches). Ghost-gated FaCE+GSC and S3-FIFO
//! refuse the scan pages at admission, so their hot set — and their p99 —
//! survives the sweep.
//!
//! Arms (each on a fresh engine, same load/warm-up/seeds):
//!
//! | policy | admission | no-scan | mid-run scan | burst arrival |
//! |---|---|---|---|---|
//! | FaCE+GSC | unfiltered | ✓ | ✓ | |
//! | FaCE+GSC | ghost-gated | ✓ | ✓ | ✓ |
//! | S3-FIFO | built-in ghost | ✓ | ✓ | ✓ |
//!
//! The run is sliced into wall-clock windows with per-window latency
//! histograms (see `face_tpcc::tail`). The gate compares the **median
//! window p99 while the sweep runs** (one noisy window cannot fail CI —
//! the windowed-median deflake guard) against the **median p99 of the same
//! run's pre-scan windows**. During the sweep is
//! where admission shows: the scan's disk reads and buffer churn hit every
//! arm alike, but only an admit-everything cache also pays per-page
//! admission — group formation, directory updates, destage traffic —
//! under its shard locks while the foreground runs. The *aftermath*
//! (median p99 of the three windows after the sweep) is reported as a
//! separate column; GSC's second chance keeps the continually-referenced
//! hot set resident through a one-pass scan, so the post-scan window
//! recovers even unfiltered — which is FaCE's own scan story, worth
//! keeping visible next to the admission story. The gate:
//!
//! - scan-resistant arms (ghost-gated, S3-FIFO) must stay within
//!   [`TailBounds::scan_ratio_bound`];
//! - the unfiltered baseline must be *demonstrably worse* — at least
//!   [`TailBounds::unfiltered_margin`] × every filtered arm's ratio;
//! - burst arms must see some window within
//!   [`TailBounds::recovery_windows`] after the burst whose p99 returns to
//!   [`TailBounds::recovery_factor`] × the pre-burst median.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

use face_cache::CachePolicyKind;
use face_tpcc::{TailConfig, TailScan};
use face_workload::{Arrival, MixConfig, ScanPlan};

/// The scale of the tail-latency bench.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TailScale {
    /// Keys pre-loaded into the table (the zipfian active set; loading
    /// writes them, so every admission policy caches them on flash).
    pub keys: u64,
    /// Zipfian skew exponent over the active set.
    pub theta: f64,
    /// Percentage of operations that read-modify-write their key.
    pub rmw_pct: u32,
    /// Operations per transaction.
    pub ops_per_txn: u32,
    /// Worker threads per arm (thread 0 runs the scan).
    pub threads: usize,
    /// Unmeasured warm-up wall time per arm, milliseconds.
    pub warmup_ms: u64,
    /// Measured wall time per arm, milliseconds.
    pub measure_ms: u64,
    /// Latency window width, milliseconds.
    pub window_ms: u64,
    /// Scan overshoot over the flash cache size, percent (the sweep covers
    /// `(1 + margin/100) ×` the cache's page capacity).
    pub scan_margin_pct: u64,
    /// Per-thread think time between transactions on the steady arms,
    /// microseconds; 0 (the default) runs them unpaced. Saturated closed
    /// loops keep the vCPU continuously scheduled, which on shared/steal-
    /// prone runners gives far more repeatable tails than paced sleeps
    /// (every paced wakeup risks a multi-millisecond reschedule delay).
    pub gap_us: u64,
    /// Think time outside the burst window for burst arms, microseconds.
    pub burst_gap_us: u64,
    /// Attempts per scan arm; the attempt with the *median* p99-under-scan
    /// ratio is kept (and the discarded ratios logged). A second layer of
    /// deflaking on top of the windowed medians: a noise spike on a shared
    /// runner hits one attempt, a real admission regression elevates all.
    pub scan_attempts: u32,
}

impl Default for TailScale {
    fn default() -> Self {
        Self {
            keys: 1_024,
            theta: 0.9,
            rmw_pct: 10,
            ops_per_txn: 4,
            threads: 2,
            warmup_ms: 800,
            measure_ms: 4_000,
            window_ms: 250,
            scan_margin_pct: 100,
            gap_us: 0,
            burst_gap_us: 1_200,
            scan_attempts: 3,
        }
    }
}

impl TailScale {
    /// A tiny scale for unit tests of the harness itself.
    pub fn tiny() -> Self {
        Self {
            keys: 256,
            theta: 0.9,
            rmw_pct: 10,
            ops_per_txn: 4,
            threads: 2,
            warmup_ms: 100,
            measure_ms: 600,
            window_ms: 150,
            scan_margin_pct: 25,
            gap_us: 0,
            burst_gap_us: 400,
            scan_attempts: 1,
        }
    }
}

/// Pass/fail bounds of the tail gate.
#[derive(Debug, Clone, Copy)]
pub struct TailBounds {
    /// Maximum allowed `p99-under-scan / pre-scan-baseline-p99` ratio for
    /// the scan-resistant (admission-filtered) arms.
    pub scan_ratio_bound: f64,
    /// The unfiltered baseline's ratio must be at least this multiple of
    /// the best filtered arm's ratio ("demonstrably worse").
    pub unfiltered_margin: f64,
    /// Post-burst windows within which p99 must recover.
    pub recovery_windows: usize,
    /// A window counts as recovered when its p99 is at most this multiple
    /// of the pre-burst median window p99.
    pub recovery_factor: f64,
}

impl Default for TailBounds {
    fn default() -> Self {
        Self {
            scan_ratio_bound: 2.0,
            unfiltered_margin: 1.25,
            recovery_windows: 4,
            recovery_factor: 2.0,
        }
    }
}

/// One wall-clock window of a [`TailBenchRow`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TailWindowRow {
    /// Window index.
    pub window: usize,
    /// Transactions committed in the window.
    pub committed: u64,
    /// Median commit latency in the window, µs.
    pub p50_us: f64,
    /// 99th-percentile commit latency in the window, µs.
    pub p99_us: f64,
}

/// One arm of the tail-latency matrix.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TailBenchRow {
    /// Cache policy label ("face-gsc", "s3-fifo").
    pub policy: String,
    /// Whether admission was ghost-gated (built-in for S3-FIFO).
    pub ghost_admission: bool,
    /// Whether a mid-run cache-flushing scan was injected.
    pub scan: bool,
    /// Arrival schedule: "steady" (unpaced) or "burst" (paced → unpaced →
    /// paced single burst).
    pub arrival: String,
    /// Worker threads.
    pub threads: usize,
    /// Transactions committed in the measured run.
    pub committed: u64,
    /// Measured wall-clock seconds.
    pub wall_secs: f64,
    /// Aggregate committed transactions per second.
    pub tps: f64,
    /// Whole-run median commit latency, µs.
    pub p50_us: f64,
    /// Whole-run 95th-percentile commit latency, µs.
    pub p95_us: f64,
    /// Whole-run 99th-percentile commit latency, µs.
    pub p99_us: f64,
    /// Whole-run 99.9th-percentile commit latency, µs.
    pub p999_us: f64,
    /// Whole-run maximum commit latency, µs.
    pub max_us: f64,
    /// Median window p99 over the *unstressed* windows (before the scan /
    /// burst; all windows for steady no-scan arms), µs.
    pub baseline_window_p99_us: f64,
    /// Median window p99 while the scan sweep runs (scan arms), or the
    /// worst burst-window p99 (burst arms); equals the baseline for steady
    /// no-scan arms, µs.
    pub stressed_window_p99_us: f64,
    /// Median p99 of up to three windows after the sweep finished (0 for
    /// non-scan arms) — the aftermath: whether the hot set survived, µs.
    pub post_scan_window_p99_us: f64,
    /// Keys the scan swept (0 when `scan` is false).
    pub scan_pages: u64,
    /// Window the scan started in (−1 when no scan ran).
    pub scan_window: i64,
    /// Window the scan finished in (−1 when no scan ran); the stressed
    /// metric is the median p99 of the three windows after this one.
    pub scan_end_window: i64,
    /// First window overlapping the burst (−1 for steady arms).
    pub burst_first_window: i64,
    /// Last window overlapping the burst (−1 for steady arms).
    pub burst_last_window: i64,
    /// First post-burst window whose p99 recovered to
    /// `recovery_factor × baseline` (−1 when not recovered or no burst).
    pub recovered_window: i64,
    /// Transactions clamped into the last window after the nominal end.
    pub clamped_txns: u64,
    /// DRAM buffer hit ratio during the measured run.
    pub dram_hit_ratio: f64,
    /// Flash-cache hit ratio over DRAM misses during the measured run.
    pub flash_hit_ratio: f64,
    /// Flash pages physically programmed during the measured run.
    pub flash_pages_written: u64,
    /// The same, in bytes (pages × 4 KiB).
    pub flash_bytes_written: u64,
    /// Per-window committed counts and percentiles, in window order.
    pub windows: Vec<TailWindowRow>,
}

/// Flash cache capacity for a tail run: 1.5 × the active set, so the loaded
/// (dirty ⇒ always admitted) working set is fully flash-resident with churn
/// headroom, and a scan must overflow it to do damage.
fn tail_cache_pages(scale: &TailScale) -> usize {
    (scale.keys * 3 / 2).max(192) as usize
}

/// The engine behind the tail bench: the whole active set fits on flash
/// (loaded dirty, so resident under every admission policy), the DRAM
/// buffer holds only the zipfian head, and the bucket space leaves a cold
/// unloaded region for the scan to sweep — every scan get is a real ~500 µs
/// disk fetch followed by a clean first-touch admission decision.
fn tail_engine_config(
    scale: &TailScale,
    policy: CachePolicyKind,
    ghost: bool,
) -> face_engine::EngineConfig {
    let mut config = face_engine::EngineConfig::in_memory()
        .buffer_frames(128)
        .buffer_shards(8)
        .table_buckets(8_192)
        .flash_cache(policy, tail_cache_pages(scale))
        .cache_shards(2)
        .simulated_devices();
    config.cache_config.ghost_admission = ghost;
    config
}

/// Median of `values` (0 when empty; mean of the middle pair when even).
pub(crate) fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First window in `(burst_last, burst_last + allowed]` with committed work
/// whose p99 is at most `factor × baseline` — the burst-recovery criterion
/// shared by the runner (for the committed JSON) and [`evaluate_tail`].
fn recovery_window(
    windows: &[TailWindowRow],
    burst_last: usize,
    allowed: usize,
    factor: f64,
    baseline_p99: f64,
) -> Option<usize> {
    windows
        .iter()
        .filter(|w| w.window > burst_last && w.window <= burst_last + allowed)
        .find(|w| w.committed > 0 && w.p99_us <= factor * baseline_p99)
        .map(|w| w.window)
}

#[allow(clippy::too_many_arguments)] // one flat arm descriptor, called from one place
fn run_tail_arm(
    scale: &TailScale,
    label: &str,
    policy: CachePolicyKind,
    ghost: bool,
    scan: bool,
    burst: bool,
    bounds: &TailBounds,
    seed: u64,
) -> TailBenchRow {
    let threads = scale.threads.clamp(1, scale.keys.max(1) as usize);
    let db = Arc::new(
        face_engine::Database::open(tail_engine_config(scale, policy, ghost))
            .expect("in-memory open cannot fail"),
    );
    face_tpcc::load_read_heavy(&db, scale.keys);
    let mix = MixConfig {
        keys: scale.keys,
        theta: scale.theta,
        rmw_pct: scale.rmw_pct,
        ops_per_txn: scale.ops_per_txn,
        rotate_every_txns: 0,
        rotate_step: 0,
    };
    // Warm-up: unpaced, unmeasured, one window.
    let warmup = Duration::from_millis(scale.warmup_ms.max(1));
    face_tpcc::run_tail(
        &db,
        &TailConfig {
            threads,
            duration: warmup,
            window: warmup,
            mix,
            arrival: Arrival::Unpaced,
            scan: None,
            seed: 7,
        },
    );

    let duration = Duration::from_millis(scale.measure_ms);
    let arrival = if burst {
        Arrival::SingleBurst {
            pre: duration * 2 / 5,
            burst: duration / 5,
            gap: Duration::from_micros(scale.burst_gap_us),
        }
    } else if scale.gap_us > 0 {
        Arrival::Paced {
            gap: Duration::from_micros(scale.gap_us),
        }
    } else {
        Arrival::Unpaced
    };
    // The scan sweeps the unloaded key region just past the active set:
    // bucket pages exist without loading, so each get is a real disk fetch
    // and a clean first-touch admission decision.
    let scan_cfg = scan.then(|| TailScan {
        at: duration * 2 / 5,
        plan: ScanPlan::sized_to_flush(
            scale.keys,
            tail_cache_pages(scale) as u64,
            1,
            scale.scan_margin_pct,
        ),
    });

    let buffer_before = db.buffer_stats();
    let flash_before = db.flash_pages_written();
    let report = face_tpcc::run_tail(
        &db,
        &TailConfig {
            threads,
            duration,
            window: Duration::from_millis(scale.window_ms),
            mix,
            arrival,
            scan: scan_cfg,
            seed,
        },
    );
    if report.clamped_txns > 0 {
        eprintln!(
            "bench_tail_latency: {} txns overshot the nominal end and were \
             clamped into the last window ({label} ghost={ghost} scan={scan} burst={burst})",
            report.clamped_txns
        );
    }
    let buffer = db.buffer_stats();
    let flash_pages = db.flash_pages_written() - flash_before;
    let misses = buffer.misses - buffer_before.misses;
    let accesses = buffer.accesses - buffer_before.accesses;

    let windows: Vec<TailWindowRow> = report
        .windows
        .iter()
        .map(|w| TailWindowRow {
            window: w.window,
            committed: w.committed,
            p50_us: w.summary.p50_us,
            p99_us: w.summary.p99_us,
        })
        .collect();
    let occupied: Vec<&TailWindowRow> = windows.iter().filter(|w| w.committed > 0).collect();
    let p99s_before = |cut: usize| -> Vec<f64> {
        occupied
            .iter()
            .filter(|w| w.window < cut)
            .map(|w| w.p99_us)
            .collect()
    };
    let all_p99s: Vec<f64> = occupied.iter().map(|w| w.p99_us).collect();

    let mut post_scan = 0.0;
    let (baseline, stressed) = if let Some(sw) = report.scan_window {
        // Windowed-median deflake guard: the stressed metric is the median
        // over the occupied windows while the sweep runs — where per-page
        // admission churn (or its absence) shows up in the foreground's
        // p99.
        let pre = p99s_before(sw);
        let end = report.scan_end_window.unwrap_or(sw);
        let during: Vec<f64> = occupied
            .iter()
            .filter(|w| w.window >= sw && w.window <= end)
            .map(|w| w.p99_us)
            .collect();
        let after: Vec<f64> = occupied
            .iter()
            .filter(|w| w.window > end)
            .take(3)
            .map(|w| w.p99_us)
            .collect();
        post_scan = median(if after.is_empty() { &all_p99s } else { &after });
        (
            median(if pre.is_empty() { &all_p99s } else { &pre }),
            median(if during.is_empty() {
                &all_p99s
            } else {
                &during
            }),
        )
    } else if let Some((first, last)) = report.burst_windows {
        let pre = p99s_before(first);
        let in_burst: Vec<f64> = occupied
            .iter()
            .filter(|w| w.window >= first && w.window <= last)
            .map(|w| w.p99_us)
            .collect();
        let worst = in_burst.iter().cloned().fold(0.0f64, f64::max);
        (
            median(if pre.is_empty() { &all_p99s } else { &pre }),
            if worst > 0.0 {
                worst
            } else {
                median(&all_p99s)
            },
        )
    } else {
        let m = median(&all_p99s);
        (m, m)
    };

    let recovered = report.burst_windows.and_then(|(_, last)| {
        recovery_window(
            &windows,
            last,
            bounds.recovery_windows,
            bounds.recovery_factor,
            baseline,
        )
    });

    let summary = report.total.summary();
    let wall = report.wall.as_secs_f64();
    TailBenchRow {
        policy: label.to_string(),
        // S3-FIFO's ghost queue is part of the policy itself.
        ghost_admission: ghost || policy == CachePolicyKind::S3Fifo,
        scan,
        arrival: if burst { "burst" } else { "steady" }.to_string(),
        threads,
        committed: report.committed,
        wall_secs: wall,
        tps: if wall > 0.0 {
            report.committed as f64 / wall
        } else {
            0.0
        },
        p50_us: summary.p50_us,
        p95_us: summary.p95_us,
        p99_us: summary.p99_us,
        p999_us: summary.p999_us,
        max_us: summary.max_us,
        baseline_window_p99_us: baseline,
        stressed_window_p99_us: stressed,
        post_scan_window_p99_us: post_scan,
        scan_pages: report.scan_pages,
        scan_window: report.scan_window.map_or(-1, |w| w as i64),
        scan_end_window: report.scan_end_window.map_or(-1, |w| w as i64),
        burst_first_window: report.burst_windows.map_or(-1, |(f, _)| f as i64),
        burst_last_window: report.burst_windows.map_or(-1, |(_, l)| l as i64),
        recovered_window: recovered.map_or(-1, |w| w as i64),
        clamped_txns: report.clamped_txns,
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
        flash_pages_written: flash_pages,
        flash_bytes_written: flash_pages * face_pagestore::PAGE_SIZE as u64,
        windows,
    }
}

/// Run the full tail-latency matrix (see the module docs for the arm
/// table). Produces `BENCH_tail.json`.
pub fn run_bench_tail(scale: &TailScale, bounds: &TailBounds) -> Vec<TailBenchRow> {
    let policies = [
        ("face-gsc", CachePolicyKind::FaceGsc, false),
        ("face-gsc", CachePolicyKind::FaceGsc, true),
        ("s3-fifo", CachePolicyKind::S3Fifo, false),
    ];
    let mut rows = Vec::new();
    for &(label, policy, ghost) in &policies {
        rows.push(run_tail_arm(
            scale, label, policy, ghost, false, false, bounds, 1_000,
        ));
        // Scan arms get the median-of-attempts deflake: each attempt is a
        // full fresh-engine run (deterministic seed per attempt), and the
        // attempt whose p99-under-scan ratio is the median is kept.
        let mut attempts: Vec<TailBenchRow> = (0..scale.scan_attempts)
            .map(|a| {
                run_tail_arm(
                    scale,
                    label,
                    policy,
                    ghost,
                    true,
                    false,
                    bounds,
                    1_000 + 101 * a as u64,
                )
            })
            .collect();
        attempts.sort_by(|a, b| {
            let ra = a.stressed_window_p99_us / a.baseline_window_p99_us.max(f64::MIN_POSITIVE);
            let rb = b.stressed_window_p99_us / b.baseline_window_p99_us.max(f64::MIN_POSITIVE);
            ra.partial_cmp(&rb).unwrap_or(std::cmp::Ordering::Equal)
        });
        if attempts.len() > 1 {
            let ratios: Vec<String> = attempts
                .iter()
                .map(|r| {
                    format!(
                        "{:.2}",
                        r.stressed_window_p99_us / r.baseline_window_p99_us.max(f64::MIN_POSITIVE)
                    )
                })
                .collect();
            eprintln!(
                "bench_tail_latency: {label} ghost={ghost} scan attempt ratios {} — keeping the median",
                ratios.join(", ")
            );
        }
        let median_attempt = attempts.remove(attempts.len() / 2);
        rows.push(median_attempt);
    }
    // Burst arms for the scan-resistant policies: the recovery gate.
    for &(label, policy, ghost) in &policies {
        if ghost || policy == CachePolicyKind::S3Fifo {
            rows.push(run_tail_arm(
                scale, label, policy, ghost, false, true, bounds, 1_000,
            ));
        }
    }
    rows
}

/// The CI gate over [`run_bench_tail`] rows. Returns the failures (empty
/// means the gate passes).
pub fn evaluate_tail(rows: &[TailBenchRow], bounds: &TailBounds) -> Vec<String> {
    let mut failures = Vec::new();
    for row in rows {
        if row.committed == 0 {
            failures.push(format!("{}: no committed transactions", arm_name(row)));
        }
        if !(row.p50_us <= row.p95_us && row.p95_us <= row.p99_us && row.p99_us <= row.p999_us) {
            failures.push(format!("{}: percentiles not monotone", arm_name(row)));
        }
    }

    // p99-under-scan ratios, within each scan arm: the arm's own pre-scan
    // windows are its no-scan baseline. Within-run ratios cancel the
    // run-to-run drift of shared CI runners (the whole arm speeds up or
    // slows down together); the standalone no-scan arms stay in the matrix
    // as the committed trajectory's absolute reference.
    let ratio_of = |ghost: bool, policy: &str| -> Option<f64> {
        let row = rows.iter().find(|r| {
            r.policy == policy && r.ghost_admission == ghost && r.scan && r.arrival == "steady"
        })?;
        if row.baseline_window_p99_us <= 0.0 {
            return None;
        }
        Some(row.stressed_window_p99_us / row.baseline_window_p99_us)
    };
    let unfiltered = ratio_of(false, "face-gsc");
    let filtered = [
        ("face-gsc", ratio_of(true, "face-gsc")),
        ("s3-fifo", ratio_of(true, "s3-fifo")),
    ];

    match unfiltered {
        None => failures.push("missing unfiltered face-gsc scan arm".to_string()),
        Some(u) => {
            let mut best_filtered: Option<(&str, f64)> = None;
            for (policy, ratio) in &filtered {
                match ratio {
                    None => failures.push(format!("missing filtered {policy} scan arm")),
                    Some(f) => {
                        if *f > bounds.scan_ratio_bound {
                            failures.push(format!(
                                "{policy} (filtered): p99-under-scan ratio {f:.2} exceeds bound {:.2}",
                                bounds.scan_ratio_bound
                            ));
                        }
                        if best_filtered.is_none_or(|(_, b)| *f < b) {
                            best_filtered = Some((policy, *f));
                        }
                    }
                }
            }
            // "Demonstrably worse": the unfiltered baseline must exceed the
            // best filtered arm by the margin. The best (not every) filtered
            // arm, deliberately — a single noisy filtered window would
            // otherwise fail the gate for the wrong arm's reasons, and a
            // genuinely broken filter is caught by its own
            // `scan_ratio_bound` check above.
            if let Some((policy, f)) = best_filtered {
                if u < bounds.unfiltered_margin * f {
                    failures.push(format!(
                        "unfiltered face-gsc ratio {u:.2} not demonstrably worse than \
                         filtered {policy} ratio {f:.2} (need ≥ {:.2}×)",
                        bounds.unfiltered_margin
                    ));
                }
            }
        }
    }

    // Burst recovery: some window within N after the burst must return to
    // recovery_factor × the pre-burst median.
    let burst_rows: Vec<&TailBenchRow> = rows.iter().filter(|r| r.arrival == "burst").collect();
    if burst_rows.is_empty() {
        failures.push("no burst arrival rows".to_string());
    }
    for row in burst_rows {
        if row.burst_last_window < 0 {
            failures.push(format!("{}: burst arm has no burst windows", arm_name(row)));
            continue;
        }
        let recovered = recovery_window(
            &row.windows,
            row.burst_last_window as usize,
            bounds.recovery_windows,
            bounds.recovery_factor,
            row.baseline_window_p99_us,
        );
        if recovered.is_none() {
            failures.push(format!(
                "{}: p99 did not recover to {:.2}× the pre-burst median within {} windows \
                 (pre-burst median {:.0} µs)",
                arm_name(row),
                bounds.recovery_factor,
                bounds.recovery_windows,
                row.baseline_window_p99_us
            ));
        }
    }
    failures
}

fn arm_name(row: &TailBenchRow) -> String {
    format!(
        "{} (ghost_admission={} scan={} arrival={})",
        row.policy, row.ghost_admission, row.scan, row.arrival
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_row(
        policy: &str,
        ghost: bool,
        scan: bool,
        arrival: &str,
        baseline: f64,
        stressed: f64,
    ) -> TailBenchRow {
        TailBenchRow {
            policy: policy.to_string(),
            ghost_admission: ghost,
            scan,
            arrival: arrival.to_string(),
            threads: 2,
            committed: 1_000,
            wall_secs: 1.0,
            tps: 1_000.0,
            p50_us: 100.0,
            p95_us: 200.0,
            p99_us: stressed,
            p999_us: stressed * 2.0,
            max_us: stressed * 3.0,
            baseline_window_p99_us: baseline,
            stressed_window_p99_us: stressed,
            post_scan_window_p99_us: if scan { baseline } else { 0.0 },
            scan_pages: if scan { 480 } else { 0 },
            scan_window: if scan { 1 } else { -1 },
            scan_end_window: if scan { 1 } else { -1 },
            burst_first_window: if arrival == "burst" { 1 } else { -1 },
            burst_last_window: if arrival == "burst" { 1 } else { -1 },
            recovered_window: -1,
            clamped_txns: 0,
            dram_hit_ratio: 0.5,
            flash_hit_ratio: 0.9,
            flash_pages_written: 10,
            flash_bytes_written: 40_960,
            windows: (0..4)
                .map(|w| TailWindowRow {
                    window: w,
                    committed: 250,
                    p50_us: 100.0,
                    p99_us: if arrival == "burst" && w == 1 {
                        stressed
                    } else {
                        baseline
                    },
                })
                .collect(),
        }
    }

    fn passing_rows() -> Vec<TailBenchRow> {
        vec![
            synthetic_row("face-gsc", false, false, "steady", 300.0, 300.0),
            synthetic_row("face-gsc", false, true, "steady", 300.0, 900.0), // ratio 3.0
            synthetic_row("face-gsc", true, false, "steady", 300.0, 300.0),
            synthetic_row("face-gsc", true, true, "steady", 300.0, 330.0), // ratio 1.1
            synthetic_row("s3-fifo", true, false, "steady", 300.0, 300.0),
            synthetic_row("s3-fifo", true, true, "steady", 300.0, 360.0), // ratio 1.2
            synthetic_row("face-gsc", true, false, "burst", 300.0, 800.0),
            synthetic_row("s3-fifo", true, false, "burst", 300.0, 800.0),
        ]
    }

    #[test]
    fn synthetic_gate_passes_when_filtering_works() {
        let failures = evaluate_tail(&passing_rows(), &TailBounds::default());
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn gate_fails_when_filtered_arm_degrades_under_scan() {
        let mut rows = passing_rows();
        rows[3].stressed_window_p99_us = 900.0; // filtered face-gsc ratio 3.0
        let failures = evaluate_tail(&rows, &TailBounds::default());
        assert!(
            failures.iter().any(|f| f.contains("exceeds bound")),
            "{failures:?}"
        );
    }

    #[test]
    fn gate_fails_when_unfiltered_is_not_worse() {
        let mut rows = passing_rows();
        rows[1].stressed_window_p99_us = 340.0; // unfiltered ratio ~1.13
        let failures = evaluate_tail(&rows, &TailBounds::default());
        assert!(
            failures
                .iter()
                .any(|f| f.contains("not demonstrably worse")),
            "{failures:?}"
        );
    }

    #[test]
    fn gate_fails_when_burst_never_recovers() {
        let mut rows = passing_rows();
        for w in rows[6].windows.iter_mut() {
            w.p99_us = 5_000.0; // every post-burst window stays hot
        }
        let failures = evaluate_tail(&rows, &TailBounds::default());
        assert!(
            failures.iter().any(|f| f.contains("did not recover")),
            "{failures:?}"
        );
    }

    #[test]
    fn gate_fails_on_missing_arms() {
        let rows = vec![synthetic_row(
            "face-gsc", false, false, "steady", 300.0, 300.0,
        )];
        let failures = evaluate_tail(&rows, &TailBounds::default());
        assert!(!failures.is_empty());
    }

    #[test]
    fn median_handles_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn tiny_matrix_runs_and_reports_structure() {
        let scale = TailScale::tiny();
        let bounds = TailBounds::default();
        let rows = run_bench_tail(&scale, &bounds);
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert!(row.committed > 0, "{} committed nothing", arm_name(row));
            assert!(row.p50_us > 0.0);
            assert!(row.p50_us <= row.p95_us);
            assert!(row.p95_us <= row.p99_us);
            assert!(row.p99_us <= row.p999_us);
            assert!(row.p999_us <= row.max_us);
            assert!(!row.windows.is_empty());
            let window_sum: u64 = row.windows.iter().map(|w| w.committed).sum();
            assert_eq!(window_sum, row.committed);
            if row.scan {
                assert!(row.scan_pages > 0, "{} swept nothing", arm_name(row));
                assert!(row.scan_window >= 0);
            } else {
                assert_eq!(row.scan_pages, 0);
                assert_eq!(row.scan_window, -1);
            }
            if row.arrival == "burst" {
                assert!(row.burst_first_window >= 0);
                assert!(row.burst_last_window >= row.burst_first_window);
            } else {
                assert_eq!(row.burst_first_window, -1);
            }
        }
        // The matrix covers all three policies with and without scans.
        assert!(rows
            .iter()
            .any(|r| r.policy == "face-gsc" && !r.ghost_admission && r.scan));
        assert!(rows
            .iter()
            .any(|r| r.policy == "face-gsc" && r.ghost_admission && r.scan));
        assert!(rows.iter().any(|r| r.policy == "s3-fifo" && r.scan));
        assert_eq!(rows.iter().filter(|r| r.arrival == "burst").count(), 2);
    }
}
