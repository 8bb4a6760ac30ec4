//! Figure 6 (functional): post-restart throughput ramp of the *real* engine,
//! warm restart (durable cache metadata + WAL reconciliation) versus cold
//! restart (wiped cache device), on the default simulated devices. The crash
//! prologue leaves loser transactions in flight with persisted pages, so both
//! restarts also exercise the undo pass (before-images + CLRs).
//!
//! This binary is also a CI gate. It writes `BENCH_recovery.json` at the repo
//! root (not the gitignored `results/`) so future PRs can diff the numbers,
//! and exits non-zero if:
//!
//! - the warm restart's first measurement window fails to beat the cold
//!   restart's — i.e. the paper's faster-recovery claim stops holding in the
//!   functional engine — or
//! - the warm/cold restart-time *ratio* regresses by more than 25 % against
//!   the committed `BENCH_recovery.json` baseline (the ratio, not the wall
//!   time, so the gate is insensitive to machine speed), or
//! - the `warm_long_history` arm — the same crash behind ten times the
//!   committed history — restarts more than 25 % slower than the warm arm,
//!   each arm taken as the median of its repeated runs: restart cost must
//!   follow the work since the last checkpoint, not the length of the log.
//!
//! Scale knobs: `FACE_REC_WAREHOUSES`, `FACE_REC_THREADS`,
//! `FACE_REC_LOAD_TXNS`, `FACE_REC_POST_TXNS`, `FACE_REC_WINDOWS`,
//! `FACE_REC_WINDOW_TXNS`, `FACE_REC_LOSER_TXNS`.

use std::path::Path;

use face_bench::experiments::{run_fig6_functional, RampArmReport, RecoveryScale};
use face_bench::{print_table, write_json, write_json_at};

/// Maximum allowed regression of the warm/cold restart-time ratio against
/// the committed baseline.
const RATIO_REGRESSION_BOUND: f64 = 0.25;

/// Absolute guard under which a ratio regression never fails the gate: warm
/// restarts complete in a small fraction of a cold restart's wall time, so
/// run-to-run jitter on the tiny numerator can exceed 25 % without meaning
/// anything. The regression only matters once the warm restart has lost its
/// order-of-magnitude advantage (the paper's faster-recovery claim).
const RATIO_ABSOLUTE_GUARD: f64 = 0.1;

/// Maximum allowed excess of the long-history warm restart over the
/// short-history one (ROADMAP "bound the log" gate).
const LONG_HISTORY_BOUND: f64 = 0.25;

fn restart_ratio(arms: &[RampArmReport]) -> Option<f64> {
    let warm = arms.iter().find(|a| a.mode == "warm")?;
    let cold = arms.iter().find(|a| a.mode == "cold")?;
    if cold.restart_secs > 0.0 {
        Some(warm.restart_secs / cold.restart_secs)
    } else {
        None
    }
}

/// Extract the warm/cold restart-time ratio from a committed
/// `BENCH_recovery.json` (parsed generically, so a schema drift in the
/// baseline degrades to "no baseline" instead of a crash).
fn baseline_restart_ratio(json: &serde_json::Value) -> Option<f64> {
    let arms = json.as_array()?;
    let secs = |mode: &str| {
        arms.iter()
            .find(|a| a.get("mode").and_then(|m| m.as_str()) == Some(mode))
            .and_then(|a| a.get("restart_secs"))
            .and_then(|s| s.as_f64())
    };
    let (warm, cold) = (secs("warm")?, secs("cold")?);
    if cold > 0.0 {
        Some(warm / cold)
    } else {
        None
    }
}

fn main() {
    let scale = RecoveryScale::from_env();
    let arms = run_fig6_functional(&scale);

    let mut rows: Vec<Vec<String>> = Vec::new();
    for arm in &arms {
        rows.push(vec![
            arm.mode.clone(),
            "restart".to_string(),
            format!("{:.3}s", arm.restart_secs),
            format!("{}", arm.recovery.cache_recovery.entries_restored),
            format!("{:.1}", arm.recovery.flash_fetch_share * 100.0),
            format!("{}", arm.recovery.losers_found),
            format!("{}", arm.recovery.updates_undone),
            format!(
                "{}/{}",
                arm.recovery.clrs_written, arm.recovery.clrs_skipped
            ),
            String::new(),
        ]);
        for w in &arm.windows {
            rows.push(vec![
                arm.mode.clone(),
                format!("window {}", w.window),
                format!("{:.3}s", w.secs),
                format!("{}", w.flash_hits),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                format!("{:.0}", w.tpm),
            ]);
        }
    }
    print_table(
        "Figure 6 (functional): throughput ramp after warm vs cold restart (FaCE+GSC, simulated devices)",
        &[
            "arm",
            "phase",
            "wall",
            "flash entries/hits",
            "redo flash %",
            "losers",
            "undone",
            "CLRs w/s",
            "tpm",
        ],
        &rows,
    );
    write_json("fig6_ramp_functional", &arms);

    // Read the committed baseline *before* overwriting it with this run.
    let baseline_path = Path::new("BENCH_recovery.json");
    let baseline_ratio = std::fs::read_to_string(baseline_path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .and_then(|v| baseline_restart_ratio(&v));
    write_json_at(baseline_path, &arms);

    let warm = arms.iter().find(|a| a.mode == "warm");
    let cold = arms.iter().find(|a| a.mode == "cold");
    let (warm, cold) = match (warm, cold) {
        (Some(w), Some(c)) if !w.windows.is_empty() && !c.windows.is_empty() => (w, c),
        _ => {
            eprintln!("[FAIL] expected warm and cold arms with at least one window each");
            std::process::exit(1);
        }
    };

    let mut failed = false;

    let w0 = warm.windows[0].tpm;
    let c0 = cold.windows[0].tpm;
    // Where each arm reaches steady state: the first window at 90 % of its
    // own final-window throughput.
    let steady = |arm: &RampArmReport| {
        let last = arm.windows.last().map(|w| w.tpm).unwrap_or(0.0);
        arm.windows
            .iter()
            .position(|w| w.tpm >= 0.9 * last)
            .unwrap_or(arm.windows.len())
    };
    println!(
        "warm reaches steady state in window {}, cold in window {}",
        steady(warm),
        steady(cold)
    );
    let ramp_pass = w0 > c0;
    println!(
        "[{}] warm first-window {w0:.0} tpm vs cold {c0:.0} tpm ({:.2}x); \
         warm restart {:.3}s vs cold {:.3}s",
        if ramp_pass { "PASS" } else { "FAIL" },
        w0 / c0.max(f64::MIN_POSITIVE),
        warm.restart_secs,
        cold.restart_secs,
    );
    failed |= !ramp_pass;

    match (restart_ratio(&arms), baseline_ratio) {
        (Some(current), Some(baseline)) => {
            // The ratio regresses when warm restart gets *slower relative to
            // cold* — a larger ratio. Machine speed cancels out of the ratio.
            let bound = (baseline * (1.0 + RATIO_REGRESSION_BOUND)).max(RATIO_ABSOLUTE_GUARD);
            let ratio_pass = current <= bound;
            println!(
                "[{}] warm/cold restart-time ratio {:.3} vs baseline {:.3} \
                 (bound {:.3}: +{:.0}% or the {:.2} guard, whichever is larger)",
                if ratio_pass { "PASS" } else { "FAIL" },
                current,
                baseline,
                bound,
                RATIO_REGRESSION_BOUND * 100.0,
                RATIO_ABSOLUTE_GUARD,
            );
            failed |= !ratio_pass;
        }
        (Some(current), None) => {
            println!(
                "no committed BENCH_recovery.json baseline; recording ratio {current:.3} \
                 (gate skipped this run)"
            );
        }
        _ => {
            eprintln!("[FAIL] could not compute the warm/cold restart-time ratio");
            failed = true;
        }
    }

    match arms.iter().find(|a| a.mode == "warm_long_history") {
        Some(long) => {
            let bound = warm.restart_secs * (1.0 + LONG_HISTORY_BOUND);
            let history_pass = long.restart_secs <= bound;
            println!(
                "[{}] warm restart behind {}x the history: median {:.3}s over {:?} vs \
                 {:.3}s over {:?} (bound {:.3}s: +{:.0}%); {} vs {} records decoded",
                if history_pass { "PASS" } else { "FAIL" },
                long.load_txns_per_thread / warm.load_txns_per_thread.max(1),
                long.restart_secs,
                long.restart_secs_runs,
                warm.restart_secs,
                warm.restart_secs_runs,
                bound,
                LONG_HISTORY_BOUND * 100.0,
                long.recovery.records_scanned,
                warm.recovery.records_scanned,
            );
            failed |= !history_pass;
        }
        None => {
            eprintln!("[FAIL] expected a warm_long_history arm");
            failed = true;
        }
    }

    if failed {
        // The CI smoke-run must go red when the warm restart stops
        // out-ramping the cold one, gets relatively slower, or starts
        // paying for history behind the last checkpoint.
        std::process::exit(1);
    }
}
