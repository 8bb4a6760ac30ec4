//! Perf-trajectory baseline: concurrent TPC-C throughput with the
//! asynchronous destage pipeline on versus the synchronous baseline.
//!
//! Writes `BENCH_throughput.json` at the repo root (not the gitignored
//! `results/`) so future PRs can diff the numbers, and acts as the
//! perf-smoke gate: it exits non-zero if
//!
//! * 4 threads fail to beat 1 thread in the async arm (the engine stopped
//!   scaling), or
//! * async destage loses to sync destage at 4 threads (the pipeline costs
//!   more than it hides), or
//! * the 4-thread async arm logs more than [`MAX_WAL_BYTES_PER_TXN`] per
//!   TPC-C transaction (update records carry more than the byte ranges that
//!   changed).
//!
//! Scale knobs: `FACE_CONC_WAREHOUSES`, `FACE_CONC_WARMUP_TXNS`,
//! `FACE_CONC_MEASURE_TXNS` (shared with `fig4_concurrent`).

use face_bench::experiments::{run_bench_throughput, ConcurrentScale};
use face_bench::{print_table, write_json_at};

/// Ceiling on log bytes per committed TPC-C transaction. With update
/// records trimmed to the changed byte range the mix logs ≈ 700–800 B per
/// transaction; whole-slot images logged ≈ 4,100.
const MAX_WAL_BYTES_PER_TXN: f64 = 1_200.0;

fn main() {
    let scale = ConcurrentScale::from_env();
    let rows = run_bench_throughput(&scale, &[1, 2, 4]);
    print_table(
        "BENCH_throughput: tpm per thread count, async vs sync destage (FaCE+GSC, simulated devices)",
        &[
            "threads",
            "destage",
            "txns",
            "wall s",
            "tpm",
            "groups",
            "stalls",
            "WAL B/txn",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}", r.threads),
                    r.destage.clone(),
                    format!("{}", r.committed),
                    format!("{:.3}", r.wall_secs),
                    format!("{:.0}", r.tpm),
                    format!("{}", r.destage_groups_completed),
                    format!("{}", r.destage_backpressure_stalls),
                    format!("{:.0}", r.wal_bytes_per_txn),
                ]
            })
            .collect::<Vec<_>>(),
    );
    write_json_at(std::path::Path::new("BENCH_throughput.json"), &rows);

    let cell = |destage: &str, threads: usize| {
        rows.iter()
            .find(|r| r.destage == destage && r.threads == threads)
    };
    let mut failed = false;
    match (cell("async", 1), cell("async", 4)) {
        (Some(one), Some(four)) => {
            let pass = four.tpm > one.tpm;
            println!(
                "[{}] async 4-thread {:.0} tpm vs 1-thread {:.0} tpm ({:.2}x)",
                if pass { "PASS" } else { "FAIL" },
                four.tpm,
                one.tpm,
                four.tpm / one.tpm.max(f64::MIN_POSITIVE)
            );
            failed |= !pass;
        }
        _ => println!("[SKIP] async 4-vs-1 verdict needs both rows (raise FACE_CONC_WAREHOUSES)"),
    }
    match (cell("sync", 4), cell("async", 4)) {
        (Some(sync), Some(async_)) => {
            let pass = async_.tpm >= sync.tpm;
            println!(
                "[{}] 4-thread async {:.0} tpm vs sync {:.0} tpm ({:+.1}%)",
                if pass { "PASS" } else { "FAIL" },
                async_.tpm,
                sync.tpm,
                (async_.tpm / sync.tpm.max(f64::MIN_POSITIVE) - 1.0) * 100.0
            );
            failed |= !pass;
        }
        _ => println!("[SKIP] async-vs-sync verdict needs both 4-thread rows"),
    }
    match cell("async", 4) {
        Some(four) => {
            let pass = four.wal_bytes_per_txn <= MAX_WAL_BYTES_PER_TXN;
            println!(
                "[{}] 4-thread async logs {:.0} B per transaction (ceiling {:.0})",
                if pass { "PASS" } else { "FAIL" },
                four.wal_bytes_per_txn,
                MAX_WAL_BYTES_PER_TXN
            );
            failed |= !pass;
        }
        None => println!("[SKIP] log-volume verdict needs the 4-thread async row"),
    }
    if failed {
        std::process::exit(1);
    }
}
