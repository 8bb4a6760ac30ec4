//! Schema check for the committed perf-trajectory files (`BENCH_*.json` at
//! the repo root). These files are diffed across PRs, so a bench that
//! silently starts writing empty arrays, loses a counter field, or emits
//! invalid JSON would corrupt the trajectory without failing any test —
//! this binary is the CI tripwire for that.
//!
//! For every `BENCH_*.json` in the given root (default: the current
//! directory) it checks that the file parses, is a non-empty JSON array of
//! objects, and — for the known files — that every row carries the required
//! fields, including the flash write-economy counters. Unknown `BENCH_*`
//! files only get the generic checks, so adding a new bench does not require
//! touching this binary (extending `required_fields` is still encouraged).
//!
//! Usage: `bench_schema_check [root-dir]`. Exits non-zero on any failure.

use std::path::Path;

/// Required per-row fields for each known perf-trajectory file.
fn required_fields(file_name: &str) -> &'static [&'static str] {
    match file_name {
        "BENCH_throughput.json" => &[
            "threads",
            "destage",
            "destage_threads",
            "committed",
            "wall_secs",
            "tps",
            "tpm",
            "destage_groups_completed",
            "destage_backpressure_stalls",
            "flash_pages_written",
            "flash_bytes_written",
            "flash_writes_per_txn",
            "wal_bytes_per_txn",
            "p50_us",
            "p95_us",
            "p99_us",
            "p999_us",
        ],
        "BENCH_read.json" => &[
            "threads",
            "mode",
            "ops",
            "gets",
            "wall_secs",
            "ops_per_sec",
            "dram_hit_ratio",
            "flash_hit_ratio",
            "cache_fetch_retries",
            "buffer_read_retries",
            "flash_pages_written",
            "flash_bytes_written",
            "p50_us",
            "p95_us",
            "p99_us",
            "p999_us",
        ],
        "BENCH_tail.json" => &[
            "policy",
            "ghost_admission",
            "scan",
            "arrival",
            "threads",
            "committed",
            "wall_secs",
            "tps",
            "p50_us",
            "p95_us",
            "p99_us",
            "p999_us",
            "max_us",
            "baseline_window_p99_us",
            "stressed_window_p99_us",
            "post_scan_window_p99_us",
            "scan_pages",
            "scan_window",
            "scan_end_window",
            "burst_first_window",
            "burst_last_window",
            "recovered_window",
            "clamped_txns",
            "dram_hit_ratio",
            "flash_hit_ratio",
            "flash_pages_written",
            "flash_bytes_written",
            "windows",
        ],
        "BENCH_degrade.json" => &[
            "phase",
            "threads",
            "committed",
            "wall_secs",
            "tps",
            "tpm",
            "breaker",
            "trips",
            "quarantined_slots",
            "retries",
            "transient_errors",
            "permanent_errors",
            "bypassed_inserts",
            "bypassed_fetches",
            "evacuated_pages",
            "heals",
            "flash_pages_written",
            "p50_us",
            "p95_us",
            "p99_us",
            "p999_us",
        ],
        "BENCH_recovery.json" => &[
            "mode",
            "load_txns_per_thread",
            "restart_secs",
            "restart_secs_runs",
            "recovery",
            "windows",
        ],
        "BENCH_flash_economy.json" => &[
            "policy",
            "ghost_admission",
            "committed",
            "ops",
            "wall_secs",
            "flash_pages_written",
            "flash_bytes_written",
            "flash_writes_per_txn",
            "dram_hit_ratio",
            "flash_hit_ratio",
            "admission_filtered",
            "admission_ghost_hits",
        ],
        _ => &[],
    }
}

/// Check one file; returns the problems found (empty means it is clean).
fn check_file(path: &Path) -> Vec<String> {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return vec![format!("{name}: unreadable: {e}")],
    };
    let value: serde_json::Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => return vec![format!("{name}: invalid JSON: {e}")],
    };
    let Some(rows) = value.as_array() else {
        return vec![format!("{name}: top-level value is not an array")];
    };
    if rows.is_empty() {
        return vec![format!("{name}: empty result array")];
    }
    let mut problems = Vec::new();
    // The restart gates compare named arms; a missing arm is a hollow gate.
    if name == "BENCH_recovery.json" {
        for mode in ["warm", "warm_long_history", "cold"] {
            if !rows
                .iter()
                .any(|r| r.get("mode").and_then(|m| m.as_str()) == Some(mode))
            {
                problems.push(format!("{name}: no `{mode}` row"));
            }
        }
    }
    let fields = required_fields(&name);
    for (i, row) in rows.iter().enumerate() {
        let Some(obj) = row.as_object() else {
            problems.push(format!("{name}: row {i} is not an object"));
            continue;
        };
        for field in fields {
            if !obj.contains_key(*field) {
                problems.push(format!("{name}: row {i} is missing `{field}`"));
            }
        }
        // The recovery rows nest their report; the undo counters must be
        // present there or the restart gate is diffing a hollow trajectory.
        if name == "BENCH_recovery.json" {
            match obj.get("recovery").and_then(serde_json::Value::as_object) {
                Some(recovery) => {
                    for field in [
                        "records_scanned",
                        "redo_applied",
                        "redo_skipped",
                        "losers_found",
                        "updates_undone",
                        "clrs_written",
                        "clrs_skipped",
                        "clrs_replayed",
                        "durable_lsn",
                    ] {
                        if !recovery.contains_key(field) {
                            problems.push(format!("{name}: row {i} recovery is missing `{field}`"));
                        }
                    }
                }
                None => problems.push(format!("{name}: row {i} `recovery` is not an object")),
            }
        }
        // Latency percentiles, where present, must be monotone — a recorder
        // whose p99 drops below its p50 is broken, not fast.
        let quantiles: Vec<f64> = ["p50_us", "p95_us", "p99_us", "p999_us"]
            .iter()
            .filter_map(|q| obj.get(*q).and_then(serde_json::Value::as_f64))
            .collect();
        if quantiles.len() == 4 && quantiles.windows(2).any(|w| w[0] > w[1]) {
            problems.push(format!(
                "{name}: row {i} percentiles not monotone (p50≤p95≤p99≤p999 violated: {quantiles:?})"
            ));
        }
    }
    problems
}

fn main() {
    let root = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let root = Path::new(&root);
    let mut files: Vec<_> = match std::fs::read_dir(root) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .map(|n| {
                        let n = n.to_string_lossy();
                        n.starts_with("BENCH_") && n.ends_with(".json")
                    })
                    .unwrap_or(false)
            })
            .collect(),
        Err(e) => {
            eprintln!("[FAIL] cannot read {}: {e}", root.display());
            std::process::exit(1);
        }
    };
    files.sort();
    // The trajectory files this repo commits; their absence is itself a
    // schema break (a bench stopped writing its file).
    let mut problems = Vec::new();
    for expected in [
        "BENCH_throughput.json",
        "BENCH_read.json",
        "BENCH_flash_economy.json",
        "BENCH_tail.json",
        "BENCH_degrade.json",
        "BENCH_recovery.json",
    ] {
        if !files.iter().any(|p| p.ends_with(expected)) {
            problems.push(format!("{expected}: missing from {}", root.display()));
        }
    }
    for file in &files {
        let file_problems = check_file(file);
        let name = file.file_name().unwrap_or_default().to_string_lossy();
        if file_problems.is_empty() {
            println!("[PASS] {name}");
        }
        problems.extend(file_problems);
    }
    if !problems.is_empty() {
        for problem in &problems {
            eprintln!("[FAIL] {problem}");
        }
        std::process::exit(1);
    }
    println!("bench schema check: {} file(s) clean", files.len());
}
