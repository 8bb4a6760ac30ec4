//! The suite table: every experiment `face-bench <suite>` runs, the files it
//! writes and its gate. This table is the one place a result file is named.

use std::path::Path;

use face_iosim::DeviceProfile;
use serde::Serialize;
use serde_json::Value;

use crate::experiments::*;
use crate::tail::{evaluate_tail, run_bench_tail, TailBenchRow, TailBounds, TailScale};

/// One runnable experiment.
pub struct Suite {
    /// The name `face-bench` selects it by.
    pub name: &'static str,
    /// The result files it writes under `results/`.
    pub files: &'static [&'static str],
    /// The committed file it writes, if any.
    pub committed: Option<Committed>,
    /// Run the suite, given what its committed file held before the run.
    pub run: fn(Option<&Value>) -> Outcome,
}

impl Suite {
    /// Every file the suite writes, relative to the repo root, in the order
    /// of [`Outcome::json`]: [`Suite::files`], then the committed file.
    pub fn outputs(&self) -> impl Iterator<Item = &'static str> {
        let committed = self.committed.map(|c| c.file);
        self.files.iter().copied().chain(committed)
    }
}

/// A committed `BENCH_*.json` file at the repo root: its rows are the
/// cross-PR perf trajectory.
#[derive(Clone, Copy)]
pub struct Committed {
    /// The file name.
    pub file: &'static str,
    /// The row type, as its `Default` serialises: every committed row must
    /// carry each of its fields.
    pub row: fn() -> Value,
}

/// What one suite run produced.
pub struct Outcome {
    /// One pretty-printed JSON document per file of the suite.
    pub json: Vec<String>,
    /// The gate's failures; empty means the suite passes.
    pub failures: Vec<String>,
}

/// Ceiling on log bytes per TPC-C transaction in the 4-thread async arm of
/// `bench_throughput`: varint-encoded records trimmed to the changed byte
/// range log ≈ 440 B; the fixed-width encoding logged ≈ 820 B, whole-slot
/// images ≈ 4,100.
const MAX_WAL_BYTES_PER_TXN: f64 = 600.0;

/// `bench_read_throughput`: 4 threads must beat 1 by this factor.
const MIN_READ_SPEEDUP: f64 = 2.0;

/// `bench_flash_economy`: the flash hit-ratio slack a filtered arm is
/// allowed (one percentage point).
const HIT_RATIO_TOLERANCE: f64 = 0.01;

/// `bench_degrade`: the tripped engine keeps at least this share of the
/// disk-only baseline's throughput (the same disk-bound work plus the
/// bypass bookkeeping).
const MIN_TRIPPED_FRACTION_OF_DISK: f64 = 0.25;

/// `bench_degrade`: post-heal throughput recovers to at least this share of
/// the healthy window (the cache restarts cold, so parity is not expected).
const MIN_HEALED_FRACTION_OF_HEALTHY: f64 = 0.25;

/// Every suite, trace-simulator experiments first.
pub static SUITES: &[Suite] = &[
    Suite {
        name: "table1_devices",
        files: &["results/table1_devices.json"],
        committed: None,
        run: |_| {
            let profiles = vec![
                DeviceProfile::samsung470_mlc(),
                DeviceProfile::intel_x25m_mlc(),
                DeviceProfile::intel_x25e_slc(),
                DeviceProfile::seagate_15k(),
                DeviceProfile::raid0_8disk_measured(),
            ];
            outcome(&profiles, Vec::new())
        },
    },
    Suite {
        name: "costmodel_breakeven",
        files: &["results/costmodel_breakeven.json"],
        committed: None,
        run: |_| outcome(&run_costmodel_breakeven(), Vec::new()),
    },
    Suite {
        name: "table3_4_policy_sweep",
        files: &[
            "results/table3_hit_rates.json",
            "results/table4_utilization.json",
        ],
        committed: None,
        run: |_| {
            let rows = json(&run_policy_size_sweep(&Default::default()));
            Outcome {
                json: vec![rows.clone(), rows],
                failures: Vec::new(),
            }
        },
    },
    Suite {
        name: "table5_dram_vs_flash",
        files: &["results/table5_dram_vs_flash.json"],
        committed: None,
        run: |_| outcome(&run_table5(&Default::default()), Vec::new()),
    },
    Suite {
        name: "table6_recovery",
        files: &["results/table6_recovery.json"],
        committed: None,
        run: |_| outcome(&run_table6(&Default::default()), Vec::new()),
    },
    Suite {
        name: "fig4_throughput",
        files: &["results/fig4_mlc.json", "results/fig4_slc.json"],
        committed: None,
        run: |_| Outcome {
            json: [
                DeviceProfile::samsung470_mlc(),
                DeviceProfile::intel_x25e_slc(),
            ]
            .map(|flash| json(&run_fig4(&Default::default(), flash)))
            .to_vec(),
            failures: Vec::new(),
        },
    },
    Suite {
        name: "fig5_disk_scaling",
        files: &["results/fig5_disk_scaling.json"],
        committed: None,
        run: |_| outcome(&run_fig5(&Default::default()), Vec::new()),
    },
    Suite {
        name: "fig6_ramp",
        files: &["results/fig6_ramp.json"],
        committed: None,
        run: |_| outcome(&run_fig6(&Default::default()), Vec::new()),
    },
    Suite {
        name: "ablation_gsc_depth",
        files: &["results/ablation_gsc_depth.json"],
        committed: None,
        run: |_| outcome(&run_gsc_depth_ablation(&Default::default()), Vec::new()),
    },
    Suite {
        name: "table6_recovery_functional",
        files: &["results/table6_recovery_functional.json"],
        committed: None,
        run: |_| outcome(&run_table6_functional(&Default::default()), Vec::new()),
    },
    Suite {
        name: "fig6_ramp_functional",
        files: &["results/fig6_ramp_functional.json"],
        committed: Some(Committed {
            file: "BENCH_recovery.json",
            row: row::<RampArmReport>,
        }),
        run: |committed| {
            let arms = run_fig6_functional(&Default::default());
            let failures = evaluate_fig6_ramp(&arms, committed);
            let rows = json(&arms);
            Outcome {
                json: vec![rows.clone(), rows],
                failures,
            }
        },
    },
    Suite {
        name: "bench_throughput",
        files: &[],
        committed: Some(Committed {
            file: "BENCH_throughput.json",
            row: row::<ThroughputBenchRow>,
        }),
        run: |_| {
            let rows = run_bench_throughput(&Default::default(), &[1, 2, 4]);
            outcome(
                &rows,
                evaluate_bench_throughput(&rows, MAX_WAL_BYTES_PER_TXN),
            )
        },
    },
    Suite {
        name: "bench_read_throughput",
        files: &[],
        committed: Some(Committed {
            file: "BENCH_read.json",
            row: row::<ReadBenchRow>,
        }),
        run: |_| {
            let rows = run_bench_read_throughput(&Default::default(), &[1, 2, 4]);
            outcome(&rows, evaluate_bench_read(&rows, MIN_READ_SPEEDUP))
        },
    },
    Suite {
        name: "bench_flash_economy",
        files: &[],
        committed: Some(Committed {
            file: "BENCH_flash_economy.json",
            row: row::<EconomyBenchRow>,
        }),
        run: |_| {
            let rows = run_bench_flash_economy(&Default::default());
            outcome(&rows, evaluate_flash_economy(&rows, HIT_RATIO_TOLERANCE))
        },
    },
    Suite {
        name: "bench_tail_latency",
        files: &[],
        committed: Some(Committed {
            file: "BENCH_tail.json",
            row: row::<TailBenchRow>,
        }),
        run: |_| {
            let bounds = TailBounds::default();
            let rows = run_bench_tail(&TailScale::default(), &bounds);
            outcome(&rows, evaluate_tail(&rows, &bounds))
        },
    },
    Suite {
        name: "bench_degrade",
        files: &[],
        committed: Some(Committed {
            file: "BENCH_degrade.json",
            row: row::<DegradeBenchRow>,
        }),
        run: |_| {
            let rows = run_bench_degrade(&Default::default());
            let failures = evaluate_bench_degrade(
                &rows,
                MIN_TRIPPED_FRACTION_OF_DISK,
                MIN_HEALED_FRACTION_OF_HEALTHY,
            );
            outcome(&rows, failures)
        },
    },
    Suite {
        name: "schema",
        files: &[],
        committed: None,
        run: |_| Outcome {
            json: Vec::new(),
            failures: check_committed(Path::new(".")),
        },
    },
];

fn json<T: Serialize + ?Sized>(rows: &T) -> String {
    serde_json::to_string_pretty(rows).expect("result rows serialise")
}

fn outcome<T: Serialize + ?Sized>(rows: &T, failures: Vec<String>) -> Outcome {
    Outcome {
        json: vec![json(rows)],
        failures,
    }
}

fn row<T: Default + Serialize>() -> Value {
    serde_json::from_str(&json(&T::default())).expect("a default row is valid JSON")
}

/// Check the committed perf-trajectory files under `root`: each
/// `BENCH_*.json` there is written by exactly one suite, and each suite's
/// committed file is a non-empty array of rows that carry every field of
/// the suite's row type, with monotone latency percentiles where all four
/// appear. A bench that silently degrades its output would otherwise
/// corrupt the trajectory without failing a test. Returns the problems
/// (empty means clean).
pub(crate) fn check_committed(root: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    match std::fs::read_dir(root) {
        Ok(entries) => {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                let writers = SUITES
                    .iter()
                    .filter(|s| s.committed.is_some_and(|c| c.file == name))
                    .count();
                if name.starts_with("BENCH_") && name.ends_with(".json") && writers != 1 {
                    problems.push(format!("{name}: written by {writers} suites, not one"));
                }
            }
        }
        Err(e) => problems.push(format!("cannot read {}: {e}", root.display())),
    }
    for committed in SUITES.iter().filter_map(|s| s.committed) {
        problems.extend(check_file(&root.join(committed.file), &(committed.row)()));
    }
    problems
}

fn check_file(path: &Path, template: &Value) -> Vec<String> {
    let name = path.display();
    let parsed = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()));
    let rows = match parsed {
        Ok(Value::Array(rows)) if !rows.is_empty() => rows,
        Ok(_) => return vec![format!("{name}: not a non-empty array")],
        Err(e) => return vec![format!("{name}: {e}")],
    };
    let mut problems = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        if row.as_object().is_none() {
            problems.push(format!("{name}: row {i} is not an object"));
            continue;
        }
        for field in missing_fields(template, row) {
            problems.push(format!("{name}: row {i} is missing `{field}`"));
        }
        // A recorder whose p99 drops below its p50 is broken, not fast.
        let quantiles: Vec<f64> = ["p50_us", "p95_us", "p99_us", "p999_us"]
            .iter()
            .filter_map(|q| row.get(q).and_then(Value::as_f64))
            .collect();
        if quantiles.len() == 4 && quantiles.windows(2).any(|w| w[0] > w[1]) {
            problems.push(format!(
                "{name}: row {i} percentiles not monotone: {quantiles:?}"
            ));
        }
    }
    problems
}

/// The fields of `template` that `row` lacks, as dotted paths, descending
/// into nested objects.
fn missing_fields(template: &Value, row: &Value) -> Vec<String> {
    let (Some(want), Some(have)) = (template.as_object(), row.as_object()) else {
        return Vec::new();
    };
    want.iter()
        .flat_map(|(key, sub)| match have.get(key) {
            Some(v) if sub.as_object().is_none() || v.as_object().is_some() => {
                missing_fields(sub, v)
                    .into_iter()
                    .map(|f| format!("{key}.{f}"))
                    .collect()
            }
            _ => vec![key.clone()],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_names_are_unique() {
        for (i, suite) in SUITES.iter().enumerate() {
            assert!(
                SUITES[..i].iter().all(|s| s.name != suite.name),
                "{} listed twice",
                suite.name
            );
        }
    }

    #[test]
    fn committed_files_have_one_writer_and_every_row_field() {
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let problems = check_committed(root);
        assert!(problems.is_empty(), "{problems:#?}");
    }

    #[test]
    fn the_check_names_orphans_missing_files_and_missing_fields() {
        let root = std::env::temp_dir().join(format!("face-bench-schema-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join("BENCH_orphan.json"), "[{}]").unwrap();
        std::fs::write(
            root.join("BENCH_recovery.json"),
            r#"[{"mode": "warm", "recovery": {"records_scanned": 1}}]"#,
        )
        .unwrap();
        let problems = check_committed(&root);
        std::fs::remove_dir_all(&root).unwrap();
        let has = |needle: &str| problems.iter().any(|p| p.contains(needle));
        assert!(
            has("BENCH_orphan.json: written by 0 suites"),
            "{problems:#?}"
        );
        assert!(has("BENCH_throughput.json: No such file"), "{problems:#?}");
        assert!(has("is missing `restart_secs`"), "{problems:#?}");
        assert!(has("is missing `recovery.redo_applied`"), "{problems:#?}");
        assert!(!has("is missing `mode`"), "{problems:#?}");
    }
}
