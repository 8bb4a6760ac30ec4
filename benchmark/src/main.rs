//! The repo benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! face-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!     one workload in this process; the last line of standard output is
//!     {"correct":…,"attempted":…,"failed":…,"metrics":{…}}
//! face-benchmark [--seed N] [--seconds S] [--traced]
//!     every workload, each in a child process of its own
//! face-benchmark --aa N [--seed N] [--seconds S]
//!     N untraced sets with seeds seed, seed+1, …; spread of every workload x
//!     end-to-end metric against its bound in BENCHMARK.json
//! ```

mod flashdev;
mod input;
mod probes;
mod run;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use run::{Budget, Options, Report};
use spec::{Metric, Workload, CLIENTS, DEFAULT_SECONDS, DEFAULT_SEED, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    aa: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        aa: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--traced" {
            args.traced = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60),
            "--trace" => args.traced = number()? != 0,
            "--aa" => args.aa = Some(number()?.max(2) as usize),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn table(traced: bool) -> &'static [Metric] {
    if traced {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    }
}

/// The result line of the contract. Values are printed as measured, with all
/// their digits.
fn result_line(report: &Report, traced: bool) -> String {
    let metrics: Vec<String> = table(traced)
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, report.metrics[m.name], m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// One workload in this process.
fn run_one(w: &Workload, args: &Args) -> ExitCode {
    let opts = Options {
        seed: args.seed,
        budget: Budget::Seconds(args.seconds),
        traced: args.traced,
        clients: CLIENTS,
        destage_threads: 2,
    };
    let report = match run::run(w, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            return ExitCode::from(2);
        }
    };
    println!(
        "{}  seed {}  {} s  {}  clients {}  cores {}  inputs {:016x}",
        w.name,
        args.seed,
        args.seconds,
        if args.traced { "traced" } else { "untraced" },
        CLIENTS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        report.input_hash
    );
    println!("  why: {}", w.why);
    for m in table(args.traced) {
        println!(
            "  {:<38} {:>16.4} {:<6} ({} is better)",
            m.name, report.metrics[m.name], m.unit, m.better
        );
    }
    println!(
        "  latency samples {}  ops attempted {}  failed {}",
        report.latency_samples, report.attempted, report.failed
    );
    println!(
        "  wall: set-up {:.2} s  measured {:.2} s  verify {:.2} s  total {:.2} s",
        report.setup_wall_s, report.measured_wall_s, report.verify_wall_s, report.total_wall_s
    );
    for note in &report.notes {
        eprintln!("{}: FAILED {note}", w.name);
    }
    println!("{}", result_line(&report, args.traced));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a child process reported.
struct ChildResult {
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Re-execute this program for one workload, so peak RSS and allocator state
/// are the workload's own. The child's report is passed through.
fn run_child(w: &Workload, seed: u64, seconds: u64, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or("");
    let json = serde_json::from_str(last)
        .map_err(|e| format!("{}: no result line ({e}); exit {}", w.name, output.status))?;
    let failed = json
        .get("failed")
        .and_then(|v| v.as_f64())
        .ok_or(format!("{}: result line has no `failed`", w.name))? as u64;
    let metrics = json
        .get("metrics")
        .and_then(|m| m.as_object())
        .ok_or(format!("{}: result line has no `metrics`", w.name))?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult { failed, metrics })
}

/// Every workload once, each in a child process.
fn run_set(seed: u64, seconds: u64, traced: bool) -> Result<Vec<ChildResult>, String> {
    WORKLOADS
        .iter()
        .map(|w| run_child(w, seed, seconds, traced))
        .collect()
}

fn run_everything(args: &Args) -> Result<u64, String> {
    let started = Instant::now();
    let failed_in = |traced| -> Result<u64, String> {
        Ok(run_set(args.seed, args.seconds, traced)?
            .iter()
            .map(|r| r.failed)
            .sum())
    };
    let mut failed = failed_in(false)?;
    if args.traced {
        failed += failed_in(true)?;
    }
    println!(
        "total wall {:.1} s, failed operations {failed}",
        started.elapsed().as_secs_f64()
    );
    Ok(failed)
}

/// `bound` of every end-to-end metric, from `BENCHMARK.json` in the current
/// directory (the repo root), falling back to the compiled-in table.
fn bounds() -> BTreeMap<String, f64> {
    let from_file = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok())
        .and_then(|json| {
            json.get("end_to_end")?
                .as_array()?
                .iter()
                .map(|m| {
                    Some((
                        m.get("name")?.as_str()?.to_string(),
                        m.get("bound")?.as_f64()?,
                    ))
                })
                .collect::<Option<BTreeMap<_, _>>>()
        });
    from_file.unwrap_or_else(|| {
        eprintln!("no BENCHMARK.json in the current directory; using the compiled-in bounds");
        spec::END_TO_END
            .iter()
            .filter_map(|m| Some((m.name.to_string(), m.bound?)))
            .collect()
    })
}

/// A/A: `sets` untraced sets of the same commit, each with another seed as
/// the driver does it. Fails if the interquartile spread of any workload x
/// end-to-end metric (set-up time aside) exceeds the metric's bound.
fn run_aa(args: &Args, sets: usize) -> Result<u64, String> {
    let bounds = bounds();
    let mut failed = 0u64;
    let mut values: BTreeMap<(usize, &'static str), Vec<f64>> = BTreeMap::new();
    for set in 0..sets {
        for (wi, result) in run_set(args.seed + set as u64, args.seconds, false)?
            .iter()
            .enumerate()
        {
            failed += result.failed;
            for m in spec::END_TO_END {
                let v = *result
                    .metrics
                    .get(m.name)
                    .ok_or(format!("{} did not report {}", WORKLOADS[wi].name, m.name))?;
                values.entry((wi, m.name)).or_default().push(v);
            }
        }
    }
    println!(
        "\nA/A over {sets} sets, seeds {}..={}",
        args.seed,
        args.seed + sets as u64 - 1
    );
    println!(
        "{:<14} {:<20} {:>12} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    let mut over = 0;
    for ((wi, name), v) in &values {
        let (q1, median, q3) = stats::quartiles(v);
        let spread = stats::spread(v);
        let bound = bounds.get(*name).copied().unwrap_or(0.0);
        let verdict = if *name == "setup_s" {
            ""
        } else if spread > bound {
            over += 1;
            "  OVER"
        } else if spread > bound / 3.0 {
            "  wide"
        } else {
            ""
        };
        println!(
            "{:<14} {:<20} {q1:>12.4} {median:>12.4} {q3:>12.4} {spread:>8.4} {bound:>7.3}{verdict}",
            WORKLOADS[*wi].name, name
        );
    }
    println!("failed operations {failed}, metrics over their bound {over}");
    Ok(failed + over)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.workload, args.aa) {
        (Some(name), _) => match spec::workload(name) {
            Some(w) => return run_one(w, &args),
            None => Err(format!(
                "unknown workload {name}; known: {}",
                WORKLOADS.map(|w| w.name).join(", ")
            )),
        },
        (None, Some(sets)) => run_aa(&args, sets),
        (None, None) => run_everything(&args),
    };
    match outcome {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn legal_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_legal_unique_and_within_the_limits() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(spec::END_TO_END.iter().map(|m| m.name))
            .chain(spec::PER_LAYER.iter().map(|m| m.name))
        {
            assert!(legal_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&spec::END_TO_END.len()));
        assert!((1..=128).contains(&spec::PER_LAYER.len()));
        for m in spec::END_TO_END.iter().chain(spec::PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
            assert!(["higher", "lower"].contains(&m.better));
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
    }

    /// `BENCHMARK.json` and the compiled-in tables name the same workloads
    /// and metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = json
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let field =
            |v: &serde_json::Value, k: &str| v.get(k).unwrap().as_str().unwrap().to_string();
        let listed = |key: &str| json.get(key).unwrap().as_array().unwrap().clone();

        let workloads: Vec<(String, String)> = listed("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));

        for (key, table) in [
            ("end_to_end", spec::END_TO_END),
            ("per_layer", spec::PER_LAYER),
        ] {
            let in_file: Vec<(String, String, String, Option<f64>)> = listed(key)
                .iter()
                .map(|m| {
                    (
                        field(m, "name"),
                        field(m, "unit"),
                        field(m, "better"),
                        m.get("bound").and_then(|b| b.as_f64()),
                    )
                })
                .collect();
            let in_code: Vec<(String, String, String, Option<f64>)> = table
                .iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
                .collect();
            assert_eq!(in_file, in_code, "{key}");
        }
        assert_eq!(
            json.get("run_seconds").unwrap().as_f64().unwrap(),
            DEFAULT_SECONDS as f64
        );
        let paths: Vec<String> = listed("paths")
            .iter()
            .map(|p| p.as_str().unwrap().to_string())
            .collect();
        assert_eq!(paths, ["benchmark"]);
    }

    #[test]
    fn the_result_line_is_the_contracts_json() {
        let metrics = spec::END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, i as f64 + 0.123456789))
            .collect();
        let report = Report {
            metrics,
            attempted: 10,
            failed: 0,
            notes: Vec::new(),
            input_hash: 0,
            latency_samples: 0,
            setup_wall_s: 0.0,
            measured_wall_s: 0.0,
            verify_wall_s: 0.0,
            total_wall_s: 0.0,
        };
        let json = serde_json::from_str(&result_line(&report, false)).unwrap();
        let keys: Vec<&str> = json
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let reported = json.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(reported.len(), spec::END_TO_END.len());
        let p50 = reported.get("txn_p50_us").unwrap();
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(1.123456789));
        assert_eq!(p50.get("unit").unwrap().as_str(), Some("us"));
    }
}
