//! `face-bench <suite>...`: run experiment suites in order, print each
//! file's rows as a table, write the JSON and print the gate verdicts.
//! Exits non-zero if a suite fails its gate or a name is not a suite.

use std::process::ExitCode;

use face_bench::report::print_rows;
use face_bench::suites::{Suite, SUITES};
use serde_json::Value;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let picked: Option<Vec<&Suite>> = names
        .iter()
        .map(|n| SUITES.iter().find(|s| s.name == n))
        .collect();
    let picked = match picked {
        Some(picked) if !picked.is_empty() => picked,
        _ => {
            let all: Vec<&str> = SUITES.iter().map(|s| s.name).collect();
            eprintln!("usage: face-bench <suite>...\nsuites: {}", all.join(" "));
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for suite in picked {
        // A committed file that is there but does not parse reaches the
        // suite as `null`, which no gate takes for a baseline.
        let committed = suite
            .committed
            .and_then(|c| std::fs::read_to_string(c.file).ok())
            .map(|text| serde_json::from_str(&text).unwrap_or(Value::Null));
        let mut outcome = (suite.run)(committed.as_ref());
        assert_eq!(
            outcome.json.len(),
            suite.outputs().count(),
            "{}",
            suite.name
        );
        for (file, json) in suite.outputs().zip(&outcome.json) {
            print_rows(file, json);
            let dir = std::path::Path::new(file).parent().unwrap_or(".".as_ref());
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(file, json)) {
                outcome.failures.push(format!("cannot write {file}: {e}"));
            }
        }
        for failure in &outcome.failures {
            println!("[FAIL] {}: {failure}", suite.name);
        }
        if outcome.failures.is_empty() {
            println!("[PASS] {}", suite.name);
        }
        failed |= !outcome.failures.is_empty();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
