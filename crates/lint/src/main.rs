//! CLI for `face-lint`. Deny semantics: any finding exits non-zero.
//!
//! Usage:
//!   face-lint [--root <path>] [--sources] [--check-docs] [--print-docs] [--loc]
//!
//! With neither `--sources` nor `--check-docs`, both passes run. The
//! `--print-docs` flag emits the canonical lock-order block (for pasting
//! between the markers in README.md / ROADMAP.md) and exits. `--loc` prints
//! each crate's non-test lines and their total ([`face_lint::count_loc`])
//! and exits; it reports, it never fails.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut sources = false;
    let mut docs = false;
    let mut print_docs = false;
    let mut loc = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let Some(value) = args.next() else {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(value);
            }
            "--sources" => sources = true,
            "--check-docs" => docs = true,
            "--print-docs" => print_docs = true,
            "--loc" => loc = true,
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }
    if print_docs {
        println!("{}", face_lint::DOC_BEGIN);
        print!("{}", face_analysis::classes::lock_order_doc());
        println!("{}", face_lint::DOC_END);
        return ExitCode::SUCCESS;
    }
    if loc {
        let counts = face_lint::count_loc(&root);
        for (src, lines) in &counts {
            println!("{lines:>6} {src}");
        }
        println!("{:>6} total", counts.iter().map(|(_, n)| n).sum::<usize>());
        return ExitCode::SUCCESS;
    }
    if !sources && !docs {
        sources = true;
        docs = true;
    }
    let mut findings = Vec::new();
    if sources {
        findings.extend(face_lint::scan_sources(&root));
    }
    if docs {
        findings.extend(face_lint::check_docs(&root));
    }
    if findings.is_empty() {
        println!("face-lint: clean");
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        println!("{f}");
    }
    println!("face-lint: {} finding(s)", findings.len());
    ExitCode::FAILURE
}
