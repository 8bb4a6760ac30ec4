//! # face-bench — experiment harness for the FaCE reproduction
//!
//! One function per table/figure of the paper's evaluation (§5): the trace
//! simulator (`face-engine::sim`) replays the TPC-C workload (`face-tpcc`)
//! on the calibrated devices (`face-iosim`), and the functional-engine gates
//! drive the real `Database` on simulated devices. [`suites::SUITES`] names
//! every experiment, the files it writes and its gate; the `face-bench`
//! binary runs them (`cargo run --release -p face-bench -- <suite>...`),
//! prints their rows with [`report::print_rows`] and exits non-zero when a
//! gate fails.
//!
//! Experiments run at one fixed, reduced scale so the whole set finishes in
//! minutes; every size *ratio* the paper's results depend on
//! (DRAM : flash : database, group size, client count) is preserved. Each
//! scale's `Default` is what the binary runs and its `tiny()` what the
//! harness's tests run. The `bench_*` and `fig6_ramp_functional` suites
//! write the committed `BENCH_*.json` files at the repo root; [`tail`]
//! documents the windowed-p99 methodology behind `BENCH_tail.json`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod report;
pub mod suites;
pub mod tail;
