//! Experiment harness regenerating every table and figure of the paper.
//!
//! The `repro` binary (`cargo run -p flexi-bench --release --bin repro --
//! <experiment>`) prints each table/figure's rows on the simulated clock.
//! Host-clock performance is measured by the separate `benchmark/` crate,
//! not here.
//!
//! [`harness`] holds the shared machinery: run profiles, the dataset
//! cache, VRAM/time-budget scaling (so OOM/OOT reproduce at proxy scale),
//! and outcome formatting. [`experiments`] implements one function per
//! paper artifact (`fig3`, `table2`, …) as indexed in `DESIGN.md` §4.
//! [`json`] is the std-only emitter behind the `BENCH_<id>.json`
//! artifacts `repro --json` writes.

pub mod experiments;
pub mod harness;
pub mod json;

pub use harness::{Outcome, Profile, RunSummary, Table};
