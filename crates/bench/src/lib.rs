//! # revel-bench — the experiment harness
//!
//! `cargo run -p revel-bench --bin all_experiments --release` regenerates
//! every paper table and figure in one run; the other binaries in
//! `src/bin/` are the CI gates and tools. Wall-clock performance of the
//! infrastructure itself is measured by the standalone `benchmark/`
//! package.
//!
//! The [`grid`] module defines the shared evaluation grid (workload ×
//! architecture cells) consumed by both the `grid_oracle` gate and the
//! `revel-serve` scenario runner.

#![forbid(unsafe_code)]

pub mod grid;
