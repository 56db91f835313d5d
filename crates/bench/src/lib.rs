//! # revel-bench — the experiment harness
//!
//! One binary per paper table/figure (see `src/bin/`); run everything with
//! `cargo run -p revel-bench --bin all_experiments --release`. Wall-clock
//! performance of the infrastructure itself is measured by the standalone
//! `benchmark/` package.
//!
//! The [`grid`] module defines the shared evaluation grid (workload ×
//! architecture cells) consumed by both the differential stepper gate and
//! the `revel-serve` scenario runner.

#![forbid(unsafe_code)]

pub mod grid;
