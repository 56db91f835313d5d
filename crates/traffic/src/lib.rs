//! # revel-traffic — reproducible traffic storms
//!
//! A std-only, seeded-deterministic scenario engine for load-testing the
//! REVEL serving tier. The crate is deliberately transport-agnostic: it
//! knows about *arrival times*, *lanes* (per-connection state machines),
//! and *SLOs* — not about sockets or the wire protocol. `revel-serve`'s
//! `revel_client` scenario runner supplies the I/O.
//!
//! The pieces compose bottom-up:
//!
//! * [`json`] — the hand-rolled JSON layer shared with the wire protocol
//!   (moved here from `revel-serve` so scenario files and protocol frames
//!   are parsed by the same code).
//! * [`pattern`] — composable arrival processes ([`pattern::PatternKind`]):
//!   constant, open-loop Poisson, burst trains, linear ramp, and overlay
//!   composition. A
//!   [`pattern::PatternEngine`] turns a pattern plus a phase index and a
//!   seed into a sorted arrival schedule in simulated microseconds —
//!   no wall clock anywhere, so shape tests run instantly.
//! * [`lane`] — the per-connection state machine: in-flight caps,
//!   deterministic-jitter retry backoff, and coordinated-omission-correct
//!   accounting (latency is measured from the *intended* send time on the
//!   arrival grid, and sends that slip behind the grid are counted).
//! * [`scenario`] — the versioned `scenario.json` file format: phased
//!   timelines, workload mixes, and named SLO assertions; [`scenario::Scenario::plan`] expands a scenario
//!   into a fully materialized, seed-deterministic arrival plan.
//! * [`report`] — per-phase summaries, nearest-rank percentiles, SLO
//!   evaluation, and the stable JSON report line.
//!
//! Determinism contract: every stochastic choice (Poisson gaps, burst
//! spread, mix sampling, retry jitter) draws from
//! [`revel_isa::Rng`] streams derived from one scenario seed, so two runs
//! with the same seed produce byte-identical request sequences.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod lane;
pub mod pattern;
pub mod report;
pub mod scenario;

/// Decorrelation constant for deriving per-stream seeds from one scenario
/// seed (the SplitMix64 golden-ratio increment).
pub const STREAM_GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Derive the seed for an indexed sub-stream (lane, phase, mix) from a
/// root seed. Index 0 maps to a distinct stream, not the root itself.
pub fn stream_seed(root: u64, index: u64) -> u64 {
    root ^ index.wrapping_add(1).wrapping_mul(STREAM_GOLDEN)
}
