//! # revel-serve — the simulation service
//!
//! A std-only TCP front-end for the REVEL evaluation stack: clients speak a
//! JSON-lines protocol (one request object per line, one response object
//! per line — see [`protocol`] and DESIGN.md §11) to simulate, lint, or
//! compare any cell of the evaluation grid. The server routes every
//! request through the process-wide evaluation engine
//! (`revel_core::engine`), so a warm server answers repeated cells from
//! the bounded run cache at memory speed while cold cells simulate exactly
//! once, even under a thundering herd.
//!
//! Operational properties (the reason this is a crate and not a script):
//!
//! * **Bounded admission.** Requests pass through a bounded MPMC queue
//!   ([`queue::Bounded`]); when it is full the client gets a structured
//!   `overloaded` response immediately — the server never hangs a caller
//!   on an unbounded backlog and never silently drops a request.
//! * **Per-request deadlines.** A `deadline_ms` on a simulate request
//!   threads into [`SimOptions::wall_deadline`] and composes with the
//!   cycle budget: whichever cap fires first surfaces as a structured
//!   `timed_out` response carrying the machine's deadlock snapshot.
//! * **Graceful shutdown.** SIGTERM/ctrl-c (or a `shutdown` request) stops
//!   admission, drains in-flight work, joins every worker, and emits a
//!   final stats line; in-flight clients get their answers.
//!
//! Load is offered one way: the companion `revel_client` binary runs a
//! [`scenario`] file (phased arrival processes over a workload mix, with
//! pinned SLOs) and reports per-phase coordinated-omission-correct
//! latency plus the server-side cache window. Faults are injected one
//! way: `REVEL_FAILPOINTS` arms named sites (`revel_failpoint`), the work
//! path's being `serve.worker.pre-run` inside the worker's unwind fence.
//! Servers and fleets are booted, driven and torn down one way: the
//! [`harness`] guards, which every test, the `torture` binary and the
//! `--shards` frontend go through.
//!
//! [`SimOptions::wall_deadline`]: revel_core::sim::SimOptions

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod fleet;
pub mod harness;
pub mod probe;
pub mod protocol;
pub mod queue;
pub mod scenario;
pub mod server;
pub mod signal;

// The JSON layer moved to `revel-traffic` so scenario files and wire
// frames share one parser; the re-export keeps `revel_serve::json` paths
// (and the protocol's internal `crate::json` imports) working unchanged.
pub use revel_traffic::json;
