//! The JSON-lines wire protocol: request/response model, encoders,
//! decoders, and bounded frame reading.
//!
//! One request object per line, one response object per line. Every
//! request carries a client-chosen `id` echoed verbatim on its response,
//! so a client may pipeline. The full grammar is documented in DESIGN.md
//! §11; this module is the single source of truth for the field names.

use crate::json::{parse, Value};
use crate::server::FinalStats;
use revel_core::engine::CacheStats;
use revel_core::sim::ScheduleCacheStats;
use std::io::{BufRead, Read};

/// Hard cap on one frame (request or response line), in bytes. A frame
/// beyond this is rejected with an `oversized_frame` error and the
/// connection is closed — a worker never sees it.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// A request, minus its envelope `id`.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered inline (never queued).
    Health,
    /// Counter snapshot (engine cache, schedule cache, server); inline.
    Stats,
    /// Begin graceful shutdown: drain in-flight work, then exit; inline.
    Shutdown,
    /// Diagnostic: hold a worker for `ms` milliseconds (deterministic
    /// overload and drain tests; not part of the evaluation surface).
    Sleep {
        /// Milliseconds to hold the worker.
        ms: u64,
    },
    /// Simulate one evaluation-grid cell (or the built-in
    /// `deadlock-probe`) through the engine's run cache.
    Simulate {
        /// Kernel name (`Bench::name`), or `"deadlock-probe"`.
        bench: String,
        /// Parameter string (`Bench::params`), e.g. `"n=12"`.
        params: String,
        /// Architecture label: `revel` / `systolic` / `dataflow` or a
        /// Fig. 22 ablation-ladder label.
        arch: String,
        /// Per-request wall-clock deadline in milliseconds (composes with
        /// the cycle budget; measured from admission, so queueing time
        /// counts).
        deadline_ms: Option<u64>,
        /// Cycle-budget override. Set ⇒ the run bypasses the cache (a
        /// truncated run must never be memoized as the configuration's
        /// result).
        max_cycles: Option<u64>,
        /// Run on the naive reference stepper (oracle mode). Bypasses the
        /// cache for the same reason.
        reference_stepper: bool,
        /// Seed for a deterministic fault plan. Set ⇒ the run injects the
        /// plan's fault events, always bypasses the cache, and is answered
        /// with a `faulted` response carrying the snapshot counts.
        fault_seed: Option<u64>,
        /// Fault events to draw (default 4; meaningful only with
        /// `fault_seed`).
        fault_count: Option<u64>,
        /// Injection window in cycles (default 4096; meaningful only with
        /// `fault_seed`).
        fault_window: Option<u64>,
    },
    /// Simulate one evaluation-grid cell over a batch of seeded datasets
    /// (one per entry of `seeds`): one timing walk, replayed functionally
    /// per dataset.
    SimulateBatch {
        /// Kernel name (`Bench::name`).
        bench: String,
        /// Parameter string.
        params: String,
        /// Architecture label.
        arch: String,
        /// Dataset seeds, one simulated lane of results per entry.
        seeds: Vec<u64>,
    },
    /// Run every static lint over one cell's build (lint cache).
    Lint {
        /// Kernel name.
        bench: String,
        /// Parameter string.
        params: String,
        /// Architecture label.
        arch: String,
    },
    /// REVEL vs. both spatial baselines for one kernel (three cached runs).
    Compare {
        /// Kernel name.
        bench: String,
        /// Parameter string.
        params: String,
    },
}

impl Request {
    /// The common simulate request: one cell, every optional field absent
    /// (no deadline, default cycle budget, event-horizon stepper, no
    /// fault plan) — the form the run cache serves.
    pub fn simulate(bench: &str, params: &str, arch: &str) -> Request {
        Request::Simulate {
            bench: bench.to_string(),
            params: params.to_string(),
            arch: arch.to_string(),
            deadline_ms: None,
            max_cycles: None,
            reference_stepper: false,
            fault_seed: None,
            fault_count: None,
            fault_window: None,
        }
    }
}

/// A response, minus its envelope `id`.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Health {
        /// Worker threads serving the queue.
        workers: u64,
        /// Bounded-queue capacity.
        queue_capacity: u64,
        /// Jobs admitted but not yet popped by a worker (the backlog the
        /// reported `retry_after_ms` hints derive from). Decoded as 0
        /// from legacy frames.
        queue_depth: u64,
        /// Connections currently held by the event loop. Decoded as 0
        /// from legacy frames.
        active_connections: u64,
    },
    /// Counter snapshot: each record travels as itself (its wire names
    /// are listed once, in this module's `counters!` invocations).
    Stats {
        /// Engine-cache counters.
        engine: CacheStats,
        /// Schedule-cache counters.
        schedule: ScheduleCacheStats,
        /// Server request counters.
        server: FinalStats,
    },
    /// Shutdown acknowledged; the server drains and exits.
    ShuttingDown,
    /// Sleep diagnostic completed.
    Slept {
        /// Milliseconds held.
        ms: u64,
    },
    /// A completed simulation.
    Result {
        /// Cycle count.
        cycles: u64,
        /// Stream commands issued by the control core.
        commands_issued: u64,
        /// Numerical verification passed.
        verified: bool,
        /// Verification failure text, when `verified` is false.
        error: Option<String>,
    },
    /// A completed batched simulation (one result summary over all lanes).
    BatchResult {
        /// Cycle count of one lane (every lane of a batch executes the
        /// same schedule, so one count describes all).
        cycles: u64,
        /// Stream commands issued by the control core, per lane.
        commands_issued: u64,
        /// Number of dataset lanes simulated.
        batch: u64,
        /// Numerical verification passed on every lane.
        verified: bool,
        /// True when the batch took the trace-replay path; false when it
        /// fell back to full simulations (a timing walk out of budget).
        replayed: bool,
    },
    /// A simulation ended by the cycle budget or the wall-clock deadline.
    TimedOut {
        /// Cycles executed before the cap fired.
        cycles: u64,
        /// True when the wall-clock deadline (not the budget) fired.
        deadline_expired: bool,
        /// The machine's deadlock snapshot (same text as the batch path).
        deadlock: Option<String>,
    },
    /// REVEL vs. the spatial baselines.
    Comparison {
        /// REVEL cycles.
        revel_cycles: u64,
        /// Pure-systolic baseline cycles.
        systolic_cycles: u64,
        /// Tagged-dataflow baseline cycles.
        dataflow_cycles: u64,
    },
    /// Static-lint results.
    Lint {
        /// True when no diagnostics fired.
        clean: bool,
        /// Rendered diagnostics.
        diagnostics: Vec<String>,
    },
    /// A simulation that carried a fault plan (an explicit `fault_seed`).
    /// Never a trusted result: the client is expected to inspect the
    /// counts or retry without the plan.
    Faulted {
        /// Cycles executed.
        cycles: u64,
        /// Fault events that observably perturbed the machine.
        applied: u64,
        /// Events whose target had nothing to perturb (empty FIFO, already
        /// dead region).
        missed: u64,
        /// Events scheduled after the run ended.
        pending: u64,
        /// Cycle of the first applied event, when any applied.
        first_divergence: Option<u64>,
    },
    /// The bounded queue was full; the request was not admitted.
    Overloaded {
        /// The queue capacity that was exceeded.
        capacity: u64,
        /// Server's backoff hint, derived from queue depth. Omitted from
        /// the wire when absent, so hint-free frames are byte-identical to
        /// the pre-hint protocol.
        retry_after_ms: Option<u64>,
    },
    /// A structured failure.
    Error {
        /// Stable machine-readable kind (`bad_request`, `unknown_bench`,
        /// `oversized_frame`, `shutting_down`, `injected_fault`,
        /// `internal`).
        kind: String,
        /// Human-readable detail.
        message: String,
        /// Backoff hint for transient kinds (`injected_fault`,
        /// `shutting_down`); omitted from the wire when absent.
        retry_after_ms: Option<u64>,
    },
}

impl Response {
    /// A structured error with no retry hint (the common case).
    pub fn error(kind: &str, message: impl Into<String>) -> Response {
        Response::Error { kind: kind.to_string(), message: message.into(), retry_after_ms: None }
    }

    /// True for responses a client may transparently retry: the request
    /// was not served (or was served by an injected fault), and a later
    /// attempt can succeed.
    pub fn is_retryable(&self) -> bool {
        match self {
            Response::Overloaded { .. } => true,
            Response::Error { kind, .. } => kind == "injected_fault" || kind == "shutting_down",
            _ => false,
        }
    }

    /// The server's backoff hint, when one was attached.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            Response::Overloaded { retry_after_ms, .. }
            | Response::Error { retry_after_ms, .. } => *retry_after_ms,
            _ => None,
        }
    }
}

/// A decode failure (malformed JSON or schema violation).
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoError {
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ProtoError {}

fn bad(message: impl Into<String>) -> ProtoError {
    ProtoError { message: message.into() }
}

fn req_str(v: &Value, key: &str) -> Result<String, ProtoError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| bad(format!("missing string field '{key}'")))
}

fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, ProtoError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(f) => {
            f.as_u64().map(Some).ok_or_else(|| bad(format!("field '{key}' must be a count")))
        }
    }
}

fn req_u64(v: &Value, key: &str) -> Result<u64, ProtoError> {
    opt_u64(v, key)?.ok_or_else(|| bad(format!("missing count field '{key}'")))
}

fn opt_bool(v: &Value, key: &str) -> Result<bool, ProtoError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(false),
        Some(f) => f.as_bool().ok_or_else(|| bad(format!("field '{key}' must be a boolean"))),
    }
}

fn req_bool(v: &Value, key: &str) -> Result<bool, ProtoError> {
    v.get(key).and_then(Value::as_bool).ok_or_else(|| bad(format!("missing boolean field '{key}'")))
}

/// A stats record as the `stats` frame carries it: named `u64` counters in
/// a fixed, append-only wire order. The first `V1` names were in the v1
/// frame and are required on decode; the later ones default to 0, so a
/// legacy frame stays decodable. The `counters!` invocations below are the
/// only place a record's wire names are listed: encode, decode and the
/// server's shutdown line all walk them.
pub(crate) trait Counters: Sized {
    /// Wire names, in wire order.
    const NAMES: &'static [&'static str];
    /// How many leading names the v1 frame carried.
    const V1: usize;

    /// One value per name, in wire order.
    fn counts(&self) -> Vec<u64>;

    /// Inverse of [`Counters::counts`].
    fn from_counts(counts: &[u64]) -> Self;

    /// Writes the record as comma-separated `name N` pairs.
    fn fmt_pairs(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (name, count)) in Self::NAMES.iter().zip(self.counts()).enumerate() {
            write!(f, "{}{name} {count}", if i == 0 { "" } else { ", " })?;
        }
        Ok(())
    }
}

/// `counters!(Record { v1 names; later names })`: the struct literal in
/// `from_counts` makes a field missing from the list a compile error.
macro_rules! counters {
    ($record:ty { $($v1:ident),*; $($later:ident),* }) => {
        impl Counters for $record {
            const NAMES: &'static [&'static str] =
                &[$(stringify!($v1),)* $(stringify!($later),)*];
            const V1: usize = [$(stringify!($v1)),*].len();

            fn counts(&self) -> Vec<u64> {
                vec![$(self.$v1,)* $(self.$later,)*]
            }

            fn from_counts(counts: &[u64]) -> Self {
                let mut counts = counts.iter();
                let mut next = || *counts.next().expect("one count per wire name");
                Self { $($v1: next(),)* $($later: next(),)* }
            }
        }
    };
}

counters!(CacheStats {
    hits, misses, evictions, capacity, run_entries, lint_entries, sim_cycles, skipped_cycles,
    fault_bypasses, oblivious_entries;
    deadline_fallbacks, trace_hits, batched_replays, disk_hits, warm_start_entries,
    disk_cold_starts
});
counters!(ScheduleCacheStats { hits, misses, entries; });
counters!(FinalStats {
    received, completed, overloaded, timed_out, errors;
    conn_timeouts, write_overflows, injected
});

/// Encodes a request as one frame (newline-terminated).
pub fn encode_request(id: u64, req: &Request) -> String {
    let mut fields = vec![("id".to_string(), Value::u64(id))];
    let mut op = |name: &str| fields.push(("op".to_string(), Value::str(name)));
    match req {
        Request::Health => op("health"),
        Request::Stats => op("stats"),
        Request::Shutdown => op("shutdown"),
        Request::Sleep { ms } => {
            op("sleep");
            fields.push(("ms".to_string(), Value::u64(*ms)));
        }
        Request::Simulate {
            bench,
            params,
            arch,
            deadline_ms,
            max_cycles,
            reference_stepper,
            fault_seed,
            fault_count,
            fault_window,
        } => {
            op("simulate");
            fields.push(("bench".to_string(), Value::str(bench)));
            fields.push(("params".to_string(), Value::str(params)));
            fields.push(("arch".to_string(), Value::str(arch)));
            if let Some(ms) = deadline_ms {
                fields.push(("deadline_ms".to_string(), Value::u64(*ms)));
            }
            if let Some(mc) = max_cycles {
                fields.push(("max_cycles".to_string(), Value::u64(*mc)));
            }
            if *reference_stepper {
                fields.push(("reference_stepper".to_string(), Value::Bool(true)));
            }
            // Fault fields are emitted only when set, so fault-free frames
            // are byte-identical to the pre-fault protocol.
            if let Some(s) = fault_seed {
                fields.push(("fault_seed".to_string(), Value::u64(*s)));
            }
            if let Some(c) = fault_count {
                fields.push(("fault_count".to_string(), Value::u64(*c)));
            }
            if let Some(w) = fault_window {
                fields.push(("fault_window".to_string(), Value::u64(*w)));
            }
        }
        Request::SimulateBatch { bench, params, arch, seeds } => {
            op("simulate_batch");
            fields.push(("bench".to_string(), Value::str(bench)));
            fields.push(("params".to_string(), Value::str(params)));
            fields.push(("arch".to_string(), Value::str(arch)));
            fields.push((
                "seeds".to_string(),
                Value::Arr(seeds.iter().map(|s| Value::u64(*s)).collect()),
            ));
        }
        Request::Lint { bench, params, arch } => {
            op("lint");
            fields.push(("bench".to_string(), Value::str(bench)));
            fields.push(("params".to_string(), Value::str(params)));
            fields.push(("arch".to_string(), Value::str(arch)));
        }
        Request::Compare { bench, params } => {
            op("compare");
            fields.push(("bench".to_string(), Value::str(bench)));
            fields.push(("params".to_string(), Value::str(params)));
        }
    }
    let mut line = Value::Obj(fields).render();
    line.push('\n');
    line
}

/// Decodes one request frame into `(id, request)`.
///
/// # Errors
/// Malformed JSON, a non-object, or a schema violation.
pub fn decode_request(line: &str) -> Result<(u64, Request), ProtoError> {
    let v = parse(line.trim_end()).map_err(|e| bad(e.to_string()))?;
    if !matches!(v, Value::Obj(_)) {
        return Err(bad("request frame must be a JSON object"));
    }
    let id = req_u64(&v, "id")?;
    let op = req_str(&v, "op")?;
    let req = match op.as_str() {
        "health" => Request::Health,
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        "sleep" => Request::Sleep { ms: req_u64(&v, "ms")? },
        "simulate" => Request::Simulate {
            bench: req_str(&v, "bench")?,
            params: req_str(&v, "params")?,
            arch: req_str(&v, "arch")?,
            deadline_ms: opt_u64(&v, "deadline_ms")?,
            max_cycles: opt_u64(&v, "max_cycles")?,
            reference_stepper: opt_bool(&v, "reference_stepper")?,
            fault_seed: opt_u64(&v, "fault_seed")?,
            fault_count: opt_u64(&v, "fault_count")?,
            fault_window: opt_u64(&v, "fault_window")?,
        },
        "simulate_batch" => Request::SimulateBatch {
            bench: req_str(&v, "bench")?,
            params: req_str(&v, "params")?,
            arch: req_str(&v, "arch")?,
            seeds: v
                .get("seeds")
                .and_then(Value::as_arr)
                .ok_or_else(|| bad("missing array field 'seeds'"))?
                .iter()
                .map(|s| s.as_u64().ok_or_else(|| bad("seeds must be counts")))
                .collect::<Result<Vec<_>, _>>()?,
        },
        "lint" => Request::Lint {
            bench: req_str(&v, "bench")?,
            params: req_str(&v, "params")?,
            arch: req_str(&v, "arch")?,
        },
        "compare" => {
            Request::Compare { bench: req_str(&v, "bench")?, params: req_str(&v, "params")? }
        }
        other => return Err(bad(format!("unknown op '{other}'"))),
    };
    Ok((id, req))
}

fn counters_obj<C: Counters>(record: &C) -> Value {
    let counts = C::NAMES.iter().zip(record.counts());
    Value::Obj(counts.map(|(name, count)| ((*name).to_string(), Value::u64(count))).collect())
}

/// Encodes a response as one frame (newline-terminated).
pub fn encode_response(id: u64, resp: &Response) -> String {
    let mut fields = vec![("id".to_string(), Value::u64(id))];
    let mut kind = |name: &str| fields.push(("type".to_string(), Value::str(name)));
    match resp {
        Response::Health { workers, queue_capacity, queue_depth, active_connections } => {
            kind("health");
            fields.push(("workers".to_string(), Value::u64(*workers)));
            fields.push(("queue_capacity".to_string(), Value::u64(*queue_capacity)));
            fields.push(("queue_depth".to_string(), Value::u64(*queue_depth)));
            fields.push(("active_connections".to_string(), Value::u64(*active_connections)));
        }
        Response::Stats { engine, schedule, server } => {
            kind("stats");
            fields.push(("engine".to_string(), counters_obj(engine)));
            fields.push(("schedule_cache_stats".to_string(), counters_obj(schedule)));
            fields.push(("server".to_string(), counters_obj(server)));
        }
        Response::ShuttingDown => kind("shutting_down"),
        Response::Slept { ms } => {
            kind("slept");
            fields.push(("ms".to_string(), Value::u64(*ms)));
        }
        Response::Result { cycles, commands_issued, verified, error } => {
            kind("result");
            fields.push(("cycles".to_string(), Value::u64(*cycles)));
            fields.push(("commands_issued".to_string(), Value::u64(*commands_issued)));
            fields.push(("verified".to_string(), Value::Bool(*verified)));
            if let Some(e) = error {
                fields.push(("error".to_string(), Value::str(e)));
            }
        }
        Response::BatchResult { cycles, commands_issued, batch, verified, replayed } => {
            kind("batch_result");
            fields.push(("cycles".to_string(), Value::u64(*cycles)));
            fields.push(("commands_issued".to_string(), Value::u64(*commands_issued)));
            fields.push(("batch".to_string(), Value::u64(*batch)));
            fields.push(("verified".to_string(), Value::Bool(*verified)));
            fields.push(("replayed".to_string(), Value::Bool(*replayed)));
        }
        Response::TimedOut { cycles, deadline_expired, deadlock } => {
            kind("timed_out");
            fields.push(("cycles".to_string(), Value::u64(*cycles)));
            fields.push(("deadline_expired".to_string(), Value::Bool(*deadline_expired)));
            if let Some(d) = deadlock {
                fields.push(("deadlock".to_string(), Value::str(d)));
            }
        }
        Response::Comparison { revel_cycles, systolic_cycles, dataflow_cycles } => {
            kind("comparison");
            fields.push(("revel_cycles".to_string(), Value::u64(*revel_cycles)));
            fields.push(("systolic_cycles".to_string(), Value::u64(*systolic_cycles)));
            fields.push(("dataflow_cycles".to_string(), Value::u64(*dataflow_cycles)));
        }
        Response::Lint { clean, diagnostics } => {
            kind("lint");
            fields.push(("clean".to_string(), Value::Bool(*clean)));
            fields.push((
                "diagnostics".to_string(),
                Value::Arr(diagnostics.iter().map(Value::str).collect()),
            ));
        }
        Response::Faulted { cycles, applied, missed, pending, first_divergence } => {
            kind("faulted");
            fields.push(("cycles".to_string(), Value::u64(*cycles)));
            fields.push(("applied".to_string(), Value::u64(*applied)));
            fields.push(("missed".to_string(), Value::u64(*missed)));
            fields.push(("pending".to_string(), Value::u64(*pending)));
            if let Some(c) = first_divergence {
                fields.push(("first_divergence".to_string(), Value::u64(*c)));
            }
        }
        Response::Overloaded { capacity, retry_after_ms } => {
            kind("overloaded");
            fields.push(("capacity".to_string(), Value::u64(*capacity)));
            if let Some(ms) = retry_after_ms {
                fields.push(("retry_after_ms".to_string(), Value::u64(*ms)));
            }
        }
        Response::Error { kind: k, message, retry_after_ms } => {
            kind("error");
            fields.push(("kind".to_string(), Value::str(k)));
            fields.push(("message".to_string(), Value::str(message)));
            if let Some(ms) = retry_after_ms {
                fields.push(("retry_after_ms".to_string(), Value::u64(*ms)));
            }
        }
    }
    let mut line = Value::Obj(fields).render();
    line.push('\n');
    line
}

fn wire_counters<C: Counters>(v: &Value, key: &str) -> Result<C, ProtoError> {
    let obj = v.get(key).ok_or_else(|| bad(format!("missing object field '{key}'")))?;
    let (v1, later) = C::NAMES.split_at(C::V1);
    let counts = (v1.iter().map(|name| req_u64(obj, name)))
        .chain(later.iter().map(|name| Ok(opt_u64(obj, name)?.unwrap_or(0))))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(C::from_counts(&counts))
}

/// Decodes one response frame into `(id, response)`.
///
/// # Errors
/// Malformed JSON, a non-object, or a schema violation.
pub fn decode_response(line: &str) -> Result<(u64, Response), ProtoError> {
    let v = parse(line.trim_end()).map_err(|e| bad(e.to_string()))?;
    if !matches!(v, Value::Obj(_)) {
        return Err(bad("response frame must be a JSON object"));
    }
    let id = req_u64(&v, "id")?;
    let ty = req_str(&v, "type")?;
    let resp = match ty.as_str() {
        "health" => Response::Health {
            workers: req_u64(&v, "workers")?,
            queue_capacity: req_u64(&v, "queue_capacity")?,
            // Later fields: optional on decode so legacy health frames
            // stay decodable.
            queue_depth: opt_u64(&v, "queue_depth")?.unwrap_or(0),
            active_connections: opt_u64(&v, "active_connections")?.unwrap_or(0),
        },
        "stats" => Response::Stats {
            engine: wire_counters(&v, "engine")?,
            schedule: wire_counters(&v, "schedule_cache_stats")?,
            server: wire_counters(&v, "server")?,
        },
        "shutting_down" => Response::ShuttingDown,
        "slept" => Response::Slept { ms: req_u64(&v, "ms")? },
        "result" => Response::Result {
            cycles: req_u64(&v, "cycles")?,
            commands_issued: req_u64(&v, "commands_issued")?,
            verified: req_bool(&v, "verified")?,
            error: v.get("error").and_then(Value::as_str).map(str::to_owned),
        },
        "batch_result" => Response::BatchResult {
            cycles: req_u64(&v, "cycles")?,
            commands_issued: req_u64(&v, "commands_issued")?,
            batch: req_u64(&v, "batch")?,
            verified: req_bool(&v, "verified")?,
            replayed: req_bool(&v, "replayed")?,
        },
        "timed_out" => Response::TimedOut {
            cycles: req_u64(&v, "cycles")?,
            deadline_expired: req_bool(&v, "deadline_expired")?,
            deadlock: v.get("deadlock").and_then(Value::as_str).map(str::to_owned),
        },
        "comparison" => Response::Comparison {
            revel_cycles: req_u64(&v, "revel_cycles")?,
            systolic_cycles: req_u64(&v, "systolic_cycles")?,
            dataflow_cycles: req_u64(&v, "dataflow_cycles")?,
        },
        "lint" => Response::Lint {
            clean: req_bool(&v, "clean")?,
            diagnostics: v
                .get("diagnostics")
                .and_then(Value::as_arr)
                .ok_or_else(|| bad("missing array field 'diagnostics'"))?
                .iter()
                .map(|d| d.as_str().map(str::to_owned).ok_or_else(|| bad("non-string diagnostic")))
                .collect::<Result<Vec<_>, _>>()?,
        },
        "faulted" => Response::Faulted {
            cycles: req_u64(&v, "cycles")?,
            applied: req_u64(&v, "applied")?,
            missed: req_u64(&v, "missed")?,
            pending: req_u64(&v, "pending")?,
            first_divergence: opt_u64(&v, "first_divergence")?,
        },
        "overloaded" => Response::Overloaded {
            capacity: req_u64(&v, "capacity")?,
            retry_after_ms: opt_u64(&v, "retry_after_ms")?,
        },
        "error" => Response::Error {
            kind: req_str(&v, "kind")?,
            message: req_str(&v, "message")?,
            retry_after_ms: opt_u64(&v, "retry_after_ms")?,
        },
        other => return Err(bad(format!("unknown response type '{other}'"))),
    };
    Ok((id, resp))
}

/// One frame pulled off a connection.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete line (newline stripped).
    Line(String),
    /// The line exceeded [`MAX_FRAME_BYTES`]; payload is the observed size.
    Oversized(usize),
}

/// Incremental newline-delimited frame reader with the
/// [`MAX_FRAME_BYTES`] bound enforced *during* accumulation (a hostile
/// megabyte line is rejected after 64 KiB, not buffered).
///
/// Partial frames survive read timeouts: an `Err(WouldBlock | TimedOut)`
/// from the underlying stream propagates out of [`FrameReader::next_frame`]
/// with the accumulated bytes retained, so callers can poll a shutdown
/// flag between reads without losing data.
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// Bytes of `buf` already scanned for a newline.
    scanned: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        FrameReader { inner, buf: Vec::new(), scanned: 0 }
    }

    /// Returns the next frame, `Ok(None)` at EOF.
    ///
    /// # Errors
    /// Propagates I/O errors (including read timeouts; see type docs).
    pub fn next_frame(&mut self) -> std::io::Result<Option<Frame>> {
        loop {
            if let Some(pos) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let nl = self.scanned + pos;
                if nl > MAX_FRAME_BYTES {
                    // The newline landed in the same chunk that blew the
                    // bound; a completed-but-oversized line is still
                    // rejected.
                    return Ok(Some(Frame::Oversized(nl)));
                }
                let rest = self.buf.split_off(nl + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                self.scanned = 0;
                let text = String::from_utf8(line).map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "not UTF-8")
                })?;
                return Ok(Some(Frame::Line(text)));
            }
            self.scanned = self.buf.len();
            if self.buf.len() > MAX_FRAME_BYTES {
                return Ok(Some(Frame::Oversized(self.buf.len())));
            }
            let mut chunk = [0u8; 4096];
            let n = self.inner.read(&mut chunk)?;
            if n == 0 {
                return Ok(None); // EOF; any partial frame is discarded
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Reads every frame of a buffered source (for replay files).
///
/// # Errors
/// Propagates I/O errors and the oversized-frame bound.
pub fn read_all_frames<R: BufRead>(r: R) -> std::io::Result<Vec<String>> {
    let mut fr = FrameReader::new(r);
    let mut out = Vec::new();
    while let Some(frame) = fr.next_frame()? {
        match frame {
            Frame::Line(l) => {
                if !l.trim().is_empty() {
                    out.push(l);
                }
            }
            Frame::Oversized(n) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte bound"),
                ));
            }
        }
    }
    Ok(out)
}
