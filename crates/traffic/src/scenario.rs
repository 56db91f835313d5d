//! The versioned `scenario.json` file format and its seed-deterministic
//! expansion into an executable plan.
//!
//! A scenario is untrusted input, parsed by the same hand-rolled JSON
//! layer as the wire protocol ([`crate::json`]): oversized files, unknown
//! versions, and malformed fields come back as structured
//! [`ScenarioError`]s — never a panic. Unknown *fields* are ignored (the
//! same forward-compatibility posture the protocol takes), unknown
//! *enumerations* (pattern kinds, event actions) are errors.
//!
//! ## File shape (version 1)
//!
//! ```json
//! {
//!   "version": 1,
//!   "name": "thundering_herd",
//!   "seed": 7,
//!   "connections": 8,
//!   "inflight": 2,
//!   "retries": 3,
//!   "backoff_base_ms": 5,
//!   "backoff_cap_ms": 200,
//!   "mix": [
//!     {"weight": 3, "bench": "solver", "params": "n=12", "arch": "revel"},
//!     {"weight": 1, "grid": true},
//!     {"weight": 1, "bench": "fft", "params": "n=64", "arch": "revel", "batch": 8}
//!   ],
//!   "phases": [
//!     {"name": "warm", "duration_ms": 2000, "pattern": {"kind": "constant", "rps": 40}},
//!     {"name": "drain", "duration_ms": 500, "pattern": {"kind": "silence"}},
//!     {"name": "stampede", "duration_ms": 2000, "reconnect": true,
//!      "pattern": {"kind": "burst", "count": 40, "every_ms": 400, "spread_ms": 10},
//!      "events": [{"at_ms": 700, "kill_shard": {"shard": 0}, "wipe_snapshot": true}]}
//!   ],
//!   "slos": [
//!     {"name": "tail", "phase": "stampede", "max_p99_ms": 1500},
//!     {"name": "served", "phase": "all", "min_success_rate": 0.995}
//!   ]
//! }
//! ```
//!
//! `mix` entries name an explicit grid cell (optionally a batch lane via
//! `"batch": N`) or `{"grid": true}`, which walks the whole 42-cell
//! evaluation grid round-robin. A phase may override `mix`, and an event's
//! victim may be `{"shard": N}` or `{"owner_of": {"bench", "params",
//! "arch"}}` (the ring owner of that cell, resolved server-side).

use crate::json::{self, Value};
use crate::pattern::{PatternEngine, PatternKind};
use revel_isa::Rng;

/// Scenario files larger than this are rejected before parsing. Generous:
/// the catalog files are ~2 KiB; replay traces dominate legitimate size.
pub const MAX_SCENARIO_BYTES: usize = 256 * 1024;

/// The only scenario file version this build understands.
pub const SCENARIO_VERSION: u64 = 1;

/// A structured scenario rejection: where in the file, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// Dotted path of the offending field, e.g. `"phases[2].pattern.rps"`.
    pub at: String,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario error at {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for ScenarioError {}

fn serr(at: impl Into<String>, reason: impl Into<String>) -> ScenarioError {
    ScenarioError { at: at.into(), reason: reason.into() }
}

/// One weighted entry of a workload mix.
#[derive(Debug, Clone, PartialEq)]
pub struct MixEntry {
    /// Relative sampling weight (> 0, finite).
    pub weight: f64,
    /// What this entry resolves to.
    pub cell: MixCell,
}

/// The workload a mix entry selects.
#[derive(Debug, Clone, PartialEq)]
pub enum MixCell {
    /// Walk the full evaluation grid round-robin (each draw of this entry
    /// consumes the next grid cursor value).
    Grid,
    /// A fixed cell, optionally as a batched-replay lane.
    Cell {
        /// Workload name, e.g. `"solver"`.
        bench: String,
        /// Parameter string, e.g. `"n=12"`.
        params: String,
        /// Architecture, e.g. `"revel"`.
        arch: String,
        /// Batch width; 0 means a plain (non-batched) simulate.
        batch: u64,
    },
}

/// A scripted fleet event inside a phase.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetEvent {
    /// Offset from phase start, milliseconds.
    pub at_ms: u64,
    /// Which shard dies.
    pub victim: Victim,
    /// Also wipe the victim's snapshot directory before it respawns
    /// (turns a warm restart into a cache-cold stampede).
    pub wipe_snapshot: bool,
}

/// Victim selector for a kill event.
#[derive(Debug, Clone, PartialEq)]
pub enum Victim {
    /// An explicit shard id.
    Shard(u64),
    /// The ring owner of a cell, resolved by the fleet frontend at event
    /// time — this is how `shard_kill_ramp` guarantees it kills a shard
    /// that is actually serving traffic.
    OwnerOf {
        /// Workload name.
        bench: String,
        /// Parameter string.
        params: String,
        /// Architecture.
        arch: String,
    },
}

/// One phase of the timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase name (unique; SLOs reference it).
    pub name: String,
    /// Phase length, milliseconds.
    pub duration_ms: u64,
    /// Arrival process for this phase.
    pub pattern: PatternKind,
    /// Tear down and re-dial every connection at phase start (the
    /// reconnect stampede of `thundering_herd`).
    pub reconnect: bool,
    /// Phase-local mix override; `None` uses the scenario-level mix.
    pub mix: Option<Vec<MixEntry>>,
    /// Scripted fleet events, sorted by `at_ms`.
    pub events: Vec<FleetEvent>,
}

/// A named SLO assertion over one phase (or `"all"` for the whole run).
/// Unset gates are not checked; an SLO with no gate at all is rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct Slo {
    /// Assertion name, printed on violation.
    pub name: String,
    /// Phase this applies to; `None` = the whole run.
    pub phase: Option<String>,
    /// Ceiling on p50 latency, milliseconds.
    pub max_p50_ms: Option<f64>,
    /// Ceiling on p99 latency, milliseconds.
    pub max_p99_ms: Option<f64>,
    /// Floor on the server-side cache hit rate over the phase window.
    pub min_hit_rate: Option<f64>,
    /// Floor on ok / offered.
    pub min_success_rate: Option<f64>,
    /// Floor on trace-replay hits over the phase window.
    pub min_trace_hits: Option<u64>,
}

impl Slo {
    fn has_gate(&self) -> bool {
        self.max_p50_ms.is_some()
            || self.max_p99_ms.is_some()
            || self.min_hit_rate.is_some()
            || self.min_success_rate.is_some()
            || self.min_trace_hits.is_some()
    }
}

/// A parsed, validated scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (reports and SLO output carry it).
    pub name: String,
    /// Root seed; `--seed` on the command line overrides it.
    pub seed: u64,
    /// Lane (connection) count.
    pub connections: usize,
    /// Per-lane in-flight cap.
    pub max_inflight: usize,
    /// Attempts per request (1 = no retries).
    pub max_attempts: u32,
    /// Retry backoff base, ms.
    pub backoff_base_ms: u64,
    /// Retry backoff ceiling, ms.
    pub backoff_cap_ms: u64,
    /// Late-send threshold, ms.
    pub late_threshold_ms: u64,
    /// Scenario-level workload mix.
    pub mix: Vec<MixEntry>,
    /// The phased timeline.
    pub phases: Vec<Phase>,
    /// Named SLO assertions.
    pub slos: Vec<Slo>,
}

// ---------------------------------------------------------------------------
// Parsing

fn want_obj<'v>(v: &'v Value, at: &str) -> Result<&'v [(String, Value)], ScenarioError> {
    match v {
        Value::Obj(fields) => Ok(fields),
        _ => Err(serr(at, "expected an object")),
    }
}

fn want_arr<'v>(v: &'v Value, at: &str) -> Result<&'v [Value], ScenarioError> {
    v.as_arr().ok_or_else(|| serr(at, "expected an array"))
}

fn opt_u64(v: &Value, key: &str, at: &str) -> Result<Option<u64>, ScenarioError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(f) => f
            .as_u64()
            .map(Some)
            .ok_or_else(|| serr(format!("{at}.{key}"), "expected a non-negative integer")),
    }
}

fn opt_f64(v: &Value, key: &str, at: &str) -> Result<Option<f64>, ScenarioError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(f) => f
            .as_f64()
            .filter(|x| x.is_finite())
            .map(Some)
            .ok_or_else(|| serr(format!("{at}.{key}"), "expected a finite number")),
    }
}

fn opt_bool(v: &Value, key: &str, at: &str) -> Result<bool, ScenarioError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(false),
        Some(f) => f.as_bool().ok_or_else(|| serr(format!("{at}.{key}"), "expected a boolean")),
    }
}

fn req_str(v: &Value, key: &str, at: &str) -> Result<String, ScenarioError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| serr(format!("{at}.{key}"), "expected a string"))
}

fn req_f64(v: &Value, key: &str, at: &str) -> Result<f64, ScenarioError> {
    opt_f64(v, key, at)?.ok_or_else(|| serr(format!("{at}.{key}"), "missing required number"))
}

fn parse_pattern(v: &Value, at: &str) -> Result<PatternKind, ScenarioError> {
    want_obj(v, at)?;
    let kind = req_str(v, "kind", at)?;
    let pat = match kind.as_str() {
        "silence" => PatternKind::Silence,
        "constant" => PatternKind::Constant { rps: req_f64(v, "rps", at)? },
        "poisson" => PatternKind::Poisson { rps: req_f64(v, "rps", at)? },
        "burst" => PatternKind::Burst {
            count: opt_u64(v, "count", at)?
                .ok_or_else(|| serr(format!("{at}.count"), "missing"))?,
            every_ms: opt_u64(v, "every_ms", at)?
                .ok_or_else(|| serr(format!("{at}.every_ms"), "missing"))?,
            spread_ms: opt_u64(v, "spread_ms", at)?.unwrap_or(0),
        },
        "ramp" => PatternKind::Ramp {
            from_rps: req_f64(v, "from_rps", at)?,
            to_rps: req_f64(v, "to_rps", at)?,
        },
        "overlay" => {
            let arr = v
                .get("parts")
                .ok_or_else(|| serr(format!("{at}.parts"), "missing"))
                .and_then(|a| want_arr(a, &format!("{at}.parts")))?;
            let mut parts = Vec::with_capacity(arr.len());
            for (i, part) in arr.iter().enumerate() {
                parts.push(parse_pattern(part, &format!("{at}.parts[{i}]"))?);
            }
            PatternKind::Overlay { parts }
        }
        other => return Err(serr(format!("{at}.kind"), format!("unknown pattern kind {other:?}"))),
    };
    pat.validate().map_err(|e| serr(at, e.message))?;
    Ok(pat)
}

fn parse_mix(v: &Value, at: &str) -> Result<Vec<MixEntry>, ScenarioError> {
    let arr = want_arr(v, at)?;
    if arr.is_empty() {
        return Err(serr(at, "mix must not be empty"));
    }
    if arr.len() > 64 {
        return Err(serr(at, "mix is capped at 64 entries"));
    }
    let mut out = Vec::with_capacity(arr.len());
    for (i, entry) in arr.iter().enumerate() {
        let eat = format!("{at}[{i}]");
        want_obj(entry, &eat)?;
        let weight = opt_f64(entry, "weight", &eat)?.unwrap_or(1.0);
        if weight <= 0.0 || weight > 1e6 {
            return Err(serr(format!("{eat}.weight"), "weight must be in (0, 1e6]"));
        }
        let cell = if entry.get("grid").and_then(Value::as_bool).unwrap_or(false) {
            MixCell::Grid
        } else {
            MixCell::Cell {
                bench: req_str(entry, "bench", &eat)?,
                params: entry.get("params").and_then(Value::as_str).unwrap_or("").to_string(),
                arch: entry.get("arch").and_then(Value::as_str).unwrap_or("").to_string(),
                batch: opt_u64(entry, "batch", &eat)?.unwrap_or(0),
            }
        };
        if let MixCell::Cell { batch, .. } = cell {
            if batch > 1024 {
                return Err(serr(format!("{eat}.batch"), "batch is capped at 1024"));
            }
        }
        out.push(MixEntry { weight, cell });
    }
    Ok(out)
}

fn parse_events(v: &Value, at: &str) -> Result<Vec<FleetEvent>, ScenarioError> {
    let arr = want_arr(v, at)?;
    if arr.len() > 16 {
        return Err(serr(at, "events are capped at 16 per phase"));
    }
    let mut out = Vec::with_capacity(arr.len());
    for (i, ev) in arr.iter().enumerate() {
        let eat = format!("{at}[{i}]");
        want_obj(ev, &eat)?;
        let at_ms =
            opt_u64(ev, "at_ms", &eat)?.ok_or_else(|| serr(format!("{eat}.at_ms"), "missing"))?;
        let kill = ev
            .get("kill_shard")
            .ok_or_else(|| serr(&eat, "unknown event: only kill_shard is supported"))?;
        let kat = format!("{eat}.kill_shard");
        want_obj(kill, &kat)?;
        let victim = if let Some(shard) = opt_u64(kill, "shard", &kat)? {
            Victim::Shard(shard)
        } else if let Some(owner) = kill.get("owner_of") {
            let oat = format!("{kat}.owner_of");
            want_obj(owner, &oat)?;
            Victim::OwnerOf {
                bench: req_str(owner, "bench", &oat)?,
                params: owner.get("params").and_then(Value::as_str).unwrap_or("").to_string(),
                arch: owner.get("arch").and_then(Value::as_str).unwrap_or("").to_string(),
            }
        } else {
            return Err(serr(kat, "kill_shard needs a shard id or an owner_of cell"));
        };
        out.push(FleetEvent { at_ms, victim, wipe_snapshot: opt_bool(ev, "wipe_snapshot", &eat)? });
    }
    out.sort_by_key(|e| e.at_ms);
    Ok(out)
}

fn parse_slos(v: &Value, at: &str) -> Result<Vec<Slo>, ScenarioError> {
    let arr = want_arr(v, at)?;
    if arr.len() > 64 {
        return Err(serr(at, "slos are capped at 64 entries"));
    }
    let mut out = Vec::with_capacity(arr.len());
    for (i, slo) in arr.iter().enumerate() {
        let sat = format!("{at}[{i}]");
        want_obj(slo, &sat)?;
        let phase = match slo.get("phase").and_then(Value::as_str) {
            None | Some("all") => None,
            Some(name) => Some(name.to_string()),
        };
        let parsed = Slo {
            name: req_str(slo, "name", &sat)?,
            phase,
            max_p50_ms: opt_f64(slo, "max_p50_ms", &sat)?,
            max_p99_ms: opt_f64(slo, "max_p99_ms", &sat)?,
            min_hit_rate: opt_f64(slo, "min_hit_rate", &sat)?,
            min_success_rate: opt_f64(slo, "min_success_rate", &sat)?,
            min_trace_hits: opt_u64(slo, "min_trace_hits", &sat)?,
        };
        if !parsed.has_gate() {
            return Err(serr(sat, "slo asserts nothing: set at least one gate"));
        }
        out.push(parsed);
    }
    Ok(out)
}

impl Scenario {
    /// Parse and validate a scenario file. Size, version, and every field
    /// are checked; failures are structured [`ScenarioError`]s.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        if text.len() > MAX_SCENARIO_BYTES {
            return Err(serr(
                "$",
                format!("scenario file is {} bytes; the cap is {MAX_SCENARIO_BYTES}", text.len()),
            ));
        }
        let root = json::parse(text)
            .map_err(|e| serr("$", format!("invalid JSON at byte {}: {}", e.at, e.reason)))?;
        want_obj(&root, "$")?;
        let version = opt_u64(&root, "version", "$")?
            .ok_or_else(|| serr("$.version", "missing scenario version"))?;
        if version != SCENARIO_VERSION {
            return Err(serr(
                "$.version",
                format!(
                    "unknown scenario version {version} (this build speaks {SCENARIO_VERSION})"
                ),
            ));
        }
        let name = req_str(&root, "name", "$")?;
        let connections = opt_u64(&root, "connections", "$")?.unwrap_or(4);
        if connections == 0 || connections > 256 {
            return Err(serr("$.connections", "connections must be in 1..=256"));
        }
        let max_inflight = opt_u64(&root, "inflight", "$")?.unwrap_or(1);
        if max_inflight == 0 || max_inflight > 64 {
            return Err(serr("$.inflight", "inflight must be in 1..=64"));
        }
        let retries = opt_u64(&root, "retries", "$")?.unwrap_or(0);
        if retries > 16 {
            return Err(serr("$.retries", "retries are capped at 16"));
        }
        let mix = parse_mix(
            root.get("mix").ok_or_else(|| serr("$.mix", "missing workload mix"))?,
            "$.mix",
        )?;
        let phases_v = want_arr(
            root.get("phases").ok_or_else(|| serr("$.phases", "missing phases"))?,
            "$.phases",
        )?;
        if phases_v.is_empty() {
            return Err(serr("$.phases", "a scenario needs at least one phase"));
        }
        if phases_v.len() > 32 {
            return Err(serr("$.phases", "phases are capped at 32"));
        }
        let mut phases = Vec::with_capacity(phases_v.len());
        for (i, phase) in phases_v.iter().enumerate() {
            let pat = format!("$.phases[{i}]");
            want_obj(phase, &pat)?;
            let duration_ms = opt_u64(phase, "duration_ms", &pat)?
                .ok_or_else(|| serr(format!("{pat}.duration_ms"), "missing"))?;
            if duration_ms == 0 || duration_ms > 3_600_000 {
                return Err(serr(
                    format!("{pat}.duration_ms"),
                    "duration_ms must be in 1..=3600000",
                ));
            }
            let name = req_str(phase, "name", &pat)?;
            if phases.iter().any(|p: &Phase| p.name == name) {
                return Err(serr(format!("{pat}.name"), format!("duplicate phase name {name:?}")));
            }
            phases.push(Phase {
                name,
                duration_ms,
                pattern: parse_pattern(
                    phase
                        .get("pattern")
                        .ok_or_else(|| serr(format!("{pat}.pattern"), "missing"))?,
                    &format!("{pat}.pattern"),
                )?,
                reconnect: opt_bool(phase, "reconnect", &pat)?,
                mix: match phase.get("mix") {
                    None | Some(Value::Null) => None,
                    Some(m) => Some(parse_mix(m, &format!("{pat}.mix"))?),
                },
                events: match phase.get("events") {
                    None | Some(Value::Null) => Vec::new(),
                    Some(e) => parse_events(e, &format!("{pat}.events"))?,
                },
            });
            let phase_ref = phases.last().expect("just pushed");
            for (j, ev) in phase_ref.events.iter().enumerate() {
                if ev.at_ms > phase_ref.duration_ms {
                    return Err(serr(
                        format!("{pat}.events[{j}].at_ms"),
                        "event fires after the phase ends",
                    ));
                }
            }
        }
        let slos = match root.get("slos") {
            None | Some(Value::Null) => Vec::new(),
            Some(s) => parse_slos(s, "$.slos")?,
        };
        for (i, slo) in slos.iter().enumerate() {
            if let Some(phase) = &slo.phase {
                if !phases.iter().any(|p| &p.name == phase) {
                    return Err(serr(
                        format!("$.slos[{i}].phase"),
                        format!("references unknown phase {phase:?}"),
                    ));
                }
            }
        }
        Ok(Scenario {
            name,
            seed: opt_u64(&root, "seed", "$")?.unwrap_or(0),
            connections: connections as usize,
            max_inflight: max_inflight as usize,
            max_attempts: retries as u32 + 1,
            backoff_base_ms: opt_u64(&root, "backoff_base_ms", "$")?.unwrap_or(5),
            backoff_cap_ms: opt_u64(&root, "backoff_cap_ms", "$")?.unwrap_or(200),
            late_threshold_ms: opt_u64(&root, "late_threshold_ms", "$")?.unwrap_or(1),
            mix,
            phases,
            slos,
        })
    }

    /// The mix a given phase samples from (its override, else the
    /// scenario-level mix).
    pub fn effective_mix(&self, phase_index: usize) -> &[MixEntry] {
        self.phases[phase_index].mix.as_deref().unwrap_or(&self.mix)
    }

    /// Expand the scenario into a fully materialized plan under
    /// `seed_override` (or the file's own seed). Same seed ⇒ identical
    /// plan, byte for byte.
    pub fn plan(&self, seed_override: Option<u64>) -> Result<ScenarioPlan, ScenarioError> {
        let seed = seed_override.unwrap_or(self.seed);
        let engine = PatternEngine::new(seed);
        // Mix sampling uses its own stream so adding a phase never
        // perturbs arrival times, and vice versa.
        let mut mix_rng = Rng::seed_from_u64(crate::stream_seed(seed, 0xA11C));
        let mut grid_cursor = 0u64;
        let mut phases = Vec::with_capacity(self.phases.len());
        for (i, phase) in self.phases.iter().enumerate() {
            let times = engine
                .phase_arrivals(i, &phase.pattern, phase.duration_ms)
                .map_err(|e| serr(format!("$.phases[{i}].pattern"), e.message))?;
            let mix = self.effective_mix(i);
            let total_weight: f64 = mix.iter().map(|m| m.weight).sum();
            let mut arrivals = Vec::with_capacity(times.len());
            for at_us in times {
                let mut pick = mix_rng.gen_f64() * total_weight;
                let mut entry = mix.len() - 1;
                for (j, m) in mix.iter().enumerate() {
                    if pick < m.weight {
                        entry = j;
                        break;
                    }
                    pick -= m.weight;
                }
                let grid_cursor_val = if matches!(mix[entry].cell, MixCell::Grid) {
                    let v = grid_cursor;
                    grid_cursor += 1;
                    Some(v)
                } else {
                    None
                };
                arrivals.push(PlannedArrival {
                    at_us,
                    mix_entry: entry,
                    grid_cursor: grid_cursor_val,
                });
            }
            phases.push(PhasePlan {
                name: phase.name.clone(),
                duration_us: phase.duration_ms * 1000,
                reconnect: phase.reconnect,
                arrivals,
                events: phase.events.clone(),
            });
        }
        Ok(ScenarioPlan { seed, phases })
    }
}

/// One materialized arrival: when, and which mix entry it samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedArrival {
    /// Offset from phase start, µs.
    pub at_us: u64,
    /// Index into the phase's effective mix.
    pub mix_entry: usize,
    /// For [`MixCell::Grid`] entries, the round-robin cursor this arrival
    /// consumed (the runner maps it onto the 42-cell grid).
    pub grid_cursor: Option<u64>,
}

/// One phase of an expanded plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasePlan {
    /// Phase name.
    pub name: String,
    /// Phase length, µs.
    pub duration_us: u64,
    /// Re-dial every lane at phase start.
    pub reconnect: bool,
    /// Sorted arrivals.
    pub arrivals: Vec<PlannedArrival>,
    /// Scripted fleet events (sorted by `at_ms`).
    pub events: Vec<FleetEvent>,
}

impl PhasePlan {
    /// Split this phase's arrivals over `lanes` connections round-robin in
    /// arrival order (arrival `i` → lane `i % lanes`), returning each
    /// lane's `(arrival_index, at_us)` slice. Round-robin in time order
    /// keeps per-lane load even under every pattern shape.
    pub fn lane_slices(&self, lanes: usize) -> Vec<Vec<(usize, u64)>> {
        let mut out = vec![Vec::new(); lanes.max(1)];
        for (i, a) in self.arrivals.iter().enumerate() {
            out[i % lanes.max(1)].push((i, a.at_us));
        }
        out
    }
}

/// A fully expanded, seed-deterministic scenario plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPlan {
    /// The seed the plan was expanded under.
    pub seed: u64,
    /// One entry per scenario phase.
    pub phases: Vec<PhasePlan>,
}
