//! The scenario runner: drives a [`revel_traffic`] scenario plan
//! against a live `revel_serve` over the JSON-lines protocol.
//!
//! The split of responsibilities (DESIGN.md §11, "Scenarios"):
//!
//! * `revel_traffic` owns everything deterministic — arrival grids, mix
//!   sampling, per-lane state machines, SLO math. No sockets.
//! * This module owns everything that touches the wire: materializing mix
//!   entries into protocol [`Request`]s, pumping each lane's
//!   [`Action`]s through a pipelined
//!   [`Client`], and bracketing each phase with server-side stats
//!   snapshots.
//!
//! One OS thread per lane (connection). Lanes never share a connection;
//! replies correlate FIFO per lane, which the protocol guarantees.

use crate::client::{Client, ClientError};
use crate::protocol::{encode_request, Request, Response};
use revel_bench::grid;
use revel_core::engine::CacheStats;
use revel_traffic::lane::{Action, Completion, Lane, LaneCfg, Outcome, ReplyClass};
use revel_traffic::report::{evaluate_slos, PhaseSummary, SloViolation, StatsWindow};
use revel_traffic::scenario::{MixCell, Scenario};
use revel_traffic::stream_seed;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Consecutive transport failures (failed dials or dead reads) before a
/// lane gives up and completes its remaining plan as errors. With the
/// reconnect pause this bounds a dead-server stall to a few seconds.
const MAX_TRANSPORT_FAILURES: u32 = 40;

/// Pause between reconnect attempts after a failed dial.
const RECONNECT_PAUSE: Duration = Duration::from_millis(50);

/// Read-timeout backstop when a lane has nothing scheduled and is only
/// draining replies: a server silent for this long counts as dead.
const RECV_BACKSTOP: Duration = Duration::from_secs(10);

/// Read timeout on the control connection (stats snapshots).
const CONTROL_TIMEOUT: Duration = Duration::from_secs(5);

/// How the runner connects and reports.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Server address, `host:port`.
    pub addr: String,
    /// `--seed` override of the scenario file's seed.
    pub seed_override: Option<u64>,
    /// Capture every sent frame (for determinism diffs).
    pub dump_requests: bool,
}

/// Everything a scenario run produced.
#[derive(Debug)]
pub struct RunReport {
    /// The seed the plan expanded under (file seed or `--seed`).
    pub seed: u64,
    /// Per-phase summaries, in timeline order. Sealed.
    pub phases: Vec<(String, PhaseSummary)>,
    /// Whole-run aggregate. Sealed.
    pub total: PhaseSummary,
    /// Every broken SLO gate (empty = pass).
    pub violations: Vec<SloViolation>,
    /// When [`RunOptions::dump_requests`] is set: every frame sent,
    /// grouped `# phase <name> lane <i>` then frames in send order — a
    /// deterministic layout (phase, then lane, then sequence), independent
    /// of thread interleaving.
    pub dump: Vec<String>,
}

/// What one lane thread hands back after a phase.
struct LaneTally {
    completions: Vec<Completion>,
    late_sends: u64,
    retries: u64,
    frames: Vec<String>,
}

/// Execute `scenario` against the server at `opts.addr`, phase by phase.
///
/// # Errors
/// Only plan expansion can fail (a pattern that blows the arrival cap at
/// this duration). Transport trouble never errors the run — it lands in
/// the summaries as failed requests, where SLOs can see it.
pub fn run(scenario: &Scenario, opts: &RunOptions) -> Result<RunReport, String> {
    let plan = scenario.plan(opts.seed_override).map_err(|e| e.to_string())?;
    let cells = grid::evaluation_grid();
    let lane_cfg = LaneCfg {
        max_inflight: scenario.max_inflight,
        max_attempts: scenario.max_attempts,
        backoff_base_ms: scenario.backoff_base_ms,
        backoff_cap_ms: scenario.backoff_cap_ms,
        late_threshold_us: scenario.late_threshold_ms.saturating_mul(1000),
    };

    let mut control: Option<Client> = None;
    let mut conns: Vec<Option<Client>> = (0..scenario.connections).map(|_| None).collect();
    let mut phases_out: Vec<(String, PhaseSummary)> = Vec::with_capacity(plan.phases.len());
    let mut dump = Vec::new();

    for (pi, phase) in plan.phases.iter().enumerate() {
        if phase.reconnect {
            // The reconnect stampede: every lane tears down and re-dials
            // at phase start (dials happen lazily, on first send).
            for conn in &mut conns {
                *conn = None;
            }
        }
        let mix = scenario.effective_mix(pi);
        let requests: Vec<Request> = phase
            .arrivals
            .iter()
            .map(|a| materialize(&mix[a.mix_entry].cell, a.grid_cursor, &cells))
            .collect();
        let slices = phase.lane_slices(scenario.connections);
        let before = fetch_stats(&mut control, &opts.addr);
        let phase_start = Instant::now();

        let lane_results: Vec<(Option<Client>, LaneTally)> = std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(slices.len());
            for (li, slice) in slices.iter().enumerate() {
                let client = conns[li].take();
                let requests = &requests;
                let addr = &opts.addr;
                let seed = lane_seed(plan.seed, pi, li);
                let dump_requests = opts.dump_requests;
                handles.push(s.spawn(move || {
                    run_lane(
                        addr,
                        lane_cfg,
                        seed,
                        slice,
                        requests,
                        phase_start,
                        client,
                        dump_requests,
                    )
                }));
            }
            handles.into_iter().map(|h| h.join().expect("lane thread")).collect()
        });

        let mut summary = PhaseSummary::default();
        for (li, (client, tally)) in lane_results.into_iter().enumerate() {
            conns[li] = client;
            summary.fold(&tally.completions, tally.late_sends, tally.retries);
            if opts.dump_requests {
                dump.push(format!("# phase {} lane {li}", phase.name));
                dump.extend(tally.frames);
            }
        }
        // Sleep out the remainder so the next phase starts on its own grid
        // and this phase's stats window covers exactly its timeline slot.
        let dur = Duration::from_micros(phase.duration_us);
        let elapsed = phase_start.elapsed();
        if elapsed < dur {
            std::thread::sleep(dur - elapsed);
        }
        summary.wall_s = phase_start.elapsed().as_secs_f64();
        let after = fetch_stats(&mut control, &opts.addr);
        summary.window = match (before, after) {
            (Some(b), Some(a)) => Some(window_delta(&b, &a)),
            _ => None,
        };
        summary.seal();
        phases_out.push((phase.name.clone(), summary));
    }

    let mut total = PhaseSummary::default();
    for (_, s) in &phases_out {
        total.absorb(s);
    }
    total.seal();
    let violations = evaluate_slos(&scenario.slos, &phases_out, &total);
    Ok(RunReport { seed: plan.seed, phases: phases_out, total, violations, dump })
}

/// Lane RNG stream: decorrelated per (run seed, phase, lane) so retry
/// jitter never couples lanes or phases.
fn lane_seed(seed: u64, phase: usize, lane: usize) -> u64 {
    stream_seed(seed, 0x4C61_6E65_0000_0000 | ((phase as u64) << 16) | lane as u64)
}

/// Turn a mix cell (plus its grid cursor, for `{"grid": true}` draws) into
/// the protocol request it stands for.
fn materialize(cell: &MixCell, grid_cursor: Option<u64>, cells: &[grid::Cell]) -> Request {
    match cell {
        MixCell::Grid => {
            let c = &cells[grid_cursor.unwrap_or(0) as usize % cells.len()];
            Request::simulate(c.bench.name(), &c.bench.params(), c.arch)
        }
        MixCell::Cell { bench, params, arch, batch } => {
            if *batch > 0 {
                Request::SimulateBatch {
                    bench: bench.clone(),
                    params: params.clone(),
                    arch: arch.clone(),
                    seeds: (1..=*batch).collect(),
                }
            } else {
                Request::simulate(bench, params, arch)
            }
        }
    }
}

/// Classify a protocol reply for the lane state machine: `faulted` and
/// every structured success count as ok; retryable failures carry the
/// server's backoff hint.
fn classify(resp: &Response) -> ReplyClass {
    if resp.is_retryable() {
        let outcome = match resp {
            Response::Overloaded { .. } => Outcome::Overloaded,
            _ => Outcome::Error,
        };
        ReplyClass::Retryable { outcome, hint_ms: resp.retry_after_ms() }
    } else {
        ReplyClass::Final(match resp {
            Response::TimedOut { .. } => Outcome::TimedOut,
            Response::Error { .. } => Outcome::Error,
            _ => Outcome::Ok,
        })
    }
}

fn now_us(phase_start: Instant) -> u64 {
    phase_start.elapsed().as_micros() as u64
}

/// Drive one lane's slice of a phase plan over a (pipelined, lazily
/// re-dialed) connection. Returns the connection for reuse by the next
/// phase (`None` if it died last) plus the accounting.
#[allow(clippy::too_many_arguments)]
fn run_lane(
    addr: &str,
    cfg: LaneCfg,
    seed: u64,
    slice: &[(usize, u64)],
    requests: &[Request],
    phase_start: Instant,
    mut client: Option<Client>,
    dump: bool,
) -> (Option<Client>, LaneTally) {
    let planned: Vec<u64> = slice.iter().map(|&(_, at_us)| at_us).collect();
    let mut lane = Lane::new(cfg, seed, planned);
    // FIFO of request ids awaiting replies on this connection; cleared
    // whenever the connection is torn down (its replies die with it).
    let mut sent_ids: VecDeque<u64> = VecDeque::new();
    let mut frames = Vec::new();
    let mut failures = 0u32;
    loop {
        if failures > MAX_TRANSPORT_FAILURES {
            lane.abort(now_us(phase_start));
        }
        match lane.next_action(now_us(phase_start)) {
            Action::Send { slot, .. } => {
                if client.is_none() {
                    match Client::connect(addr) {
                        Ok(c) => client = Some(c),
                        Err(_) => {
                            failures += 1;
                            sent_ids.clear();
                            lane.on_transport_error(now_us(phase_start));
                            std::thread::sleep(RECONNECT_PAUSE);
                            continue;
                        }
                    }
                }
                let req = &requests[slice[slot].0];
                match client.as_mut().expect("dialed above").send(req) {
                    Ok(id) => {
                        failures = 0;
                        lane.on_sent(now_us(phase_start));
                        sent_ids.push_back(id);
                        if dump {
                            frames.push(encode_request(id, req));
                        }
                    }
                    Err(_) => {
                        failures += 1;
                        client = None;
                        sent_ids.clear();
                        lane.on_transport_error(now_us(phase_start));
                    }
                }
            }
            Action::Recv { wait_until_us } => {
                let Some(c) = client.as_mut() else {
                    // In-flight work with no connection can only mean the
                    // teardown already drained it; defensive, not expected.
                    sent_ids.clear();
                    lane.on_transport_error(now_us(phase_start));
                    continue;
                };
                let timeout = match wait_until_us {
                    Some(t) => {
                        Duration::from_micros(t.saturating_sub(now_us(phase_start)).max(1_000))
                    }
                    None => RECV_BACKSTOP,
                };
                let _ = c.set_read_timeout(Some(timeout));
                match c.recv() {
                    Ok((id, resp)) => {
                        if sent_ids.pop_front() == Some(id) {
                            failures = 0;
                            lane.on_reply(classify(&resp), now_us(phase_start));
                        } else {
                            // Id mismatch is a protocol violation: the
                            // connection can no longer be trusted.
                            failures += 1;
                            client = None;
                            sent_ids.clear();
                            lane.on_transport_error(now_us(phase_start));
                        }
                    }
                    Err(ClientError::Io(e))
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        if wait_until_us.is_none() {
                            // Nothing scheduled and the server has been
                            // silent past the backstop: call it dead.
                            failures += 1;
                            client = None;
                            sent_ids.clear();
                            lane.on_transport_error(now_us(phase_start));
                        }
                        // Otherwise the next send is simply due; loop.
                    }
                    Err(_) => {
                        failures += 1;
                        client = None;
                        sent_ids.clear();
                        lane.on_transport_error(now_us(phase_start));
                    }
                }
            }
            Action::Sleep { until_us } => {
                let now = now_us(phase_start);
                if until_us > now {
                    std::thread::sleep(Duration::from_micros(until_us - now));
                }
            }
            Action::Done => break,
        }
    }
    let tally = LaneTally {
        completions: lane.completions().to_vec(),
        late_sends: lane.late_sends(),
        retries: lane.retries(),
        frames,
    };
    (client, tally)
}

/// Fetch an engine-stats snapshot over the (lazily re-dialed) control
/// connection; `None` when the server is unreachable — phases bracketed by
/// a missing snapshot report no stats window, which hit-rate SLOs treat as
/// a violation rather than a free pass.
fn fetch_stats(control: &mut Option<Client>, addr: &str) -> Option<CacheStats> {
    for _ in 0..2 {
        if control.is_none() {
            *control = Client::connect(addr).ok();
            if let Some(c) = control {
                let _ = c.set_read_timeout(Some(CONTROL_TIMEOUT));
            }
        }
        let Some(c) = control.as_mut() else { continue };
        match c.engine_stats() {
            Ok(engine) => return Some(engine),
            Err(_) => *control = None,
        }
    }
    None
}

fn window_delta(before: &CacheStats, after: &CacheStats) -> StatsWindow {
    StatsWindow {
        hits: after.hits.saturating_sub(before.hits),
        misses: after.misses.saturating_sub(before.misses),
        trace_hits: after.trace_hits.saturating_sub(before.trace_hits),
        disk_hits: after.disk_hits.saturating_sub(before.disk_hits),
    }
}

/// Render the human per-phase table (the JSON lines are the machine
/// surface; this is for eyes).
pub fn human_table(phases: &[(String, PhaseSummary)], total: &PhaseSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "  {:<14} {:>8} {:>6} {:>7} {:>7} {:>5} {:>8} {:>8} {:>8} {:>8}\n",
        "phase", "offered", "ok", "retries", "late", "err", "p50 ms", "p99 ms", "succ", "hit"
    ));
    let mut row = |name: &str, s: &PhaseSummary| {
        let hit = match s.window.as_ref().and_then(StatsWindow::hit_rate) {
            Some(h) => format!("{h:.3}"),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "  {:<14} {:>8} {:>6} {:>7} {:>7} {:>5} {:>8.2} {:>8.2} {:>8.3} {:>8}\n",
            name,
            s.offered,
            s.ok,
            s.retries,
            s.late_sends,
            s.timed_out + s.overloaded + s.errors,
            s.p_ms(50.0),
            s.p_ms(99.0),
            s.success_rate(),
            hit,
        ));
    };
    for (name, s) in phases {
        row(name, s);
    }
    row("(all)", total);
    out
}
