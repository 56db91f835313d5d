//! Crash-consistency torture harness: the one real-process conformance
//! check of the shard fleet (DESIGN.md §11, "The harness and `torture`").
//!
//! Runs N seeded *schedules*. Each schedule derives from its seed a victim
//! shard and one of four ways for it to die ([`mode_of_seed`]), boots a
//! fresh fleet ([`FleetGuard`]), replays the CI smoke traffic through the
//! router, and gates three invariants:
//!
//! 1. **Byte-identity** — every work-plane reply, across every pass and
//!    every death, is byte-identical to a standalone server's answer
//!    (which the loopback tests pin to `Bench::run`);
//! 2. **Disk integrity** — a killed-and-respawned shard warm-starts from
//!    its persistent tier: recovered entries serve, damage surfaces as
//!    *structured cold starts*, and no reply is ever served from a torn
//!    record (a torn record changing an answer would break gate 1);
//! 3. **Convergence** — the fleet ends every schedule in a settled
//!    state: the victim back alive (`crash`, `kill`), untouched
//!    (`error`), or permanently evicted by the restart circuit (`flap`)
//!    with the ring routing around it.
//!
//! `crash`, `error` and `flap` schedules plant a [`FailPlan`] into the
//! victim through `REVEL_FAILPOINTS` (a one-shot `abort`, an injected
//! `io::Error`, an `abort` on every reply of every respawn). A `kill`
//! plants nothing: it has the router SIGKILL the victim mid-replay and
//! then proves the warm restart on a probe cell only the victim's disk
//! ever held.
//!
//! ```text
//! torture --port 7481 --shards 3 --schedules 8 --seed 1 \
//!         --replay crates/serve/ci/smoke.jsonl --summary /tmp/torture.sum
//! ```
//!
//! The per-schedule summary lines contain only facts that are pure
//! functions of the seed (victim, plan, mode), so two runs with the same
//! seed produce identical summaries — CI diffs them. Timing-dependent
//! diagnostics (observed restarts, cold-start counts) go to stderr.
//! Exits 0 when every gate passes, 1 otherwise — in both cases after the
//! fleet guard has reaped the schedule's shard processes.

use revel_core::isa::Rng;
use revel_failpoint::{Action, FailPlan};
use revel_serve::client::Client;
use revel_serve::fleet::{FleetConfig, ShardFailpoints};
use revel_serve::harness::{self, wait_for, FleetGuard};
use revel_serve::protocol::{Request, Response};
use revel_serve::server::ServerConfig;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

/// Crash-plan sites: places where a hard abort models power loss at a
/// particularly unkind instruction.
const CRASH_SITES: &[&str] = &[
    "persist.append.mid-write",
    "persist.append.before-flush",
    "serve.reply.pre-write",
    "engine.serve.disk-lookup",
];

/// Error-plan sites: places where an injected `io::Error` must degrade
/// persistence without touching the answer (appends are best-effort).
const EIO_SITES: &[&str] = &["persist.append.before-write", "persist.append.before-flush"];

/// Flap-plan site: aborting *every* reply (probe replies included) makes
/// the victim die on every respawn, which must trip the restart circuit.
const FLAP_SITE: &str = "serve.reply.pre-write";

/// How long a schedule waits for fleet state transitions (boot, respawn,
/// eviction) before declaring the invariant violated.
const SETTLE: Duration = Duration::from_secs(60);

/// Passes a `kill` schedule replays while the SIGKILL lands (it is sent
/// when the first of them completes): enough traffic that the dead
/// shard's keys demonstrably fail over and the respawned shard is hit.
const KILL_PASSES: usize = 6;

/// The two draws of a seed's victim stream (independent of the plan's):
/// the first picks the victim shard, the second decides a `kill` schedule.
fn victim_draws(seed: u64) -> (u64, u64) {
    let mut rng = Rng::seed_from_u64(seed ^ 0xd6e8_feb8_6659_fd93);
    (rng.next_u64(), rng.next_u64())
}

/// How a seed's victim dies — and so the state its fleet must converge
/// to — with the failpoint plan that does it (none for a `kill`). A pure
/// function of the seed, so it is safe in the deterministic summary. One
/// seed in four is a `kill`; the rest take the class of their plan: `flap`
/// must end evicted, `error` must be survived without a restart, `crash`
/// must end converged with every shard alive (the abort fires at most
/// once — whether its site collects enough hits to fire at all can depend
/// on ring placement, so the gate is convergence, not a restart count).
fn mode_of_seed(seed: u64) -> (&'static str, Option<FailPlan>) {
    if victim_draws(seed).1.is_multiple_of(4) {
        return ("kill", None);
    }
    let plan = FailPlan::from_seed(seed, CRASH_SITES, EIO_SITES, FLAP_SITE);
    let mode = match (&plan.action, plan.every_hit) {
        (Action::Abort, true) => "flap",
        (Action::InjectError, _) => "error",
        _ => "crash",
    };
    (mode, Some(plan))
}

struct Args {
    port: u16,
    shards: usize,
    schedules: u64,
    seed: u64,
    max_restarts: u32,
    replay: String,
    summary: Option<PathBuf>,
    serve_bin: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut a = Args {
        port: 7481,
        shards: 2,
        schedules: 32,
        seed: 1,
        max_restarts: 2,
        replay: "crates/serve/ci/smoke.jsonl".to_string(),
        summary: None,
        serve_bin: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val =
            |name: &str| args.next().unwrap_or_else(|| usage(&format!("{name} needs a value")));
        match flag.as_str() {
            "--port" => a.port = parse(&val("--port"), "--port"),
            "--shards" => a.shards = parse(&val("--shards"), "--shards"),
            "--schedules" => a.schedules = parse(&val("--schedules"), "--schedules"),
            "--seed" => a.seed = parse(&val("--seed"), "--seed"),
            "--max-restarts" => a.max_restarts = parse(&val("--max-restarts"), "--max-restarts"),
            "--replay" => a.replay = val("--replay"),
            "--summary" => a.summary = Some(PathBuf::from(val("--summary"))),
            "--serve-bin" => a.serve_bin = Some(PathBuf::from(val("--serve-bin"))),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    if a.shards < 2 {
        usage("--shards needs at least 2 (a fleet of one cannot fail over)");
    }
    a
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| usage(&format!("bad value '{s}' for {flag}")))
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("torture: {err}");
    }
    eprintln!(
        "usage: torture [--port P] [--shards N] [--schedules N] [--seed S] [--max-restarts N] \
         [--replay FILE] [--summary FILE] [--serve-bin PATH]"
    );
    std::process::exit(2);
}

/// A gate: `Err` names the invariant that broke. Failures travel up to
/// `main` as values, so every guard on the way drops (and reaps) first.
fn gate(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

/// The replayed traffic and its ground truth.
struct Replay {
    frames: Vec<String>,
    work_ids: Vec<u64>,
    /// `id -> encoded frame` from a standalone server.
    reference: HashMap<u64, String>,
}

impl Replay {
    /// One pass against `addr`; gates every work-plane reply
    /// byte-identical to the reference.
    fn pass(&self, addr: &str, what: &str) -> Result<(), String> {
        let got = harness::replay_pass(addr, &self.frames)
            .map_err(|e| format!("{what} replay against {addr} failed: {e}"))?;
        gate(
            self.work_ids.iter().all(|id| got.get(id) == self.reference.get(id)),
            &format!("{what} replay byte-identical to the standalone server"),
        )
    }
}

/// Has the router SIGKILL `victim` — `kill_shard` over the wire, the path
/// scenario events take — once the first pass of a multi-pass replay is
/// through; every frame of every pass must still be answered
/// byte-identically (failover re-simulates).
fn kill_mid_replay(router: &str, replay: &Replay, victim: u64) -> Result<(), String> {
    let mut control = Client::connect(router).map_err(|e| format!("connect {router}: {e}"))?;
    std::thread::scope(|s| {
        let (pass_done, passes) = mpsc::channel();
        let replayer = s.spawn(move || {
            (0..KILL_PASSES).try_for_each(|_| {
                replay.pass(router, "across-the-kill")?;
                let _ = pass_done.send(());
                Ok::<(), String>(())
            })
        });
        // A replayer whose first pass failed hangs up instead, and its
        // error is the one to report.
        if passes.recv().is_ok() {
            let killed = control.request(&Request::KillShard {
                shard: Some(victim),
                bench: None,
                params: None,
                arch: None,
                wipe_snapshot: false,
            });
            let expected = Response::ShardKilled { shard: victim, wiped: false };
            gate(
                killed.as_ref().ok() == Some(&expected),
                &format!("router answered kill_shard with shard_killed (got {killed:?})"),
            )?;
        }
        replayer.join().expect("replay thread")
    })
}

/// One torture schedule: fresh fleet, one victim, replay, gates. Returns
/// the deterministic summary line.
fn run_schedule(
    args: &Args,
    idx: u64,
    replay: &Replay,
    serve_bin: &Path,
) -> Result<String, String> {
    let seed = args.seed.wrapping_add(idx);
    let (mode, plan) = mode_of_seed(seed);
    let plan_text = plan.as_ref().map_or("kill_shard".to_string(), FailPlan::spec);
    let victim = (victim_draws(seed).0 % args.shards as u64) as usize;
    let base_port = args.port + (idx as u16) * (args.shards as u16 + 1);
    let snapshot_dir =
        std::env::temp_dir().join(format!("revel-torture-{}-{idx}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snapshot_dir);

    eprintln!(
        "torture: schedule {idx}: seed {seed}, victim shard {victim}, plan '{plan_text}' ({mode}), \
         ports {base_port}..{}",
        base_port + args.shards as u16
    );

    let fleet_cfg = FleetConfig {
        snapshot_dir: Some(snapshot_dir.clone()),
        max_restarts: args.max_restarts,
        failpoints: plan.as_ref().map(|plan| ShardFailpoints {
            shard: victim,
            spec: plan.spec(),
            every_spawn: plan.every_hit,
        }),
        ..FleetConfig::new(args.shards, base_port, serve_bin.to_path_buf())
    };
    let router_cfg =
        ServerConfig { addr: format!("127.0.0.1:{base_port}"), ..harness::loopback(4, 64) };
    let guard = FleetGuard::start(fleet_cfg, &router_cfg)
        .map_err(|e| format!("boot fleet on port {base_port}: {e}"))?;
    let fleet = guard.fleet();
    let connect = |addr: &str| Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"));
    let victim_addr = fleet.shard_addr(victim).expect("victim is in the roster");

    // A flap victim dies on its first probe reply, every spawn — it can
    // never be part of the healthy set.
    let expect_up = if mode == "flap" { args.shards - 1 } else { args.shards };
    gate(
        fleet.wait_alive(expect_up, SETTLE),
        &format!("{expect_up} shard(s) probed healthy at boot"),
    )?;

    // Invariant 1, passes A (cold) and B: byte-identity to the standalone
    // reference across whatever the mode does mid-replay.
    replay.pass(guard.addr(), "cold")?;
    // A `kill` schedule first seeds a probe cell onto the victim's disk: a
    // cell the replay never references, sent directly to the shard
    // (bypassing the router). After the respawn nothing can have
    // pre-loaded it into the memory cache, so probing it isolates the
    // disk tier.
    let probe = Request::simulate("fft", "n=64", "dataflow");
    let seeded = if mode == "kill" {
        let resp = connect(victim_addr)?.request(&probe).map_err(|e| format!("seed: {e}"))?;
        gate(matches!(resp, Response::Result { .. }), "probe cell seeded onto the victim")?;
        kill_mid_replay(guard.addr(), replay, victim as u64)?;
        Some(resp)
    } else {
        replay.pass(guard.addr(), "warm")?;
        None
    };

    // Invariant 3: the fleet settles into the mode's terminal state.
    match mode {
        "flap" => {
            gate(
                wait_for(SETTLE, || fleet.is_evicted(victim)),
                "flapping victim permanently evicted by the restart circuit",
            )?;
            let roster = fleet.roster();
            gate(roster[victim].evicted, "roster reports the victim evicted")?;
            gate(
                roster[victim].restarts == u64::from(args.max_restarts),
                "the circuit opened after exactly max_restarts respawns",
            )?;
        }
        "error" => {
            // An injected io::Error must never kill anything: appends are
            // best-effort, lookups degrade to a miss.
            gate(fleet.is_alive(victim), "error-plan victim still alive")?;
            gate(!fleet.is_evicted(victim), "error-plan victim not evicted")?;
            gate(fleet.restarts(victim) == 0, "error-plan victim survived without a restart")?;
        }
        "kill" => {
            gate(wait_for(SETTLE, || fleet.is_alive(victim)), "killed victim respawned")?;
            gate(fleet.restarts(victim) == 1, "one supervised kill, exactly one respawn")?;
            // (`failed` stays 0 on a supervised kill — the supervisor marks
            // the victim down before the router can trip over it.)
            match connect(guard.addr())?.request(&Request::FleetStats) {
                Ok(Response::FleetStats { shards }) => {
                    gate(shards.len() == args.shards, "fleet_stats reports the full roster")?;
                    gate(shards.iter().all(|s| s.alive), "fleet_stats reports every shard alive")?;
                    gate(shards.iter().all(|s| s.routed > 0), "every shard carried traffic")?;
                }
                other => return Err(format!("fleet_stats got {other:?}")),
            }
        }
        _ => {
            // Crash plans: the abort fires at most once, so the victim
            // (whether or not its site collected enough hits to die)
            // must end alive, un-evicted, with at most one restart.
            gate(
                wait_for(SETTLE, || fleet.is_alive(victim)),
                "crash-plan victim alive after the schedule",
            )?;
            gate(!fleet.is_evicted(victim), "crash-plan victim not evicted")?;
            gate(fleet.restarts(victim) <= 1, "a one-shot abort respawns at most once")?;
        }
    }

    // Invariant 2: when the victim actually died and came back, its disk
    // tier must be serving sane state — recovered entries and structured
    // cold starts only. Gate 1's pass C (below) proves no torn record
    // ever changes an answer; here we prove the tier itself reopened, and
    // for a `kill` that it — not a simulation — answers the probe cell.
    let restarts = fleet.restarts(victim);
    if mode != "flap" && restarts > 0 {
        let mut direct = connect(victim_addr)?;
        let before = direct.engine_stats().map_err(|e| format!("victim stats: {e}"))?;
        eprintln!(
            "torture: schedule {idx}: victim respawned ({restarts} restart(s)); disk \
             tier: {} warm entr{}, {} cold start(s)",
            before.warm_start_entries,
            if before.warm_start_entries == 1 { "y" } else { "ies" },
            before.disk_cold_starts
        );
        if let Some(seeded) = seeded {
            gate(before.warm_start_entries > 0, "respawned victim recovered entries from disk")?;
            let again = direct.request(&probe).map_err(|e| format!("probe: {e}"))?;
            gate(again == seeded, "disk-served probe byte-identical to the pre-kill answer")?;
            let after = direct.engine_stats().map_err(|e| format!("victim stats: {e}"))?;
            gate(after.disk_hits == before.disk_hits + 1, "probe served from disk (disk_hits +1)")?;
            gate(after.misses == before.misses, "probe ran no simulation (misses +0)")?;
        }
    } else {
        eprintln!("torture: schedule {idx}: victim restarts observed: {restarts}");
    }

    // Pass C: after convergence, the settled fleet (respawned victim,
    // warm disk tiers, or reduced ring) still answers byte-identically.
    replay.pass(guard.addr(), "settled")?;

    // Teardown: drain the router, reap the shards, drop the schedule's
    // disk state.
    guard.shutdown();
    let _ = std::fs::remove_dir_all(&snapshot_dir);

    Ok(format!(
        "torture: schedule={idx} seed={seed} victim={victim} mode={mode} plan={plan_text} \
         shards={} max_restarts={} outcome=ok",
        args.shards, args.max_restarts
    ))
}

fn run(args: &Args) -> Result<(), String> {
    let (frames, work_ids) = harness::load_frames(Path::new(&args.replay))
        .map_err(|e| format!("cannot load {}: {e}", args.replay))?;
    if work_ids.is_empty() {
        return Err(format!("{} holds no work-plane frames", args.replay));
    }
    let serve_bin = args.serve_bin.clone().unwrap_or_else(|| {
        let mut p = std::env::current_exe().expect("own path");
        p.set_file_name("revel_serve");
        p
    });
    // Ground truth once: the pre-fleet serving path every schedule must
    // match byte for byte.
    let reference =
        harness::reference_answers(&frames).map_err(|e| format!("standalone reference: {e}"))?;
    let replay = Replay { frames, work_ids, reference };

    let mut summary = Vec::with_capacity(args.schedules as usize);
    for idx in 0..args.schedules {
        let line = run_schedule(args, idx, &replay, &serve_bin)
            .map_err(|e| format!("GATE FAILED (schedule {idx}): {e}"))?;
        summary.push(line);
    }

    for line in &summary {
        println!("{line}");
    }
    if let Some(path) = &args.summary {
        std::fs::write(path, summary.join("\n") + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!(
        "torture: PASS — {} schedule(s), {} shard(s) each, zero invariant violations",
        args.schedules, args.shards
    );
    Ok(())
}

fn main() {
    let args = parse_args();
    // `run` has returned — and dropped every guard — before the exit.
    if let Err(e) = run(&args) {
        eprintln!("torture: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_seeds_cover_all_four_modes() {
        // Pinned, not just covered: CI diffs summaries that embed these.
        let modes: Vec<&str> = (1..=8).map(|seed| mode_of_seed(seed).0).collect();
        assert_eq!(modes, ["error", "crash", "crash", "error", "flap", "error", "error", "kill"]);
    }
}
