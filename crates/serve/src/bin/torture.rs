//! Failpoint-driven crash-consistency torture harness (DESIGN.md §17).
//!
//! Runs N seeded *schedules*. Each schedule derives a fault plan from its
//! seed ([`revel_failpoint::FailPlan`]), plants it into one victim shard
//! of a fresh fleet via `REVEL_FAILPOINTS`, replays the CI smoke traffic
//! through the router, and gates three invariants:
//!
//! 1. **Byte-identity** — every work-plane reply, across every pass and
//!    every crash, is byte-identical to a standalone server's answer
//!    (which the differential gate pins to `Bench::run`);
//! 2. **Disk integrity** — a crashed-and-respawned shard warm-starts
//!    from its persistent tier: recovered entries serve, damage surfaces
//!    as *structured cold starts*, and no reply is ever served from a
//!    torn record (a torn record changing an answer would break gate 1);
//! 3. **Convergence** — the fleet ends every schedule in a settled
//!    state: the victim back alive (crash plans), untouched (error
//!    plans), or permanently evicted by the restart circuit (flap
//!    plans) with the ring routing around it.
//!
//! ```text
//! torture --port 7481 --shards 2 --schedules 32 --seed 1 \
//!         --replay crates/serve/ci/smoke.jsonl --summary /tmp/torture.sum
//! ```
//!
//! The per-schedule summary lines contain only facts that are pure
//! functions of the seed (victim, plan, mode), so two runs with the same
//! seed produce identical summaries — CI diffs them. Timing-dependent
//! diagnostics (observed restarts, cold-start counts) go to stderr.
//! Exits 0 when every gate passes, 1 otherwise.

use revel_core::isa::Rng;
use revel_failpoint::{Action, FailPlan};
use revel_serve::client::Client;
use revel_serve::fleet::{Fleet, FleetConfig, ShardFailpoints, Supervisor};
use revel_serve::protocol::{decode_request, encode_response, read_all_frames, Request, Response};
use revel_serve::server::{Server, ServerConfig};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// The running supervisor, stashed so a failed gate can reap the shard
/// fleet before exiting instead of leaking processes onto the ports.
static SUPERVISOR: std::sync::Mutex<Option<Supervisor>> = std::sync::Mutex::new(None);

fn teardown_and_exit(code: i32) -> ! {
    let sup = SUPERVISOR.lock().ok().and_then(|mut slot| slot.take());
    if let Some(sup) = sup {
        sup.shutdown();
    }
    std::process::exit(code)
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

fn gate(cond: bool, schedule: u64, what: &str) {
    if !cond {
        eprintln!("torture: GATE FAILED (schedule {schedule}): {what}");
        teardown_and_exit(1);
    }
}

fn fatal(msg: &str) -> ! {
    eprintln!("torture: {msg}");
    teardown_and_exit(1);
}

/// One pass over `frames` against `addr`, each driven to its terminal
/// answer (through overload and the `fleet_unavailable` of a crash
/// window); returns `id -> encoded response frame`.
fn replay_pass(addr: &str, frames: &[String]) -> HashMap<u64, String> {
    let mut client =
        Client::connect(addr).unwrap_or_else(|e| fatal(&format!("connect {addr}: {e}")));
    frames
        .iter()
        .map(|frame| {
            let (id, resp) = client
                .request_raw_until_terminal(frame)
                .unwrap_or_else(|e| fatal(&format!("replay frame failed against {addr}: {e}")));
            (id, encode_response(id, &resp))
        })
        .collect()
}

fn wait_for(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let until = Instant::now() + deadline;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= until {
            return false;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Expected terminal class of a plan — a pure function of the plan, so
/// it is safe to put in the deterministic summary. `flap` plans must end
/// evicted; `error` plans must be survived without a restart; `crash`
/// plans must end converged with every shard alive (the abort fires at
/// most once — whether its site collects enough hits to fire at all can
/// depend on ring placement, so the gate is convergence, not a restart
/// count).
fn mode_of(plan: &FailPlan) -> &'static str {
    match (&plan.action, plan.every_hit) {
        (Action::Abort, true) => "flap",
        (Action::InjectError, _) => "error",
        _ => "crash",
    }
}

/// One torture schedule: fresh fleet, one armed victim, replay, gates.
/// Returns the deterministic summary line.
#[allow(clippy::too_many_arguments)]
fn run_schedule(
    args: &Args,
    idx: u64,
    frames: &[String],
    work_ids: &[u64],
    reference: &HashMap<u64, String>,
    serve_bin: &std::path::Path,
) -> String {
    let seed = args.seed.wrapping_add(idx);
    let plan = FailPlan::from_seed(seed, CRASH_SITES, EIO_SITES, FLAP_SITE);
    let mode = mode_of(&plan);
    // The victim comes from its own stream, independent of the plan's.
    let victim =
        (Rng::seed_from_u64(seed ^ 0xd6e8_feb8_6659_fd93).next_u64() % args.shards as u64) as usize;
    let base_port = args.port + (idx as u16) * (args.shards as u16 + 1);
    let snapshot_dir =
        std::env::temp_dir().join(format!("revel-torture-{}-{idx}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snapshot_dir);

    eprintln!(
        "torture: schedule {idx}: seed {seed}, victim shard {victim}, plan '{}' ({mode}), \
         ports {base_port}..{}",
        plan.spec(),
        base_port + args.shards as u16
    );

    let fleet_cfg = FleetConfig {
        shards: args.shards,
        host: "127.0.0.1".to_string(),
        base_port,
        workers: 2,
        queue_capacity: 32,
        snapshot_dir: Some(snapshot_dir.clone()),
        cache_capacity: None,
        max_restarts: args.max_restarts,
        failpoints: Some(ShardFailpoints {
            shard: victim,
            spec: plan.spec(),
            every_spawn: plan.every_hit,
        }),
        binary: serve_bin.to_path_buf(),
    };
    let mut router = Server::bind(&ServerConfig {
        addr: format!("127.0.0.1:{base_port}"),
        workers: 4,
        queue_capacity: 64,
        ..Default::default()
    })
    .unwrap_or_else(|e| fatal(&format!("bind router on port {base_port}: {e}")));
    let fleet = Arc::new(Fleet::new(&fleet_cfg.host, &fleet_cfg.shard_ports()));
    let supervisor = Supervisor::start(Arc::clone(&fleet), fleet_cfg)
        .unwrap_or_else(|e| fatal(&format!("spawn shards: {e}")));
    *SUPERVISOR.lock().expect("supervisor slot") = Some(supervisor);
    router.set_fleet(Arc::clone(&fleet));
    let router_addr = format!("127.0.0.1:{base_port}");
    let router_thread = std::thread::spawn(move || router.serve().expect("router serves"));

    // A flap victim dies on its first probe reply, every spawn — it can
    // never be part of the healthy set.
    let expect_up = if mode == "flap" { args.shards - 1 } else { args.shards };
    gate(
        fleet.wait_alive(expect_up, SETTLE),
        idx,
        &format!("{expect_up} shard(s) probed healthy at boot"),
    );

    // Invariant 1, passes A (cold) and B (warm): byte-identity to the
    // standalone reference across whatever the plan does mid-replay.
    for pass in ["cold", "warm"] {
        let got = replay_pass(&router_addr, frames);
        gate(
            work_ids.iter().all(|id| got.get(id) == reference.get(id)),
            idx,
            &format!("{pass} replay byte-identical to the standalone server"),
        );
    }

    // Invariant 3: the fleet settles into the mode's terminal state.
    match mode {
        "flap" => {
            gate(
                wait_for(SETTLE, || fleet.is_evicted(victim)),
                idx,
                "flapping victim permanently evicted by the restart circuit",
            );
            let roster = fleet.roster();
            gate(roster[victim].evicted, idx, "roster reports the victim evicted");
            gate(
                roster[victim].restarts == u64::from(args.max_restarts),
                idx,
                "the circuit opened after exactly max_restarts respawns",
            );
        }
        "error" => {
            // An injected io::Error must never kill anything: appends are
            // best-effort, lookups degrade to a miss.
            gate(fleet.is_alive(victim), idx, "error-plan victim still alive");
            gate(!fleet.is_evicted(victim), idx, "error-plan victim not evicted");
            gate(fleet.restarts(victim) == 0, idx, "error-plan victim survived without a restart");
        }
        _ => {
            // Crash plans: the abort fires at most once, so the victim
            // (whether or not its site collected enough hits to die)
            // must end alive, un-evicted, with at most one restart.
            gate(
                wait_for(SETTLE, || fleet.is_alive(victim)),
                idx,
                "crash-plan victim alive after the schedule",
            );
            gate(!fleet.is_evicted(victim), idx, "crash-plan victim not evicted");
            gate(fleet.restarts(victim) <= 1, idx, "a one-shot abort respawns at most once");
        }
    }

    // Invariant 2: when the victim actually died and came back, its disk
    // tier must be serving sane state — recovered entries and structured
    // cold starts only. Gate 1's pass C (below) proves no torn record
    // ever changes an answer; here we prove the tier itself reopened.
    let restarts = fleet.restarts(victim);
    if mode != "flap" && restarts > 0 {
        let shard_addr = format!("127.0.0.1:{}", fleet.shard_port(victim).expect("victim port"));
        let mut direct = Client::connect(&shard_addr)
            .unwrap_or_else(|e| fatal(&format!("connect respawned victim: {e}")));
        match direct.request(&Request::Stats) {
            Ok(Response::Stats { engine, .. }) => {
                eprintln!(
                    "torture: schedule {idx}: victim respawned ({restarts} restart(s)); disk \
                     tier: {} warm entr{}, {} cold start(s)",
                    engine.warm_start_entries,
                    if engine.warm_start_entries == 1 { "y" } else { "ies" },
                    engine.disk_cold_starts
                );
            }
            other => gate(false, idx, &format!("respawned victim answers stats (got {other:?})")),
        }
    } else {
        eprintln!("torture: schedule {idx}: victim restarts observed: {restarts}");
    }

    // Pass C: after convergence, the settled fleet (respawned victim,
    // warm disk tiers, or reduced ring) still answers byte-identically.
    let settled = replay_pass(&router_addr, frames);
    gate(
        work_ids.iter().all(|id| settled.get(id) == reference.get(id)),
        idx,
        "settled replay byte-identical to the standalone server",
    );

    // Teardown: drain the router, reap the shards, drop the schedule's
    // disk state.
    let mut control =
        Client::connect(&router_addr).unwrap_or_else(|e| fatal(&format!("connect router: {e}")));
    let _ = control.request(&Request::Shutdown);
    router_thread.join().expect("router thread");
    if let Some(sup) = SUPERVISOR.lock().expect("supervisor slot").take() {
        sup.shutdown();
    }
    let _ = std::fs::remove_dir_all(&snapshot_dir);

    format!(
        "torture: schedule={idx} seed={seed} victim={victim} mode={mode} plan={} \
         shards={} max_restarts={} outcome=ok",
        plan.spec(),
        args.shards,
        args.max_restarts
    )
}

fn main() {
    let args = parse_args();
    let frames = {
        let file = std::fs::File::open(&args.replay)
            .unwrap_or_else(|e| fatal(&format!("cannot open {}: {e}", args.replay)));
        read_all_frames(std::io::BufReader::new(file)).unwrap_or_else(|e| fatal(&e.to_string()))
    };
    let decoded: Vec<(u64, Request)> = frames
        .iter()
        .map(|f| decode_request(f).unwrap_or_else(|e| fatal(&format!("bad replay frame: {e}"))))
        .collect();
    let work_ids: Vec<u64> =
        decoded.iter().filter(|(_, r)| r.is_work_plane()).map(|(id, _)| *id).collect();
    if work_ids.is_empty() {
        fatal("replay file holds no work-plane frames");
    }
    let serve_bin = args.serve_bin.clone().unwrap_or_else(|| {
        let mut p = std::env::current_exe().expect("own path");
        p.set_file_name("revel_serve");
        p
    });

    // Ground truth once: a standalone in-process server, the pre-fleet
    // serving path every schedule must match byte for byte.
    let standalone = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 32,
        ..Default::default()
    })
    .unwrap_or_else(|e| fatal(&format!("bind standalone: {e}")));
    let standalone_addr = standalone.local_addr().expect("local addr").to_string();
    let standalone_thread =
        std::thread::spawn(move || standalone.serve().expect("standalone serves"));
    let reference = replay_pass(&standalone_addr, &frames);
    let mut c = Client::connect(&standalone_addr).expect("connect for shutdown");
    let _ = c.request(&Request::Shutdown);
    standalone_thread.join().expect("standalone thread");

    let mut summary = Vec::with_capacity(args.schedules as usize);
    for idx in 0..args.schedules {
        summary.push(run_schedule(&args, idx, &frames, &work_ids, &reference, &serve_bin));
    }

    for line in &summary {
        println!("{line}");
    }
    if let Some(path) = &args.summary {
        std::fs::write(path, summary.join("\n") + "\n")
            .unwrap_or_else(|e| fatal(&format!("write {}: {e}", path.display())));
    }
    println!(
        "torture: PASS — {} schedule(s), {} shard(s) each, zero invariant violations",
        args.schedules, args.shards
    );
}
