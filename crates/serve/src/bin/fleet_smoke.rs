//! Fleet smoke harness: boots a shard fleet, replays the CI smoke frames
//! through it, and proves the scale-out tier's acceptance criteria live:
//!
//! 1. **Byte-identity** — every work-plane response through the fleet is
//!    byte-identical to a standalone (pre-fleet) server's answer;
//! 2. **Warm gates** — a warm replay meets the hit-rate and p99 floors;
//! 3. **Kill tolerance** — SIGKILLing a shard mid-replay loses nothing:
//!    every frame is still answered, still byte-identical (failover
//!    re-simulates deterministically);
//! 4. **Warm restart** — the respawned shard reports recovered entries
//!    (`warm_start_entries > 0`) and answers its first request from the
//!    persistent tier (`disk_hits` moves, `misses` does not) before any
//!    simulation completes.
//!
//! ```text
//! fleet_smoke --port 7471 --shards 3 --replay crates/serve/ci/smoke.jsonl
//! ```
//!
//! Exits 0 when every gate passes, 1 with a `GATE FAILED` line otherwise.
//! The router runs in-process (so the harness can SIGKILL a shard through
//! the supervisor); the shards are real `revel_serve` processes.

use revel_serve::client::Client;
use revel_serve::fleet::placement::Ring;
use revel_serve::fleet::router::route_fingerprint;
use revel_serve::fleet::{Fleet, FleetConfig, Supervisor};
use revel_serve::protocol::{
    decode_request, encode_response, read_all_frames, EngineStatsWire, Request, Response,
};
use revel_serve::server::{Server, ServerConfig};
use revel_traffic::report::percentile_us;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Passes replayed while a shard is killed: enough traffic that the dead
/// shard's keys demonstrably fail over and the respawned shard is hit.
const KILL_PASSES: usize = 6;

/// The running supervisor, stashed so that a failed gate can reap the
/// shard fleet before exiting. Without this a failing CI run would leave
/// orphan shard processes squatting on the smoke ports (and holding the
/// job's stderr pipe open).
static SUPERVISOR: std::sync::Mutex<Option<Supervisor>> = std::sync::Mutex::new(None);

/// Tears the fleet down (if one is running) and exits with `code`.
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
    replay: String,
    snapshot_dir: Option<PathBuf>,
    serve_bin: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut a = Args {
        port: 7471,
        shards: 3,
        replay: "crates/serve/ci/smoke.jsonl".to_string(),
        snapshot_dir: None,
        serve_bin: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val =
            |name: &str| args.next().unwrap_or_else(|| usage(&format!("{name} needs a value")));
        match flag.as_str() {
            "--port" => a.port = parse(&val("--port"), "--port"),
            "--shards" => a.shards = parse(&val("--shards"), "--shards"),
            "--replay" => a.replay = val("--replay"),
            "--snapshot-dir" => a.snapshot_dir = Some(PathBuf::from(val("--snapshot-dir"))),
            "--serve-bin" => a.serve_bin = Some(PathBuf::from(val("--serve-bin"))),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    if a.shards < 2 {
        usage("--shards needs at least 2 (killing the only shard proves nothing)");
    }
    a
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| usage(&format!("bad value '{s}' for {flag}")))
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("fleet-smoke: {err}");
    }
    eprintln!(
        "usage: fleet_smoke [--port P] [--shards N] [--replay FILE] [--snapshot-dir DIR] \
         [--serve-bin PATH]"
    );
    std::process::exit(2);
}

fn gate(cond: bool, what: &str) {
    if cond {
        println!("fleet-smoke: ok — {what}");
    } else {
        eprintln!("fleet-smoke: GATE FAILED: {what}");
        teardown_and_exit(1);
    }
}

fn fatal(msg: &str) -> ! {
    eprintln!("fleet-smoke: {msg}");
    teardown_and_exit(1);
}

/// One pass over `frames`, each driven to its terminal answer; returns
/// `id -> encoded response frame` and pushes each frame's latency (µs,
/// retries included) onto `latencies_us`.
fn replay_pass(
    addr: &str,
    frames: &[String],
    mut latencies_us: Option<&mut Vec<u64>>,
) -> HashMap<u64, String> {
    let mut out = HashMap::new();
    let mut client =
        Client::connect(addr).unwrap_or_else(|e| fatal(&format!("connect {addr}: {e}")));
    for frame in frames {
        let t0 = Instant::now();
        let (id, resp) = client
            .request_raw_until_terminal(frame)
            .unwrap_or_else(|e| fatal(&format!("replay frame failed against {addr}: {e}")));
        if let Some(lat) = latencies_us.as_deref_mut() {
            lat.push(t0.elapsed().as_micros() as u64);
        }
        out.insert(id, encode_response(id, &resp));
    }
    out
}

fn engine_stats(client: &mut Client) -> EngineStatsWire {
    match client.request(&Request::Stats) {
        Ok(Response::Stats { engine, .. }) => engine,
        other => fatal(&format!("stats request got {other:?}")),
    }
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
    gate(!work_ids.is_empty(), "replay file holds work-plane frames");

    // Ground truth: a standalone in-process server (the pre-fleet serving
    // path), same frames, same process-wide deterministic simulator.
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
    let reference = replay_pass(&standalone_addr, &frames, None);
    let mut c = Client::connect(&standalone_addr).expect("connect for shutdown");
    let _ = c.request(&Request::Shutdown);
    standalone_thread.join().expect("standalone thread");

    // The fleet: in-process router, shard processes, persistent tier.
    let snapshot_dir = args.snapshot_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("revel-fleet-smoke-{}", std::process::id()))
    });
    let serve_bin = args.serve_bin.clone().unwrap_or_else(|| {
        let mut p = std::env::current_exe().expect("own path");
        p.set_file_name("revel_serve");
        p
    });
    let fleet_cfg = FleetConfig {
        shards: args.shards,
        host: "127.0.0.1".to_string(),
        base_port: args.port,
        workers: 2,
        queue_capacity: 32,
        snapshot_dir: Some(snapshot_dir.clone()),
        cache_capacity: None,
        max_restarts: revel_serve::fleet::DEFAULT_MAX_RESTARTS,
        failpoints: None,
        binary: serve_bin,
    };
    let mut router = Server::bind(&ServerConfig {
        addr: format!("127.0.0.1:{}", args.port),
        workers: 4,
        queue_capacity: 64,
        ..Default::default()
    })
    .unwrap_or_else(|e| fatal(&format!("bind router on port {}: {e}", args.port)));
    let fleet = Arc::new(Fleet::new(&fleet_cfg.host, &fleet_cfg.shard_ports()));
    let supervisor = Supervisor::start(Arc::clone(&fleet), fleet_cfg)
        .unwrap_or_else(|e| fatal(&format!("spawn shards: {e}")));
    *SUPERVISOR.lock().expect("supervisor slot") = Some(supervisor);
    router.set_fleet(Arc::clone(&fleet));
    let router_addr = format!("127.0.0.1:{}", args.port);
    let router_thread = std::thread::spawn(move || router.serve().expect("router serves"));
    gate(fleet.wait_alive(args.shards, Duration::from_secs(20)), "all shards probed healthy");

    // Gate 1: cold replay through the fleet is byte-identical to the
    // standalone server on every work-plane frame.
    let cold = replay_pass(&router_addr, &frames, None);
    let cold_identical = work_ids.iter().all(|id| cold.get(id) == reference.get(id));
    gate(cold_identical, "cold fleet replay byte-identical to the standalone server");

    // Gate 2: warm replay hits the caches and meets the latency floor.
    let mut control =
        Client::connect(&router_addr).unwrap_or_else(|e| fatal(&format!("connect router: {e}")));
    let before = engine_stats(&mut control);
    let mut latencies = Vec::new();
    let warm = replay_pass(&router_addr, &frames, Some(&mut latencies));
    let after = engine_stats(&mut control);
    gate(
        work_ids.iter().all(|id| warm.get(id) == reference.get(id)),
        "warm fleet replay byte-identical to the standalone server",
    );
    let d_hits = after.hits.saturating_sub(before.hits);
    let d_misses = after.misses.saturating_sub(before.misses);
    let hit_rate =
        if d_hits + d_misses == 0 { 0.0 } else { d_hits as f64 / (d_hits + d_misses) as f64 };
    println!("fleet-smoke: warm window: {d_hits} hit(s), {d_misses} miss(es) (rate {hit_rate:.3})");
    gate(hit_rate >= 0.80, "warm hit rate >= 0.80");
    latencies.sort_unstable();
    let p99_us = percentile_us(&latencies, 99.0);
    println!("fleet-smoke: warm p99 {:.3}ms", p99_us as f64 / 1e3);
    gate(p99_us <= 250_000, "warm p99 <= 250ms");

    // Pick the victim: the shard that owns the replay's first cacheable
    // simulate cell (deterministic — the ring is a pure function of the
    // shard set), so the kill demonstrably displaces live keys.
    let ring = Ring::build(&(0..args.shards).collect::<Vec<_>>());
    let victim = decoded
        .iter()
        .find_map(|(_, req)| match req {
            Request::Simulate { bench, max_cycles: None, .. }
                if bench != revel_serve::probe::BENCH_NAME =>
            {
                ring.route(route_fingerprint(req)?)
            }
            _ => None,
        })
        .unwrap_or_else(|| fatal("no cacheable simulate frame in the replay file"));

    // Seed a private cell onto the victim's disk before the kill: a cell
    // the replay never references, sent directly to the shard (bypassing
    // the router). After the respawn nothing can have pre-loaded it into
    // the memory cache, so probing it isolates the disk tier.
    let probe_req = Request::Simulate {
        bench: "fft".to_string(),
        params: "n=64".to_string(),
        arch: "dataflow".to_string(),
        deadline_ms: None,
        max_cycles: None,
        reference_stepper: false,
        fault_seed: None,
        fault_count: None,
        fault_window: None,
    };
    let shard_addr =
        format!("127.0.0.1:{}", fleet.shard_port(victim).expect("victim is in the roster"));
    let mut direct =
        Client::connect(&shard_addr).unwrap_or_else(|e| fatal(&format!("connect shard: {e}")));
    let seeded = direct.request(&probe_req).unwrap_or_else(|e| fatal(&format!("seed: {e}")));
    gate(
        matches!(seeded, Response::Result { .. }),
        "probe cell seeded onto the victim's disk tier",
    );
    drop(direct);
    println!("fleet-smoke: killing shard {victim} mid-replay (SIGKILL)");

    // Gate 3: SIGKILL the victim after the first pass of a multi-pass
    // replay; every frame of every pass is still answered byte-identically.
    let passes_done = AtomicUsize::new(0);
    let kill_results: Vec<HashMap<u64, String>> = std::thread::scope(|s| {
        let replayer = s.spawn(|| {
            (0..KILL_PASSES)
                .map(|_| {
                    let r = replay_pass(&router_addr, &frames, None);
                    passes_done.fetch_add(1, Ordering::SeqCst);
                    r
                })
                .collect()
        });
        while passes_done.load(Ordering::SeqCst) < 1 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let killed = SUPERVISOR
            .lock()
            .expect("supervisor slot")
            .as_ref()
            .is_some_and(|sup| sup.kill_shard(victim, false));
        gate(killed, "victim shard had a live process to kill");
        replayer.join().expect("replay thread")
    });
    let all_identical =
        kill_results.iter().all(|pass| work_ids.iter().all(|id| pass.get(id) == reference.get(id)));
    gate(all_identical, "every frame answered byte-identically across the kill");

    // Gate 4: the victim respawns, warm-starts from disk, and serves its
    // first request from the persistent tier without simulating.
    let respawned = {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if fleet.is_alive(victim) {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    };
    gate(respawned, "killed shard respawned and probed healthy");
    let mut direct =
        Client::connect(&shard_addr).unwrap_or_else(|e| fatal(&format!("connect shard: {e}")));
    let before = engine_stats(&mut direct);
    gate(before.warm_start_entries > 0, "respawned shard recovered entries from disk");
    let resp = direct.request(&probe_req).unwrap_or_else(|e| fatal(&format!("probe: {e}")));
    gate(matches!(resp, Response::Result { .. }), "respawned shard answered the probe cell");
    gate(resp == seeded, "disk-served probe byte-identical to the pre-kill answer");
    let after = engine_stats(&mut direct);
    gate(
        after.disk_hits == before.disk_hits + 1,
        "probe was served from the disk tier (disk_hits moved)",
    );
    gate(after.misses == before.misses, "probe ran no simulation (misses unchanged)");

    // Roster sanity through the router: every shard is alive again and
    // carried traffic. (`failed` stays 0 on a supervised kill — the
    // supervisor marks the victim down before the router can trip over
    // it; the failover itself is proven by the byte-identity gate above.)
    match control.request(&Request::FleetStats) {
        Ok(Response::FleetStats { shards }) => {
            for s in &shards {
                println!(
                    "fleet-smoke: shard {} port {} alive={} routed={} failed={}",
                    s.shard, s.port, s.alive, s.routed, s.failed
                );
            }
            gate(shards.len() == args.shards, "fleet_stats reports the full roster");
            gate(shards.iter().all(|s| s.alive), "fleet_stats reports every shard alive");
            gate(shards.iter().all(|s| s.routed > 0), "every shard carried routed traffic");
        }
        other => fatal(&format!("fleet_stats got {other:?}")),
    }

    // Graceful teardown: router drains, shards drain, processes reaped.
    let _ = control.request(&Request::Shutdown);
    let stats = router_thread.join().expect("router thread");
    if let Some(sup) = SUPERVISOR.lock().expect("supervisor slot").take() {
        sup.shutdown();
    }
    println!("fleet-smoke: router final counters: {stats}");
    if args.snapshot_dir.is_none() {
        let _ = std::fs::remove_dir_all(&snapshot_dir);
    }
    println!("fleet-smoke: PASS");
}
