//! Fleet-tier integration tests: a real router in front of real
//! `revel_serve` shard processes — consistent-hash forwarding, failover
//! across a SIGKILL, warm restart from the persistent disk tier, shard
//! reaping by the fleet guard, and the `--cache-capacity` eviction gate
//! over the shipped server binary.

use revel_serve::client::Client;
use revel_serve::fleet::placement::Ring;
use revel_serve::fleet::router::route_fingerprint;
use revel_serve::fleet::FleetConfig;
use revel_serve::harness::{load_frames, loopback, wait_for, FleetGuard};
use revel_serve::protocol::{encode_response, Request, Response};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// `shards` processes of the shipped `revel_serve` binary on the ports
/// after `base_port`.
fn fleet_cfg(shards: usize, base_port: u16) -> FleetConfig {
    FleetConfig::new(shards, base_port, PathBuf::from(env!("CARGO_BIN_EXE_revel_serve")))
}

/// Boots `cfg` behind an in-process router on an ephemeral port and waits
/// for every shard to probe healthy.
fn start_fleet(cfg: FleetConfig) -> FleetGuard {
    let shards = cfg.shards;
    let guard = FleetGuard::start(cfg, &loopback(2, 8)).expect("boot fleet");
    assert!(guard.fleet().wait_alive(shards, Duration::from_secs(30)), "every shard comes up");
    guard
}

/// The full stack: a router server forwarding to two shard processes.
/// A keyed request is answered through the fleet, the roster is visible
/// over the wire, and SIGKILLing the owning shard mid-session — with a
/// `kill_shard` request to the in-process router, the path scenario
/// events take — loses nothing: the retried request is byte-identical.
#[test]
fn router_forwards_keyed_requests_and_survives_a_shard_kill() {
    let guard = start_fleet(fleet_cfg(2, 7520));
    let mut c = Client::connect(guard.addr()).expect("connect router");
    let req = Request::simulate("solver", "n=12", "revel");
    let first = c.request(&req).expect("forwarded simulate");
    assert!(matches!(first, Response::Result { verified: true, .. }), "{first:?}");

    // The roster is visible through the router, and the forwarded request
    // landed on the ring owner the placement layer predicts.
    let owner = Ring::build(&[0, 1])
        .route(route_fingerprint(&req).expect("simulate is keyed"))
        .expect("non-empty ring");
    match c.request(&Request::FleetStats).expect("fleet_stats") {
        Response::FleetStats { shards } => {
            assert_eq!(shards.len(), 2);
            assert!(shards.iter().all(|s| s.alive), "{shards:?}");
            assert!(shards[owner].routed >= 1, "owner carried the request: {shards:?}");
        }
        other => panic!("expected fleet_stats, got {other:?}"),
    }

    // SIGKILL the owner, named by the cell it owns: the survivor
    // re-simulates the cell and the answer does not change by a byte.
    let killed = c
        .request(&Request::KillShard {
            shard: None,
            bench: Some("solver".to_string()),
            params: Some("n=12".to_string()),
            arch: Some("revel".to_string()),
            wipe_snapshot: false,
        })
        .expect("kill_shard answered");
    assert_eq!(killed, Response::ShardKilled { shard: owner as u64, wiped: false });
    let second = c.request(&req).expect("failover simulate");
    assert_eq!(
        encode_response(1, &first),
        encode_response(1, &second),
        "failover must not change the answer"
    );

    // Aggregated stats still answer while a shard is down.
    let engine = c.engine_stats().expect("stats");
    assert!(engine.misses >= 1, "someone simulated the cell: {engine:?}");

    guard.shutdown();
}

/// A killed shard warm-starts from its disk tier: the respawned process
/// reports the recovered entries and answers the repeat request from disk
/// (disk_hits moves, misses does not) — byte-identical to the pre-kill
/// answer.
#[test]
fn respawned_shard_warm_starts_from_its_disk_tier() {
    let dir = std::env::temp_dir().join(format!("revel-fleet-test-{}", std::process::id()));
    let guard = start_fleet(FleetConfig { snapshot_dir: Some(dir.clone()), ..fleet_cfg(1, 7530) });
    let fleet = guard.fleet();

    let req = Request::simulate("qr", "n=12", "revel");
    let first = fleet.forward(&req);
    assert!(matches!(first, Response::Result { .. }), "{first:?}");

    assert!(guard.supervisor().kill_shard(0, false), "shard had a live process");
    assert!(
        wait_for(Duration::from_secs(30), || fleet.is_alive(0)),
        "shard respawns and probes healthy"
    );

    let mut direct =
        Client::connect(fleet.shard_addr(0).expect("shard 0 exists")).expect("connect shard");
    let before = direct.engine_stats().expect("stats");
    assert!(before.warm_start_entries >= 1, "disk tier recovered the run: {before:?}");

    let again = direct.request(&req).expect("repeat simulate");
    assert_eq!(
        encode_response(1, &first),
        encode_response(1, &again),
        "disk-served answer must match the live one"
    );
    let after = direct.engine_stats().expect("stats");
    assert_eq!(after.disk_hits, before.disk_hits + 1, "served from disk: {after:?}");
    assert_eq!(after.misses, before.misses, "no re-simulation: {after:?}");

    guard.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The guard is what keeps a failing harness from leaking processes: a
/// fleet guard dropped without `shutdown` (a gate failed, a test
/// panicked) still reaps its shards — nothing is left listening on a
/// shard port.
#[test]
fn dropping_a_fleet_guard_reaps_its_shards() {
    let guard = start_fleet(fleet_cfg(2, 7570));
    let shard_addrs: Vec<String> =
        (0..2).map(|id| guard.fleet().shard_addr(id).expect("in the roster").to_string()).collect();
    for addr in &shard_addrs {
        assert!(Client::connect(addr).is_ok(), "shard at {addr} is listening before the drop");
    }
    drop(guard);
    for addr in &shard_addrs {
        assert!(
            wait_for(Duration::from_secs(10), || Client::connect(addr).is_err()),
            "shard at {addr} still accepts connections after its guard dropped"
        );
    }
}

/// The restart circuit: a shard whose respawns keep failing is struck
/// out after `max_restarts` attempts, permanently evicted from the
/// ring, and the fleet degrades to a structured retryable error instead
/// of respawning forever. The `supervisor.respawn` failpoint (scoped to
/// this fleet's base port) makes every respawn attempt fail.
#[test]
fn flapping_shard_trips_the_restart_circuit_and_is_evicted() {
    let guard = start_fleet(FleetConfig { max_restarts: 2, ..fleet_cfg(1, 7560) });
    let fleet = guard.fleet();

    revel_failpoint::arm(
        "supervisor.respawn",
        "7560",
        revel_failpoint::Action::InjectError,
        1,
        true,
    );
    assert!(guard.supervisor().kill_shard(0, false), "shard had a live process");
    assert!(
        wait_for(Duration::from_secs(30), || fleet.is_evicted(0)),
        "circuit opens after max_restarts failed respawns"
    );
    revel_failpoint::disarm("supervisor.respawn", "7560");

    let roster = fleet.roster();
    assert!(roster[0].evicted, "{roster:?}");
    assert!(!roster[0].alive, "{roster:?}");
    assert_eq!(roster[0].restarts, 2, "exactly max_restarts attempts: {roster:?}");
    match fleet.forward(&Request::simulate("solver", "n=12", "revel")) {
        Response::Error { kind, retry_after_ms, .. } => {
            assert_eq!(kind, "fleet_unavailable");
            assert!(retry_after_ms.is_some(), "the error must be retryable");
        }
        other => panic!("expected fleet_unavailable, got {other:?}"),
    }
    guard.shutdown();
}

/// `revel_serve --cache-capacity` bounds the in-memory cache, pinned from
/// the outside on the shipped binary (a one-shard fleet's supervisor passes
/// the flag): two passes of the smoke frames push 8 distinct simulate cells
/// through a 2-entry cache, and the `stats` wire must report the evictions.
#[test]
fn client_asserts_evictions_against_a_capacity_bounded_server() {
    let guard = start_fleet(FleetConfig { cache_capacity: Some(2), ..fleet_cfg(1, 7540) });
    let (frames, _) = load_frames(Path::new("ci/smoke.jsonl")).expect("smoke frames");
    let mut c = Client::connect(guard.addr()).expect("connect");
    let evictions = |c: &mut Client| {
        let engine = c.engine_stats().expect("stats");
        assert_eq!(engine.capacity, 2, "the flag reached the engine: {engine:?}");
        engine.evictions
    };
    let before = evictions(&mut c);
    for _pass in 0..2 {
        for frame in &frames {
            c.request_raw_until_terminal(frame).expect("frame answered");
        }
    }
    let evicted = evictions(&mut c) - before;
    // 8 cells cycled twice through 2 entries: at least 6 evictions in the
    // first pass and, nothing having survived, 8 more in the second.
    assert!(evicted >= 14, "a tiny cache under replay load must evict, saw {evicted}");
    guard.shutdown();
}
