//! Scenario-runner integration tests over a loopback server: catalog
//! validity, seed-pinned determinism of the request stream, and SLO
//! gating.

use revel_serve::harness::{loopback, ServerGuard};
use revel_serve::scenario::{run, RunOptions};
use revel_traffic::scenario::Scenario;

/// A small, fast scenario: warm cells, a quiet drain, and a reconnect
/// burst — the thundering-herd shape compressed for test wall-clock.
fn quick_scenario() -> Scenario {
    Scenario::parse(
        r#"{
          "version": 1,
          "name": "quick",
          "seed": 7,
          "connections": 3,
          "inflight": 1,
          "retries": 0,
          "mix": [
            {"weight": 2, "bench": "solver", "params": "n=12", "arch": "revel"},
            {"weight": 1, "bench": "fft", "params": "n=64", "arch": "revel"}
          ],
          "phases": [
            {"name": "warm", "duration_ms": 400, "pattern": {"kind": "constant", "rps": 30}},
            {"name": "drain", "duration_ms": 100, "pattern": {"kind": "silence"}},
            {"name": "stampede", "duration_ms": 400, "reconnect": true,
             "pattern": {"kind": "burst", "count": 12, "every_ms": 200, "spread_ms": 10}}
          ],
          "slos": [
            {"name": "served", "phase": "all", "min_success_rate": 0.99},
            {"name": "warm_cache", "phase": "stampede", "min_hit_rate": 0.5}
          ]
        }"#,
    )
    .expect("quick scenario parses")
}

#[test]
fn every_catalog_scenario_parses_and_plans() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/ci/scenarios");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("catalog dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).expect("read scenario");
        let scenario = Scenario::parse(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        let plan =
            scenario.plan(None).unwrap_or_else(|e| panic!("{} does not plan: {e}", path.display()));
        assert_eq!(plan.phases.len(), scenario.phases.len());
        assert!(
            plan.phases.iter().any(|p| !p.arrivals.is_empty()),
            "{} offers no load at all",
            path.display()
        );
        // Catalog scenarios must pin at least one SLO — they are gates.
        assert!(!scenario.slos.is_empty(), "{} pins no SLOs", path.display());
    }
    assert!(seen >= 4, "expected the four catalog scenarios, found {seen}");
}

#[test]
fn runner_executes_phases_and_meets_slos_on_loopback() {
    let server = ServerGuard::start(&loopback(2, 32)).expect("bind ephemeral port");
    let addr = server.addr();
    let scenario = quick_scenario();
    let opts = RunOptions { addr: addr.to_string(), seed_override: None, dump_requests: false };
    let report = run(&scenario, &opts).expect("run");
    assert_eq!(report.seed, 7);
    assert_eq!(report.phases.len(), 3);
    let (ref warm_name, ref warm) = report.phases[0];
    assert_eq!(warm_name, "warm");
    assert_eq!(warm.offered, 12, "400ms at 30 rps");
    let (ref drain_name, ref drain) = report.phases[1];
    assert_eq!(drain_name, "drain");
    assert_eq!(drain.offered, 0, "silence offers nothing");
    let (_, ref stampede) = report.phases[2];
    assert_eq!(stampede.offered, 24, "2 bursts of 12");
    assert_eq!(report.total.offered, 36);
    assert_eq!(report.total.ok, 36, "loopback run must fully succeed");
    assert!(
        report.phases.iter().all(|(_, s)| s.window.is_some()),
        "every phase needs a stats window"
    );
    assert!(report.violations.is_empty(), "SLO violations: {:?}", report.violations);
    // The per-phase JSON line is stable and machine-parseable.
    let line = warm.json_line("quick", "warm");
    assert!(line.starts_with("{\"type\":\"scenario_phase\",\"scenario\":\"quick\""), "{line}");
    server.shutdown();
}

#[test]
fn same_seed_produces_byte_identical_request_streams() {
    let server = ServerGuard::start(&loopback(2, 32)).expect("bind ephemeral port");
    let addr = server.addr();
    let scenario = quick_scenario();
    let opts = RunOptions { addr: addr.to_string(), seed_override: Some(7), dump_requests: true };
    let a = run(&scenario, &opts).expect("first run");
    let b = run(&scenario, &opts).expect("second run");
    assert!(!a.dump.is_empty());
    assert_eq!(a.dump, b.dump, "same seed must replay a byte-identical request stream");
    // A different seed reorders the mix draws and arrival jitter.
    let opts9 = RunOptions { seed_override: Some(9), ..opts };
    let c = run(&scenario, &opts9).expect("third run");
    assert_ne!(a.dump, c.dump, "a different seed must change the stream");
    server.shutdown();
}

#[test]
fn violated_slos_are_reported_not_panicked() {
    let server = ServerGuard::start(&loopback(2, 32)).expect("bind ephemeral port");
    let addr = server.addr();
    let mut scenario = quick_scenario();
    // An impossible latency ceiling: the gate must trip.
    scenario.slos[0].max_p99_ms = Some(0.0);
    scenario.slos[0].min_success_rate = None;
    let opts = RunOptions { addr: addr.to_string(), seed_override: None, dump_requests: false };
    let report = run(&scenario, &opts).expect("run");
    assert!(
        report.violations.iter().any(|v| v.slo == "served"),
        "expected the impossible p99 gate to trip, got {:?}",
        report.violations
    );
    server.shutdown();
}

#[test]
fn scenario_runner_survives_a_vanishing_server() {
    // Bind, grab the address, then drop the listener: every dial fails.
    // The runner must come back with a report full of errors, not hang or
    // panic.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    drop(listener);
    let scenario = Scenario::parse(
        r#"{
          "version": 1,
          "name": "ghost",
          "connections": 2,
          "mix": [{"bench": "solver", "params": "n=12", "arch": "revel"}],
          "phases": [
            {"name": "only", "duration_ms": 200, "pattern": {"kind": "constant", "rps": 20}}
          ],
          "slos": [{"name": "served", "min_success_rate": 0.9}]
        }"#,
    )
    .expect("parses");
    let opts = RunOptions { addr, seed_override: None, dump_requests: false };
    let report = run(&scenario, &opts).expect("run completes");
    assert_eq!(report.total.offered, 4, "200ms at 20 rps");
    assert_eq!(report.total.ok, 0);
    assert_eq!(report.total.errors, 4, "unreachable server: every request errors");
    assert!(
        report.violations.iter().any(|v| v.slo == "served"),
        "the success-rate gate must trip: {:?}",
        report.violations
    );
}
