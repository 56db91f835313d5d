//! The engine's bypass accounting, read over the wire: a `simulate` whose
//! options change what a run means is a counted bypass and is never
//! memoized. Its own test binary — the assertions are exact deltas of the
//! process engine's counters, which `loopback.rs`'s parallel tests move.

use revel_core::Bench;
use revel_serve::client::Client;
use revel_serve::harness::{loopback, ServerGuard};
use revel_serve::protocol::{Request, Response};

#[test]
fn option_overrides_are_counted_bypasses_and_never_memoized() {
    let server = ServerGuard::start(&loopback(1, 4)).expect("bind ephemeral port");
    let mut c = Client::connect(server.addr()).expect("connect");
    let bench = Bench::Solver { n: 12 };
    let plain = Request::simulate(bench.name(), &bench.params(), "revel");
    let with_overrides = |max_cycles, reference_stepper| Request::Simulate {
        bench: bench.name().into(),
        params: bench.params(),
        arch: "revel".into(),
        deadline_ms: None,
        max_cycles,
        reference_stepper,
        fault_seed: None,
        fault_count: None,
        fault_window: None,
    };

    // A truncated run: one bypass, no lookup, nothing inserted.
    let before = c.engine_stats().expect("stats");
    let resp = c.request(&with_overrides(Some(40), false)).expect("truncated simulate");
    match resp {
        Response::TimedOut { cycles, deadline_expired, .. } => {
            assert!(cycles <= 40 && !deadline_expired, "{resp:?}");
        }
        other => panic!("a 40-cycle budget must time out, got {other:?}"),
    }
    let truncated = c.engine_stats().expect("stats");
    assert_eq!(truncated.fault_bypasses, before.fault_bypasses + 1, "{before:?} -> {truncated:?}");
    assert_eq!(truncated.run_entries, before.run_entries, "a truncated run is never memoized");
    assert_eq!(
        truncated.hits + truncated.misses,
        before.hits + before.misses,
        "a bypass is not a lookup: {before:?} -> {truncated:?}"
    );

    // The same cell, plainly: an ordinary miss, then a hit.
    let first = c.request(&plain).expect("simulate");
    assert!(matches!(first, Response::Result { verified: true, .. }), "{first:?}");
    let missed = c.engine_stats().expect("stats");
    assert_eq!(
        (missed.hits, missed.misses, missed.run_entries),
        (truncated.hits, truncated.misses + 1, truncated.run_entries + 1),
        "{truncated:?} -> {missed:?}"
    );
    assert_eq!(c.request(&plain).expect("simulate"), first);
    let hit = c.engine_stats().expect("stats");
    assert_eq!((hit.hits, hit.misses), (missed.hits + 1, missed.misses), "{missed:?} -> {hit:?}");

    // The oracle loop is a bypass too, and answers the same frame.
    assert_eq!(c.request(&with_overrides(None, true)).expect("reference simulate"), first);
    let oracle = c.engine_stats().expect("stats");
    assert_eq!(oracle.fault_bypasses, before.fault_bypasses + 2);
    assert_eq!(
        (oracle.hits, oracle.misses, oracle.run_entries),
        (hit.hits, hit.misses, hit.run_entries)
    );

    server.shutdown();
}
