//! Fault-injection loopback tests: a server whose `serve.worker.pre-run`
//! failpoint fails, delays or panics jobs on a fixed schedule, clients
//! retrying through it, and the acceptance criteria — every eventually
//! successful response is byte-identical to the batch path, no worker dies
//! permanently, and a panicking job costs one `internal` answer, not a
//! worker slot.

use revel_core::Bench;
use revel_serve::client::Client;
use revel_serve::harness::{loopback, ServerGuard};
use revel_serve::protocol::{encode_request, encode_response, Request, Response};
use revel_serve::server::response_for_run;

/// The work path's failpoint site; every arm here is filtered on its own
/// server's port, so the tests of this binary cannot trip each other.
const SITE: &str = "serve.worker.pre-run";

fn port_of(addr: &str) -> &str {
    addr.rsplit(':').next().expect("host:port")
}

/// Sends `req` until its answer is terminal.
fn converge(c: &mut Client, req: &Request) -> Response {
    c.request_raw_until_terminal(&encode_request(9, req)).expect("converges").1
}

/// Acceptance criterion: with one job in ten answered `injected_fault` and
/// one in seven delayed, three retrying clients against two workers
/// converge — every request eventually succeeds, and each success is
/// byte-identical to what `Bench::run` produces. Faults were really
/// injected (server counter) and neither worker died permanently (the pool
/// still serves after the storm).
#[test]
fn chaos_at_ten_percent_converges_to_byte_identical_results() {
    use revel_core::compiler::BuildCfg;
    let server = ServerGuard::start(&loopback(2, 16)).expect("bind ephemeral port");
    let addr = server.addr();
    let port = port_of(addr);
    revel_failpoint::arm_spec(&format!("{SITE}#{port}=err@%10; {SITE}#{port}=delay:5@%7"))
        .expect("valid spec");

    let cells: Vec<(Bench, &str, BuildCfg)> = vec![
        (Bench::Solver { n: 12 }, "revel", BuildCfg::revel(1)),
        (Bench::Fft { n: 64 }, "revel", BuildCfg::revel(1)),
        (Bench::Qr { n: 12 }, "revel", BuildCfg::revel(1)),
        (Bench::Svd { n: 12 }, "revel", BuildCfg::revel(1)),
    ];
    let expected: Vec<Response> = cells
        .iter()
        .map(|(b, _, cfg)| response_for_run(&b.run(cfg).expect("batch path runs")))
        .collect();

    std::thread::scope(|s| {
        for client_no in 0..3u64 {
            let (cells, expected) = (&cells, &expected);
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for pass in 0..3 {
                    for k in 0..cells.len() {
                        let i = (k + pass) % cells.len();
                        let (bench, arch, _) = &cells[i];
                        let got = converge(
                            &mut c,
                            &Request::simulate(bench.name(), &bench.params(), arch),
                        );
                        assert_eq!(
                            encode_response(9, &got),
                            encode_response(9, &expected[i]),
                            "client {client_no}: {} [{arch}] diverged after retries",
                            bench.name()
                        );
                    }
                }
            });
        }
    });

    // No worker died permanently: more sequential jobs than workers all
    // complete after the storm (a dead slot would hang one).
    let mut c = Client::connect(addr).expect("connect");
    for _ in 0..4 {
        assert_eq!(converge(&mut c, &Request::Sleep { ms: 1 }), Response::Slept { ms: 1 });
    }

    revel_failpoint::disarm(SITE, port);
    // The count rides the live `stats` frame; no shutdown needed to read it.
    let live = match c.request(&Request::Stats).expect("stats") {
        Response::Stats { server, .. } => server.injected,
        other => panic!("expected stats, got {other:?}"),
    };
    let stats = server.shutdown();
    assert_eq!(live, stats.injected, "live and shutdown counts agree: {stats}");
    assert!(stats.injected > 0, "the failpoint must actually have injected faults: {stats}");
    assert!(
        stats.completed > stats.injected,
        "most traffic still completed around the injections: {stats}"
    );
}

/// The unwind fence, pinned deterministically: on a one-worker server the
/// second job panics at the failpoint and is answered with the same
/// non-retryable `internal` error a real bug would get, and the third job
/// is served by that same (only) worker slot.
#[test]
fn worker_panic_answers_internal_and_the_slot_keeps_serving() {
    let server = ServerGuard::start(&loopback(1, 8)).expect("bind ephemeral port");
    let addr = server.addr();
    let port = port_of(addr);
    revel_failpoint::arm_spec(&format!("{SITE}#{port}=panic@2")).expect("valid spec");

    let mut c = Client::connect(addr).expect("connect");
    let job = Request::Sleep { ms: 1 };
    assert_eq!(c.request(&job).expect("job 1"), Response::Slept { ms: 1 });
    let resp = c.request(&job).expect("job 2 is answered, not dropped");
    assert!(!resp.is_retryable(), "a panic is a bug, not a transient: {resp:?}");
    match resp {
        Response::Error { kind, message, .. } => {
            assert_eq!(kind, "internal");
            assert!(message.contains(SITE), "the panic payload is the message: {message}");
        }
        other => panic!("expected an internal error, got {other:?}"),
    }
    assert_eq!(c.request(&job).expect("job 3"), Response::Slept { ms: 1 });

    revel_failpoint::disarm(SITE, port);
    let stats = server.shutdown();
    assert_eq!(stats.errors, 1, "{stats}");
    assert_eq!(stats.injected, 0, "a panic is not an injected_fault answer: {stats}");
}

/// A fault-seeded simulate request is answered with a structured `faulted`
/// snapshot (never a cached clean result), and the same seed yields the
/// same snapshot — over the wire, not just in-process.
#[test]
fn fault_seeded_requests_report_deterministic_snapshots() {
    let server = ServerGuard::start(&loopback(2, 8)).expect("bind ephemeral port");
    let addr = server.addr();
    let mut c = Client::connect(addr).expect("connect");
    let bench = Bench::Qr { n: 12 };
    let fault_req = |seed: u64| Request::Simulate {
        bench: bench.name().to_string(),
        params: bench.params(),
        arch: "revel".to_string(),
        deadline_ms: None,
        max_cycles: None,
        reference_stepper: false,
        fault_seed: Some(seed),
        fault_count: Some(8),
        fault_window: Some(1200),
    };

    // Not every seed's events hit a live target (a drawn port may be idle
    // at that cycle); scan a deterministic seed range for one that applies
    // — the scan itself is reproducible, so the test is too.
    let (seed, first) = (0..32)
        .find_map(|seed| match c.request(&fault_req(seed)).expect("faulted simulate") {
            resp @ Response::Faulted { applied, .. } if applied > 0 => Some((seed, resp)),
            Response::Faulted { .. } => None,
            other => panic!("expected faulted, got {other:?}"),
        })
        .expect("some seed in 0..32 must land a fault");
    let second = c.request(&fault_req(seed)).expect("repeat faulted simulate");
    assert_eq!(
        encode_response(1, &first),
        encode_response(1, &second),
        "same seed, same snapshot, byte for byte"
    );

    // The clean path is untouched: the same cell without a fault seed
    // still verifies (the faulted runs never reached the cache).
    let clean = c
        .request(&Request::simulate(bench.name(), &bench.params(), "revel"))
        .expect("clean simulate");
    assert!(matches!(clean, Response::Result { verified: true, .. }), "{clean:?}");

    server.shutdown();
}
