//! End-to-end loopback tests: a real server on an ephemeral port, real TCP
//! clients, and the acceptance criteria of the serving subsystem —
//! byte-identity with the batch path, structured overload, deadline
//! timeouts with batch-identical deadlock snapshots, graceful drain, and
//! hostile-input resilience.

use revel_core::Bench;
use revel_serve::client::Client;
use revel_serve::harness::{loopback, ServerGuard};
use revel_serve::probe;
use revel_serve::protocol::{encode_response, Request, Response, MAX_FRAME_BYTES};
use revel_serve::server::{response_for_run, ServerConfig};
use std::io::{Read, Write};
use std::time::Duration;

/// Acceptance criterion: responses for grid cells, served concurrently to
/// three clients through a two-worker pool, are byte-identical to what
/// `Bench::run` produces on the batch path.
#[test]
fn three_concurrent_clients_match_bench_run_byte_for_byte() {
    use revel_core::compiler::BuildCfg;
    let server = ServerGuard::start(&loopback(2, 16)).expect("bind ephemeral port");
    let addr = server.addr();

    // A 1-lane slice of the grid (debug-build friendly), three archs deep.
    let cells: Vec<(Bench, &str, BuildCfg)> = vec![
        (Bench::Solver { n: 12 }, "revel", BuildCfg::revel(1)),
        (Bench::Solver { n: 12 }, "systolic", BuildCfg::systolic_baseline(1)),
        (Bench::Solver { n: 12 }, "dataflow", BuildCfg::dataflow_baseline(1)),
        (Bench::Fft { n: 64 }, "revel", BuildCfg::revel(1)),
        (Bench::Qr { n: 12 }, "revel", BuildCfg::revel(1)),
        (Bench::Svd { n: 12 }, "revel", BuildCfg::revel(1)),
    ];
    // The batch-path ground truth (same process ⇒ same engine cache the
    // server answers from; values are pinned by the differential gate).
    let expected: Vec<Response> = cells
        .iter()
        .map(|(b, _, cfg)| response_for_run(&b.run(cfg).expect("batch path runs")))
        .collect();

    std::thread::scope(|s| {
        for client_no in 0..3 {
            let (cells, expected) = (&cells, &expected);
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                // Each client walks the cells at a different phase so the
                // two workers see genuinely interleaved traffic.
                for k in 0..cells.len() {
                    let i = (k + client_no * 2) % cells.len();
                    let (bench, arch, _) = &cells[i];
                    let got = c
                        .request(&Request::simulate(bench.name(), &bench.params(), arch))
                        .expect("simulate");
                    assert_eq!(
                        encode_response(9, &got),
                        encode_response(9, &expected[i]),
                        "client {client_no}: {} [{arch}] diverged from Bench::run",
                        bench.name()
                    );
                }
            });
        }
    });

    let stats = server.shutdown();
    assert_eq!(stats.overloaded, 0, "no request may be rejected in this test: {stats}");
    assert_eq!(stats.errors, 0, "{stats}");
    assert!(stats.completed >= 18, "3 clients × 6 cells all served: {stats}");
}

/// Acceptance criterion: when the queue is full the server answers with a
/// structured `overloaded` response immediately — it never hangs the
/// client and never silently drops the request.
#[test]
fn full_queue_yields_structured_overload() {
    let server = ServerGuard::start(&loopback(1, 1)).expect("bind ephemeral port");
    let addr = server.addr();

    // Occupy the single worker.
    let mut busy = Client::connect(addr).expect("connect");
    let t_busy = std::thread::spawn(move || busy.request(&Request::Sleep { ms: 600 }));
    std::thread::sleep(Duration::from_millis(150)); // worker has popped it

    // Fill the queue (capacity 1).
    let mut queued = Client::connect(addr).expect("connect");
    let t_queued = std::thread::spawn(move || queued.request(&Request::Sleep { ms: 50 }));
    std::thread::sleep(Duration::from_millis(150)); // job is parked in the queue

    // Third request: must be rejected *now*, not after the sleeps.
    let mut reject = Client::connect(addr).expect("connect");
    let t0 = std::time::Instant::now();
    let resp = reject.request(&Request::Sleep { ms: 1 }).expect("overload response");
    let waited = t0.elapsed();
    match &resp {
        Response::Overloaded { capacity: 1, retry_after_ms: Some(hint) } => {
            assert!(*hint >= 5, "queue-depth-derived hint, got {hint}");
        }
        other => panic!("expected overloaded with a retry hint, got {other:?}"),
    }
    assert!(waited < Duration::from_millis(300), "rejection must be immediate, took {waited:?}");

    // Control plane still answers while saturated — and reports the
    // saturation it is answering through.
    let health = reject.request(&Request::Health).expect("health under load");
    match health {
        Response::Health { workers, queue_capacity, queue_depth, active_connections, shard_id } => {
            assert_eq!(workers, 1);
            assert_eq!(queue_capacity, 1);
            assert_eq!(queue_depth, 1, "the parked job is visible as backlog");
            assert!(active_connections >= 3, "all three clients are held open");
            assert_eq!(shard_id, None, "a standalone server has no shard id");
        }
        other => panic!("expected health, got {other:?}"),
    }

    // The admitted requests were not harmed.
    assert_eq!(t_busy.join().unwrap().expect("busy"), Response::Slept { ms: 600 });
    assert_eq!(t_queued.join().unwrap().expect("queued"), Response::Slept { ms: 50 });

    let stats = server.shutdown();
    assert_eq!(stats.overloaded, 1, "{stats}");
}

/// Acceptance criterion: shutdown drains in-flight work — a request already
/// admitted is answered before the server exits.
#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let server = ServerGuard::start(&loopback(1, 4)).expect("bind ephemeral port");
    let addr = server.addr();

    let mut worker_client = Client::connect(addr).expect("connect");
    let inflight = std::thread::spawn(move || worker_client.request(&Request::Sleep { ms: 400 }));
    std::thread::sleep(Duration::from_millis(100)); // the worker is mid-sleep

    let stats = server.shutdown();

    // The in-flight request completes with its real answer, not an error.
    assert_eq!(inflight.join().unwrap().expect("drained"), Response::Slept { ms: 400 });
    assert!(stats.completed >= 2, "sleep + shutdown both completed: {stats}");
    assert_eq!(stats.errors, 0, "{stats}");
}

/// Satellite 3 regression: a deliberately deadlocked program, driven
/// through the *server* path with a cycle budget, reports the same
/// `DeadlockSnapshot` text as the batch path, byte for byte; and a
/// wall-clock deadline surfaces as `timed_out` with `deadline_expired`.
#[test]
fn deadlock_probe_snapshot_matches_batch_path() {
    let server = ServerGuard::start(&loopback(2, 8)).expect("bind ephemeral port");
    let addr = server.addr();
    let budget = 50_000u64;

    // Batch path: the probe run exactly as a harness would do it.
    let batch = probe::run(Some(budget), None).expect("probe runs");
    assert!(batch.timed_out && !batch.deadline_expired);
    let batch_snapshot = batch.deadlock.as_ref().expect("snapshot").to_string();

    // Server path: same probe, same budget, over the wire.
    let mut c = Client::connect(addr).expect("connect");
    let probe_req = |deadline_ms, max_cycles| Request::Simulate {
        bench: probe::BENCH_NAME.to_string(),
        params: String::new(),
        arch: String::new(),
        deadline_ms,
        max_cycles,
        reference_stepper: false,
        fault_seed: None,
        fault_count: None,
        fault_window: None,
    };
    let resp = c.request(&probe_req(None, Some(budget))).expect("probe over the wire");
    match resp {
        Response::TimedOut { cycles, deadline_expired, deadlock } => {
            assert_eq!(cycles, batch.cycles, "budget timeouts are cycle-deterministic");
            assert!(!deadline_expired, "the budget, not a deadline, fired");
            assert_eq!(
                deadlock.expect("snapshot over the wire"),
                batch_snapshot,
                "server and batch paths must print the identical snapshot"
            );
        }
        other => panic!("expected timed_out, got {other:?}"),
    }

    // Wall-clock deadline through the server path: deadline_ms=0 expires
    // during the run and must be reported as deadline_expired.
    let resp = c.request(&probe_req(Some(0), None)).expect("deadline probe");
    match resp {
        Response::TimedOut { deadline_expired, deadlock, .. } => {
            assert!(deadline_expired, "the deadline must be the reported cause");
            assert!(deadlock.is_some(), "deadline timeouts still carry the snapshot");
        }
        other => panic!("expected timed_out, got {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.timed_out, 2, "both probe runs counted: {stats}");
}

/// A per-request deadline on a *real* (non-deadlocked) cell: generous
/// deadlines do not perturb the result; an expired deadline times out and
/// must not poison the cache for later requests.
#[test]
fn request_deadlines_compose_with_real_cells() {
    let server = ServerGuard::start(&loopback(2, 8)).expect("bind ephemeral port");
    let addr = server.addr();
    let mut c = Client::connect(addr).expect("connect");
    let bench = Bench::Cholesky { n: 12 };

    let with_deadline = |ms| Request::Simulate {
        bench: bench.name().into(),
        params: bench.params(),
        arch: "revel".into(),
        deadline_ms: Some(ms),
        max_cycles: None,
        reference_stepper: false,
        fault_seed: None,
        fault_count: None,
        fault_window: None,
    };

    // Expired deadline first: the cache must not memoize the timeout.
    let resp = c.request(&with_deadline(0)).expect("expired-deadline simulate");
    match resp {
        Response::TimedOut { deadline_expired, .. } => assert!(deadline_expired),
        other => panic!("expected timed_out, got {other:?}"),
    }

    // Generous deadline: the answer equals the undeadlined batch result.
    let resp = c.request(&with_deadline(600_000)).expect("generous-deadline simulate");
    let expected = response_for_run(
        &bench.run(&revel_core::compiler::BuildCfg::revel(bench.lanes())).expect("batch"),
    );
    assert_eq!(resp, expected, "a slack deadline must be invisible");

    server.shutdown();
}

/// Hostile input: malformed JSON gets a structured `bad_request` and the
/// connection stays usable; an oversized frame gets `oversized_frame` and
/// a close — and in both cases the server (and its workers) survive.
#[test]
fn malformed_and_oversized_frames_never_kill_the_server() {
    let server = ServerGuard::start(&loopback(1, 4)).expect("bind ephemeral port");
    let addr = server.addr();

    // Malformed JSON on a raw socket.
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.write_all(b"this is not json\n").expect("write");
    let mut buf = [0u8; 4096];
    let n = raw.read(&mut buf).expect("read error response");
    let line = std::str::from_utf8(&buf[..n]).expect("utf8");
    assert!(line.contains("\"bad_request\""), "structured error expected, got {line}");

    // The same connection still serves well-formed requests afterwards.
    raw.write_all(b"{\"id\":7,\"op\":\"health\"}\n").expect("write");
    let n = raw.read(&mut buf).expect("read health");
    let line = std::str::from_utf8(&buf[..n]).expect("utf8");
    assert!(line.contains("\"health\"") && line.contains("\"id\":7"), "{line}");

    // Oversized frame: rejected mid-accumulation, connection closed. The
    // server responds then closes while our tail bytes may still be in
    // flight, so the client can observe either the structured rejection or
    // a connection reset — both prove the bound fired; neither may kill
    // the server (checked below).
    let mut big = std::net::TcpStream::connect(addr).expect("connect");
    let huge = vec![b'z'; MAX_FRAME_BYTES + 4096];
    let _ = big.write_all(&huge);
    let _ = big.write_all(b"\n");
    let mut collected = Vec::new();
    if big.read_to_end(&mut collected).is_ok() && !collected.is_empty() {
        let line = String::from_utf8_lossy(&collected);
        assert!(line.contains("\"oversized_frame\""), "structured rejection expected, got {line}");
    }

    // The server survived both: a fresh connection works end-to-end.
    let mut c = Client::connect(addr).expect("connect after hostility");
    assert_eq!(c.request(&Request::Sleep { ms: 1 }).expect("sleep"), Response::Slept { ms: 1 });

    let stats = server.shutdown();
    assert!(stats.errors >= 2, "both rejections counted: {stats}");
}

/// Slow-loris armor: a connection that never completes a frame is closed
/// at `conn_timeout` and counted — while a connection whose request is
/// legitimately in flight (a slow *simulation* is the server's debt, not
/// the client's) survives far past the idle deadline.
#[test]
fn slow_loris_connections_expire_while_inflight_work_is_exempt() {
    let cfg = ServerConfig { conn_timeout: Duration::from_millis(200), ..loopback(1, 8) };
    let server = ServerGuard::start(&cfg).expect("bind ephemeral port");
    let addr = server.addr();

    // In-flight work, three times the idle deadline long.
    let mut slow_work = Client::connect(addr).expect("connect");
    let inflight = std::thread::spawn(move || slow_work.request(&Request::Sleep { ms: 600 }));

    // The loris: half a frame, then silence. The server must close the
    // connection instead of holding it open forever.
    let mut loris = std::net::TcpStream::connect(addr).expect("connect");
    loris.write_all(b"{\"id\":1,\"op\":").expect("half frame");
    loris.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut buf = Vec::new();
    match loris.read_to_end(&mut buf) {
        Ok(_) => {} // clean FIN
        Err(e) => assert!(
            e.kind() != std::io::ErrorKind::WouldBlock && e.kind() != std::io::ErrorKind::TimedOut,
            "expired connection must be closed, not left hanging: {e}"
        ),
    }

    // The exempt client's answer arrived despite outliving the deadline.
    assert_eq!(inflight.join().unwrap().expect("in-flight work"), Response::Slept { ms: 600 });

    let stats = server.shutdown();
    assert!(stats.conn_timeouts >= 1, "the loris was counted: {stats}");
    assert_eq!(stats.errors, 0, "a timeout is not a protocol error: {stats}");
}

/// Overload armor: a peer that floods requests and never drains a reply
/// byte is disconnected once the unread reply bytes pass `wbuf_limit`,
/// and the drop is counted — the server never buffers without bound.
#[test]
fn a_peer_that_stops_draining_is_dropped_at_the_write_buffer_cap() {
    let cfg = ServerConfig { wbuf_limit: 4096, ..loopback(2, 8) };
    let server = ServerGuard::start(&cfg).expect("bind ephemeral port");
    let addr = server.addr();

    // Pump control-plane requests (answered inline, so replies pile up
    // immediately) without ever reading; once the kernel buffers fill,
    // the server's per-connection write buffer crosses the cap and the
    // connection is dropped — our writes start failing.
    let mut greedy = std::net::TcpStream::connect(addr).expect("connect");
    greedy.set_write_timeout(Some(Duration::from_secs(5))).expect("write timeout");
    let req = b"{\"id\":1,\"op\":\"stats\"}\n";
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut dropped = false;
    while std::time::Instant::now() < deadline {
        if greedy.write_all(req).is_err() {
            // Reset, broken pipe, or a write that sat blocked for 5s —
            // each means the server stopped reading us: it dropped the
            // connection at the cap.
            dropped = true;
            break;
        }
    }
    assert!(dropped, "the server must disconnect a peer that never drains");
    drop(greedy);

    // The server survived: a fresh, well-behaved client works end-to-end.
    let mut c = Client::connect(addr).expect("connect after the flood");
    assert_eq!(c.request(&Request::Sleep { ms: 1 }).expect("sleep"), Response::Slept { ms: 1 });

    let stats = server.shutdown();
    assert!(stats.write_overflows >= 1, "the overflow was counted: {stats}");
}

/// Batched simulation over the wire: a certified grid cell's
/// `simulate_batch` takes the trace-replay path (visible in the engine's
/// `batched_replays` counter), answers with a per-lane-verified summary
/// whose cycle count matches the single-run path, and rejects an empty
/// seed list as `bad_request` — while a locally computed
/// `Bench::run_batched` agrees with everything the server said.
#[test]
fn simulate_batch_replays_certified_cells_over_the_wire() {
    let server = ServerGuard::start(&loopback(2, 8)).expect("bind ephemeral port");
    let addr = server.addr();
    let mut c = Client::connect(addr).expect("connect");
    let bench = Bench::Fft { n: 64 };
    let seeds = vec![21u64, 22, 23];

    let before = c.engine_stats().expect("stats");

    let resp = c
        .request(&Request::SimulateBatch {
            bench: bench.name().into(),
            params: bench.params(),
            arch: "revel".into(),
            seeds: seeds.clone(),
        })
        .expect("simulate_batch");
    // Ground truth from the same process-wide engine the server answers
    // from: every summary field must agree.
    let cfg = revel_core::compiler::BuildCfg::revel(bench.lanes());
    let local = bench.run_batched(&cfg, &seeds).expect("local batch");
    match resp {
        Response::BatchResult { cycles, commands_issued, batch, verified, replayed } => {
            assert_eq!(batch, seeds.len() as u64);
            assert!(verified, "every lane verifies");
            assert!(replayed, "a certified cell must take the replay path");
            assert_eq!(replayed, local.replayed);
            assert_eq!(cycles, local.runs[0].cycles, "wire summary matches the local batch");
            assert_eq!(commands_issued, local.runs[0].report.commands_issued);
        }
        other => panic!("expected batch_result, got {other:?}"),
    }

    let after = c.engine_stats().expect("stats");
    // The local ground-truth batch replayed too, so the counter moved by
    // at least both batches' lanes (other tests share the process).
    assert!(
        after.batched_replays >= before.batched_replays + 2 * seeds.len() as u64,
        "replay-path proof: {} -> {}",
        before.batched_replays,
        after.batched_replays
    );

    // An empty batch is a caller bug, answered loudly and structurally.
    let resp = c
        .request(&Request::SimulateBatch {
            bench: bench.name().into(),
            params: bench.params(),
            arch: "revel".into(),
            seeds: vec![],
        })
        .expect("empty batch");
    assert!(
        matches!(resp, Response::Error { ref kind, .. } if kind == "bad_request"),
        "empty seeds must be bad_request, got {resp:?}"
    );

    server.shutdown();
}

/// The `stats` endpoint reports all three counter families, and the cache
/// counters move the right way across a repeated simulation.
#[test]
fn stats_endpoint_reports_cache_and_server_counters() {
    let server = ServerGuard::start(&loopback(2, 8)).expect("bind ephemeral port");
    let addr = server.addr();
    let mut c = Client::connect(addr).expect("connect");

    let before = match c.request(&Request::Stats).expect("stats") {
        Response::Stats { engine, schedule, .. } => (engine, schedule),
        other => panic!("expected stats, got {other:?}"),
    };

    // Same cell twice: at least one engine-cache hit is guaranteed for the
    // second request (other tests share the process-wide cache, so only
    // lower bounds are asserted).
    let bench = Bench::Fft { n: 64 };
    for _ in 0..2 {
        let resp = c
            .request(&Request::simulate(bench.name(), &bench.params(), "revel"))
            .expect("simulate");
        assert!(matches!(resp, Response::Result { verified: true, .. }), "{resp:?}");
    }

    let after = match c.request(&Request::Stats).expect("stats") {
        Response::Stats { engine, schedule, server } => {
            assert!(server.received >= 4, "stats+sim+sim+stats admitted: {server:?}");
            (engine, schedule)
        }
        other => panic!("expected stats, got {other:?}"),
    };
    assert!(after.0.hits > before.0.hits, "repeat simulate must hit: {before:?} -> {after:?}");
    assert!(after.0.capacity >= 1);
    assert_eq!(
        after.1.misses, after.1.entries,
        "schedule-cache misses are exact (one per compiled entry)"
    );

    server.shutdown();
}
