//! Wire-protocol invariants: every request/response variant survives an
//! encode → decode round trip byte-exactly, and hostile frames (malformed
//! JSON, schema violations, oversized lines) are rejected as errors — never
//! panics.

use revel_core::engine::CacheStats;
use revel_core::sim::ScheduleCacheStats;
use revel_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_all_frames, Frame,
    FrameReader, Request, Response, ShardStatsWire, MAX_FRAME_BYTES,
};
use revel_serve::server::FinalStats;

fn every_request() -> Vec<Request> {
    vec![
        Request::Health,
        Request::Stats,
        Request::Shutdown,
        Request::FleetStats,
        Request::Sleep { ms: 250 },
        Request::simulate("qr", "n=12", "revel"),
        Request::Simulate {
            bench: "deadlock-probe".into(),
            params: String::new(),
            arch: String::new(),
            deadline_ms: Some(1500),
            max_cycles: Some(100_000),
            reference_stepper: true,
            fault_seed: None,
            fault_count: None,
            fault_window: None,
        },
        Request::Simulate {
            bench: "cholesky".into(),
            params: "n=12".into(),
            arch: "revel".into(),
            deadline_ms: None,
            max_cycles: None,
            reference_stepper: false,
            fault_seed: Some(0xDEAD_BEEF),
            fault_count: Some(4),
            fault_window: Some(4096),
        },
        Request::SimulateBatch {
            bench: "fft".into(),
            params: "n=64".into(),
            arch: "revel".into(),
            seeds: vec![1, 2, 3, 0xFFFF_FFFF_FFFF],
        },
        Request::SimulateBatch {
            bench: "solver".into(),
            params: "n=16".into(),
            arch: "dataflow".into(),
            seeds: vec![42],
        },
        Request::Lint {
            bench: "fir".into(),
            params: "m=37 n=1024".into(),
            arch: "systolic".into(),
        },
        Request::Compare { bench: "gemm".into(), params: "12x16x64".into() },
        Request::KillShard {
            shard: Some(2),
            bench: None,
            params: None,
            arch: None,
            wipe_snapshot: true,
        },
        Request::KillShard {
            shard: None,
            bench: Some("solver".into()),
            params: Some("n=12".into()),
            arch: Some("revel".into()),
            wipe_snapshot: false,
        },
    ]
}

fn every_response() -> Vec<Response> {
    vec![
        Response::Health {
            workers: 8,
            queue_capacity: 64,
            queue_depth: 3,
            active_connections: 2,
            shard_id: None,
        },
        Response::Health {
            workers: 1,
            queue_capacity: 8,
            queue_depth: 0,
            active_connections: 1,
            shard_id: Some(2),
        },
        Response::FleetStats {
            shards: vec![
                ShardStatsWire {
                    shard: 0,
                    port: 7412,
                    alive: true,
                    routed: 120,
                    failed: 0,
                    restarts: 0,
                    evicted: false,
                },
                ShardStatsWire {
                    shard: 1,
                    port: 7413,
                    alive: false,
                    routed: 33,
                    failed: 2,
                    restarts: 3,
                    evicted: true,
                },
            ],
        },
        Response::FleetStats { shards: vec![] },
        Response::Stats {
            engine: CacheStats {
                hits: 10,
                misses: 3,
                evictions: 1,
                capacity: 1024,
                run_entries: 2,
                lint_entries: 1,
                sim_cycles: 123_456_789,
                skipped_cycles: 100_000_000,
                fault_bypasses: 6,
                oblivious_entries: 2,
                deadline_fallbacks: 1,
                trace_hits: 4,
                batched_replays: 32,
                disk_hits: 7,
                warm_start_entries: 5,
                disk_cold_starts: 1,
            },
            schedule: ScheduleCacheStats { hits: 40, misses: 5, entries: 5 },
            server: FinalStats {
                received: 50,
                completed: 48,
                overloaded: 1,
                timed_out: 2,
                errors: 1,
                conn_timeouts: 3,
                write_overflows: 1,
                injected: 4,
            },
        },
        Response::ShuttingDown,
        Response::Slept { ms: 250 },
        Response::Result { cycles: 7185, commands_issued: 120, verified: true, error: None },
        Response::Result {
            cycles: 7185,
            commands_issued: 120,
            verified: false,
            error: Some("lane 3 diverged".into()),
        },
        Response::BatchResult {
            cycles: 7185,
            commands_issued: 120,
            batch: 64,
            verified: true,
            replayed: true,
        },
        Response::BatchResult {
            cycles: 9000,
            commands_issued: 80,
            batch: 8,
            verified: false,
            replayed: false,
        },
        Response::TimedOut { cycles: 100_000, deadline_expired: false, deadlock: None },
        Response::TimedOut {
            cycles: 50_000,
            deadline_expired: true,
            deadlock: Some("=== DEADLOCK at cycle 50000 ===\nlane 0: waiting".into()),
        },
        Response::Comparison { revel_cycles: 7185, systolic_cycles: 21019, dataflow_cycles: 14000 },
        Response::Lint { clean: true, diagnostics: vec![] },
        Response::Lint {
            clean: false,
            diagnostics: vec!["W001: unused port".into(), "E002: deadlock".into()],
        },
        Response::ShardKilled { shard: 1, wiped: true },
        Response::ShardKilled { shard: 0, wiped: false },
        Response::Overloaded { capacity: 64, retry_after_ms: None },
        Response::Overloaded { capacity: 1, retry_after_ms: Some(30) },
        Response::Error {
            kind: "bad_request".into(),
            message: "missing field 'op'".into(),
            retry_after_ms: None,
        },
        Response::Error {
            kind: "injected_fault".into(),
            message: "chaos: injected worker panic".into(),
            retry_after_ms: Some(15),
        },
        Response::Faulted {
            cycles: 88_001,
            applied: 3,
            missed: 1,
            pending: 0,
            first_divergence: Some(1042),
        },
        Response::Faulted { cycles: 12, applied: 0, missed: 4, pending: 0, first_divergence: None },
    ]
}

/// The no-hint encodings must be byte-identical to the pre-fault wire
/// format: old clients keep decoding new servers (and canned replay files
/// keep replaying) unchanged.
#[test]
fn hint_free_frames_match_the_legacy_wire_format() {
    let over = Response::Overloaded { capacity: 64, retry_after_ms: None };
    assert_eq!(encode_response(1, &over), "{\"id\":1,\"type\":\"overloaded\",\"capacity\":64}\n");
    let err = Response::Error {
        kind: "bad_request".into(),
        message: "nope".into(),
        retry_after_ms: None,
    };
    assert_eq!(
        encode_response(2, &err),
        "{\"id\":2,\"type\":\"error\",\"kind\":\"bad_request\",\"message\":\"nope\"}\n"
    );
    // The common-request constructor leaves every optional field off the wire.
    assert_eq!(
        encode_request(3, &Request::simulate("qr", "n=12", "revel")),
        "{\"id\":3,\"op\":\"simulate\",\"bench\":\"qr\",\"params\":\"n=12\",\"arch\":\"revel\"}\n"
    );
}

/// A stats frame from a pre-batching server (no `deadline_fallbacks`,
/// `trace_hits`, or `batched_replays` fields) must still decode — the new
/// counters default to zero rather than failing the frame.
#[test]
fn legacy_stats_frames_decode_with_zeroed_new_counters() {
    let legacy = concat!(
        "{\"id\":9,\"type\":\"stats\",",
        "\"engine\":{\"hits\":10,\"misses\":3,\"evictions\":1,\"capacity\":1024,",
        "\"run_entries\":2,\"lint_entries\":1,\"sim_cycles\":5,\"skipped_cycles\":0,",
        "\"fault_bypasses\":6,\"oblivious_entries\":2},",
        "\"schedule_cache_stats\":{\"hits\":40,\"misses\":5,\"entries\":5},",
        "\"server\":{\"received\":50,\"completed\":48,\"overloaded\":1,",
        "\"timed_out\":2,\"errors\":1}}"
    );
    let (id, resp) = decode_response(legacy).expect("legacy stats frame must decode");
    assert_eq!(id, 9);
    match resp {
        Response::Stats { engine, server, .. } => {
            assert_eq!((server.received, server.errors), (50, 1));
            assert_eq!((server.conn_timeouts, server.write_overflows, server.injected), (0, 0, 0));
            assert_eq!(engine.hits, 10);
            assert_eq!(engine.deadline_fallbacks, 0);
            assert_eq!(engine.trace_hits, 0);
            assert_eq!(engine.batched_replays, 0);
            assert_eq!(engine.disk_hits, 0);
            assert_eq!(engine.warm_start_entries, 0);
            assert_eq!(engine.disk_cold_starts, 0);
        }
        other => panic!("expected Stats, got {other:?}"),
    }
}

/// One full `stats` frame, byte for byte: the wire names and their order
/// are append-only protocol, so a renamed, dropped or reordered counter
/// must fail here, on encode, and not only in a peer.
#[test]
fn a_full_stats_frame_encodes_to_the_pinned_bytes() {
    let stats = Response::Stats {
        engine: CacheStats {
            hits: 1,
            misses: 2,
            evictions: 3,
            capacity: 4,
            run_entries: 5,
            lint_entries: 6,
            sim_cycles: 7,
            skipped_cycles: 8,
            fault_bypasses: 9,
            oblivious_entries: 10,
            deadline_fallbacks: 11,
            trace_hits: 12,
            batched_replays: 13,
            disk_hits: 14,
            warm_start_entries: 15,
            disk_cold_starts: 16,
        },
        schedule: ScheduleCacheStats { hits: 17, misses: 18, entries: 19 },
        server: FinalStats {
            received: 20,
            completed: 21,
            overloaded: 22,
            timed_out: 23,
            errors: 24,
            conn_timeouts: 25,
            write_overflows: 26,
            injected: 27,
        },
    };
    let golden = concat!(
        "{\"id\":5,\"type\":\"stats\",",
        "\"engine\":{\"hits\":1,\"misses\":2,\"evictions\":3,\"capacity\":4,",
        "\"run_entries\":5,\"lint_entries\":6,\"sim_cycles\":7,\"skipped_cycles\":8,",
        "\"fault_bypasses\":9,\"oblivious_entries\":10,\"deadline_fallbacks\":11,",
        "\"trace_hits\":12,\"batched_replays\":13,\"disk_hits\":14,",
        "\"warm_start_entries\":15,\"disk_cold_starts\":16},",
        "\"schedule_cache_stats\":{\"hits\":17,\"misses\":18,\"entries\":19},",
        "\"server\":{\"received\":20,\"completed\":21,\"overloaded\":22,\"timed_out\":23,",
        "\"errors\":24,\"conn_timeouts\":25,\"write_overflows\":26,\"injected\":27}}\n"
    );
    assert_eq!(encode_response(5, &stats), golden);
    assert_eq!(decode_response(golden).expect("decodes"), (5, stats));
}

/// A health frame from a pre-fleet server (no `queue_depth`,
/// `active_connections`, or `shard_id`) must still decode, with the new
/// fields defaulted — and a standalone server's own health frame omits
/// `shard_id` entirely (the byte-stability convention for optional
/// fields).
#[test]
fn legacy_health_frames_decode_and_shard_id_is_omitted_when_absent() {
    let legacy = "{\"id\":4,\"type\":\"health\",\"workers\":8,\"queue_capacity\":64}";
    let (id, resp) = decode_response(legacy).expect("legacy health frame must decode");
    assert_eq!(id, 4);
    assert_eq!(
        resp,
        Response::Health {
            workers: 8,
            queue_capacity: 64,
            queue_depth: 0,
            active_connections: 0,
            shard_id: None,
        }
    );
    let frame = encode_response(4, &resp);
    assert!(!frame.contains("shard_id"), "absent shard_id stays off the wire: {frame}");
    let sharded = Response::Health {
        workers: 8,
        queue_capacity: 64,
        queue_depth: 0,
        active_connections: 0,
        shard_id: Some(0),
    };
    assert!(
        encode_response(4, &sharded).contains("\"shard_id\":0"),
        "a shard reports its id on the wire"
    );
}

#[test]
fn every_request_round_trips() {
    for (i, req) in every_request().into_iter().enumerate() {
        let id = (i as u64) * 7 + 1;
        let frame = encode_request(id, &req);
        assert!(frame.ends_with('\n') && frame.len() <= MAX_FRAME_BYTES);
        let (rid, back) = decode_request(&frame).unwrap_or_else(|e| panic!("{req:?}: {e}"));
        assert_eq!(rid, id);
        assert_eq!(back, req);
        // Re-encoding is byte-stable (deterministic field order).
        assert_eq!(encode_request(id, &back), frame);
    }
}

#[test]
fn every_response_round_trips() {
    for (i, resp) in every_response().into_iter().enumerate() {
        let id = (i as u64) * 3 + 2;
        let frame = encode_response(id, &resp);
        assert!(frame.ends_with('\n') && frame.len() <= MAX_FRAME_BYTES);
        let (rid, back) = decode_response(&frame).unwrap_or_else(|e| panic!("{resp:?}: {e}"));
        assert_eq!(rid, id);
        assert_eq!(back, resp);
        assert_eq!(encode_response(id, &back), frame);
    }
}

#[test]
fn malformed_frames_are_rejected_not_panics() {
    for bad in [
        "",
        "not json",
        "[1,2,3]",
        "{\"id\":1}",
        "{\"op\":\"health\"}",
        "{\"id\":\"x\",\"op\":\"health\"}",
        "{\"id\":1,\"op\":\"conquer\"}",
        "{\"id\":1,\"op\":\"sleep\"}",
        "{\"id\":1,\"op\":\"simulate\",\"bench\":\"qr\"}",
        "{\"id\":1,\"op\":\"simulate\",\"bench\":\"qr\",\"params\":\"n=12\",\"arch\":\"revel\",\"deadline_ms\":-5}",
        "{\"id\":-1,\"op\":\"health\"}",
        "{\"id\":1,\"op\":\"simulate_batch\",\"bench\":\"fft\",\"params\":\"n=64\",\"arch\":\"revel\"}",
        "{\"id\":1,\"op\":\"simulate_batch\",\"bench\":\"fft\",\"params\":\"n=64\",\"arch\":\"revel\",\"seeds\":[1,\"two\"]}",
        "{\"id\":1,\"op\":\"simulate_batch\",\"bench\":\"fft\",\"params\":\"n=64\",\"arch\":\"revel\",\"seeds\":7}",
    ] {
        assert!(decode_request(bad).is_err(), "must reject {bad:?}");
    }
    for bad in [
        "{}",
        "{\"id\":1}",
        "{\"id\":1,\"type\":\"victory\"}",
        "{\"id\":1,\"type\":\"result\"}",
        "{\"id\":1,\"type\":\"result\",\"cycles\":5,\"commands_issued\":2,\"verified\":1}",
        "{\"id\":1,\"type\":\"fleet_stats\",\"shards\":[{\"shard\":0,\"port\":7412,\"alive\":true,\"routed\":1,\"failed\":0,\"evicted\":7}]}",
    ] {
        assert!(decode_response(bad).is_err(), "must reject {bad:?}");
    }
}

#[test]
fn oversized_frames_are_flagged_during_accumulation() {
    let huge = format!("{}\n", "x".repeat(MAX_FRAME_BYTES + 100));
    let mut fr = FrameReader::new(huge.as_bytes());
    match fr.next_frame().expect("reads") {
        Some(Frame::Oversized(n)) => assert!(n > MAX_FRAME_BYTES),
        other => panic!("expected Oversized, got {other:?}"),
    }
    // A frame exactly at the bound still passes.
    let fit = format!("{}\n", "y".repeat(MAX_FRAME_BYTES - 1));
    let mut fr = FrameReader::new(fit.as_bytes());
    assert!(
        matches!(fr.next_frame().expect("reads"), Some(Frame::Line(l)) if l.len() == MAX_FRAME_BYTES - 1)
    );
}

#[test]
fn frame_reader_splits_lines_and_handles_crlf() {
    let input = "alpha\r\nbeta\n\ngamma"; // no trailing newline on gamma
    let mut fr = FrameReader::new(input.as_bytes());
    assert_eq!(fr.next_frame().unwrap(), Some(Frame::Line("alpha".into())));
    assert_eq!(fr.next_frame().unwrap(), Some(Frame::Line("beta".into())));
    assert_eq!(fr.next_frame().unwrap(), Some(Frame::Line(String::new())));
    // An unterminated trailing partial is discarded at EOF (a frame is a line).
    assert_eq!(fr.next_frame().unwrap(), None);
}

#[test]
fn read_all_frames_skips_blanks() {
    let file = "a\n\n  \nb\n";
    let frames = read_all_frames(std::io::BufReader::new(file.as_bytes())).unwrap();
    assert_eq!(frames, vec!["a".to_string(), "b".to_string()]);
}
