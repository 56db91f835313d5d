//! Protocol fuzz-lite: ten thousand seeded mutations of valid frames must
//! never panic the decoders — every rejection is a structured error. This
//! is the cheap, deterministic cousin of a real fuzzer: byte flips,
//! insertions, deletions, and truncations applied to known-good frames
//! explore the parser's edges without an external harness.

use revel_core::isa::Rng;
use revel_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};

fn valid_frames() -> Vec<String> {
    let reqs = [
        Request::Health,
        Request::Stats,
        Request::Shutdown,
        Request::Sleep { ms: 250 },
        Request::Simulate {
            bench: "qr".into(),
            params: "n=12".into(),
            arch: "revel".into(),
            deadline_ms: Some(1500),
            max_cycles: Some(100_000),
            reference_stepper: true,
            fault_seed: Some(7),
            fault_count: Some(4),
            fault_window: Some(4096),
        },
        Request::Lint {
            bench: "fir".into(),
            params: "m=37 n=1024".into(),
            arch: "systolic".into(),
        },
        Request::Compare { bench: "gemm".into(), params: "12x16x64".into() },
    ];
    let resps = [
        Response::ShuttingDown,
        Response::Slept { ms: 250 },
        Response::Result { cycles: 7185, commands_issued: 120, verified: true, error: None },
        Response::TimedOut {
            cycles: 50_000,
            deadline_expired: true,
            deadlock: Some("=== DEADLOCK at cycle 50000 ===\nlane 0: waiting".into()),
        },
        Response::Faulted {
            cycles: 88_001,
            applied: 3,
            missed: 1,
            pending: 0,
            first_divergence: Some(1042),
        },
        Response::Overloaded { capacity: 1, retry_after_ms: Some(30) },
        Response::Error {
            kind: "injected_fault".into(),
            message: "chaos: injected worker panic".into(),
            retry_after_ms: Some(15),
        },
    ];
    let mut frames: Vec<String> = Vec::new();
    for (i, r) in reqs.iter().enumerate() {
        frames.push(encode_request(i as u64 + 1, r));
    }
    for (i, r) in resps.iter().enumerate() {
        frames.push(encode_response(i as u64 + 1, r));
    }
    frames
}

/// One seeded mutation: flip a byte, insert a byte, delete a byte, or
/// truncate the tail. Lossy-decoded back to `&str` (the wire layer hands
/// the decoders whole lines, so UTF-8 repair mirrors what a hostile peer
/// can actually deliver through `FrameReader`).
fn mutate(frame: &str, rng: &mut Rng) -> String {
    let mut bytes = frame.as_bytes().to_vec();
    let edits = 1 + rng.gen_index(3);
    for _ in 0..edits {
        if bytes.is_empty() {
            break;
        }
        match rng.gen_index(4) {
            0 => {
                let i = rng.gen_index(bytes.len());
                bytes[i] ^= (1 + rng.gen_index(255)) as u8;
            }
            1 => {
                let i = rng.gen_index(bytes.len() + 1);
                bytes.insert(i, rng.gen_index(256) as u8);
            }
            2 => {
                let i = rng.gen_index(bytes.len());
                bytes.remove(i);
            }
            _ => {
                let keep = rng.gen_index(bytes.len());
                bytes.truncate(keep);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn ten_thousand_seeded_mutations_never_panic_the_decoders() {
    let frames = valid_frames();
    let mut rng = Rng::seed_from_u64(0x5EED_F00D);
    let mut rejected = 0u64;
    let mut survived = 0u64;
    for _ in 0..10_000 {
        let base = &frames[rng.gen_index(frames.len())];
        let mutant = mutate(base, &mut rng);
        // The contract under test is "no panic, structured outcome": a
        // mutant may still parse (e.g. a digit flip inside a count) — that
        // is a valid frame and must round-trip like any other.
        match decode_request(&mutant) {
            Ok((id, req)) => {
                survived += 1;
                let re = encode_request(id, &req);
                let (id2, req2) = decode_request(&re).expect("re-encoded frame must decode");
                assert_eq!((id2, req2), (id, req), "re-encode must be stable");
            }
            Err(e) => {
                rejected += 1;
                assert!(!e.message.is_empty(), "rejections carry a diagnostic");
            }
        }
        match decode_response(&mutant) {
            Ok((id, resp)) => {
                let re = encode_response(id, &resp);
                let (id2, resp2) = decode_response(&re).expect("re-encoded frame must decode");
                assert_eq!((id2, resp2), (id, resp), "re-encode must be stable");
            }
            Err(e) => assert!(!e.message.is_empty(), "rejections carry a diagnostic"),
        }
    }
    // Sanity on the corpus itself: mutations overwhelmingly produce
    // rejections, but the loop genuinely exercised both paths.
    assert!(rejected > 5_000, "mutation corpus too tame: {rejected} rejections");
    assert!(rejected + survived == 10_000);
}

#[test]
fn the_seed_corpus_itself_round_trips() {
    for frame in valid_frames() {
        let req = decode_request(&frame);
        let resp = decode_response(&frame);
        assert!(
            req.is_ok() || resp.is_ok(),
            "every seed frame must decode as a request or a response: {frame:?}"
        );
    }
}
