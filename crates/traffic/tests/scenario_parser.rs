//! Scenario-file parsing: defaults, structured rejections, and a
//! seeded-mutation fuzz loop. A scenario file is untrusted input — every
//! failure in here must be a `ScenarioError`, never a panic.

use revel_isa::Rng;
use revel_traffic::scenario::{MixCell, Scenario, MAX_SCENARIO_BYTES};

const VALID: &str = r#"{
  "version": 1,
  "name": "demo",
  "seed": 9,
  "connections": 8,
  "inflight": 2,
  "retries": 3,
  "mix": [
    {"weight": 3, "bench": "solver", "params": "n=12", "arch": "revel"},
    {"weight": 1, "grid": true},
    {"bench": "fft", "params": "n=64", "arch": "revel", "batch": 8}
  ],
  "phases": [
    {"name": "warm", "duration_ms": 2000, "pattern": {"kind": "constant", "rps": 40}},
    {"name": "storm", "duration_ms": 1500, "reconnect": true,
     "pattern": {"kind": "burst", "count": 20, "every_ms": 300, "spread_ms": 10}},
    {"name": "quiet", "duration_ms": 500, "pattern": {"kind": "silence"}}
  ],
  "slos": [
    {"name": "tail", "phase": "storm", "max_p99_ms": 1500},
    {"name": "served", "phase": "all", "min_success_rate": 0.995}
  ]
}"#;

#[test]
fn valid_scenario_parses_with_defaults() {
    let s = Scenario::parse(VALID).expect("valid scenario");
    assert_eq!(s.name, "demo");
    assert_eq!(s.seed, 9);
    assert_eq!(s.connections, 8);
    assert_eq!(s.max_inflight, 2);
    assert_eq!(s.max_attempts, 4, "retries 3 = 4 attempts");
    assert_eq!(s.backoff_base_ms, 5, "default backoff base");
    assert_eq!(s.backoff_cap_ms, 200, "default backoff cap");
    assert_eq!(s.mix.len(), 3);
    assert_eq!(s.mix[2].weight, 1.0, "weight defaults to 1");
    assert!(matches!(s.mix[1].cell, MixCell::Grid));
    assert!(matches!(&s.mix[2].cell, MixCell::Cell { batch: 8, .. }));
    assert_eq!(s.phases.len(), 3);
    assert!(s.phases[1].reconnect);
    assert!(!s.phases[2].reconnect, "reconnect defaults to false");
    assert_eq!(s.slos.len(), 2);
    assert_eq!(s.slos[0].phase.as_deref(), Some("storm"));
    assert_eq!(s.slos[1].phase, None, "phase \"all\" means the whole run");
}

#[test]
fn plan_is_seed_deterministic() {
    let s = Scenario::parse(VALID).unwrap();
    let a = s.plan(None).unwrap();
    let b = s.plan(None).unwrap();
    assert_eq!(a, b, "same seed must expand to an identical plan");
    let c = s.plan(Some(1234)).unwrap();
    assert_eq!(c.seed, 1234);
    assert_ne!(a.phases[0].arrivals, c.phases[0].arrivals, "seed override must change the plan");
}

/// Each case: (mutation of the valid file, substring the error must carry).
fn rejection_cases() -> Vec<(String, &'static str)> {
    vec![
        (VALID.replace("\"version\": 1", "\"version\": 2"), "version"),
        (VALID.replace("\"version\": 1,", ""), "version"),
        (VALID.replace("\"name\": \"demo\",", ""), "name"),
        (
            VALID.replace("\"kind\": \"constant\", \"rps\": 40", "\"kind\": \"warp\""),
            "unknown pattern",
        ),
        (VALID.replace("\"rps\": 40", "\"rps\": -3"), "rate"),
        (VALID.replace("\"duration_ms\": 2000", "\"duration_ms\": 0"), "duration_ms"),
        (VALID.replace("\"connections\": 8", "\"connections\": 0"), "connections"),
        (VALID.replace("\"connections\": 8", "\"connections\": 9999"), "connections"),
        (VALID.replace("\"retries\": 3", "\"retries\": 99"), "retries"),
        (VALID.replace("\"weight\": 3", "\"weight\": -1"), "weight"),
        (VALID.replace("\"batch\": 8", "\"batch\": 99999"), "batch"),
        (
            VALID.replace(
                "{\"name\": \"tail\", \"phase\": \"storm\", \"max_p99_ms\": 1500}",
                "{\"name\": \"tail\", \"phase\": \"storm\"}",
            ),
            "asserts nothing",
        ),
        (VALID.replace("\"phase\": \"storm\"", "\"phase\": \"nope\""), "unknown phase"),
        (VALID.replace("\"name\": \"warm\"", "\"name\": \"storm\""), "duplicate phase"),
        // Scripted shard kills left with the fleet: a stale file that still
        // carries them is refused, not run without its kills.
        (
            VALID.replace(
                "\"pattern\": {\"kind\": \"silence\"}}",
                "\"pattern\": {\"kind\": \"silence\"},
                 \"events\": [{\"at_ms\": 100}]}",
            ),
            "scripted events left with the fleet",
        ),
        ("not json at all".to_string(), "invalid JSON"),
        ("[1, 2, 3]".to_string(), "expected an object"),
        ("{\"version\": 1, \"name\": \"x\", \"mix\": [], \"phases\": []}".to_string(), "mix"),
    ]
}

#[test]
fn malformed_scenarios_reject_with_structured_errors() {
    for (text, needle) in rejection_cases() {
        let err = Scenario::parse(&text)
            .expect_err(&format!("must reject (wanted {needle:?}): {text:.120}"));
        let msg = err.to_string();
        assert!(
            msg.contains(needle),
            "error {msg:?} does not mention {needle:?} for mutation {text:.120}"
        );
        assert!(msg.starts_with("scenario error at "), "unstructured error: {msg}");
    }
}

#[test]
fn oversized_scenario_is_rejected_before_parsing() {
    let huge = format!("{{\"pad\": \"{}\"}}", "x".repeat(MAX_SCENARIO_BYTES));
    let err = Scenario::parse(&huge).unwrap_err();
    assert!(err.reason.contains("cap"), "unexpected: {err}");
}

#[test]
fn arrival_blowup_is_rejected_at_plan_time() {
    // Parses fine, but 1e6 rps × 3600s explodes the arrival cap: plan()
    // must return an error, not allocate gigabytes.
    let text = VALID
        .replace("\"rps\": 40", "\"rps\": 1000000")
        .replace("\"duration_ms\": 2000", "\"duration_ms\": 3600000");
    let s = Scenario::parse(&text).expect("parse is cheap; the cap bites at plan time");
    let err = s.plan(None).unwrap_err();
    assert!(err.reason.contains("cap"), "unexpected: {err}");
}

/// 10k seeded mutations of the valid file: random byte edits, truncations,
/// and splices. Parsing must return `Ok` or `Err` — any panic fails the
/// test (and would break `--scenario` on hostile input).
#[test]
fn fuzz_lite_mutations_never_panic() {
    let base = VALID.as_bytes();
    let mut rng = Rng::seed_from_u64(0xF022_BEEF);
    for _ in 0..10_000 {
        let mut bytes = base.to_vec();
        match rng.gen_index(4) {
            0 => {
                // Flip a handful of bytes.
                for _ in 0..=rng.gen_index(8) {
                    let i = rng.gen_index(bytes.len());
                    bytes[i] = (rng.gen_f64() * 255.0) as u8;
                }
            }
            1 => {
                // Truncate.
                bytes.truncate(rng.gen_index(bytes.len()));
            }
            2 => {
                // Splice a chunk onto a random prefix.
                let cut = rng.gen_index(bytes.len());
                let from = rng.gen_index(bytes.len());
                let len = rng.gen_index(bytes.len() - from);
                let chunk = base[from..from + len].to_vec();
                bytes.truncate(cut);
                bytes.extend_from_slice(&chunk);
            }
            _ => {
                // Duplicate a random infix in place.
                let from = rng.gen_index(bytes.len());
                let len = rng.gen_index((bytes.len() - from).min(64));
                let chunk = base[from..from + len].to_vec();
                let at = rng.gen_index(bytes.len());
                for (k, b) in chunk.into_iter().enumerate() {
                    bytes.insert(at + k, b);
                }
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        // Ok or Err are both fine; planning a surviving parse must also
        // hold (it allocates bounded by the arrival cap).
        if let Ok(s) = Scenario::parse(&text) {
            let _ = s.plan(Some(1));
        }
    }
}
