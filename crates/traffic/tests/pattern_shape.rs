//! Shape and determinism tests for the arrival-pattern engine — pure
//! simulated time, no sockets, no sleeping.

use revel_traffic::pattern::{PatternEngine, PatternKind};

fn arrivals(seed: u64, pattern: &PatternKind, duration_ms: u64) -> Vec<u64> {
    PatternEngine::new(seed).phase_arrivals(0, pattern, duration_ms).expect("valid pattern")
}

#[test]
fn same_seed_same_arrivals() {
    let patterns = [
        PatternKind::Constant { rps: 37.0 },
        PatternKind::Poisson { rps: 120.0 },
        PatternKind::Burst { count: 50, every_ms: 250, spread_ms: 40 },
        PatternKind::Ramp { from_rps: 5.0, to_rps: 90.0 },
        PatternKind::Overlay {
            parts: vec![
                PatternKind::Constant { rps: 10.0 },
                PatternKind::Poisson { rps: 25.0 },
                PatternKind::Burst { count: 8, every_ms: 500, spread_ms: 20 },
            ],
        },
    ];
    for pat in &patterns {
        let a = arrivals(99, pat, 10_000);
        let b = arrivals(99, pat, 10_000);
        assert_eq!(a, b, "same seed must reproduce byte-identical arrivals for {pat:?}");
        assert!(!a.is_empty(), "{pat:?} produced no arrivals over 10s");
    }
}

#[test]
fn different_phase_different_stream() {
    let engine = PatternEngine::new(5);
    let pat = PatternKind::Poisson { rps: 200.0 };
    let a = engine.phase_arrivals(0, &pat, 5_000).unwrap();
    let b = engine.phase_arrivals(1, &pat, 5_000).unwrap();
    assert_ne!(a, b, "phases must draw from decorrelated streams");
}

#[test]
fn arrivals_sorted_and_in_range() {
    let pats = [
        PatternKind::Poisson { rps: 333.0 },
        PatternKind::Burst { count: 100, every_ms: 100, spread_ms: 90 },
        PatternKind::Ramp { from_rps: 0.0, to_rps: 500.0 },
    ];
    for pat in &pats {
        let a = arrivals(3, pat, 4_000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "{pat:?} arrivals unsorted");
        assert!(a.iter().all(|&t| t < 4_000_000), "{pat:?} arrival past phase end");
    }
}

#[test]
fn constant_rate_is_exact() {
    let a = arrivals(0, &PatternKind::Constant { rps: 50.0 }, 10_000);
    assert_eq!(a.len(), 500);
    // Evenly spaced: k-th arrival at k/rps.
    assert_eq!(a[0], 0);
    assert_eq!(a[1], 20_000);
    assert_eq!(a[250], 5_000_000);
}

#[test]
fn poisson_mean_rate_converges() {
    // 100 rps over 200 simulated seconds: 20k expected arrivals. A 5%
    // tolerance is ~11 standard deviations — this fails only if the
    // process is wrong, not by luck of the seed.
    let a = arrivals(21, &PatternKind::Poisson { rps: 100.0 }, 200_000);
    let expected = 20_000.0;
    let got = a.len() as f64;
    assert!(
        (got - expected).abs() / expected < 0.05,
        "poisson offered {got} arrivals, expected ~{expected}"
    );
}

#[test]
fn burst_count_and_spread() {
    // 10 trains of 30 over 5s.
    let a = arrivals(8, &PatternKind::Burst { count: 30, every_ms: 500, spread_ms: 50 }, 5_000);
    assert_eq!(a.len(), 300);
    // Every arrival stays within its train's spread window.
    for (i, &t) in a.iter().enumerate() {
        let train = i / 30;
        let base = train as u64 * 500_000;
        assert!(t >= base && t < base + 50_000 + 1_000, "arrival {i} at {t} out of train {train}");
    }
}

#[test]
fn ramp_mean_rate_and_monotone_density() {
    // 10 → 110 rps over 100s: mean 60 rps ⇒ ~6000 arrivals, exact for the
    // deterministic quadratic inversion.
    let a = arrivals(0, &PatternKind::Ramp { from_rps: 10.0, to_rps: 110.0 }, 100_000);
    let got = a.len() as f64;
    assert!((got - 6_000.0).abs() < 60.0, "ramp offered {got}, expected ~6000");
    // The second half must hold more arrivals than the first.
    let half = a.iter().filter(|&&t| t < 50_000_000).count();
    assert!(
        (a.len() - half) > half + a.len() / 10,
        "ramp density not increasing: {half} early vs {} late",
        a.len() - half
    );
}

#[test]
fn overlay_sums_its_parts() {
    let constant = PatternKind::Constant { rps: 20.0 };
    let burst = PatternKind::Burst { count: 10, every_ms: 1_000, spread_ms: 0 };
    let overlay = PatternKind::Overlay { parts: vec![constant.clone(), burst.clone()] };
    let a = arrivals(4, &overlay, 10_000);
    let c = arrivals(4, &constant, 10_000);
    let b = arrivals(4, &burst, 10_000);
    assert_eq!(a.len(), c.len() + b.len());
    assert!(a.windows(2).all(|w| w[0] <= w[1]), "overlay must merge sorted");
}

#[test]
fn silence_is_silent() {
    assert!(arrivals(1, &PatternKind::Silence, 60_000).is_empty());
}

#[test]
fn invalid_patterns_are_rejected() {
    let bad = [
        PatternKind::Constant { rps: -1.0 },
        PatternKind::Constant { rps: f64::NAN },
        PatternKind::Poisson { rps: 2e6 },
        PatternKind::Burst { count: 10, every_ms: 0, spread_ms: 0 },
        PatternKind::Burst { count: 10, every_ms: 100, spread_ms: 100 },
        PatternKind::Overlay { parts: vec![] },
        PatternKind::Overlay {
            parts: vec![PatternKind::Overlay { parts: vec![PatternKind::Silence] }],
        },
    ];
    for pat in &bad {
        assert!(pat.validate().is_err(), "{pat:?} must be rejected");
    }
}

#[test]
fn arrival_cap_is_enforced() {
    // 1e6 rps × 3600s would be 3.6e9 arrivals; the engine must refuse,
    // not allocate.
    let err = PatternEngine::new(0)
        .phase_arrivals(0, &PatternKind::Constant { rps: 1e6 }, 3_600_000)
        .unwrap_err();
    assert!(err.message.contains("cap"), "unexpected error: {}", err.message);
}
