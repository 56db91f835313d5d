//! Property-style tests for the vector-stream ISA: pattern algebra and
//! command specialization.
//!
//! These are randomized-but-deterministic: each test draws a few hundred
//! cases from the seeded [`Rng`] (the workspace builds with no external
//! crates, so `proptest` is off the table). Failures print the case index;
//! reproduce by rerunning with the same seed.

use revel_isa::{
    AffinePattern, ConstPattern, InPortId, LaneMask, LaneScale, MemTarget, RateFsm, Rng,
    StreamCommand, VectorCommand,
};

const CASES: usize = 256;

fn arb_rate(r: &mut Rng) -> RateFsm {
    RateFsm::inductive(r.gen_range_i64(1, 64), r.gen_range_i64(-4, 4))
}

fn arb_pattern(r: &mut Rng) -> AffinePattern {
    AffinePattern::two_d(
        r.gen_range_i64(0, 1024),
        r.gen_range_i64(1, 8),
        r.gen_range_i64(0, 64),
        r.gen_range_i64(0, 48),
        r.gen_range_i64(1, 48),
        r.gen_range_i64(-2, 2),
    )
}

/// The iterator must visit exactly `total_elems()` elements.
#[test]
fn pattern_count_matches_iterator() {
    let mut r = Rng::seed_from_u64(0x15A_0001);
    for case in 0..CASES {
        let p = arb_pattern(&mut r);
        assert_eq!(p.iter().count() as i64, p.total_elems(), "case {case}: {p:?}");
    }
}

/// Element coordinates are consistent with the affine formula.
#[test]
fn pattern_elements_are_affine() {
    let mut r = Rng::seed_from_u64(0x15A_0002);
    for case in 0..CASES {
        let p = arb_pattern(&mut r);
        for e in p.iter() {
            assert_eq!(e.offset, p.start + e.j * p.stride_j + e.i * p.stride_i, "case {case}");
            assert!(e.i < p.row_len(e.j), "case {case}");
        }
    }
}

/// `last_in_row` is set exactly once per non-empty row.
#[test]
fn pattern_row_boundaries() {
    let mut r = Rng::seed_from_u64(0x15A_0003);
    for case in 0..CASES {
        let p = arb_pattern(&mut r);
        let rows_with_elems = (0..p.len_j).filter(|&j| p.row_len(j) > 0).count();
        let lasts = p.iter().filter(|e| e.last_in_row).count();
        assert_eq!(lasts, rows_with_elems, "case {case}: {p:?}");
    }
}

/// Outer indices are non-decreasing along the stream.
#[test]
fn pattern_outer_monotone() {
    let mut r = Rng::seed_from_u64(0x15A_0004);
    for case in 0..CASES {
        let p = arb_pattern(&mut r);
        let js: Vec<i64> = p.iter().map(|e| e.j).collect();
        assert!(js.windows(2).all(|w| w[0] <= w[1]), "case {case}: {p:?}");
    }
}

/// Per-lane offsetting commutes with iteration.
#[test]
fn pattern_offset_commutes() {
    let mut r = Rng::seed_from_u64(0x15A_0005);
    for case in 0..CASES {
        let p = arb_pattern(&mut r);
        let delta = r.gen_range_i64(0, 512);
        let shifted: Vec<i64> = p.offset_by(delta).iter().map(|e| e.offset).collect();
        let base: Vec<i64> = p.iter().map(|e| e.offset + delta).collect();
        assert_eq!(shifted, base, "case {case}");
    }
}

/// RateFsm totals equal the sum of per-iteration counts and are at least
/// `outer` (each iteration contributes >= 1).
#[test]
fn rate_total_bounds() {
    let mut r = Rng::seed_from_u64(0x15A_0006);
    for case in 0..CASES {
        let rate = arb_rate(&mut r);
        let outer = r.gen_range_i64(0, 64);
        let total = rate.total(outer);
        assert!(total >= outer, "case {case}");
        assert_eq!(total, (0..outer).map(|j| rate.count_at(j)).sum::<i64>(), "case {case}");
    }
}

/// Const pattern expansion length matches `total_elems`.
#[test]
fn const_expansion_len() {
    let mut r = Rng::seed_from_u64(0x15A_0007);
    for case in 0..CASES {
        let p = ConstPattern {
            val1: r.next_u64(),
            n1: arb_rate(&mut r),
            val2: None,
            outer: r.gen_range_i64(0, 32),
        };
        assert_eq!(p.expand().len() as i64, p.total_elems(), "case {case}");
    }
}

/// Validation accepts all generator-produced patterns (they are
/// constructed to be legal) and specialized lane commands stay valid.
#[test]
fn specialized_commands_stay_valid() {
    let mut r = Rng::seed_from_u64(0x15A_000A);
    for case in 0..CASES {
        let p = arb_pattern(&mut r);
        let lane_scale = r.gen_range_i64(0, 64);
        let cmd = StreamCommand::load(MemTarget::Private, p, InPortId(0), RateFsm::ONCE);
        let v = VectorCommand::scaled(LaneMask::all(8), LaneScale::addr(lane_scale), cmd);
        for lane in v.lanes.iter() {
            assert!(v.specialize(lane).validate().is_ok(), "case {case}");
        }
    }
}
