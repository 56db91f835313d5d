//! Property-style tests for dataflow-graph evaluation: predication
//! propagation, accumulator algebra, and structural invariants.
//!
//! Randomized-but-deterministic via the seeded `revel_isa::Rng` (the
//! workspace builds with no external crates, so `proptest` is unavailable).

use revel_dfg::{Dfg, OpCode, VecVal, MAX_VEC_WIDTH};
use revel_isa::{InPortId, OutPortId, RateFsm, Rng};

const CASES: usize = 200;

fn arb_lanes(r: &mut Rng, width: usize) -> (Vec<f64>, u8) {
    let vals = (0..width).map(|_| r.gen_range_f64(-100.0, 100.0)).collect();
    let pred = 1 + r.gen_index((1usize << width) - 1) as u8;
    (vals, pred)
}

/// Elementwise binary ops: output predicate is the AND of input
/// predicates, and valid lanes compute the scalar op exactly.
#[test]
fn binary_op_predication() {
    let mut r = Rng::seed_from_u64(0xDF6_0001);
    for case in 0..CASES {
        let width = 1 + r.gen_index(MAX_VEC_WIDTH);
        let a: Vec<f64> = (0..width).map(|_| r.gen_range_f64(-50.0, 50.0)).collect();
        let b: Vec<f64> = (0..width).map(|_| r.gen_range_f64(-50.0, 50.0)).collect();
        let pa = r.gen_index(256) as u8;
        let pb = r.gen_index(256) as u8;
        let mut g = Dfg::new("bin");
        let x = g.input(InPortId(0));
        let y = g.input(InPortId(1));
        let s = g.op(OpCode::Add, &[x, y]);
        g.output(s, OutPortId(0));
        let mut ev = g.evaluator(width);
        let va = VecVal::with_pred(&a, pa);
        let vb = VecVal::with_pred(&b, pb);
        let out = ev.fire(&[va, vb])[0].1;
        assert_eq!(out.pred(), va.pred() & vb.pred(), "case {case}");
        for k in 0..width {
            match (va.get(k), vb.get(k)) {
                (Some(x), Some(y)) => assert_eq!(out.get(k), Some(x + y), "case {case}"),
                _ => assert_eq!(out.get(k), None, "case {case}"),
            }
        }
    }
}

/// Scalar accumulator equals the running sum of valid lanes, partitioned
/// by the emission length.
#[test]
fn accumulator_partitions_sums() {
    let mut r = Rng::seed_from_u64(0xDF6_0002);
    for case in 0..CASES {
        let (lanes, pred) = arb_lanes(&mut r, 4);
        let groups = r.gen_range_i64(1, 5);
        let fires_per_group = r.gen_range_i64(1, 5);
        let mut g = Dfg::new("acc");
        let a = g.input(InPortId(0));
        let acc = g.accum(a, RateFsm::fixed(fires_per_group));
        g.output(acc, OutPortId(0));
        let mut ev = g.evaluator(4);
        let v = VecVal::with_pred(&lanes, pred);
        let per_fire = v.sum_valid();
        let mut emitted = Vec::new();
        for _ in 0..groups * fires_per_group {
            for (_, out) in ev.fire(&[v]) {
                if out.any_valid() {
                    emitted.push(out.get(0).unwrap());
                }
            }
        }
        assert_eq!(emitted.len() as i64, groups, "case {case}");
        for e in emitted {
            assert!((e - per_fire * fires_per_group as f64).abs() < 1e-9, "case {case}");
        }
    }
}

/// AccumVec is an elementwise (per-lane) accumulator: lanes never mix.
#[test]
fn accum_vec_lanes_independent() {
    let mut r = Rng::seed_from_u64(0xDF6_0003);
    for case in 0..CASES {
        let (lanes, pred) = arb_lanes(&mut r, 4);
        let fires = r.gen_range_i64(1, 6);
        let mut g = Dfg::new("vacc");
        let a = g.input(InPortId(0));
        let acc = g.accum_vec(a, RateFsm::fixed(fires));
        g.output(acc, OutPortId(0));
        let mut ev = g.evaluator(4);
        let v = VecVal::with_pred(&lanes, pred);
        let mut result = None;
        for _ in 0..fires {
            for (_, out) in ev.fire(&[v]) {
                if out.any_valid() {
                    result = Some(*out);
                }
            }
        }
        let out = result.expect("one emission");
        for k in 0..4 {
            match v.get(k) {
                Some(x) => {
                    let got = out.get(k).expect("lane valid");
                    assert!((got - x * fires as f64).abs() < 1e-9, "case {case}");
                }
                None => assert_eq!(out.get(k), None, "case {case}"),
            }
        }
    }
}

/// Critical-path latency is monotone under appending ops.
#[test]
fn critical_path_monotone() {
    let mut r = Rng::seed_from_u64(0xDF6_0004);
    for case in 0..CASES {
        let n_ops = 1 + r.gen_index(9);
        let mut g = Dfg::new("chain");
        let a = g.input(InPortId(0));
        let mut v = a;
        let mut last = 0;
        for i in 0..n_ops {
            v = g.op(if i % 2 == 0 { OpCode::Add } else { OpCode::Mul }, &[v, a]);
            let now = g.critical_path_latency();
            assert!(now >= last, "case {case}");
            last = now;
        }
        g.output(v, OutPortId(0));
        assert!(g.validate().is_ok(), "case {case}");
        assert_eq!(g.num_instructions(), n_ops, "case {case}");
    }
}

/// FU demand counts every instruction exactly once.
#[test]
fn fu_demand_total() {
    let mut r = Rng::seed_from_u64(0xDF6_0005);
    for case in 0..CASES {
        let n_add = r.gen_index(6);
        let n_mul = r.gen_index(6);
        let n_div = r.gen_index(3);
        let mut g = Dfg::new("mix");
        let a = g.input(InPortId(0));
        let mut v = a;
        for _ in 0..n_add {
            v = g.op(OpCode::Add, &[v, a]);
        }
        for _ in 0..n_mul {
            v = g.op(OpCode::Mul, &[v, a]);
        }
        for _ in 0..n_div {
            v = g.op(OpCode::Div, &[v, a]);
        }
        g.output(v, OutPortId(0));
        let total: usize = g.fu_demand().values().sum();
        assert_eq!(total, n_add + n_mul + n_div, "case {case}");
    }
}
