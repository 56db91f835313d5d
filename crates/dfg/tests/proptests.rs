//! Property-style tests for dataflow-graph evaluation: predication
//! propagation, accumulator algebra, and structural invariants.
//!
//! Randomized-but-deterministic via the seeded `revel_isa::Rng` (the
//! workspace builds with no external crates, so `proptest` is unavailable).

use revel_dfg::{pack_complex, Dfg, DfgEvaluator, NodeId, OpCode, Symbolic, VecVal, MAX_VEC_WIDTH};
use revel_isa::{InPortId, OutPortId, RateFsm, Rng};

const CASES: usize = 200;

/// Every opcode: the generated graphs cover each.
const ALL_OPS: [OpCode; 18] = [
    OpCode::Add,
    OpCode::Sub,
    OpCode::Mul,
    OpCode::Div,
    OpCode::Sqrt,
    OpCode::Rsqrt,
    OpCode::Recip,
    OpCode::Neg,
    OpCode::Abs,
    OpCode::Min,
    OpCode::Max,
    OpCode::CmpLt,
    OpCode::Select,
    OpCode::Mov,
    OpCode::ReduceAdd,
    OpCode::CAdd,
    OpCode::CSub,
    OpCode::CMul,
];

/// A lane value with the edge cases weighted in: both zeros, both
/// infinities, quiet and signalling NaNs with payloads and either sign,
/// packed complex words, and ordinary numbers.
fn edge_value(r: &mut Rng) -> f64 {
    let payload = r.next_u64() & ((1 << 51) - 1);
    let sign = r.next_u64() & (1 << 63);
    match r.gen_index(8) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => f64::from_bits(sign | 0x7ff8_0000_0000_0000 | payload),
        5 => f64::from_bits(sign | 0x7ff0_0000_0000_0000 | payload.max(1)),
        6 => pack_complex(r.gen_range_f64(-4.0, 4.0) as f32, r.gen_range_f64(-4.0, 4.0) as f32),
        _ => r.gen_range_f64(-100.0, 100.0),
    }
}

/// A fixed, growing or shrinking accumulation length.
fn arb_len(r: &mut Rng) -> RateFsm {
    if r.gen_bool() {
        RateFsm::fixed(r.gen_range_i64(1, 4))
    } else {
        RateFsm::inductive(r.gen_range_i64(1, 5), r.gen_range_i64(-1, 2))
    }
}

/// A graph with every node kind: 1–3 inputs, a constant, `first` and up
/// to five more random ops over earlier nodes, one accumulator of each
/// kind, and three outputs.
fn arb_dfg(r: &mut Rng, first: OpCode) -> Dfg {
    let mut g = Dfg::new("prop");
    let inputs = 1 + r.gen_index(3);
    let mut nodes: Vec<NodeId> = (0..inputs).map(|p| g.input(InPortId(p as u8))).collect();
    nodes.push(g.konst(edge_value(r)));
    for k in 0..1 + r.gen_index(6) {
        let op = if k == 0 { first } else { ALL_OPS[r.gen_index(ALL_OPS.len())] };
        let args: Vec<NodeId> = (0..op.arity()).map(|_| nodes[r.gen_index(nodes.len())]).collect();
        nodes.push(g.op(op, &args));
    }
    let pick = |r: &mut Rng| nodes[r.gen_index(nodes.len())];
    let acc = g.accum(pick(r), arb_len(r));
    let acc_vec = g.accum_vec(pick(r), arb_len(r));
    g.output(acc, OutPortId(0));
    g.output(acc_vec, OutPortId(1));
    g.output(*nodes.last().expect("ops were added"), OutPortId(2));
    g
}

/// A symbolic fire records exactly the concrete evaluator's arithmetic:
/// running its recorded ops over the same inputs gives every valid output
/// lane bit for bit — signed zeros, infinities and NaN payloads included —
/// and the same predicates, across accumulation windows, `set_accum_len`
/// and `reset`.
#[test]
fn symbolic_fires_record_the_concrete_arithmetic_bit_for_bit() {
    let mut r = Rng::seed_from_u64(0xDF6_0006);
    for case in 0..CASES {
        let g = arb_dfg(&mut r, ALL_OPS[case % ALL_OPS.len()]);
        let width = 1 + r.gen_index(MAX_VEC_WIDTH);
        let mut concrete = g.evaluator(width);
        let mut symbolic = DfgEvaluator::<Symbolic>::new(&g, width);
        let mut sym = Symbolic::default();
        // The value of every slot `sym` has named; slot 0 is +0.0.
        let mut slots = vec![0.0];
        for fire in 0..12 {
            match r.gen_index(8) {
                0 => {
                    let len = arb_len(&mut r);
                    concrete.set_accum_len(len);
                    symbolic.set_accum_len(len);
                }
                1 => {
                    concrete.reset();
                    symbolic.reset();
                }
                _ => {}
            }
            let (mut inputs, mut named) = (Vec::new(), Vec::new());
            for _ in 0..concrete.num_inputs() {
                let lanes: Vec<f64> = (0..width).map(|_| edge_value(&mut r)).collect();
                let pred = r.gen_index(1 << width) as u8;
                let names: Vec<u32> = lanes.iter().map(|_| sym.fresh()).collect();
                slots.resize(sym.slots(), 0.0);
                for (&slot, &x) in names.iter().zip(&lanes) {
                    slots[slot as usize] = x;
                }
                inputs.push(VecVal::with_pred(&lanes, pred));
                named.push(VecVal::with_pred(&names, pred));
            }
            let want = concrete.fire(&inputs).to_vec();
            let got = symbolic.fire_in(&mut sym, &named).to_vec();
            slots.resize(sym.slots(), 0.0);
            for &(slot, bits) in sym.constants() {
                slots[slot as usize] = f64::from_bits(bits);
            }
            for op in sym.drain_ops() {
                let [a, b, c] = op.args.map(|s| slots[s as usize]);
                slots[op.out as usize] = op.op.apply3(a, b, c);
            }
            assert_eq!(want.len(), got.len(), "case {case}");
            for (k, ((port, w), (_, s))) in want.iter().zip(&got).enumerate() {
                let what = format!("case {case} fire {fire} output {k} ({port:?})");
                assert_eq!(w.pred(), s.pred(), "{what}: predicate");
                for lane in (0..width).filter(|&lane| s.get(lane).is_some()) {
                    let slot = s.raw(lane) as usize;
                    assert_eq!(slots[slot].to_bits(), w.raw(lane).to_bits(), "{what} lane {lane}");
                }
            }
        }
    }
}

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
