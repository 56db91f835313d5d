//! Focused tests for the simulator's dependence machinery: production
//! modes, XFER row tracking, accumulator retuning, scratchpad store→load
//! ordering, and the command-issue rules. Each of these was motivated by a
//! concrete kernel; here they are pinned down in isolation.

use revel_dfg::{Dfg, OpCode, Region};
use revel_fabric::RevelConfig;
use revel_isa::{
    AffinePattern, ConfigId, InPortId, LaneId, LaneMask, MemTarget, OutPortId, RateFsm,
    StreamCommand, VectorCommand,
};
use revel_sim::{Machine, RevelProgram, SimOptions};

fn machine() -> Machine {
    Machine::new(
        RevelConfig::single_lane(),
        SimOptions { predication: true, max_cycles: 100_000, ..SimOptions::default() },
    )
}

fn lane0() -> LaneMask {
    LaneMask::single(LaneId(0))
}

/// Identity region: copies in2 -> out2 (and out3).
fn copy_region(dual: bool, unroll: usize) -> Region {
    let mut g = Dfg::new("copy");
    let a = g.input(InPortId(2));
    let m = g.op(OpCode::Mov, &[a]);
    g.output(m, OutPortId(2));
    if dual {
        g.output(m, OutPortId(3));
    }
    Region::systolic("copy", g, unroll)
}

#[test]
fn keep_first_xfer_forwards_group_heads() {
    // Stream 0..12 through, group size 4 (keep-first): heads 0, 4, 8 reach
    // the consumer; a second region doubles them so we can observe.
    let mut prog = RevelProgram::new("keepfirst");
    let mut g2 = Dfg::new("dbl");
    let b = g2.input(InPortId(6));
    let two = g2.konst(2.0);
    let d = g2.op(OpCode::Mul, &[b, two]);
    g2.output(d, OutPortId(6));
    let cfg = prog.add_config(vec![copy_region(false, 1), Region::temporal("dbl", g2)]);
    let p = |prog: &mut RevelProgram, c| prog.push(VectorCommand::broadcast(lane0(), c));
    p(&mut prog, StreamCommand::Configure { config: ConfigId(cfg) });
    p(
        &mut prog,
        StreamCommand::load(
            MemTarget::Private,
            AffinePattern::linear(0, 12),
            InPortId(2),
            RateFsm::ONCE,
        ),
    );
    p(
        &mut prog,
        StreamCommand::xfer(OutPortId(2), InPortId(6), 3, RateFsm::fixed(4), RateFsm::ONCE),
    );
    p(
        &mut prog,
        StreamCommand::store(
            OutPortId(6),
            MemTarget::Private,
            AffinePattern::linear(32, 3),
            RateFsm::ONCE,
        ),
    );
    p(&mut prog, StreamCommand::Wait);

    let mut m = machine();
    let vals: Vec<f64> = (0..12).map(|i| i as f64).collect();
    m.write_private(LaneId(0), 0, &vals);
    let r = m.run(&prog).unwrap();
    assert!(!r.timed_out);
    assert_eq!(m.read_private(LaneId(0), 32, 3), [0.0, 8.0, 16.0]);
}

#[test]
fn drop_first_xfer_forwards_group_tails_with_rows() {
    // Groups of 3 (drop-first): values 1,2, 4,5, 7,8 forwarded; rows of 2
    // mark the group boundaries for the vectorized consumer.
    let mut prog = RevelProgram::new("dropfirst");
    let mut g2 = Dfg::new("neg");
    let b = g2.input(InPortId(3));
    let d = g2.op(OpCode::Neg, &[b]);
    // Out-port 3 is 4 words wide, matching the unroll (port 6 is scalar
    // and would fail the V012 width lint).
    g2.output(d, OutPortId(3));
    let cfg = prog.add_config(vec![copy_region(false, 1), Region::systolic("neg", g2, 4)]);
    let p = |prog: &mut RevelProgram, c| prog.push(VectorCommand::broadcast(lane0(), c));
    p(&mut prog, StreamCommand::Configure { config: ConfigId(cfg) });
    p(
        &mut prog,
        StreamCommand::load(
            MemTarget::Private,
            AffinePattern::linear(0, 9),
            InPortId(2),
            RateFsm::ONCE,
        ),
    );
    p(
        &mut prog,
        StreamCommand::xfer_tail(
            OutPortId(2),
            InPortId(3),
            6,
            RateFsm::fixed(3),
            RateFsm::fixed(2),
        ),
    );
    p(
        &mut prog,
        StreamCommand::store(
            OutPortId(3),
            MemTarget::Private,
            AffinePattern::linear(32, 6),
            RateFsm::ONCE,
        ),
    );
    p(&mut prog, StreamCommand::Wait);

    let mut m = machine();
    let vals: Vec<f64> = (0..9).map(|i| i as f64).collect();
    m.write_private(LaneId(0), 0, &vals);
    let r = m.run(&prog).unwrap();
    assert!(!r.timed_out);
    assert_eq!(m.read_private(LaneId(0), 32, 6), [-1.0, -2.0, -4.0, -5.0, -7.0, -8.0]);
}

#[test]
fn set_accum_len_retunes_between_phases() {
    // Accumulate 8 values as 2 groups of 4, then retune to groups of 2.
    let mut prog = RevelProgram::new("retune");
    let mut g = Dfg::new("acc");
    let a = g.input(InPortId(2));
    let acc = g.accum(a, RateFsm::fixed(4));
    g.output(acc, OutPortId(2));
    let cfg = prog.add_config(vec![Region::systolic("acc", g, 1)]);
    let p = |prog: &mut RevelProgram, c| prog.push(VectorCommand::broadcast(lane0(), c));
    p(&mut prog, StreamCommand::Configure { config: ConfigId(cfg) });
    p(
        &mut prog,
        StreamCommand::load(
            MemTarget::Private,
            AffinePattern::linear(0, 8),
            InPortId(2),
            RateFsm::ONCE,
        ),
    );
    p(
        &mut prog,
        StreamCommand::store(
            OutPortId(2),
            MemTarget::Private,
            AffinePattern::linear(32, 2),
            RateFsm::ONCE,
        ),
    );
    p(&mut prog, StreamCommand::Wait);
    p(&mut prog, StreamCommand::SetAccumLen { region: 0, len: RateFsm::fixed(2) });
    p(
        &mut prog,
        StreamCommand::load(
            MemTarget::Private,
            AffinePattern::linear(0, 4),
            InPortId(2),
            RateFsm::ONCE,
        ),
    );
    p(
        &mut prog,
        StreamCommand::store(
            OutPortId(2),
            MemTarget::Private,
            AffinePattern::linear(34, 2),
            RateFsm::ONCE,
        ),
    );
    p(&mut prog, StreamCommand::Wait);

    let mut m = machine();
    m.write_private(LaneId(0), 0, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    let r = m.run(&prog).unwrap();
    assert!(!r.timed_out);
    // Phase 1: 1+2+3+4, 5+6+7+8. Phase 2 (len 2): 1+2, 3+4.
    assert_eq!(m.read_private(LaneId(0), 32, 4), [10.0, 26.0, 3.0, 7.0]);
}

#[test]
fn store_to_load_ordering_write_once() {
    // Producer writes 8 values through memory; a later load reads them.
    // Without the guard the load (issued while the store still runs) would
    // read zeros.
    let mut prog = RevelProgram::new("throughmem");
    let cfg = prog.add_config(vec![copy_region(false, 1)]);
    let p = |prog: &mut RevelProgram, c| prog.push(VectorCommand::broadcast(lane0(), c));
    p(&mut prog, StreamCommand::Configure { config: ConfigId(cfg) });
    // Phase A: copy input -> scratch.
    p(
        &mut prog,
        StreamCommand::load(
            MemTarget::Private,
            AffinePattern::linear(0, 8),
            InPortId(2),
            RateFsm::ONCE,
        ),
    );
    p(
        &mut prog,
        StreamCommand::store(
            OutPortId(2),
            MemTarget::Private,
            AffinePattern::linear(16, 8),
            RateFsm::ONCE,
        ),
    );
    // Phase B (no barrier!): copy scratch -> result; the guard must hold
    // each element until phase A writes it.
    p(
        &mut prog,
        StreamCommand::load(
            MemTarget::Private,
            AffinePattern::linear(16, 8),
            InPortId(2),
            RateFsm::ONCE,
        ),
    );
    p(
        &mut prog,
        StreamCommand::store(
            OutPortId(2),
            MemTarget::Private,
            AffinePattern::linear(32, 8),
            RateFsm::ONCE,
        ),
    );
    p(&mut prog, StreamCommand::Wait);

    let mut m = machine();
    let vals: Vec<f64> = (1..=8).map(|i| i as f64).collect();
    m.write_private(LaneId(0), 0, &vals);
    let r = m.run(&prog).unwrap();
    assert!(!r.timed_out);
    assert_eq!(m.read_private(LaneId(0), 32, 8), vals.as_slice());
}

#[test]
fn inter_lane_xfer_moves_data_right() {
    let mut cfg_m = RevelConfig::paper_default();
    cfg_m.num_lanes = 2;
    let mut m = Machine::new(cfg_m, SimOptions::default());

    let mut prog = RevelProgram::new("ring");
    let cfg = prog.add_config(vec![copy_region(false, 1)]);
    // Lane 0: load + copy + xfer right into lane 1's in2... lane 1's
    // region also copies and stores.
    prog.push(VectorCommand::broadcast(
        LaneMask::all(2),
        StreamCommand::Configure { config: ConfigId(cfg) },
    ));
    prog.push(VectorCommand::on_lane(
        LaneId(0),
        StreamCommand::load(
            MemTarget::Private,
            AffinePattern::linear(0, 6),
            InPortId(2),
            RateFsm::ONCE,
        ),
    ));
    prog.push(VectorCommand::on_lane(
        LaneId(0),
        StreamCommand::xfer_right(OutPortId(2), InPortId(2), 6, RateFsm::ONCE, RateFsm::ONCE),
    ));
    prog.push(VectorCommand::on_lane(
        LaneId(1),
        StreamCommand::store(
            OutPortId(2),
            MemTarget::Private,
            AffinePattern::linear(8, 6),
            RateFsm::ONCE,
        ),
    ));
    prog.push(VectorCommand::broadcast(LaneMask::all(2), StreamCommand::Wait));

    let vals = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
    m.write_private(LaneId(0), 0, &vals);
    let r = m.run(&prog).unwrap();
    assert!(!r.timed_out, "inter-lane transfer deadlocked");
    assert_eq!(m.read_private(LaneId(1), 8, 6), vals.as_slice());
}

#[test]
fn dual_output_regions_feed_two_streams() {
    let mut prog = RevelProgram::new("dual");
    let cfg = prog.add_config(vec![copy_region(true, 1)]);
    let p = |prog: &mut RevelProgram, c| prog.push(VectorCommand::broadcast(lane0(), c));
    p(&mut prog, StreamCommand::Configure { config: ConfigId(cfg) });
    p(
        &mut prog,
        StreamCommand::load(
            MemTarget::Private,
            AffinePattern::linear(0, 5),
            InPortId(2),
            RateFsm::ONCE,
        ),
    );
    p(
        &mut prog,
        StreamCommand::store(
            OutPortId(2),
            MemTarget::Private,
            AffinePattern::linear(16, 5),
            RateFsm::ONCE,
        ),
    );
    p(
        &mut prog,
        StreamCommand::store(
            OutPortId(3),
            MemTarget::Private,
            AffinePattern::linear(24, 5),
            RateFsm::ONCE,
        ),
    );
    p(&mut prog, StreamCommand::Wait);

    let mut m = machine();
    let vals = [1.0, 2.0, 3.0, 4.0, 5.0];
    m.write_private(LaneId(0), 0, &vals);
    let r = m.run(&prog).unwrap();
    assert!(!r.timed_out);
    assert_eq!(m.read_private(LaneId(0), 16, 5), vals.as_slice());
    assert_eq!(m.read_private(LaneId(0), 24, 5), vals.as_slice());
}

#[test]
fn inductive_const_stream_drives_a_port() {
    // The Const pattern of Table II: 0,0,0,1 / 0,0,1 / 0,1 / 1 — the
    // shrinking reset pattern the paper uses as its example.
    use revel_isa::ConstPattern;
    let mut prog = RevelProgram::new("const");
    let mut g = Dfg::new("sum2");
    let a = g.input(InPortId(2));
    let b = g.input(InPortId(6));
    let s = g.op(OpCode::Add, &[a, b]);
    g.output(s, OutPortId(2));
    let cfg = prog.add_config(vec![Region::systolic("sum2", g, 1)]);
    let p = |prog: &mut RevelProgram, c| prog.push(VectorCommand::broadcast(lane0(), c));
    p(&mut prog, StreamCommand::Configure { config: ConfigId(cfg) });
    let total = 4 + 3 + 2; // the paper's example: 0,0,0,1,0,0,1,0,1
    p(
        &mut prog,
        StreamCommand::load(
            MemTarget::Private,
            AffinePattern::linear(0, total),
            InPortId(2),
            RateFsm::ONCE,
        ),
    );
    p(
        &mut prog,
        StreamCommand::konst(
            InPortId(6),
            ConstPattern::two_phase(
                revel_isa::word_from_f64(0.0),
                RateFsm::inductive(3, -1),
                revel_isa::word_from_f64(1.0),
                RateFsm::ONCE,
                3,
            ),
        ),
    );
    p(
        &mut prog,
        StreamCommand::store(
            OutPortId(2),
            MemTarget::Private,
            AffinePattern::linear(32, total),
            RateFsm::ONCE,
        ),
    );
    p(&mut prog, StreamCommand::Wait);

    let mut m = machine();
    m.write_private(LaneId(0), 0, &vec![10.0; total as usize]);
    let r = m.run(&prog).unwrap();
    assert!(!r.timed_out);
    let out = m.read_private(LaneId(0), 32, total as usize);
    let expect = [10., 10., 10., 11., 10., 10., 11., 10., 11.];
    assert_eq!(out, expect);
}

/// A width-4 `Neg` region on in3 → out3.
fn neg_region() -> Region {
    let mut g = Dfg::new("neg");
    let a = g.input(InPortId(3));
    let n = g.op(OpCode::Neg, &[a]);
    g.output(n, OutPortId(3));
    Region::systolic("neg", g, 4)
}

/// Runs `prog` on one lane within 2 000 cycles from a scratchpad holding
/// 1, 2, 3, … and returns the six words at 32.
fn run_short(prog: &RevelProgram) -> Vec<f64> {
    let opts = SimOptions { max_cycles: 2_000, ..SimOptions::default() };
    let mut m = Machine::new(RevelConfig::single_lane(), opts);
    let vals: Vec<f64> = (1..=16).map(f64::from).collect();
    m.write_private(LaneId(0), 0, &vals);
    let r = m.run(prog).unwrap();
    assert!(!r.timed_out, "{}: timed out", prog.name);
    m.read_private(LaneId(0), 32, 6)
}

#[test]
fn a_const_stream_flushes_its_partial_last_vector() {
    // Three words into a width-4 port: the last vector is partial, and
    // the store of three words waits on it.
    let mut prog = RevelProgram::new("partial-const");
    let cfg = prog.add_config(vec![copy_region(false, 4)]);
    let p = |prog: &mut RevelProgram, c| prog.push(VectorCommand::broadcast(lane0(), c));
    p(&mut prog, StreamCommand::Configure { config: ConfigId(cfg) });
    let konst = revel_isa::ConstPattern::repeat(2.5f64.to_bits(), 3);
    p(&mut prog, StreamCommand::konst(InPortId(2), konst));
    p(
        &mut prog,
        StreamCommand::store(
            OutPortId(2),
            MemTarget::Private,
            AffinePattern::linear(32, 3),
            RateFsm::ONCE,
        ),
    );
    p(&mut prog, StreamCommand::Wait);
    assert_eq!(run_short(&prog), [2.5, 2.5, 2.5, 0.0, 0.0, 0.0]);
}

#[test]
fn a_local_xfer_flushes_its_partial_last_vector() {
    // in2 → copy → out2 → XFER (3 words) → in3 → neg → out3 → memory.
    let mut prog = RevelProgram::new("partial-xfer");
    let cfg = prog.add_config(vec![copy_region(false, 4), neg_region()]);
    let p = |prog: &mut RevelProgram, c| prog.push(VectorCommand::broadcast(lane0(), c));
    p(&mut prog, StreamCommand::Configure { config: ConfigId(cfg) });
    p(
        &mut prog,
        StreamCommand::load(
            MemTarget::Private,
            AffinePattern::linear(0, 3),
            InPortId(2),
            RateFsm::ONCE,
        ),
    );
    p(&mut prog, StreamCommand::xfer(OutPortId(2), InPortId(3), 3, RateFsm::ONCE, RateFsm::ONCE));
    p(
        &mut prog,
        StreamCommand::store(
            OutPortId(3),
            MemTarget::Private,
            AffinePattern::linear(32, 3),
            RateFsm::ONCE,
        ),
    );
    p(&mut prog, StreamCommand::Wait);
    assert_eq!(run_short(&prog), [-1.0, -2.0, -3.0, 0.0, 0.0, 0.0]);
}
