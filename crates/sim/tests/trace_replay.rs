//! Timing-trace recording and functional replay: byte-parity with full
//! simulation on oblivious programs, structured refusal under
//! perturbation, and — the anti-vacuity pin — divergence on a program
//! whose timing actually depends on dataset values.

use revel_dfg::{Dfg, OpCode, Region};
use revel_fabric::{FabricMask, RevelConfig};
use revel_isa::{
    AffinePattern, ConfigId, InPortId, LaneId, LaneMask, MemTarget, OutPortId, RateFsm,
    StreamCommand, VectorCommand,
};
use revel_prog::{DynBind, DynField, DynSrc, DynStep};
use revel_sim::{FaultPlan, Machine, RevelProgram, SimError, SimOptions};

fn machine() -> Machine {
    Machine::new(
        RevelConfig::single_lane(),
        SimOptions { max_cycles: 200_000, ..SimOptions::default() },
    )
}

fn lane0() -> LaneMask {
    LaneMask::single(LaneId(0))
}

/// Negate `n` values through an unroll-8 systolic region: in\[0..n\] at
/// word 0, out at word 64.
fn neg_prog(n: i64) -> RevelProgram {
    let mut g = Dfg::new("neg");
    let a = g.input(InPortId(0));
    let o = g.op(OpCode::Neg, &[a]);
    g.output(o, OutPortId(0));
    let mut prog = RevelProgram::new("trace-neg");
    let cfg = prog.add_config(vec![Region::systolic("neg", g, 8)]);
    let p = |prog: &mut RevelProgram, c| prog.push(VectorCommand::broadcast(lane0(), c));
    p(&mut prog, StreamCommand::Configure { config: ConfigId(cfg) });
    p(
        &mut prog,
        StreamCommand::load(
            MemTarget::Private,
            AffinePattern::linear(0, n),
            InPortId(0),
            RateFsm::ONCE,
        ),
    );
    p(
        &mut prog,
        StreamCommand::store(
            OutPortId(0),
            MemTarget::Private,
            AffinePattern::linear(64, n),
            RateFsm::ONCE,
        ),
    );
    p(&mut prog, StreamCommand::Wait);
    prog
}

#[test]
fn replay_reproduces_full_simulation_byte_for_byte() {
    let prog = neg_prog(16);
    let a: Vec<f64> = (0..16).map(|i| i as f64).collect();
    let b: Vec<f64> = (0..16).map(|i| (i * i) as f64 - 3.5).collect();

    // Record the trace on dataset A; its embedded report must match a
    // plain full run of A byte-for-byte.
    let mut rec = machine();
    rec.write_private(LaneId(0), 0, &a);
    let trace = rec.run_traced(&prog).expect("timing run");
    assert!(!trace.is_empty(), "a real program records ops");
    let mut full_a = machine();
    full_a.write_private(LaneId(0), 0, &a);
    let report_a = full_a.run(&prog).expect("full sim A");
    assert_eq!(trace.report.canonical_text(), report_a.canonical_text());

    // Replay the A-recorded trace on dataset B: every scratchpad word
    // must match a full simulation of B.
    let mut full_b = machine();
    full_b.write_private(LaneId(0), 0, &b);
    full_b.run(&prog).expect("full sim B");
    let mut rep_b = machine();
    rep_b.write_private(LaneId(0), 0, &b);
    rep_b.replay(&prog, &trace).expect("replay B");
    assert_eq!(
        rep_b.read_private(LaneId(0), 0, 128),
        full_b.read_private(LaneId(0), 0, 128),
        "replayed scratchpad image must be byte-identical to full simulation"
    );
    assert_eq!(rep_b.read_private(LaneId(0), 64, 16), b.iter().map(|x| -x).collect::<Vec<_>>());
}

#[test]
fn replay_is_repeatable_on_the_same_machine() {
    // A machine that just replayed can be re-initialized and replayed
    // again (servers reuse machines across batch lanes).
    let prog = neg_prog(8);
    let mut rec = machine();
    rec.write_private(LaneId(0), 0, &[1.0; 8]);
    let trace = rec.run_traced(&prog).expect("timing run");
    let mut m = machine();
    for round in 1..4 {
        let data = vec![round as f64; 8];
        m.write_private(LaneId(0), 0, &data);
        // Stale output words from the previous round are overwritten by
        // the replayed stores.
        m.replay(&prog, &trace).expect("replay");
        assert_eq!(m.read_private(LaneId(0), 64, 8), vec![-(round as f64); 8]);
    }
}

#[test]
fn run_traced_refuses_perturbed_machines() {
    let prog = neg_prog(8);
    let faulted =
        SimOptions { fault_plan: Some(FaultPlan::new(7, 2, 1000)), ..SimOptions::default() };
    let degraded = SimOptions {
        fabric_mask: FabricMask { dead_pes: 1, dead_links: 0 },
        ..SimOptions::default()
    };
    for (what, opts) in [("fault-injected", faulted), ("degraded-fabric", degraded)] {
        let mut m = Machine::new(RevelConfig::single_lane(), opts);
        m.write_private(LaneId(0), 0, &[1.0; 8]);
        match m.run_traced(&prog) {
            Err(SimError::Replay(e)) => {
                assert!(e.message.contains("fault"), "message names the refusal: {e}");
            }
            other => panic!("{what} timing run must be refused, got {other:?}"),
        }
    }
}

#[test]
fn truncated_trace_is_a_structured_error() {
    // A trace with fired-but-undelivered region outputs (here: cut off
    // mid-flight) must surface as SimError::Replay, never a panic.
    let prog = neg_prog(8);
    let mut rec = machine();
    rec.write_private(LaneId(0), 0, &[2.0; 8]);
    let mut trace = rec.run_traced(&prog).expect("timing run");
    let last_fire = trace
        .ops
        .iter()
        .rposition(|op| matches!(op, revel_sim::TraceOp::Fire { .. }))
        .expect("the program fires");
    trace.ops.truncate(last_fire + 1);
    let mut m = machine();
    m.write_private(LaneId(0), 0, &[2.0; 8]);
    match m.replay(&prog, &trace) {
        Err(SimError::Replay(_)) => {}
        other => panic!("truncated trace must desynchronize, got {other:?}"),
    }
}

/// The three ways the replayer's per-region result queues can disagree with
/// a trace, each reported by name.
#[test]
fn result_queue_desyncs_are_named() {
    use revel_sim::TraceOp;
    let prog = neg_prog(16);
    let mut rec = machine();
    rec.write_private(LaneId(0), 0, &[2.0; 16]);
    let trace = rec.run_traced(&prog).expect("timing run");
    let first_fire =
        trace.ops.iter().position(|op| matches!(op, TraceOp::Fire { .. })).expect("fires");
    let last_deliver =
        trace.ops.iter().rposition(|op| matches!(op, TraceOp::Deliver { .. })).expect("delivers");
    let replay_error = |ops: Vec<TraceOp>| {
        let mut m = machine();
        m.write_private(LaneId(0), 0, &[2.0; 16]);
        match m.replay(&prog, &revel_sim::TimingTrace { ops, ..trace.clone() }) {
            Err(SimError::Replay(e)) => e,
            other => panic!("edited trace must desynchronize, got {other:?}"),
        }
    };

    // One delivery more than there were fires.
    let mut ops = trace.ops.clone();
    ops.insert(last_deliver + 1, TraceOp::Deliver { lane: 0, region: 0 });
    let e = replay_error(ops);
    assert_eq!(
        (e.op, e.message.as_str()),
        (last_deliver + 1, "delivery with no fired result in flight")
    );

    // A systolic region's result is not a temporal retirement's to take,
    // nor is a region the configuration does not have.
    for wrong in
        [TraceOp::RetireTemp { lane: 0, region: 0 }, TraceOp::Deliver { lane: 0, region: 9 }]
    {
        let mut ops = trace.ops.clone();
        ops.insert(first_fire + 1, wrong);
        let e = replay_error(ops);
        assert_eq!(
            (e.op, e.message.as_str()),
            (first_fire + 1, "delivery with no fired result in flight"),
            "{wrong:?}"
        );
    }

    // Reconfiguring over a fired, undelivered result.
    let mut ops = trace.ops.clone();
    ops.insert(first_fire + 1, TraceOp::Configure { lane: 0, config: 0 });
    let e = replay_error(ops);
    assert_eq!(
        (e.op, e.message.as_str()),
        (first_fire + 1, "reconfigure with undelivered region outputs")
    );

    // The trace ends with a result still in flight.
    let mut ops = trace.ops.clone();
    ops.truncate(first_fire + 1);
    let e = replay_error(ops);
    assert_eq!(
        (e.op, e.message.as_str()),
        (first_fire + 1, "undelivered region outputs at end of trace")
    );
}

/// The anti-vacuity pin (ISSUE 7 satellite): a program whose stream
/// lengths are *data*-dependent (a `Dyn` bind reading a word of the
/// dataset) must (a) be refused by the obliviousness certifier, and
/// (b) actually diverge when an A-recorded trace is replayed on B —
/// proving the replay path is gated by something real.
#[test]
fn value_dependent_length_diverges_and_is_refused() {
    const LEN_ADDR: i64 = 63;
    let mut g = Dfg::new("neg");
    let a = g.input(InPortId(0));
    let o = g.op(OpCode::Neg, &[a]);
    g.output(o, OutPortId(0));
    let mut prog = RevelProgram::new("trace-dyn-len");
    let cfg = prog.add_config(vec![Region::systolic("neg", g, 8)]);
    prog.push(VectorCommand::broadcast(
        lane0(),
        StreamCommand::Configure { config: ConfigId(cfg) },
    ));
    let len_bind =
        DynBind { field: DynField::PatternLenI, src: DynSrc::Private { lane: 0, addr: LEN_ADDR } };
    prog.push_dyn(DynStep {
        template: VectorCommand::broadcast(
            lane0(),
            StreamCommand::load(
                MemTarget::Private,
                AffinePattern::linear(0, 8),
                InPortId(0),
                RateFsm::ONCE,
            ),
        ),
        binds: vec![len_bind],
    });
    prog.push_dyn(DynStep {
        template: VectorCommand::broadcast(
            lane0(),
            StreamCommand::store(
                OutPortId(0),
                MemTarget::Private,
                AffinePattern::linear(32, 8),
                RateFsm::ONCE,
            ),
        ),
        binds: vec![len_bind],
    });
    prog.push(VectorCommand::broadcast(lane0(), StreamCommand::Wait));

    // (a) the cert gate refuses: the bound word is part of the dataset.
    let diags = revel_verify::certify(&prog, &RevelConfig::single_lane())
        .expect_err("value-dependent stream length must not certify");
    assert!(!diags.is_empty());

    // (b) replaying A's trace on B silently computes A's *shape* over B's
    // values — different from a full simulation of B.
    let input: Vec<f64> = (1..=8).map(|i| i as f64).collect();
    let mut rec = machine();
    rec.write_private(LaneId(0), 0, &input);
    rec.write_private(LaneId(0), LEN_ADDR, &[8.0]);
    let trace = rec.run_traced(&prog).expect("timing run on A");

    let mut full_b = machine();
    full_b.write_private(LaneId(0), 0, &input);
    full_b.write_private(LaneId(0), LEN_ADDR, &[4.0]);
    let rb = full_b.run(&prog).expect("full sim B");
    assert!(!rb.timed_out);

    let mut rep_b = machine();
    rep_b.write_private(LaneId(0), 0, &input);
    rep_b.write_private(LaneId(0), LEN_ADDR, &[4.0]);
    let diverged = match rep_b.replay(&prog, &trace) {
        Err(SimError::Replay(_)) => true,
        Err(other) => panic!("unexpected error class: {other}"),
        Ok(()) => rep_b.read_private(LaneId(0), 32, 8) != full_b.read_private(LaneId(0), 32, 8),
    };
    assert!(diverged, "uncertified program's replay must diverge from full simulation");
    // Also check the timing runs themselves differ — the length change is
    // timing-visible, which is exactly what the certifier refuses to rule
    // out statically.
    assert_ne!(trace.report.canonical_text(), rb.canonical_text());
}

#[test]
fn replay_surfaces_out_of_bounds_as_sim_error() {
    // A trace whose load addresses walk off the replay machine's
    // scratchpad must produce SimError::Replay (the serve path relies on
    // this never panicking through the worker fence).
    let prog = neg_prog(8);
    let mut rec = machine();
    rec.write_private(LaneId(0), 0, &[1.0; 8]);
    let mut trace = rec.run_traced(&prog).expect("timing run");
    for op in &mut trace.ops {
        if let revel_sim::TraceOp::PushMem { addr, .. } = op {
            *addr += 1_000_000;
        }
    }
    let mut m = machine();
    m.write_private(LaneId(0), 0, &[1.0; 8]);
    match m.replay(&prog, &trace) {
        Err(SimError::Replay(e)) => assert!(e.message.contains("out of bounds"), "{e}"),
        other => panic!("OOB replay must be a structured error, got {other:?}"),
    }
}
