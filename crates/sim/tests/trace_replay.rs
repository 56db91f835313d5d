//! Timing-trace recording, compilation and replay: byte-parity with full
//! simulation on oblivious programs, structured refusal under
//! perturbation, every check of the replay walk raised by name when an
//! edited op list is compiled, and — the anti-vacuity pin — divergence on
//! a program whose timing actually depends on dataset values.

use revel_dfg::{Dfg, OpCode, Region};
use revel_fabric::{FabricMask, RevelConfig};
use revel_isa::{
    AffinePattern, ConfigId, InPortId, LaneId, LaneMask, MemTarget, OutPortId, RateFsm,
    StreamCommand, VectorCommand,
};
use revel_prog::{DynBind, DynField, DynSrc, DynStep};
use revel_sim::{
    FaultPlan, Machine, ReplayError, RevelProgram, RunReport, SimError, SimOptions, TimingTrace,
    TraceOp,
};

fn machine() -> Machine {
    Machine::new(
        RevelConfig::single_lane(),
        SimOptions { max_cycles: 200_000, ..SimOptions::default() },
    )
}

fn lane0() -> LaneMask {
    LaneMask::single(LaneId(0))
}

/// The op list and report of a timing run of `prog` on `data`.
fn record(prog: &RevelProgram, data: &[f64]) -> (Vec<TraceOp>, RunReport) {
    let mut rec = machine();
    rec.write_private(LaneId(0), 0, data);
    rec.run_recording(prog).expect("timing run")
}

/// The error compiling an edited op list of `prog` raises.
fn compile_error(prog: &RevelProgram, ops: &[TraceOp], report: &RunReport) -> ReplayError {
    let cfg = RevelConfig::single_lane();
    match TimingTrace::compile(prog, &cfg, ops, report.clone()) {
        Err(SimError::Replay(e)) => e,
        other => panic!("edited op list must fail to compile, got {other:?}"),
    }
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
fn const_stream_values_replay_byte_for_byte() {
    // x[i] + c[i], c the Table II shrinking reset pattern 0,0,0,1 / 0,0,1
    // / 0,1: a const stream's words become constant slots of the compiled
    // program, the loaded words its per-dataset loads.
    let mut g = Dfg::new("sum2");
    let a = g.input(InPortId(2));
    let b = g.input(InPortId(6));
    let s = g.op(OpCode::Add, &[a, b]);
    g.output(s, OutPortId(2));
    let mut prog = RevelProgram::new("trace-const");
    let cfg = prog.add_config(vec![Region::systolic("sum2", g, 1)]);
    let total = 4 + 3 + 2;
    let zero_then_one = revel_isa::ConstPattern::two_phase(
        revel_isa::word_from_f64(0.0),
        RateFsm::inductive(3, -1),
        revel_isa::word_from_f64(1.0),
        RateFsm::ONCE,
        3,
    );
    for cmd in [
        StreamCommand::Configure { config: ConfigId(cfg) },
        StreamCommand::load(
            MemTarget::Private,
            AffinePattern::linear(0, total),
            InPortId(2),
            RateFsm::ONCE,
        ),
        StreamCommand::konst(InPortId(6), zero_then_one),
        StreamCommand::store(
            OutPortId(2),
            MemTarget::Private,
            AffinePattern::linear(32, total),
            RateFsm::ONCE,
        ),
        StreamCommand::Wait,
    ] {
        prog.push(VectorCommand::broadcast(lane0(), cmd));
    }
    let b: Vec<f64> = (0..total).map(|i| 0.5 - i as f64).collect();
    let mut rec = machine();
    rec.write_private(LaneId(0), 0, &[10.0; 9]);
    let trace = rec.run_traced(&prog).expect("timing run");
    let mut full_b = machine();
    full_b.write_private(LaneId(0), 0, &b);
    full_b.run(&prog).expect("full sim B");
    let mut rep_b = machine();
    rep_b.write_private(LaneId(0), 0, &b);
    rep_b.replay(&prog, &trace).expect("replay B");
    assert_eq!(rep_b.read_private(LaneId(0), 0, 64), full_b.read_private(LaneId(0), 0, 64));
    let ones = [3, 6, 8];
    let expected: Vec<f64> =
        b.iter().enumerate().map(|(i, x)| x + f64::from(u8::from(ones.contains(&i)))).collect();
    assert_eq!(rep_b.read_private(LaneId(0), 32, total as usize), expected);
}

#[test]
fn a_select_whose_condition_is_not_the_last_result_replays_byte_for_byte() {
    // out = (a + b) if a < b else b, at unroll 4: each lane's select reads
    // a compare computed four results back, which the compiled program
    // must stage beside it.
    let mut g = Dfg::new("sel");
    let a = g.input(InPortId(0));
    let b = g.input(InPortId(1));
    let lt = g.op(OpCode::CmpLt, &[a, b]);
    let sum = g.op(OpCode::Add, &[a, b]);
    let out = g.op(OpCode::Select, &[sum, b, lt]);
    g.output(out, OutPortId(0));
    let mut prog = RevelProgram::new("trace-select");
    let cfg = prog.add_config(vec![Region::systolic("sel", g, 4)]);
    let load = |base, port| {
        StreamCommand::load(
            MemTarget::Private,
            AffinePattern::linear(base, 16),
            port,
            RateFsm::ONCE,
        )
    };
    for cmd in [
        StreamCommand::Configure { config: ConfigId(cfg) },
        load(0, InPortId(0)),
        load(16, InPortId(1)),
        StreamCommand::store(
            OutPortId(0),
            MemTarget::Private,
            AffinePattern::linear(64, 16),
            RateFsm::ONCE,
        ),
        StreamCommand::Wait,
    ] {
        prog.push(VectorCommand::broadcast(lane0(), cmd));
    }
    let mut rec = machine();
    rec.write_private(LaneId(0), 0, &[1.0; 32]);
    let trace = rec.run_traced(&prog).expect("timing run");
    let data: Vec<f64> = (0..32).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
    let mut full = machine();
    full.write_private(LaneId(0), 0, &data);
    full.run(&prog).expect("full sim");
    let mut rep = machine();
    rep.write_private(LaneId(0), 0, &data);
    rep.replay(&prog, &trace).expect("replay");
    assert_eq!(rep.read_private(LaneId(0), 0, 128), full.read_private(LaneId(0), 0, 128));
    let expected: Vec<f64> = (0..16)
        .map(|i| if data[i] < data[16 + i] { data[i] + data[16 + i] } else { data[16 + i] })
        .collect();
    assert_eq!(rep.read_private(LaneId(0), 64, 16), expected);
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
    let (mut ops, report) = record(&prog, &[2.0; 8]);
    let last_fire =
        ops.iter().rposition(|op| matches!(op, TraceOp::Fire { .. })).expect("the program fires");
    ops.truncate(last_fire + 1);
    let e = compile_error(&prog, &ops, &report);
    assert_eq!(
        (e.op, e.message.as_str()),
        (ops.len(), "undelivered region outputs at end of trace")
    );
}

/// The three ways the per-region result queues can disagree with a trace,
/// each reported by name and op index when the edited list is compiled.
#[test]
fn result_queue_desyncs_are_named() {
    let prog = neg_prog(16);
    let (ops, report) = record(&prog, &[2.0; 16]);
    let first_fire = ops.iter().position(|op| matches!(op, TraceOp::Fire { .. })).expect("fires");
    let last_deliver =
        ops.iter().rposition(|op| matches!(op, TraceOp::Deliver { .. })).expect("delivers");
    let edited = |at: usize, op: TraceOp| {
        let mut ops = ops.clone();
        ops.insert(at, op);
        compile_error(&prog, &ops, &report)
    };

    // One delivery more than there were fires.
    let e = edited(last_deliver + 1, TraceOp::Deliver { lane: 0, region: 0 });
    assert_eq!(
        (e.op, e.message.as_str()),
        (last_deliver + 1, "delivery with no fired result in flight")
    );

    // A systolic region's result is not a temporal retirement's to take,
    // nor is a region the configuration does not have.
    for wrong in
        [TraceOp::RetireTemp { lane: 0, region: 0 }, TraceOp::Deliver { lane: 0, region: 9 }]
    {
        let e = edited(first_fire + 1, wrong);
        assert_eq!(
            (e.op, e.message.as_str()),
            (first_fire + 1, "delivery with no fired result in flight"),
            "{wrong:?}"
        );
    }

    // Reconfiguring over a fired, undelivered result.
    let e = edited(first_fire + 1, TraceOp::Configure { lane: 0, config: 0 });
    assert_eq!(
        (e.op, e.message.as_str()),
        (first_fire + 1, "reconfigure with undelivered region outputs")
    );

    // The trace ends with a result still in flight.
    let e = compile_error(&prog, &ops[..=first_fire], &report);
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
    // An op list whose load addresses walk off the scratchpad must produce
    // SimError::Replay naming the first such load (the serve path relies on
    // this never panicking through the worker fence).
    let prog = neg_prog(8);
    let (mut ops, report) = record(&prog, &[1.0; 8]);
    let first_load =
        ops.iter().position(|op| matches!(op, TraceOp::PushMem { .. })).expect("the program loads");
    for op in &mut ops {
        if let TraceOp::PushMem { addr, .. } = op {
            *addr += 1_000_000;
        }
    }
    let e = compile_error(&prog, &ops, &report);
    assert_eq!((e.op, e.message.as_str()), (first_load, "load address 1000000 out of bounds"));
}

#[test]
fn a_trace_replays_only_on_the_machine_configuration_it_was_recorded_on() {
    let prog = neg_prog(8);
    let mut rec = machine();
    rec.write_private(LaneId(0), 0, &[1.0; 8]);
    let trace = rec.run_traced(&prog).expect("timing run");
    let mut wider = RevelConfig::single_lane();
    wider.shared_spad_words *= 2;
    let mut other = Machine::new(wider, SimOptions::default());
    match other.replay(&prog, &trace) {
        Err(SimError::Replay(e)) => assert!(e.message.contains("machine configuration"), "{e}"),
        other => panic!("a trace must not replay on another machine, got {other:?}"),
    }
}

#[test]
fn a_timed_out_runs_trace_keeps_its_op_count_and_is_never_replayed() {
    let prog = neg_prog(16);
    let opts = SimOptions { max_cycles: 5, ..SimOptions::default() };
    let mut rec = Machine::new(RevelConfig::single_lane(), opts);
    rec.write_private(LaneId(0), 0, &[1.0; 16]);
    let trace = rec.run_traced(&prog).expect("a cut-off run still records");
    assert!(trace.report.timed_out);
    let mut m = machine();
    match m.replay(&prog, &trace) {
        Err(SimError::Replay(e)) => {
            assert_eq!(e.op, trace.len());
            assert!(e.message.contains("timed out"), "{e}");
        }
        other => panic!("a timed-out run's trace must not replay, got {other:?}"),
    }
}
