//! Timing-trace recording and replay: byte-parity with full simulation, a
//! recording run that leaves memory untouched, and structured refusal under
//! perturbation and on the wrong machine.

use revel_dfg::{Dfg, OpCode, Region};
use revel_fabric::{FabricMask, RevelConfig};
use revel_isa::{
    AffinePattern, ConfigId, InPortId, LaneId, LaneMask, MemTarget, OutPortId, RateFsm,
    StreamCommand, VectorCommand,
};
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
    // a compare computed four results back, which its step names as its
    // third operand.
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
    // A cut-off run's program is not kept: the trace holds its report and
    // no step, and no machine replays it.
    let prog = neg_prog(16);
    let opts = SimOptions { max_cycles: 5, ..SimOptions::default() };
    let mut rec = Machine::new(RevelConfig::single_lane(), opts);
    rec.write_private(LaneId(0), 0, &[1.0; 16]);
    let trace = rec.run_traced(&prog).expect("a cut-off run still records");
    assert!(trace.report.timed_out);
    assert_eq!((trace.len(), trace.is_empty()), (0, true));
    let mut m = machine();
    match m.replay(&prog, &trace) {
        Err(SimError::Replay(e)) => assert!(e.message.contains("timed out"), "{e}"),
        other => panic!("a timed-out run's trace must not replay, got {other:?}"),
    }
}

#[test]
fn a_recording_run_leaves_the_scratchpads_as_it_found_them() {
    // The run computes no value and runs no store: every word of both
    // scratchpads is what was written before it, while a concrete run of
    // the same program writes its outputs.
    let prog = neg_prog(16);
    let data: Vec<f64> = (0..16).map(|i| i as f64 - 7.5).collect();
    let image = |m: &Machine| {
        let cfg = m.config();
        let mut words = m.read_private(LaneId(0), 0, cfg.lane.spad_words);
        words.extend(m.read_shared(0, cfg.shared_spad_words));
        words.into_iter().map(f64::to_bits).collect::<Vec<_>>()
    };
    let mut rec = machine();
    rec.write_private(LaneId(0), 0, &data);
    rec.write_shared(3, &[2.5, -1.0]);
    let before = image(&rec);
    let trace = rec.run_traced(&prog).expect("timing run");
    assert_eq!(trace.len(), 16, "one negation per word");
    assert!(image(&rec) == before, "a recording run changed the scratchpads");
    rec.run(&prog).expect("full sim");
    assert_ne!(image(&rec), before, "a concrete run writes its outputs");
}
