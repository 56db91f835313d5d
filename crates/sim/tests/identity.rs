//! The run path's memos key on what a program *is*: the lint gate's
//! verdict follows a `RevelProgram`'s content through mutation, and the
//! schedule cache tells a degraded fabric from a healthy one. The tests
//! share the process-wide counters, so they take turns.

use revel_dfg::{Dfg, OpCode, Region};
use revel_fabric::{FabricMask, RevelConfig};
use revel_isa::{
    AffinePattern, ConfigId, InPortId, LaneId, LaneMask, MemTarget, OutPortId, RateFsm,
    StreamCommand, VectorCommand,
};
use revel_sim::{schedule_cache_stats, ControlStep, Machine, RevelProgram, SimError, SimOptions};
use revel_verify::{verdict_memo_stats, Code};
use std::sync::Mutex;

static TURN: Mutex<()> = Mutex::new(());

fn push(prog: &mut RevelProgram, cmd: StreamCommand) {
    prog.push(VectorCommand::broadcast(LaneMask::single(LaneId(0)), cmd));
}

fn load(start: i64, len: i64) -> StreamCommand {
    StreamCommand::load(
        MemTarget::Private,
        AffinePattern::linear(start, len),
        InPortId(0),
        RateFsm::ONCE,
    )
}

/// Negates private[0..8] into private[8..16].
fn negate(name: &str) -> RevelProgram {
    let mut g = Dfg::new("neg");
    let a = g.input(InPortId(0));
    let n = g.op(OpCode::Neg, &[a]);
    g.output(n, OutPortId(0));
    let mut prog = RevelProgram::new(name);
    let c = prog.add_config(vec![Region::systolic("neg", g, 8)]);
    push(&mut prog, StreamCommand::Configure { config: ConfigId(c) });
    push(&mut prog, load(0, 8));
    push(
        &mut prog,
        StreamCommand::store(
            OutPortId(0),
            MemTarget::Private,
            AffinePattern::linear(8, 8),
            RateFsm::ONCE,
        ),
    );
    push(&mut prog, StreamCommand::Wait);
    prog
}

fn machine(opts: SimOptions) -> Machine {
    let mut m = Machine::new(RevelConfig::single_lane(), opts);
    m.write_private(LaneId(0), 0, &[1.0; 8]);
    m
}

#[test]
fn the_gate_follows_content_not_the_object() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let mut prog = negate("gate-content");
    let mut m = machine(SimOptions::default());
    let v0 = verdict_memo_stats();
    assert!(!m.run(&prog).expect("the clean program runs").timed_out);
    assert_eq!(m.read_private(LaneId(0), 8, 8), [-1.0; 8]);

    // The same `RevelProgram` value, one command longer: a load that walks
    // off the scratchpad (V005, an error). Its verdict is its own.
    let spad = m.config().lane.spad_words as i64;
    let oob = VectorCommand::broadcast(LaneMask::single(LaneId(0)), load(spad - 4, 8));
    prog.control.insert(2, ControlStep::Command(oob));
    match m.run(&prog) {
        Err(SimError::Verify(diags)) => {
            assert!(diags.iter().any(|d| d.code == Code::V005), "{diags:?}");
        }
        other => panic!("the mutated program must be refused, got {other:?}"),
    }
    // And back: the first content's verdict still stands, by lookup.
    prog.control.remove(2);
    assert!(!m.run(&prog).expect("the restored program runs").timed_out);
    let v1 = verdict_memo_stats();
    assert_eq!(
        (v1.misses - v0.misses, v1.hits - v0.hits),
        (2, 1),
        "two contents linted once each, the third run read the first's verdict"
    );
    assert_eq!(v1.misses, v1.entries as u64);

    // A clone is an equal content until it is edited.
    let mut copy = prog.clone();
    assert!(m.run(&copy).is_ok());
    assert_eq!(verdict_memo_stats().misses, v1.misses, "an unedited clone is a hit");
    let ControlStep::Command(store) = &mut copy.control[2] else { unreachable!() };
    let StreamCommand::Store { pattern, .. } = &mut store.cmd else { unreachable!() };
    pattern.start = 16;
    assert!(m.run(&copy).is_ok());
    assert_eq!(m.read_private(LaneId(0), 16, 8), [-1.0; 8]);
    assert_eq!(verdict_memo_stats().misses, v1.misses + 1, "the edited clone is linted anew");
}

#[test]
fn a_degraded_fabric_compiles_its_own_schedules() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let prog = negate("mask-identity");
    let run = |mask: FabricMask| {
        let before = schedule_cache_stats();
        let opts = SimOptions { fabric_mask: mask, ..SimOptions::default() };
        let mut m = machine(opts);
        assert!(!m.run(&prog).expect("runs").timed_out);
        assert_eq!(m.read_private(LaneId(0), 8, 8), [-1.0; 8]);
        let after = schedule_cache_stats();
        assert_eq!(after.misses, after.entries);
        (after.misses - before.misses, after.hits - before.hits)
    };
    let degraded = FabricMask::HEALTHY.with_dead_pe(0);
    assert_eq!(run(FabricMask::HEALTHY), (1, 0), "first healthy run compiles");
    assert_eq!(run(FabricMask::HEALTHY), (0, 1), "second is served");
    assert_eq!(run(degraded), (1, 0), "the mask is part of the schedule identity");
    assert_eq!(run(degraded.with_dead_link(3)), (1, 0), "each mask its own");
    assert_eq!(run(degraded), (0, 1));
    assert_eq!(run(FabricMask::HEALTHY), (0, 1), "and the healthy entry was never replaced");
}
