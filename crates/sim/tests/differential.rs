//! The differential stepper oracle: the event-horizon loop must be
//! observationally indistinguishable from the naive reference stepper.
//!
//! Seeded randomized stream programs (spanning systolic and temporal
//! regions, vector widths, XFERs, reconfigurations, inter-lane transfers,
//! and deliberate deadlocks) run under both loops; reports must be
//! bit-identical in every observable field and the final scratchpad
//! contents must match bit-for-bit. The workload-suite cross-check lives
//! in the `grid_oracle` harness binary (the reference stepper is one of
//! the ways each grid cell is computed); this test covers program shapes
//! the suite kernels never produce.

use revel_dfg::{Dfg, OpCode, Region};
use revel_fabric::RevelConfig;
use revel_isa::{
    AffinePattern, ConfigId, InPortId, LaneId, LaneMask, MemTarget, OutPortId, RateFsm, Rng,
    StreamCommand, VectorCommand,
};
use revel_sim::{CycleClass, Machine, RevelProgram, RunReport, SimOptions};

/// Input ports grouped by hardware width (see `LaneConfig::paper_default`).
const PORTS_BY_WIDTH: [(usize, &[u8]); 4] =
    [(8, &[0, 1]), (4, &[2, 3]), (2, &[4, 5]), (1, &[6, 7, 8, 9, 10, 11])];

fn broadcast(prog: &mut RevelProgram, lanes: usize, cmd: StreamCommand) {
    prog.push(VectorCommand::broadcast(LaneMask::all(lanes as u8), cmd));
}

/// A random single-input op chain from `in_p` to `out_p`, at most `max_ops`
/// operations deep (bounding PE demand: `max_ops * width` must fit the
/// lane's per-class PE budget).
fn random_chain_region(
    rng: &mut Rng,
    name: &str,
    in_p: u8,
    out_p: u8,
    width: usize,
    max_ops: usize,
) -> Region {
    let mut g = Dfg::new(name);
    let mut x = g.input(InPortId(in_p));
    for _ in 0..rng.gen_index(max_ops) + 1 {
        x = match rng.gen_index(4) {
            0 => g.op(OpCode::Mov, &[x]),
            1 => g.op(OpCode::Neg, &[x]),
            2 => g.op(OpCode::Add, &[x, x]),
            _ => g.op(OpCode::Mul, &[x, x]),
        };
    }
    g.output(x, OutPortId(out_p));
    Region::systolic(name, g, width)
}

/// One single-lane phase: configure, load N words through the region on
/// `port`, store them back at `base`.
fn push_phase(prog: &mut RevelProgram, cfg: u32, port: u8, base: i64, n: i64) {
    broadcast(prog, 1, StreamCommand::Configure { config: ConfigId(cfg) });
    broadcast(
        prog,
        1,
        StreamCommand::load(
            MemTarget::Private,
            AffinePattern::linear(0, n),
            InPortId(port),
            RateFsm::ONCE,
        ),
    );
    broadcast(
        prog,
        1,
        StreamCommand::store(
            OutPortId(port),
            MemTarget::Private,
            AffinePattern::linear(base, n),
            RateFsm::ONCE,
        ),
    );
    broadcast(prog, 1, StreamCommand::Wait);
}

/// Builds a seeded random single-lane program: 1–3 phases, each with its own
/// config (so reconfiguration drains run between them), a randomly chosen
/// port width (exercising vector assembly, predication, and stream-end
/// flushes), and a random element count.
fn random_program(seed: u64) -> RevelProgram {
    let mut rng = Rng::seed_from_u64(seed);
    let mut prog = RevelProgram::new(format!("differential-{seed}"));
    let phases = rng.gen_index(3) + 1;
    for ph in 0..phases {
        let (width, ports) = PORTS_BY_WIDTH[rng.gen_index(PORTS_BY_WIDTH.len())];
        let port = ports[rng.gen_index(ports.len())];
        let max_ops = (8 / width).clamp(1, 3);
        let region = random_chain_region(&mut rng, &format!("ph{ph}"), port, port, width, max_ops);
        let cfg = prog.add_config(vec![region]);
        let n = rng.gen_range_i64(1, 49);
        push_phase(&mut prog, cfg, port, 256 + (ph as i64) * 64, n);
    }
    prog
}

/// A temporal (dataflow-PE) program: long-latency Recip/Mul chains create
/// exactly the multi-cycle completion timers the event horizon skips over.
fn temporal_program(seed: u64) -> RevelProgram {
    let mut rng = Rng::seed_from_u64(seed);
    let mut prog = RevelProgram::new(format!("differential-temporal-{seed}"));
    let mut g = Dfg::new("t");
    let a = g.input(InPortId(6));
    let r = g.op(OpCode::Recip, &[a]);
    let m = g.op(OpCode::Mul, &[r, r]);
    let out = if rng.gen_bool() { m } else { g.op(OpCode::Neg, &[m]) };
    g.output(out, OutPortId(6));
    let cfg = prog.add_config(vec![Region::temporal("t", g)]);
    let n = rng.gen_range_i64(1, 9);
    broadcast(&mut prog, 1, StreamCommand::Configure { config: ConfigId(cfg) });
    broadcast(
        &mut prog,
        1,
        StreamCommand::load(
            MemTarget::Private,
            AffinePattern::linear(0, n),
            InPortId(6),
            RateFsm::ONCE,
        ),
    );
    broadcast(
        &mut prog,
        1,
        StreamCommand::store(
            OutPortId(6),
            MemTarget::Private,
            AffinePattern::linear(256, n),
            RateFsm::ONCE,
        ),
    );
    broadcast(&mut prog, 1, StreamCommand::Wait);
    prog
}

/// Two lanes chained by an inter-lane XFER, with a local XFER feeding a
/// second region on the destination lane.
fn xfer_program(seed: u64) -> RevelProgram {
    let mut rng = Rng::seed_from_u64(seed);
    let mut prog = RevelProgram::new(format!("differential-xfer-{seed}"));
    let mut copy = Dfg::new("copy");
    let a = copy.input(InPortId(2));
    let mv = copy.op(OpCode::Mov, &[a]);
    copy.output(mv, OutPortId(2));
    let mut neg = Dfg::new("neg");
    let b = neg.input(InPortId(3));
    let ng = neg.op(OpCode::Neg, &[b]);
    neg.output(ng, OutPortId(3));
    let cfg =
        prog.add_config(vec![Region::systolic("copy", copy, 4), Region::systolic("neg", neg, 4)]);
    // Any length: a transfer's last word ends its last vector, as a
    // load's does, so a partial vector reaches the second region.
    let n = rng.gen_range_i64(1, 33);
    broadcast(&mut prog, 2, StreamCommand::Configure { config: ConfigId(cfg) });
    prog.push(VectorCommand::on_lane(
        LaneId(0),
        StreamCommand::load(
            MemTarget::Private,
            AffinePattern::linear(0, n),
            InPortId(2),
            RateFsm::ONCE,
        ),
    ));
    prog.push(VectorCommand::on_lane(
        LaneId(0),
        StreamCommand::xfer_right(OutPortId(2), InPortId(2), n, RateFsm::ONCE, RateFsm::ONCE),
    ));
    prog.push(VectorCommand::on_lane(
        LaneId(1),
        StreamCommand::xfer(OutPortId(2), InPortId(3), n, RateFsm::ONCE, RateFsm::ONCE),
    ));
    prog.push(VectorCommand::on_lane(
        LaneId(1),
        StreamCommand::store(
            OutPortId(3),
            MemTarget::Private,
            AffinePattern::linear(256, n),
            RateFsm::ONCE,
        ),
    ));
    broadcast(&mut prog, 2, StreamCommand::Wait);
    prog
}

/// A region `name` of `width` lanes from in`port` through `op` to
/// out`port`.
fn unary_region(name: &str, port: u8, op: OpCode, width: usize) -> Region {
    let mut g = Dfg::new(name);
    let x = g.input(InPortId(port));
    let y = g.op(op, &[x]);
    g.output(y, OutPortId(port));
    Region::systolic(name, g, width)
}

/// Eight lanes in an `XferRight` ring, started one at a time: every lane
/// queues its store and its transfer into its right neighbour at once, but
/// lane `l`'s load issues only after `l + 1` host steps, so most lanes wait
/// on their left neighbour for most of the run, and lane 7 feeds lane 0.
fn staggered_ring_program() -> RevelProgram {
    const LANES: usize = 8;
    let n = 24;
    let mut prog = RevelProgram::new("differential-staggered-ring");
    let cfg = prog.add_config(vec![
        unary_region("src", 6, OpCode::Mov, 1),
        unary_region("hop", 7, OpCode::Neg, 1),
    ]);
    broadcast(&mut prog, LANES, StreamCommand::Configure { config: ConfigId(cfg) });
    broadcast(
        &mut prog,
        LANES,
        StreamCommand::store(
            OutPortId(7),
            MemTarget::Private,
            AffinePattern::linear(256, n),
            RateFsm::ONCE,
        ),
    );
    broadcast(
        &mut prog,
        LANES,
        StreamCommand::xfer_right(OutPortId(6), InPortId(7), n, RateFsm::ONCE, RateFsm::ONCE),
    );
    for lane in 0..LANES as u8 {
        prog.push_host(40, |_| {});
        prog.push(VectorCommand::on_lane(
            LaneId(lane),
            StreamCommand::load(
                MemTarget::Private,
                AffinePattern::linear(0, n),
                InPortId(6),
                RateFsm::ONCE,
            ),
        ));
    }
    broadcast(&mut prog, LANES, StreamCommand::Wait);
    prog
}

/// Eight lanes contending for the shared scratchpad's bandwidth (8 words a
/// cycle, one width-8 port's worth): each stores its private words,
/// negated, into its own block of the shared scratchpad, then loads its
/// right neighbour's block back through a copy region into private memory.
fn shared_contention_program() -> RevelProgram {
    const LANES: u8 = 8;
    let n = 40;
    let block = |lane: u8| 1024 + 64 * i64::from(lane % LANES);
    let mut prog = RevelProgram::new("differential-shared-contention");
    let store_cfg = prog.add_config(vec![unary_region("neg", 0, OpCode::Neg, 8)]);
    let load_cfg = prog.add_config(vec![unary_region("copy", 1, OpCode::Mov, 8)]);
    let configure = |config| StreamCommand::Configure { config: ConfigId(config) };
    broadcast(&mut prog, LANES as usize, configure(store_cfg));
    for lane in 0..LANES {
        let on = |cmd| VectorCommand::on_lane(LaneId(lane), cmd);
        prog.push(on(StreamCommand::load(
            MemTarget::Private,
            AffinePattern::linear(0, n),
            InPortId(0),
            RateFsm::ONCE,
        )));
        prog.push(on(StreamCommand::store(
            OutPortId(0),
            MemTarget::Shared,
            AffinePattern::linear(block(lane), n),
            RateFsm::ONCE,
        )));
    }
    broadcast(&mut prog, LANES as usize, StreamCommand::Wait);
    broadcast(&mut prog, LANES as usize, configure(load_cfg));
    for lane in 0..LANES {
        let on = |cmd| VectorCommand::on_lane(LaneId(lane), cmd);
        prog.push(on(StreamCommand::load(
            MemTarget::Shared,
            AffinePattern::linear(block(lane + 1), n),
            InPortId(1),
            RateFsm::ONCE,
        )));
        prog.push(on(StreamCommand::store(
            OutPortId(1),
            MemTarget::Private,
            AffinePattern::linear(300, n),
            RateFsm::ONCE,
        )));
    }
    broadcast(&mut prog, LANES as usize, StreamCommand::Wait);
    prog
}

/// A program that deadlocks by construction: the store drains an output
/// port no region ever writes, so `Wait` never resolves and the run must
/// exhaust its budget — identically under both steppers, snapshot included.
fn deadlock_program() -> RevelProgram {
    let mut prog = RevelProgram::new("differential-deadlock");
    let mut g = Dfg::new("copy");
    let a = g.input(InPortId(2));
    let mv = g.op(OpCode::Mov, &[a]);
    g.output(mv, OutPortId(2));
    let cfg = prog.add_config(vec![Region::systolic("copy", g, 4)]);
    broadcast(&mut prog, 1, StreamCommand::Configure { config: ConfigId(cfg) });
    broadcast(
        &mut prog,
        1,
        StreamCommand::store(
            OutPortId(3),
            MemTarget::Private,
            AffinePattern::linear(256, 4),
            RateFsm::ONCE,
        ),
    );
    broadcast(&mut prog, 1, StreamCommand::Wait);
    prog
}

/// Runs `prog` under both steppers; asserts observable bit-identity and
/// returns the pair (event-horizon first).
fn assert_bit_identical(
    prog: &RevelProgram,
    lanes: usize,
    max_cycles: u64,
) -> (RunReport, RunReport) {
    let mut runs = Vec::new();
    let mut mems = Vec::new();
    for reference_stepper in [false, true] {
        let cfg = if lanes == 1 {
            RevelConfig::single_lane()
        } else {
            RevelConfig { num_lanes: lanes, ..RevelConfig::paper_default() }
        };
        let opts =
            SimOptions { max_cycles, verify: false, reference_stepper, ..SimOptions::default() };
        let mut m = Machine::new(cfg, opts);
        for l in 0..lanes {
            let data: Vec<f64> = (0..64).map(|i| 1.0 + (i as f64) * 0.25).collect();
            m.write_private(LaneId(l as u8), 0, &data);
        }
        let report = m.run(prog).unwrap_or_else(|e| panic!("{}: {e}", prog.name));
        let words = m.config().lane.spad_words;
        let mem: Vec<u64> = (0..lanes)
            .flat_map(|l| m.read_private(LaneId(l as u8), 0, words))
            .chain(m.read_shared(0, 4096))
            .map(f64::to_bits)
            .collect();
        runs.push(report);
        mems.push(mem);
    }
    let reference = runs.pop().expect("two runs");
    let fast = runs.pop().expect("two runs");
    assert_eq!(
        fast.observable(),
        reference.observable(),
        "{}: observable reports diverged",
        prog.name
    );
    assert_eq!(
        fast.canonical_text(),
        reference.canonical_text(),
        "{}: canonical text diverged",
        prog.name
    );
    assert_eq!(mems[0], mems[1], "{}: final scratchpad contents diverged", prog.name);
    assert_eq!(
        reference.stepper.skipped_cycles, 0,
        "{}: the reference stepper must never skip",
        prog.name
    );
    (fast, reference)
}

#[test]
fn random_systolic_programs_bit_identical() {
    for seed in 0..16 {
        let prog = random_program(seed);
        let (fast, _) = assert_bit_identical(&prog, 1, 300_000);
        assert!(!fast.timed_out, "{}: systolic program must complete", prog.name);
    }
}

#[test]
fn random_temporal_programs_bit_identical() {
    for seed in 100..108 {
        let prog = temporal_program(seed);
        let (fast, _) = assert_bit_identical(&prog, 1, 300_000);
        assert!(!fast.timed_out, "temporal program must complete");
    }
}

#[test]
fn random_xfer_programs_bit_identical() {
    for seed in 200..208 {
        let prog = xfer_program(seed);
        let (fast, _) = assert_bit_identical(&prog, 2, 300_000);
        assert!(!fast.timed_out, "xfer program must complete");
    }
}

#[test]
fn staggered_xfer_right_ring_bit_identical() {
    let prog = staggered_ring_program();
    let (fast, _) = assert_bit_identical(&prog, 8, 300_000);
    assert!(!fast.timed_out, "the ring must complete");
}

#[test]
fn shared_bandwidth_contention_bit_identical() {
    let prog = shared_contention_program();
    let (fast, _) = assert_bit_identical(&prog, 8, 300_000);
    assert!(!fast.timed_out, "the program must complete");
    let scr_bw: u64 = fast.lane_breakdown.iter().map(|b| b.count(CycleClass::ScrBw)).sum();
    assert!(scr_bw > 0, "no lane was held by the shared bandwidth");
}

#[test]
fn deadlocked_program_times_out_identically() {
    let prog = deadlock_program();
    let (fast, reference) = assert_bit_identical(&prog, 1, 3_000);
    assert!(fast.timed_out && reference.timed_out);
    assert_eq!(fast.cycles, 3_000);
    // The event-horizon loop should have jumped over the dead span rather
    // than stepping it.
    assert!(
        fast.stepper.skipped_cycles > 2_000,
        "expected a large skip on a deadlocked run, got {:?}",
        fast.stepper
    );
}

#[test]
fn a_machine_reused_after_a_timeout_runs_as_a_fresh_one() {
    // A two-input region fed on one input only: the run times out with the
    // lane flagged waiting on a dependence.
    let mut stuck = RevelProgram::new("differential-stuck-pair");
    let mut g = Dfg::new("pair");
    let a = g.input(InPortId(9));
    let b = g.input(InPortId(10));
    let sum = g.op(OpCode::Add, &[a, b]);
    g.output(sum, OutPortId(9));
    let cfg = stuck.add_config(vec![Region::systolic("pair", g, 1)]);
    broadcast(&mut stuck, 1, StreamCommand::Configure { config: ConfigId(cfg) });
    let load = StreamCommand::load(
        MemTarget::Private,
        AffinePattern::linear(0, 8),
        InPortId(9),
        RateFsm::ONCE,
    );
    broadcast(&mut stuck, 1, load);
    broadcast(&mut stuck, 1, StreamCommand::Wait);
    // The next program keeps the lane without a command for its first 50
    // cycles: a fresh lane and a reused one must classify them alike.
    let mut late = random_program(3);
    late.control.insert(
        0,
        revel_prog::ControlStep::Host(revel_prog::HostOp {
            cycles: 50,
            func: std::sync::Arc::new(|_| {}),
        }),
    );
    for reference_stepper in [false, true] {
        let opts = SimOptions {
            max_cycles: 2_000,
            verify: false,
            reference_stepper,
            ..SimOptions::default()
        };
        let mut reused = Machine::new(RevelConfig::single_lane(), opts);
        assert!(reused.run(&stuck).expect("runs").timed_out);
        let mut fresh = Machine::new(RevelConfig::single_lane(), opts);
        let want = fresh.run(&late).expect("runs");
        let got = reused.run(&late).expect("runs");
        assert!(!want.timed_out);
        assert_eq!(got.canonical_text(), want.canonical_text(), "reference: {reference_stepper}");
    }
}

#[test]
fn wall_deadline_composes_with_cycle_budget() {
    // A deadlocked program on the *reference* stepper walks every cycle, so
    // a huge budget plus an already-expired wall deadline must end the run
    // via the deadline: timed_out, deadline_expired, snapshot attached.
    let prog = deadlock_program();
    let opts = SimOptions {
        max_cycles: 50_000_000,
        wall_deadline: Some(std::time::Instant::now()),
        verify: false,
        reference_stepper: true,
        ..SimOptions::default()
    };
    let mut m = Machine::new(RevelConfig::single_lane(), opts);
    let report = m.run(&prog).expect("runs");
    assert!(report.timed_out, "an expired deadline must surface as timed_out");
    assert!(report.deadline_expired, "the deadline (not the budget) must be the cause");
    assert!(report.deadlock.is_some(), "deadline timeouts still carry the machine snapshot");
    assert!(report.cycles < 50_000_000, "the budget was not the cap that fired");

    // The budget path is unchanged: no deadline ⇒ deadline_expired stays
    // false even when the cycle budget fires.
    let opts = SimOptions { max_cycles: 3_000, verify: false, ..SimOptions::default() };
    let mut m = Machine::new(RevelConfig::single_lane(), opts);
    let report = m.run(&prog).expect("runs");
    assert!(report.timed_out && !report.deadline_expired);

    // A generous deadline on a live program must not perturb the run.
    let live = temporal_program(31);
    let with = SimOptions {
        wall_deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(600)),
        verify: false,
        ..SimOptions::default()
    };
    let without = SimOptions { verify: false, ..SimOptions::default() };
    let mut ma = Machine::new(RevelConfig::single_lane(), with);
    let mut mb = Machine::new(RevelConfig::single_lane(), without);
    let ra = ma.run(&live).expect("runs");
    let rb = mb.run(&live).expect("runs");
    assert_eq!(ra.canonical_text(), rb.canonical_text(), "a slack deadline must be invisible");
    assert!(!ra.deadline_expired);
}

#[test]
fn snapshot_present_iff_timed_out() {
    let dead = deadlock_program();
    let (fast, reference) = assert_bit_identical(&dead, 1, 2_000);
    assert!(fast.deadlock.is_some() && reference.deadlock.is_some());
    let live = temporal_program(999);
    let (fast, reference) = assert_bit_identical(&live, 1, 300_000);
    assert!(fast.deadlock.is_none() && reference.deadlock.is_none());
}

#[test]
fn event_horizon_actually_skips_on_long_stalls() {
    // A temporal chain (recip latency 12 + remote-operand penalties) stalls
    // the whole machine on dPE completions; the fast loop must exploit it.
    let prog = temporal_program(42);
    let (fast, _) = assert_bit_identical(&prog, 1, 300_000);
    assert!(
        fast.stepper.skipped_cycles > 0 && fast.stepper.horizon_jumps > 0,
        "no cycles skipped on a stall-heavy program: {:?}",
        fast.stepper
    );
}

#[test]
fn schedule_cache_serves_repeated_runs() {
    let prog = random_program(777_777);
    let s0 = revel_sim::schedule_cache_stats();
    let mut m = Machine::new(
        RevelConfig::single_lane(),
        SimOptions { verify: false, ..SimOptions::default() },
    );
    m.run(&prog).expect("first run");
    m.run(&prog).expect("second run");
    let s1 = revel_sim::schedule_cache_stats();
    // Other tests run concurrently in this process, so assert deltas as
    // lower bounds: at least one miss (first compile) and one hit (rerun).
    assert!(s1.misses > s0.misses, "expected a schedule-cache miss on first run");
    assert!(s1.hits > s0.hits, "expected a schedule-cache hit on repeated run");
    // The exactness invariant the snapshot struct exists for: a miss is
    // counted iff an entry landed, so the two are always equal.
    assert_eq!(s1.misses, s1.entries, "misses must equal cached entries: {s1:?}");
}
