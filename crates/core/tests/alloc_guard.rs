//! Allocation regression guard for the fire path.
//!
//! A region fires every cycle, and the batch replayer's executor is that
//! fire path run back to back, so neither may pay the allocator per fire
//! or per step (DESIGN.md, "hot-path rules"). A counting global allocator
//! pins it: a warmed-up `DfgEvaluator::fire` allocates nothing, a second
//! `Machine::replay` of a compiled trace allocates the same few blocks
//! however long the trace, a second chunk of `Machine::replay_batch` no
//! more, the run prologue's memo lookups (keyed on the program's
//! structural identity) allocate nothing, a warm run's dataflow-PE
//! executor allocates no more for four times the temporal fires, the
//! spatial compile allocates no more for four times the annealing moves,
//! and neither retiring streams nor binding stores allocates.

use revel_core::compiler::BuildCfg;
use revel_core::dfg::{Dfg, OpCode, Region, VecVal};
use revel_core::fabric::{LaneConfig, RevelConfig};
use revel_core::isa::{
    AffinePattern, ConfigId, InPortId, LaneId, LaneMask, MemTarget, OutPortId, RateFsm,
    StreamCommand, VectorCommand,
};
use revel_core::scheduler::SpatialScheduler;
use revel_core::sim::{Machine, RevelProgram, SimOptions};
use revel_core::verify::verdict;
use revel_core::workloads::{apply_init, record_timing};
use revel_core::Bench;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Blocks this thread has requested (tests run on parallel threads, so
    /// a process-wide count would see the neighbours).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a bump of a
// const-initialised, destructor-free thread-local, which neither allocates
// nor unwinds.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Blocks the current thread requests while `f` runs.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn a_warm_evaluator_fires_without_allocating() {
    // Every node kind: inputs, a constant, 1-, 2- and 3-operand ops, a
    // reduction, both accumulators, two outputs.
    let mut g = Dfg::new("guard");
    let a = g.input(InPortId(0));
    let b = g.input(InPortId(1));
    let half = g.konst(0.5);
    let m = g.op(OpCode::Mul, &[a, b]);
    let lt = g.op(OpCode::CmpLt, &[a, b]);
    let sel = g.op(OpCode::Select, &[m, half, lt]);
    let root = g.op(OpCode::Sqrt, &[sel]);
    let red = g.op(OpCode::ReduceAdd, &[root]);
    let acc = g.accum(red, RateFsm::inductive(3, -1));
    let accv = g.accum_vec(sel, RateFsm::fixed(2));
    g.output(acc, OutPortId(0));
    g.output(accv, OutPortId(1));
    let mut ev = g.evaluator(8);
    let inputs = [VecVal::splat(3.0, 8), VecVal::with_pred(&[2.0; 8], 0b0111_1111)];
    let mut emitted = 0;
    emitted += ev.fire(&inputs).iter().filter(|(_, v)| v.any_valid()).count();
    let ((), allocations) = allocations_in(|| {
        for _ in 0..1000 {
            emitted += ev.fire(&inputs).iter().filter(|(_, v)| v.any_valid()).count();
        }
    });
    assert!(emitted > 500, "the accumulators emit, so outputs are really produced: {emitted}");
    assert_eq!(allocations, 0, "DfgEvaluator::fire must not touch the heap");
}

/// Datasets in the chunk `second_replay` replays: one chunk of a
/// host-free trace.
const CHUNK_DATASETS: usize = 16;

/// Trace length and the allocations of a second replay of `bench`'s trace
/// on one machine, then of a second chunk of `CHUNK_DATASETS` datasets on
/// another.
fn second_replay(bench: Bench) -> (usize, u64, u64) {
    let cfg = BuildCfg::revel(1);
    let built = bench.workload().build(&cfg);
    let (run, trace) = record_timing(&built, &cfg, cfg.sim_options()).expect("timing walk");
    run.assert_ok(bench.name());
    let mut machine = Machine::new(cfg.machine_config(), cfg.sim_options());
    apply_init(&mut machine, &built.init);
    machine.replay(&built.program, &trace).expect("first replay");
    apply_init(&mut machine, &built.init);
    let (replayed, allocations) = allocations_in(|| machine.replay(&built.program, &trace));
    replayed.expect("second replay");
    assert_eq!((built.check)(&machine), Ok(()), "{}: replayed result verifies", bench.name());

    let mut machine = Machine::new(cfg.machine_config(), cfg.sim_options());
    let datasets = vec![&built.init; CHUNK_DATASETS];
    let chunk = |machine: &mut Machine| {
        machine.replay_batch(
            &built.program,
            &trace,
            &datasets,
            |machine, init| apply_init(machine, init),
            |_, _| {},
        )
    };
    chunk(&mut machine).expect("first chunk");
    let (replayed, chunk_allocations) = allocations_in(|| chunk(&mut machine));
    replayed.expect("second chunk");
    assert_eq!((built.check)(&machine), Ok(()), "{}: chunk's last dataset verifies", bench.name());
    (trace.len(), allocations, chunk_allocations)
}

#[test]
fn replay_allocations_do_not_grow_with_the_trace() {
    // Compiling the trace allocates, once. The first replay on a machine
    // sizes its value rows for the trace and writes its constants; a warm
    // replay reuses them, so it pays the same few blocks however many
    // steps it runs, and a warm chunk of datasets no more than one.
    for (small, large) in [
        (Bench::Solver { n: 12 }, Bench::Solver { n: 32 }),
        (Bench::Cholesky { n: 12 }, Bench::Cholesky { n: 32 }),
        (Bench::Fft { n: 64 }, Bench::Fft { n: 1024 }),
    ] {
        let (small_ops, small_allocs, small_chunk) = second_replay(small);
        let (large_ops, large_allocs, large_chunk) = second_replay(large);
        let what = format!(
            "{}: {small_ops} ops, {small_allocs} allocations ({small_chunk} a chunk); \
             {large_ops} ops, {large_allocs} ({large_chunk})",
            small.name()
        );
        assert!(large_ops > 5 * small_ops, "the large trace is really longer: {what}");
        assert!(small_allocs <= 4, "a warm replay's fixed cost stays small: {what}");
        assert_eq!(large_allocs, small_allocs, "allocations vary with the trace: {what}");
        assert!(
            small_chunk <= small_allocs && large_chunk <= small_allocs,
            "a warm chunk allocates more than a warm replay: {what}"
        );
    }
}

#[test]
fn a_warm_verdict_lookup_does_not_allocate() {
    // The run prologue's memo lookups key on the program's structural
    // identity, recomputed from content each time: one pass over the
    // control steps through `Hash`, no rendering, no `String`, no key to
    // clone.
    let cfg = BuildCfg::revel(1);
    let machine_cfg = cfg.machine_config();
    let built = Bench::Svd { n: 12 }.workload().build(&cfg);
    let cold = verdict(&built.program, &machine_cfg);
    let (warm, allocations) = allocations_in(|| verdict(&built.program, &machine_cfg));
    assert!(std::sync::Arc::ptr_eq(&cold, &warm));
    assert_eq!(allocations, 0, "a warm verdict lookup must not touch the heap");
}

/// `n` words from the private scratchpad through a temporal region — a
/// `Recip` → `Mul(d, d)` → `Add` chain with a second input — and back.
fn temporal_program(n: i64) -> RevelProgram {
    let mut g = Dfg::new("t");
    let a = g.input(InPortId(6));
    let b = g.input(InPortId(7));
    let d = g.op(OpCode::Recip, &[a]);
    let m = g.op(OpCode::Mul, &[d, d]);
    let s = g.op(OpCode::Add, &[m, b]);
    g.output(s, OutPortId(6));
    let mut prog = RevelProgram::new(format!("temporal-{n}"));
    let cfg = prog.add_config(vec![Region::temporal("t", g)]);
    let lane = LaneMask::all(1);
    let load = |addr, port| {
        StreamCommand::load(
            MemTarget::Private,
            AffinePattern::linear(addr, n),
            InPortId(port),
            RateFsm::ONCE,
        )
    };
    for cmd in [
        StreamCommand::Configure { config: ConfigId(cfg) },
        load(0, 6),
        load(n, 7),
        StreamCommand::store(
            OutPortId(6),
            MemTarget::Private,
            AffinePattern::linear(2 * n, n),
            RateFsm::ONCE,
        ),
        StreamCommand::Wait,
    ] {
        prog.push(VectorCommand::broadcast(lane, cmd));
    }
    prog
}

/// dPE instructions issued, and allocations, of a second run of
/// `temporal_program(n)` on one pure-dataflow machine (25 dPEs).
fn warm_temporal_run(n: i64) -> (u64, u64) {
    let cfg = RevelConfig { lane: LaneConfig::pure_dataflow(), ..RevelConfig::single_lane() };
    let program = temporal_program(n);
    let mut machine = Machine::new(cfg, SimOptions::default());
    let data: Vec<f64> = (0..2 * n).map(|i| 1.0 + i as f64).collect();
    machine.write_private(LaneId(0), 0, &data);
    let first = machine.run(&program).expect("first run");
    assert!(!first.timed_out, "temporal-{n} finishes");
    let (second, allocations) = allocations_in(|| machine.run(&program));
    (second.expect("second run").events.dpe_instrs, allocations)
}

#[test]
fn a_warm_dpe_executor_does_not_allocate_per_fire() {
    // The first run fills the memos and the executor's recycled instances;
    // the second pays only what a run pays once (ports, streams, the
    // report), whatever the number of temporal fires.
    let (small_instrs, small) = warm_temporal_run(16);
    let (large_instrs, large) = warm_temporal_run(64);
    assert_eq!((small_instrs, large_instrs), (3 * 16, 3 * 64), "every fire issues 3 instructions");
    assert_eq!(
        large, small,
        "allocations grow with temporal fires: {small} for 16, {large} for 64"
    );
}

/// `b[i] -= b[j] * a[j,i]` at `unroll` lanes beside the temporal
/// `b[j] / a[j,j]`: the solver's two regions, one configuration.
fn solver_config(unroll: usize) -> [Region; 2] {
    let mut inner = Dfg::new("inner");
    let bj = inner.input(InPortId(0));
    let aji = inner.input(InPortId(1));
    let bi = inner.input(InPortId(2));
    let prod = inner.op(OpCode::Mul, &[bj, aji]);
    let sub = inner.op(OpCode::Sub, &[bi, prod]);
    inner.output(sub, OutPortId(0));
    let mut outer = Dfg::new("outer");
    let b = outer.input(InPortId(3));
    let a = outer.input(InPortId(4));
    let d = outer.op(OpCode::Div, &[b, a]);
    outer.output(d, OutPortId(1));
    [Region::systolic("inner", inner, unroll), Region::temporal("outer", outer)]
}

#[test]
fn an_annealing_move_does_not_allocate() {
    // A move re-costs the edges it touches from tables resolved once per
    // compile, so 6 000 more moves cost no allocation. Both anneals keep
    // the same best placement, so the routing and timing after them do the
    // same work too.
    let regions = solver_config(4);
    let compile = |moves| {
        allocations_in(|| {
            SpatialScheduler::for_lane(&LaneConfig::paper_default())
                .with_sa_iterations(moves)
                .schedule(&regions)
                .expect("the solver configuration schedules")
        })
    };
    let (short, short_allocations) = compile(2_000);
    let (long, long_allocations) = compile(8_000);
    assert_eq!(short.placement, long.placement, "both anneals end on one placement");
    assert_eq!(
        long_allocations, short_allocations,
        "annealing allocates per move: {short_allocations} for 2 000, {long_allocations} for 8 000"
    );
}

/// Two lanes: lane 0 loads `4 * k` words through a scalar region and
/// hands them to lane 1 in `k` `XferRight` streams of four words, one
/// after another (each waits for the last to retire and free lane 1's
/// input); lane 1 passes them through its own region into one store.
fn handoff_program(k: i64) -> RevelProgram {
    let pass = |name: &str, port: u8| {
        let mut g = Dfg::new(name);
        let x = g.input(InPortId(port));
        let y = g.op(OpCode::Mov, &[x]);
        g.output(y, OutPortId(port));
        Region::systolic(name, g, 1)
    };
    let mut prog = RevelProgram::new(format!("handoff-{k}"));
    let cfg = prog.add_config(vec![pass("send", 6), pass("receive", 7)]);
    let (both, sender, receiver) =
        (LaneMask::all(2), LaneMask::single(LaneId(0)), LaneMask::single(LaneId(1)));
    let words = 4 * k;
    prog.push(VectorCommand::broadcast(both, StreamCommand::Configure { config: ConfigId(cfg) }));
    let load = StreamCommand::load(
        MemTarget::Private,
        AffinePattern::linear(0, words),
        InPortId(6),
        RateFsm::ONCE,
    );
    prog.push(VectorCommand::broadcast(sender, load));
    let store = StreamCommand::store(
        OutPortId(7),
        MemTarget::Private,
        AffinePattern::linear(512, words),
        RateFsm::ONCE,
    );
    prog.push(VectorCommand::broadcast(receiver, store));
    for _ in 0..k {
        let hand =
            StreamCommand::xfer_right(OutPortId(6), InPortId(7), 4, RateFsm::ONCE, RateFsm::ONCE);
        prog.push(VectorCommand::broadcast(sender, hand));
    }
    prog.push(VectorCommand::broadcast(both, StreamCommand::Wait));
    prog
}

/// Allocations of a second run of `handoff_program(k)` on one machine,
/// after checking that lane 1 stored what lane 0 loaded.
fn warm_handoff_run(k: i64) -> u64 {
    let cfg = RevelConfig { num_lanes: 2, ..RevelConfig::single_lane() };
    let program = handoff_program(k);
    let mut machine = Machine::new(cfg, SimOptions::default());
    let data: Vec<f64> = (0..4 * k).map(|i| 1.0 + i as f64).collect();
    machine.write_private(LaneId(0), 0, &data);
    let first = machine.run(&program).expect("first run");
    assert!(!first.timed_out, "handoff-{k} finishes");
    assert_eq!(machine.read_private(LaneId(1), 512, data.len()), data, "handoff-{k} delivers");
    let (second, allocations) = allocations_in(|| machine.run(&program));
    assert!(!second.expect("second run").timed_out);
    allocations
}

#[test]
fn retiring_a_stream_does_not_allocate() {
    // Every `XferRight` retires on its own and frees the right lane's
    // port; four times as many retirements cost no allocation.
    let (few, many) = (warm_handoff_run(4), warm_handoff_run(16));
    assert_eq!(many, few, "retirement allocates: {few} for 4 handoffs, {many} for 16");
}

/// One lane loads `8 * k` words through a scalar region and stores them
/// back in `k` stores of eight words, one after another (each waits for
/// the last to retire and free the output port).
fn store_program(k: i64) -> RevelProgram {
    let mut g = Dfg::new("pass");
    let x = g.input(InPortId(6));
    let y = g.op(OpCode::Mov, &[x]);
    g.output(y, OutPortId(6));
    let mut prog = RevelProgram::new(format!("stores-{k}"));
    let cfg = prog.add_config(vec![Region::systolic("pass", g, 1)]);
    let lane = LaneMask::all(1);
    let words = 8 * k;
    prog.push(VectorCommand::broadcast(lane, StreamCommand::Configure { config: ConfigId(cfg) }));
    let load = StreamCommand::load(
        MemTarget::Private,
        AffinePattern::linear(0, words),
        InPortId(6),
        RateFsm::ONCE,
    );
    prog.push(VectorCommand::broadcast(lane, load));
    for s in 0..k {
        let store = StreamCommand::store(
            OutPortId(6),
            MemTarget::Private,
            AffinePattern::linear(512 + 8 * s, 8),
            RateFsm::ONCE,
        );
        prog.push(VectorCommand::broadcast(lane, store));
    }
    prog.push(VectorCommand::broadcast(lane, StreamCommand::Wait));
    prog
}

/// Allocations of a second run of `store_program(k)` on one machine,
/// after checking that it stored what it loaded.
fn warm_store_run(k: i64) -> u64 {
    let program = store_program(k);
    let mut machine = Machine::new(RevelConfig::single_lane(), SimOptions::default());
    let data: Vec<f64> = (0..8 * k).map(|i| 1.0 + i as f64).collect();
    machine.write_private(LaneId(0), 0, &data);
    let first = machine.run(&program).expect("first run");
    assert!(!first.timed_out, "stores-{k} finishes");
    assert_eq!(machine.read_private(LaneId(0), 512, data.len()), data, "stores-{k} stores");
    let (second, allocations) = allocations_in(|| machine.run(&program));
    assert!(!second.expect("second run").timed_out);
    allocations
}

#[test]
fn binding_a_store_does_not_allocate() {
    // A store's written-address set spans its pattern; eight words fit
    // inline, so four times as many stores cost no allocation.
    let (few, many) = (warm_store_run(4), warm_store_run(16));
    assert_eq!(many, few, "binding a store allocates: {few} for 4 stores, {many} for 16");
}
