//! Allocation regression guard for the fire path.
//!
//! A region fires every cycle, and the batch replayer's executor is that
//! fire path run back to back, so neither may pay the allocator per fire
//! or per step (DESIGN.md, "hot-path rules"). A counting global allocator
//! pins it: a warmed-up `DfgEvaluator::fire` allocates nothing, a second
//! `Machine::replay` of a compiled trace allocates the same few blocks
//! however long the trace, and the run prologue's memo lookups (keyed on
//! the program's structural identity) allocate nothing.

use revel_core::compiler::BuildCfg;
use revel_core::dfg::{Dfg, OpCode, VecVal};
use revel_core::isa::{InPortId, OutPortId, RateFsm};
use revel_core::sim::Machine;
use revel_core::verify::{certified, certify, verdict};
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

/// Trace length and the allocations of a second replay of `bench`'s trace
/// on one machine.
fn second_replay(bench: Bench) -> (usize, u64) {
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
    (trace.len(), allocations)
}

#[test]
fn replay_allocations_do_not_grow_with_the_trace() {
    // Compiling the trace allocates, once. The first replay on a machine
    // sizes its slot buffer for the trace and writes its constants; a warm
    // replay reuses them, so it pays the same few blocks however many
    // steps it runs.
    for (small, large) in [
        (Bench::Solver { n: 12 }, Bench::Solver { n: 32 }),
        (Bench::Cholesky { n: 12 }, Bench::Cholesky { n: 32 }),
        (Bench::Fft { n: 64 }, Bench::Fft { n: 1024 }),
    ] {
        let (small_ops, small_allocs) = second_replay(small);
        let (large_ops, large_allocs) = second_replay(large);
        let what = format!(
            "{}: {small_ops} ops, {small_allocs} allocations; {large_ops} ops, {large_allocs}",
            small.name()
        );
        assert!(large_ops > 5 * small_ops, "the large trace is really longer: {what}");
        assert!(small_allocs <= 4, "a warm replay's fixed cost stays small: {what}");
        assert_eq!(large_allocs, small_allocs, "allocations vary with the trace: {what}");
    }
}

#[test]
fn a_warm_verdict_lookup_does_not_allocate() {
    // The run prologue's memo lookups key on the program's structural
    // identity, recomputed from content each time: one pass over the
    // control steps through `Hash`, no rendering, no `String`, no key to
    // clone. Reading the certificate out of the verdict is a scan.
    let cfg = BuildCfg::revel(1);
    let machine_cfg = cfg.machine_config();
    let built = Bench::Svd { n: 12 }.workload().build(&cfg);
    let cold = verdict(&built.program, &machine_cfg);
    let ((warm, certificate), allocations) = allocations_in(|| {
        let warm = verdict(&built.program, &machine_cfg);
        let certificate = certified(&warm);
        (warm, certificate)
    });
    assert!(std::sync::Arc::ptr_eq(&cold, &warm));
    assert_eq!(certificate, certify(&built.program, &machine_cfg).is_ok());
    assert_eq!(allocations, 0, "a warm verdict lookup must not touch the heap");
}
