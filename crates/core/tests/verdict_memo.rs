//! Counted guards on the verdict memo: what a run, a timing walk and a
//! batch ask of it. The numbers are exact — a miss is a program-lint pass
//! that landed, a hit is a lookup that found one — so they pin "lint once,
//! and only the simulator's gate reads the verdict" without a stopwatch.
//! This file is its own process, and its tests take turns.

use revel_core::compiler::BuildCfg;
use revel_core::sim::SimOptions;
use revel_core::verify::verdict_memo_stats;
use revel_core::workloads::{batch_replayable, record_timing, run_built_with};
use revel_core::{engine, Bench};
use std::sync::Mutex;

static TURN: Mutex<()> = Mutex::new(());

/// (misses, hits) the memo gains while `f` runs.
fn memo_delta<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let before = verdict_memo_stats();
    let r = f();
    let after = verdict_memo_stats();
    assert_eq!(after.misses, after.entries as u64, "a miss is a fill that landed");
    (r, (after.misses - before.misses, after.hits - before.hits))
}

#[test]
fn a_run_lints_once_and_only_the_gate_reads_the_verdict() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = BuildCfg::revel(1);
    let opts = cfg.sim_options();
    let built = Bench::Qr { n: 12 }.workload().build(&cfg);

    let (cold, delta) = memo_delta(|| run_built_with(&built, &cfg, opts).expect("runs"));
    cold.assert_ok("cold");
    assert_eq!(delta, (1, 0), "cold: the gate lints, and nothing else asks");
    let (warm, delta) = memo_delta(|| run_built_with(&built, &cfg, opts).expect("runs"));
    warm.assert_ok("warm");
    assert_eq!(delta, (0, 1), "warm: the gate's one lookup, nothing linted");

    // An independent build of the same cell is the same content.
    let again = Bench::Qr { n: 12 }.workload().build(&cfg);
    let (_, delta) = memo_delta(|| run_built_with(&again, &cfg, opts).expect("runs"));
    assert_eq!(delta, (0, 1));

    // With the gate off nothing asks.
    let ungated = SimOptions { verify: false, ..opts };
    let (run, delta) = memo_delta(|| run_built_with(&built, &cfg, ungated).expect("runs"));
    run.assert_ok("ungated");
    assert_eq!(delta, (0, 0));

    let (replayable, delta) = memo_delta(|| batch_replayable(&built, &cfg, &opts));
    assert_eq!((replayable, delta), (true, (0, 0)));
    let ((timing, _), delta) = memo_delta(|| record_timing(&built, &cfg, opts).expect("walk"));
    timing.assert_ok("timing walk");
    assert_eq!(delta, (0, 1), "the timing walk's gate reads the verdict once");
}

#[test]
fn a_batch_on_a_recorded_cell_lints_nothing() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (bench, cfg) = (Bench::Fft { n: 64 }, BuildCfg::revel(1));
    let seeds = [11, 12, 13, 14];
    let replays = || engine::stats().batched_replays;

    // First batch: the timing walk's gate lints the cell, the replays ask
    // nothing.
    let before = replays();
    let (batch, delta) = memo_delta(|| bench.run_batched(&cfg, &seeds).expect("batch"));
    assert!(batch.replayed, "a healthy batch replays");
    assert_eq!(delta, (1, 0));
    assert_eq!(replays() - before, 4);

    // Recorded: no lookup at all, however many datasets.
    let before = replays();
    let (batch, delta) =
        memo_delta(|| bench.run_batched(&cfg, &[21, 22, 23, 24, 25, 26]).expect("batch"));
    assert!(batch.replayed && batch.runs.iter().all(|r| r.verified.is_ok()));
    assert_eq!(delta, (0, 0), "no lint pass and no read of the verdict");
    assert_eq!(replays() - before, 6);
}
