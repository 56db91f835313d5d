//! The grid oracle: every evaluation-grid cell computed every way the
//! stack can compute it, each byte-compared against one canonical run —
//! the event-horizon simulation at dataset seed 1. Per cell, [`divergences`]
//! must find nothing against:
//!
//! * the **reference stepper** at seed 1 (the naive loop that steps every
//!   cycle keeps the event-horizon kernel honest);
//! * the event-horizon run at **seed 2** — same problem sizes, different
//!   input values. Both seeds' runs must also carry the static
//!   obliviousness certificate (`WorkloadRun::oblivious`), so the sweep
//!   shows statically certified ⇒ dynamically oblivious;
//! * **`engine::run_batched`** over seeds `[1, 2]` and then `[2, 1]` (one
//!   timing walk, functional replays): both batches must report
//!   `replayed` and each lane must match the full run for its seed.
//!
//! The engine's counters prove the path: over the sweep `batched_replays`
//! moves by exactly four per cell and `trace_hits` by exactly one per cell
//! (the second batch replays the trace the first one recorded). Stdout is
//! byte-identical for every `--jobs`; how fast replay is belongs to the
//! benchmark's `batch_replay` workload, not here.
//!
//! ```text
//! grid_oracle             # the 42-cell grid, one worker per core
//! grid_oracle --jobs 4    # explicit worker count
//! ```
//!
//! Any divergence, missing certificate, failed verification, or batch off
//! the replay path prints a diagnosis and exits nonzero.

use revel_bench::grid::{evaluation_grid, Cell};
use revel_core::engine;
use revel_core::sim::SimOptions;
use revel_core::workloads::{run_built_with, WorkloadRun};

/// The fields two ways of computing one cell must agree on, named so a
/// failure says which one moved; empty when they agree. Each check is
/// independent — the lane breakdown is also rendered into the canonical
/// text, and a breakdown divergence names both.
fn divergences(canonical: &WorkloadRun, other: &WorkloadRun) -> Vec<&'static str> {
    let mut out = Vec::new();
    if other.cycles != canonical.cycles {
        out.push("cycles");
    }
    if other.report.canonical_text() != canonical.report.canonical_text() {
        out.push("canonical text");
    }
    if other.report.lane_breakdown != canonical.report.lane_breakdown {
        out.push("lane breakdown");
    }
    if other.verified != canonical.verified {
        out.push("verdict");
    }
    out
}

/// One cell's outcome: the canonical run's cycle counts and every failure.
struct Outcome {
    cell: Cell,
    cycles: u64,
    skipped: u64,
    failures: Vec<String>,
}

fn check_cell(cell: &Cell) -> Outcome {
    let opts = cell.cfg.sim_options();
    let [built1, built2] = [1, 2].map(|seed| cell.bench.workload_seeded(seed).build(&cell.cfg));
    let full = |built, opts| run_built_with(built, &cell.cfg, opts).expect("simulates");
    let canonical = full(&built1, opts);
    let seed2 = full(&built2, opts);
    let reference = full(&built1, SimOptions { reference_stepper: true, ..opts });

    let mut failures = Vec::new();
    if let Err(e) = &canonical.verified {
        failures.push(format!("seed 1 failed verification: {e}"));
    }
    for (seed, run) in [(1, &canonical), (2, &seed2)] {
        if !run.oblivious {
            failures.push(format!("seed {seed}: static certificate missing (V015–V019)"));
        }
    }
    let diverged = |what: String, against: &WorkloadRun, other: &WorkloadRun| {
        let d = divergences(against, other);
        (!d.is_empty()).then(|| format!("{what}: {} diverged", d.join(", ")))
    };
    failures.extend(diverged("reference stepper".into(), &canonical, &reference));
    failures.extend(diverged("seed 2".into(), &canonical, &seed2));
    for seeds in [[1, 2], [2, 1]] {
        let batch = engine::run_batched(cell.bench, &cell.cfg, &seeds).expect("batched run");
        if !batch.replayed {
            failures.push(format!("batch {seeds:?}: fell off the replay path"));
        }
        for (&seed, lane) in seeds.iter().zip(&batch.runs) {
            let own = if seed == 1 { &canonical } else { &seed2 };
            failures.extend(diverged(format!("batch {seeds:?} seed {seed}"), own, lane));
        }
    }
    Outcome {
        cell: *cell,
        cycles: canonical.cycles,
        skipped: canonical.report.stepper.skipped_cycles,
        failures,
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" | "-j" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => engine::set_jobs(n),
                None => usage(),
            },
            _ => usage(),
        }
    }

    let cells = evaluation_grid();
    println!(
        "grid-oracle: {} grid cells; reference stepper, seed 2 and two replayed batches \
         against the seed-1 event-horizon run",
        cells.len()
    );
    let before = engine::stats();
    let outcomes = engine::par_map(&cells, check_cell);
    let after = engine::stats();

    let mut failed = 0usize;
    let (mut total_cycles, mut total_skipped) = (0u64, 0u64);
    for o in &outcomes {
        let name = format!("{}-{} [{}]", o.cell.bench.name(), o.cell.bench.params(), o.cell.arch);
        total_cycles += o.cycles;
        total_skipped += o.skipped;
        if o.failures.is_empty() {
            println!(
                "  ok {name}: {} cycles, {:.1}% skipped",
                o.cycles,
                100.0 * o.skipped as f64 / o.cycles.max(1) as f64
            );
        } else {
            failed += 1;
            println!("  FAIL {name}");
            for f in &o.failures {
                println!("    {f}");
            }
        }
    }
    let cells_n = outcomes.len() as u64;
    let replays = after.batched_replays - before.batched_replays;
    let trace_hits = after.trace_hits - before.trace_hits;
    println!(
        "grid-oracle: {}/{} cells identical under all four comparisons; {} cycles total, \
         {} skipped ({:.1}%)",
        outcomes.len() - failed,
        outcomes.len(),
        total_cycles,
        total_skipped,
        100.0 * total_skipped as f64 / total_cycles.max(1) as f64
    );
    println!("grid-oracle: batched_replays +{replays}, trace_hits +{trace_hits}");
    if failed > 0 || replays != 4 * cells_n || trace_hits != cells_n {
        eprintln!(
            "grid-oracle: {failed} cell(s) failed; expected batched_replays +{}, trace_hits +{cells_n}",
            4 * cells_n
        );
        std::process::exit(1);
    }
}

fn usage() -> ! {
    eprintln!("usage: grid_oracle [--jobs N]");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use revel_core::compiler::BuildCfg;
    use revel_core::sim::CycleClass;
    use revel_core::Bench;

    #[test]
    fn comparator_flags_each_divergence_by_name() {
        let cfg = BuildCfg::revel(1);
        let built = Bench::Solver { n: 12 }.workload().build(&cfg);
        let run = run_built_with(&built, &cfg, cfg.sim_options()).expect("simulates");
        assert!(divergences(&run, &run).is_empty());

        let mut cycles = run.clone();
        cycles.cycles += 1;
        assert_eq!(divergences(&run, &cycles), ["cycles"]);

        let mut text = run.clone();
        text.report.commands_issued += 1;
        assert_eq!(divergences(&run, &text), ["canonical text"]);

        let mut lanes = run.clone();
        lanes.report.lane_breakdown[0].record(CycleClass::Idle);
        assert_eq!(divergences(&run, &lanes), ["canonical text", "lane breakdown"]);

        let mut verdict = run.clone();
        verdict.verified = Err("wrong answer".into());
        assert_eq!(divergences(&run, &verdict), ["verdict"]);
    }
}
