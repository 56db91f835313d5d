//! `grid_cold`: the evaluation grid, once, in a fresh process — what
//! someone reproducing the paper's tables pays. The only workload in which
//! the program lints and the spatial scheduler's anneal run at all:
//! everywhere else the lint and schedule caches have memoized them. The
//! end-to-end passes walk 41 of its 42 cells ([`is_long_cell`] says why);
//! the traced run walks them all.

use super::{check_run, label, run_built_traced, write_span_file, Counters, Job, Mode};
use crate::inputs::{is_long_cell, Inputs};
use crate::report::ChildReport;
use crate::stats;
use crate::trace::Tracer;
use revel_core::experiments::run_comparisons;
use revel_core::fabric::Mesh;
use revel_core::scheduler::SpatialScheduler;
use revel_core::verify::{Severity, Verifier};
use revel_core::Bench;
use std::collections::HashSet;
use std::time::Instant;

/// Annealing iterations `Machine::run` schedules with.
const SA_ITERATIONS: usize = 2000;

pub fn run(job: &Job, inputs: &Inputs) -> ChildReport {
    match job.mode {
        Mode::Trace => traced_pass(job, inputs),
        Mode::Measure | Mode::SetupOnly | Mode::WholeGrid => cold_pass(job, inputs),
    }
}

/// One untraced pass: each cell through `Bench::run`, the path the figure
/// generators take.
fn cold_pass(job: &Job, inputs: &Inputs) -> ChildReport {
    let mut report = ChildReport::default();
    let before = Counters::now();
    report.setup_s = job.started.elapsed().as_secs_f64();
    let pass = Instant::now();
    let (mut cells, mut cycles) = (0u64, 0);
    for &i in &inputs.walks[0] {
        let cell = &inputs.cells[i];
        if is_long_cell(cell) && job.mode != Mode::WholeGrid {
            continue;
        }
        cells += 1;
        let t = Instant::now();
        let run = cell.bench.run(&cell.cfg);
        report.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.check(check_run(&label(cell), &run));
        cycles += run.map_or(0, |r| r.cycles);
    }
    report.pass_s.push(pass.elapsed().as_secs_f64());
    before.record_since(&mut report, 1.0);
    report.calls_per_pass = cells;
    report.ops_per_pass = cells as f64;
    report.cycles_per_pass = cycles as f64;
    report.modeled_cycles_total = cycles;
    report
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let logs: Vec<f64> = values.map(f64::ln).collect();
    (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
}

/// The traced pass: what `Bench::run` does to a cold cell, one layer at a
/// time. The lints and the anneal run inside `Machine::run`, where no span
/// can reach them, so each is also called directly — the same public
/// function with the same arguments — and the first run is compared with
/// a second, warm one: what the direct calls do not explain of the
/// difference is reported as unattributed.
fn traced_pass(job: &Job, inputs: &Inputs) -> ChildReport {
    let mut report = ChildReport::default();
    let mut tr = Tracer::new(true, job.started);
    report.setup_s = job.started.elapsed().as_secs_f64();

    let (mut build_s, mut lint_s, mut lint_max_s, mut schedule_s) = (0.0, 0.0, 0.0f64, 0.0);
    let (mut cold, mut warm) = (super::RunParts::default(), super::RunParts::default());
    let (mut errors, mut configs, mut cycles, mut skipped) = (0usize, 0usize, 0u64, 0u64);
    let mut machine_new_us = Vec::new();
    let mut scheduled = HashSet::new();
    for (op, &i) in inputs.walks[0].iter().enumerate() {
        let op = op as u64;
        let cell = &inputs.cells[i];
        let machine_cfg = cell.cfg.machine_config();
        tr.span("benchmark", "cell", op, |tr| {
            let (built, s) =
                tr.span("compiler", "build", op, |_| cell.bench.workload().build(&cell.cfg));
            build_s += s;

            let (diags, s) = tr.span("verify", "program_lints", op, |_| {
                Verifier::program_only().verify(&built.program, &machine_cfg)
            });
            lint_s += s;
            lint_max_s = lint_max_s.max(s);
            errors += diags.iter().filter(|d| d.severity() == Severity::Error).count();

            // `Machine::run` compiles each distinct (program, lane, configs)
            // once per process; schedule the same set, no more.
            let lane = &machine_cfg.lane;
            let key = format!("{}\0{lane:?}\0{:?}", built.program.name, built.program.configs);
            if scheduled.insert(key) {
                let ((), s) = tr.span("scheduler", "schedule", op, |_| {
                    let scheduler = SpatialScheduler::new(Mesh::for_lane(lane))
                        .with_dpe_slots(lane.dpe_instr_slots)
                        .with_sa_iterations(SA_ITERATIONS);
                    for regions in &built.program.configs {
                        std::hint::black_box(scheduler.schedule(regions)).ok();
                        configs += 1;
                    }
                });
                schedule_s += s;
            }

            let (first, parts) = run_built_traced(tr, &built, &cell.cfg, op);
            report.check(check_run(&label(cell), &first));
            cold.run += parts.run;
            cold.total += parts.total;
            let (second, parts) = run_built_traced(tr, &built, &cell.cfg, op);
            warm.run += parts.run;
            warm.certify += parts.certify;
            machine_new_us.push(parts.machine_new * 1e6);
            if let (Ok(a), Ok(b)) = (&first, &second) {
                let same = a.report.observable() == b.report.observable();
                report.check(same.then_some(()).ok_or(format!("{}: rerun differs", label(cell))));
                cycles += b.cycles;
                skipped += b.report.stepper.skipped_cycles;
            }
        });
    }

    // The pass as `Bench::run` walks it: build, then one cold run.
    let pass_s = build_s + cold.total;
    let cold_extra_s = cold.run - warm.run;
    let unattributed_s = cold_extra_s - lint_s - schedule_s;
    let stepped = cycles - skipped;
    report.pass_s.push(pass_s);
    report.ops_per_pass = inputs.cells.len() as f64;
    report.cycles_per_pass = cycles as f64;
    report.modeled_cycles_total = cycles;
    for (name, value) in [
        ("compiler.build_ms", build_s * 1e3),
        ("compiler.builds", inputs.cells.len() as f64),
        ("verify.program_lints_ms", lint_s * 1e3),
        ("verify.program_lints_max_cell_ms", lint_max_s * 1e3),
        ("verify.certify_ms", warm.certify * 1e3),
        ("verify.error_diagnostics", errors as f64),
        ("scheduler.schedule_ms", schedule_s * 1e3),
        ("scheduler.configs", configs as f64),
        ("sim.run_warm_ms", warm.run * 1e3),
        ("sim.run_cold_extra_ms", cold_extra_s * 1e3),
        ("sim.cold_unattributed_ms", unattributed_s * 1e3),
        ("sim.host_ns_per_cycle", warm.run * 1e9 / cycles.max(1) as f64),
        ("sim.host_ns_per_stepped_cycle", warm.run * 1e9 / stepped.max(1) as f64),
        ("sim.cycles", cycles as f64),
        ("sim.stepped_cycles", stepped as f64),
        ("sim.skipped_share", skipped as f64 / cycles.max(1) as f64),
        ("sim.machine_new_us", stats::fastest(&machine_new_us)),
        ("trace.unattributed_share", unattributed_s / pass_s),
    ] {
        report.layer(name, value);
    }
    report.check(if errors == 0 { Ok(()) } else { Err(format!("{errors} lint error(s)")) });

    // The fidelity column: modeled speedups, to set beside the paper's.
    let comparisons = run_comparisons(&Bench::suite_large());
    for (name, value) in [
        ("models.speedup_vs_dsp_geomean", geomean(comparisons.iter().map(|c| c.speedup_vs_dsp()))),
        (
            "models.speedup_vs_systolic_geomean",
            geomean(comparisons.iter().map(|c| c.speedup_vs_systolic())),
        ),
        (
            "models.speedup_vs_dataflow_geomean",
            geomean(comparisons.iter().map(|c| c.speedup_vs_dataflow())),
        ),
        (
            "models.pct_of_ideal_geomean",
            100.0 * geomean(comparisons.iter().map(|c| c.fraction_of_ideal())),
        ),
    ] {
        report.layer(name, value);
    }
    write_span_file(job, &tr, &mut report);
    report
}
