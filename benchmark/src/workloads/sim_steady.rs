//! `sim_steady`: the seven large cells on REVEL, built once and
//! re-simulated pass after pass with warm schedule and lint caches — what
//! a design-space sweep pays. The cycle kernel does nearly all the work;
//! the lints and the scheduler do none.

use super::{check_run, label, passes_for, run_built_traced, write_span_file, Counters, Job, Mode};
use crate::inputs::Inputs;
use crate::report::ChildReport;
use crate::stats;
use crate::trace::Tracer;
use revel_core::sim::SimOptions;
use revel_core::workloads::{run_built_with, BuiltKernel, WorkloadRun};
use std::time::Instant;

pub fn run(job: &Job, inputs: &Inputs) -> ChildReport {
    let mut report = ChildReport::default();
    let cells = &inputs.cells;

    // Set-up: build every kernel, and run each once so that its lints and
    // its schedule are memoized before the window opens.
    let built: Vec<BuiltKernel> = cells.iter().map(|c| c.bench.workload().build(&c.cfg)).collect();
    let mut last: Vec<Option<WorkloadRun>> = Vec::new();
    for (cell, built) in cells.iter().zip(&built) {
        let run = run_built_with(built, &cell.cfg, cell.cfg.sim_options());
        report.check(check_run(&label(cell), &run));
        last.push(run.ok());
    }
    report.setup_s = job.started.elapsed().as_secs_f64();
    if job.mode == Mode::SetupOnly {
        return report;
    }

    let mut latency_ms = Vec::new();
    report.pass_s = passes_for(job.untraced_window(), || {
        for &i in &inputs.walks[0] {
            let t = Instant::now();
            let run = run_built_with(&built[i], &cells[i].cfg, cells[i].cfg.sim_options());
            latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
            report.check(check_run(&label(&cells[i]), &run));
            last[i] = run.ok();
        }
    });
    report.latency_ms = latency_ms;
    report.calls_per_pass = cells.len() as u64;
    let cycles: u64 = last.iter().flatten().map(|r| r.cycles).sum();
    report.ops_per_pass = cells.len() as f64;
    report.cycles_per_pass = cycles as f64;
    report.modeled_cycles_total = cycles;

    if job.mode == Mode::Trace {
        traced_window(job, inputs, &built, &mut report);
    }

    // The oracle: the naive stepper must report the same observable run.
    for ((cell, built), fast) in cells.iter().zip(&built).zip(&last) {
        let opts = SimOptions { reference_stepper: true, ..cell.cfg.sim_options() };
        let same = match (run_built_with(built, &cell.cfg, opts), fast) {
            (Ok(reference), Some(fast)) => {
                reference.report.observable() == fast.report.observable()
            }
            _ => false,
        };
        let verdict = same
            .then_some(())
            .ok_or(format!("{}: differs from the reference stepper", label(cell)));
        report.check(verdict);
    }
    report
}

/// The second half of a traced run: the same passes with `run_built_with`
/// taken apart into spans.
fn traced_window(job: &Job, inputs: &Inputs, built: &[BuiltKernel], report: &mut ChildReport) {
    let cells = &inputs.cells;
    let untraced_pass_s = stats::fastest(&report.pass_s);
    let mut tr = Tracer::new(true, job.started);
    let before = Counters::now();
    let (mut run_s, mut certify_s, mut new_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cycles, mut skipped) = (0u64, 0u64);
    let mut op = 0;
    let pass_s = passes_for(job.half_window(), || {
        let (mut pass_run, mut pass_certify) = (0.0, 0.0);
        (cycles, skipped) = (0, 0);
        for &i in &inputs.walks[0] {
            let (run, parts) = run_built_traced(&mut tr, &built[i], &cells[i].cfg, op);
            op += 1;
            report.check(check_run(&label(&cells[i]), &run));
            pass_run += parts.run;
            pass_certify += parts.certify;
            new_us.push(parts.machine_new * 1e6);
            if let Ok(r) = run {
                cycles += r.cycles;
                skipped += r.report.stepper.skipped_cycles;
            }
        }
        run_s.push(pass_run);
        certify_s.push(pass_certify);
    });
    before.record_since(report, pass_s.len() as f64);

    let traced_pass_s = stats::fastest(&pass_s);
    let run_pass_s = stats::fastest(&run_s);
    let spans_s: f64 = tr.spans().iter().filter(|s| s.parent.is_none()).map(|s| s.seconds()).sum();
    let stepped = cycles - skipped;
    for (name, value) in [
        ("verify.certify_ms", stats::fastest(&certify_s) * 1e3),
        ("sim.run_warm_ms", run_pass_s * 1e3),
        ("sim.host_ns_per_cycle", run_pass_s * 1e9 / cycles.max(1) as f64),
        ("sim.host_ns_per_stepped_cycle", run_pass_s * 1e9 / stepped.max(1) as f64),
        ("sim.cycles", cycles as f64),
        ("sim.stepped_cycles", stepped as f64),
        ("sim.skipped_share", skipped as f64 / cycles.max(1) as f64),
        ("sim.machine_new_us", stats::fastest(&new_us)),
        ("trace.unattributed_share", 1.0 - spans_s / pass_s.iter().sum::<f64>()),
        ("trace.overhead_share", traced_pass_s / untraced_pass_s - 1.0),
    ] {
        report.layer(name, value);
    }
    write_span_file(job, &tr, report);
}
