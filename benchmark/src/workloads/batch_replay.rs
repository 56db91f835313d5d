//! `batch_replay`: 64 datasets per call through `engine::run_batched` on
//! the seven small REVEL cells, timing traces recorded in set-up — what
//! pushing many datasets through one certified kernel pays. The trace
//! replayer and the per-dataset seeded build do the work; the cycle
//! kernel's timing walk does none.

use super::{check_completed, check_run, label, passes_for, write_span_file, Counters, Job, Mode};
use crate::inputs::Inputs;
use crate::report::ChildReport;
use crate::stats;
use crate::trace::Tracer;
use revel_core::engine::{self, BatchRun};
use revel_core::sim::{Machine, TimingTrace};
use revel_core::workloads::{batch_replayable, record_timing, replay_trace_on, run_workload_with};
use std::time::Instant;

pub fn run(job: &Job, inputs: &Inputs) -> ChildReport {
    let mut report = ChildReport::default();
    let cells = &inputs.cells;
    let seeds = &inputs.dataset_seeds;

    // Set-up: one batched call per cell records and caches its timing trace.
    let mut last: Vec<Option<BatchRun>> = Vec::new();
    for cell in cells {
        let batch = engine::run_batched(cell.bench, &cell.cfg, seeds);
        report.check(check_batch(&label(cell), &batch));
        last.push(batch.ok());
    }
    report.setup_s = job.started.elapsed().as_secs_f64();
    if job.mode == Mode::SetupOnly {
        return report;
    }

    let mut latency_ms = Vec::new();
    report.pass_s = passes_for(job.untraced_window(), || {
        for &i in &inputs.walks[0] {
            let t = Instant::now();
            let batch = engine::run_batched(cells[i].bench, &cells[i].cfg, seeds);
            latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
            report.check(check_batch(&label(&cells[i]), &batch));
            last[i] = batch.ok();
        }
    });
    report.latency_ms = latency_ms;
    report.calls_per_pass = cells.len() as u64;
    let cycles_per_lane: u64 = last.iter().flatten().map(|b| b.runs[0].cycles).sum();
    report.ops_per_pass = (cells.len() * seeds.len()) as f64;
    report.cycles_per_pass = (cycles_per_lane * seeds.len() as u64) as f64;
    report.modeled_cycles_total = cycles_per_lane;

    if job.mode == Mode::Trace {
        traced_window(job, inputs, &mut report);
    }

    // The oracle: replayed lanes must be byte-equal to full simulations of
    // the same datasets.
    let lanes = if job.smoke { &[0][..] } else { &[0, seeds.len() - 1] };
    for (cell, batch) in cells.iter().zip(&last) {
        for &lane in lanes {
            let full = run_workload_with(
                cell.bench.workload_seeded(seeds[lane]).as_ref(),
                &cell.cfg,
                cell.cfg.sim_options(),
            );
            let same = match (&full, batch) {
                (Ok(full), Some(batch)) => {
                    full.report.canonical_text() == batch.runs[lane].report.canonical_text()
                        && full.verified == batch.runs[lane].verified
                }
                _ => false,
            };
            let what = format!("{} lane {lane}: replay differs from full simulation", label(cell));
            report.check(same.then_some(()).ok_or(what));
        }
    }
    report
}

/// A batched call must take the replay path and verify on every lane.
fn check_batch(
    what: &str,
    batch: &Result<BatchRun, revel_core::sim::SimError>,
) -> Result<(), String> {
    match batch {
        Err(e) => Err(format!("{what}: {e}")),
        Ok(b) if !b.replayed => Err(format!("{what}: not replayed")),
        Ok(b) => b.runs.iter().try_for_each(|r| check_completed(what, r)),
    }
}

/// The second half of a traced run. Each pass calls `run_batched` whole
/// (one span) and then walks the same steps from outside — unseeded build,
/// certificate, machine, and per dataset a seeded build and a replay —
/// against a trace recorded here; what the whole call costs beyond its
/// steps is the engine's own overhead.
fn traced_window(job: &Job, inputs: &Inputs, report: &mut ChildReport) {
    let cells = &inputs.cells;
    let seeds = &inputs.dataset_seeds;
    let untraced_pass_s = stats::fastest(&report.pass_s);
    let mut tr = Tracer::new(true, job.started);

    let mut record_s = 0.0;
    let traces: Vec<Option<TimingTrace>> = cells
        .iter()
        .map(|cell| {
            let built = cell.bench.workload().build(&cell.cfg);
            let (recorded, s) = tr.span("sim", "record_timing", 0, |_| {
                record_timing(&built, &cell.cfg, cell.cfg.sim_options())
            });
            record_s += s;
            report.check(match &recorded {
                Ok((run, _)) => check_completed(&label(cell), run),
                Err(e) => Err(format!("{}: {e}", label(cell))),
            });
            recorded.ok().map(|r| r.1)
        })
        .collect();
    let trace_ops: usize = traces.iter().flatten().map(TimingTrace::len).sum();

    let before = Counters::now();
    let (mut whole_s, mut beyond_steps_s, mut build_s, mut replay_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut op = 0;
    let pass_s = passes_for(job.half_window(), || {
        let (mut whole, mut steps, mut builds, mut replays) = (0.0, 0.0, 0.0, 0.0);
        for &i in &inputs.walks[0] {
            let cell = &cells[i];
            op += 1;
            let (batch, s) = tr.span("core.engine", "run_batched", op, |_| {
                engine::run_batched(cell.bench, &cell.cfg, seeds)
            });
            whole += s;
            report.check(check_batch(&label(cell), &batch));

            let Some(trace) = &traces[i] else { continue };
            let ((), s) = tr.span("benchmark", "run_batched_steps", op, |tr| {
                let opts = cell.cfg.sim_options();
                let (built, _) =
                    tr.span("compiler", "build", op, |_| cell.bench.workload().build(&cell.cfg));
                tr.span("verify", "certify", op, |_| batch_replayable(&built, &cell.cfg, &opts));
                let (mut machine, _) = tr.span("sim", "machine_new", op, |_| {
                    Machine::new(cell.cfg.machine_config(), opts)
                });
                for &seed in seeds {
                    let (built, s) = tr.span("compiler", "build_seeded", op, |_| {
                        cell.bench.workload_seeded(seed).build(&cell.cfg)
                    });
                    builds += s;
                    let (run, s) = tr.span("sim", "replay", op, |_| {
                        replay_trace_on(&mut machine, &built, trace)
                    });
                    replays += s;
                    report.check(check_run(&label(cell), &run));
                }
            });
            steps += s;
        }
        whole_s.push(whole);
        // Paired within the pass, so the machine's state cancels.
        beyond_steps_s.push(whole - steps);
        build_s.push(builds);
        replay_s.push(replays);
    });
    // Only the whole calls touch the engine; the outside walk does not.
    before.record_since(report, pass_s.len() as f64);

    let datasets = (cells.len() * seeds.len()) as f64;
    let (whole, beyond_steps) = (stats::fastest(&whole_s), stats::median(&beyond_steps_s));
    let replay = stats::fastest(&replay_s);
    for (name, value) in [
        ("compiler.build_seeded_us_per_dataset", stats::fastest(&build_s) * 1e6 / datasets),
        ("sim.record_ms", record_s * 1e3),
        ("sim.replay_us_per_dataset", replay * 1e6 / datasets),
        ("sim.replay_ns_per_trace_op", replay * 1e9 / (trace_ops * seeds.len()).max(1) as f64),
        ("sim.trace_ops", trace_ops as f64),
        ("core.engine.batched_call_overhead_us", beyond_steps * 1e6 / cells.len() as f64),
        ("trace.unattributed_share", beyond_steps / stats::median(&whole_s)),
        ("trace.overhead_share", whole / untraced_pass_s - 1.0),
    ] {
        report.layer(name, value);
    }
    write_span_file(job, &tr, report);
}
