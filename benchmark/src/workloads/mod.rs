//! The six workloads. Each runs in a process of its own — the engine, the
//! schedule cache and the lint cache are process-global and cannot be
//! reset — and hands its raw samples back as a [`ChildReport`].

mod batch_replay;
mod grid_cold;
mod serve;
mod sim_steady;

use crate::inputs;
use crate::report::ChildReport;
use crate::spec::Workload;
use crate::trace::{self, Tracer};
use revel_core::compiler::BuildCfg;
use revel_core::engine::{self, CacheStats};
use revel_core::sim::{schedule_cache_stats, Machine, ScheduleCacheStats, SimError};
use revel_core::workloads::{apply_init, BuiltKernel, WorkloadRun};
use std::time::{Duration, Instant};

/// What a workload process is asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Set up, run the timed window untraced, check outputs.
    Measure,
    /// Set up and exit: one more sample of `setup_s`.
    SetupOnly,
    /// Half the window untraced, half with spans, then the layer probes.
    Trace,
    /// `grid_cold` only: one untraced cold pass over the whole grid, the
    /// long cell included — what its traced pass is held against.
    WholeGrid,
}

/// One workload process's orders.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Which workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// The timed window, seconds.
    pub seconds: f64,
    /// What to do.
    pub mode: Mode,
    /// Shrink probe and oracle sample sizes (the `--smoke` test mode).
    pub smoke: bool,
    /// When this process started.
    pub started: Instant,
}

impl Job {
    /// The window a traced run gives each of its two halves.
    fn half_window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 2.0)
    }

    /// The untraced window: all of `--seconds`, or the first half of a
    /// traced run.
    fn untraced_window(&self) -> Duration {
        match self.mode {
            Mode::Trace => self.half_window(),
            Mode::Measure | Mode::SetupOnly | Mode::WholeGrid => {
                Duration::from_secs_f64(self.seconds)
            }
        }
    }
}

/// Runs the job in this process.
pub fn run(job: Job) -> ChildReport {
    // One simulation at a time: the load comes from the benchmark's own
    // threads, and a pool would contend with them for the two cores.
    engine::set_jobs(1);
    let inputs = inputs::generate(job.workload, job.seed, job.seconds);
    let mut report = match job.workload {
        Workload::GridCold => grid_cold::run(&job, &inputs),
        Workload::SimSteady => sim_steady::run(&job, &inputs),
        Workload::BatchReplay => batch_replay::run(&job, &inputs),
        Workload::ServeHot | Workload::ServePaced | Workload::ServeChurn => {
            serve::run(&job, &inputs)
        }
    };
    report.peak_rss_mb = peak_rss_mb();
    report
}

/// `VmHWM` of this process, MB (0 where `/proc` is absent).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn label(cell: &revel_bench::grid::Cell) -> String {
    format!("{} {} [{}]", cell.bench.name(), cell.bench.params(), cell.arch)
}

/// The check every simulated run must pass: it ran, it finished inside
/// its budget, and its numbers match the kernel's reference.
fn check_run(what: &str, run: &Result<WorkloadRun, SimError>) -> Result<(), String> {
    match run {
        Err(e) => Err(format!("{what}: {e}")),
        Ok(r) => check_completed(what, r),
    }
}

fn check_completed(what: &str, run: &WorkloadRun) -> Result<(), String> {
    if run.report.timed_out {
        return Err(format!("{what}: timed out"));
    }
    run.verified.clone().map_err(|e| format!("{what}: verification failed: {e}"))
}

/// Engine and schedule-cache counters, for deltas over a window.
#[derive(Debug, Clone, Copy)]
struct Counters {
    engine: CacheStats,
    schedule: ScheduleCacheStats,
}

impl Counters {
    fn now() -> Counters {
        Counters { engine: engine::stats(), schedule: schedule_cache_stats() }
    }

    /// Records the counters' growth since `self`, divided by `per` (the
    /// passes in the window, so single-threaded counts repeat exactly
    /// whatever the window held; 1 for the windowed `serve_*` workloads).
    fn record_since(&self, report: &mut ChildReport, per: f64) {
        let now = Counters::now();
        let (a, b) = (&self.engine, &now.engine);
        let hits = (b.hits - a.hits) as f64;
        let misses = (b.misses - a.misses) as f64;
        for (name, delta) in [
            ("core.engine.hits", hits),
            ("core.engine.misses", misses),
            ("core.engine.evictions", (b.evictions - a.evictions) as f64),
            ("core.engine.trace_hits", (b.trace_hits - a.trace_hits) as f64),
            ("core.engine.batched_replays", (b.batched_replays - a.batched_replays) as f64),
            (
                "core.engine.deadline_fallbacks",
                (b.deadline_fallbacks - a.deadline_fallbacks) as f64,
            ),
            ("core.engine.sched_cache_hits", (now.schedule.hits - self.schedule.hits) as f64),
            ("core.engine.sched_cache_misses", (now.schedule.misses - self.schedule.misses) as f64),
        ] {
            report.layer(name, delta / per);
        }
        let lookups = hits + misses;
        report.layer("core.engine.hit_rate", if lookups > 0.0 { hits / lookups } else { 0.0 });
    }
}

/// Host seconds each part of one `run_built_with` took.
#[derive(Debug, Clone, Copy, Default)]
struct RunParts {
    machine_new: f64,
    run: f64,
    certify: f64,
    total: f64,
}

/// `revel_workloads::run_built_with`, taken apart so that each layer it
/// calls into is a span: machine construction, the run itself (lint gate,
/// schedule lookup, cycle kernel), the numeric check, the certifier.
fn run_built_traced(
    tr: &mut Tracer,
    built: &BuiltKernel,
    cfg: &BuildCfg,
    op: u64,
) -> (Result<WorkloadRun, SimError>, RunParts) {
    let mut parts = RunParts::default();
    let (result, total) = tr.span("workloads", "run_built", op, |tr| {
        let (mut machine, new_s) = tr.span("sim", "machine_new", op, |_| {
            let mut machine = Machine::new(cfg.machine_config(), cfg.sim_options());
            apply_init(&mut machine, &built.init);
            machine
        });
        parts.machine_new = new_s;
        let (report, run_s) = tr.span("sim", "run", op, |_| machine.run(&built.program));
        parts.run = run_s;
        let report = report?;
        let (verified, _) = tr.span("workloads", "check", op, |_| {
            if report.timed_out {
                Err("timed out".to_string())
            } else {
                (built.check)(&machine)
            }
        });
        let (cert, certify_s) = tr.span("verify", "certify", op, |_| {
            revel_core::verify::certify(&built.program, &cfg.machine_config())
        });
        parts.certify = certify_s;
        Ok(WorkloadRun { cycles: report.cycles, report, verified, oblivious: cert.is_ok() })
    });
    parts.total = total;
    (result, parts)
}

/// Writes the span file of a traced run, `out/trace-<workload>.json`
/// beside the benchmark's manifest, and records how many spans it holds.
fn write_span_file(job: &Job, tracer: &Tracer, report: &mut ChildReport) {
    let counters: Vec<(String, f64)> = report.layers.iter().map(|(k, v)| (k.clone(), *v)).collect();
    let text = trace::render_file(job.workload.name(), job.seed, tracer.spans(), &counters);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}.json", job.workload.name()));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text));
    report.check(written.map_err(|e| format!("writing {}: {e}", path.display())));
    report.layer("trace.spans", tracer.spans().len() as f64);
}

/// Runs passes until `window` has elapsed (always at least one), returning
/// each pass's duration in seconds.
fn passes_for(window: Duration, mut pass: impl FnMut()) -> Vec<f64> {
    let opened = Instant::now();
    let mut durations = Vec::new();
    loop {
        let t = Instant::now();
        pass();
        durations.push(t.elapsed().as_secs_f64());
        if opened.elapsed() >= window {
            return durations;
        }
    }
}
