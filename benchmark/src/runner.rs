//! The parent side of a run: spawns one fresh process per workload (and
//! per cold pass, and per extra set-up sample), folds their reports into
//! metrics, prints them, and keeps the result file.

use crate::inputs;
use crate::report::{self, ChildReport, RunSet, WorkloadResult};
use crate::spec::Workload;
use crate::workloads::Mode;
use revel_serve::json::{self, Value};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::UNIX_EPOCH;

/// Processes that each set a workload up, for the median `setup_s`.
const SETUP_SAMPLES: usize = 3;

/// The timed window of `--smoke`, seconds.
const SMOKE_SECONDS: f64 = 0.3;

/// The arguments of `run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workloads to run, in order.
    pub workloads: Vec<Workload>,
    /// The input seed.
    pub seed: u64,
    /// The timed window, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Tiny windows and samples: checks the plumbing, not the speed.
    pub smoke: bool,
    /// Result file to append this set to.
    pub out: Option<PathBuf>,
    /// Where to write the generated inputs.
    pub dump_inputs: Option<PathBuf>,
}

impl RunArgs {
    /// The window each workload process is given.
    fn window_seconds(&self) -> f64 {
        if self.smoke {
            SMOKE_SECONDS
        } else {
            self.seconds
        }
    }
}

fn spawn(workload: Workload, args: &RunArgs, mode: Mode) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mode = match mode {
        Mode::Measure => "measure",
        Mode::SetupOnly => "setup-only",
        Mode::Trace => "trace",
        Mode::WholeGrid => "whole-grid",
    };
    let now_us = UNIX_EPOCH.elapsed().map_or(0, |d| d.as_micros());
    let mut command = Command::new(exe);
    command
        .args(["child", "--workload", workload.name(), "--mode", mode])
        .args(["--spawned-at-us", &now_us.to_string()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.window_seconds().to_string()])
        .args(args.smoke.then_some("--smoke"))
        // Ambient switches that change what the system under test does.
        .env_remove("REVEL_SIM_DEBUG")
        .env_remove("REVEL_FAILPOINTS")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let output = command.output().map_err(|e| format!("starting {}: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!("{} ({mode}) exited with {}", workload.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    ChildReport::parse(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("{} ({mode}): {e}", workload.name()))
}

/// Runs one workload and folds its processes' reports.
fn run_workload(
    workload: Workload,
    args: &RunArgs,
) -> Result<(WorkloadResult, Vec<String>), String> {
    let mut reports = Vec::new();
    match (workload, args.trace) {
        (Workload::GridCold, false) => {
            // Cold passes in fresh processes, two per second of the window:
            // a count fixed by the arguments, not by the clock, so every run
            // of one command pools the same number of samples. A pass took
            // 0.31–0.35 s at the commit that defined the benchmark. Each
            // pass is also a sample of `setup_s`, here little more than
            // process start-up.
            let passes = if args.smoke { 1 } else { (2.0 * args.seconds).max(1.0) as usize };
            for _ in 0..passes {
                reports.push(spawn(workload, args, Mode::Measure)?);
            }
            let total = reports[0].modeled_cycles_total;
            if reports.iter().any(|r| r.modeled_cycles_total != total) {
                reports[0].check(Err("cold passes disagree on the grid's modeled cycles".into()));
            }
        }
        (Workload::GridCold, true) => {
            // The traced pass walks the layers from outside the engine, so
            // the engine's counters, and the pass the traced one is held
            // against, come from one untraced cold pass over the same 42
            // cells.
            let untraced = spawn(workload, args, Mode::WholeGrid)?;
            let mut traced = spawn(workload, args, Mode::Trace)?;
            let overhead = traced.pass_s[0] / untraced.pass_s[0] - 1.0;
            traced.layer("trace.overhead_share", overhead);
            reports.extend([untraced, traced]);
        }
        (_, false) => {
            reports.push(spawn(workload, args, Mode::Measure)?);
            for _ in 1..if args.smoke { 1 } else { SETUP_SAMPLES } {
                reports.push(spawn(workload, args, Mode::SetupOnly)?);
            }
        }
        (_, true) => reports.push(spawn(workload, args, Mode::Trace)?),
    }
    let failures = reports.iter().flat_map(|r| r.failures.iter().cloned()).collect();
    let result = if args.trace {
        WorkloadResult::per_layer(&reports)
    } else {
        WorkloadResult::end_to_end(&reports)
    };
    Ok((result, failures))
}

/// The paper's published value for a `models.*` metric, from
/// `paper_reference.json`; `None` where the paper gives no such figure.
fn paper_value(reference: &Value, metric: &str) -> Option<f64> {
    reference.get(metric)?.get("paper")?.as_f64()
}

fn print_result(workload: Workload, result: &WorkloadResult, failures: &[String], trace: bool) {
    if trace {
        println!("{} — per-layer ledger (traced run)", workload.name());
    } else {
        let tail = match result.tail_percentile {
            p if p > 50.0 => format!("tail read at p{p}"),
            _ => "too few calls for a tail: it reads as the centre".to_string(),
        };
        println!(
            "{} — one op = one {}; {} timed pass(es), {} timed call(s), {tail}",
            workload.name(),
            workload.op(),
            result.passes,
            result.latencies
        );
    }
    let reference = json::parse(include_str!("../paper_reference.json")).expect("reference file");
    for (name, value, unit) in &result.metrics {
        let beside = match (name.starts_with("models."), paper_value(&reference, name)) {
            (true, Some(paper)) if *value != 0.0 => {
                format!("   paper {paper}, relative error {:+.1} %", (value / paper - 1.0) * 100.0)
            }
            (true, None) if *value != 0.0 => "   no published value on file".to_string(),
            _ => String::new(),
        };
        println!("  {name:<40} {value:>16.6} {unit}{beside}");
    }
    println!(
        "  {:<40} {} of {} ({})",
        "failed",
        result.failed,
        result.attempted,
        if result.correct { "outputs correct" } else { "OUTPUTS WRONG" }
    );
    for failure in failures {
        println!("    failure: {failure}");
    }
}

/// Appends `set` to the result file at `path`, creating it if absent.
fn append_to_file(path: &PathBuf, set: RunSet) -> Result<(), String> {
    let mut sets = match std::fs::read_to_string(path) {
        Ok(text) => report::parse_file(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    sets.push(set);
    std::fs::write(path, report::render_file(&sets)).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every selected workload, its checks, its metrics by name; whether every
/// output was correct.
fn run_set(args: &RunArgs) -> Result<bool, String> {
    let mut set = RunSet::begin(args.seed, args.seconds, args.trace);
    if set.load_avg_1m > set.nproc as f64 {
        eprintln!(
            "warning: 1-minute load average {} exceeds the {} core(s); timings will be noisy",
            set.load_avg_1m, set.nproc
        );
    }
    if let Some(path) = &args.dump_inputs {
        let text: String = args
            .workloads
            .iter()
            .map(|&w| {
                let inputs = inputs::generate(w, args.seed, args.window_seconds());
                inputs::render(w, args.seed, &inputs)
            })
            .collect();
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut lines = Vec::new();
    for &workload in &args.workloads {
        let (result, failures) = run_workload(workload, args)?;
        print_result(workload, &result, &failures, args.trace);
        lines.push(result.contract_line());
        set.workloads.push((workload.name().to_string(), result));
    }
    let all_correct = set.workloads.iter().all(|(_, r)| r.correct);
    if let Some(path) = &args.out {
        append_to_file(path, set)?;
    }
    for line in lines {
        println!("{line}");
    }
    Ok(all_correct)
}

/// `run`. The last line of standard output is the last workload's one-line
/// result; nothing of the kind is printed when a workload could not run.
pub fn run(args: &RunArgs) -> ExitCode {
    match run_set(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
