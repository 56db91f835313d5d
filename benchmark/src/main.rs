//! The repository's one benchmark: six named workloads over the whole
//! stack — simulator, engine, service — with end-to-end metrics measured
//! untraced and a per-layer ledger from a separate traced run. See
//! `README.md` beside the manifest for what each workload isolates.
//!
//! ```text
//! revel-benchmark run [--workload W]... [--seed S] [--seconds N] [--trace [0|1]]
//!                     [--smoke] [--out FILE] [--dump-inputs FILE]
//! revel-benchmark compare BASE.json NEW.json
//! ```

#![forbid(unsafe_code)]

mod compare;
mod inputs;
mod report;
mod runner;
mod spec;
mod stats;
mod trace;
mod workloads;

use runner::RunArgs;
use spec::Workload;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant, UNIX_EPOCH};
use workloads::{Job, Mode};

const USAGE: &str = "usage:
  revel-benchmark run [--workload W]... [--seed S] [--seconds N] [--trace [0|1]]
                      [--smoke] [--out FILE] [--dump-inputs FILE]
  revel-benchmark compare BASE.json NEW.json
workloads: grid_cold sim_steady batch_replay serve_hot serve_paced serve_churn (default: all)";

/// The timed window when `--seconds` is absent: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

/// Everything `run` and the internal `child` accept.
#[derive(Debug, PartialEq)]
struct Parsed {
    run: RunArgs,
    mode: Mode,
    /// When the parent spawned this child, microseconds since the epoch.
    spawned_at_us: Option<u64>,
}

fn parse(args: &[String]) -> Result<Parsed, String> {
    let mut parsed = Parsed {
        run: RunArgs {
            workloads: Vec::new(),
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
            out: None,
            dump_inputs: None,
        },
        mode: Mode::Measure,
        spawned_at_us: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            // `--trace` alone switches tracing on; the pipeline passes 0 or 1.
            "--trace" => {
                let given = it.next_if(|v| matches!(v.as_str(), "0" | "1"));
                parsed.run.trace = given.is_none_or(|v| v == "1");
            }
            "--workload" => {
                let name = value()?;
                let w = Workload::parse(name).ok_or(format!("unknown workload '{name}'"))?;
                parsed.run.workloads.push(w);
            }
            "--seed" => parsed.run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                parsed.run.seconds = s;
            }
            "--out" => parsed.run.out = Some(PathBuf::from(value()?)),
            "--dump-inputs" => parsed.run.dump_inputs = Some(PathBuf::from(value()?)),
            "--mode" => {
                parsed.mode = match value()?.as_str() {
                    "measure" => Mode::Measure,
                    "setup-only" => Mode::SetupOnly,
                    "trace" => Mode::Trace,
                    "whole-grid" => Mode::WholeGrid,
                    other => return Err(format!("unknown mode '{other}'")),
                }
            }
            "--spawned-at-us" => {
                parsed.spawned_at_us =
                    Some(value()?.parse().map_err(|e| format!("--spawned-at-us: {e}"))?);
            }
            "--smoke" => parsed.run.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if parsed.run.workloads.is_empty() {
        parsed.run.workloads = Workload::ALL.to_vec();
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) if command == "run" => parse(rest).map(|p| runner::run(&p.run)),
        // One workload in this process; the report is the only output.
        Some((command, rest)) if command == "child" => parse(rest).map(|p| {
            // Set-up counts from when the parent launched this process, so
            // process start-up is part of it; the wall clock bridges the
            // two processes, the monotonic clock takes over from here.
            let since_spawn = p
                .spawned_at_us
                .and_then(|at| (UNIX_EPOCH + Duration::from_micros(at)).elapsed().ok())
                .unwrap_or_default();
            let started = started.checked_sub(since_spawn).unwrap_or(started);
            let job = Job {
                workload: p.run.workloads[0],
                seed: p.run.seed,
                seconds: p.run.seconds,
                mode: p.mode,
                smoke: p.run.smoke,
                started,
            };
            println!("{}", workloads::run(job).render());
            ExitCode::SUCCESS
        }),
        Some((command, rest)) if command == "compare" => match rest {
            [base, new] => Ok(compare::compare(base.as_ref(), new.as_ref())),
            _ => Err("compare takes two result files".to_string()),
        },
        _ => Err("expected run or compare".to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Parsed, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_pipeline_form_parses() {
        let p = parse_strs(&[
            "--workload",
            "serve_hot",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .expect("parses");
        assert_eq!(p.run.workloads, [Workload::ServeHot]);
        assert_eq!((p.run.seed, p.run.seconds, p.run.trace), (9, 10.0, false));
        assert!(parse_strs(&["--trace", "1"]).expect("parses").run.trace);
    }

    #[test]
    fn a_bare_trace_flag_switches_tracing_on_and_all_workloads_are_the_default() {
        let p = parse_strs(&["--trace", "--smoke"]).expect("parses");
        assert!(p.run.trace && p.run.smoke);
        assert_eq!(p.run.workloads, Workload::ALL);
        assert!(parse_strs(&["--trace"]).expect("parses").run.trace);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse_strs(&["--workload", "grid"]).is_err());
        assert!(parse_strs(&["--seconds", "0"]).is_err());
        assert!(parse_strs(&["--seconds"]).is_err());
        assert!(parse_strs(&["--frobnicate"]).is_err());
    }
}
