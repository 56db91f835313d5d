//! Batched-replay gate: the "one timing run, N datasets" lever checked end
//! to end.
//!
//! For each certified cell the sweep runs every batch size twice — once as
//! N independent full simulations (the baseline any cache-less server
//! would pay) and once through `engine::run_batched` (one cycle-accurate
//! timing walk, N functional replays) — and checks two things:
//!
//! * **byte-equality**: every replayed lane's canonical report text,
//!   per-lane cycle breakdown, cycle count, and verification verdict match
//!   its independent full simulation exactly;
//! * **path proof**: the engine's `batched_replays` counter moves by
//!   exactly the lane count (the batch really took the replay path, the
//!   same counter-delta style as `fault_bypasses`).
//!
//! The wall-clock full/batched ratio is printed per batch size for the
//! reader; the bounded measurement of it is the benchmark's `batch_replay`
//! workload (`benchmark/README.md`).
//!
//! ```text
//! batched_throughput                     # small suite on revel, batch {1, 8, 64}
//! batched_throughput --subset            # two-cell CI smoke (solver + cholesky)
//! ```
//!
//! Any lane divergence or a batch that falls off the replay path prints a
//! diagnosis and exits nonzero.

use revel_core::compiler::BuildCfg;
use revel_core::engine;
use revel_core::workloads::{run_workload_with, WorkloadRun};
use revel_core::Bench;
use std::time::{Duration, Instant};

/// The batch sizes swept, smallest first so the batch-1 row shows the
/// timing-walk overhead the larger batches amortize.
const BATCHES: [u64; 3] = [1, 8, 64];

struct BatchPoint {
    batch: u64,
    full: Duration,
    batched: Duration,
    cycles: u64,
}

impl BatchPoint {
    fn speedup(&self) -> f64 {
        self.full.as_secs_f64() / self.batched.as_secs_f64().max(1e-9)
    }
}

/// Compares one replayed lane against its independent full simulation;
/// returns a diagnosis on any byte-level divergence.
fn lane_divergence(seed: u64, replayed: &WorkloadRun, full: &WorkloadRun) -> Option<String> {
    if replayed.cycles != full.cycles {
        return Some(format!("seed {seed}: {} cycles vs {} full", replayed.cycles, full.cycles));
    }
    if replayed.report.canonical_text() != full.report.canonical_text() {
        return Some(format!("seed {seed}: canonical report text diverged"));
    }
    if replayed.report.lane_breakdown != full.report.lane_breakdown {
        return Some(format!("seed {seed}: per-lane cycle breakdowns diverged"));
    }
    if replayed.verified.is_ok() != full.verified.is_ok() {
        return Some(format!(
            "seed {seed}: verification disagreed (replay {:?}, full {:?})",
            replayed.verified, full.verified
        ));
    }
    if full.verified.is_err() {
        return Some(format!("seed {seed}: full simulation failed verification"));
    }
    None
}

/// Sweeps one cell across the batch sizes. Returns the per-batch timing
/// points and any failures.
fn sweep_cell(bench: Bench, cfg: &BuildCfg) -> (Vec<BatchPoint>, Vec<String>) {
    let mut points = Vec::new();
    let mut failures = Vec::new();
    let opts = cfg.sim_options();
    for batch in BATCHES {
        let seeds: Vec<u64> = (1..=batch).collect();

        // Baseline: N independent full simulations, exactly what a client
        // without the batch op would issue.
        let t0 = Instant::now();
        let full: Vec<WorkloadRun> = seeds
            .iter()
            .map(|s| {
                run_workload_with(bench.workload_seeded(*s).as_ref(), cfg, opts)
                    .expect("full simulation runs")
            })
            .collect();
        let t_full = t0.elapsed();

        // Batched path, bracketed by the replay counter so the sweep
        // proves which path served it — not just that the answer matched.
        let before = engine::stats();
        let t1 = Instant::now();
        let result = bench.run_batched(cfg, &seeds).expect("batched run");
        let t_batched = t1.elapsed();
        let after = engine::stats();

        if !result.replayed {
            failures.push(format!("batch {batch}: fell off the replay path (uncertified?)"));
            continue;
        }
        let replays = after.batched_replays - before.batched_replays;
        if replays != batch {
            failures.push(format!(
                "batch {batch}: batched_replays moved by {replays}, expected {batch}"
            ));
        }
        for ((seed, replayed), full_run) in seeds.iter().zip(&result.runs).zip(&full) {
            if let Some(why) = lane_divergence(*seed, replayed, full_run) {
                failures.push(format!("batch {batch}: {why}"));
            }
        }
        points.push(BatchPoint {
            batch,
            full: t_full,
            batched: t_batched,
            cycles: result.runs[0].cycles,
        });
    }
    (points, failures)
}

fn main() {
    let mut subset = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--subset" => subset = true,
            "--jobs" | "-j" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => engine::set_jobs(n),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    // Every grid cell carries the certificate (oblivious_sweep pins that);
    // the sweep uses the small suite on revel — the serving configuration —
    // or a two-cell smoke subset for CI.
    let cells: Vec<Bench> = if subset {
        Bench::suite_small()
            .into_iter()
            .filter(|b| matches!(b.name(), "solver" | "cholesky"))
            .collect()
    } else {
        Bench::suite_small()
    };
    println!(
        "batched-throughput: {} cell(s) x batch {:?} (timings are wall-clock, this process)",
        cells.len(),
        BATCHES
    );

    let mut all_failures = Vec::new();
    for bench in cells {
        let cfg = BuildCfg::revel(bench.lanes());
        let name = format!("{}-{} [revel]", bench.name(), bench.params());
        let (points, failures) = sweep_cell(bench, &cfg);
        for p in &points {
            println!(
                "  {name}: batch {:>2}  full {:>9.3}ms  batched {:>9.3}ms  speedup {:>6.2}x  ({} cycles/lane)",
                p.batch,
                p.full.as_secs_f64() * 1e3,
                p.batched.as_secs_f64() * 1e3,
                p.speedup(),
                p.cycles
            );
        }
        for f in &failures {
            println!("  FAIL {name}: {f}");
        }
        all_failures.extend(failures.into_iter().map(|f| format!("{name}: {f}")));
    }

    if !all_failures.is_empty() {
        for f in &all_failures {
            eprintln!("batched-throughput: FAIL {f}");
        }
        std::process::exit(1);
    }
}

fn usage() -> ! {
    eprintln!("usage: batched_throughput [--subset] [--jobs N]");
    std::process::exit(2);
}
