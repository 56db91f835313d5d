//! The trace-equivalence oracle for the obliviousness certifier: every
//! grid cell is built twice with different *dataset* seeds — same problem
//! sizes, different input values — and the two runs must be timing-
//! indistinguishable: byte-identical canonical reports and equal per-lane
//! cycle breakdowns. Each cell must also carry the static certificate
//! (`WorkloadRun::oblivious`, read out of the memoized lint verdict the
//! way every run reads it), so the sweep demonstrates the soundness
//! direction end to end: statically certified ⇒ dynamically oblivious.
//!
//! ```text
//! oblivious_sweep             # full grid, seeds {1, 2}
//! oblivious_sweep --jobs 4    # explicit worker count
//! ```
//!
//! Any cell that loses the certificate, diverges between seeds, or fails
//! numeric verification prints a diff and exits nonzero — this is the CI
//! job that keeps the "one timing run, N datasets" cache lever honest.

use revel_bench::grid::{evaluation_grid, Cell};
use revel_core::engine;
use revel_core::workloads::run_workload_with;

/// The two dataset seeds each cell is swept under. Seed 1 is the value
/// every other experiment uses; seed 2 is an arbitrary distinct dataset.
const SEEDS: [u64; 2] = [1, 2];

/// Outcome of one cell: per-seed canonical reports and the certificates.
struct Outcome {
    cell: Cell,
    /// Canonical observable report text, one per seed.
    texts: Vec<String>,
    /// Per-lane cycle breakdowns agree across seeds.
    breakdowns_equal: bool,
    /// Static certificate held for every seed's build.
    certified: bool,
    /// Numeric verification passed for every seed.
    verified: bool,
    cycles: u64,
}

fn run_cell(cell: &Cell) -> Outcome {
    let mut texts = Vec::new();
    let mut breakdowns = Vec::new();
    let mut certified = true;
    let mut verified = true;
    let mut cycles = 0;
    for seed in SEEDS {
        let w = cell.bench.workload_seeded(seed);
        let run =
            run_workload_with(w.as_ref(), &cell.cfg, cell.cfg.sim_options()).expect("simulates");
        certified &= run.oblivious;
        verified &= run.verified.is_ok();
        cycles = run.cycles;
        texts.push(run.report.canonical_text());
        breakdowns.push(run.report.lane_breakdown.clone());
    }
    let breakdowns_equal = breakdowns.windows(2).all(|w| w[0] == w[1]);
    Outcome { cell: *cell, texts, breakdowns_equal, certified, verified, cycles }
}

fn main() {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" | "-j" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => engine::set_jobs(n),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let cells = evaluation_grid();
    println!("oblivious-sweep: {} grid cells × {} dataset seeds each", cells.len(), SEEDS.len());
    let outcomes = engine::par_map(&cells, run_cell);

    let mut failures = 0usize;
    for o in &outcomes {
        let name = format!("{}-{} [{}]", o.cell.bench.name(), o.cell.bench.params(), o.cell.arch);
        let traces_equal = o.texts.windows(2).all(|w| w[0] == w[1]);
        if o.certified && o.verified && traces_equal && o.breakdowns_equal {
            println!("  ok {name}: certified, {} cycles under every seed", o.cycles);
            continue;
        }
        failures += 1;
        println!("  FAIL {name}");
        if !o.certified {
            println!("    static certificate missing (the verdict holds V015–V019 findings)");
        }
        if !o.verified {
            println!("    numeric verification failed under some seed");
        }
        if !o.breakdowns_equal {
            println!("    per-lane cycle breakdowns differ between seeds");
        }
        if !traces_equal {
            for (seed, text) in SEEDS.iter().zip(&o.texts) {
                println!("    --- seed {seed} ---\n{text}");
            }
        }
    }
    println!(
        "oblivious-sweep: {}/{} cells certified and trace-equivalent across seeds",
        outcomes.len() - failures,
        outcomes.len()
    );
    if failures > 0 {
        eprintln!("oblivious-sweep: {failures} cell(s) failed");
        std::process::exit(1);
    }
}

fn usage() -> ! {
    eprintln!("usage: oblivious_sweep [--jobs N]");
    std::process::exit(2);
}
