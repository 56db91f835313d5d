//! Everything a workload feeds the system, generated from `--seed` by the
//! benchmark's own code: cell order, per-connection walks, dataset seeds
//! and the open-loop arrival schedule. The program under test sees only
//! these inputs, never the seed.

use crate::spec::Workload;
use revel_bench::grid::{evaluation_grid, Cell};
use revel_core::compiler::BuildCfg;
use revel_core::isa::Rng;
use revel_core::Bench;
use std::fmt::Write as _;

/// Client connections (and client threads) of the `serve_*` workloads:
/// the machine's two cores, no more.
pub const CONNECTIONS: usize = 2;

/// Datasets per `run_batched` call on `batch_replay`.
pub const DATASETS_PER_CALL: usize = 64;

/// Arrival rate of `serve_paced`, requests per second over all connections.
pub const PACED_RPS: u64 = 200;

/// One open-loop arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the request is due, microseconds after the window opens.
    pub due_us: u64,
    /// The connection that sends it.
    pub conn: usize,
    /// Index into [`Inputs::cells`].
    pub cell: usize,
}

/// The generated inputs of one workload run. Fields a workload does not
/// use are empty.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The workload's cells, in grid order.
    pub cells: Vec<Cell>,
    /// One visiting order per client thread (indices into `cells`); the
    /// single-threaded workloads have one.
    pub walks: Vec<Vec<usize>>,
    /// Dataset seeds of one `run_batched` call (`batch_replay`).
    pub dataset_seeds: Vec<u64>,
    /// The arrival schedule (`serve_paced`), by due time.
    pub arrivals: Vec<Arrival>,
}

/// An independent generator per (seed, purpose), so adding a consumer
/// never shifts another's stream.
fn stream(seed: u64, purpose: &str) -> Rng {
    let tag = purpose.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let mut rng = Rng::seed_from_u64(seed ^ tag);
    rng.next_u64();
    rng
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_index(i + 1));
    }
    order
}

fn revel_cells(benches: Vec<Bench>) -> Vec<Cell> {
    benches
        .into_iter()
        .map(|bench| Cell { bench, cfg: BuildCfg::revel(bench.lanes()), arch: "revel" })
        .collect()
}

/// The 35 small-suite cells of the evaluation grid (every architecture
/// and ablation step): what the `serve_*` workloads request.
fn small_grid_cells() -> Vec<Cell> {
    let small = Bench::suite_small();
    evaluation_grid().into_iter().filter(|c| small.contains(&c.bench)).collect()
}

/// True for the one cell of the evaluation grid that `grid_cold` walks
/// only in its traced run: svd n=32 on REVEL. Cold, it is a single call of
/// about a second (nine tenths of it `verify`'s scratchpad-hazard lint,
/// pairwise through `BTreeSet`s) and three quarters of a cold pass over all
/// 42 cells. A call that long never falls between the neighbours' bursts of
/// cache traffic on the shared machines the benchmark runs on: over 300
/// cold passes cut into runs of fifteen, its fastest repeat spread 8–10 %
/// between the quartiles where the other 41 cells' sum spread 3 %, runs of
/// thirty or sixty were no steadier, and on a busy host the whole grid's
/// `ops_per_s` spread 26–28 % — outside the widest bound the pipeline
/// allows. So it stays out of the end-to-end passes. The ledger has it
/// (`verify.program_lints_max_cell_ms`), and it is four fifths of
/// `sim_steady`'s `setup_s`, which is bounded. The README's "The long
/// cell" has the measurements.
pub fn is_long_cell(cell: &Cell) -> bool {
    cell.bench == Bench::Svd { n: 32 } && cell.arch == "revel"
}

/// A Poisson process at `rate` per second conditioned on its count over
/// the window: `rate × seconds` arrivals whose gaps are exponential draws
/// scaled so the last arrival falls inside the window. Every seed then
/// sends the same number of requests, and only their spacing varies.
fn poisson_schedule(seed: u64, rate: u64, seconds: f64, cells: usize) -> Vec<Arrival> {
    let n = (rate as f64 * seconds).round().max(1.0) as usize;
    let mut gaps = stream(seed, "arrival-gaps");
    let mut choice = stream(seed, "arrival-cells");
    let mut at = 0.0;
    let sums: Vec<f64> = (0..=n)
        .map(|_| {
            at += -(1.0 - gaps.gen_f64()).ln();
            at
        })
        .collect();
    let scale = seconds * 1e6 / sums[n];
    (0..n)
        .map(|i| Arrival {
            due_us: (sums[i] * scale) as u64,
            conn: i % CONNECTIONS,
            cell: choice.gen_index(cells),
        })
        .collect()
}

/// Generates the inputs of `workload` for `seed`. `seconds` sizes the
/// arrival schedule of `serve_paced`; nothing else depends on it.
pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Inputs {
    let cells = match workload {
        Workload::GridCold => evaluation_grid(),
        Workload::SimSteady => revel_cells(Bench::suite_large()),
        Workload::BatchReplay => revel_cells(Bench::suite_small()),
        Workload::ServeHot | Workload::ServePaced | Workload::ServeChurn => small_grid_cells(),
    };
    let walkers = match workload {
        Workload::ServeHot | Workload::ServeChurn => CONNECTIONS,
        Workload::ServePaced => 0,
        _ => 1,
    };
    let mut order = stream(seed, "cell-order");
    let walks = (0..walkers).map(|_| permutation(cells.len(), &mut order)).collect();
    let dataset_seeds = if workload == Workload::BatchReplay {
        let mut rng = stream(seed, "dataset-seeds");
        (0..DATASETS_PER_CALL).map(|_| rng.next_u64()).collect()
    } else {
        Vec::new()
    };
    let arrivals = if workload == Workload::ServePaced {
        poisson_schedule(seed, PACED_RPS, seconds, cells.len())
    } else {
        Vec::new()
    };
    Inputs { cells, walks, dataset_seeds, arrivals }
}

/// The `--dump-inputs` text: one line per generated item. The same
/// (workload, seed, seconds) renders byte-identically.
pub fn render(workload: Workload, seed: u64, inputs: &Inputs) -> String {
    let mut out = format!("workload {} seed {seed}\n", workload.name());
    for (i, c) in inputs.cells.iter().enumerate() {
        let note = match workload {
            Workload::GridCold if is_long_cell(c) => " traced-run-only",
            _ => "",
        };
        let _ = writeln!(out, "cell {i} {} {} {}{note}", c.bench.name(), c.bench.params(), c.arch);
    }
    for (i, walk) in inputs.walks.iter().enumerate() {
        let order: Vec<String> = walk.iter().map(usize::to_string).collect();
        let _ = writeln!(out, "walk {i} {}", order.join(" "));
    }
    for s in &inputs.dataset_seeds {
        let _ = writeln!(out, "dataset-seed {s}");
    }
    for a in &inputs.arrivals {
        let _ = writeln!(out, "arrival due_us={} conn={} cell={}", a.due_us, a.conn, a.cell);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = generate(w, 11, 3.0);
            assert_eq!(a, generate(w, 11, 3.0), "{}", w.name());
            assert_eq!(render(w, 11, &a), render(w, 11, &generate(w, 11, 3.0)));
            assert_ne!(render(w, 11, &a), render(w, 12, &generate(w, 12, 3.0)), "{}", w.name());
        }
    }

    #[test]
    fn workloads_get_the_cells_the_readme_promises() {
        let grid = generate(Workload::GridCold, 1, 1.0);
        assert_eq!(grid.cells.len(), 42);
        assert_eq!(grid.cells.iter().filter(|c| is_long_cell(c)).count(), 1);
        assert_eq!(render(Workload::GridCold, 1, &grid).matches("traced-run-only").count(), 1);
        assert_eq!(generate(Workload::SimSteady, 1, 1.0).cells.len(), 7);
        assert_eq!(generate(Workload::BatchReplay, 1, 1.0).cells.len(), 7);
        let hot = generate(Workload::ServeHot, 1, 1.0);
        assert_eq!(hot.cells.len(), 35);
        assert_eq!(hot.walks.len(), CONNECTIONS);
        assert_ne!(hot.walks[0], hot.walks[1], "each connection walks its own permutation");
        for walk in &hot.walks {
            let mut sorted = walk.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..35).collect::<Vec<_>>());
        }
        assert_eq!(generate(Workload::BatchReplay, 1, 1.0).dataset_seeds.len(), DATASETS_PER_CALL);
    }

    #[test]
    fn poisson_schedule_has_the_stated_rate_and_exponential_gaps() {
        let seconds = 20.0;
        let arrivals = poisson_schedule(5, PACED_RPS, seconds, 35);
        assert_eq!(arrivals.len() as f64, PACED_RPS as f64 * seconds, "count is rate × window");
        assert!(arrivals.windows(2).all(|w| w[0].due_us <= w[1].due_us), "sorted by due time");
        assert!(arrivals.last().expect("non-empty").due_us < (seconds * 1e6) as u64);
        assert!(arrivals.iter().all(|a| a.cell < 35 && a.conn < CONNECTIONS));
        // Exponential gaps have a standard deviation equal to their mean.
        let gaps: Vec<f64> =
            arrivals.windows(2).map(|w| (w[1].due_us - w[0].due_us) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean - 1e6 / PACED_RPS as f64).abs() < 0.02 * mean, "mean gap {mean} us");
        assert!((var.sqrt() / mean - 1.0).abs() < 0.1, "cv {}", var.sqrt() / mean);
        assert_eq!(arrivals, poisson_schedule(5, PACED_RPS, seconds, 35));
        assert_ne!(arrivals, poisson_schedule(6, PACED_RPS, seconds, 35));
    }
}
