//! The evaluation suite: each kernel at Table V parameters with every
//! comparison point attached.

use crate::engine::engine;
use revel_compiler::BuildCfg;
use revel_models::{asic, cpu, dsp, gpu};
use revel_sim::SimError;
use revel_workloads::{CentroFir, Cholesky, Fft, Gemm, Qr, Solver, Svd, Workload, WorkloadRun};

/// Jacobi sweeps used for the SVD benchmarks (the paper's `m` iteration
/// parameter; kept small so cycle-level simulation stays fast — all
/// platforms are modelled at the same sweep count, so ratios are unaffected).
pub const SVD_SWEEPS: usize = 2;

/// One benchmark: a kernel instance plus its analytical comparison models.
/// `Eq + Hash` so a `(Bench, BuildCfg)` pair can fingerprint a simulation
/// in the evaluation engine's run cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bench {
    /// Triangular solver, batch-1 on one lane (Table V).
    Solver {
        /// Matrix dimension.
        n: usize,
    },
    /// Cholesky decomposition.
    Cholesky {
        /// Matrix dimension.
        n: usize,
    },
    /// Householder QR.
    Qr {
        /// Matrix dimension.
        n: usize,
    },
    /// One-sided Jacobi SVD.
    Svd {
        /// Matrix dimension.
        n: usize,
    },
    /// Radix-2 FFT.
    Fft {
        /// Transform size.
        n: usize,
    },
    /// Dense GEMM (8 lanes).
    Gemm {
        /// Rows of A/C.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Columns of B/C.
        p: usize,
    },
    /// Centro-symmetric FIR (8 lanes).
    Fir {
        /// Filter taps.
        taps: usize,
        /// Output samples.
        n: usize,
    },
}

impl Bench {
    /// The "small" suite (Table V bold small sizes).
    pub fn suite_small() -> Vec<Bench> {
        vec![
            Bench::Svd { n: 12 },
            Bench::Qr { n: 12 },
            Bench::Cholesky { n: 12 },
            Bench::Solver { n: 12 },
            Bench::Fft { n: 64 },
            Bench::Gemm { m: 12, k: 16, p: 64 },
            Bench::Fir { taps: 37, n: 1024 },
        ]
    }

    /// The "large" suite (Table V bold large sizes).
    pub fn suite_large() -> Vec<Bench> {
        vec![
            Bench::Svd { n: 32 },
            Bench::Qr { n: 32 },
            Bench::Cholesky { n: 32 },
            Bench::Solver { n: 32 },
            Bench::Fft { n: 1024 },
            Bench::Gemm { m: 48, k: 16, p: 64 },
            Bench::Fir { taps: 199, n: 1024 },
        ]
    }

    /// Shorthand constructors for doc examples and tests.
    pub fn cholesky_small() -> Bench {
        Bench::Cholesky { n: 12 }
    }

    /// Kernel name (figure labels).
    pub fn name(&self) -> &'static str {
        match self {
            Bench::Solver { .. } => "solver",
            Bench::Cholesky { .. } => "cholesky",
            Bench::Qr { .. } => "qr",
            Bench::Svd { .. } => "svd",
            Bench::Fft { .. } => "fft",
            Bench::Gemm { .. } => "gemm",
            Bench::Fir { .. } => "fir",
        }
    }

    /// Parameter string.
    pub fn params(&self) -> String {
        self.workload().params()
    }

    /// Lanes used in batch-1 mode. GEMM/FIR partition one problem across
    /// the lanes; Cholesky pipelines its outer iterations around the lane
    /// ring (Fig. 17). QR/SVD/Solver/FFT run one lane (the paper also
    /// rings QR across 8 lanes — future work here, see EXPERIMENTS.md).
    pub fn lanes(&self) -> usize {
        match self {
            Bench::Gemm { .. } | Bench::Fir { .. } | Bench::Cholesky { .. } => 8,
            _ => 1,
        }
    }

    /// The workload object (batch-1 semantics).
    pub fn workload(&self) -> Box<dyn Workload> {
        self.workload_seeded(1)
    }

    /// The workload object with a caller-chosen dataset seed. The seed
    /// changes only the input values, never the program structure: two
    /// seeds of the same cell must produce identical command streams, and
    /// so identical timing too.
    pub fn workload_seeded(&self, seed: u64) -> Box<dyn Workload> {
        match *self {
            Bench::Solver { n } => Box::new(Solver::new(n, seed)),
            Bench::Cholesky { n } => Box::new(Cholesky::parallel(n, seed)),
            Bench::Qr { n } => Box::new(Qr::new(n, seed)),
            Bench::Svd { n } => Box::new(Svd::new(n, SVD_SWEEPS, seed)),
            Bench::Fft { n } => Box::new(Fft::new(n, seed)),
            Bench::Gemm { m, k, p } => Box::new(Gemm::new(m, k, p, seed)),
            Bench::Fir { taps, n } => Box::new(CentroFir::new(taps, n, seed)),
        }
    }

    /// The workload object with batch semantics (one independent problem
    /// per lane; used by the Figure 20 batch-8 experiment).
    pub fn batch_workload(&self) -> Box<dyn Workload> {
        match *self {
            Bench::Cholesky { n } => Box::new(Cholesky::new(n, 1)),
            _ => self.workload(),
        }
    }

    /// True when [`Bench::batch_workload`] builds a different program than
    /// [`Bench::workload`] (kept in lockstep with the match above, so the
    /// run cache shares entries whenever the two builds are identical).
    pub(crate) fn batch_build_differs(&self) -> bool {
        matches!(self, Bench::Cholesky { .. })
    }

    /// FLOPs per invocation.
    pub fn flops(&self) -> u64 {
        self.workload().flops()
    }

    /// Ideal-ASIC cycles (Table IV).
    pub fn asic_cycles(&self) -> u64 {
        match *self {
            Bench::Solver { n } => asic::solver_cycles(n),
            Bench::Cholesky { n } => asic::cholesky_cycles(n),
            Bench::Qr { n } => asic::qr_cycles(n),
            Bench::Svd { n } => asic::svd_cycles(n, SVD_SWEEPS),
            Bench::Fft { n } => asic::fft_cycles(n),
            Bench::Gemm { m, k, p } => asic::gemm_cycles(m, k, p),
            Bench::Fir { taps, n } => asic::fir_cycles(n, taps),
        }
    }

    /// DSP-model cycles.
    pub fn dsp_cycles(&self) -> u64 {
        match *self {
            Bench::Solver { n } => dsp::solver_cycles(n),
            Bench::Cholesky { n } => dsp::cholesky_cycles(n),
            Bench::Qr { n } => dsp::qr_cycles(n),
            Bench::Svd { n } => dsp::svd_cycles(n, SVD_SWEEPS),
            Bench::Fft { n } => dsp::fft_cycles(n),
            Bench::Gemm { m, k, p } => dsp::gemm_cycles(m, k, p),
            Bench::Fir { taps, n } => dsp::fir_cycles(n, taps),
        }
    }

    /// CPU-model cycles (2.1 GHz domain).
    pub fn cpu_cycles(&self) -> u64 {
        match *self {
            Bench::Solver { n } => cpu::solver_cycles(n),
            Bench::Cholesky { n } => cpu::cholesky_mkl(n, 8),
            Bench::Qr { n } => cpu::qr_cycles(n),
            Bench::Svd { n } => cpu::svd_cycles(n, SVD_SWEEPS),
            Bench::Fft { n } => cpu::fft_cycles(n),
            Bench::Gemm { m, k, p } => cpu::gemm_cycles(m, k, p),
            Bench::Fir { taps, n } => cpu::fir_cycles(n, taps),
        }
    }

    /// GPU-model cycles (1.2 GHz domain).
    pub fn gpu_cycles(&self) -> u64 {
        let flops = self.flops();
        match *self {
            Bench::Solver { n } => gpu::solver_cycles(n, flops),
            Bench::Cholesky { n } => gpu::cholesky_cycles(n, flops),
            Bench::Qr { n } => gpu::qr_cycles(n, flops),
            Bench::Svd { n } => gpu::svd_cycles(n, SVD_SWEEPS, flops),
            Bench::Fft { .. } => gpu::fft_cycles(flops),
            Bench::Gemm { .. } => gpu::gemm_cycles(flops),
            Bench::Fir { .. } => gpu::fir_cycles(flops),
        }
    }

    /// Runs the kernel on a build configuration (verified), through the
    /// evaluation engine's process-wide run cache: the first call per
    /// `(bench, cfg)` simulates, repeats are free.
    ///
    /// # Errors
    /// Propagates simulator errors.
    pub fn run(&self, cfg: &BuildCfg) -> Result<WorkloadRun, SimError> {
        engine().run_cached(*self, cfg, false, None)
    }

    /// [`Bench::run`] as the serving front-end needs it: memory cache first
    /// (a hit is served whatever the deadline), then the engine's
    /// persistent tier (when [`crate::engine::enable_persistence`] is
    /// active), then a simulation under the per-request wall-clock
    /// `deadline` ([`revel_sim::SimOptions::wall_deadline`]). A run the
    /// deadline cut short is returned as `timed_out` (with
    /// `deadline_expired` set) but never cached. A disk hit returns the
    /// persisted result surface of a previous process's run without
    /// simulating — a restarted server's warm-start path.
    ///
    /// # Errors
    /// Propagates simulator errors.
    pub fn run_served(
        &self,
        cfg: &BuildCfg,
        deadline: Option<std::time::Instant>,
    ) -> Result<crate::engine::Served, SimError> {
        crate::engine::run_served(*self, cfg, deadline)
    }

    /// Executes this bench once per dataset seed through the engine's
    /// batched replay path ([`crate::engine::run_batched`]): one timing
    /// walk plus N cheap functional replays.
    ///
    /// # Errors
    /// Propagates simulator errors.
    pub fn run_batched(
        &self,
        cfg: &BuildCfg,
        seeds: &[u64],
    ) -> Result<crate::engine::BatchRun, SimError> {
        crate::engine::run_batched(*self, cfg, seeds)
    }

    /// Builds the kernel for `cfg` and runs every static lint over it,
    /// including post-schedule legality, through the engine's lint cache.
    /// Empty result = clean.
    pub fn lint(&self, cfg: &BuildCfg) -> Vec<revel_verify::Diagnostic> {
        engine().lint(*self, cfg)
    }

    /// Runs REVEL and both spatial baselines, returning all comparisons
    /// (each run served by the evaluation engine's cache).
    ///
    /// # Errors
    /// Propagates simulator errors; panics (via `assert_ok`) if any run
    /// fails numerical verification.
    pub fn compare(&self) -> Result<Comparison, SimError> {
        engine().compare(*self)
    }
}

/// Measured + modelled results for one kernel.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The benchmark.
    pub bench: Bench,
    /// REVEL's verified run (cycles, breakdown, events).
    pub revel: WorkloadRun,
    /// Pure-systolic baseline cycles.
    pub systolic_cycles: u64,
    /// Tagged-dataflow baseline cycles.
    pub dataflow_cycles: u64,
}

impl Comparison {
    /// REVEL speedup over the DSP model (same 1.25 GHz clock).
    pub fn speedup_vs_dsp(&self) -> f64 {
        self.bench.dsp_cycles() as f64 / self.revel.cycles as f64
    }

    /// REVEL speedup over the systolic baseline.
    pub fn speedup_vs_systolic(&self) -> f64 {
        self.systolic_cycles as f64 / self.revel.cycles as f64
    }

    /// REVEL speedup over the dataflow baseline.
    pub fn speedup_vs_dataflow(&self) -> f64 {
        self.dataflow_cycles as f64 / self.revel.cycles as f64
    }

    /// REVEL's fraction of ideal-ASIC performance.
    pub fn fraction_of_ideal(&self) -> f64 {
        self.bench.asic_cycles() as f64 / self.revel.cycles as f64
    }
}

/// Geometric mean helper. `None` for an empty set — an absent measurement
/// must never masquerade as a `0.0x` speedup.
pub(crate) fn geomean(vals: impl IntoIterator<Item = f64>) -> Option<f64> {
    let v: Vec<f64> = vals.into_iter().collect();
    if v.is_empty() {
        return None;
    }
    Some((v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_cover_all_kernels() {
        let names: Vec<&str> = Bench::suite_small().iter().map(|b| b.name()).collect();
        assert_eq!(names, ["svd", "qr", "cholesky", "solver", "fft", "gemm", "fir"]);
        assert_eq!(Bench::suite_large().len(), 7);
    }

    #[test]
    fn models_all_positive() {
        for b in Bench::suite_small() {
            assert!(b.asic_cycles() > 0, "{}", b.name());
            assert!(b.dsp_cycles() > 0);
            assert!(b.cpu_cycles() > 0);
            assert!(b.gpu_cycles() > 0);
            assert!(b.flops() > 0);
        }
    }

    #[test]
    fn cholesky_small_comparison_is_sane() {
        let c = Bench::cholesky_small().compare().unwrap();
        assert!(c.speedup_vs_dsp() > 1.0, "vs dsp {}", c.speedup_vs_dsp());
        assert!(c.speedup_vs_systolic() > 1.0);
        assert!(c.speedup_vs_dataflow() > 1.0);
        assert!(c.fraction_of_ideal() < 1.5);
    }

    #[test]
    fn geomean_works() {
        assert!((geomean([2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_empty_set_is_explicitly_absent() {
        // Not 0.0: a figure with no rows has no speedup, and "0.0x" would
        // read as "infinitely slower".
        assert_eq!(geomean([]), None);
    }

    #[test]
    fn repeated_comparisons_share_cached_runs() {
        // Exact counter claims: its own engine, not the process one the
        // sibling tests of this binary are simulating on.
        let e = crate::engine::Engine::new();
        let b = Bench::cholesky_small();
        let first = e.compare(b).unwrap();
        let before = e.stats();
        let second = e.compare(b).unwrap();
        let after = e.stats();
        assert_eq!(first.revel.cycles, second.revel.cycles);
        assert_eq!(after.misses, before.misses, "repeat comparison must not re-simulate");
        assert_eq!(after.hits, before.hits + 3, "all three arch runs served from cache");
    }
}
