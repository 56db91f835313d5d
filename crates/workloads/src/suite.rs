//! The workload suite: the `Workload` trait, built-kernel plumbing, the
//! runner, and the Table V parameter sets.

use revel_compiler::BuildCfg;
use revel_isa::LaneId;
use revel_sim::{Machine, RevelProgram, RunReport, SimError, SimOptions};
use std::sync::Arc;

/// Initial scratchpad contents for a kernel.
#[derive(Debug, Clone)]
pub enum MemInit {
    /// Data in one lane's private scratchpad.
    Private {
        /// Target lane.
        lane: u8,
        /// Word address.
        addr: i64,
        /// Values.
        data: Vec<f64>,
    },
    /// Data in the shared scratchpad.
    Shared {
        /// Word address.
        addr: i64,
        /// Values.
        data: Vec<f64>,
    },
}

/// Verification callback: inspects machine memory after the run.
/// `Send + Sync` so built kernels (and their runs) can fan out across the
/// evaluation engine's worker threads.
pub type CheckFn = Arc<dyn Fn(&Machine) -> Result<(), String> + Send + Sync>;

/// A kernel compiled for a particular build configuration.
#[derive(Clone)]
pub struct BuiltKernel {
    /// The program to execute.
    pub program: RevelProgram,
    /// Scratchpad initialization.
    pub init: Vec<MemInit>,
    /// Numerical verification against the reference implementation.
    pub check: CheckFn,
}

// The evaluation engine fans built kernels and their runs out across
// worker threads; losing either bound is a compile error here rather than
// an inference failure at a distant spawn site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BuiltKernel>();
    assert_send_sync::<WorkloadRun>();
    assert_send_sync::<Machine>();
};

impl std::fmt::Debug for BuiltKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltKernel").field("program", &self.program.name).finish_non_exhaustive()
    }
}

/// A kernel of the evaluation suite.
pub trait Workload {
    /// Kernel name (matches the paper's figures).
    fn name(&self) -> &'static str;
    /// Human-readable parameter string (e.g. `"n=16"`).
    fn params(&self) -> String;
    /// Floating-point operations of one invocation.
    fn flops(&self) -> u64;
    /// Builds the kernel for a configuration.
    fn build(&self, cfg: &BuildCfg) -> BuiltKernel;
}

/// The outcome of running a workload on the simulator.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// Cycle count.
    pub cycles: u64,
    /// Full simulator report.
    pub report: RunReport,
    /// Verification result.
    pub verified: Result<(), String>,
    /// Always true: every program's timing is data-independent by
    /// construction (DESIGN.md §13). Kept only because `benchmark/` builds
    /// this struct literal; ROADMAP item 1's benchmark change removes it.
    pub oblivious: bool,
}

impl WorkloadRun {
    /// Panics with a diagnostic if the run was wrong or hung; a hung run's
    /// panic carries the machine state it hung in.
    pub fn assert_ok(&self, label: &str) {
        if self.report.timed_out {
            let snapshot =
                self.report.deadlock.as_ref().map(ToString::to_string).unwrap_or_default();
            panic!("{label}: simulation deadlocked\n{snapshot}");
        }
        if let Err(e) = &self.verified {
            panic!("{label}: verification failed: {e}");
        }
    }

    /// FLOP/cycle given the workload's operation count.
    pub fn flops_per_cycle(&self, flops: u64) -> f64 {
        flops as f64 / self.cycles.max(1) as f64
    }
}

/// Builds the machine for `cfg`, initializes memory, runs, verifies.
///
/// # Errors
/// Propagates simulator errors (malformed program / unschedulable config).
pub fn run_workload(workload: &dyn Workload, cfg: &BuildCfg) -> Result<WorkloadRun, SimError> {
    run_workload_with(workload, cfg, cfg.sim_options())
}

/// [`run_workload`] under explicit simulator options — the entry point for
/// callers that thread per-run caps (a wall-clock deadline, a reduced cycle
/// budget, the reference stepper) into an otherwise standard build.
///
/// # Errors
/// Propagates simulator errors.
pub fn run_workload_with(
    workload: &dyn Workload,
    cfg: &BuildCfg,
    opts: SimOptions,
) -> Result<WorkloadRun, SimError> {
    let built = workload.build(cfg);
    run_built_with(&built, cfg, opts)
}

/// Runs an already-built kernel under explicit simulator options (e.g. a
/// reduced cycle budget). A run that exhausts the budget is reported as
/// `timed_out` with `verified: Err("timed out")` — never as a plausible
/// cycle count.
///
/// # Errors
/// Propagates simulator errors.
pub fn run_built_with(
    built: &BuiltKernel,
    cfg: &BuildCfg,
    opts: SimOptions,
) -> Result<WorkloadRun, SimError> {
    let mut machine = Machine::new(cfg.machine_config(), opts);
    apply_init(&mut machine, &built.init);
    let report = machine.run(&built.program)?;
    // An applied fault makes the run untrusted even if the numeric check
    // would happen to pass (e.g. a low-mantissa bit flip inside tolerance).
    // Checked before the timeout: a dead PE usually *causes* the budget
    // exhaustion, and the fault is the root-cause diagnostic.
    let verified = if report.faulted() {
        Err("fault injected".to_string())
    } else if report.timed_out {
        Err("timed out".to_string())
    } else {
        (built.check)(&machine)
    };
    Ok(WorkloadRun { cycles: report.cycles, report, verified, oblivious: true })
}

/// Writes a kernel's initial data into the machine.
pub fn apply_init(machine: &mut Machine, init: &[MemInit]) {
    for mi in init {
        match mi {
            MemInit::Private { lane, addr, data } => {
                machine.write_private(LaneId(*lane), *addr, data);
            }
            MemInit::Shared { addr, data } => machine.write_shared(*addr, data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_run_flops_per_cycle() {
        let report = RunReport {
            cycles: 100,
            lane_breakdown: vec![],
            events: Default::default(),
            commands_issued: 1,
            timed_out: false,
            deadline_expired: false,
            deadlock: None,
            fault: None,
            stepper: Default::default(),
        };
        let run = WorkloadRun { cycles: 100, report, verified: Ok(()), oblivious: true };
        assert!((run.flops_per_cycle(400) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn exhausted_budget_surfaces_as_timed_out() {
        let w = crate::Solver::new(12, 1);
        let cfg = BuildCfg::revel(1);
        let built = w.build(&cfg);
        let opts = SimOptions { max_cycles: 40, ..cfg.sim_options() };
        let run = run_built_with(&built, &cfg, opts).expect("runs");
        assert!(run.report.timed_out, "a starved budget must be reported as a timeout");
        assert_eq!(run.verified, Err("timed out".to_string()));
        assert!(run.cycles <= 40, "cycle count capped at the budget, got {}", run.cycles);
    }

    #[test]
    #[should_panic(expected = "simulation deadlocked\n=== DEADLOCK at cycle")]
    fn timed_out_run_panics_loudly_in_assert_ok() {
        let w = crate::Solver::new(12, 1);
        let cfg = BuildCfg::revel(1);
        let built = w.build(&cfg);
        let opts = SimOptions { max_cycles: 40, ..cfg.sim_options() };
        let run = run_built_with(&built, &cfg, opts).expect("runs");
        run.assert_ok("solver");
    }
}
