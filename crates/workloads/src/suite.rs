//! The workload suite: the `Workload` trait, built-kernel plumbing, the
//! runner, and the Table V parameter sets.

use revel_compiler::{lower_command, BuildCfg};
use revel_isa::{LaneId, LaneMask, LaneScale, StreamCommand, VectorCommand};
use revel_sim::{ControlStep, Machine, RevelProgram, RunReport, SimError, SimOptions};
use std::sync::Arc;

/// Pushes a stream command into a program after architecture lowering:
/// on builds without first-class inductive streams the command may expand
/// into many per-iteration commands (the control-overhead the vector-stream
/// ISA amortizes).
pub fn push_cmd(
    prog: &mut RevelProgram,
    cfg: &BuildCfg,
    lanes: LaneMask,
    scale: LaneScale,
    cmd: StreamCommand,
) {
    for c in lower_command(cfg, cmd).cmds {
        prog.control.push(ControlStep::Command(VectorCommand::scaled(lanes, scale, c)));
    }
}

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
    /// Lanes the program actually uses.
    pub lanes_used: usize,
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
        f.debug_struct("BuiltKernel")
            .field("program", &self.program.name)
            .field("lanes_used", &self.lanes_used)
            .finish_non_exhaustive()
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
    /// True when the single-lane program can be replicated per lane for
    /// batch execution (Table V batch-8 mode).
    fn batchable(&self) -> bool {
        true
    }
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
    /// True when the obliviousness certifier proved the program's timing
    /// data-independent (`revel_verify::certified`): the cycle count is a
    /// function of problem sizes alone and may be reused across datasets
    /// of the same shape.
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
    let oblivious = certified(built, machine.config());
    Ok(WorkloadRun { cycles: report.cycles, report, verified, oblivious })
}

/// True when `built`'s program holds the obliviousness certificate on
/// `cfg`, read out of the memoized lint verdict — the one the simulator's
/// gate just looked up, so a run adds a lookup here, never a second taint
/// walk.
pub(crate) fn certified(built: &BuiltKernel, cfg: &revel_fabric::RevelConfig) -> bool {
    revel_verify::certified(&revel_verify::verdict(&built.program, cfg))
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

/// Replicates a single-lane kernel across `lanes` lanes (batch throughput
/// mode) with pure **broadcast** semantics: commands targeting lane 0 are
/// re-masked to all lanes — one command drives every lane, the
/// vector-stream amortization in space — and the private-memory image is
/// cloned verbatim into every lane, so all lanes hold *identical* inputs
/// and must produce identical outputs. Workloads that want distinct
/// per-lane inputs build them natively from per-lane seeds (see e.g.
/// `Solver::init`); this helper never reseeds.
///
/// Verification covers every lane: lane 0 is checked against the
/// reference by the kernel's own check, then every other lane's private
/// scratchpad must be bit-identical to lane 0's (identical program +
/// identical inputs ⇒ identical outputs).
///
/// # Panics
/// Panics if the kernel is not single-lane.
pub fn replicate_for_batch(built: &BuiltKernel, lanes: usize) -> BuiltKernel {
    assert_eq!(built.lanes_used, 1, "batch replication needs a single-lane kernel");
    let mut program = built.program.clone();
    let mask = revel_isa::LaneMask::all(lanes as u8);
    for step in &mut program.control {
        match step {
            revel_sim::ControlStep::Command(vc) => vc.lanes = mask,
            revel_sim::ControlStep::Dyn(ds) => ds.template.lanes = mask,
            revel_sim::ControlStep::Host(_) => {}
        }
    }
    let mut init = Vec::new();
    for mi in &built.init {
        match mi {
            MemInit::Private { addr, data, .. } => {
                for l in 0..lanes {
                    init.push(MemInit::Private { lane: l as u8, addr: *addr, data: data.clone() });
                }
            }
            shared => init.push(shared.clone()),
        }
    }
    let inner_check = built.check.clone();
    let check: CheckFn = Arc::new(move |machine: &Machine| {
        inner_check(machine)?;
        let words = machine.config().lane.spad_words;
        let lane0 = machine.read_private(LaneId(0), 0, words);
        for l in 1..lanes {
            let got = machine.read_private(LaneId(l as u8), 0, words);
            for (addr, (expect, g)) in lane0.iter().zip(&got).enumerate() {
                if expect.to_bits() != g.to_bits() {
                    return Err(format!(
                        "batch lane {l} diverged from lane 0 at private word {addr}: \
                         {g} != {expect}"
                    ));
                }
            }
        }
        Ok(())
    });
    BuiltKernel { program, init, check, lanes_used: lanes }
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

    #[test]
    fn a_replicated_kernels_verdict_is_its_own() {
        // `replicate_for_batch` clones the program and re-masks the clone.
        // A single-lane kernel that stores to the *shared* scratchpad is
        // clean; broadcast to two lanes it races with itself (V006). The
        // re-masked clone must meet the gate as what it now is.
        use revel_isa::{AffinePattern, ConfigId, InPortId, MemTarget, OutPortId, RateFsm};
        let mut g = revel_dfg::Dfg::new("neg");
        let a = g.input(InPortId(0));
        let n = g.op(revel_dfg::OpCode::Neg, &[a]);
        g.output(n, OutPortId(0));
        let mut program = RevelProgram::new("shared-store");
        let c = program.add_config(vec![revel_dfg::Region::systolic("neg", g, 8)]);
        let linear = |start| AffinePattern::linear(start, 8);
        for cmd in [
            StreamCommand::Configure { config: ConfigId(c) },
            StreamCommand::load(MemTarget::Private, linear(0), InPortId(0), RateFsm::ONCE),
            StreamCommand::store(OutPortId(0), MemTarget::Shared, linear(0), RateFsm::ONCE),
            StreamCommand::Wait,
        ] {
            program.push(VectorCommand::on_lane(LaneId(0), cmd));
        }
        let built = BuiltKernel {
            program,
            init: vec![MemInit::Private { lane: 0, addr: 0, data: vec![2.0; 8] }],
            check: Arc::new(|m| {
                (m.read_shared(0, 8) == [-2.0; 8]).then_some(()).ok_or("wrong".to_string())
            }),
            lanes_used: 1,
        };
        let cfg = BuildCfg::revel(2);
        run_built_with(&built, &cfg, cfg.sim_options()).expect("runs").assert_ok("one lane");
        let batch = replicate_for_batch(&built, 2);
        match run_built_with(&batch, &cfg, cfg.sim_options()) {
            Err(SimError::Verify(diags)) => {
                assert!(diags.iter().any(|d| d.code == revel_verify::Code::V006), "{diags:?}");
            }
            other => panic!("the two-lane broadcast must be refused, got {other:?}"),
        }
        // And the original is still what it was.
        run_built_with(&built, &cfg, cfg.sim_options()).expect("runs").assert_ok("one lane");
    }

    #[test]
    fn replicated_batch_verifies_every_lane() {
        // FFT is a pure-broadcast kernel: identical private data per lane,
        // BROADCAST scaling on every command.
        let w = crate::Fft::new(64, 1);
        let cfg1 = BuildCfg::revel(1);
        let built = w.build(&cfg1);
        let batch = replicate_for_batch(&built, 4);
        assert_eq!(batch.lanes_used, 4);
        let cfg4 = BuildCfg::revel(4);
        let mut machine = Machine::new(cfg4.machine_config(), cfg4.sim_options());
        apply_init(&mut machine, &batch.init);
        let report = machine.run(&batch.program).expect("runs");
        assert!(!report.timed_out);
        (batch.check)(&machine).expect("all lanes verify");
        // Corrupt a non-reference lane: the batch check must notice (a
        // lane-0-only check would silently pass).
        machine.write_private(LaneId(3), 0, &[1234.5]);
        let err = (batch.check)(&machine).expect_err("corrupted lane must fail verification");
        assert!(err.contains("lane 3"), "diagnostic names the lane: {err}");
    }
}
