//! Batched data-oblivious execution at the workload layer.
//!
//! A program's cycle-by-cycle behaviour depends only on problem *sizes*,
//! never on dataset *values* — every timing-relevant command field is a
//! literal of the program (DESIGN.md §13) — so one cycle-accurate
//! **timing walk** ([`record_timing`]) writes a [`TimingTrace`], straight-line
//! load / scalar-op / store code, as it simulates, and the
//! **functional replayer** executes that code on N same-shape datasets
//! ([`replay_batch_on`], each step once per chunk of datasets;
//! [`replay_trace_on`] for one): no per-cycle scheduling work, no port
//! FSMs and no DFG evaluation.
//!
//! [`batch_replayable`] admits a run to the replay path only when it is
//! unperturbed (no fault plan, healthy fabric): injected faults and dead
//! fabric change timing, so those runs fall back to full simulation. A
//! trace only replays on the program (by structural identity) and machine
//! configuration it was recorded for — [`revel_sim::SimError::Replay`]
//! otherwise, never silence.
//!
//! Dataset extents are validated up front ([`validate_init`]) so a
//! malformed batch request surfaces as a structured
//! [`ProgramError::AddressOutOfBounds`] instead of a scratchpad panic
//! inside the serving path's worker fence.

use crate::suite::{apply_init, BuiltKernel, Dataset, MemInit, WorkloadRun};
use revel_compiler::BuildCfg;
use revel_fabric::{FabricMask, RevelConfig};
use revel_isa::MemTarget;
use revel_sim::{
    structural_id, Machine, ProgramError, ReplayError, SimError, SimOptions, TimingTrace,
};

/// Checks that every initial-memory extent fits its scratchpad, so the
/// replay path can trust `apply_init` never to panic on a caller-supplied
/// dataset.
///
/// # Errors
/// [`SimError::Program`] with [`ProgramError::AddressOutOfBounds`] naming
/// the first offending word.
pub fn validate_init(cfg: &RevelConfig, init: &[MemInit]) -> Result<(), SimError> {
    let check = |lane: u8, target: MemTarget, addr: i64, len: usize, limit: usize| {
        let in_range =
            addr >= 0 && addr.checked_add(len as i64).is_some_and(|end| end <= limit as i64);
        if !in_range {
            // Report the first word outside the scratchpad, not the base.
            let bad = if addr < 0 { addr } else { addr.max(limit as i64) };
            return Err(SimError::Program(ProgramError::AddressOutOfBounds {
                lane,
                target,
                addr: bad,
                limit,
            }));
        }
        Ok(())
    };
    for mi in init {
        match mi {
            MemInit::Private { lane, addr, data } => {
                if *lane as usize >= cfg.num_lanes {
                    return Err(SimError::Program(ProgramError::AddressOutOfBounds {
                        lane: *lane,
                        target: MemTarget::Private,
                        addr: *addr,
                        limit: 0,
                    }));
                }
                check(*lane, MemTarget::Private, *addr, data.len(), cfg.lane.spad_words)?;
            }
            MemInit::Shared { addr, data } => {
                check(0, MemTarget::Shared, *addr, data.len(), cfg.shared_spad_words)?;
            }
        }
    }
    Ok(())
}

/// True when a run under `opts` may take the batched replay path: it is
/// unperturbed. Fault injection and degraded fabrics change timing, so
/// they always force the full simulator. `built` and `cfg` are unused,
/// kept only because `benchmark/` calls this signature; ROADMAP item 1's
/// benchmark change drops them.
pub fn batch_replayable(_built: &BuiltKernel, _cfg: &BuildCfg, opts: &SimOptions) -> bool {
    opts.fault_plan.is_none() && opts.fabric_mask == FabricMask::HEALTHY
}

/// The timing walk: runs `built` once on the full cycle-accurate
/// simulator in tag mode, which writes the [`TimingTrace`] as it goes
/// ([`Machine::run_traced`]), then executes the trace once, at width 1,
/// over `built`'s dataset ([`Machine::replay`]) for the results. The
/// returned [`WorkloadRun`] is the ordinary result of that run (same
/// verification rules as [`run_built_with`](crate::run_built_with)); the
/// trace is the reusable artifact.
///
/// # Errors
/// Propagates simulator errors, including the structured refusal when
/// `opts` carries a fault plan or degraded fabric.
pub fn record_timing(
    built: &BuiltKernel,
    cfg: &BuildCfg,
    opts: SimOptions,
) -> Result<(WorkloadRun, TimingTrace), SimError> {
    let mut machine = Machine::new(cfg.machine_config(), opts);
    validate_init(machine.config(), &built.init)?;
    apply_init(&mut machine, &built.init);
    let trace = machine.run_traced(&built.program)?;
    let verified = if trace.report.timed_out {
        Err("timed out".to_string())
    } else {
        // The recording run left `apply_init`'s image untouched.
        machine.replay(&built.program, &trace)?;
        (built.check)(&machine)
    };
    Ok((run_of(&trace, verified), trace))
}

/// The functional replayer: applies a previously recorded trace to a
/// caller-owned machine holding `built`'s dataset, executing the trace's
/// compiled straight-line code instead of re-running the cycle-accurate
/// scheduler. Cycle counts and the full report come from the timing run
/// (byte-identical, since timing reads no data); only the memory image
/// and verification are dataset-specific.
///
/// The machine is the caller's so a batch amortizes one machine allocation
/// — and the replay's value rows — across all its datasets.
/// Reuse is sound because consecutive datasets replay the *same* trace:
/// every store lands on the same addresses each time, and `apply_init`
/// rewrites the inputs, so no dataset can observe a previous one's data.
///
/// # Errors
/// [`SimError::Replay`] when the trace was recorded from a program
/// structurally different from `built.program` — names alone leave out
/// the lane count, rung and architecture — or on a machine of another
/// configuration; [`SimError::Program`] when dataset extents are invalid.
pub fn replay_trace_on(
    machine: &mut Machine,
    built: &BuiltKernel,
    trace: &TimingTrace,
) -> Result<WorkloadRun, SimError> {
    check_program(built, trace)?;
    validate_init(machine.config(), &built.init)?;
    apply_init(machine, &built.init);
    machine.replay(&built.program, trace)?;
    Ok(run_of(trace, (built.check)(machine)))
}

/// [`replay_trace_on`] over a batch of datasets of one program, in one
/// [`Machine::replay_batch`]: a chunk of datasets per pass over the trace's
/// code when it has no host op. `first` is a full build: its program's
/// identity is checked against the trace and runs the host ops, and its
/// dataset replays first; `rest` are the other seeds' datasets
/// ([`Workload::dataset`](crate::Workload::dataset)), each built for the
/// same cell (every seed of a cell builds its unseeded build's program,
/// pinned by `crates/bench/tests/replay_identity.rs`). Every dataset's
/// extents are validated before any replays. Results are in the order
/// `first`, then `rest`.
///
/// # Errors
/// As [`replay_trace_on`], for `first`'s program and every dataset.
pub fn replay_batch_on(
    machine: &mut Machine,
    trace: &TimingTrace,
    first: BuiltKernel,
    rest: impl IntoIterator<Item = Dataset>,
) -> Result<Vec<WorkloadRun>, SimError> {
    check_program(&first, trace)?;
    let BuiltKernel { program, init, check } = first;
    let mut datasets = vec![Dataset { init, check }];
    datasets.extend(rest);
    for dataset in &datasets {
        validate_init(machine.config(), &dataset.init)?;
    }
    let mut runs = Vec::with_capacity(datasets.len());
    machine.replay_batch(
        &program,
        trace,
        &datasets,
        |machine, dataset| apply_init(machine, &dataset.init),
        |machine, dataset| runs.push(run_of(trace, (dataset.check)(machine))),
    )?;
    Ok(runs)
}

/// [`SimError::Replay`] unless `trace` was recorded from a program
/// structurally identical to `built.program` — names alone leave out the
/// lane count, rung and architecture.
fn check_program(built: &BuiltKernel, trace: &TimingTrace) -> Result<(), SimError> {
    if structural_id(&built.program) == trace.program_id() {
        return Ok(());
    }
    Err(SimError::Replay(ReplayError {
        message: format!(
            "trace was recorded for program '{}', not this build of '{}'",
            trace.program, built.program.name
        ),
    }))
}

/// A dataset's run under `trace`: the timing run's report, the dataset's
/// verdict.
fn run_of(trace: &TimingTrace, verified: Result<(), String>) -> WorkloadRun {
    WorkloadRun {
        cycles: trace.report.cycles,
        report: trace.report.clone(),
        verified,
        oblivious: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{run_built_with, Workload};
    use revel_isa::LaneId;
    use revel_sim::FaultPlan;

    /// Every lane's private scratchpad, then the shared one, as raw bits.
    fn memory_image(machine: &Machine) -> Vec<u64> {
        let cfg = machine.config();
        let words = cfg.lane.spad_words;
        let mut image = Vec::with_capacity(cfg.num_lanes * words + cfg.shared_spad_words);
        for l in 0..cfg.num_lanes {
            image.extend(
                machine.read_private(LaneId(l as u8), 0, words).iter().map(|v| v.to_bits()),
            );
        }
        image.extend(machine.read_shared(0, cfg.shared_spad_words).iter().map(|v| v.to_bits()));
        image
    }

    #[test]
    fn validate_init_rejects_out_of_range_extents() {
        let cfg = BuildCfg::revel(1).machine_config();
        let spad = cfg.lane.spad_words;
        let ok = vec![MemInit::Private { lane: 0, addr: 0, data: vec![1.0; spad] }];
        validate_init(&cfg, &ok).expect("a full scratchpad fits");
        let cases = vec![
            MemInit::Private { lane: 0, addr: -1, data: vec![1.0] },
            MemInit::Private { lane: 0, addr: 1, data: vec![1.0; spad] },
            MemInit::Private { lane: 9, addr: 0, data: vec![1.0] },
            MemInit::Shared { addr: cfg.shared_spad_words as i64, data: vec![1.0] },
            MemInit::Private { lane: 0, addr: i64::MAX, data: vec![1.0; 2] },
        ];
        for bad in cases {
            match validate_init(&cfg, std::slice::from_ref(&bad)) {
                Err(SimError::Program(ProgramError::AddressOutOfBounds { .. })) => {}
                other => panic!("{bad:?} must be a structured OOB error, got {other:?}"),
            }
        }
    }

    #[test]
    fn replay_matches_full_simulation_across_seeds() {
        // Record timing on the seed-1 dataset, replay on seed-2: the
        // replayed image must be byte-identical to a full simulation of
        // seed-2, and the report is shared with the timing run.
        let cfg = BuildCfg::revel(1);
        let w1 = crate::Fft::new(64, 1);
        let w2 = crate::Fft::new(64, 2);
        let b1 = w1.build(&cfg);
        let b2 = w2.build(&cfg);
        assert!(batch_replayable(&b1, &cfg, &cfg.sim_options()), "a healthy run replays");

        let (timing, trace) = record_timing(&b1, &cfg, cfg.sim_options()).expect("timing run");
        timing.assert_ok("fft timing run");

        let full = run_built_with(&b2, &cfg, cfg.sim_options()).expect("full sim");
        full.assert_ok("fft full sim");
        let mut full_m = Machine::new(cfg.machine_config(), cfg.sim_options());
        apply_init(&mut full_m, &b2.init);
        full_m.run(&b2.program).expect("full sim rerun");

        let mut machine = Machine::new(cfg.machine_config(), cfg.sim_options());
        let replayed = replay_trace_on(&mut machine, &b2, &trace).expect("replay");
        replayed.assert_ok("fft replay");
        assert_eq!(replayed.cycles, timing.cycles, "cycles come from the timing run");
        assert_eq!(
            replayed.report.canonical_text(),
            timing.report.canonical_text(),
            "report is the timing run's, byte for byte"
        );
        assert_eq!(
            memory_image(&machine),
            memory_image(&full_m),
            "replayed memory image must be byte-identical to full simulation"
        );
    }

    #[test]
    fn record_timing_takes_its_verdict_from_executing_the_trace_once() {
        // The recording run computes nothing, so the check passes only on
        // the results of executing the trace over the dataset; seed 2's
        // dataset under seed 1's check computes results the check rejects,
        // and the run reports that verdict rather than an error.
        let cfg = BuildCfg::revel(1);
        let built = crate::Fft::new(64, 1).build(&cfg);
        let (run, _) = record_timing(&built, &cfg, cfg.sim_options()).expect("timing run");
        run.assert_ok("fft timing run");
        let init = crate::Fft::new(64, 2).build(&cfg).init;
        let rejected = BuiltKernel { init, ..built };
        let (run, trace) = record_timing(&rejected, &cfg, cfg.sim_options()).expect("timing run");
        assert!(!trace.report.timed_out);
        assert!(run.verified.is_err(), "seed 1's check must reject seed 2's results");
    }

    #[test]
    fn mismatched_program_trace_is_refused() {
        let cfg = BuildCfg::revel(1);
        let w = crate::Fft::new(64, 1);
        let built = w.build(&cfg);
        let (_, trace) = record_timing(&built, &cfg, cfg.sim_options()).expect("timing run");
        let other = crate::Solver::new(12, 1).build(&cfg);
        let mut machine = Machine::new(cfg.machine_config(), cfg.sim_options());
        match replay_trace_on(&mut machine, &other, &trace) {
            Err(SimError::Replay(e)) => {
                assert!(e.message.contains("recorded for program"), "{e}");
            }
            other => panic!("cross-program replay must be refused, got {other:?}"),
        }
    }

    #[test]
    fn a_same_named_build_for_another_cfg_is_refused() {
        // `fft-n64` is the program name on every rung and lane count, so
        // the name cannot tell these builds from the traced one.
        let cfg = BuildCfg::revel(1);
        let built = crate::Fft::new(64, 1).build(&cfg);
        let (_, trace) = record_timing(&built, &cfg, cfg.sim_options()).expect("timing run");
        let mut machine = Machine::new(cfg.machine_config(), cfg.sim_options());
        for other_cfg in [BuildCfg::dataflow_baseline(1), BuildCfg::revel(8)] {
            let other = crate::Fft::new(64, 1).build(&other_cfg);
            assert_eq!(other.program.name, built.program.name);
            match replay_trace_on(&mut machine, &other, &trace) {
                Err(SimError::Replay(e)) => assert!(e.message.contains("not this build"), "{e}"),
                other => panic!("{other_cfg:?}'s build must be refused, got {other:?}"),
            }
        }
        replay_trace_on(&mut machine, &built, &trace).expect("its own build replays");
    }

    #[test]
    fn a_machine_of_another_config_is_refused() {
        let cfg = BuildCfg::revel(1);
        let built = crate::Fft::new(64, 1).build(&cfg);
        let (_, trace) = record_timing(&built, &cfg, cfg.sim_options()).expect("timing run");
        let mut machine = Machine::new(BuildCfg::revel(8).machine_config(), cfg.sim_options());
        match replay_trace_on(&mut machine, &built, &trace) {
            Err(SimError::Replay(e)) => assert!(e.message.contains("machine configuration"), "{e}"),
            other => panic!("another machine configuration must be refused, got {other:?}"),
        }
    }

    #[test]
    fn perturbed_options_are_never_replayable() {
        let cfg = BuildCfg::revel(1);
        let built = crate::Fft::new(64, 1).build(&cfg);
        let healthy = cfg.sim_options();
        assert!(batch_replayable(&built, &cfg, &healthy));
        let faulted =
            SimOptions { fault_plan: Some(FaultPlan::new(7, 1, 1000)), ..cfg.sim_options() };
        assert!(!batch_replayable(&built, &cfg, &faulted), "fault injection forces full sim");
        let degraded = SimOptions {
            fabric_mask: FabricMask { dead_pes: 1, dead_links: 0 },
            ..cfg.sim_options()
        };
        assert!(!batch_replayable(&built, &cfg, &degraded), "degraded fabric forces full sim");
    }
}
