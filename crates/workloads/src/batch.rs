//! Batched data-oblivious execution at the workload layer.
//!
//! A certified-oblivious program's cycle-by-cycle behaviour depends only
//! on problem *sizes*, never on dataset *values* — so one cycle-accurate
//! **timing walk** ([`record_timing`]) captures a [`TimingTrace`], compiled
//! once into straight-line load / scalar-op / store code, and the
//! **functional replayer** ([`replay_trace_on`]) executes that code on N
//! same-shape datasets: no per-cycle scheduling work, no port FSMs and no
//! DFG evaluation.
//!
//! The split is gated, not assumed: [`batch_replayable`] admits a kernel
//! to the replay path only when the static obliviousness certifier proves
//! the program's timing data-independent (the certificate is read out of
//! the memoized lint verdict, [`revel_verify::certified`]) *and* the run is
//! unperturbed (no fault plan, healthy fabric). Everything else falls back
//! to full simulation. The compiled program is checked once, when the
//! trace is recorded, and a trace only replays on the program (by
//! structural identity) and machine configuration it was recorded for —
//! [`revel_sim::SimError::Replay`] otherwise, never silence.
//!
//! Dataset extents are validated up front ([`validate_init`]) so a
//! malformed batch request surfaces as a structured
//! [`ProgramError::AddressOutOfBounds`] instead of a scratchpad panic
//! inside the serving path's worker fence.

use crate::suite::{apply_init, certified, BuiltKernel, MemInit, WorkloadRun};
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

/// True when `built` may take the batched replay path under `opts`: the
/// obliviousness certifier proves the program's timing data-independent
/// and the run is unperturbed. Fault injection and degraded fabrics
/// change timing behind the certifier's back, so they always force the
/// full simulator.
pub fn batch_replayable(built: &BuiltKernel, cfg: &BuildCfg, opts: &SimOptions) -> bool {
    opts.fault_plan.is_none()
        && opts.fabric_mask == FabricMask::HEALTHY
        && certified(built, &cfg.machine_config())
}

/// The timing walk: runs `built` once on the full cycle-accurate
/// simulator while recording every functional effect into a
/// [`TimingTrace`]. The returned [`WorkloadRun`] is the ordinary result
/// of that run (same verification rules as
/// [`run_built_with`](crate::run_built_with)); the trace is the reusable
/// artifact.
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
    let verified =
        if trace.report.timed_out { Err("timed out".to_string()) } else { (built.check)(&machine) };
    let oblivious = certified(built, machine.config());
    let run = WorkloadRun {
        cycles: trace.report.cycles,
        report: trace.report.clone(),
        verified,
        oblivious,
    };
    Ok((run, trace))
}

/// The functional replayer: applies a previously recorded trace to a
/// caller-owned machine holding `built`'s dataset, executing the trace's
/// compiled straight-line code instead of re-running the cycle-accurate
/// scheduler. Cycle counts and the full report come from the timing run
/// (byte-identical by obliviousness); only the memory image and
/// verification are dataset-specific.
///
/// The machine is the caller's so a batch amortizes one machine allocation
/// — and the replay's value slots — across all its lanes.
/// Reuse is sound because consecutive lanes replay the *same* trace: every
/// store lands on the same addresses each lane, and `apply_init` rewrites
/// the inputs, so no lane can observe a previous lane's data.
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
    if structural_id(&built.program) != trace.program_id() {
        return Err(SimError::Replay(ReplayError {
            op: 0,
            message: format!(
                "trace was recorded for program '{}', not this build of '{}'",
                trace.program, built.program.name
            ),
        }));
    }
    replay_dataset_on(machine, built, trace)
}

/// [`replay_trace_on`] without its program-identity check, which costs a
/// pass over the whole program: for a caller that has already checked it
/// on a build of the same structure. The engine checks a batch's first
/// dataset; every seeded build of a cell has its unseeded build's
/// structural id (pinned by `crates/bench/tests/replay_identity.rs`).
///
/// # Errors
/// As [`replay_trace_on`], less the program-identity refusal.
pub fn replay_dataset_on(
    machine: &mut Machine,
    built: &BuiltKernel,
    trace: &TimingTrace,
) -> Result<WorkloadRun, SimError> {
    validate_init(machine.config(), &built.init)?;
    apply_init(machine, &built.init);
    machine.replay(&built.program, trace)?;
    let verified = (built.check)(machine);
    Ok(WorkloadRun {
        cycles: trace.report.cycles,
        report: trace.report.clone(),
        verified,
        oblivious: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{run_built_with, Workload};
    use revel_isa::{
        AffinePattern, ConfigId, InPortId, LaneId, LaneMask, OutPortId, RateFsm, StreamCommand,
        VectorCommand,
    };
    use revel_sim::{
        ControlStep, DynBind, DynField, DynSrc, DynStep, FaultPlan, HostWrite, RevelProgram,
    };

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
        assert!(batch_replayable(&b1, &cfg, &cfg.sim_options()), "FFT certifies");

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

    /// A kernel whose load length is patched at issue time from shared[40],
    /// which a host op writes with the size 8 — declared size-only, or not
    /// declared at all. Nothing else differs, and `Debug for HostOp` prints
    /// neither.
    fn host_sized_kernel(name: &str, declared: bool) -> BuiltKernel {
        let lane0 = LaneMask::single(LaneId(0));
        let mut g = revel_dfg::Dfg::new("neg");
        let a = g.input(InPortId(0));
        let o = g.op(revel_dfg::OpCode::Neg, &[a]);
        g.output(o, OutPortId(0));
        let mut prog = RevelProgram::new(name);
        let c = prog.add_config(vec![revel_dfg::Region::systolic("neg", g, 8)]);
        let push = |prog: &mut RevelProgram, cmd| prog.push(VectorCommand::broadcast(lane0, cmd));
        push(&mut prog, StreamCommand::Configure { config: ConfigId(c) });
        let write = |m: &mut dyn revel_sim::HostMem| m.write(None, 40, 8.0);
        if declared {
            let effect = vec![HostWrite { lane: None, addr: 40, len: 1, size_only: true }];
            prog.push_host_declared(4, effect, write);
        } else {
            prog.push_host(4, write);
        }
        let load = StreamCommand::load(
            MemTarget::Private,
            AffinePattern::linear(0, 1),
            InPortId(0),
            RateFsm::ONCE,
        );
        prog.push_dyn(DynStep {
            template: VectorCommand::broadcast(lane0, load),
            binds: vec![DynBind { field: DynField::PatternLenI, src: DynSrc::Shared { addr: 40 } }],
        });
        let store = StreamCommand::store(
            OutPortId(0),
            MemTarget::Private,
            AffinePattern::linear(8, 8),
            RateFsm::ONCE,
        );
        push(&mut prog, store);
        push(&mut prog, StreamCommand::Wait);
        BuiltKernel {
            program: prog,
            init: vec![MemInit::Private { lane: 0, addr: 0, data: vec![3.0; 8] }],
            check: std::sync::Arc::new(|m| {
                let got = m.read_private(LaneId(0), 8, 8);
                (got == [-3.0; 8]).then_some(()).ok_or(format!("negated block is {got:?}"))
            }),
        }
    }

    #[test]
    fn a_host_ops_declared_effect_is_part_of_the_certificates_identity() {
        // The certificate is read out of the memoized verdict, so two
        // programs that differ only in a host op's declared write set must
        // not share one — whichever of them the process meets first.
        let cfg = BuildCfg::revel(1);
        let opts = cfg.sim_options();
        for (name, order) in
            [("undeclared-first", [false, true]), ("declared-first", [true, false])]
        {
            for declared in order {
                let built = host_sized_kernel(name, declared);
                let what = format!("{name}, declared: {declared}");
                let run = run_built_with(&built, &cfg, opts).expect("runs");
                run.assert_ok(&what);
                assert_eq!(run.oblivious, declared, "{what}");
                assert_eq!(batch_replayable(&built, &cfg, &opts), declared, "{what}");
                let (timing, _) = record_timing(&built, &cfg, opts).expect("timing walk");
                assert_eq!(timing.oblivious, declared, "{what}");
            }
        }
    }

    #[test]
    fn uncertified_program_is_never_replayable() {
        // A Dyn stream length read from the dataset: structurally
        // value-dependent, so the certifier refuses and the gate holds.
        let lane0 = LaneMask::single(LaneId(0));
        let mut g = revel_dfg::Dfg::new("neg");
        let a = g.input(InPortId(0));
        let o = g.op(revel_dfg::OpCode::Neg, &[a]);
        g.output(o, OutPortId(0));
        let mut prog = RevelProgram::new("dyn-len");
        let c = prog.add_config(vec![revel_dfg::Region::systolic("neg", g, 8)]);
        prog.push(VectorCommand::broadcast(
            lane0,
            StreamCommand::Configure { config: ConfigId(c) },
        ));
        let bind =
            DynBind { field: DynField::PatternLenI, src: DynSrc::Private { lane: 0, addr: 63 } };
        prog.push_dyn(DynStep {
            template: VectorCommand::broadcast(
                lane0,
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::linear(0, 8),
                    InPortId(0),
                    RateFsm::ONCE,
                ),
            ),
            binds: vec![bind],
        });
        prog.push(VectorCommand::broadcast(lane0, StreamCommand::Wait));
        let built = BuiltKernel {
            program: prog,
            init: vec![MemInit::Private { lane: 0, addr: 63, data: vec![8.0] }],
            check: std::sync::Arc::new(|_| Ok(())),
        };
        let cfg = BuildCfg::revel(1);
        assert!(
            !batch_replayable(&built, &cfg, &cfg.sim_options()),
            "value-dependent stream length must not be admitted to the replay path"
        );

        // ControlStep import is load-bearing for the assertion below.
        let dyn_steps =
            built.program.control.iter().filter(|s| matches!(s, ControlStep::Dyn(_))).count();
        assert_eq!(dyn_steps, 1);
    }
}
