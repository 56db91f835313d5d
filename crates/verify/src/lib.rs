//! # revel-verify — cross-layer static verification for REVEL programs
//!
//! A lint-style static-analysis pass over [`revel_prog::RevelProgram`]s
//! and their fabric configurations, catching before simulation the bug
//! classes that otherwise surface as hangs, silently-wrong numbers, or
//! model-fidelity violations:
//!
//! * **Stream/port conservation** — every bound input port fed, every
//!   bound output port drained, nothing delivered to ports nobody reads
//!   (`V001`–`V003`).
//! * **Rate consistency** — no operator joins values of different
//!   accumulation depths inside a region (`V004`).
//! * **Scratchpad hazards** — out-of-bounds patterns, write-write races,
//!   and write-after-read hazards between streams of one barrier epoch
//!   (`V005`–`V007`).
//! * **DFG hygiene** — dead nodes, forward references (`V008`, `V013`).
//! * **Command structure** — data before `Configure`, `SetAccumLen` on
//!   missing regions (`V009`, `V010`).
//! * **Post-schedule legality** — each configuration placed and routed
//!   with the simulator's spatial compiler; residual route conflicts and
//!   mapping failures reported (`V011`, `V014`).
//! * **Port-width legality** — region outputs no wider than the hardware
//!   port (`V012`).
//! * **Timing obliviousness** — no dataset-derived value flows into a
//!   timing-relevant command field (stream lengths, strides, accumulator
//!   depths, guards, configuration selection); clean programs earn an
//!   [`ObliviousnessCert`] (`V015`–`V019`, warnings).
//!
//! Every finding is a [`Diagnostic`] with a stable [`Code`], a
//! [`Severity`], a [`Location`] (config/region/node/command/lane), and a
//! human explanation ([`Code::explain`]).
//!
//! The verifier runs at three layers: `revel-sim`'s `Machine::run` gates
//! simulation on the program-level lints (opt-out via `SimOptions`), the
//! `revel-core` suite lints every workload × architecture, and the
//! `revel_lint` binary exposes the same pass on the command line.
//!
//! [`Verifier::verify`] and [`certify`] are the uncached primitives. The
//! run path goes through [`verdict`], the one process-wide memo of the
//! program-level findings per `(program, config)` content: the gate reads
//! its errors, and the workload layer reads the obliviousness certificate
//! out of the same findings with [`certified`].
//!
//! ```
//! use revel_fabric::RevelConfig;
//! use revel_prog::RevelProgram;
//! use revel_verify::{has_errors, Verifier};
//!
//! let prog = RevelProgram::new("empty");
//! let cfg = RevelConfig::single_lane();
//! let diags = Verifier::new().verify(&prog, &cfg);
//! assert!(!has_errors(&diags));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conservation;
mod context;
mod diag;
mod hygiene;
#[cfg(test)]
mod identity_oracle;
mod memo;
mod oblivious;
mod rates;
mod sched;
mod scratch;

pub use conservation::Conservation;
pub use context::{AddrSet, Cmd, Context, LaneView, PortTraffic, Segment};
pub use diag::{has_errors, Code, Diagnostic, Location, Severity};
pub use hygiene::{CommandStructure, DfgHygiene};
pub use memo::{certified, verdict, verdict_memo_stats, VerdictMemoStats};
pub use oblivious::{certify, Oblivious, ObliviousnessCert, Taint};
pub use rates::{OutPortWidth, RateConsistency};
pub use sched::ScheduleLegality;
pub use scratch::{AddressBounds, ScratchHazards};

use revel_fabric::RevelConfig;
use revel_prog::RevelProgram;

/// One registered check. A lint owns one or more diagnostic [`Code`]s and
/// appends findings to the shared output; it never mutates the program.
pub trait Lint {
    /// Registry name (kebab-case, stable).
    fn name(&self) -> &'static str;
    /// The codes this lint can emit.
    fn codes(&self) -> &'static [Code];
    /// Runs the check.
    fn check(&self, ctx: &Context<'_>, out: &mut Vec<Diagnostic>);
}

/// The program-level lints (everything except the spatial-compile pass).
pub fn program_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(Conservation),
        Box::new(RateConsistency),
        Box::new(OutPortWidth),
        Box::new(AddressBounds),
        Box::new(ScratchHazards),
        Box::new(DfgHygiene),
        Box::new(CommandStructure),
        Box::new(Oblivious),
    ]
}

/// Every lint, including the (expensive) post-schedule legality pass.
pub fn all_lints() -> Vec<Box<dyn Lint>> {
    let mut lints = program_lints();
    lints.push(Box::new(ScheduleLegality));
    lints
}

/// Runs a single lint over a program. Mainly for tests that need to
/// isolate one check.
pub fn run_lint(lint: &dyn Lint, program: &RevelProgram, cfg: &RevelConfig) -> Vec<Diagnostic> {
    let ctx = Context::new(program, cfg);
    let mut out = Vec::new();
    lint.check(&ctx, &mut out);
    out
}

/// A configured set of lints.
pub struct Verifier {
    lints: Vec<Box<dyn Lint>>,
}

impl Verifier {
    /// All lints, including post-schedule legality.
    pub fn new() -> Self {
        Verifier { lints: all_lints() }
    }

    /// The program-level lints only. This is what the `Machine::run`
    /// pre-simulation gate uses: the spatial compile happens inside the
    /// simulator anyway, so repeating it in the gate would double the
    /// most expensive step.
    pub fn program_only() -> Self {
        Verifier { lints: program_lints() }
    }

    /// The registered lints.
    pub fn lints(&self) -> &[Box<dyn Lint>] {
        &self.lints
    }

    /// Runs every registered lint, returning findings ordered errors
    /// first (stable within each severity).
    pub fn verify(&self, program: &RevelProgram, cfg: &RevelConfig) -> Vec<Diagnostic> {
        let ctx = Context::new(program, cfg);
        let mut out = Vec::new();
        for lint in &self.lints {
            lint.check(&ctx, &mut out);
        }
        out.sort_by_key(|d| std::cmp::Reverse(d.severity()));
        out
    }
}

impl Default for Verifier {
    fn default() -> Self {
        Verifier::new()
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    //! Shared builders for the per-lint negative tests.

    use revel_dfg::{Dfg, OpCode, Region};
    use revel_fabric::RevelConfig;
    use revel_isa::{
        AffinePattern, ConfigId, InPortId, LaneMask, MemTarget, OutPortId, RateFsm, StreamCommand,
        VectorCommand,
    };
    use revel_prog::RevelProgram;

    pub fn single_lane() -> RevelConfig {
        RevelConfig::single_lane()
    }

    /// A one-config program whose single systolic region combines the
    /// given in-ports (Neg for one, Add-reduce for several) into
    /// `out_port`. The `Configure` is already pushed.
    pub fn neg_program(in_ports: &[u8], out_port: u8) -> RevelProgram {
        let mut g = Dfg::new("neg");
        let inputs: Vec<_> = in_ports.iter().map(|p| g.input(InPortId(*p))).collect();
        let mut v = inputs[0];
        for i in &inputs[1..] {
            v = g.op(OpCode::Add, &[v, *i]);
        }
        let n = g.op(OpCode::Neg, &[v]);
        g.output(n, OutPortId(out_port));
        let mut p = RevelProgram::new("lint-test");
        let c = p.add_config(vec![Region::systolic("neg", g, 1)]);
        push1(&mut p, StreamCommand::Configure { config: ConfigId(c) });
        p
    }

    /// Two independent pipelines in one config: in 0 → out 6, in 1 → out 7.
    pub fn neg2_program() -> RevelProgram {
        let mut a = Dfg::new("a");
        let x = a.input(InPortId(0));
        let nx = a.op(OpCode::Neg, &[x]);
        a.output(nx, OutPortId(6));
        let mut b = Dfg::new("b");
        let y = b.input(InPortId(1));
        let ny = b.op(OpCode::Neg, &[y]);
        b.output(ny, OutPortId(7));
        let mut p = RevelProgram::new("lint-test-2");
        let c = p.add_config(vec![Region::systolic("a", a, 1), Region::systolic("b", b, 1)]);
        push1(&mut p, StreamCommand::Configure { config: ConfigId(c) });
        p
    }

    /// Broadcast a command on lane 0.
    pub fn push1(p: &mut RevelProgram, cmd: StreamCommand) {
        p.push(VectorCommand::broadcast(LaneMask::all(1), cmd));
    }

    /// Private-scratchpad load of `len` words from `start` into `dst`.
    pub fn load_priv(start: i64, len: i64, dst: u8) -> StreamCommand {
        StreamCommand::load(
            MemTarget::Private,
            AffinePattern::linear(start, len),
            InPortId(dst),
            RateFsm::ONCE,
        )
    }

    /// Private-scratchpad store of `len` words to `start` from `src`.
    pub fn store_priv(src: u8, start: i64, len: i64) -> StreamCommand {
        StreamCommand::store(
            OutPortId(src),
            MemTarget::Private,
            AffinePattern::linear(start, len),
            RateFsm::ONCE,
        )
    }

    /// The codes of a diagnostic list, in order.
    pub fn codes(diags: &[crate::Diagnostic]) -> Vec<crate::Code> {
        diags.iter().map(|d| d.code).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::*;
    use super::*;

    #[test]
    fn registry_covers_every_code_once() {
        let mut seen = std::collections::BTreeSet::new();
        for lint in all_lints() {
            for c in lint.codes() {
                assert!(seen.insert(*c), "{c} registered twice");
            }
        }
        for c in Code::ALL {
            assert!(seen.contains(&c), "{c} not owned by any lint");
        }
    }

    #[test]
    fn lint_names_unique_and_stable() {
        let names: Vec<_> = all_lints().iter().map(|l| l.name()).collect();
        let set: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
        assert!(names.contains(&"port-conservation"));
        assert!(names.contains(&"schedule-legality"));
    }

    #[test]
    fn verifier_orders_errors_first() {
        // Dead node (warning) + starved port (error) in one program.
        let mut p = neg_program(&[0], 6);
        {
            let g = &mut p.configs[0][0].dfg;
            let x = g.input(revel_isa::InPortId(4));
            let _dead = g.op(revel_dfg::OpCode::Neg, &[x]);
        }
        push1(&mut p, store_priv(6, 8, 4));
        let diags = Verifier::program_only().verify(&p, &single_lane());
        assert!(diags.len() >= 2, "{diags:?}");
        let first_warning = diags.iter().position(|d| d.severity() == Severity::Warning).unwrap();
        assert!(
            diags[..first_warning].iter().all(|d| d.severity() == Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn clean_program_verifies_clean() {
        let mut p = neg_program(&[0], 6);
        push1(&mut p, load_priv(0, 8, 0));
        push1(&mut p, store_priv(6, 8, 8));
        let diags = Verifier::new().verify(&p, &single_lane());
        assert!(diags.is_empty(), "{diags:?}");
    }
}
