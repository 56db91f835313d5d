//! The obliviousness certifier: a taint-lattice abstract interpretation
//! proving that a program's *timing* depends only on problem sizes, never
//! on dataset values (codes `V015`–`V019`).
//!
//! # Why timing obliviousness is a certifiable property here
//!
//! The paper's fidelity argument (and ROADMAP item 2's "one timing run,
//! N datasets" cache lever) rests on the claim that the evaluation kernels
//! are dense and data-oblivious: cycle counts are a function of problem
//! sizes alone. On this machine that claim has a small, closed proof
//! surface. Every command field is a compile-time literal except the ones
//! a [`revel_prog::DynStep`] patches at issue time — and `DynField`
//! enumerates exactly the timing-relevant fields (stream lengths, strides
//! and starts, XFER trip counts, accumulator depths, guards, configuration
//! selection). So the whole certificate reduces to: **every dynamic bind
//! reads a provably size-only scratchpad word.**
//!
//! # The lattice and the abstract state
//!
//! Two points, `SizeOnly ⊑ DataTainted`. The abstract state tracks, in
//! program order:
//!
//! * **Memory** — per scratchpad space (shared + one per lane), the set of
//!   word intervals proven `SizeOnly`. Everything starts `DataTainted`:
//!   the initial scratchpad image *is* the dataset. Words become
//!   `SizeOnly` via host ops with declared size-only effects
//!   ([`revel_prog::HostWrite`]) or stores of size-only fabric values, and
//!   fall back to `DataTainted` when anything tainted may overwrite them.
//! * **Ports** — per (lane, input port), the join of every value delivered
//!   since the last `Configure`. `Const` streams deliver `SizeOnly`
//!   (compile-time literals); `Load` delivers the taint of its address
//!   range; `XFER` forwards the source region's output taint.
//! * **Regions** — an output port's taint is the join over the region's
//!   DFG (one forward pass in node order: `Const` nodes are `SizeOnly`,
//!   `Input` nodes read the port state, everything else joins its
//!   arguments).
//!
//! The walk is a *may*-taint analysis: joins are monotone within a
//! configuration epoch, unknown values (undeclared host effects, patched
//! patterns, unresolved configuration selection) degrade to the
//! conservative end of the lattice, and a guarded command's effects are
//! merged with the possibility that it never issues. A clean result is
//! therefore sound: no dataset word can reach a timing-relevant field.
//!
//! # Static implies dynamic
//!
//! Because every non-`Dyn` timing input is a literal and every `Dyn` bind
//! of a certified program is size-only, two runs over different datasets
//! of the same shape resolve every dynamic step identically — the command
//! trace, and hence the cycle-level trace, is byte-identical. The
//! `grid_oracle` harness checks exactly this over the evaluation grid (two
//! seeded datasets, both certified, byte-compared timing reports).

use crate::diag::{Code, Diagnostic, Location};
use crate::{Context, Lint};
use revel_dfg::Node;
use revel_fabric::RevelConfig;
use revel_isa::{LaneHop, LaneId, MemTarget, StreamCommand, VectorCommand};
use revel_prog::{ControlStep, DynField, DynSrc, DynStep, HostWrite, RevelProgram};
use std::collections::BTreeMap;

/// The two-point taint lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Taint {
    /// Derived from problem sizes (trip counts, literals) alone.
    SizeOnly,
    /// May derive from dataset values.
    DataTainted,
}

impl Taint {
    fn join(self, other: Taint) -> Taint {
        self.max(other)
    }
}

/// Proof that a program's timing is data-independent on a configuration.
///
/// Issued by [`certify`] only when the taint pass finds no flow from
/// dataset-derived memory into any timing-relevant command field. The
/// counters summarize the proof obligation that was discharged: a program
/// with `dyn_steps == 0` is trivially oblivious (every timing input is a
/// compile-time literal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObliviousnessCert {
    /// The certified program's name.
    pub program: String,
    /// Dynamic (issue-time-resolved) control steps examined.
    pub dyn_steps: usize,
    /// Dynamic binds proven to read size-only words.
    pub size_only_binds: usize,
}

/// Sorted, disjoint, inclusive word intervals proven size-only.
#[derive(Debug, Clone, Default)]
struct Intervals(Vec<(i64, i64)>);

impl Intervals {
    /// Marks `[lo, hi]` size-only, merging adjacent intervals.
    fn add(&mut self, lo: i64, hi: i64) {
        if lo > hi {
            return;
        }
        let (mut lo, mut hi) = (lo, hi);
        self.0.retain(|&(a, b)| {
            // Merge anything overlapping or adjacent into the new span.
            if b + 1 >= lo && a <= hi + 1 {
                lo = lo.min(a);
                hi = hi.max(b);
                false
            } else {
                true
            }
        });
        self.0.push((lo, hi));
        self.0.sort_unstable();
    }

    /// Removes `[lo, hi]` from the size-only set (tainted overwrite).
    fn remove(&mut self, lo: i64, hi: i64) {
        if lo > hi {
            return;
        }
        let mut next = Vec::with_capacity(self.0.len() + 1);
        for &(a, b) in &self.0 {
            if b < lo || a > hi {
                next.push((a, b));
                continue;
            }
            if a < lo {
                next.push((a, lo - 1));
            }
            if b > hi {
                next.push((hi + 1, b));
            }
        }
        self.0 = next;
    }

    /// True when every word of `[lo, hi]` is size-only. Adjacent intervals
    /// are merged on insert, so coverage means one containing interval.
    fn covers(&self, lo: i64, hi: i64) -> bool {
        lo <= hi && self.0.iter().any(|&(a, b)| a <= lo && hi <= b)
    }
}

/// The abstract state of the forward walk.
struct TaintState<'a> {
    program: &'a RevelProgram,
    cfg: &'a RevelConfig,
    /// Size-only intervals of the shared scratchpad.
    shared: Intervals,
    /// Size-only intervals of each lane's private scratchpad.
    private: Vec<Intervals>,
    /// Per (lane, input port): join of everything delivered this epoch.
    /// Missing entries mean "never fed" and read as tainted (the FIFO may
    /// hold stale pre-epoch data).
    in_ports: BTreeMap<(u8, u8), Taint>,
    /// Active configuration per lane; `None` = unknown/unconfigured.
    active: Vec<Option<usize>>,
}

impl<'a> TaintState<'a> {
    fn new(program: &'a RevelProgram, cfg: &'a RevelConfig) -> Self {
        TaintState {
            program,
            cfg,
            shared: Intervals::default(),
            private: vec![Intervals::default(); cfg.num_lanes],
            in_ports: BTreeMap::new(),
            active: vec![None; cfg.num_lanes],
        }
    }

    fn space(&mut self, lane: Option<u8>) -> Option<&mut Intervals> {
        match lane {
            None => Some(&mut self.shared),
            Some(l) => self.private.get_mut(l as usize),
        }
    }

    /// Taint of a memory range in a space.
    fn mem_taint(&self, lane: Option<u8>, lo: i64, hi: i64) -> Taint {
        let iv = match lane {
            None => &self.shared,
            Some(l) => match self.private.get(l as usize) {
                Some(iv) => iv,
                None => return Taint::DataTainted,
            },
        };
        if iv.covers(lo, hi) {
            Taint::SizeOnly
        } else {
            Taint::DataTainted
        }
    }

    /// Taint of a dynamic bind's source word.
    fn src_taint(&self, src: DynSrc) -> Taint {
        match src {
            DynSrc::Shared { addr } => self.mem_taint(None, addr, addr),
            DynSrc::Private { lane, addr } => self.mem_taint(Some(lane), addr, addr),
        }
    }

    /// Joins taint into a lane's input port (monotone within an epoch).
    fn feed(&mut self, lane: u8, port: u8, t: Taint) {
        let e = self.in_ports.entry((lane, port)).or_insert(Taint::SizeOnly);
        *e = e.join(t);
    }

    /// Taint of a region output port on a lane: one forward DFG pass of
    /// the region that drives the port, joining argument taints.
    fn out_taint(&self, lane: u8, port: u8) -> Taint {
        let Some(Some(config)) = self.active.get(lane as usize).copied() else {
            return Taint::DataTainted;
        };
        let Some(regions) = self.program.configs.get(config) else {
            return Taint::DataTainted;
        };
        for region in regions {
            if !region.output_ports().iter().any(|p| p.0 == port) {
                continue;
            }
            let mut node_taint: Vec<Taint> = Vec::with_capacity(region.dfg.len());
            let mut result = Taint::SizeOnly;
            for (_, node) in region.dfg.iter() {
                let t = match node {
                    Node::Const { .. } => Taint::SizeOnly,
                    Node::Input { port: p, .. } => {
                        self.in_ports.get(&(lane, p.0)).copied().unwrap_or(Taint::DataTainted)
                    }
                    _ => node
                        .args()
                        .iter()
                        .filter_map(|a| node_taint.get(a.0 as usize).copied())
                        .fold(Taint::SizeOnly, Taint::join),
                };
                if let Node::Output { port: p, .. } = node {
                    if p.0 == port {
                        result = result.join(t);
                    }
                }
                node_taint.push(t);
            }
            return result;
        }
        Taint::DataTainted
    }

    /// Applies a host op's declared write set; `None` taints everything.
    fn apply_host(&mut self, effect: Option<&[HostWrite]>) {
        match effect {
            None => {
                // Undeclared closure: may overwrite any word anywhere with
                // dataset-derived values.
                self.shared = Intervals::default();
                for iv in &mut self.private {
                    *iv = Intervals::default();
                }
            }
            Some(writes) => {
                for w in writes {
                    let (lo, hi) = (w.addr, w.addr + w.len.saturating_sub(1));
                    if let Some(iv) = self.space(w.lane) {
                        if w.size_only {
                            iv.add(lo, hi);
                        } else {
                            iv.remove(lo, hi);
                        }
                    }
                }
            }
        }
    }

    /// Interprets one shipped command for the lanes it targets. `guarded`
    /// marks a command that may be suppressed at issue time: its effects
    /// are merged with "did not execute" (no upgrades to size-only, no
    /// definite configuration change).
    fn apply_command(&mut self, vc: &VectorCommand, guarded: bool, pattern_unknown: bool) {
        for lane in vc.lanes.iter() {
            let l = lane.0;
            if l as usize >= self.cfg.num_lanes {
                continue;
            }
            match vc.specialize(LaneId(l)) {
                StreamCommand::Configure { config } => {
                    // New epoch: port FIFOs are logically re-bound.
                    self.in_ports.retain(|&(pl, _), _| pl != l);
                    self.active[l as usize] = if guarded {
                        None // may still be the previous configuration
                    } else {
                        Some(config.0 as usize).filter(|c| *c < self.program.configs.len())
                    };
                }
                StreamCommand::Const { dst, .. } => {
                    self.feed(l, dst.0, Taint::SizeOnly);
                }
                StreamCommand::Load { target, pattern, dst, .. } => {
                    let t = if pattern_unknown {
                        Taint::DataTainted // patched range: any word may flow in
                    } else {
                        match pattern.addr_range() {
                            Some((lo, hi)) => self.mem_taint(mem_lane(target, l), lo, hi),
                            None => Taint::SizeOnly, // empty stream delivers nothing
                        }
                    };
                    self.feed(l, dst.0, t);
                }
                StreamCommand::Store { src, target, pattern, .. } => {
                    let t = self.out_taint(l, src.0);
                    if pattern_unknown {
                        // Patched pattern: may write anywhere in the space.
                        if let Some(iv) = self.space(mem_lane(target, l)) {
                            *iv = Intervals::default();
                        }
                    } else if let Some((lo, hi)) = pattern.addr_range() {
                        if let Some(iv) = self.space(mem_lane(target, l)) {
                            match t {
                                // A guarded size-only store may not happen,
                                // so it cannot *upgrade* the range.
                                Taint::SizeOnly if !guarded => iv.add(lo, hi),
                                Taint::SizeOnly => {}
                                Taint::DataTainted => iv.remove(lo, hi),
                            }
                        }
                    }
                }
                StreamCommand::Xfer { route, .. } => {
                    let t = self.out_taint(l, route.src.0);
                    let dst_lane = match route.hop {
                        LaneHop::Local => l,
                        LaneHop::Right => ((l as usize + 1) % self.cfg.num_lanes) as u8,
                    };
                    self.feed(dst_lane, route.dst.0, t);
                }
                StreamCommand::SetAccumLen { .. }
                | StreamCommand::BarrierScratch
                | StreamCommand::Wait => {}
            }
        }
    }

    /// Checks a dynamic step's binds, emitting one diagnostic per tainted
    /// bind, and returns the number proven size-only.
    fn check_dyn(&mut self, index: usize, ds: &DynStep, out: &mut Vec<Diagnostic>) -> usize {
        let mut clean = 0usize;
        for bind in &ds.binds {
            if self.src_taint(bind.src) == Taint::SizeOnly {
                clean += 1;
                continue;
            }
            let (code, what) = match bind.field {
                DynField::PatternLenI | DynField::PatternLenJ | DynField::XferOuter => {
                    (Code::V015, "stream length")
                }
                DynField::AccumLen => (Code::V016, "accumulator length"),
                DynField::Guard => (Code::V017, "command guard"),
                DynField::PatternStart | DynField::PatternStrideI => {
                    (Code::V018, "address pattern")
                }
                DynField::ConfigSelect => (Code::V019, "configuration selection"),
            };
            let src = match bind.src {
                DynSrc::Shared { addr } => format!("shared[{addr}]"),
                DynSrc::Private { lane, addr } => format!("lane {lane} private[{addr}]"),
            };
            out.push(Diagnostic::new(
                code,
                Location::command(index),
                format!(
                    "dynamic bind {:?} patches a {what} from {src}, which may hold \
                     dataset-derived data; timing becomes data-dependent",
                    bind.field
                ),
            ));
        }
        // Interpret the template as the shipped command. Guard binds mean
        // it may be suppressed; pattern binds make its address range
        // unknowable to this pass.
        let guarded = ds.binds.iter().any(|b| b.field == DynField::Guard);
        let pattern_unknown = ds.binds.iter().any(|b| {
            matches!(
                b.field,
                DynField::PatternStart
                    | DynField::PatternLenI
                    | DynField::PatternLenJ
                    | DynField::PatternStrideI
            )
        });
        let config_unknown = ds.binds.iter().any(|b| b.field == DynField::ConfigSelect);
        self.apply_command(&ds.template, guarded || config_unknown, pattern_unknown);
        clean
    }
}

/// The scratchpad space a lane-specialized Load/Store touches.
fn mem_lane(target: MemTarget, lane: u8) -> Option<u8> {
    match target {
        MemTarget::Shared => None,
        MemTarget::Private => Some(lane),
    }
}

#[cfg(test)]
thread_local! {
    /// Taint walks this thread has run: what the verdict memo's tests count.
    pub(crate) static ANALYZE_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Runs the taint walk, returning (diagnostics, dyn steps, size-only binds).
fn analyze(program: &RevelProgram, cfg: &RevelConfig) -> (Vec<Diagnostic>, usize, usize) {
    #[cfg(test)]
    ANALYZE_CALLS.with(|n| n.set(n.get() + 1));
    let mut st = TaintState::new(program, cfg);
    let mut out = Vec::new();
    let mut dyn_steps = 0usize;
    let mut clean_binds = 0usize;
    for (index, step) in program.control.iter().enumerate() {
        match step {
            ControlStep::Host(op) => st.apply_host(op.effect.as_deref()),
            ControlStep::Command(vc) => st.apply_command(vc, false, false),
            ControlStep::Dyn(ds) => {
                dyn_steps += 1;
                clean_binds += st.check_dyn(index, ds, &mut out);
            }
        }
    }
    (out, dyn_steps, clean_binds)
}

/// Certifies a program's timing as data-independent on a configuration.
///
/// # Errors
/// The `V015`–`V019` diagnostics, one per tainted timing-relevant bind,
/// when the proof fails.
pub fn certify(
    program: &RevelProgram,
    cfg: &RevelConfig,
) -> Result<ObliviousnessCert, Vec<Diagnostic>> {
    let (diags, dyn_steps, size_only_binds) = analyze(program, cfg);
    if diags.is_empty() {
        Ok(ObliviousnessCert { program: program.name.clone(), dyn_steps, size_only_binds })
    } else {
        Err(diags)
    }
}

/// The obliviousness lint: surfaces [`certify`]'s findings through the
/// standard lint registry (warnings — non-oblivious programs still
/// simulate, they just lose the timing-reuse certificate).
pub struct Oblivious;

impl Lint for Oblivious {
    fn name(&self) -> &'static str {
        "obliviousness"
    }

    fn codes(&self) -> &'static [Code] {
        &[Code::V015, Code::V016, Code::V017, Code::V018, Code::V019]
    }

    fn check(&self, ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
        let (diags, _, _) = analyze(ctx.program, ctx.cfg);
        out.extend(diags);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_lint;
    use crate::test_util::*;
    use revel_isa::{AffinePattern, ConstPattern, InPortId, LaneMask, OutPortId, RateFsm, Rng};
    use revel_prog::DynBind;

    fn push_dyn1(p: &mut RevelProgram, cmd: StreamCommand, binds: Vec<DynBind>) {
        p.push_dyn(DynStep { template: VectorCommand::broadcast(LaneMask::all(1), cmd), binds });
    }

    fn sh(addr: i64) -> DynSrc {
        DynSrc::Shared { addr }
    }

    fn bind(field: DynField, src: DynSrc) -> DynBind {
        DynBind { field, src }
    }

    fn violation_codes(p: &RevelProgram) -> Vec<Code> {
        certify(p, &single_lane()).expect_err("must not certify").iter().map(|d| d.code).collect()
    }

    #[test]
    fn static_program_is_trivially_certified() {
        let mut p = neg_program(&[0], 6);
        push1(&mut p, load_priv(0, 8, 0));
        push1(&mut p, store_priv(6, 8, 8));
        let cert = certify(&p, &single_lane()).expect("no dynamic steps, nothing to taint");
        assert_eq!(cert.dyn_steps, 0);
        assert_eq!(cert.size_only_binds, 0);
        assert_eq!(cert.program, "lint-test");
    }

    #[test]
    fn tainted_stream_length_trips_v015() {
        let mut p = neg_program(&[0], 6);
        // shared[100] is dataset memory (nothing declared it size-only).
        push_dyn1(&mut p, load_priv(0, 8, 0), vec![bind(DynField::PatternLenI, sh(100))]);
        assert_eq!(violation_codes(&p), vec![Code::V015]);
    }

    #[test]
    fn tainted_xfer_outer_trips_v015() {
        let mut p = neg_program(&[0], 6);
        push_dyn1(
            &mut p,
            StreamCommand::xfer(OutPortId(6), InPortId(0), 4, RateFsm::ONCE, RateFsm::ONCE),
            vec![bind(DynField::XferOuter, sh(3))],
        );
        assert_eq!(violation_codes(&p), vec![Code::V015]);
    }

    #[test]
    fn tainted_accum_len_trips_v016() {
        let mut p = neg_program(&[0], 6);
        push_dyn1(
            &mut p,
            StreamCommand::SetAccumLen { region: 0, len: RateFsm::ONCE },
            vec![bind(DynField::AccumLen, sh(7))],
        );
        assert_eq!(violation_codes(&p), vec![Code::V016]);
    }

    #[test]
    fn tainted_guard_trips_v017() {
        let mut p = neg_program(&[0], 6);
        push_dyn1(&mut p, load_priv(0, 8, 0), vec![bind(DynField::Guard, sh(0))]);
        assert_eq!(violation_codes(&p), vec![Code::V017]);
    }

    #[test]
    fn tainted_address_pattern_trips_v018() {
        let mut p = neg_program(&[0], 6);
        push_dyn1(&mut p, store_priv(6, 8, 4), vec![bind(DynField::PatternStart, sh(9))]);
        assert_eq!(violation_codes(&p), vec![Code::V018]);
        let mut p2 = neg_program(&[0], 6);
        push_dyn1(&mut p2, load_priv(0, 8, 0), vec![bind(DynField::PatternStrideI, sh(9))]);
        assert_eq!(violation_codes(&p2), vec![Code::V018]);
    }

    #[test]
    fn tainted_config_select_trips_v019() {
        let mut p = neg_program(&[0], 6);
        push_dyn1(
            &mut p,
            StreamCommand::Configure { config: revel_isa::ConfigId(0) },
            vec![bind(DynField::ConfigSelect, sh(11))],
        );
        assert_eq!(violation_codes(&p), vec![Code::V019]);
    }

    #[test]
    fn declared_size_only_host_write_certifies_binds() {
        // The lattice payoff: a trip count computed from problem sizes on
        // the control core is a legal dynamic-timing source.
        let mut p = neg_program(&[0], 6);
        p.push_host_declared(
            4,
            vec![HostWrite { lane: None, addr: 40, len: 2, size_only: true }],
            |m| {
                m.write(None, 40, 8.0);
                m.write(None, 41, 1.0);
            },
        );
        push_dyn1(
            &mut p,
            load_priv(0, 8, 0),
            vec![bind(DynField::Guard, sh(41)), bind(DynField::PatternLenI, sh(40))],
        );
        let cert = certify(&p, &single_lane()).expect("size-only sources certify");
        assert_eq!(cert.dyn_steps, 1);
        assert_eq!(cert.size_only_binds, 2);
    }

    #[test]
    fn size_only_fabric_store_certifies_downstream_bind() {
        // Const (size-only) → region → Store marks the stored range
        // size-only; a bind reading it is certified.
        let mut p = neg_program(&[0], 6);
        push1(
            &mut p,
            StreamCommand::konst(
                InPortId(0),
                ConstPattern::repeat(revel_isa::word_from_f64(2.0), 4),
            ),
        );
        push1(
            &mut p,
            StreamCommand::store(
                OutPortId(6),
                MemTarget::Shared,
                AffinePattern::linear(50, 4),
                RateFsm::ONCE,
            ),
        );
        push_dyn1(&mut p, load_priv(0, 8, 0), vec![bind(DynField::PatternLenI, sh(50))]);
        certify(&p, &single_lane()).expect("fabric-computed size-only value certifies");
    }

    #[test]
    fn dataset_load_poisons_fabric_store() {
        // Same shape, but the region input comes from (tainted) private
        // memory: the stored word is dataset-derived and the bind trips.
        let mut p = neg_program(&[0], 6);
        push1(&mut p, load_priv(0, 4, 0));
        push1(
            &mut p,
            StreamCommand::store(
                OutPortId(6),
                MemTarget::Shared,
                AffinePattern::linear(50, 4),
                RateFsm::ONCE,
            ),
        );
        push_dyn1(&mut p, load_priv(0, 8, 0), vec![bind(DynField::PatternLenI, sh(50))]);
        assert_eq!(violation_codes(&p), vec![Code::V015]);
    }

    #[test]
    fn undeclared_host_op_taints_everything() {
        let mut p = neg_program(&[0], 6);
        p.push_host_declared(
            1,
            vec![HostWrite { lane: None, addr: 40, len: 1, size_only: true }],
            |m| m.write(None, 40, 8.0),
        );
        // Undeclared closure between declaration and use: all bets off.
        p.push_host(1, |_m| {});
        push_dyn1(&mut p, load_priv(0, 8, 0), vec![bind(DynField::PatternLenI, sh(40))]);
        assert_eq!(violation_codes(&p), vec![Code::V015]);
    }

    #[test]
    fn guarded_store_cannot_upgrade_memory() {
        // A size-only store under a guard may never execute; the range it
        // writes must not become a certified source.
        let mut p = neg_program(&[0], 6);
        p.push_host_declared(
            1,
            vec![HostWrite { lane: None, addr: 0, len: 1, size_only: true }],
            |m| m.write(None, 0, 1.0),
        );
        push1(
            &mut p,
            StreamCommand::konst(
                InPortId(0),
                ConstPattern::repeat(revel_isa::word_from_f64(2.0), 4),
            ),
        );
        push_dyn1(
            &mut p,
            StreamCommand::store(
                OutPortId(6),
                MemTarget::Shared,
                AffinePattern::linear(60, 4),
                RateFsm::ONCE,
            ),
            vec![bind(DynField::Guard, sh(0))], // guard itself is size-only
        );
        push_dyn1(&mut p, load_priv(0, 8, 0), vec![bind(DynField::PatternLenI, sh(60))]);
        assert_eq!(violation_codes(&p), vec![Code::V015]);
    }

    #[test]
    fn lint_surfaces_findings_as_warnings() {
        let mut p = neg_program(&[0], 6);
        push_dyn1(&mut p, load_priv(0, 8, 0), vec![bind(DynField::Guard, sh(0))]);
        let diags = run_lint(&Oblivious, &p, &single_lane());
        assert_eq!(codes(&diags), vec![Code::V017]);
        assert!(
            diags.iter().all(|d| d.severity() == crate::Severity::Warning),
            "obliviousness findings never block simulation: {diags:?}"
        );
        assert!(!crate::has_errors(&diags));
    }

    /// A random but always-oblivious program: static loads/stores plus
    /// dynamic steps whose binds read declared size-only host words.
    fn random_clean_program(rng: &mut Rng) -> RevelProgram {
        let mut p = neg_program(&[0], 6);
        // A block of declared size-only control words at shared[32..40].
        p.push_host_declared(
            1 + rng.gen_index(8) as u64,
            vec![HostWrite { lane: None, addr: 32, len: 8, size_only: true }],
            |m| {
                for a in 32..40 {
                    m.write(None, a, 4.0);
                }
            },
        );
        for _ in 0..rng.gen_index(6) {
            let start = rng.gen_range_i64(0, 64);
            let len = rng.gen_range_i64(1, 16);
            if rng.gen_bool() {
                push1(&mut p, load_priv(start, len, 0));
            } else {
                push1(&mut p, store_priv(6, start, len));
            }
        }
        // Some certified dynamic timing: size-only sources only.
        for _ in 0..rng.gen_index(3) {
            let src = sh(rng.gen_range_i64(32, 40));
            let field = match rng.gen_index(3) {
                0 => DynField::Guard,
                1 => DynField::PatternLenI,
                _ => DynField::PatternStart,
            };
            push_dyn1(&mut p, load_priv(0, 8, 0), vec![bind(field, src)]);
        }
        p
    }

    /// Injects one data-dependent timing edge: a dynamic step whose bind
    /// reads a word no declaration covers. Returns the expected code.
    fn inject_taint(p: &mut RevelProgram, rng: &mut Rng) -> Code {
        // Private memory is never declared size-only in this corpus, and
        // shared words ≥ 64 are untouched dataset memory.
        let src = if rng.gen_bool() {
            DynSrc::Private { lane: 0, addr: rng.gen_range_i64(0, 64) }
        } else {
            sh(rng.gen_range_i64(64, 256))
        };
        match rng.gen_index(5) {
            0 => {
                push_dyn1(p, load_priv(0, 8, 0), vec![bind(DynField::PatternLenI, src)]);
                Code::V015
            }
            1 => {
                push_dyn1(
                    p,
                    StreamCommand::SetAccumLen { region: 0, len: RateFsm::ONCE },
                    vec![bind(DynField::AccumLen, src)],
                );
                Code::V016
            }
            2 => {
                push_dyn1(p, load_priv(0, 8, 0), vec![bind(DynField::Guard, src)]);
                Code::V017
            }
            3 => {
                push_dyn1(p, store_priv(6, 8, 4), vec![bind(DynField::PatternStart, src)]);
                Code::V018
            }
            _ => {
                push_dyn1(
                    p,
                    StreamCommand::Configure { config: revel_isa::ConfigId(0) },
                    vec![bind(DynField::ConfigSelect, src)],
                );
                Code::V019
            }
        }
    }

    #[test]
    fn injected_taint_is_always_flagged() {
        // Satellite property test: over a seeded corpus, the unmodified
        // random program always certifies, and injecting exactly one
        // data-dependent timing edge is always caught with the right code
        // (100% true-positive rate on the injected corpus).
        let cfg = single_lane();
        for seed in 0..64u64 {
            let mut rng = Rng::seed_from_u64(0x0B11_0500 ^ seed);
            let mut p = random_clean_program(&mut rng);
            certify(&p, &cfg)
                .unwrap_or_else(|d| panic!("seed {seed}: clean program failed to certify: {d:?}"));
            let expected = inject_taint(&mut p, &mut rng);
            let diags = certify(&p, &cfg).expect_err("injected taint must fail certification");
            assert!(
                diags.iter().any(|d| d.code == expected),
                "seed {seed}: expected {expected}, got {diags:?}"
            );
        }
    }

    #[test]
    fn the_verdicts_certificate_is_certifys_answer() {
        // The run path reads the certificate out of the memoized verdict
        // instead of calling `certify`; over the same corpus, clean and
        // injected, the two must never disagree.
        let cfg = single_lane();
        for seed in 0..64u64 {
            let mut rng = Rng::seed_from_u64(0x0B11_0500 ^ seed);
            let mut p = random_clean_program(&mut rng);
            assert!(crate::certified(&crate::verdict(&p, &cfg)), "seed {seed}: clean");
            inject_taint(&mut p, &mut rng);
            assert!(certify(&p, &cfg).is_err());
            assert!(!crate::certified(&crate::verdict(&p, &cfg)), "seed {seed}: injected");
        }
    }

    #[test]
    fn intervals_add_remove_covers() {
        let mut iv = Intervals::default();
        iv.add(0, 9);
        iv.add(20, 29);
        assert!(iv.covers(0, 9));
        assert!(iv.covers(3, 7));
        assert!(!iv.covers(5, 25));
        // Adjacent spans merge into one covering interval.
        iv.add(10, 19);
        assert!(iv.covers(0, 29));
        iv.remove(12, 14);
        assert!(iv.covers(0, 11));
        assert!(!iv.covers(11, 15));
        assert!(iv.covers(15, 29));
        assert!(!iv.covers(13, 13));
    }

    #[test]
    fn empty_range_operations_are_noops() {
        let mut iv = Intervals::default();
        iv.add(5, 4);
        assert!(iv.0.is_empty());
        iv.add(0, 3);
        iv.remove(9, 8);
        assert!(iv.covers(0, 3));
        assert!(!iv.covers(3, 2), "inverted query ranges are never covered");
    }
}
