//! # revel-prog — the REVEL program representation
//!
//! A [`RevelProgram`] is the artifact the compiler emits and the simulator
//! executes ("REVEL Binaries: Dataflow Config + Vector-Stream Code",
//! Fig. 17 of *"A Hybrid Systolic-Dataflow Architecture for Inductive
//! Matrix Algorithms"*, HPCA 2020): a set of fabric configurations (region
//! graphs, one set per `ConfigId`) plus the vector-stream control program.
//!
//! The representation lives in its own crate — below both `revel-sim` and
//! `revel-verify` in the dependency graph — so that the static verifier can
//! analyze programs and the simulator can gate on the verifier without a
//! dependency cycle. `revel-sim` re-exports every type here, so existing
//! `revel_sim::RevelProgram` users are unaffected.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use revel_dfg::Region;
use revel_fabric::{LaneConfig, RevelConfig};
use revel_isa::{MemTarget, StreamCommand, VectorCommand};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

mod identity;

pub use identity::{structural_id, StructuralId};

/// Host memory view passed to [`HostOp`] closures: the control core can
/// read and write the scratchpads directly (it is a general Von Neumann
/// core). Lane index selects a private scratchpad; `None` is the shared
/// scratchpad.
pub trait HostMem {
    /// Reads an `f64` word.
    fn read(&self, lane: Option<u8>, addr: i64) -> f64;
    /// Writes an `f64` word.
    fn write(&mut self, lane: Option<u8>, addr: i64, value: f64);
}

/// One scratchpad range a [`HostOp`] declares it writes.
///
/// Host closures are opaque to static analysis; without a declaration the
/// obliviousness certifier must assume a host op overwrites *all* of memory
/// with dataset-derived values. A declared effect bounds the damage: only
/// the listed ranges are written, and ranges marked `size_only` hold values
/// computed purely from problem dimensions (loop trip counts, block sizes)
/// — never from dataset words — so they remain legal sources for
/// timing-relevant [`DynBind`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostWrite {
    /// Target scratchpad (`None` = shared, `Some(l)` = lane `l` private).
    pub lane: Option<u8>,
    /// First word address written.
    pub addr: i64,
    /// Number of consecutive words written.
    pub len: i64,
    /// True when the written values derive only from problem sizes.
    pub size_only: bool,
}

/// A computation executed *on the control core* between stream commands.
///
/// This is how baseline architectures without a temporal fabric run
/// outer-loop program regions: §III notes that for systolic architectures
/// the dependence-FSM / outer-loop instructions "execute on a control core
/// (which can easily get overwhelmed)". The `cycles` cost models the
/// scalar execution time (including FP latency and load-use stalls).
#[derive(Clone)]
pub struct HostOp {
    /// Control-core cycles consumed.
    pub cycles: u64,
    /// The computation, applied to scratchpad memory. A closure has no
    /// structure to compare, so it stays outside the program's
    /// [`StructuralId`]: static analysis never looks inside it either, it
    /// reads `cycles` and the declared `effect`.
    pub func: HostFn,
    /// Declared write set: `None` means undeclared (static analysis assumes
    /// the closure may overwrite all of memory with dataset-derived data);
    /// `Some(writes)` is a *complete* listing of everything `func` writes.
    pub effect: Option<Vec<HostWrite>>,
}

/// The callable body of a [`HostOp`]. `Send + Sync` so whole programs can
/// move across (and be shared between) evaluation worker threads.
pub type HostFn = Arc<dyn Fn(&mut dyn HostMem) + Send + Sync>;

impl fmt::Debug for HostOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostOp").field("cycles", &self.cycles).finish_non_exhaustive()
    }
}

/// Structural identity: `cycles` and the declared `effect` — the two fields
/// the simulator's timing and the obliviousness certifier read — and not
/// `func` (see its field doc). The destructuring names every field, so a
/// field added later fails to compile here instead of escaping identity.
impl Hash for HostOp {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let HostOp { cycles, func: _, effect } = self;
        cycles.hash(state);
        effect.hash(state);
    }
}

/// Where a [`DynBind`] reads its word at issue time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DynSrc {
    /// A word of the shared scratchpad.
    Shared {
        /// Word address.
        addr: i64,
    },
    /// A word of one lane's private scratchpad.
    Private {
        /// Lane index.
        lane: u8,
        /// Word address.
        addr: i64,
    },
}

/// Which field of a [`DynStep`]'s template a bind patches at issue time.
///
/// Every variant is *timing-relevant* by construction — that is the point
/// of the dynamic-step ISA extension: the only program values that can
/// change between issues of the same static program are exactly the values
/// the obliviousness certifier must prove size-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DynField {
    /// Predicate: the command issues only if the word is nonzero (the
    /// command is skipped — pc advances, nothing is shipped — otherwise).
    Guard,
    /// `Configure`: the configuration index to activate.
    ConfigSelect,
    /// `SetAccumLen`: the new (fixed) accumulator length.
    AccumLen,
    /// `Load`/`Store`: the pattern's starting word offset.
    PatternStart,
    /// `Load`/`Store`: the pattern's inner trip count.
    PatternLenI,
    /// `Load`/`Store`: the pattern's outer trip count.
    PatternLenJ,
    /// `Load`/`Store`: the pattern's inner stride.
    PatternStrideI,
    /// `Xfer`: the number of forwarded values (outer iterations).
    XferOuter,
}

/// One issue-time patch: read `src`, write it into `field` of the template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DynBind {
    /// The template field patched.
    pub field: DynField,
    /// The scratchpad word supplying the value.
    pub src: DynSrc,
}

/// A control step whose command is *finalized at issue time* from
/// scratchpad words: the control core reads each bind's source word and
/// patches it into the command template before shipping it to the lanes.
///
/// This is the machine's only mechanism for data-dependent control — and
/// therefore the complete set of taint sinks for the obliviousness
/// certifier (`revel-verify`, codes V015–V019): a program whose dynamic
/// binds all read provably size-only words has data-independent timing.
#[derive(Debug, Clone, Hash)]
pub struct DynStep {
    /// The command template (lane mask/scaling included).
    pub template: VectorCommand,
    /// Issue-time patches, applied in order.
    pub binds: Vec<DynBind>,
}

impl DynStep {
    /// Resolves the step into a concrete command by reading every bind's
    /// source word through `read` and patching the template. Returns
    /// `None` when a [`DynField::Guard`] bind reads zero (the command is
    /// suppressed).
    ///
    /// Resolution is pure in `read`: resolving twice against the same
    /// memory yields the same command, which keeps re-resolution on a
    /// queue-full retry deterministic.
    pub fn resolve_with(&self, read: &mut dyn FnMut(DynSrc) -> f64) -> Option<VectorCommand> {
        let mut vc = self.template.clone();
        for bind in &self.binds {
            let word = read(bind.src);
            let int = word as i64;
            match bind.field {
                DynField::Guard => {
                    if word == 0.0 {
                        return None;
                    }
                }
                DynField::ConfigSelect => {
                    if let StreamCommand::Configure { config } = &mut vc.cmd {
                        config.0 = int.max(0) as u32;
                    }
                }
                DynField::AccumLen => {
                    if let StreamCommand::SetAccumLen { len, .. } = &mut vc.cmd {
                        *len = revel_isa::RateFsm::fixed(int.max(1));
                    }
                }
                DynField::PatternStart
                | DynField::PatternLenI
                | DynField::PatternLenJ
                | DynField::PatternStrideI => {
                    if let StreamCommand::Load { pattern, .. }
                    | StreamCommand::Store { pattern, .. } = &mut vc.cmd
                    {
                        match bind.field {
                            DynField::PatternStart => pattern.start = int,
                            DynField::PatternLenI => pattern.len_i = int.max(0),
                            DynField::PatternLenJ => pattern.len_j = int.max(0),
                            DynField::PatternStrideI => pattern.stride_i = int,
                            _ => unreachable!(),
                        }
                    }
                }
                DynField::XferOuter => {
                    if let StreamCommand::Xfer { outer, .. } = &mut vc.cmd {
                        *outer = int.max(0);
                    }
                }
            }
        }
        Some(vc)
    }

    /// Checks every bind patches a field its template actually has.
    ///
    /// # Errors
    /// [`ProgramError::DynBindMismatch`] on the first inapplicable bind.
    pub fn validate(&self) -> Result<(), ProgramError> {
        let kind = command_kind(&self.template.cmd);
        for bind in &self.binds {
            let ok = match bind.field {
                // Sync commands have no issue effect to predicate.
                DynField::Guard => !self.template.cmd.is_sync(),
                DynField::ConfigSelect => {
                    matches!(self.template.cmd, StreamCommand::Configure { .. })
                }
                DynField::AccumLen => {
                    matches!(self.template.cmd, StreamCommand::SetAccumLen { .. })
                }
                DynField::PatternStart
                | DynField::PatternLenI
                | DynField::PatternLenJ
                | DynField::PatternStrideI => matches!(
                    self.template.cmd,
                    StreamCommand::Load { .. } | StreamCommand::Store { .. }
                ),
                DynField::XferOuter => matches!(self.template.cmd, StreamCommand::Xfer { .. }),
            };
            if !ok {
                return Err(ProgramError::DynBindMismatch { field: bind.field, command: kind });
            }
        }
        Ok(())
    }
}

/// Human-readable command kind for diagnostics.
fn command_kind(cmd: &StreamCommand) -> &'static str {
    match cmd {
        StreamCommand::Configure { .. } => "Configure",
        StreamCommand::Load { .. } => "Load",
        StreamCommand::Store { .. } => "Store",
        StreamCommand::Const { .. } => "Const",
        StreamCommand::Xfer { .. } => "Xfer",
        StreamCommand::SetAccumLen { .. } => "SetAccumLen",
        StreamCommand::BarrierScratch => "BarrierScratch",
        StreamCommand::Wait => "Wait",
    }
}

/// One step of the control program.
#[derive(Debug, Clone, Hash)]
pub enum ControlStep {
    /// Ship a vector-stream command to the lanes.
    Command(VectorCommand),
    /// Resolve a command template against scratchpad words, then ship it.
    Dyn(DynStep),
    /// Run a scalar computation on the control core.
    Host(HostOp),
}

/// A complete REVEL binary: fabric configurations (one per `ConfigId`) plus
/// the vector-stream control program.
///
/// All lanes share the same fabric configuration (they are homogeneous);
/// per-lane behaviour comes from the lane masks and lane scaling of the
/// commands.
#[derive(Debug, Clone, Hash)]
pub struct RevelProgram {
    /// Diagnostic name (usually the kernel name).
    pub name: String,
    /// Region sets, indexed by `ConfigId`.
    pub configs: Vec<Vec<Region>>,
    /// The control program, executed in order by the control core.
    pub control: Vec<ControlStep>,
}

/// A program-validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramError {
    /// A command referenced a port beyond the lane's port count.
    PortOutOfRange {
        /// Port number used.
        port: u8,
        /// Ports available.
        limit: u8,
    },
    /// A region's vector input needs more width than the port's hardware
    /// provides.
    PortWidthMismatch {
        /// Config index.
        config: usize,
        /// Region name.
        region: String,
        /// Offending port.
        port: u8,
        /// The port's hardware width.
        port_width: usize,
        /// The region's vector width.
        unroll: usize,
    },
    /// Two regions of one configuration bound the same input port.
    PortConflict {
        /// Config index.
        config: usize,
        /// The port bound twice.
        port: u8,
    },
    /// A `Configure` command referenced a config index that does not exist.
    UnknownConfig {
        /// The missing config id.
        config: u32,
    },
    /// A memory stream walks outside its scratchpad.
    AddressOutOfBounds {
        /// Lane whose (specialized) command is out of bounds.
        lane: u8,
        /// Which scratchpad.
        target: MemTarget,
        /// The offending word address.
        addr: i64,
        /// Scratchpad capacity in words.
        limit: usize,
    },
    /// A dynamic bind patches a field its command template does not have.
    DynBindMismatch {
        /// The inapplicable field.
        field: DynField,
        /// The template's command kind.
        command: &'static str,
    },
    /// An embedded ISA value failed validation.
    Isa(revel_isa::IsaError),
    /// A region's DFG failed validation.
    Dfg(String, revel_dfg::DfgError),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::PortOutOfRange { port, limit } => {
                write!(f, "port {port} out of range ({limit} ports)")
            }
            ProgramError::PortWidthMismatch { config, region, port, port_width, unroll } => {
                write!(
                    f,
                    "config {config} region '{region}': port {port} width {port_width} \
                     too narrow for unroll {unroll}"
                )
            }
            ProgramError::PortConflict { config, port } => {
                write!(f, "config {config}: input port {port} bound by two regions")
            }
            ProgramError::UnknownConfig { config } => write!(f, "unknown config id {config}"),
            ProgramError::DynBindMismatch { field, command } => {
                write!(f, "dynamic bind {field:?} does not apply to a {command} template")
            }
            ProgramError::AddressOutOfBounds { lane, target, addr, limit } => {
                let which = match target {
                    MemTarget::Private => "private",
                    MemTarget::Shared => "shared",
                };
                write!(
                    f,
                    "lane {lane}: {which} scratchpad address {addr} out of bounds \
                     ({limit} words)"
                )
            }
            ProgramError::Isa(e) => write!(f, "isa error: {e}"),
            ProgramError::Dfg(name, e) => write!(f, "region '{name}': {e}"),
        }
    }
}

impl std::error::Error for ProgramError {}

impl From<revel_isa::IsaError> for ProgramError {
    fn from(e: revel_isa::IsaError) -> Self {
        ProgramError::Isa(e)
    }
}

impl RevelProgram {
    /// Creates an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        RevelProgram { name: name.into(), configs: Vec::new(), control: Vec::new() }
    }

    /// Appends a fabric configuration, returning its `ConfigId` index.
    pub fn add_config(&mut self, regions: Vec<Region>) -> u32 {
        self.configs.push(regions);
        (self.configs.len() - 1) as u32
    }

    /// Appends a control command.
    pub fn push(&mut self, cmd: VectorCommand) {
        self.control.push(ControlStep::Command(cmd));
    }

    /// Appends a host computation of `cycles` control-core cycles with an
    /// undeclared write set (static analysis assumes it taints all memory).
    pub fn push_host(
        &mut self,
        cycles: u64,
        func: impl Fn(&mut dyn HostMem) + Send + Sync + 'static,
    ) {
        self.control.push(ControlStep::Host(HostOp { cycles, func: Arc::new(func), effect: None }));
    }

    /// Appends a host computation with a *complete* declared write set —
    /// the contract the obliviousness certifier relies on: `func` writes
    /// exactly the words in `effect`, and ranges marked
    /// [`HostWrite::size_only`] hold values derived from problem sizes
    /// alone.
    pub fn push_host_declared(
        &mut self,
        cycles: u64,
        effect: Vec<HostWrite>,
        func: impl Fn(&mut dyn HostMem) + Send + Sync + 'static,
    ) {
        self.control.push(ControlStep::Host(HostOp {
            cycles,
            func: Arc::new(func),
            effect: Some(effect),
        }));
    }

    /// Appends a dynamic (issue-time-resolved) command step.
    pub fn push_dyn(&mut self, step: DynStep) {
        self.control.push(ControlStep::Dyn(step));
    }

    /// Total number of control steps (the control-amortization metric).
    pub fn num_commands(&self) -> usize {
        self.control.len()
    }

    /// Validates the program against a lane configuration.
    ///
    /// # Errors
    /// See [`ProgramError`].
    pub fn validate(&self, lane: &LaneConfig) -> Result<(), ProgramError> {
        let in_limit = lane.num_in_ports() as u8;
        let out_limit = lane.num_out_ports() as u8;
        for (ci, regions) in self.configs.iter().enumerate() {
            let mut bound_in = std::collections::BTreeSet::new();
            for region in regions {
                region.dfg.validate().map_err(|e| ProgramError::Dfg(region.name.clone(), e))?;
                for (p, scalar) in region.input_bindings() {
                    if p.0 >= in_limit {
                        return Err(ProgramError::PortOutOfRange { port: p.0, limit: in_limit });
                    }
                    if !bound_in.insert(p) {
                        return Err(ProgramError::PortConflict { config: ci, port: p.0 });
                    }
                    let w = lane.in_port_width(p.0);
                    let logical = region.port_logical_width(scalar);
                    if w < logical {
                        return Err(ProgramError::PortWidthMismatch {
                            config: ci,
                            region: region.name.clone(),
                            port: p.0,
                            port_width: w,
                            unroll: region.unroll,
                        });
                    }
                }
                for p in region.output_ports() {
                    if p.0 >= out_limit {
                        return Err(ProgramError::PortOutOfRange { port: p.0, limit: out_limit });
                    }
                }
            }
        }
        for step in &self.control {
            let vc = match step {
                ControlStep::Command(vc) => vc,
                ControlStep::Dyn(ds) => {
                    ds.validate()?;
                    &ds.template
                }
                ControlStep::Host(_) => continue,
            };
            vc.validate()?;
            if let Some(p) = vc.cmd.dst_in_port() {
                if p.0 >= in_limit {
                    return Err(ProgramError::PortOutOfRange { port: p.0, limit: in_limit });
                }
            }
            if let Some(p) = vc.cmd.src_out_port() {
                if p.0 >= out_limit {
                    return Err(ProgramError::PortOutOfRange { port: p.0, limit: out_limit });
                }
            }
            if let StreamCommand::Configure { config } = &vc.cmd {
                if config.0 as usize >= self.configs.len() {
                    return Err(ProgramError::UnknownConfig { config: config.0 });
                }
            }
        }
        Ok(())
    }

    /// Validates every (per-lane-specialized) memory stream against the
    /// scratchpad sizes: a stream that walks off its scratchpad is a typed
    /// error here instead of a panic inside the simulator's stream engine.
    ///
    /// # Errors
    /// [`ProgramError::AddressOutOfBounds`] on the first offending stream.
    pub fn validate_memory(&self, cfg: &RevelConfig) -> Result<(), ProgramError> {
        for step in &self.control {
            let vc = match step {
                ControlStep::Command(vc) => vc,
                // A dynamic step's pattern is only statically checkable when
                // no bind rewrites it; patched patterns are checked at issue
                // time by the simulator (and flagged V018 by the certifier).
                ControlStep::Dyn(ds)
                    if !ds.binds.iter().any(|b| {
                        matches!(
                            b.field,
                            DynField::PatternStart
                                | DynField::PatternLenI
                                | DynField::PatternLenJ
                                | DynField::PatternStrideI
                        )
                    }) =>
                {
                    &ds.template
                }
                _ => continue,
            };
            for lane in vc.lanes.iter() {
                if lane.0 as usize >= cfg.num_lanes {
                    continue; // command targets a lane the machine lacks
                }
                let (target, pattern) = match &vc.specialize(lane) {
                    StreamCommand::Load { target, pattern, .. }
                    | StreamCommand::Store { target, pattern, .. } => (*target, *pattern),
                    _ => continue,
                };
                let limit = match target {
                    MemTarget::Private => cfg.lane.spad_words,
                    MemTarget::Shared => cfg.shared_spad_words,
                };
                if let Some((lo, hi)) = pattern.addr_range() {
                    if lo < 0 || hi >= limit as i64 {
                        return Err(ProgramError::AddressOutOfBounds {
                            lane: lane.0,
                            target,
                            addr: if lo < 0 { lo } else { hi },
                            limit,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revel_dfg::{Dfg, OpCode};
    use revel_isa::{AffinePattern, ConfigId, InPortId, LaneMask, MemTarget, OutPortId, RateFsm};

    fn simple_region(unroll: usize) -> Region {
        let mut g = Dfg::new("r");
        let a = g.input(InPortId(0));
        let n = g.op(OpCode::Neg, &[a]);
        g.output(n, OutPortId(0));
        Region::systolic("r", g, unroll)
    }

    fn lane() -> LaneConfig {
        LaneConfig::paper_default()
    }

    #[test]
    fn valid_program_passes() {
        let mut p = RevelProgram::new("t");
        let c = p.add_config(vec![simple_region(8)]);
        p.push(VectorCommand::broadcast(
            LaneMask::all(1),
            StreamCommand::Configure { config: ConfigId(c) },
        ));
        p.push(VectorCommand::broadcast(
            LaneMask::all(1),
            StreamCommand::load(
                MemTarget::Private,
                AffinePattern::linear(0, 64),
                InPortId(0),
                RateFsm::ONCE,
            ),
        ));
        assert!(p.validate(&lane()).is_ok());
        assert_eq!(p.num_commands(), 2);
    }

    #[test]
    fn port_width_mismatch_detected() {
        // Port 2 is 4 words wide; unroll 8 is incompatible.
        let mut g = Dfg::new("bad");
        let a = g.input(InPortId(2));
        let n = g.op(OpCode::Neg, &[a]);
        g.output(n, OutPortId(0));
        let mut p = RevelProgram::new("t");
        p.add_config(vec![Region::systolic("bad", g, 8)]);
        assert!(matches!(
            p.validate(&lane()),
            Err(ProgramError::PortWidthMismatch { port: 2, .. })
        ));
    }

    #[test]
    fn unknown_config_detected() {
        let mut p = RevelProgram::new("t");
        p.add_config(vec![simple_region(8)]);
        p.push(VectorCommand::broadcast(
            LaneMask::all(1),
            StreamCommand::Configure { config: ConfigId(9) },
        ));
        assert!(matches!(p.validate(&lane()), Err(ProgramError::UnknownConfig { config: 9 })));
    }

    #[test]
    fn out_of_range_port_detected() {
        let mut p = RevelProgram::new("t");
        p.add_config(vec![simple_region(8)]);
        p.push(VectorCommand::broadcast(
            LaneMask::all(1),
            StreamCommand::load(
                MemTarget::Private,
                AffinePattern::linear(0, 4),
                InPortId(12),
                RateFsm::ONCE,
            ),
        ));
        assert!(matches!(p.validate(&lane()), Err(ProgramError::PortOutOfRange { port: 12, .. })));
    }

    #[test]
    fn scalar_broadcast_port_allowed() {
        // A scalar input binding runs any port at logical width 1.
        let mut g = Dfg::new("b");
        let a = g.input_scalar(InPortId(5));
        let n = g.op(OpCode::Neg, &[a]);
        g.output(n, OutPortId(0));
        let mut p = RevelProgram::new("t");
        p.add_config(vec![Region::systolic("b", g, 4)]);
        assert!(p.validate(&lane()).is_ok());
    }

    #[test]
    fn narrow_port_vector_input_rejected() {
        // Port 9 is 1 word wide: a 4-wide vector input cannot bind to it.
        let mut g = Dfg::new("w");
        let a = g.input(InPortId(9));
        let n = g.op(OpCode::Neg, &[a]);
        g.output(n, OutPortId(0));
        let mut p = RevelProgram::new("t");
        p.add_config(vec![Region::systolic("w", g, 4)]);
        assert!(matches!(
            p.validate(&lane()),
            Err(ProgramError::PortWidthMismatch { port: 9, .. })
        ));
    }

    #[test]
    fn port_conflict_between_regions_rejected() {
        let mut p = RevelProgram::new("t");
        p.add_config(vec![simple_region(8), simple_region(8)]);
        assert!(matches!(p.validate(&lane()), Err(ProgramError::PortConflict { port: 0, .. })));
    }

    #[test]
    fn oob_load_detected() {
        let cfg = RevelConfig::single_lane();
        let mut p = RevelProgram::new("t");
        p.add_config(vec![simple_region(8)]);
        p.push(VectorCommand::broadcast(
            LaneMask::all(1),
            StreamCommand::load(
                MemTarget::Private,
                AffinePattern::linear(cfg.lane.spad_words as i64 - 4, 8),
                InPortId(0),
                RateFsm::ONCE,
            ),
        ));
        assert!(p.validate(&cfg.lane).is_ok(), "ports are fine");
        assert!(matches!(
            p.validate_memory(&cfg),
            Err(ProgramError::AddressOutOfBounds { target: MemTarget::Private, .. })
        ));
    }

    #[test]
    fn dyn_step_resolves_and_guards() {
        let template = VectorCommand::broadcast(
            LaneMask::all(1),
            StreamCommand::load(
                MemTarget::Private,
                AffinePattern::linear(0, 4),
                InPortId(0),
                RateFsm::ONCE,
            ),
        );
        let step = DynStep {
            template,
            binds: vec![
                DynBind { field: DynField::Guard, src: DynSrc::Shared { addr: 0 } },
                DynBind { field: DynField::PatternLenI, src: DynSrc::Shared { addr: 1 } },
            ],
        };
        step.validate().expect("binds apply to a Load");

        // Guard nonzero: the command issues with the patched length.
        let mut mem = |src: DynSrc| match src {
            DynSrc::Shared { addr: 0 } => 1.0,
            DynSrc::Shared { addr: 1 } => 7.0,
            _ => 0.0,
        };
        let vc = step.resolve_with(&mut mem).expect("guard is nonzero");
        match vc.cmd {
            StreamCommand::Load { pattern, .. } => assert_eq!(pattern.len_i, 7),
            other => panic!("expected Load, got {other:?}"),
        }

        // Guard zero: the command is suppressed.
        let mut dead = |_src: DynSrc| 0.0;
        assert!(step.resolve_with(&mut dead).is_none());
    }

    #[test]
    fn dyn_bind_mismatch_rejected() {
        // XferOuter on a Load template is a contradiction.
        let step = DynStep {
            template: VectorCommand::broadcast(
                LaneMask::all(1),
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::linear(0, 4),
                    InPortId(0),
                    RateFsm::ONCE,
                ),
            ),
            binds: vec![DynBind { field: DynField::XferOuter, src: DynSrc::Shared { addr: 0 } }],
        };
        assert_eq!(
            step.validate(),
            Err(ProgramError::DynBindMismatch { field: DynField::XferOuter, command: "Load" })
        );
        // The same mismatch is caught by whole-program validation.
        let mut p = RevelProgram::new("t");
        p.add_config(vec![simple_region(8)]);
        p.push_dyn(step);
        assert!(matches!(p.validate(&lane()), Err(ProgramError::DynBindMismatch { .. })));
    }

    #[test]
    fn dyn_step_with_static_pattern_is_bounds_checked() {
        let cfg = RevelConfig::single_lane();
        let mut p = RevelProgram::new("t");
        p.add_config(vec![simple_region(8)]);
        p.push_dyn(DynStep {
            template: VectorCommand::broadcast(
                LaneMask::all(1),
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::linear(cfg.lane.spad_words as i64 - 4, 8),
                    InPortId(0),
                    RateFsm::ONCE,
                ),
            ),
            binds: vec![DynBind { field: DynField::Guard, src: DynSrc::Shared { addr: 0 } }],
        });
        // Guard-only binds leave the pattern static: still checkable.
        assert!(matches!(
            p.validate_memory(&cfg),
            Err(ProgramError::AddressOutOfBounds { target: MemTarget::Private, .. })
        ));
    }

    #[test]
    fn in_bounds_memory_passes() {
        let cfg = RevelConfig::single_lane();
        let mut p = RevelProgram::new("t");
        p.add_config(vec![simple_region(8)]);
        p.push(VectorCommand::broadcast(
            LaneMask::all(1),
            StreamCommand::store(
                OutPortId(0),
                MemTarget::Shared,
                AffinePattern::linear(0, cfg.shared_spad_words as i64),
                RateFsm::ONCE,
            ),
        ));
        assert!(p.validate_memory(&cfg).is_ok());
    }
}
