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
    /// reads `cycles` only.
    pub func: HostFn,
}

/// The callable body of a [`HostOp`]. `Send + Sync` so whole programs can
/// move across (and be shared between) evaluation worker threads.
pub type HostFn = Arc<dyn Fn(&mut dyn HostMem) + Send + Sync>;

impl fmt::Debug for HostOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostOp").field("cycles", &self.cycles).finish_non_exhaustive()
    }
}

/// Structural identity: `cycles` — the field the simulator's timing reads
/// — and not `func` (see its field doc). The destructuring names every
/// field, so a field added later fails to compile here instead of escaping
/// identity.
impl Hash for HostOp {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let HostOp { cycles, func: _ } = self;
        cycles.hash(state);
    }
}

/// One step of the control program. No step reads a scratchpad word to
/// decide what issues or when: every timing-relevant command field is a
/// literal of the program, so timing depends on problem sizes alone, never
/// on the dataset (DESIGN.md §13).
#[derive(Debug, Clone, Hash)]
pub enum ControlStep {
    /// Ship a vector-stream command to the lanes.
    Command(VectorCommand),
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

    /// Appends a host computation of `cycles` control-core cycles.
    pub fn push_host(
        &mut self,
        cycles: u64,
        func: impl Fn(&mut dyn HostMem) + Send + Sync + 'static,
    ) {
        self.control.push(ControlStep::Host(HostOp { cycles, func: Arc::new(func) }));
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
            let ControlStep::Command(vc) = step else { continue };
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
            let ControlStep::Command(vc) = step else { continue };
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
