use crate::{
    AffinePattern, InPortId, IsaError, LaneId, LaneMask, LaneScale, OutPortId, RateFsm, Word,
};

/// Which scratchpad a memory stream targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemTarget {
    /// The lane-private scratchpad (8 KB per lane in the default config).
    Private,
    /// The shared scratchpad (128 KB), which also serves as the external
    /// memory interface.
    Shared,
}

/// Identifier of a fabric configuration (the bitstream produced by the
/// spatial scheduler). `Configure` commands point at one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ConfigId(pub u32);

/// Which lane an XFER dependence stream is routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LaneHop {
    /// Source and destination port are in the same lane.
    #[default]
    Local,
    /// Destination port is in the lane to the right (lane id + 1, used to
    /// pipeline outer iterations across lanes, Fig. 17).
    Right,
}

/// Which phase of each production group an XFER forwards.
///
/// The output-port FSM tracks "the number of times an output should be
/// discarded" (§IV-B); configuring which phase survives admits both the
/// head (a value feeding an outer-loop computation, e.g. `b[j+1]` to the
/// solver's divider) and the tail (the recirculated remainder of the
/// vector, which excludes the element consumed by the outer loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProdMode {
    /// Forward the first value of each group, discard the rest.
    #[default]
    KeepFirst,
    /// Discard the first value of each group, forward the rest.
    DropFirst,
}

/// Source/destination routing of an XFER dependence stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct XferRoute {
    /// The output port values are read from.
    pub src: OutPortId,
    /// The input port values are delivered to.
    pub dst: InPortId,
    /// Whether the destination is local or in the next lane.
    pub hop: LaneHop,
}

/// The pattern of a `Const` stream: per outer iteration `j`, emit `val1`
/// `n1(j)` times followed (optionally) by `val2` `n2(j)` times.
///
/// This encodes inductive constant sequences like `0,0,0,1, 0,0,1, 0,1, 1`
/// (e.g. an accumulator-reset control stream for a shrinking reduction).
///
/// ```
/// use revel_isa::{ConstPattern, RateFsm, word_from_f64};
/// let p = ConstPattern::two_phase(
///     word_from_f64(0.0), RateFsm::inductive(3, -1),
///     word_from_f64(1.0), RateFsm::ONCE,
///     3,
/// );
/// assert_eq!(p.total_elems(), (3 + 1) + (2 + 1) + (1 + 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConstPattern {
    /// First value of each group.
    pub val1: Word,
    /// How many times `val1` repeats in outer iteration `j`.
    pub n1: RateFsm,
    /// Optional second value and its repeat rate.
    pub val2: Option<(Word, RateFsm)>,
    /// Number of outer iterations.
    pub outer: i64,
}

impl ConstPattern {
    /// A flat constant stream: `val` repeated `n` times.
    pub fn repeat(val: Word, n: i64) -> Self {
        ConstPattern { val1: val, n1: RateFsm::fixed(n.max(1)), val2: None, outer: 1 }
    }

    /// A two-phase pattern; see the type documentation.
    pub fn two_phase(val1: Word, n1: RateFsm, val2: Word, n2: RateFsm, outer: i64) -> Self {
        ConstPattern { val1, n1, val2: Some((val2, n2)), outer }
    }

    /// Total number of values the stream produces.
    pub fn total_elems(&self) -> i64 {
        let mut total = self.n1.total(self.outer);
        if let Some((_, n2)) = self.val2 {
            total += n2.total(self.outer);
        }
        total
    }

    /// Expands the full value sequence (mostly for tests and the simulator's
    /// constant stream engine).
    pub fn expand(&self) -> Vec<Word> {
        let mut out = Vec::with_capacity(self.total_elems().max(0) as usize);
        for j in 0..self.outer.max(0) {
            for _ in 0..self.n1.count_at(j) {
                out.push(self.val1);
            }
            if let Some((v2, n2)) = self.val2 {
                for _ in 0..n2.count_at(j) {
                    out.push(v2);
                }
            }
        }
        out
    }
}

/// One command of the vector-stream ISA (Table II of the paper).
///
/// Commands are constructed by the control program, shipped to lanes, and
/// buffered in per-lane command queues until the hardware resources (port,
/// stream-table slot) are free. They execute in program order per port.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum StreamCommand {
    /// Reconfigure the spatial fabric. The fabric must drain in-flight
    /// computation first; the config bits are fetched from scratchpad.
    Configure {
        /// Which pre-compiled configuration to load.
        config: ConfigId,
    },
    /// A memory → port stream.
    Load {
        /// Source scratchpad.
        target: MemTarget,
        /// Word-granularity access pattern (may be inductive).
        pattern: AffinePattern,
        /// Destination input port.
        dst: InPortId,
        /// Consumption rate: how often each element is reused before being
        /// popped (per-element inductive index).
        reuse: RateFsm,
    },
    /// A port → memory stream.
    Store {
        /// Source output port.
        src: OutPortId,
        /// Destination scratchpad.
        target: MemTarget,
        /// Word-granularity access pattern (may be inductive).
        pattern: AffinePattern,
        /// Production rate: of every `discard(j)` values produced by the
        /// fabric, the first is stored and the rest are dropped.
        discard: RateFsm,
    },
    /// An immediate → port stream.
    Const {
        /// Destination input port.
        dst: InPortId,
        /// The value pattern.
        pattern: ConstPattern,
    },
    /// A dependence stream between an output port and an input port,
    /// possibly in the next lane.
    Xfer {
        /// Routing (source port, destination port, lane hop).
        route: XferRoute,
        /// Number of values forwarded (outer iterations of the dependence).
        outer: i64,
        /// Production rate at the source: values are grouped in runs of
        /// `production(j)`; [`ProdMode`] selects which phase of each group
        /// is forwarded.
        production: RateFsm,
        /// Which phase of each production group survives.
        prod_mode: ProdMode,
        /// Consumption rate at the destination: the `j`-th forwarded value
        /// is reused `consumption(j)` times (element units for scalar
        /// broadcast ports).
        consumption: RateFsm,
        /// Inner-row length at the destination (for stream predication of
        /// vectorized consumers): after `rows(j)` delivered words the
        /// destination port pads and flushes a partial vector. `None`
        /// disables row tracking.
        rows: Option<RateFsm>,
    },
    /// Reconfigures the accumulator emission length of a fabric region
    /// without a full fabric reconfiguration (the accumulator trip count is
    /// a port-FSM-style runtime parameter; factorization kernels update it
    /// per outer iteration as the reduction length shrinks).
    SetAccumLen {
        /// Region index within the current configuration.
        region: u32,
        /// New emission length (fires per emission).
        len: RateFsm,
    },
    /// Fence: later loads from scratchpad wait for earlier stream stores to
    /// complete (used for double buffering).
    BarrierScratch,
    /// Block the control program until every stream issued so far (in the
    /// masked lanes) has completed.
    Wait,
}

impl StreamCommand {
    /// Convenience constructor for [`StreamCommand::Load`].
    pub fn load(target: MemTarget, pattern: AffinePattern, dst: InPortId, reuse: RateFsm) -> Self {
        StreamCommand::Load { target, pattern, dst, reuse }
    }

    /// Convenience constructor for [`StreamCommand::Store`].
    pub fn store(
        src: OutPortId,
        target: MemTarget,
        pattern: AffinePattern,
        discard: RateFsm,
    ) -> Self {
        StreamCommand::Store { src, target, pattern, discard }
    }

    /// Convenience constructor for [`StreamCommand::Const`].
    pub fn konst(dst: InPortId, pattern: ConstPattern) -> Self {
        StreamCommand::Const { dst, pattern }
    }

    /// Convenience constructor for a local [`StreamCommand::Xfer`]
    /// (keep-first production, no destination row tracking).
    pub fn xfer(src: OutPortId, dst: InPortId, outer: i64, prod: RateFsm, cons: RateFsm) -> Self {
        StreamCommand::Xfer {
            route: XferRoute { src, dst, hop: LaneHop::Local },
            outer,
            production: prod,
            prod_mode: ProdMode::KeepFirst,
            consumption: cons,
            rows: None,
        }
    }

    /// A local XFER that drops the head of each production group and
    /// recirculates the tail, delivering rows of `rows(j)` words to the
    /// (typically vectorized) destination.
    pub fn xfer_tail(
        src: OutPortId,
        dst: InPortId,
        outer: i64,
        prod: RateFsm,
        rows: RateFsm,
    ) -> Self {
        StreamCommand::Xfer {
            route: XferRoute { src, dst, hop: LaneHop::Local },
            outer,
            production: prod,
            prod_mode: ProdMode::DropFirst,
            consumption: RateFsm::ONCE,
            rows: Some(rows),
        }
    }

    /// Convenience constructor for an [`StreamCommand::Xfer`] to the lane on
    /// the right.
    pub fn xfer_right(
        src: OutPortId,
        dst: InPortId,
        outer: i64,
        prod: RateFsm,
        cons: RateFsm,
    ) -> Self {
        StreamCommand::Xfer {
            route: XferRoute { src, dst, hop: LaneHop::Right },
            outer,
            production: prod,
            prod_mode: ProdMode::KeepFirst,
            consumption: cons,
            rows: None,
        }
    }

    /// An XFER to the right-hand lane with destination row tracking.
    pub fn xfer_right_rows(
        src: OutPortId,
        dst: InPortId,
        outer: i64,
        prod: RateFsm,
        cons: RateFsm,
        rows: RateFsm,
    ) -> Self {
        StreamCommand::Xfer {
            route: XferRoute { src, dst, hop: LaneHop::Right },
            outer,
            production: prod,
            prod_mode: ProdMode::KeepFirst,
            consumption: cons,
            rows: Some(rows),
        }
    }

    /// A local XFER with destination row tracking (keep-first production).
    pub fn xfer_rows(
        src: OutPortId,
        dst: InPortId,
        outer: i64,
        prod: RateFsm,
        cons: RateFsm,
        rows: RateFsm,
    ) -> Self {
        StreamCommand::Xfer {
            route: XferRoute { src, dst, hop: LaneHop::Local },
            outer,
            production: prod,
            prod_mode: ProdMode::KeepFirst,
            consumption: cons,
            rows: Some(rows),
        }
    }

    /// The input port this command feeds, if any.
    pub fn dst_in_port(&self) -> Option<InPortId> {
        match self {
            StreamCommand::Load { dst, .. } | StreamCommand::Const { dst, .. } => Some(*dst),
            StreamCommand::Xfer { route, .. } => Some(route.dst),
            _ => None,
        }
    }

    /// The output port this command drains, if any.
    pub fn src_out_port(&self) -> Option<OutPortId> {
        match self {
            StreamCommand::Store { src, .. } => Some(*src),
            StreamCommand::Xfer { route, .. } => Some(route.src),
            _ => None,
        }
    }

    /// True for synchronization commands (barriers and waits).
    pub fn is_sync(&self) -> bool {
        matches!(self, StreamCommand::BarrierScratch | StreamCommand::Wait)
    }

    /// True if any pattern or rate in the command is inductive.
    pub fn is_inductive(&self) -> bool {
        match self {
            StreamCommand::Load { pattern, reuse, .. } => {
                pattern.is_inductive() || reuse.is_inductive()
            }
            StreamCommand::Store { pattern, discard, .. } => {
                pattern.is_inductive() || discard.is_inductive()
            }
            StreamCommand::Const { pattern, .. } => {
                pattern.n1.is_inductive()
                    || pattern.val2.map(|(_, n2)| n2.is_inductive()).unwrap_or(false)
            }
            StreamCommand::Xfer { production, consumption, .. } => {
                production.is_inductive() || consumption.is_inductive()
            }
            _ => false,
        }
    }

    /// Validates all patterns and rates embedded in the command.
    ///
    /// # Errors
    /// Propagates [`IsaError`] from pattern/rate validation.
    pub fn validate(&self) -> Result<(), IsaError> {
        match self {
            StreamCommand::Load { pattern, reuse, .. } => {
                pattern.validate()?;
                reuse.validate()
            }
            StreamCommand::Store { pattern, discard, .. } => {
                pattern.validate()?;
                discard.validate()
            }
            StreamCommand::Const { pattern, .. } => {
                pattern.n1.validate()?;
                if let Some((_, n2)) = pattern.val2 {
                    n2.validate()?;
                }
                Ok(())
            }
            StreamCommand::Xfer { production, consumption, outer, rows, .. } => {
                production.validate()?;
                consumption.validate()?;
                if let Some(r) = rows {
                    r.validate()?;
                }
                if *outer < 0 {
                    return Err(IsaError::NegativeLength { field: "len_j", value: *outer });
                }
                Ok(())
            }
            StreamCommand::SetAccumLen { len, .. } => len.validate(),
            StreamCommand::Configure { .. }
            | StreamCommand::BarrierScratch
            | StreamCommand::Wait => Ok(()),
        }
    }
}

/// A stream command plus lane selection: the unit the control core ships to
/// the lanes. One `VectorCommand` may command many lanes at once — this is
/// the *spatial* half of vector-stream control amortization.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct VectorCommand {
    /// The underlying stream command (as seen by lane 0 of the mask).
    pub cmd: StreamCommand,
    /// Which lanes receive the command.
    pub lanes: LaneMask,
    /// Per-lane pattern scaling.
    pub scale: LaneScale,
}

impl VectorCommand {
    /// A command for a single lane.
    pub fn on_lane(lane: LaneId, cmd: StreamCommand) -> Self {
        VectorCommand { cmd, lanes: LaneMask::single(lane), scale: LaneScale::BROADCAST }
    }

    /// A command broadcast identically to `lanes`.
    pub fn broadcast(lanes: LaneMask, cmd: StreamCommand) -> Self {
        VectorCommand { cmd, lanes, scale: LaneScale::BROADCAST }
    }

    /// A command for `lanes` with per-lane scaling.
    pub fn scaled(lanes: LaneMask, scale: LaneScale, cmd: StreamCommand) -> Self {
        VectorCommand { cmd, lanes, scale }
    }

    /// The command as specialized for a particular lane: the lane-scale
    /// deltas are folded into the memory pattern. Lane ids index the *mask
    /// position* (the k-th selected lane gets delta k), matching the paper's
    /// "multiple of the lane id" semantics with dense slices.
    pub fn specialize(&self, lane: LaneId) -> StreamCommand {
        let position = self.lanes.iter().position(|l| l == lane).unwrap_or(0) as u8;
        let pos = LaneId(position);
        let addr = self.scale.addr_delta(pos);
        let (di, dj) = self.scale.len_delta(pos);
        let mut cmd = self.cmd.clone();
        match &mut cmd {
            StreamCommand::Load { pattern, .. } | StreamCommand::Store { pattern, .. } => {
                *pattern = pattern.offset_by(addr).lengths_adjusted(di, dj);
            }
            _ => {}
        }
        cmd
    }

    /// Validates the command and its lane mask.
    ///
    /// # Errors
    /// Propagates [`IsaError`] from the command and mask.
    pub fn validate(&self) -> Result<(), IsaError> {
        self.lanes.validate()?;
        self.cmd.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_expansion_two_phase() {
        let p = ConstPattern::two_phase(7, RateFsm::inductive(2, -1), 9, RateFsm::ONCE, 3);
        // j=0: 7,7,9  j=1: 7,9  j=2: 7,9 (n1 clamped at 1)
        assert_eq!(p.expand(), [7, 7, 9, 7, 9, 7, 9]);
        assert_eq!(p.total_elems() as usize, p.expand().len());
    }

    #[test]
    fn const_repeat() {
        assert_eq!(ConstPattern::repeat(3, 4).expand(), [3, 3, 3, 3]);
    }

    #[test]
    fn command_ports() {
        let c = StreamCommand::xfer(OutPortId(6), InPortId(2), 4, RateFsm::ONCE, RateFsm::ONCE);
        assert_eq!(c.dst_in_port(), Some(InPortId(2)));
        assert_eq!(c.src_out_port(), Some(OutPortId(6)));
        assert!(!c.is_sync());
        assert!(StreamCommand::Wait.is_sync());
    }

    #[test]
    fn inductive_detection() {
        let pat = AffinePattern::two_d(0, 1, 8, 8, 8, -1);
        let c = StreamCommand::load(MemTarget::Private, pat, InPortId(0), RateFsm::ONCE);
        assert!(c.is_inductive());
        let flat = StreamCommand::load(
            MemTarget::Private,
            AffinePattern::linear(0, 8),
            InPortId(0),
            RateFsm::ONCE,
        );
        assert!(!flat.is_inductive());
    }

    #[test]
    fn specialization_shifts_addresses() {
        let cmd = StreamCommand::load(
            MemTarget::Shared,
            AffinePattern::linear(0, 16),
            InPortId(1),
            RateFsm::ONCE,
        );
        let v = VectorCommand::scaled(LaneMask::all(4), LaneScale::addr(16), cmd);
        match v.specialize(LaneId(2)) {
            StreamCommand::Load { pattern, .. } => assert_eq!(pattern.start, 32),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn specialization_uses_mask_position() {
        // lanes 2 and 5 selected: lane 5 is position 1.
        let cmd = StreamCommand::load(
            MemTarget::Shared,
            AffinePattern::linear(100, 8),
            InPortId(0),
            RateFsm::ONCE,
        );
        let v = VectorCommand::scaled(LaneMask::from_lanes([2, 5]), LaneScale::addr(8), cmd);
        match v.specialize(LaneId(5)) {
            StreamCommand::Load { pattern, .. } => assert_eq!(pattern.start, 108),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_negative_xfer() {
        let c = StreamCommand::xfer(OutPortId(0), InPortId(0), -1, RateFsm::ONCE, RateFsm::ONCE);
        assert!(c.validate().is_err());
    }
}
