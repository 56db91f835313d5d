use crate::Dfg;
use revel_isa::{InPortId, OutPortId};

/// Identifier of a program region within a lane configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u32);

/// How a region executes on the hybrid fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Dedicated-PE, statically-timed execution: one instruction per PE,
    /// fires when *all* input ports have a (possibly predicated) full
    /// vector; perfectly pipelined at II=1. Used for high-rate inner loops.
    Systolic,
    /// Temporally-shared, tagged-dataflow execution on the dataflow PE(s):
    /// instructions fire when their operands arrive, one instruction per
    /// dPE per cycle. Used for low-rate outer-loop regions.
    Temporal,
}

impl core::fmt::Display for RegionKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RegionKind::Systolic => f.write_str("systolic"),
            RegionKind::Temporal => f.write_str("temporal"),
        }
    }
}

/// A program region: a [`Dfg`] plus its execution style and vector width.
///
/// A lane configuration holds several concurrent regions (e.g. Cholesky's
/// point, vector, and matrix regions) which fire independently, providing
/// the paper's *inductive parallelism across regions*.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Region {
    /// Diagnostic name (e.g. `"matrix"`).
    pub name: String,
    /// Execution style.
    pub kind: RegionKind,
    /// The computation graph.
    pub dfg: Dfg,
    /// Vector width: how many logical inner-loop iterations one firing
    /// covers (realized by unrolling the datapath / widening the ports).
    pub unroll: usize,
}

impl Region {
    /// Creates a region.
    ///
    /// # Panics
    /// Panics if `unroll` is 0 or exceeds [`crate::MAX_VEC_WIDTH`].
    pub fn new(name: impl Into<String>, kind: RegionKind, dfg: Dfg, unroll: usize) -> Self {
        assert!(
            (1..=crate::MAX_VEC_WIDTH).contains(&unroll),
            "unroll must be 1..={}, got {unroll}",
            crate::MAX_VEC_WIDTH
        );
        Region { name: name.into(), kind, dfg, unroll }
    }

    /// A systolic region (inner loop).
    pub fn systolic(name: impl Into<String>, dfg: Dfg, unroll: usize) -> Self {
        Self::new(name, RegionKind::Systolic, dfg, unroll)
    }

    /// A scalar temporal/dataflow region (typical for outer loops).
    pub fn temporal(name: impl Into<String>, dfg: Dfg) -> Self {
        Self::new(name, RegionKind::Temporal, dfg, 1)
    }

    /// A vectorized temporal region: tagged-dataflow fabrics replicate the
    /// datapath across instruction slots (used by the pure-dataflow
    /// baseline to express inner-loop parallelism).
    pub fn temporal_unrolled(name: impl Into<String>, dfg: Dfg, unroll: usize) -> Self {
        Self::new(name, RegionKind::Temporal, dfg, unroll)
    }

    /// Input ports read by the region.
    pub fn input_ports(&self) -> Vec<InPortId> {
        self.dfg.input_ports()
    }

    /// Input ports with scalar/vector binding.
    pub fn input_bindings(&self) -> Vec<(InPortId, bool)> {
        self.dfg.input_bindings()
    }

    /// The logical width an input port runs at for this region.
    pub fn port_logical_width(&self, scalar: bool) -> usize {
        if scalar {
            1
        } else {
            self.unroll
        }
    }

    /// Output ports written by the region.
    pub fn output_ports(&self) -> Vec<OutPortId> {
        self.dfg.output_ports()
    }

    /// Compute instructions after unrolling: what the fabric must provision
    /// (systolic PEs or dataflow instruction slots).
    pub fn mapped_instructions(&self) -> usize {
        self.dfg.num_instructions() * self.unroll
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpCode;

    fn small_dfg() -> Dfg {
        let mut g = Dfg::new("g");
        let a = g.input(InPortId(0));
        let n = g.op(OpCode::Neg, &[a]);
        g.output(n, OutPortId(0));
        g
    }

    #[test]
    fn systolic_region_unrolls() {
        let r = Region::systolic("inner", small_dfg(), 4);
        assert_eq!(r.kind, RegionKind::Systolic);
        assert_eq!(r.mapped_instructions(), 4);
    }

    #[test]
    fn temporal_region_is_scalar() {
        let r = Region::temporal("outer", small_dfg());
        assert_eq!(r.unroll, 1);
        assert_eq!(r.mapped_instructions(), 1);
    }

    #[test]
    fn temporal_unrolled_region() {
        let r = Region::temporal_unrolled("inner", small_dfg(), 4);
        assert_eq!(r.mapped_instructions(), 4);
    }

    #[test]
    #[should_panic(expected = "unroll must be")]
    fn zero_unroll_panics() {
        let _ = Region::new("bad", RegionKind::Systolic, small_dfg(), 0);
    }

    #[test]
    fn kind_display() {
        assert_eq!(RegionKind::Systolic.to_string(), "systolic");
        assert_eq!(RegionKind::Temporal.to_string(), "temporal");
    }
}
