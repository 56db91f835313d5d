use crate::overhead::add_fsm_overhead;
use revel_dfg::{Dfg, Region};
use revel_fabric::{LaneConfig, RevelConfig};
use revel_sim::SimOptions;

/// Cycles for one scalar floating-point operation on the control core
/// (issue + FP latency + load-use stalls on a single-issue in-order core).
pub const HOST_FP_OP_CYCLES: u64 = 20;

/// Loop/bookkeeping overhead per outer iteration executed on the control
/// core (branch, induction update, address computation).
pub const HOST_LOOP_CYCLES: u64 = 6;

/// Which spatial architecture a program is built for (§III-B / Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// The REVEL hybrid systolic-dataflow accelerator.
    Revel,
    /// The pure-systolic baseline (Softbrain-like): dedicated PEs only;
    /// outer-loop regions run on the control core.
    Systolic,
    /// The pure tagged-dataflow baseline (Triggered-Instructions-like):
    /// every region is temporal; dependence FSMs cost fabric instructions.
    Dataflow,
}

/// The mechanism ladder of Fig. 22, evaluated on all kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AblationStep {
    /// Plain systolic baseline.
    Systolic,
    /// + inductive memory and dependence streams.
    InductiveStreams,
    /// + hybrid systolic-dataflow execution (temporal outer regions).
    Hybrid,
    /// + stream predication (vectorized inductive inner loops) = REVEL.
    StreamPredication,
}

impl AblationStep {
    /// All steps in ladder order.
    pub const LADDER: [AblationStep; 4] = [
        AblationStep::Systolic,
        AblationStep::InductiveStreams,
        AblationStep::Hybrid,
        AblationStep::StreamPredication,
    ];

    /// Display label (Fig. 22 legend).
    pub fn label(&self) -> &'static str {
        match self {
            AblationStep::Systolic => "systolic",
            AblationStep::InductiveStreams => "+inductive-streams",
            AblationStep::Hybrid => "+hybrid",
            AblationStep::StreamPredication => "+stream-pred (REVEL)",
        }
    }
}

/// Build configuration: target architecture plus the mechanism knobs.
///
/// Kernel builds and the [`crate::LoopNest`] lowerings consult this for
/// vectorization, region placement and command form;
/// [`BuildCfg::machine_config`] derives the matching hardware model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BuildCfg {
    /// Target architecture.
    pub arch: Arch,
    /// First-class inductive streams in the ISA.
    pub inductive_streams: bool,
    /// Temporal fabric available for outer-loop regions.
    pub hybrid: bool,
    /// Hardware stream predication (vector masking of inductive streams).
    pub predication: bool,
    /// Number of lanes to build for.
    pub num_lanes: usize,
    /// Dataflow PEs per lane (Fig. 24 sensitivity; 1 is the paper default).
    pub dpes_per_lane: usize,
}

impl BuildCfg {
    /// Full REVEL.
    pub fn revel(num_lanes: usize) -> Self {
        BuildCfg {
            arch: Arch::Revel,
            inductive_streams: true,
            hybrid: true,
            predication: true,
            num_lanes,
            dpes_per_lane: 1,
        }
    }

    /// The pure-systolic baseline.
    pub fn systolic_baseline(num_lanes: usize) -> Self {
        BuildCfg {
            arch: Arch::Systolic,
            inductive_streams: false,
            hybrid: false,
            predication: false,
            num_lanes,
            dpes_per_lane: 0,
        }
    }

    /// The pure tagged-dataflow baseline. Inductive patterns are expressed
    /// as in-fabric FSMs; their cost is the extra instructions injected by
    /// [`BuildCfg::inner_region`] / [`BuildCfg::outer_region`] into every
    /// region (Fig. 9). `inductive_streams` stays true but is never read on
    /// this build: only the host-outer lowering's row split reads it.
    pub fn dataflow_baseline(num_lanes: usize) -> Self {
        BuildCfg {
            arch: Arch::Dataflow,
            inductive_streams: true,
            hybrid: true,
            predication: false,
            num_lanes,
            dpes_per_lane: 25,
        }
    }

    /// One step of the Fig. 22 mechanism ladder.
    pub fn ablation(step: AblationStep, num_lanes: usize) -> Self {
        match step {
            AblationStep::Systolic => Self::systolic_baseline(num_lanes),
            AblationStep::InductiveStreams => {
                BuildCfg { inductive_streams: true, ..Self::systolic_baseline(num_lanes) }
            }
            AblationStep::Hybrid => BuildCfg { predication: false, ..Self::revel(num_lanes) },
            AblationStep::StreamPredication => Self::revel(num_lanes),
        }
    }

    /// REVEL with a non-default number of dataflow PEs (Fig. 24).
    pub fn revel_with_dpes(num_lanes: usize, dpes: usize) -> Self {
        BuildCfg { dpes_per_lane: dpes, ..Self::revel(num_lanes) }
    }

    /// The hardware model matching this build.
    pub fn machine_config(&self) -> RevelConfig {
        let lane = match self.arch {
            Arch::Revel => {
                if self.dpes_per_lane <= 1 {
                    LaneConfig::paper_default()
                } else {
                    LaneConfig::with_dataflow_pes(self.dpes_per_lane)
                }
            }
            Arch::Systolic => LaneConfig::pure_systolic(),
            Arch::Dataflow => LaneConfig::pure_dataflow(),
        };
        RevelConfig { num_lanes: self.num_lanes, lane, ..RevelConfig::paper_default() }
    }

    /// Simulator options matching this build.
    pub fn sim_options(&self) -> SimOptions {
        SimOptions { predication: self.predication, ..SimOptions::default() }
    }

    /// The vector width an inner-loop region should be built at.
    ///
    /// Without stream predication, an inner loop whose trip count is
    /// inductive cannot be tiled into full vectors (§II-B: "an inductive
    /// iteration space cannot be tiled perfectly"), so it degrades to a
    /// scalar datapath. Regular (non-inductive) loops vectorize everywhere.
    pub fn inner_unroll(&self, desired: usize, inductive_loop: bool) -> usize {
        if inductive_loop && !self.predication {
            1
        } else {
            desired
        }
    }

    /// True if outer-loop regions may be placed on the temporal fabric.
    pub fn outer_on_fabric(&self) -> bool {
        self.hybrid && self.arch != Arch::Systolic
    }

    /// Lowers an inner-loop datapath to a region: a systolic region at
    /// `unroll`, except on the tagged-dataflow baseline, where every region
    /// is temporal and each of the `deps` inductive dependences the region
    /// tracks costs real in-fabric FSM instructions (Fig. 9).
    pub fn inner_region(&self, name: &str, dfg: Dfg, deps: usize, unroll: usize) -> Region {
        match self.arch {
            Arch::Dataflow => Region::temporal_unrolled(name, add_fsm_overhead(dfg, deps), unroll),
            _ => Region::systolic(name, dfg, unroll),
        }
    }

    /// Lowers an outer-loop datapath to a scalar temporal region, with the
    /// dataflow baseline's FSM instructions for its `deps` dependences.
    pub fn outer_region(&self, name: &str, dfg: Dfg, deps: usize) -> Region {
        match self.arch {
            Arch::Dataflow => Region::temporal(name, add_fsm_overhead(dfg, deps)),
            _ => Region::temporal(name, dfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_monotone_in_features() {
        let steps: Vec<BuildCfg> =
            AblationStep::LADDER.iter().map(|s| BuildCfg::ablation(*s, 8)).collect();
        assert!(!steps[0].inductive_streams && !steps[0].hybrid && !steps[0].predication);
        assert!(steps[1].inductive_streams && !steps[1].hybrid);
        assert!(steps[2].inductive_streams && steps[2].hybrid && !steps[2].predication);
        assert!(steps[3].predication);
    }

    #[test]
    fn machine_configs_match_arch() {
        assert_eq!(BuildCfg::revel(8).machine_config().lane.num_dataflow_pes, 1);
        assert_eq!(BuildCfg::systolic_baseline(8).machine_config().lane.num_dataflow_pes, 0);
        assert_eq!(BuildCfg::dataflow_baseline(8).machine_config().lane.num_dataflow_pes, 25);
        assert_eq!(BuildCfg::revel_with_dpes(8, 4).machine_config().lane.num_dataflow_pes, 4);
    }

    #[test]
    fn unroll_policy() {
        let revel = BuildCfg::revel(1);
        let hybrid_only = BuildCfg::ablation(AblationStep::Hybrid, 1);
        assert_eq!(revel.inner_unroll(4, true), 4);
        assert_eq!(hybrid_only.inner_unroll(4, true), 1);
        assert_eq!(hybrid_only.inner_unroll(4, false), 4);
    }

    #[test]
    fn outer_placement_policy() {
        assert!(BuildCfg::revel(1).outer_on_fabric());
        assert!(!BuildCfg::systolic_baseline(1).outer_on_fabric());
        assert!(BuildCfg::dataflow_baseline(1).outer_on_fabric());
    }

    #[test]
    fn ablation_labels_unique() {
        let labels: std::collections::HashSet<_> =
            AblationStep::LADDER.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
