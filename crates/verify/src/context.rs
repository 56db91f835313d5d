//! Shared program analysis: the per-lane, per-configuration command walk
//! every lint consumes.
//!
//! A [`Context`] specializes each vector command onto every lane it
//! targets and slices the resulting per-lane command streams into
//! *segments* (one per `Configure`). The scratchpad hazard lint further
//! tags each access with its *epoch* (the count of `Wait`/`BarrierScratch`
//! synchronization points before it in its segment).

use revel_fabric::RevelConfig;
use revel_isa::{LaneHop, LaneId, StreamCommand};
use revel_prog::{ControlStep, RevelProgram};
use std::collections::BTreeMap;

/// One specialized command: the control-step index it came from plus the
/// lane-specialized form (lane address scaling applied).
#[derive(Debug, Clone)]
pub struct Cmd {
    /// Index into `RevelProgram::control`.
    pub index: usize,
    /// The command as this lane executes it.
    pub cmd: StreamCommand,
}

/// The commands one lane executes while one configuration is active.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Configuration index. Always a valid index into
    /// `RevelProgram::configs` (`Configure` with a bad id is rejected by
    /// `RevelProgram::validate` before lints run).
    pub config: usize,
    /// Control-step index of the `Configure` that opened the segment.
    pub configure_index: usize,
    /// Data/sync commands of the segment (the `Configure` itself excluded).
    pub cmds: Vec<Cmd>,
}

/// One lane's view of the control program.
#[derive(Debug, Clone)]
pub struct LaneView {
    /// Lane id.
    pub lane: u8,
    /// Data commands issued before the first `Configure` on this lane.
    pub pre_config: Vec<Cmd>,
    /// Per-configuration command slices, in activation order.
    pub segments: Vec<Segment>,
}

/// Which commands feed/drain each port during one segment.
#[derive(Debug, Clone, Default)]
pub struct PortTraffic {
    /// In-port id -> control-step indexes of commands delivering to it
    /// (Load/Const destinations and XFER deliveries, ring hops resolved).
    pub feeds: BTreeMap<u8, Vec<usize>>,
    /// Out-port id -> control-step indexes of commands draining it
    /// (Store sources and XFER sources).
    pub drains: BTreeMap<u8, Vec<usize>>,
}

/// The analysis context handed to every lint.
pub struct Context<'a> {
    /// The program under verification.
    pub program: &'a RevelProgram,
    /// The hardware configuration it targets.
    pub cfg: &'a RevelConfig,
    /// One view per lane.
    pub lanes: Vec<LaneView>,
    /// Port traffic per lane per segment (`traffic[lane][segment]`),
    /// aligned with `lanes[lane].segments`.
    pub traffic: Vec<Vec<PortTraffic>>,
}

impl<'a> Context<'a> {
    /// Builds the analysis for a program on a hardware configuration.
    pub fn new(program: &'a RevelProgram, cfg: &'a RevelConfig) -> Self {
        let num_lanes = cfg.num_lanes;
        let mut lanes: Vec<LaneView> = (0..num_lanes)
            .map(|l| LaneView { lane: l as u8, pre_config: Vec::new(), segments: Vec::new() })
            .collect();

        for (index, step) in program.control.iter().enumerate() {
            let ControlStep::Command(vc) = step else { continue };
            for view in lanes.iter_mut() {
                if !vc.lanes.contains(LaneId(view.lane)) {
                    continue;
                }
                let cmd = vc.specialize(LaneId(view.lane));
                if let StreamCommand::Configure { config } = cmd {
                    let c = config.0 as usize;
                    if c < program.configs.len() {
                        view.segments.push(Segment {
                            config: c,
                            configure_index: index,
                            cmds: Vec::new(),
                        });
                    }
                    continue;
                }
                match view.segments.last_mut() {
                    Some(seg) => seg.cmds.push(Cmd { index, cmd }),
                    None => view.pre_config.push(Cmd { index, cmd }),
                }
            }
        }

        let traffic = compute_traffic(&lanes, num_lanes);
        Context { program, cfg, lanes, traffic }
    }

    /// The regions of segment `seg` on lane `lane`.
    pub fn segment_regions(&self, lane: usize, seg: usize) -> &[revel_dfg::Region] {
        &self.program.configs[self.lanes[lane].segments[seg].config]
    }
}

/// Resolves every feed/drain, crediting `Right`-hop XFER deliveries to the
/// *neighbor* lane's like-numbered segment (configurations are activated by
/// broadcast in practice, so segment indexes align across lanes; a Right
/// hop on a single-lane machine degrades to Local, matching the simulator).
fn compute_traffic(lanes: &[LaneView], num_lanes: usize) -> Vec<Vec<PortTraffic>> {
    let mut traffic: Vec<Vec<PortTraffic>> =
        lanes.iter().map(|v| vec![PortTraffic::default(); v.segments.len()]).collect();
    for (l, view) in lanes.iter().enumerate() {
        for (s, seg) in view.segments.iter().enumerate() {
            for c in &seg.cmds {
                match &c.cmd {
                    StreamCommand::Load { dst, .. } | StreamCommand::Const { dst, .. } => {
                        traffic[l][s].feeds.entry(dst.0).or_default().push(c.index);
                    }
                    StreamCommand::Store { src, .. } => {
                        traffic[l][s].drains.entry(src.0).or_default().push(c.index);
                    }
                    StreamCommand::Xfer { route, .. } => {
                        traffic[l][s].drains.entry(route.src.0).or_default().push(c.index);
                        let dst_lane = match route.hop {
                            LaneHop::Right if num_lanes > 1 => (l + 1) % num_lanes,
                            _ => l,
                        };
                        if s < traffic[dst_lane].len() {
                            traffic[dst_lane][s]
                                .feeds
                                .entry(route.dst.0)
                                .or_default()
                                .push(c.index);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    traffic
}

/// The word addresses a lane-specialized load/store touches, as an exact
/// set when the pattern is small and as a dense range otherwise. Used by
/// the scratchpad hazard lints for overlap tests. Equal sets compare and
/// hash equal, so the lint can intern them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AddrSet {
    /// Every distinct address (patterns up to `EXACT_ADDR_LIMIT` elems),
    /// strictly ascending: [`AddrSet::overlaps`] merges and bisects it.
    Exact(Vec<i64>),
    /// Conservative `[lo, hi]` bounding range.
    Range(i64, i64),
}

/// Patterns with at most this many elements get exact address sets.
pub const EXACT_ADDR_LIMIT: i64 = 1 << 14;

#[cfg(test)]
thread_local! {
    /// Exact (past the bounding-range rejection) set-vs-set comparisons
    /// this thread has made; the complexity guard in `scratch` reads it.
    pub(crate) static EXACT_OVERLAP_TESTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl AddrSet {
    /// Builds the address set of an affine pattern.
    pub fn of(pattern: &revel_isa::AffinePattern) -> Option<AddrSet> {
        let (lo, hi) = pattern.addr_range()?;
        if pattern.total_elems() <= EXACT_ADDR_LIMIT {
            // Stream order is not address order (negative strides, rows
            // that interleave or revisit), so sort and drop repeats.
            let mut addrs: Vec<i64> = pattern.iter().map(|e| e.offset).collect();
            addrs.sort_unstable();
            addrs.dedup();
            Some(AddrSet::Exact(addrs))
        } else {
            Some(AddrSet::Range(lo, hi))
        }
    }

    /// The `[lo, hi]` bounding range (empty sets yield an empty range).
    pub(crate) fn bounds(&self) -> (i64, i64) {
        match self {
            AddrSet::Exact(s) => (s.first().copied().unwrap_or(0), s.last().copied().unwrap_or(-1)),
            AddrSet::Range(lo, hi) => (*lo, *hi),
        }
    }

    /// True if the two sets share at least one address.
    pub fn overlaps(&self, other: &AddrSet) -> bool {
        // Cheap bounding-range rejection first: most distinct sets
        // (different columns, different buffers) have disjoint ranges.
        let (a0, a1) = self.bounds();
        let (b0, b1) = other.bounds();
        if a0 > b1 || b0 > a1 {
            return false;
        }
        #[cfg(test)]
        EXACT_OVERLAP_TESTS.with(|n| n.set(n.get() + 1));
        match (self, other) {
            (AddrSet::Exact(a), AddrSet::Exact(b)) => {
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => return true,
                    }
                }
                false
            }
            (AddrSet::Exact(a), AddrSet::Range(lo, hi))
            | (AddrSet::Range(lo, hi), AddrSet::Exact(a)) => {
                a.get(a.partition_point(|x| x < lo)).is_some_and(|x| x <= hi)
            }
            (AddrSet::Range(..), AddrSet::Range(..)) => true, // the bounds are the sets
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revel_isa::{
        AffinePattern, ConfigId, InPortId, LaneMask, MemTarget, OutPortId, RateFsm, VectorCommand,
    };

    fn two_region_program() -> RevelProgram {
        use revel_dfg::{Dfg, OpCode, Region};
        let mut g = Dfg::new("g");
        let a = g.input(InPortId(0));
        let n = g.op(OpCode::Neg, &[a]);
        g.output(n, OutPortId(6));
        let mut p = RevelProgram::new("ctx-test");
        p.add_config(vec![Region::systolic("r", g, 1)]);
        p
    }

    fn push(p: &mut RevelProgram, lanes: u8, cmd: StreamCommand) {
        p.push(VectorCommand::broadcast(LaneMask::all(lanes), cmd));
    }

    #[test]
    fn segments_split_at_configure() {
        let mut p = two_region_program();
        push(&mut p, 1, StreamCommand::Configure { config: ConfigId(0) });
        push(
            &mut p,
            1,
            StreamCommand::load(
                MemTarget::Private,
                AffinePattern::linear(0, 4),
                InPortId(0),
                RateFsm::ONCE,
            ),
        );
        push(&mut p, 1, StreamCommand::Wait);
        push(&mut p, 1, StreamCommand::Configure { config: ConfigId(0) });
        let cfg = RevelConfig::single_lane();
        let ctx = Context::new(&p, &cfg);
        assert_eq!(ctx.lanes.len(), 1);
        assert_eq!(ctx.lanes[0].segments.len(), 2);
        assert_eq!(ctx.lanes[0].segments[0].cmds.len(), 2);
        assert!(ctx.lanes[0].segments[1].cmds.is_empty());
        assert!(ctx.lanes[0].pre_config.is_empty());
        assert_eq!(ctx.traffic[0][0].feeds.get(&0).map(Vec::len), Some(1));
    }

    #[test]
    fn right_xfer_credits_neighbor_lane() {
        let mut p = two_region_program();
        push(&mut p, 2, StreamCommand::Configure { config: ConfigId(0) });
        push(
            &mut p,
            2,
            StreamCommand::xfer_right(OutPortId(6), InPortId(0), 4, RateFsm::ONCE, RateFsm::ONCE),
        );
        let cfg = RevelConfig { num_lanes: 2, ..RevelConfig::paper_default() };
        let ctx = Context::new(&p, &cfg);
        // Lane 0's xfer feeds lane 1; lane 1's wraps to lane 0.
        assert!(ctx.traffic[1][0].feeds.contains_key(&0));
        assert!(ctx.traffic[0][0].feeds.contains_key(&0));
        assert!(ctx.traffic[0][0].drains.contains_key(&6));
    }

    #[test]
    fn addr_sets_overlap_exactly() {
        // Interleaved strides: ranges overlap, elements do not.
        let even = AddrSet::of(&AffinePattern::strided(0, 2, 8)).unwrap();
        let odd = AddrSet::of(&AffinePattern::strided(1, 2, 8)).unwrap();
        assert!(!even.overlaps(&odd));
        let dense = AddrSet::of(&AffinePattern::linear(3, 4)).unwrap();
        assert!(even.overlaps(&dense));
        let big = AddrSet::Range(0, 100);
        assert!(big.overlaps(&odd));
        // A range bisects an exact set: between two elements is a miss.
        assert!(!AddrSet::Range(5, 5).overlaps(&even));
        assert!(AddrSet::Range(5, 6).overlaps(&even));
        assert!(!AddrSet::Range(15, 40).overlaps(&even));
        assert!(!AddrSet::Exact(Vec::new()).overlaps(&AddrSet::Range(-5, 5)));
    }

    fn exact(p: &AffinePattern) -> Vec<i64> {
        match AddrSet::of(p).unwrap() {
            AddrSet::Exact(v) => v,
            AddrSet::Range(..) => panic!("{p:?} is small enough to be exact"),
        }
    }

    #[test]
    fn exact_sets_are_sorted_and_deduplicated() {
        // Descending stride: stream order is the reverse of address order.
        assert_eq!(exact(&AffinePattern::strided(10, -2, 4)), [4, 6, 8, 10]);
        // Rows that step backwards and overlap each other.
        assert_eq!(exact(&AffinePattern::two_d(8, 1, -2, 4, 3, 0)), [4, 5, 6, 7, 8, 9, 10, 11]);
        // A zero outer stride revisits the same row; a zero inner stride
        // revisits one word.
        assert_eq!(exact(&AffinePattern::two_d(3, 1, 0, 2, 5, 0)), [3, 4]);
        assert_eq!(exact(&AffinePattern::strided(7, 0, 9)), [7]);
        // Triangular rows interleaved by a stride shorter than the row.
        let tri = exact(&AffinePattern::two_d(0, 3, 1, 4, 4, -1));
        assert!(tri.windows(2).all(|w| w[0] < w[1]), "{tri:?}");
        let mut want: Vec<i64> =
            AffinePattern::two_d(0, 3, 1, 4, 4, -1).iter().map(|e| e.offset).collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(tri, want);
        // Equal contents from different patterns are equal sets.
        assert_eq!(
            AddrSet::of(&AffinePattern::strided(10, -2, 4)),
            AddrSet::of(&AffinePattern::strided(4, 2, 4))
        );
    }

    #[test]
    fn patterns_above_the_limit_become_ranges() {
        let at = AffinePattern::linear(0, EXACT_ADDR_LIMIT);
        let above = AffinePattern::strided(0, 2, EXACT_ADDR_LIMIT + 1);
        assert!(matches!(AddrSet::of(&at), Some(AddrSet::Exact(_))));
        assert_eq!(AddrSet::of(&above), Some(AddrSet::Range(0, 2 * EXACT_ADDR_LIMIT)));
        assert_eq!(AddrSet::of(&AffinePattern::linear(0, 0)), None);
        // The range is conservative: it covers the odd words the stride skips.
        let odd = AddrSet::of(&AffinePattern::strided(1, 2, 8)).unwrap();
        assert!(AddrSet::of(&above).unwrap().overlaps(&odd));
    }
}
