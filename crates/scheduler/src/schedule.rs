use crate::instr::{expand, Endpoint, Expansion, InstrKey};
use crate::place::{place, repair_placement};
use crate::route::{region_hops, route_degraded, RouteStats, Routing};
use revel_dfg::{FuClass, Region, RegionKind};
use revel_fabric::{FabricMask, LaneConfig, Mesh, MeshCoord, MeshLink};
use std::collections::HashMap;
use std::fmt;

/// Failure to map a configuration onto the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// More dedicated instructions of a class than systolic PEs provide.
    NotEnoughPes {
        /// FU class in shortage.
        class: FuClass,
        /// Instructions needing this class.
        needed: usize,
        /// PEs available.
        available: usize,
    },
    /// Temporal instructions exceed total dataflow-PE instruction slots.
    TemporalOverflow {
        /// Instructions to map.
        needed: usize,
        /// Total slots.
        capacity: usize,
    },
    /// Temporal instructions exist but the fabric has no dataflow PEs
    /// (e.g. the pure-systolic baseline).
    NoDataflowPes {
        /// Instructions that had nowhere to go.
        needed: usize,
    },
    /// A fabric mask's dead links disconnected two tiles an edge must
    /// connect: the degraded fabric cannot route this program.
    Unroutable {
        /// Producer tile.
        from: MeshCoord,
        /// Consumer tile.
        to: MeshCoord,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NotEnoughPes { class, needed, available } => {
                write!(f, "not enough {class} PEs: need {needed}, have {available}")
            }
            ScheduleError::TemporalOverflow { needed, capacity } => {
                write!(f, "temporal instructions ({needed}) exceed dataflow slots ({capacity})")
            }
            ScheduleError::NoDataflowPes { needed } => {
                write!(f, "{needed} temporal instructions but fabric has no dataflow PEs")
            }
            ScheduleError::Unroutable { from, to } => {
                write!(f, "dead links disconnect {from} from {to}: degraded fabric unroutable")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Timing of one scheduled region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionSchedule {
    /// Pipeline latency from input ports to output ports (FU latencies plus
    /// routed hops along the critical path).
    pub latency: u32,
    /// Initiation interval: cycles between successive firings. 1 for a
    /// perfectly pipelined systolic region; >1 when a div/sqrt unit or a
    /// shared mesh link serializes firings.
    pub ii: u32,
    /// Deepest delay-FIFO the compiler must insert to equalize operand
    /// arrival at any PE of this region (systolic timing equalization).
    pub max_delay_fifo: u32,
    /// Mesh hops traversed per firing (for the energy model).
    pub hops_per_fire: u32,
}

/// The result of spatially compiling a configuration.
#[derive(Debug, Clone)]
pub struct FabricSchedule {
    /// Per-region timing, parallel to the scheduled region slice.
    pub regions: Vec<RegionSchedule>,
    /// Instruction placements (systolic exclusive, temporal shared).
    pub placement: HashMap<InstrKey, MeshCoord>,
    /// Temporal instructions resident per dataflow tile.
    pub dpe_load: HashMap<MeshCoord, usize>,
    /// Routing statistics.
    pub route_stats: RouteStats,
}

/// The spatial compiler: places and routes all concurrent regions of a
/// configuration onto one lane's mesh and extracts timing.
#[derive(Debug, Clone)]
pub struct SpatialScheduler {
    mesh: Mesh,
    seed: u64,
    sa_iterations: usize,
    route_iterations: u32,
    dpe_slots: usize,
}

impl SpatialScheduler {
    /// Creates a scheduler for a mesh with default effort (deterministic).
    pub fn new(mesh: Mesh) -> Self {
        SpatialScheduler {
            mesh,
            seed: 0xC0FFEE,
            sa_iterations: 4000,
            route_iterations: 8,
            dpe_slots: 32,
        }
    }

    /// The simulator's spatial compile for one lane: the lane's mesh, its
    /// dataflow-PE instruction slots, and 2000 annealing iterations.
    /// `Machine::run`, the schedule-legality lint and the degradation
    /// sweep's probe all build their scheduler here, so a lint verdict or a
    /// probe result is a statement about the schedule the simulator runs.
    pub fn for_lane(lane: &LaneConfig) -> Self {
        SpatialScheduler::new(Mesh::for_lane(lane))
            .with_dpe_slots(lane.dpe_instr_slots)
            .with_sa_iterations(2000)
    }

    /// Sets the annealing seed (placement is deterministic per seed).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the annealing effort.
    #[must_use]
    pub fn with_sa_iterations(mut self, iters: usize) -> Self {
        self.sa_iterations = iters;
        self
    }

    /// Sets instruction slots per dataflow PE (Table III: 32).
    #[must_use]
    pub fn with_dpe_slots(mut self, slots: usize) -> Self {
        self.dpe_slots = slots;
        self
    }

    /// The mesh being scheduled onto.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Maps all regions simultaneously onto the fabric.
    ///
    /// # Errors
    /// Returns [`ScheduleError`] if the configuration does not fit.
    pub fn schedule(&self, regions: &[Region]) -> Result<FabricSchedule, ScheduleError> {
        self.reschedule_degraded(regions, FabricMask::HEALTHY)
    }

    /// Maps all regions onto the fabric with some PEs/links masked out
    /// (permanent faults): the healthy placement is computed first (same
    /// seed and annealing effort as [`SpatialScheduler::schedule`], so an
    /// empty mask is byte-identical to the healthy schedule), then a
    /// deterministic greedy repair walks dead tiles in ascending row-major
    /// order — each displaced systolic instruction moves to the nearest
    /// free live tile of its FU class, displaced temporal instructions
    /// redistribute to the least-loaded live dataflow PEs — and routing
    /// re-runs with dead links excluded. Degradation is therefore graceful:
    /// throughput decays with lost tiles instead of the run wedging.
    ///
    /// # Errors
    /// [`ScheduleError::NotEnoughPes`] / [`ScheduleError::TemporalOverflow`]
    /// / [`ScheduleError::NoDataflowPes`] when the surviving fabric is too
    /// small, [`ScheduleError::Unroutable`] when dead links disconnect it.
    pub fn reschedule_degraded(
        &self,
        regions: &[Region],
        mask: FabricMask,
    ) -> Result<FabricSchedule, ScheduleError> {
        let exp = expand(regions);
        let healthy = place(&self.mesh, &exp, self.dpe_slots, self.seed, self.sa_iterations)?;
        let placement = repair_placement(&self.mesh, &exp, healthy, self.dpe_slots, mask)?;
        let routing = route_degraded(&self.mesh, &exp, &placement, self.route_iterations, mask)?;
        let link_sharing = dedicated_link_usage(&exp, &routing);

        let mut region_schedules = Vec::with_capacity(regions.len());
        for (r, region) in regions.iter().enumerate() {
            region_schedules.push(self.time_region(r, region, &exp, &routing, &link_sharing));
        }
        Ok(FabricSchedule {
            regions: region_schedules,
            placement: placement.instr_pos,
            dpe_load: placement.dpe_load,
            route_stats: routing.stats,
        })
    }

    /// Computes latency / II / delay-FIFO for one region.
    fn time_region(
        &self,
        r: usize,
        region: &Region,
        exp: &Expansion,
        routing: &Routing,
        link_sharing: &HashMap<MeshLink, u32>,
    ) -> RegionSchedule {
        // Arrival-time propagation per instruction (keys are topologically
        // ordered because DFG nodes are append-only).
        let mut arrival: HashMap<InstrKey, u32> = HashMap::new();
        let mut latency = 0u32;
        let mut max_delay_fifo = 0u32;
        // Group incoming edges by destination instruction.
        let mut incoming: HashMap<InstrKey, Vec<(Endpoint, u32)>> = HashMap::new();
        let mut output_edges: Vec<(Endpoint, u32)> = Vec::new();
        for (edge, path) in exp.edges.iter().zip(&routing.edge_paths) {
            if edge.region != r {
                continue;
            }
            let hops = path.len() as u32;
            match edge.to {
                Endpoint::Instr(k) => incoming.entry(k).or_default().push((edge.from, hops)),
                Endpoint::OutPort(_) => output_edges.push((edge.from, hops)),
                Endpoint::InPort(_) => {}
            }
        }
        let instr_latency: HashMap<InstrKey, u32> =
            exp.instrs.iter().filter(|i| i.key.region == r).map(|i| (i.key, i.latency)).collect();
        let mut instr_keys: Vec<InstrKey> =
            exp.instrs.iter().filter(|i| i.key.region == r).map(|i| i.key).collect();
        instr_keys.sort();
        for key in instr_keys {
            let ins = incoming.get(&key).cloned().unwrap_or_default();
            let times: Vec<u32> =
                ins.iter().map(|(from, hops)| endpoint_arrival(&arrival, *from) + hops).collect();
            let ready = times.iter().copied().max().unwrap_or(0);
            if let (Some(max), Some(min)) =
                (times.iter().copied().max(), times.iter().copied().min())
            {
                max_delay_fifo = max_delay_fifo.max(max - min);
            }
            // `instr_keys` and `instr_latency` are built from the same
            // filter over `exp.instrs`, so the lookup cannot miss.
            arrival.insert(key, ready + instr_latency[&key]);
        }
        for (from, hops) in &output_edges {
            latency = latency.max(endpoint_arrival(&arrival, *from) + hops);
        }

        // Initiation interval.
        let mut ii = exp
            .instrs
            .iter()
            .filter(|i| i.key.region == r && !i.temporal)
            .map(|i| i.ii)
            .max()
            .unwrap_or(1);
        // Dedicated links shared with anything serialize firings.
        for (edge, path) in exp.edges.iter().zip(&routing.edge_paths) {
            if edge.region != r || !edge.needs_dedicated_links() {
                continue;
            }
            for l in path {
                ii = ii.max(link_sharing.get(l).copied().unwrap_or(1));
            }
        }
        // Temporal regions: the sim models dPE contention cycle-by-cycle;
        // the schedule reports the FU floor only.
        if region.kind == RegionKind::Temporal {
            ii = ii.max(1);
        }

        RegionSchedule {
            latency: latency.max(1),
            ii,
            max_delay_fifo,
            hops_per_fire: region_hops(exp, routing, r),
        }
    }
}

fn endpoint_arrival(arrival: &HashMap<InstrKey, u32>, ep: Endpoint) -> u32 {
    match ep {
        Endpoint::Instr(k) => arrival.get(&k).copied().unwrap_or(0),
        Endpoint::InPort(_) | Endpoint::OutPort(_) => 0,
    }
}

fn dedicated_link_usage(exp: &Expansion, routing: &Routing) -> HashMap<MeshLink, u32> {
    let mut usage: HashMap<MeshLink, u32> = HashMap::new();
    for (edge, path) in exp.edges.iter().zip(&routing.edge_paths) {
        if !edge.needs_dedicated_links() {
            continue;
        }
        for l in path {
            *usage.entry(*l).or_insert(0) += 1;
        }
    }
    usage
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use revel_dfg::{Dfg, OpCode};
    use revel_isa::{InPortId, OutPortId, RateFsm};

    fn scheduler() -> SpatialScheduler {
        SpatialScheduler::new(Mesh::for_lane(&LaneConfig::paper_default()))
    }

    fn solver_inner(unroll: usize) -> Region {
        // b[i] -= b[j] * a[j,i]
        let mut g = Dfg::new("solver-inner");
        let bj = g.input(InPortId(0));
        let aji = g.input(InPortId(1));
        let bi = g.input(InPortId(2));
        let prod = g.op(OpCode::Mul, &[bj, aji]);
        let sub = g.op(OpCode::Sub, &[bi, prod]);
        g.output(sub, OutPortId(0));
        Region::systolic("inner", g, unroll)
    }

    fn solver_outer() -> Region {
        // b[j] / a[j,j]
        let mut g = Dfg::new("solver-outer");
        let b = g.input(InPortId(3));
        let a = g.input(InPortId(4));
        let d = g.op(OpCode::Div, &[b, a]);
        g.output(d, OutPortId(1));
        Region::temporal("outer", g)
    }

    #[test]
    fn schedules_hybrid_configuration() {
        let s = scheduler();
        let sched = s.schedule(&[solver_inner(4), solver_outer()]).unwrap();
        assert_eq!(sched.regions.len(), 2);
        let inner = &sched.regions[0];
        // mul(4) + sub(2) + some hops.
        assert!(inner.latency >= 6, "inner latency {}", inner.latency);
        assert!(inner.latency <= 40);
        assert_eq!(inner.ii, 1, "vectorized inner loop must pipeline at II=1");
        // Outer region lives on the dataflow PE.
        assert_eq!(sched.dpe_load.values().sum::<usize>(), 1);
    }

    #[test]
    fn divsqrt_ii_propagates() {
        let mut g = Dfg::new("divchain");
        let a = g.input(InPortId(0));
        let d = g.op(OpCode::Div, &[a, a]);
        g.output(d, OutPortId(0));
        let sched = scheduler().schedule(&[Region::systolic("d", g, 1)]).unwrap();
        assert_eq!(sched.regions[0].ii, 5, "div unit II must bound region II");
        assert!(sched.regions[0].latency >= 12);
    }

    #[test]
    fn accumulator_region_schedules() {
        let mut g = Dfg::new("dot");
        let a = g.input(InPortId(0));
        let b = g.input(InPortId(1));
        let m = g.op(OpCode::Mul, &[a, b]);
        let red = g.op(OpCode::ReduceAdd, &[m]);
        let acc = g.accum(red, RateFsm::fixed(8));
        g.output(acc, OutPortId(0));
        let sched = scheduler().schedule(&[Region::systolic("dot", g, 4)]).unwrap();
        assert!(sched.regions[0].latency > 0);
    }

    #[test]
    fn overflow_reported() {
        // 10 multiplies x 2 replicas > 9 multipliers.
        let mut g = Dfg::new("wide");
        let a = g.input(InPortId(0));
        let mut v = a;
        for _ in 0..10 {
            v = g.op(OpCode::Mul, &[v, a]);
        }
        g.output(v, OutPortId(0));
        let err = scheduler().schedule(&[Region::systolic("w", g, 2)]).unwrap_err();
        assert!(matches!(err, ScheduleError::NotEnoughPes { class: FuClass::Multiplier, .. }));
    }

    #[test]
    fn pure_systolic_mesh_rejects_temporal() {
        let mesh = Mesh::for_lane(&LaneConfig::pure_systolic());
        let err = SpatialScheduler::new(mesh).schedule(&[solver_outer()]).unwrap_err();
        assert!(matches!(err, ScheduleError::NoDataflowPes { .. }));
    }

    #[test]
    fn pure_dataflow_mesh_takes_everything_temporal() {
        let mesh = Mesh::for_lane(&LaneConfig::pure_dataflow());
        let mut g = Dfg::new("t");
        let a = g.input(InPortId(0));
        let s = g.op(OpCode::Add, &[a, a]);
        g.output(s, OutPortId(0));
        let sched = SpatialScheduler::new(mesh).schedule(&[Region::temporal("t", g)]).unwrap();
        assert_eq!(sched.dpe_load.values().sum::<usize>(), 1);
    }

    #[test]
    fn delay_fifo_reported_for_unbalanced_paths() {
        // One operand goes through a multiply (lat 4), the other is direct:
        // the join needs a delay FIFO of at least ~4.
        let mut g = Dfg::new("skew");
        let a = g.input(InPortId(0));
        let b = g.input(InPortId(1));
        let m = g.op(OpCode::Mul, &[a, b]);
        let s = g.op(OpCode::Add, &[m, b]);
        g.output(s, OutPortId(0));
        let sched = scheduler().schedule(&[Region::systolic("skew", g, 1)]).unwrap();
        assert!(sched.regions[0].max_delay_fifo >= 3);
    }

    #[test]
    fn determinism() {
        let a = scheduler().schedule(&[solver_inner(4), solver_outer()]).unwrap();
        let b = scheduler().schedule(&[solver_inner(4), solver_outer()]).unwrap();
        assert_eq!(a.regions, b.regions);
    }

    #[test]
    fn empty_mask_is_byte_identical_to_healthy_schedule() {
        let s = scheduler();
        let regions = [solver_inner(4), solver_outer()];
        let healthy = s.schedule(&regions).unwrap();
        let degraded = s.reschedule_degraded(&regions, FabricMask::HEALTHY).unwrap();
        assert_eq!(healthy.regions, degraded.regions);
        assert_eq!(healthy.placement, degraded.placement);
        assert_eq!(healthy.route_stats, degraded.route_stats);
    }

    #[test]
    fn masking_unused_tiles_leaves_the_schedule_unchanged() {
        let s = scheduler();
        let regions = [solver_inner(1)];
        let healthy = s.schedule(&regions).unwrap();
        // Find a systolic tile no instruction occupies and kill it.
        let occupied: std::collections::HashSet<MeshCoord> =
            healthy.placement.values().copied().collect();
        let idle = s
            .mesh()
            .slots()
            .iter()
            .find(|t| {
                matches!(t.kind, revel_fabric::PeKind::Systolic(_)) && !occupied.contains(&t.coord)
            })
            .expect("a 3-instruction region leaves tiles idle");
        let mask = FabricMask::HEALTHY.with_dead_pe(s.mesh().tile_index(idle.coord));
        let degraded = s.reschedule_degraded(&regions, mask).unwrap();
        assert_eq!(healthy.regions, degraded.regions, "an idle dead tile must change nothing");
        assert_eq!(healthy.placement, degraded.placement);
    }

    #[test]
    fn repair_moves_off_dead_tiles_and_still_schedules() {
        let s = scheduler();
        let regions = [solver_inner(4), solver_outer()];
        let healthy = s.schedule(&regions).unwrap();
        // Kill every occupied systolic tile's first victim: the lowest-index
        // occupied tile.
        let mesh = s.mesh();
        let victim = healthy
            .placement
            .values()
            .filter(|c| matches!(mesh.slot(**c).kind, revel_fabric::PeKind::Systolic(_)))
            .min_by_key(|c| mesh.tile_index(**c))
            .copied()
            .expect("systolic placements exist");
        let mask = FabricMask::HEALTHY.with_dead_pe(mesh.tile_index(victim));
        let degraded = s.reschedule_degraded(&regions, mask).unwrap();
        for (key, coord) in &degraded.placement {
            assert!(!mask.pe_dead(mesh.tile_index(*coord)), "{key:?} placed on dead tile {coord}");
        }
        assert_eq!(degraded.regions.len(), 2);
        assert!(degraded.regions[0].ii >= healthy.regions[0].ii);
    }

    #[test]
    fn dead_links_can_make_the_fabric_unroutable() {
        let s = scheduler();
        let mesh = s.mesh();
        // Sever both links of corner (0,0): input port 0 injects there, so
        // any region reading port 0 becomes unroutable.
        let c00 = MeshCoord { x: 0, y: 0 };
        let right = mesh.link_bit(c00, MeshCoord { x: 1, y: 0 }).unwrap();
        let down = mesh.link_bit(c00, MeshCoord { x: 0, y: 1 }).unwrap();
        let mask = FabricMask::HEALTHY.with_dead_link(right).with_dead_link(down);
        let err = s.reschedule_degraded(&[solver_inner(1)], mask).unwrap_err();
        assert!(matches!(err, ScheduleError::Unroutable { .. }), "{err}");
    }

    #[test]
    fn dead_dataflow_pe_without_spare_is_rejected() {
        let s = scheduler();
        let mesh = s.mesh();
        let dpe = mesh.dataflow_slots().next().unwrap().coord;
        let mask = FabricMask::HEALTHY.with_dead_pe(mesh.tile_index(dpe));
        // The paper mesh has exactly one dataflow PE; killing it strands
        // every temporal instruction.
        let err = s.reschedule_degraded(&[solver_outer()], mask).unwrap_err();
        assert!(matches!(err, ScheduleError::NoDataflowPes { needed: 1 }), "{err}");
    }

    #[test]
    fn degraded_capacity_errors_report_live_counts() {
        let s = scheduler();
        let mesh = s.mesh();
        // Kill 8 of the 9 multiplier tiles: a 2-multiply region still fits
        // nothing (2 > 1 live).
        let muls: Vec<usize> =
            mesh.systolic_slots(FuClass::Multiplier).map(|t| mesh.tile_index(t.coord)).collect();
        let mut mask = FabricMask::HEALTHY;
        for idx in muls.iter().take(8) {
            mask = mask.with_dead_pe(*idx);
        }
        let mut g = Dfg::new("mm");
        let a = g.input(InPortId(0));
        let m1 = g.op(OpCode::Mul, &[a, a]);
        let m2 = g.op(OpCode::Mul, &[m1, a]);
        g.output(m2, OutPortId(0));
        let err = s.reschedule_degraded(&[Region::systolic("mm", g, 1)], mask).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::NotEnoughPes { class: FuClass::Multiplier, needed: 2, available: 1 }
        );
    }
}
