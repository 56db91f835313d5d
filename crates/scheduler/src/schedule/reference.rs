//! The spatial compile as it was before moves were delta-costed and links
//! array-indexed, kept as the reference the production annealer and
//! router must reproduce exactly: every annealing move here re-costs every
//! edge through the placement map, and every routed edge clones the
//! link-cost map and runs Dijkstra over hash maps. The randomized test at
//! the bottom schedules seeded configurations both ways and requires equal
//! placements, paths, route statistics, region schedules and errors.

use super::{dedicated_link_usage, FabricSchedule, ScheduleError, SpatialScheduler};
use crate::instr::{expand, Expansion, InstrKey};
use crate::place::{edge_coords, place, repair_placement, Placement};
use crate::route::{route_degraded, QueueEntry, RouteStats, Routing};
use revel_dfg::{Dfg, NodeId, OpCode, Region, RegionKind};
use revel_fabric::{FabricMask, LaneConfig, Mesh, MeshCoord, MeshLink, PeKind};
use revel_isa::{InPortId, OutPortId, RateFsm, Rng};
use std::collections::{BinaryHeap, HashMap};

/// `place`, re-costing every edge per move.
fn place_reference(
    mesh: &Mesh,
    exp: &Expansion,
    dpe_slots: usize,
    seed: u64,
    iterations: usize,
) -> Result<Placement, ScheduleError> {
    let mut placement = Placement { instr_pos: HashMap::new(), dpe_load: HashMap::new() };

    // --- temporal instructions -> dataflow tiles (round robin) ---
    let dpe_tiles: Vec<MeshCoord> = mesh.dataflow_slots().map(|s| s.coord).collect();
    let temporal: Vec<&crate::instr::MappedInstr> = exp.temporal_instrs().collect();
    if !temporal.is_empty() {
        if dpe_tiles.is_empty() {
            return Err(ScheduleError::NoDataflowPes { needed: temporal.len() });
        }
        let capacity = dpe_tiles.len() * dpe_slots;
        if temporal.len() > capacity {
            return Err(ScheduleError::TemporalOverflow { needed: temporal.len(), capacity });
        }
        for (i, instr) in temporal.iter().enumerate() {
            let tile = dpe_tiles[i % dpe_tiles.len()];
            placement.instr_pos.insert(instr.key, tile);
            *placement.dpe_load.entry(tile).or_insert(0) += 1;
        }
    }

    // --- systolic instructions -> dedicated tiles ---
    // Group available tiles by FU class.
    let mut free: HashMap<revel_dfg::FuClass, Vec<MeshCoord>> = HashMap::new();
    for s in mesh.slots() {
        if let PeKind::Systolic(class) = s.kind {
            free.entry(class).or_default().push(s.coord);
        }
    }
    let systolic: Vec<&crate::instr::MappedInstr> = exp.systolic_instrs().collect();
    for class in revel_dfg::FuClass::ALL {
        let needed = systolic.iter().filter(|i| i.class == class).count();
        let avail = free.get(&class).map(|v| v.len()).unwrap_or(0);
        if needed > avail {
            return Err(ScheduleError::NotEnoughPes { class, needed, available: avail });
        }
    }
    // Initial assignment: in instruction order, take tiles in row-major
    // order per class (ports are on the top/bottom rows, so early nodes —
    // typically closest to inputs — get top tiles).
    let mut cursor: HashMap<revel_dfg::FuClass, usize> = HashMap::new();
    for instr in &systolic {
        let tiles = free.get(&instr.class).expect("checked above");
        let c = cursor.entry(instr.class).or_insert(0);
        placement.instr_pos.insert(instr.key, tiles[*c]);
        *c += 1;
    }

    if systolic.len() <= 1 || iterations == 0 {
        return Ok(placement);
    }

    // --- simulated annealing over systolic placements ---
    let mut rng = Rng::seed_from_u64(seed);
    // Reverse index: tile -> instr (systolic only).
    let mut occupant: HashMap<MeshCoord, InstrKey> = HashMap::new();
    for instr in &systolic {
        occupant.insert(placement.instr_pos[&instr.key], instr.key);
    }
    let instr_class: HashMap<InstrKey, revel_dfg::FuClass> =
        systolic.iter().map(|i| (i.key, i.class)).collect();

    let cost = |placement: &Placement| -> i64 {
        exp.edges
            .iter()
            .map(|e| {
                let (a, b) = edge_coords(mesh, placement, e);
                mesh.manhattan(a, b) as i64
            })
            .sum()
    };
    let mut cur_cost = cost(&placement);
    // Track the best placement seen: the walk may wander uphill near the
    // end of the schedule, and the final state is not necessarily the best.
    let mut best_cost = cur_cost;
    let mut best_pos = placement.instr_pos.clone();
    let mut temp = (cur_cost as f64 / exp.edges.len().max(1) as f64).max(2.0);
    let keys: Vec<InstrKey> = systolic.iter().map(|i| i.key).collect();
    for step in 0..iterations {
        // Pick an instruction and a random tile of the same class.
        let k = keys[rng.gen_index(keys.len())];
        let class = instr_class[&k];
        let tiles = &free[&class];
        let target = tiles[rng.gen_index(tiles.len())];
        let source = placement.instr_pos[&k];
        if target == source {
            continue;
        }
        let other = occupant.get(&target).copied();
        // Apply move/swap.
        placement.instr_pos.insert(k, target);
        if let Some(o) = other {
            placement.instr_pos.insert(o, source);
        }
        let new_cost = cost(&placement);
        let delta = new_cost - cur_cost;
        let accept = delta <= 0 || rng.gen_f64() < (-(delta as f64) / temp).exp();
        if accept {
            cur_cost = new_cost;
            occupant.insert(target, k);
            match other {
                Some(o) => {
                    occupant.insert(source, o);
                }
                None => {
                    occupant.remove(&source);
                }
            }
            if cur_cost < best_cost {
                best_cost = cur_cost;
                best_pos = placement.instr_pos.clone();
            }
        } else {
            // Revert.
            placement.instr_pos.insert(k, source);
            if let Some(o) = other {
                placement.instr_pos.insert(o, target);
            }
        }
        if step % 64 == 63 {
            temp *= 0.92;
        }
    }
    placement.instr_pos = best_pos;
    Ok(placement)
}

fn shortest_path(
    mesh: &Mesh,
    from: MeshCoord,
    to: MeshCoord,
    link_cost: &HashMap<MeshLink, f64>,
    mask: FabricMask,
) -> Option<Vec<MeshLink>> {
    if from == to {
        return Some(Vec::new());
    }
    let mut dist: HashMap<MeshCoord, f64> = HashMap::new();
    let mut prev: HashMap<MeshCoord, MeshCoord> = HashMap::new();
    let mut heap = BinaryHeap::new();
    dist.insert(from, 0.0);
    heap.push(QueueEntry { cost: 0.0, coord: from });
    while let Some(QueueEntry { cost, coord }) = heap.pop() {
        if coord == to {
            break;
        }
        if cost > *dist.get(&coord).unwrap_or(&f64::INFINITY) {
            continue;
        }
        for n in mesh.neighbors(coord) {
            // Dead links are severed in both directions. Dead *PEs* keep
            // their mesh switch (routing through a dead tile is allowed):
            // the circuit-switched network is a separate structure from
            // the FU datapath, so a stuck FU does not cut the crossbar.
            if mesh.link_bit(coord, n).is_some_and(|b| mask.link_dead(b)) {
                continue;
            }
            let link = MeshLink { from: coord, to: n };
            let lc = 1.0 + link_cost.get(&link).copied().unwrap_or(0.0);
            let nd = cost + lc;
            if nd < *dist.get(&n).unwrap_or(&f64::INFINITY) {
                dist.insert(n, nd);
                prev.insert(n, coord);
                heap.push(QueueEntry { cost: nd, coord: n });
            }
        }
    }
    // Reconstruct. On a healthy mesh the grid is connected, so Dijkstra
    // always reaches `to`; dead links can disconnect it, which surfaces
    // as `None` (the caller reports `ScheduleError::Unroutable`).
    let mut path = Vec::new();
    let mut cur = to;
    while cur != from {
        let p = *prev.get(&cur)?;
        path.push(MeshLink { from: p, to: cur });
        cur = p;
    }
    path.reverse();
    Some(path)
}

/// `route_degraded` over a `HashMap` link-cost map, cloned per edge.
fn route_reference(
    mesh: &Mesh,
    exp: &Expansion,
    placement: &Placement,
    max_iterations: u32,
    mask: FabricMask,
) -> Result<Routing, ScheduleError> {
    let mut history: HashMap<MeshLink, f64> = HashMap::new();
    let mut paths: Vec<Vec<MeshLink>> = vec![Vec::new(); exp.edges.len()];
    let mut stats = RouteStats::default();

    for iter in 0..max_iterations.max(1) {
        stats.iterations = iter + 1;
        // Route all edges with current costs.
        let mut usage: HashMap<MeshLink, u32> = HashMap::new();
        for (i, edge) in exp.edges.iter().enumerate() {
            let (from, to) = edge_coords(mesh, placement, edge);
            // Present-congestion cost: history plus current usage this round.
            let mut cost = history.clone();
            for (l, u) in &usage {
                *cost.entry(*l).or_insert(0.0) += *u as f64 * 0.5;
            }
            let path = shortest_path(mesh, from, to, &cost, mask)
                .ok_or(ScheduleError::Unroutable { from, to })?;
            for l in &path {
                if edge.needs_dedicated_links() {
                    *usage.entry(*l).or_insert(0) += 1;
                }
            }
            paths[i] = path;
        }
        let overused: Vec<(MeshLink, u32)> =
            usage.iter().filter(|&(_, &u)| u > 1).map(|(l, u)| (*l, *u)).collect();
        let max_sharing = usage.values().copied().max().unwrap_or(1).max(1);
        stats.max_link_sharing = max_sharing;
        if overused.is_empty() {
            break;
        }
        // Raise history cost on over-subscribed links and retry.
        for (l, u) in overused {
            *history.entry(l).or_insert(0.0) += u as f64;
        }
    }
    stats.total_hops = paths.iter().map(|p| p.len() as u32).sum();
    Ok(Routing { edge_paths: paths, stats })
}

/// `SpatialScheduler::reschedule_degraded` with the reference annealer and
/// router.
fn schedule_reference(
    s: &SpatialScheduler,
    regions: &[Region],
    mask: FabricMask,
) -> Result<FabricSchedule, ScheduleError> {
    let exp = expand(regions);
    let healthy = place_reference(&s.mesh, &exp, s.dpe_slots, s.seed, s.sa_iterations)?;
    let placement = repair_placement(&s.mesh, &exp, healthy, s.dpe_slots, mask)?;
    let routing = route_reference(&s.mesh, &exp, &placement, s.route_iterations, mask)?;
    let link_sharing = dedicated_link_usage(&exp, &routing);
    let regions = regions
        .iter()
        .enumerate()
        .map(|(r, region)| s.time_region(r, region, &exp, &routing, &link_sharing))
        .collect();
    Ok(FabricSchedule {
        regions,
        placement: placement.instr_pos,
        dpe_load: placement.dpe_load,
        route_stats: routing.stats,
    })
}

/// A seeded random region: 1–3 input ports and 1–6 ops over earlier
/// values (fan-out), an operand sometimes repeated (`Mul(v, v)`), an
/// optional constant and accumulator, one or two outputs; unroll 1–2, or
/// 3–8 with at most two ops.
fn random_region(rng: &mut Rng, name: String, kind: RegionKind) -> Region {
    // Div and Sqrt share the three div/sqrt tiles, so they are rarer.
    const OPS: [OpCode; 12] = [
        OpCode::Add,
        OpCode::Sub,
        OpCode::Mul,
        OpCode::Add,
        OpCode::Mul,
        OpCode::Min,
        OpCode::Select,
        OpCode::Mul,
        OpCode::Mov,
        OpCode::Mul,
        OpCode::Div,
        OpCode::Sqrt,
    ];
    let mut g = Dfg::new(name.clone());
    let mut values: Vec<NodeId> =
        (0..1 + rng.gen_index(3)).map(|_| g.input(InPortId(rng.gen_index(8) as u8))).collect();
    if rng.gen_index(3) == 0 {
        values.push(g.konst(0.5));
    }
    // Wide regions get fewer ops, so most configurations fit.
    let wide = rng.gen_index(3) == 0;
    for _ in 0..1 + rng.gen_index(if wide { 2 } else { 6 }) {
        let op = OPS[rng.gen_index(OPS.len())];
        let mut args: Vec<NodeId> = Vec::new();
        for a in 0..op.arity() {
            let repeat = a > 0 && rng.gen_index(4) == 0;
            args.push(if repeat { args[a - 1] } else { values[rng.gen_index(values.len())] });
        }
        values.push(g.op(op, &args));
    }
    let mut last = *values.last().expect("ops were added");
    if rng.gen_index(4) == 0 {
        last = g.accum(last, RateFsm::fixed(4));
    }
    g.output(last, OutPortId(rng.gen_index(8) as u8));
    if rng.gen_index(2) == 0 {
        g.output(values[rng.gen_index(values.len())], OutPortId(rng.gen_index(8) as u8));
    }
    let unroll = if wide { 3 + rng.gen_index(6) } else { 1 + rng.gen_index(2) };
    Region::new(name, kind, g, unroll)
}

/// A seeded random mask of `kind`: 0 healthy, 1 dead PEs, 2 dead links,
/// 3 both (one to three of each; a quarter of the link masks also cut a
/// tile off, which makes most configurations unroutable).
fn random_mask(rng: &mut Rng, mesh: &Mesh, kind: usize) -> FabricMask {
    let tiles = mesh.width() * mesh.height();
    let mut mask = FabricMask::HEALTHY;
    if kind & 1 != 0 {
        for _ in 0..1 + rng.gen_index(3) {
            mask = mask.with_dead_pe(rng.gen_index(tiles));
        }
    }
    if kind & 2 != 0 {
        for _ in 0..1 + rng.gen_index(3) {
            let a = mesh.tile_at(rng.gen_index(tiles));
            let neighbors = mesh.neighbors(a);
            let b = neighbors[rng.gen_index(neighbors.len())];
            mask = mask.with_dead_link(mesh.link_bit(a, b).expect("4-neighbours"));
        }
        if rng.gen_index(4) == 0 {
            let a = mesh.tile_at(rng.gen_index(tiles));
            for b in mesh.neighbors(a) {
                mask = mask.with_dead_link(mesh.link_bit(a, b).expect("4-neighbours"));
            }
        }
    }
    mask
}

/// Schedules `regions` with the production and the reference compile and
/// asserts they agree; true when scheduling succeeded.
fn assert_same_compile(s: &SpatialScheduler, regions: &[Region], mask: FabricMask) -> bool {
    let what = format!("{} regions, {} SA iterations, {mask:?}", regions.len(), s.sa_iterations);
    let exp = expand(regions);
    match (
        place(&s.mesh, &exp, s.dpe_slots, s.seed, s.sa_iterations),
        place_reference(&s.mesh, &exp, s.dpe_slots, s.seed, s.sa_iterations),
    ) {
        (Ok(new), Ok(old)) => {
            assert_eq!(new.instr_pos, old.instr_pos, "{what}: placement");
            assert_eq!(new.dpe_load, old.dpe_load, "{what}: dPE load");
            if let Ok(p) = repair_placement(&s.mesh, &exp, new, s.dpe_slots, mask) {
                match (
                    route_degraded(&s.mesh, &exp, &p, s.route_iterations, mask),
                    route_reference(&s.mesh, &exp, &p, s.route_iterations, mask),
                ) {
                    (Ok(new), Ok(old)) => {
                        assert_eq!(new.edge_paths, old.edge_paths, "{what}: paths");
                        assert_eq!(new.stats, old.stats, "{what}: route stats");
                    }
                    (Err(new), Err(old)) => assert_eq!(new, old, "{what}: routing error"),
                    (new, old) => panic!("{what}: routing {new:?} against {old:?}"),
                }
            }
        }
        (Err(new), Err(old)) => assert_eq!(new, old, "{what}: placement error"),
        (new, old) => panic!("{what}: placement {new:?} against {old:?}"),
    }
    match (s.reschedule_degraded(regions, mask), schedule_reference(s, regions, mask)) {
        (Ok(new), Ok(old)) => {
            assert_eq!(new.regions, old.regions, "{what}: region schedules");
            assert_eq!(new.placement, old.placement, "{what}: repaired placement");
            assert_eq!(new.dpe_load, old.dpe_load, "{what}: repaired dPE load");
            assert_eq!(new.route_stats, old.route_stats, "{what}: route stats");
            true
        }
        (Err(new), Err(old)) => {
            assert_eq!(new, old, "{what}: error");
            false
        }
        (new, old) => panic!("{what}: {new:?} against {old:?}"),
    }
}

#[test]
fn delta_annealer_and_array_router_reproduce_the_reference_compile() {
    let lanes =
        [LaneConfig::paper_default(), LaneConfig::pure_systolic(), LaneConfig::pure_dataflow()];
    let mut rng = Rng::seed_from_u64(0x5eed);
    let cases = 192;
    let mut scheduled = 0;
    for case in 0..cases {
        // Every (mesh, effort, mask kind) combination, four times.
        let lane = &lanes[case % 3];
        let iterations = [0, 1, 300, 2000][(case / 3) % 4];
        let mask_kind = (case / 12) % 4;
        let mut s = SpatialScheduler::for_lane(lane).with_sa_iterations(iterations);
        if rng.gen_index(2) == 0 {
            s = s.with_seed(rng.next_u64());
        }
        // A pure mesh gets the region kind it can host, except that one
        // configuration in six leads with the other kind (a capacity error).
        let has_dpes = s.mesh.dataflow_slots().next().is_some();
        let has_systolic = s.mesh.slots().iter().any(|t| matches!(t.kind, PeKind::Systolic(_)));
        let misfit = rng.gen_index(6) == 0;
        let regions: Vec<Region> = (0..1 + rng.gen_index(4))
            .map(|r| {
                let temporal = match (has_systolic, has_dpes) {
                    (true, true) => rng.gen_index(3) == 0,
                    (true, false) => misfit && r == 0,
                    _ => !(misfit && r == 0),
                };
                let kind = if temporal { RegionKind::Temporal } else { RegionKind::Systolic };
                random_region(&mut rng, format!("r{r}"), kind)
            })
            .collect();
        let mask = random_mask(&mut rng, &s.mesh, mask_kind);
        scheduled += usize::from(assert_same_compile(&s, &regions, mask));
    }
    // The comparison must not be vacuous: most configurations schedule.
    assert!(scheduled * 2 > cases, "only {scheduled} of {cases} configurations scheduled");
}
