//! Simulated-annealing placement of instructions onto mesh tiles.

use crate::instr::{Edge, Endpoint, Expansion, InstrKey};
use crate::schedule::ScheduleError;
use revel_dfg::FuClass;
use revel_fabric::{FabricMask, Mesh, MeshCoord, PeKind};
use revel_isa::Rng;
use std::collections::HashMap;

/// The result of placement: every instruction has a tile.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Instruction → tile. Systolic instructions own their tile
    /// exclusively; temporal instructions share dataflow tiles.
    pub instr_pos: HashMap<InstrKey, MeshCoord>,
    /// Number of temporal instructions resident on each dataflow tile.
    pub dpe_load: HashMap<MeshCoord, usize>,
}

/// Tile used to inject values from input port `p` (ports sit above the top
/// row of the mesh; Fig. 13).
pub fn in_port_coord(mesh: &Mesh, p: u8) -> MeshCoord {
    MeshCoord { x: (p as usize).min(mesh.width() - 1) as u8, y: 0 }
}

/// Tile used to eject values into output port `p` (ports sit below the
/// bottom row of the mesh).
pub fn out_port_coord(mesh: &Mesh, p: u8) -> MeshCoord {
    MeshCoord { x: (p as usize).min(mesh.width() - 1) as u8, y: (mesh.height() - 1) as u8 }
}

/// One end of an edge with its port resolved: an instruction, which
/// placement moves, or a fixed port tile.
#[derive(Debug, Clone, Copy)]
enum Pin<I> {
    Instr(I),
    Tile(MeshCoord),
}

/// Resolves the ports of an edge. Wide vector ports physically span
/// several mesh columns, so each unroll replica injects/ejects at a
/// different column: replica `k` of a port-adjacent edge is shifted `k`
/// columns (wrapping), which is what lets a vectorized region stream a full
/// vector per cycle without sharing a 64-bit mesh link.
fn edge_pins(mesh: &Mesh, edge: &Edge) -> (Pin<InstrKey>, Pin<InstrKey>) {
    let replica = match (edge.from, edge.to) {
        (Endpoint::Instr(k), _) => k.replica,
        (_, Endpoint::Instr(k)) => k.replica,
        _ => 0,
    };
    let spread =
        |c: MeshCoord| MeshCoord { x: ((c.x as usize + replica) % mesh.width()) as u8, y: c.y };
    let pin = |end: Endpoint| match end {
        Endpoint::Instr(k) => Pin::Instr(k),
        Endpoint::InPort(p) => Pin::Tile(spread(in_port_coord(mesh, p.0))),
        Endpoint::OutPort(p) => Pin::Tile(spread(out_port_coord(mesh, p.0))),
    };
    (pin(edge.from), pin(edge.to))
}

/// Resolves both tiles of an edge under a placement (ports as in
/// [`edge_pins`]).
pub fn edge_coords(mesh: &Mesh, placement: &Placement, edge: &Edge) -> (MeshCoord, MeshCoord) {
    let tile = |pin| match pin {
        Pin::Instr(k) => placement.instr_pos[&k],
        Pin::Tile(c) => c,
    };
    let (from, to) = edge_pins(mesh, edge);
    (tile(from), tile(to))
}

/// The annealer's wiring, resolved once per compile: each edge as a pair
/// of pins whose instructions are indices into `exp.instrs`, and each
/// instruction's incident edges, so a move re-costs only the edges it
/// touches.
struct Wires {
    edges: Vec<(Pin<usize>, Pin<usize>)>,
    /// Edges touching each instruction.
    incident: Vec<Vec<usize>>,
}

impl Wires {
    fn new(mesh: &Mesh, exp: &Expansion) -> Self {
        let index: HashMap<InstrKey, usize> =
            exp.instrs.iter().enumerate().map(|(i, instr)| (instr.key, i)).collect();
        let resolve = |pin| match pin {
            Pin::Instr(k) => Pin::Instr(index[&k]),
            Pin::Tile(c) => Pin::Tile(c),
        };
        let edges: Vec<(Pin<usize>, Pin<usize>)> = exp
            .edges
            .iter()
            .map(|e| {
                let (from, to) = edge_pins(mesh, e);
                (resolve(from), resolve(to))
            })
            .collect();
        let mut incident = vec![Vec::new(); exp.instrs.len()];
        for (n, &(from, to)) in edges.iter().enumerate() {
            for pin in [from, to] {
                if let Pin::Instr(i) = pin {
                    incident[i].push(n);
                }
            }
        }
        Wires { edges, incident }
    }

    /// Manhattan length of edge `e` with instructions at `pos`.
    fn length(&self, mesh: &Mesh, pos: &[MeshCoord], e: usize) -> i64 {
        let tile = |pin| match pin {
            Pin::Instr(i) => pos[i],
            Pin::Tile(c) => c,
        };
        let (from, to) = self.edges[e];
        mesh.manhattan(tile(from), tile(to)) as i64
    }

    /// Total length of every edge: the annealer's cost.
    fn total(&self, mesh: &Mesh, pos: &[MeshCoord]) -> i64 {
        (0..self.edges.len()).map(|e| self.length(mesh, pos, e)).sum()
    }

    /// Total length of the edges incident to `a` or to `b`, an edge
    /// joining the two counted once. A move of `a` (swapped with `b`)
    /// changes exactly these lengths, so their difference across the move
    /// is the change in [`Wires::total`].
    fn span(&self, mesh: &Mesh, pos: &[MeshCoord], a: usize, b: Option<usize>) -> i64 {
        let edges_of = |i: usize| self.incident[i].iter().copied();
        let joins_a = |e: usize| {
            let (from, to) = self.edges[e];
            matches!(from, Pin::Instr(i) if i == a) || matches!(to, Pin::Instr(i) if i == a)
        };
        let mut sum: i64 = edges_of(a).map(|e| self.length(mesh, pos, e)).sum();
        if let Some(b) = b {
            sum += edges_of(b)
                .filter(|&e| !joins_a(e))
                .map(|e| self.length(mesh, pos, e))
                .sum::<i64>();
        }
        sum
    }
}

/// Places all instructions: temporal instructions round-robin over dataflow
/// tiles (respecting instruction-slot capacity), systolic instructions by
/// simulated annealing minimizing total routed wirelength.
pub fn place(
    mesh: &Mesh,
    exp: &Expansion,
    dpe_slots: usize,
    seed: u64,
    iterations: usize,
) -> Result<Placement, ScheduleError> {
    // Every entry is assigned below: temporal instructions first, then
    // systolic ones.
    let mut pos = vec![MeshCoord { x: 0, y: 0 }; exp.instrs.len()];
    let mut dpe_load = HashMap::new();

    // --- temporal instructions -> dataflow tiles (round robin) ---
    let dpe_tiles: Vec<MeshCoord> = mesh.dataflow_slots().map(|s| s.coord).collect();
    let temporal: Vec<usize> = (0..exp.instrs.len()).filter(|&i| exp.instrs[i].temporal).collect();
    if !temporal.is_empty() {
        if dpe_tiles.is_empty() {
            return Err(ScheduleError::NoDataflowPes { needed: temporal.len() });
        }
        let capacity = dpe_tiles.len() * dpe_slots;
        if temporal.len() > capacity {
            return Err(ScheduleError::TemporalOverflow { needed: temporal.len(), capacity });
        }
        for (n, &i) in temporal.iter().enumerate() {
            let tile = dpe_tiles[n % dpe_tiles.len()];
            pos[i] = tile;
            *dpe_load.entry(tile).or_insert(0) += 1;
        }
    }

    // --- systolic instructions -> dedicated tiles ---
    // Available tiles per FU class (indexed by `FuClass as usize`), in
    // row-major order.
    let mut class_tiles: [Vec<MeshCoord>; FuClass::ALL.len()] = Default::default();
    for s in mesh.slots() {
        if let PeKind::Systolic(class) = s.kind {
            class_tiles[class as usize].push(s.coord);
        }
    }
    let systolic: Vec<usize> = (0..exp.instrs.len()).filter(|&i| !exp.instrs[i].temporal).collect();
    for class in FuClass::ALL {
        let needed = systolic.iter().filter(|&&i| exp.instrs[i].class == class).count();
        let available = class_tiles[class as usize].len();
        if needed > available {
            return Err(ScheduleError::NotEnoughPes { class, needed, available });
        }
    }
    // Initial assignment: in instruction order, take tiles in row-major
    // order per class (ports are on the top/bottom rows, so early nodes —
    // typically closest to inputs — get top tiles).
    let mut cursor = [0; FuClass::ALL.len()];
    for &i in &systolic {
        let class = exp.instrs[i].class as usize;
        pos[i] = class_tiles[class][cursor[class]];
        cursor[class] += 1;
    }

    if systolic.len() > 1 && iterations > 0 {
        anneal(mesh, exp, &mut pos, &systolic, &class_tiles, seed, iterations);
    }
    let instr_pos = exp.instrs.iter().zip(&pos).map(|(instr, &tile)| (instr.key, tile)).collect();
    Ok(Placement { instr_pos, dpe_load })
}

/// Simulated annealing over the systolic instructions' tiles, minimizing
/// total edge length; leaves the best placement seen in `pos`.
///
/// A move takes an instruction to a random tile of its class, swapping
/// with that tile's occupant. Its cost delta is summed over the edges the
/// move touches ([`Wires::span`]), which equals the change in the full
/// cost exactly, so every accept decision, and with it every RNG draw, is
/// what re-costing every edge per move would make.
fn anneal(
    mesh: &Mesh,
    exp: &Expansion,
    pos: &mut [MeshCoord],
    systolic: &[usize],
    class_tiles: &[Vec<MeshCoord>],
    seed: u64,
    iterations: usize,
) {
    let wires = Wires::new(mesh, exp);
    let mut rng = Rng::seed_from_u64(seed);
    // Reverse index: tile (by `Mesh::tile_index`) -> systolic instruction.
    let mut occupant: Vec<Option<usize>> = vec![None; mesh.width() * mesh.height()];
    for &i in systolic {
        occupant[mesh.tile_index(pos[i])] = Some(i);
    }

    let mut cur_cost = wires.total(mesh, pos);
    // Track the best placement seen: the walk may wander uphill near the
    // end of the schedule, and the final state is not necessarily the best.
    let mut best_cost = cur_cost;
    let mut best = pos.to_vec();
    let mut temp = (cur_cost as f64 / exp.edges.len().max(1) as f64).max(2.0);
    for step in 0..iterations {
        // Pick an instruction and a random tile of the same class.
        let k = systolic[rng.gen_index(systolic.len())];
        let tiles = &class_tiles[exp.instrs[k].class as usize];
        let target = tiles[rng.gen_index(tiles.len())];
        let source = pos[k];
        if target == source {
            // A no-op draw also skips this step's cooling below. Every
            // placement the simulator has run was annealed this way, so
            // cooling here would move placements: a model change.
            continue;
        }
        let other = occupant[mesh.tile_index(target)];
        let before = wires.span(mesh, pos, k, other);
        // Apply move/swap.
        pos[k] = target;
        if let Some(o) = other {
            pos[o] = source;
        }
        let delta = wires.span(mesh, pos, k, other) - before;
        let accept = delta <= 0 || rng.gen_f64() < (-(delta as f64) / temp).exp();
        if accept {
            cur_cost += delta;
            occupant[mesh.tile_index(target)] = Some(k);
            occupant[mesh.tile_index(source)] = other;
            if cur_cost < best_cost {
                best_cost = cur_cost;
                best.copy_from_slice(pos);
            }
        } else {
            // Revert.
            pos[k] = source;
            if let Some(o) = other {
                pos[o] = target;
            }
        }
        if step % 64 == 63 {
            temp *= 0.92;
        }
    }
    pos.copy_from_slice(&best);
}

/// Repairs a healthy placement around a fabric mask's dead tiles.
///
/// The repair is a deterministic greedy pass (no annealing, no RNG), so
/// nested masks produce nested repairs: dead tiles are visited in
/// ascending row-major order; a displaced systolic instruction moves to
/// the nearest free live tile of its class (manhattan distance from the
/// dead tile, ties broken by row-major index); displaced temporal
/// instructions move, in `InstrKey` order, to the least-loaded live
/// dataflow tile. An empty mask returns the placement untouched.
///
/// # Errors
/// The same capacity errors as initial placement, computed against the
/// *live* tile counts.
pub fn repair_placement(
    mesh: &Mesh,
    exp: &Expansion,
    mut placement: Placement,
    dpe_slots: usize,
    mask: FabricMask,
) -> Result<Placement, ScheduleError> {
    if mask.is_empty() {
        return Ok(placement);
    }
    let dead = |c: MeshCoord| mask.pe_dead(mesh.tile_index(c));

    // Live-capacity checks before touching anything.
    let systolic: Vec<&crate::instr::MappedInstr> = exp.systolic_instrs().collect();
    for class in revel_dfg::FuClass::ALL {
        let needed = systolic.iter().filter(|i| i.class == class).count();
        let live = mesh
            .slots()
            .iter()
            .filter(|s| s.kind == PeKind::Systolic(class) && !dead(s.coord))
            .count();
        if needed > live {
            return Err(ScheduleError::NotEnoughPes { class, needed, available: live });
        }
    }
    let temporal: Vec<&crate::instr::MappedInstr> = exp.temporal_instrs().collect();
    let live_dpes: Vec<MeshCoord> =
        mesh.dataflow_slots().map(|s| s.coord).filter(|c| !dead(*c)).collect();
    if !temporal.is_empty() {
        if live_dpes.is_empty() {
            return Err(ScheduleError::NoDataflowPes { needed: temporal.len() });
        }
        let capacity = live_dpes.len() * dpe_slots;
        if temporal.len() > capacity {
            return Err(ScheduleError::TemporalOverflow { needed: temporal.len(), capacity });
        }
    }

    let mut occupant: HashMap<MeshCoord, InstrKey> = HashMap::new();
    for instr in &systolic {
        occupant.insert(placement.instr_pos[&instr.key], instr.key);
    }
    for idx in mask.dead_pe_indices() {
        if idx >= mesh.width() * mesh.height() {
            break;
        }
        let coord = mesh.tile_at(idx);
        match mesh.slot(coord).kind {
            PeKind::Systolic(class) => {
                let Some(k) = occupant.get(&coord).copied() else { continue };
                let target = mesh
                    .slots()
                    .iter()
                    .filter(|s| s.kind == PeKind::Systolic(class))
                    .filter(|s| !dead(s.coord) && !occupant.contains_key(&s.coord))
                    .min_by_key(|s| (mesh.manhattan(coord, s.coord), mesh.tile_index(s.coord)))
                    .map(|s| s.coord)
                    .expect("live capacity checked above");
                occupant.remove(&coord);
                occupant.insert(target, k);
                placement.instr_pos.insert(k, target);
            }
            PeKind::Dataflow => {
                placement.dpe_load.remove(&coord);
                let mut displaced: Vec<InstrKey> = temporal
                    .iter()
                    .filter(|i| placement.instr_pos[&i.key] == coord)
                    .map(|i| i.key)
                    .collect();
                displaced.sort();
                for k in displaced {
                    let target = live_dpes
                        .iter()
                        .filter(|t| placement.dpe_load.get(t).copied().unwrap_or(0) < dpe_slots)
                        .min_by_key(|t| {
                            (placement.dpe_load.get(t).copied().unwrap_or(0), mesh.tile_index(**t))
                        })
                        .copied()
                        .expect("live temporal capacity checked above");
                    placement.instr_pos.insert(k, target);
                    *placement.dpe_load.entry(target).or_insert(0) += 1;
                }
            }
        }
    }
    Ok(placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::expand;
    use revel_dfg::{Dfg, OpCode, Region, RegionKind};
    use revel_fabric::LaneConfig;
    use revel_isa::{InPortId, OutPortId};

    fn mesh() -> Mesh {
        Mesh::for_lane(&LaneConfig::paper_default())
    }

    fn chain_region(n_ops: usize, unroll: usize) -> Region {
        let mut g = Dfg::new("chain");
        let mut v = g.input(InPortId(0));
        for i in 0..n_ops {
            let op = if i % 2 == 0 { OpCode::Add } else { OpCode::Mul };
            v = g.op(op, &[v, v]);
        }
        g.output(v, OutPortId(0));
        Region::new("chain", RegionKind::Systolic, g, unroll)
    }

    #[test]
    fn placement_assigns_all_instrs() {
        let exp = expand(&[chain_region(4, 2)]);
        let p = place(&mesh(), &exp, 32, 7, 2000).unwrap();
        assert_eq!(p.instr_pos.len(), 8);
        // Systolic tiles are exclusive.
        let mut seen = std::collections::HashSet::new();
        for c in p.instr_pos.values() {
            assert!(seen.insert(*c), "tile {c} assigned twice");
        }
    }

    #[test]
    fn placement_respects_fu_classes() {
        let exp = expand(&[chain_region(4, 1)]);
        let m = mesh();
        let p = place(&m, &exp, 32, 7, 1000).unwrap();
        for instr in &exp.instrs {
            let tile = m.slot(p.instr_pos[&instr.key]);
            assert_eq!(tile.kind, PeKind::Systolic(instr.class));
        }
    }

    #[test]
    fn too_many_instrs_rejected() {
        // 13 multiplies x 1 > 9 multiplier tiles.
        let mut g = Dfg::new("big");
        let a = g.input(InPortId(0));
        let mut v = a;
        for _ in 0..13 {
            v = g.op(OpCode::Mul, &[v, a]);
        }
        g.output(v, OutPortId(0));
        let exp = expand(&[Region::systolic("big", g, 1)]);
        let err = place(&mesh(), &exp, 32, 7, 100).unwrap_err();
        assert!(matches!(err, ScheduleError::NotEnoughPes { .. }));
    }

    #[test]
    fn temporal_goes_to_dpes() {
        let mut g = Dfg::new("t");
        let a = g.input(InPortId(0));
        let r = g.op(OpCode::Recip, &[a]);
        let s = g.op(OpCode::Mul, &[r, r]);
        g.output(s, OutPortId(0));
        let exp = expand(&[Region::temporal("t", g)]);
        let m = mesh();
        let p = place(&m, &exp, 32, 7, 0).unwrap();
        for instr in &exp.instrs {
            assert_eq!(m.slot(p.instr_pos[&instr.key]).kind, PeKind::Dataflow);
        }
        assert_eq!(p.dpe_load.values().sum::<usize>(), 2);
    }

    #[test]
    fn temporal_overflow_rejected() {
        let mut g = Dfg::new("huge");
        let a = g.input(InPortId(0));
        let mut v = a;
        for _ in 0..40 {
            v = g.op(OpCode::Add, &[v, a]);
        }
        g.output(v, OutPortId(0));
        let exp = expand(&[Region::temporal("huge", g)]);
        let err = place(&mesh(), &exp, 32, 7, 0).unwrap_err();
        assert!(matches!(err, ScheduleError::TemporalOverflow { .. }));
    }

    #[test]
    fn annealing_improves_or_keeps_cost() {
        let exp = expand(&[chain_region(6, 2)]);
        let m = mesh();
        let init = place(&m, &exp, 32, 7, 0).unwrap();
        let annealed = place(&m, &exp, 32, 7, 4000).unwrap();
        let cost = |p: &Placement| -> i64 {
            exp.edges
                .iter()
                .map(|e| {
                    let (a, b) = edge_coords(&m, p, e);
                    m.manhattan(a, b) as i64
                })
                .sum()
        };
        assert!(cost(&annealed) <= cost(&init));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let exp = expand(&[chain_region(5, 2)]);
        let m = mesh();
        let a = place(&m, &exp, 32, 42, 3000).unwrap();
        let b = place(&m, &exp, 32, 42, 3000).unwrap();
        assert_eq!(a.instr_pos, b.instr_pos);
    }
}
