//! Negotiated-congestion routing (Pathfinder-style) of dependences through
//! the circuit-switched mesh.
//!
//! Each systolic dependence needs a dedicated path; temporal dependences
//! may time-multiplex links. The router repeatedly routes every edge by
//! cheapest path, then raises the cost of over-subscribed links and
//! retries, converging to (near) conflict-free dedicated routes. Residual
//! sharing is reported and becomes an initiation-interval penalty, since a
//! shared circuit-switched link serializes its users.

use crate::instr::Expansion;
use crate::place::{edge_coords, Placement};
use crate::schedule::ScheduleError;
use revel_fabric::{FabricMask, Mesh, MeshCoord, MeshLink};
use std::collections::BinaryHeap;

/// Summary statistics of a routed configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouteStats {
    /// Total hops across all routed edges (per-firing network energy).
    pub total_hops: u32,
    /// Worst-case number of *dedicated* (systolic) edges sharing one link.
    /// 1 means perfectly circuit-switched; >1 costs II.
    pub max_link_sharing: u32,
    /// Number of router iterations used.
    pub iterations: u32,
}

/// Result of routing: one path per edge (parallel to `exp.edges`).
#[derive(Debug, Clone)]
pub struct Routing {
    /// Links traversed by each edge, in order. Empty when source and
    /// destination tiles coincide.
    pub edge_paths: Vec<Vec<MeshLink>>,
    /// Stats.
    pub stats: RouteStats,
}

/// A tile on Dijkstra's frontier.
#[derive(PartialEq)]
pub(crate) struct QueueEntry {
    pub(crate) cost: f64,
    pub(crate) coord: MeshCoord,
}

impl Eq for QueueEntry {}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on cost.
        other.cost.partial_cmp(&self.cost).unwrap_or(std::cmp::Ordering::Equal)
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Index of the directed link `from → to` (4-neighbours) in the router's
/// per-link arrays: four slots per tile, one per direction.
fn link_index(mesh: &Mesh, from: MeshCoord, to: MeshCoord) -> usize {
    let direction = if to.x < from.x {
        0
    } else if to.x > from.x {
        1
    } else if to.y < from.y {
        2
    } else {
        3
    };
    4 * mesh.tile_index(from) + direction
}

/// Dijkstra's working state, indexed by `Mesh::tile_index` and reused for
/// every edge of every negotiation round.
struct Search {
    mask: FabricMask,
    dist: Vec<f64>,
    prev: Vec<Option<MeshCoord>>,
    heap: BinaryHeap<QueueEntry>,
}

impl Search {
    fn new(mesh: &Mesh, mask: FabricMask) -> Self {
        let tiles = mesh.width() * mesh.height();
        Search { mask, dist: vec![0.0; tiles], prev: vec![None; tiles], heap: BinaryHeap::new() }
    }

    /// Writes the cheapest `from → to` path into `path`, a link costing
    /// `1 + history + usage / 2`; false when dead links disconnect the
    /// two tiles.
    fn shortest_path(
        &mut self,
        mesh: &Mesh,
        from: MeshCoord,
        to: MeshCoord,
        history: &[f64],
        usage: &[u32],
        path: &mut Vec<MeshLink>,
    ) -> bool {
        path.clear();
        if from == to {
            return true;
        }
        self.dist.fill(f64::INFINITY);
        self.prev.fill(None);
        self.heap.clear();
        self.dist[mesh.tile_index(from)] = 0.0;
        self.heap.push(QueueEntry { cost: 0.0, coord: from });
        while let Some(QueueEntry { cost, coord }) = self.heap.pop() {
            if coord == to {
                break;
            }
            if cost > self.dist[mesh.tile_index(coord)] {
                continue;
            }
            for n in mesh.neighbors_iter(coord) {
                // Dead links are severed in both directions. Dead *PEs* keep
                // their mesh switch (routing through a dead tile is allowed):
                // the circuit-switched network is a separate structure from
                // the FU datapath, so a stuck FU does not cut the crossbar.
                if mesh.link_bit(coord, n).is_some_and(|b| self.mask.link_dead(b)) {
                    continue;
                }
                let link = link_index(mesh, coord, n);
                let nd = cost + (1.0 + (history[link] + 0.5 * usage[link] as f64));
                let t = mesh.tile_index(n);
                if nd < self.dist[t] {
                    self.dist[t] = nd;
                    self.prev[t] = Some(coord);
                    self.heap.push(QueueEntry { cost: nd, coord: n });
                }
            }
        }
        // Reconstruct. On a healthy mesh the grid is connected, so Dijkstra
        // always reaches `to`; dead links can disconnect it.
        let mut cur = to;
        while cur != from {
            let Some(p) = self.prev[mesh.tile_index(cur)] else { return false };
            path.push(MeshLink { from: p, to: cur });
            cur = p;
        }
        path.reverse();
        true
    }
}

/// Routes every edge of the expansion with a fabric mask's dead links
/// excluded. `max_iterations` bounds the negotiation rounds; residual link
/// sharing is reported in [`RouteStats::max_link_sharing`]. The healthy
/// schedule passes [`FabricMask::HEALTHY`] — an empty mask and a degraded
/// one share this single code path, so an empty mask is byte-identical to
/// the healthy routing by construction.
///
/// Link costs live in dense per-link arrays: `history` (raised on
/// over-subscribed links after each round) and this round's `usage` by
/// dedicated edges, a link costing `1 + (history + 0.5 · usage)`.
///
/// # Errors
/// [`ScheduleError::Unroutable`] when dead links disconnect a producer
/// tile from its consumer (impossible for an empty mask: the grid is
/// connected).
pub fn route_degraded(
    mesh: &Mesh,
    exp: &Expansion,
    placement: &Placement,
    max_iterations: u32,
    mask: FabricMask,
) -> Result<Routing, ScheduleError> {
    let ends: Vec<(MeshCoord, MeshCoord)> =
        exp.edges.iter().map(|e| edge_coords(mesh, placement, e)).collect();
    let links = 4 * mesh.width() * mesh.height();
    let mut history = vec![0.0; links];
    let mut usage = vec![0u32; links];
    let mut search = Search::new(mesh, mask);
    let mut paths: Vec<Vec<MeshLink>> = vec![Vec::new(); exp.edges.len()];
    let mut stats = RouteStats::default();

    for iter in 0..max_iterations.max(1) {
        stats.iterations = iter + 1;
        // Route all edges with current costs: history plus this round's
        // usage so far.
        usage.fill(0);
        for ((edge, &(from, to)), path) in exp.edges.iter().zip(&ends).zip(&mut paths) {
            if !search.shortest_path(mesh, from, to, &history, &usage, path) {
                return Err(ScheduleError::Unroutable { from, to });
            }
            if edge.needs_dedicated_links() {
                for l in path.iter() {
                    usage[link_index(mesh, l.from, l.to)] += 1;
                }
            }
        }
        let max_sharing = usage.iter().copied().max().unwrap_or(1).max(1);
        stats.max_link_sharing = max_sharing;
        if max_sharing == 1 {
            break;
        }
        // Raise history cost on over-subscribed links and retry.
        for (h, &u) in history.iter_mut().zip(&usage) {
            if u > 1 {
                *h += u as f64;
            }
        }
    }
    stats.total_hops = paths.iter().map(|p| p.len() as u32).sum();
    Ok(Routing { edge_paths: paths, stats })
}

/// Total hops per firing of a particular region.
pub fn region_hops(exp: &Expansion, routing: &Routing, region: usize) -> u32 {
    exp.edges
        .iter()
        .zip(&routing.edge_paths)
        .filter(|(e, _)| e.region == region)
        .map(|(_, p)| p.len() as u32)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::expand;
    use crate::place::place;
    use revel_dfg::{Dfg, OpCode, Region};
    use revel_fabric::LaneConfig;
    use revel_isa::{InPortId, OutPortId};

    fn setup(unroll: usize) -> (Mesh, Expansion, Placement) {
        let mut g = Dfg::new("g");
        let a = g.input(InPortId(0));
        let b = g.input(InPortId(1));
        let m = g.op(OpCode::Mul, &[a, b]);
        let s = g.op(OpCode::Add, &[m, b]);
        g.output(s, OutPortId(0));
        let mesh = Mesh::for_lane(&LaneConfig::paper_default());
        let exp = expand(&[Region::systolic("g", g, unroll)]);
        let p = place(&mesh, &exp, 32, 11, 3000).unwrap();
        (mesh, exp, p)
    }

    #[test]
    fn paths_connect_endpoints() {
        let (mesh, exp, p) = setup(2);
        let r = route_degraded(&mesh, &exp, &p, 8, FabricMask::HEALTHY).unwrap();
        for (edge, path) in exp.edges.iter().zip(&r.edge_paths) {
            let (from, to) = edge_coords(&mesh, &p, edge);
            if from == to {
                assert!(path.is_empty());
                continue;
            }
            assert_eq!(path.first().unwrap().from, from);
            assert_eq!(path.last().unwrap().to, to);
            for w in path.windows(2) {
                assert_eq!(w[0].to, w[1].from, "path is contiguous");
            }
        }
    }

    #[test]
    fn small_graph_routes_conflict_free() {
        let (mesh, exp, p) = setup(1);
        let r = route_degraded(&mesh, &exp, &p, 8, FabricMask::HEALTHY).unwrap();
        assert_eq!(r.stats.max_link_sharing, 1, "dedicated links must not be shared");
    }

    #[test]
    fn hops_at_least_manhattan() {
        let (mesh, exp, p) = setup(2);
        let r = route_degraded(&mesh, &exp, &p, 8, FabricMask::HEALTHY).unwrap();
        for (edge, path) in exp.edges.iter().zip(&r.edge_paths) {
            let (from, to) = edge_coords(&mesh, &p, edge);
            assert!(path.len() as u32 >= mesh.manhattan(from, to));
        }
    }

    #[test]
    fn region_hop_totals() {
        let (mesh, exp, p) = setup(1);
        let r = route_degraded(&mesh, &exp, &p, 8, FabricMask::HEALTHY).unwrap();
        assert_eq!(region_hops(&exp, &r, 0), r.stats.total_hops);
    }
}
