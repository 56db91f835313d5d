//! The reference the hazard lint is tested against: every pair of accesses
//! of an epoch, each tested with a `BTreeSet` intersection — the lint as it
//! was before it became overlap-driven, kept whole (its own address sets,
//! epoch split and reachability closure) so that nothing the lint computes
//! is also what it is compared with. Quadratic in the accesses of an
//! epoch: a second on svd n=32.

use crate::context::{Cmd, Context, Segment, EXACT_ADDR_LIMIT};
use crate::diag::{Code, Diagnostic, Location};
use revel_isa::{LaneHop, MemTarget, StreamCommand};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

thread_local! {
    /// Same-epoch access pairs this thread has found overlapping: what the
    /// lint's complexity guard may visit at most.
    pub(super) static OVERLAPPING_PAIRS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The V006/V007 findings of `ctx`, in the order the lint must emit them.
pub(super) fn check(ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
    let max_segs = ctx.lanes.iter().map(|v| v.segments.len()).max().unwrap_or(0);
    for s in 0..max_segs {
        let flow = DataflowOrder::build(ctx, s);
        let max_epochs = ctx
            .lanes
            .iter()
            .filter_map(|v| v.segments.get(s))
            .map(|seg| epochs(seg).len())
            .max()
            .unwrap_or(0);
        for e in 0..max_epochs {
            // Lane-tagged accesses of this (segment, epoch) slice.
            let mut accesses: Vec<(u8, MemAccess)> = Vec::new();
            for view in &ctx.lanes {
                let Some(seg) = view.segments.get(s) else {
                    continue;
                };
                let epochs = epochs(seg);
                let Some(cmds) = epochs.get(e) else { continue };
                for a in epoch_accesses(cmds) {
                    accesses.push((view.lane, a));
                }
            }
            check_epoch(&accesses, &flow, out);
        }
    }
}

fn check_epoch(accesses: &[(u8, MemAccess)], flow: &DataflowOrder, out: &mut Vec<Diagnostic>) {
    let mut reported: HashSet<(usize, usize, u8, u8)> = HashSet::new();
    // Per-store memo of the in-ports its fine-grain store→load guard
    // orders behind it (loads on the store's lane, later in program
    // order, overlapping its addresses). Computed lazily: only stores
    // that actually participate in an overlapping WW pair need it.
    let mut guard_ports: Vec<Option<Vec<u8>>> = vec![None; accesses.len()];
    for (i, (la, a)) in accesses.iter().enumerate() {
        for (j, (lb, b)) in accesses.iter().enumerate().skip(i + 1) {
            if a.target != b.target {
                continue;
            }
            // Private scratchpads are per-lane; only same-lane accesses
            // can collide. Shared accesses collide across lanes.
            if a.target == MemTarget::Private && la != lb {
                continue;
            }
            if (a.index, a.port) == (b.index, b.port) && la == lb {
                continue; // the same specialized command, not a pair
            }
            if !a.addrs.overlaps(&b.addrs) {
                continue;
            }
            OVERLAPPING_PAIRS.with(|n| n.set(n.get() + 1));
            let key = (a.index.min(b.index), a.index.max(b.index), (*la).min(*lb), (*la).max(*lb));
            match (a.is_store, b.is_store) {
                (true, true) => {
                    let (older_pos, newer_pos) = if a.index <= b.index { (i, j) } else { (j, i) };
                    let (older_lane, older) = {
                        let (l, acc) = &accesses[older_pos];
                        (*l, acc)
                    };
                    let (newer_lane, newer) = {
                        let (l, acc) = &accesses[newer_pos];
                        (*l, acc)
                    };
                    // Two stores draining the same out-port of one lane
                    // serialize at issue (the port binds one stream at a
                    // time), so their writes land in program order.
                    if older_lane == newer_lane && older.port == newer.port {
                        continue;
                    }
                    // WAW ordered through the fine-grain store→load guard:
                    // if the newer store's data flows from a load (issued
                    // after the older store, on the older store's lane)
                    // that overlaps the older store's addresses, the guard
                    // holds that load — and hence the newer store — behind
                    // the older store's writes. This is the in-place
                    // recirculation idiom (SVD column rotations).
                    if guard_ports[older_pos].is_none() {
                        let mut set: HashSet<u8> = HashSet::new();
                        for (ll, l) in accesses.iter() {
                            if !l.is_store
                                && *ll == older_lane
                                && l.target == older.target
                                && l.index > older.index
                                && l.addrs.overlaps(&older.addrs)
                            {
                                set.insert(l.port);
                            }
                        }
                        guard_ports[older_pos] = Some(set.into_iter().collect());
                    }
                    let guard_ordered =
                        guard_ports[older_pos].as_ref().unwrap().iter().any(|&lp| {
                            flow.store_depends_on_load(newer_lane, newer.port, older_lane, lp)
                        });
                    if guard_ordered {
                        continue;
                    }
                    if reported.insert(key) {
                        out.push(Diagnostic::new(
                            Code::V006,
                            Location::command(newer.index).on_lane(newer_lane),
                            format!(
                                "store streams at commands {} and {} write overlapping \
                                 scratchpad addresses in the same barrier epoch; final \
                                 contents depend on drain interleaving",
                                a.index, b.index
                            ),
                        ));
                    }
                }
                (false, true) | (true, false) => {
                    let ((load_lane, load), (store_lane, store)) =
                        if a.is_store { ((*lb, b), (*la, a)) } else { ((*la, a), (*lb, b)) };
                    // Store issued first, load later: the scratchpad stream
                    // control orders the reload behind the store at element
                    // granularity (fine-grain RAW guard), so that direction
                    // is safe by construction.
                    if store.index < load.index {
                        continue;
                    }
                    // Load first, store later (WAR): safe only if the
                    // store's data provably flows from that load.
                    if flow.store_depends_on_load(store_lane, store.port, load_lane, load.port) {
                        continue;
                    }
                    if reported.insert(key) {
                        out.push(Diagnostic::new(
                            Code::V007,
                            Location::command(store.index).on_lane(store_lane),
                            format!(
                                "store (command {}) may overwrite addresses the load at \
                                 command {} still reads, and its data does not flow from \
                                 that load; add a BarrierScratch between them",
                                store.index, load.index
                            ),
                        ));
                    }
                }
                (false, false) => {}
            }
        }
    }
}

/// Dataflow/ordering reachability for one segment index, across all
/// lanes: which out-ports are (transitively) ordered behind which
/// in-ports. Used to suppress V006/V007 where the ordering already
/// serializes the memory accesses.
struct DataflowOrder {
    /// Precomputed closure: for each `(lane, in-port)` node, the set of
    /// `(lane, out-port)` nodes transitively reachable from it. The edge
    /// relation alternates `(lane, in-port) -> (lane, out-port)` via
    /// region bindings and `(lane, out-port) -> (lane, in-port)` via XFER
    /// streams *and* via the scratchpad store→load guard (a load issued
    /// after a store whose addresses it overlaps is held behind that
    /// store, so the store's out-port orders the load's in-port). The
    /// node universe is tiny (lanes × ports), so materializing the full
    /// closure up front makes every hazard-pair query O(1).
    reach: HashMap<(u8, u8), HashSet<(u8, u8)>>,
}

/// `(lane, port) -> [(lane, port)]` adjacency, keyed once per source.
type EdgeList = Vec<((u8, u8), Vec<(u8, u8)>)>;

impl DataflowOrder {
    fn build(ctx: &Context<'_>, s: usize) -> Self {
        let mut in_to_out: EdgeList = Vec::new();
        let mut out_to_in: EdgeList = Vec::new();
        let num_lanes = ctx.lanes.len();
        for (l, view) in ctx.lanes.iter().enumerate() {
            let Some(seg) = view.segments.get(s) else {
                continue;
            };
            for region in &ctx.program.configs[seg.config] {
                let outs: Vec<(u8, u8)> =
                    region.output_ports().iter().map(|p| (view.lane, p.0)).collect();
                for (p, _) in region.input_bindings() {
                    push_edge(&mut in_to_out, (view.lane, p.0), &outs);
                }
            }
            for c in &seg.cmds {
                if let StreamCommand::Xfer { route, .. } = &c.cmd {
                    let dst_lane = match route.hop {
                        LaneHop::Right if num_lanes > 1 => ((l + 1) % num_lanes) as u8,
                        _ => view.lane,
                    };
                    push_edge(&mut out_to_in, (view.lane, route.src.0), &[(dst_lane, route.dst.0)]);
                }
            }
            // Memory-mediated ordering: the fine-grain store→load guard
            // holds a load behind every earlier same-lane store whose
            // addresses it overlaps, so data recirculated through the
            // scratchpad (store out-port → guarded load in-port) is
            // ordered just like an XFER.
            let accesses = epoch_accesses(&seg.cmds);
            for st in accesses.iter().filter(|a| a.is_store) {
                for ld in accesses.iter().filter(|a| !a.is_store) {
                    if ld.index > st.index && ld.target == st.target && ld.addrs.overlaps(&st.addrs)
                    {
                        push_edge(&mut out_to_in, (view.lane, st.port), &[(view.lane, ld.port)]);
                    }
                }
            }
        }
        // Materialize the closure: one BFS per in-port node that can
        // start a chain (fed by a load or targeted by an XFER/guard).
        let in_map: HashMap<(u8, u8), Vec<(u8, u8)>> = in_to_out.into_iter().collect();
        let out_map: HashMap<(u8, u8), Vec<(u8, u8)>> = out_to_in.into_iter().collect();
        let mut starts: HashSet<(u8, u8)> = in_map.keys().copied().collect();
        starts.extend(out_map.values().flatten().copied());
        let mut reach = HashMap::new();
        for &start in &starts {
            let mut outs: HashSet<(u8, u8)> = HashSet::new();
            let mut seen: HashSet<(bool, u8, u8)> = HashSet::new();
            let mut queue: VecDeque<(bool, u8, u8)> = VecDeque::new();
            queue.push_back((false, start.0, start.1)); // false = in-port
            while let Some(node) = queue.pop_front() {
                if !seen.insert(node) {
                    continue;
                }
                let (is_out, lane, port) = node;
                if is_out {
                    outs.insert((lane, port));
                }
                let map = if is_out { &out_map } else { &in_map };
                if let Some(tos) = map.get(&(lane, port)) {
                    for &(tl, tp) in tos {
                        queue.push_back((!is_out, tl, tp));
                    }
                }
            }
            reach.insert(start, outs);
        }
        DataflowOrder { reach }
    }

    /// True if data entering `(load_lane, load_port)` can reach
    /// `(store_lane, store_port)` through regions and XFERs.
    fn store_depends_on_load(
        &self,
        store_lane: u8,
        store_port: u8,
        load_lane: u8,
        load_port: u8,
    ) -> bool {
        self.reach
            .get(&(load_lane, load_port))
            .is_some_and(|outs| outs.contains(&(store_lane, store_port)))
    }
}

fn push_edge(edges: &mut EdgeList, from: (u8, u8), tos: &[(u8, u8)]) {
    if let Some((_, v)) = edges.iter_mut().find(|(f, _)| *f == from) {
        v.extend_from_slice(tos);
    } else {
        edges.push((from, tos.to_vec()));
    }
}

/// Splits the segment at its synchronization commands: `Wait` drains
/// all streams and `BarrierScratch` orders scratchpad traffic, so
/// accesses in different epochs cannot race.
fn epochs(seg: &Segment) -> Vec<&[Cmd]> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for (i, c) in seg.cmds.iter().enumerate() {
        if matches!(c.cmd, StreamCommand::Wait | StreamCommand::BarrierScratch) {
            out.push(&seg.cmds[start..i]);
            start = i + 1;
        }
    }
    out.push(&seg.cmds[start..]);
    out
}

/// The word addresses a lane-specialized load/store touches, as an exact
/// set when the pattern is small and as a dense range otherwise. Used by
/// the scratchpad hazard lints for overlap tests.
#[derive(Debug, Clone)]
enum AddrSet {
    /// Every distinct address (patterns up to `EXACT_ADDR_LIMIT` elems).
    Exact(BTreeSet<i64>),
    /// Conservative `[lo, hi]` bounding range.
    Range(i64, i64),
}

impl AddrSet {
    /// Builds the address set of an affine pattern.
    fn of(pattern: &revel_isa::AffinePattern) -> Option<AddrSet> {
        let (lo, hi) = pattern.addr_range()?;
        if pattern.total_elems() <= EXACT_ADDR_LIMIT {
            Some(AddrSet::Exact(pattern.iter().map(|e| e.offset).collect()))
        } else {
            Some(AddrSet::Range(lo, hi))
        }
    }

    /// The `[lo, hi]` bounding range (empty sets yield an empty range).
    fn bounds(&self) -> (i64, i64) {
        match self {
            AddrSet::Exact(s) => (s.first().copied().unwrap_or(0), s.last().copied().unwrap_or(-1)),
            AddrSet::Range(lo, hi) => (*lo, *hi),
        }
    }

    /// True if the two sets share at least one address.
    fn overlaps(&self, other: &AddrSet) -> bool {
        // Cheap bounding-range rejection first: the hazard lints compare
        // accesses pairwise, and almost all pairs (different columns,
        // different buffers) have disjoint ranges.
        let (a0, a1) = self.bounds();
        let (b0, b1) = other.bounds();
        if a0 > b1 || b0 > a1 {
            return false;
        }
        match (self, other) {
            (AddrSet::Exact(a), AddrSet::Exact(b)) => {
                // Iterate the smaller set.
                let (small, big) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                small.iter().any(|x| big.contains(x))
            }
            (AddrSet::Exact(a), AddrSet::Range(lo, hi))
            | (AddrSet::Range(lo, hi), AddrSet::Exact(a)) => a.range(*lo..=*hi).next().is_some(),
            (AddrSet::Range(a0, a1), AddrSet::Range(b0, b1)) => a0 <= b1 && b0 <= a1,
        }
    }
}

/// A memory access extracted from a command, for the hazard lints.
#[derive(Debug, Clone)]
struct MemAccess {
    /// Control-step index.
    index: usize,
    /// True for stores.
    is_store: bool,
    /// Which scratchpad.
    target: MemTarget,
    /// Addresses touched.
    addrs: AddrSet,
    /// For loads: the in-port fed. For stores: the out-port drained.
    port: u8,
}

/// Extracts the scratchpad accesses of one epoch on one lane.
fn epoch_accesses(cmds: &[Cmd]) -> Vec<MemAccess> {
    let mut out = Vec::new();
    for c in cmds {
        match &c.cmd {
            StreamCommand::Load { target, pattern, dst, .. } => {
                if let Some(addrs) = AddrSet::of(pattern) {
                    out.push(MemAccess {
                        index: c.index,
                        is_store: false,
                        target: *target,
                        addrs,
                        port: dst.0,
                    });
                }
            }
            StreamCommand::Store { src, target, pattern, .. } => {
                if let Some(addrs) = AddrSet::of(pattern) {
                    out.push(MemAccess {
                        index: c.index,
                        is_store: true,
                        target: *target,
                        addrs,
                        port: src.0,
                    });
                }
            }
            _ => {}
        }
    }
    out
}
