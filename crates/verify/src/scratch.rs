//! Scratchpad hazard analysis: out-of-bounds patterns (V005), write-write
//! races (V006), and write-after-read hazards (V007) between streams not
//! separated by a barrier.

use crate::context::{AddrSet, Context};
use crate::diag::{Code, Diagnostic, Location};
use crate::Lint;
use revel_isa::{AffinePattern, LaneHop, MemTarget, StreamCommand};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

#[cfg(test)]
mod differential;
#[cfg(test)]
mod oracle;

/// V005: every lane-specialized load/store must stay inside its
/// scratchpad. The bounds check every run takes, reported as a diagnostic
/// with full location info.
pub struct AddressBounds;

impl Lint for AddressBounds {
    fn name(&self) -> &'static str {
        "address-bounds"
    }

    fn codes(&self) -> &'static [Code] {
        &[Code::V005]
    }

    fn check(&self, ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
        for view in &ctx.lanes {
            let all_cmds =
                view.pre_config.iter().chain(view.segments.iter().flat_map(|s| s.cmds.iter()));
            for c in all_cmds {
                let (target, pattern) = match &c.cmd {
                    StreamCommand::Load { target, pattern, .. }
                    | StreamCommand::Store { target, pattern, .. } => (*target, pattern),
                    _ => continue,
                };
                let limit = match target {
                    MemTarget::Private => ctx.cfg.lane.spad_words,
                    MemTarget::Shared => ctx.cfg.shared_spad_words,
                };
                if let Some((lo, hi)) = pattern.addr_range() {
                    if lo < 0 || hi >= limit as i64 {
                        let which = match target {
                            MemTarget::Private => "private",
                            MemTarget::Shared => "shared",
                        };
                        out.push(Diagnostic::new(
                            Code::V005,
                            Location::command(c.index).on_lane(view.lane),
                            format!(
                                "stream touches {which} scratchpad words {lo}..={hi}, outside \
                                 the {limit}-word {which} scratchpad"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// V006 + V007: races between concurrent streams of one barrier epoch.
///
/// Decided per stream class: per segment index the accesses of all lanes
/// are laid out once, equal address sets share one id, the overlap
/// relation is computed between *distinct* sets, and the accesses of an
/// epoch that share lane, scratchpad, set, port and direction form one
/// class. An epoch whose classes cannot race is cleared without looking
/// at an access pair; any other epoch is walked pair by pair — only pairs
/// whose sets collide, in the ascending (i, j) order an all-pairs scan
/// would reach them — so the findings and their order are those of the
/// pairwise reference (`oracle`, tests only).
pub struct ScratchHazards;

impl Lint for ScratchHazards {
    fn name(&self) -> &'static str {
        "scratch-hazards"
    }

    fn codes(&self) -> &'static [Code] {
        &[Code::V006, Code::V007]
    }

    fn check(&self, ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
        let max_segs = ctx.lanes.iter().map(|v| v.segments.len()).max().unwrap_or(0);
        for s in 0..max_segs {
            let seg = SegmentAccesses::build(ctx, s);
            let flow = DataflowOrder::build(ctx, s, &seg);
            check_segment(&seg, &flow, out);
        }
    }
}

/// One scratchpad access: a lane-specialized load or store.
#[derive(Debug)]
struct Access {
    /// `Wait`/`BarrierScratch` commands before it in its lane's segment.
    /// `Wait` drains all streams and `BarrierScratch` orders scratchpad
    /// traffic, so accesses of different epochs cannot race.
    epoch: u32,
    lane: u8,
    /// Control-step index.
    index: usize,
    is_store: bool,
    target: MemTarget,
    /// For loads: the in-port fed. For stores: the out-port drained.
    port: u8,
    /// Id of the interned address set.
    set: u32,
}

impl Access {
    /// What makes two accesses interchangeable to the rules — epoch, set,
    /// lane, scratchpad, port, direction — packed so that integer order is
    /// that tuple's order, with the low 32 bits left clear.
    fn class_key(&self) -> u128 {
        let shared = self.target == MemTarget::Shared;
        u128::from(self.epoch) << 96
            | u128::from(self.set) << 64
            | u128::from(self.lane) << 56
            | u128::from(shared) << 48
            | u128::from(self.port) << 40
            | u128::from(self.is_store) << 32
    }
}

/// The accesses of one epoch that share lane, scratchpad, address set,
/// port and direction: every rule of `check_segment` reads only these
/// fields and the command indices, so a class stands for all its accesses.
struct StreamClass {
    epoch: u32,
    set: u32,
    lane: u8,
    target: MemTarget,
    port: u8,
    is_store: bool,
    /// First and last command index.
    first: usize,
    last: usize,
    /// Its accesses' positions, in program order: a range of
    /// `SegmentAccesses::members`.
    members: Range<usize>,
}

/// The scratchpad accesses of every lane's segment `s`, with the overlap
/// relation of their address sets.
struct SegmentAccesses {
    /// Ordered by (epoch, lane, program order): an epoch's accesses are
    /// contiguous, and within one lane position order is command order.
    accesses: Vec<Access>,
    /// Per distinct address set, the ids of the sets it shares an address
    /// with, ascending (itself included).
    overlapping: Vec<Vec<u32>>,
    /// Per distinct address set, the positions in `accesses` that touch it,
    /// ascending.
    by_set: Vec<Vec<u32>>,
    /// Ordered by (epoch, set, lane, scratchpad, port, direction): an
    /// epoch's classes are contiguous, and within one epoch a set's.
    classes: Vec<StreamClass>,
    /// Positions in `accesses`, grouped by class.
    members: Vec<u32>,
}

impl SegmentAccesses {
    fn build(ctx: &Context<'_>, s: usize) -> Self {
        let mut accesses = Vec::new();
        let mut interner = Interner::default();
        for view in &ctx.lanes {
            let Some(seg) = view.segments.get(s) else {
                continue;
            };
            let mut epoch = 0u32;
            for c in &seg.cmds {
                let (is_store, target, pattern, port) = match &c.cmd {
                    StreamCommand::Load { target, pattern, dst, .. } => {
                        (false, *target, pattern, dst.0)
                    }
                    StreamCommand::Store { src, target, pattern, .. } => {
                        (true, *target, pattern, src.0)
                    }
                    StreamCommand::Wait | StreamCommand::BarrierScratch => {
                        epoch += 1;
                        continue;
                    }
                    _ => continue,
                };
                // An empty pattern touches nothing.
                if let Some(set) = interner.intern(pattern) {
                    let (lane, index) = (view.lane, c.index);
                    accesses.push(Access { epoch, lane, index, is_store, target, port, set });
                }
            }
        }
        // Lane-major so far; the sort is stable.
        accesses.sort_by_key(|a| a.epoch);

        let sets = interner.into_sets();
        let mut by_set: Vec<Vec<u32>> = vec![Vec::new(); sets.len()];
        for (pos, a) in accesses.iter().enumerate() {
            by_set[a.set as usize].push(pos as u32);
        }

        // Sweep by lower bound: only sets whose bounding ranges intersect
        // are compared exactly. Every set here is non-empty (`AddrSet::of`
        // yields none for an empty pattern), so each overlaps itself.
        let mut overlapping: Vec<Vec<u32>> = (0..sets.len() as u32).map(|a| vec![a]).collect();
        let mut by_lo: Vec<u32> = (0..sets.len() as u32).collect();
        by_lo.sort_by_key(|&a| sets[a as usize].bounds().0);
        for (k, &a) in by_lo.iter().enumerate() {
            let hi = sets[a as usize].bounds().1;
            for &b in &by_lo[k + 1..] {
                if sets[b as usize].bounds().0 > hi {
                    break;
                }
                if sets[a as usize].overlaps(&sets[b as usize]) {
                    overlapping[a as usize].push(b);
                    overlapping[b as usize].push(a);
                }
            }
        }
        for ids in &mut overlapping {
            ids.sort_unstable();
        }
        let (classes, members) = stream_classes(&accesses);
        SegmentAccesses { accesses, overlapping, by_set, classes, members }
    }

    /// Appends the positions after `i`, in `i`'s epoch, of the accesses
    /// whose address set overlaps access `i`'s (grouped by set, so not in
    /// position order).
    fn later_overlapping(&self, i: usize, out: &mut Vec<u32>) {
        let a = &self.accesses[i];
        for &set in &self.overlapping[a.set as usize] {
            let positions = &self.by_set[set as usize];
            let after = positions.partition_point(|&p| p as usize <= i);
            out.extend(
                positions[after..]
                    .iter()
                    .take_while(|&&p| self.accesses[p as usize].epoch == a.epoch),
            );
        }
    }
}

/// The stream classes of `accesses` and their members: one integer sort of
/// class key and position lays each class's accesses out together, in
/// program order.
fn stream_classes(accesses: &[Access]) -> (Vec<StreamClass>, Vec<u32>) {
    let mut keyed: Vec<u128> =
        accesses.iter().enumerate().map(|(p, a)| a.class_key() | p as u128).collect();
    keyed.sort_unstable();
    let mut classes: Vec<StreamClass> = Vec::new();
    for (k, &key) in keyed.iter().enumerate() {
        let a = &accesses[key as u32 as usize];
        match classes.last_mut() {
            Some(c) if keyed[k - 1] >> 32 == key >> 32 => {
                c.last = a.index;
                c.members.end = k + 1;
            }
            _ => classes.push(StreamClass {
                epoch: a.epoch,
                set: a.set,
                lane: a.lane,
                target: a.target,
                port: a.port,
                is_store: a.is_store,
                first: a.index,
                last: a.index,
                members: k..k + 1,
            }),
        }
    }
    (classes, keyed.iter().map(|&key| key as u32).collect())
}

/// FxHash's multiply-rotate hash, one multiply per 64-bit word. The
/// interner's maps key every access's pattern and every distinct address
/// set, so their hash is on the lint's hot path, and a program is not
/// adversarial input.
#[derive(Default, Clone, Copy)]
struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    // Patterns hash as `i64` fields, sets as a discriminant, a length and
    // a slice of `i64`: the signed writers forward to these two.
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// Gives equal address sets one id, so overlap is decided between the
/// distinct sets of a segment instead of between its accesses.
#[derive(Default)]
struct Interner {
    /// A pattern seen before needs no set built (`None`: it is empty).
    by_pattern: WordMap<AffinePattern, Option<u32>>,
    /// Different patterns can touch the same words.
    by_contents: WordMap<AddrSet, u32>,
}

impl Interner {
    fn intern(&mut self, pattern: &AffinePattern) -> Option<u32> {
        if let Some(&id) = self.by_pattern.get(pattern) {
            return id;
        }
        let next = self.by_contents.len() as u32;
        let id = AddrSet::of(pattern).map(|set| *self.by_contents.entry(set).or_insert(next));
        self.by_pattern.insert(*pattern, id);
        id
    }

    /// The distinct sets, by id.
    fn into_sets(self) -> Vec<AddrSet> {
        let mut sets: Vec<(u32, AddrSet)> =
            self.by_contents.into_iter().map(|(set, id)| (id, set)).collect();
        sets.sort_unstable_by_key(|(id, _)| *id);
        sets.into_iter().map(|(_, set)| set).collect()
    }
}

#[cfg(test)]
thread_local! {
    /// Access pairs `check_segment` has examined on this thread.
    static PAIRS_VISITED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Stream-class pairs `epoch_may_race` has compared on this thread.
    static CLASS_PAIRS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Epochs `check_segment` cleared by class / walked pair by pair.
    static EPOCHS_CLEARED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static EPOCHS_WALKED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn check_segment(seg: &SegmentAccesses, flow: &DataflowOrder, out: &mut Vec<Diagnostic>) {
    let accesses = &seg.accesses;
    // One finding per command pair per epoch.
    let mut reported: HashSet<(usize, usize, u8, u8)> = HashSet::new();
    // Per-store memo of the in-ports its fine-grain store→load guard
    // orders behind it (loads on the store's lane, later in program
    // order, overlapping its addresses). Computed lazily: only stores
    // that actually participate in an overlapping WW pair need it.
    let mut guard_ports: Vec<Option<Vec<u8>>> = Vec::new();
    let mut later: Vec<u32> = Vec::new();
    let (mut classes, mut walk) = (&seg.classes[..], false);
    for (i, a) in accesses.iter().enumerate() {
        if i == 0 || accesses[i - 1].epoch != a.epoch {
            // A new epoch: walk it only if its stream classes may race.
            let (epoch, rest) = classes.split_at(classes.partition_point(|c| c.epoch == a.epoch));
            classes = rest;
            walk = epoch_may_race(seg, epoch, flow);
            #[cfg(test)]
            (if walk { &EPOCHS_WALKED } else { &EPOCHS_CLEARED }).with(|n| n.set(n.get() + 1));
            if walk {
                guard_ports.resize(accesses.len(), None);
            }
            reported.clear();
        }
        if !walk {
            continue;
        }
        // Ascending positions: the order an all-pairs scan meets them in,
        // which fixes both the order of the findings and which pair of a
        // `reported` key is the one that speaks.
        later.clear();
        seg.later_overlapping(i, &mut later);
        later.sort_unstable();
        for &j in &later {
            let j = j as usize;
            let b = &accesses[j];
            #[cfg(test)]
            PAIRS_VISITED.with(|n| n.set(n.get() + 1));
            if a.target != b.target {
                continue;
            }
            // Private scratchpads are per-lane; only same-lane accesses
            // can collide. Shared accesses collide across lanes.
            if a.target == MemTarget::Private && a.lane != b.lane {
                continue;
            }
            if (a.index, a.port) == (b.index, b.port) && a.lane == b.lane {
                continue; // the same specialized command, not a pair
            }
            let key = (
                a.index.min(b.index),
                a.index.max(b.index),
                a.lane.min(b.lane),
                a.lane.max(b.lane),
            );
            match (a.is_store, b.is_store) {
                (true, true) => {
                    let (older_pos, newer_pos) = if a.index <= b.index { (i, j) } else { (j, i) };
                    let (older, newer) = (&accesses[older_pos], &accesses[newer_pos]);
                    // Two stores draining the same out-port of one lane
                    // serialize at issue (the port binds one stream at a
                    // time), so their writes land in program order.
                    if older.lane == newer.lane && older.port == newer.port {
                        continue;
                    }
                    // WAW ordered through the fine-grain store→load guard:
                    // if the newer store's data flows from a load (issued
                    // after the older store, on the older store's lane)
                    // that overlaps the older store's addresses, the guard
                    // holds that load — and hence the newer store — behind
                    // the older store's writes. This is the in-place
                    // recirculation idiom (SVD column rotations).
                    let ports = guard_ports[older_pos].get_or_insert_with(|| {
                        // Later positions of the older store's lane are
                        // its later commands.
                        let mut same_epoch = Vec::new();
                        seg.later_overlapping(older_pos, &mut same_epoch);
                        let mut ports: Vec<u8> = same_epoch
                            .iter()
                            .map(|&p| &accesses[p as usize])
                            .filter(|l| {
                                !l.is_store && l.lane == older.lane && l.target == older.target
                            })
                            .map(|l| l.port)
                            .collect();
                        ports.sort_unstable();
                        ports.dedup();
                        ports
                    });
                    let guard_ordered = ports.iter().any(|&lp| {
                        flow.store_depends_on_load(newer.lane, newer.port, older.lane, lp)
                    });
                    if guard_ordered {
                        continue;
                    }
                    if reported.insert(key) {
                        out.push(Diagnostic::new(
                            Code::V006,
                            Location::command(newer.index).on_lane(newer.lane),
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
                    let (load, store) = if a.is_store { (b, a) } else { (a, b) };
                    // Store issued first, load later: the scratchpad stream
                    // control orders the reload behind the store at element
                    // granularity (fine-grain RAW guard), so that direction
                    // is safe by construction.
                    if store.index < load.index {
                        continue;
                    }
                    // Load first, store later (WAR): safe only if the
                    // store's data provably flows from that load.
                    if flow.store_depends_on_load(store.lane, store.port, load.lane, load.port) {
                        continue;
                    }
                    if reported.insert(key) {
                        out.push(Diagnostic::new(
                            Code::V007,
                            Location::command(store.index).on_lane(store.lane),
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

/// False only if no access pair of one epoch, whose stream classes are
/// `classes`, can raise V006 or V007 — decided without looking at an
/// access pair. Sound, not exact: a `true` only means the epoch is walked
/// pair by pair.
///
/// - WAR needs a load before a store of overlapping classes: some load of
///   the load class precedes some store of the store class iff the load
///   class's first index is below the store class's last, and whether the
///   store's data flows from the load is a property of the two classes.
/// - WAW, with class `c` holding the older store: the later a store of `c`,
///   the fewer guarded loads follow it, so testing the latest store of `c`
///   that still has a newer store in the other class covers every older
///   store of `c`. A tie (one command broadcast to two lanes) counts as
///   newer, which only shrinks the guard set tested.
fn epoch_may_race(seg: &SegmentAccesses, classes: &[StreamClass], flow: &DataflowOrder) -> bool {
    // `(store class, last index, in-port)` of the same-lane load classes
    // overlapping a store class, by store class: its guard candidates.
    let mut guards: Vec<(usize, usize, u8)> = Vec::new();
    let mut store_pairs: Vec<(usize, usize)> = Vec::new();
    // Every race has a store on one side: start from the store classes.
    for (x, c) in classes.iter().enumerate().filter(|(_, c)| c.is_store) {
        for &set in &seg.overlapping[c.set as usize] {
            // An epoch's classes are sorted by set.
            let from = classes.partition_point(|d| d.set < set);
            for (y, d) in classes.iter().enumerate().skip(from) {
                if d.set != set {
                    break;
                }
                if d.is_store && y <= x {
                    continue; // each pair of store classes once
                }
                #[cfg(test)]
                CLASS_PAIRS.with(|n| n.set(n.get() + 1));
                if c.target != d.target || (c.target == MemTarget::Private && c.lane != d.lane) {
                    continue;
                }
                if d.is_store {
                    if c.lane != d.lane || c.port != d.port {
                        store_pairs.push((x, y));
                    }
                    continue;
                }
                if d.first < c.last && !flow.store_depends_on_load(c.lane, c.port, d.lane, d.port) {
                    return true;
                }
                if d.lane == c.lane {
                    guards.push((x, d.last, d.port));
                }
            }
        }
    }

    let unguarded = |older: usize, newer: usize| {
        let (c, d) = (&classes[older], &classes[newer]);
        let stores = &seg.members[c.members.clone()];
        let before = stores.partition_point(|&p| seg.accesses[p as usize].index <= d.last);
        let Some(&latest) = stores[..before].last() else {
            return false; // no store of `c` is older than one of `d`
        };
        let latest = seg.accesses[latest as usize].index;
        let from = guards.partition_point(|g| g.0 < older);
        !guards[from..].iter().take_while(|g| g.0 == older).any(|&(_, last, port)| {
            last > latest && flow.store_depends_on_load(d.lane, d.port, c.lane, port)
        })
    };
    store_pairs.iter().any(|&(x, y)| unguarded(x, y) || unguarded(y, x))
}

/// A `(lane, port)` node of the ordering graph.
type Node = (u8, u8);

/// Dataflow/ordering reachability for one segment index, across all
/// lanes: which out-ports are (transitively) ordered behind which
/// in-ports. Used to suppress V006/V007 where the ordering already
/// serializes the memory accesses.
struct DataflowOrder {
    /// The `(lane, in-port)` nodes that can start a chain (bound by a
    /// region, or targeted by an XFER or the store→load guard), ascending.
    ins: Vec<Node>,
    /// The `(lane, out-port)` nodes of the graph, ascending.
    outs: Vec<Node>,
    /// Precomputed closure, one row of `row_words` words per `ins` node:
    /// bit `o` is set if `outs[o]` is transitively reachable from it. The
    /// edge relation alternates `(lane, in-port) -> (lane, out-port)` via
    /// region bindings and `(lane, out-port) -> (lane, in-port)` via XFER
    /// streams *and* via the scratchpad store→load guard (a load issued
    /// after a store whose addresses it overlaps is held behind that
    /// store, so the store's out-port orders the load's in-port). The
    /// node universe is tiny (the lanes × ports the segment uses), so
    /// materializing the full closure up front makes every hazard-pair
    /// query two bisections and a bit test.
    reach: Vec<u64>,
    row_words: usize,
}

impl DataflowOrder {
    fn build(ctx: &Context<'_>, s: usize, accesses: &SegmentAccesses) -> Self {
        let mut in_to_out: Vec<(Node, Node)> = Vec::new();
        let mut out_to_in: Vec<(Node, Node)> = Vec::new();
        let num_lanes = ctx.lanes.len();
        for (l, view) in ctx.lanes.iter().enumerate() {
            let Some(seg) = view.segments.get(s) else {
                continue;
            };
            for region in &ctx.program.configs[seg.config] {
                let outs = region.output_ports();
                for (p, _) in region.input_bindings() {
                    in_to_out.extend(outs.iter().map(|o| ((view.lane, p.0), (view.lane, o.0))));
                }
            }
            for c in &seg.cmds {
                if let StreamCommand::Xfer { route, .. } = &c.cmd {
                    let dst_lane = match route.hop {
                        LaneHop::Right if num_lanes > 1 => ((l + 1) % num_lanes) as u8,
                        _ => view.lane,
                    };
                    out_to_in.push(((view.lane, route.src.0), (dst_lane, route.dst.0)));
                }
            }
        }
        guard_edges(accesses, &mut out_to_in);
        // A long segment repeats its few distinct edges thousands of times.
        for edges in [&mut in_to_out, &mut out_to_in] {
            edges.sort_unstable();
            edges.dedup();
        }

        let mut ins: Vec<Node> =
            in_to_out.iter().map(|e| e.0).chain(out_to_in.iter().map(|e| e.1)).collect();
        ins.sort_unstable();
        ins.dedup();
        let mut outs: Vec<Node> =
            in_to_out.iter().map(|e| e.1).chain(out_to_in.iter().map(|e| e.0)).collect();
        outs.sort_unstable();
        outs.dedup();
        let id = |nodes: &[Node], n: Node| nodes.binary_search(&n).expect("endpoint of an edge");
        let mut in_adj: Vec<Vec<usize>> = vec![Vec::new(); ins.len()];
        for (i, o) in in_to_out {
            in_adj[id(&ins, i)].push(id(&outs, o));
        }
        let mut out_adj: Vec<Vec<usize>> = vec![Vec::new(); outs.len()];
        for (o, i) in out_to_in {
            out_adj[id(&outs, o)].push(id(&ins, i));
        }

        // Materialize the closure: one walk per in-port node.
        let row_words = outs.len().div_ceil(64);
        let mut reach = vec![0u64; ins.len() * row_words];
        let mut seen_in = vec![false; ins.len()];
        let mut stack = Vec::new();
        for start in 0..ins.len() {
            let row = &mut reach[start * row_words..(start + 1) * row_words];
            seen_in.fill(false);
            seen_in[start] = true;
            stack.push(start);
            while let Some(i) = stack.pop() {
                for &o in &in_adj[i] {
                    if row[o / 64] >> (o % 64) & 1 == 1 {
                        continue;
                    }
                    row[o / 64] |= 1 << (o % 64);
                    for &next in &out_adj[o] {
                        if !std::mem::replace(&mut seen_in[next], true) {
                            stack.push(next);
                        }
                    }
                }
            }
        }
        DataflowOrder { ins, outs, reach, row_words }
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
        let (Ok(i), Ok(o)) = (
            self.ins.binary_search(&(load_lane, load_port)),
            self.outs.binary_search(&(store_lane, store_port)),
        ) else {
            return false;
        };
        self.reach[i * self.row_words + o / 64] >> (o % 64) & 1 == 1
    }
}

/// Memory-mediated ordering: the fine-grain store→load guard holds a load
/// behind every earlier same-lane store whose addresses it overlaps —
/// anywhere in the segment, barriers or not — so data recirculated through
/// the scratchpad (store out-port → guarded load in-port) is ordered just
/// like an XFER.
fn guard_edges(seg: &SegmentAccesses, out_to_in: &mut Vec<(Node, Node)>) {
    // An edge needs only *some* store of (port, set) older than *some*
    // overlapping load of (port, set): keep the oldest such store and the
    // newest such load of each lane and scratchpad (from the stream
    // classes of every epoch), and pair those that the overlap relation
    // joins.
    type Stream = (u8, bool, u32, u8); // lane, shared, set, port
    let stream = |c: &StreamClass| (c.lane, c.target == MemTarget::Shared, c.set, c.port);
    let mut stores: Vec<(Stream, usize)> = Vec::new();
    let mut loads: Vec<(Stream, std::cmp::Reverse<usize>)> = Vec::new();
    for c in &seg.classes {
        if c.is_store {
            stores.push((stream(c), c.first));
        } else {
            loads.push((stream(c), std::cmp::Reverse(c.last)));
        }
    }
    stores.sort_unstable();
    stores.dedup_by_key(|(k, _)| *k);
    loads.sort_unstable();
    loads.dedup_by_key(|(k, _)| *k);
    for &((lane, shared, store_set, store_port), oldest) in &stores {
        for &load_set in &seg.overlapping[store_set as usize] {
            let space = (lane, shared, load_set);
            let from = loads.partition_point(|&((l, sh, set, _), _)| (l, sh, set) < space);
            for &((l, sh, set, load_port), std::cmp::Reverse(newest)) in &loads[from..] {
                if (l, sh, set) != space {
                    break;
                }
                if newest > oldest {
                    out_to_in.push(((lane, store_port), (lane, load_port)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::test_util::*;
    use crate::{run_lint, Code};
    use revel_isa::{AffinePattern, MemTarget, OutPortId, RateFsm, StreamCommand};

    #[test]
    fn oob_load_is_v005() {
        let mut p = neg_program(&[0], 6);
        let spad = single_lane().lane.spad_words as i64;
        push1(
            &mut p,
            StreamCommand::load(
                MemTarget::Private,
                AffinePattern::linear(spad - 2, 8),
                revel_isa::InPortId(0),
                RateFsm::ONCE,
            ),
        );
        push1(&mut p, store_priv(6, 0, 8));
        let diags = run_lint(&super::AddressBounds, &p, &single_lane());
        assert_eq!(codes(&diags), vec![Code::V005]);
    }

    #[test]
    fn negative_address_is_v005() {
        let mut p = neg_program(&[0], 6);
        push1(
            &mut p,
            StreamCommand::store(
                OutPortId(6),
                MemTarget::Shared,
                AffinePattern::linear(-4, 8),
                RateFsm::ONCE,
            ),
        );
        let diags = run_lint(&super::AddressBounds, &p, &single_lane());
        assert_eq!(codes(&diags), vec![Code::V005]);
    }

    #[test]
    fn overlapping_stores_are_v006() {
        let mut p = neg_program(&[0, 1], 6);
        push1(&mut p, load_priv(0, 8, 0));
        push1(&mut p, load_priv(8, 8, 1));
        push1(&mut p, store_priv(6, 16, 8));
        push1(&mut p, store_priv(7, 20, 8)); // overlaps 20..24
        let diags = run_lint(&super::ScratchHazards, &p, &single_lane());
        assert_eq!(codes(&diags), vec![Code::V006]);
    }

    #[test]
    fn barrier_separates_stores() {
        let mut p = neg_program(&[0, 1], 6);
        push1(&mut p, load_priv(0, 8, 0));
        push1(&mut p, load_priv(8, 8, 1));
        push1(&mut p, store_priv(6, 16, 8));
        push1(&mut p, StreamCommand::BarrierScratch);
        push1(&mut p, store_priv(7, 20, 8));
        let diags = run_lint(&super::ScratchHazards, &p, &single_lane());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn epochs_split_at_sync() {
        let mut p = neg_program(&[0], 6);
        push1(&mut p, load_priv(0, 4, 0));
        push1(&mut p, StreamCommand::BarrierScratch);
        push1(&mut p, store_priv(6, 0, 4));
        push1(&mut p, store_priv(6, 8, 4));
        push1(&mut p, StreamCommand::Wait);
        push1(&mut p, load_priv(8, 4, 0));
        let cfg = single_lane();
        let seg = super::SegmentAccesses::build(&crate::Context::new(&p, &cfg), 0);
        let epochs: Vec<(u32, usize)> = seg.accesses.iter().map(|a| (a.epoch, a.index)).collect();
        assert_eq!(epochs, [(0, 1), (1, 3), (1, 4), (2, 6)]);
    }

    #[test]
    fn unrelated_store_over_live_load_is_v007() {
        // Port 1's pipeline stores over the addresses port 0's load reads,
        // and the store's data does not come from that load.
        let mut p = neg2_program();
        push1(&mut p, load_priv(0, 8, 0)); // load A: words 0..8 -> in 0
        push1(&mut p, load_priv(8, 8, 1)); // load B: words 8..16 -> in 1
        push1(&mut p, store_priv(6, 16, 8)); // out of in-0 pipe, disjoint
        push1(&mut p, store_priv(7, 4, 4)); // out of in-1 pipe, clobbers A
        let diags = run_lint(&super::ScratchHazards, &p, &single_lane());
        assert_eq!(codes(&diags), vec![Code::V007]);
    }

    #[test]
    fn dataflow_ordered_war_is_suppressed() {
        // The solver idiom: load feeds the region whose output stores back
        // over the loaded range.
        let mut p = neg_program(&[0], 6);
        push1(&mut p, load_priv(0, 8, 0));
        push1(&mut p, store_priv(6, 0, 8));
        let diags = run_lint(&super::ScratchHazards, &p, &single_lane());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn raw_store_then_load_is_hardware_ordered() {
        // Store first, reload later in the same epoch: the fine-grain
        // store->load guard orders them; no diagnostic.
        let mut p = neg_program(&[0], 6);
        push1(
            &mut p,
            StreamCommand::load(
                MemTarget::Private,
                AffinePattern::scalar(64),
                revel_isa::InPortId(0),
                RateFsm::fixed(8),
            ),
        );
        push1(&mut p, store_priv(6, 0, 8));
        push1(&mut p, load_priv(0, 8, 0));
        push1(&mut p, store_priv(6, 16, 8));
        let diags = run_lint(&super::ScratchHazards, &p, &single_lane());
        assert!(diags.is_empty(), "{diags:?}");
    }
}
