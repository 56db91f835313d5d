//! Inductive loop nests (§IV, Fig. 17). A kernel describes its outer loop
//! `k ∈ 0..trips` once, as plain data: its datapaths and the streams one
//! iteration issues, with addresses, trip counts and reuse rates affine in
//! `k` (a stream with nothing to issue at `k` is skipped).
//! [`LoopNest::lower`] writes the command program for any [`BuildCfg`]:
//!
//! * **hybrid**: every datapath on the fabric, commands broadcast to all
//!   lanes (one problem per lane), a scratchpad barrier per iteration;
//!   only it lowers an accumulator length ([`Stream::AccumLen`]);
//! * **lane ring** (Fig. 17): iteration `k` of one problem on lane `k mod L`,
//!   the carried matrix handed right through a park region within a round,
//!   rounds crossing through two shared buffers and closed by a `Wait`;
//! * **host-outer**: without a temporal fabric, the outer datapath that
//!   fires once per iteration becomes a [`revel_sim::HostOp`] evaluating
//!   its graph, and an outer datapath that fires per element fuses into the
//!   datapath its output feeds; without inductive streams, the commands
//!   that walk the carried update are issued once per row.
//!
//! A stream reads or writes an [`Operand`]: the carried matrix, the result,
//! or a per-lane scratch slice of the shared scratchpad at a stride the
//! description states. Its words are a [`Pattern`]: linear, strided, a
//! triangle, or a rectangle of rows (`two_d`).

use crate::{Arch, BuildCfg, HOST_FP_OP_CYCLES, HOST_LOOP_CYCLES};
use revel_dfg::{Dfg, Node, NodeId, OpCode, Region, VecVal};
use revel_isa::{
    AffinePattern, ConfigId, InPortId, LaneId, LaneMask, LaneScale, MemTarget, OutPortId, RateFsm,
    StreamCommand, VectorCommand,
};
use revel_sim::RevelProgram;
use std::sync::Arc;

/// `c + per_k·k`: an address, trip count or rate affine in the outer
/// induction variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ind {
    c: i64,
    per_k: i64,
}

impl Ind {
    /// `c + per_k·k`.
    pub const fn new(c: i64, per_k: i64) -> Self {
        Ind { c, per_k }
    }

    /// A constant.
    pub const fn konst(c: i64) -> Self {
        Ind::new(c, 0)
    }

    fn at(self, k: i64) -> i64 {
        self.c + self.per_k * k
    }
}

/// An [`AffinePattern`] whose start and trip counts are affine in `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pattern {
    start: Ind,
    stride_i: i64,
    stride_j: i64,
    len_i: Ind,
    len_j: Ind,
    stretch: i64,
}

impl Pattern {
    /// `len` consecutive words.
    pub fn linear(start: Ind, len: Ind) -> Self {
        Self::strided(start, 1, len)
    }

    /// `len` words, `stride` apart.
    pub fn strided(start: Ind, stride: i64, len: Ind) -> Self {
        let one = Ind::konst(1);
        Pattern { start, stride_i: stride, stride_j: 0, len_i: len, len_j: one, stretch: 0 }
    }

    /// `len_j` rows `stride_j` words apart, each `len_i` words `stride_i`
    /// apart.
    pub fn two_d(start: Ind, stride_i: i64, stride_j: i64, len_i: Ind, len_j: Ind) -> Self {
        Pattern { start, stride_i, stride_j, len_i, len_j, stretch: 0 }
    }

    /// A triangle of `len` rows `stride_j` words apart, row `j` holding
    /// `len − j` consecutive words.
    pub fn triangle(start: Ind, stride_j: i64, len: Ind) -> Self {
        Pattern { start, stride_i: 1, stride_j, len_i: len, len_j: len, stretch: -1 }
    }

    fn at(&self, k: i64) -> AffinePattern {
        let Pattern { start, stride_i, stride_j, len_i, len_j, stretch } = *self;
        AffinePattern::two_d(start.at(k), stride_i, stride_j, len_i.at(k), len_j.at(k), stretch)
    }
}

/// A [`RateFsm`] whose base count is affine in `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rate {
    base: Ind,
    stretch: i64,
}

impl Rate {
    /// Every value used once.
    pub const ONCE: Rate = Rate::fixed(Ind::konst(1));

    /// Every value used `n` times.
    pub const fn fixed(n: Ind) -> Self {
        Rate { base: n, stretch: 0 }
    }

    /// Value `j` used `base + stretch·j` times.
    pub const fn inductive(base: Ind, stretch: i64) -> Self {
        Rate { base, stretch }
    }

    fn at(&self, k: i64) -> RateFsm {
        RateFsm::inductive(self.base.at(k), self.stretch)
    }
}

/// The memory a stream reads or writes, before a lowering places it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// The matrix carried from one iteration to the next through memory,
    /// updated in place.
    Carried,
    /// The kernel's output.
    Result,
    /// Scratch words in the shared scratchpad, lane `l`'s at `stride·l`
    /// past the pattern's.
    Scratch(i64),
}

/// One stream an outer iteration issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Memory → port: `(from, words, dst, uses per word)`.
    Load(Operand, Pattern, InPortId, Rate),
    /// Port → memory: `(src, to, words)`.
    Store(OutPortId, Operand, Pattern),
    /// A value crossing from one datapath to another through an XFER:
    /// `(src, dst, values, uses per value)`.
    Xfer(OutPortId, InPortId, Ind, Rate),
    /// The accumulator of datapath `d` (its index in the nest's
    /// datapaths) emits one sum per `len` values: `(d, len)`, issued as
    /// ⌈len/unroll⌉ fires (at least one) at the datapath's built unroll.
    AccumLen(usize, Ind),
}

impl Stream {
    fn dst(&self) -> Option<InPortId> {
        match *self {
            Stream::Load(_, _, dst, _) | Stream::Xfer(_, dst, _, _) => Some(dst),
            Stream::Store(..) | Stream::AccumLen(..) => None,
        }
    }

    fn memory(&self) -> Option<(Operand, Pattern)> {
        match *self {
            Stream::Load(from, pat, ..) | Stream::Store(_, from, pat) => Some((from, pat)),
            Stream::Xfer(..) | Stream::AccumLen(..) => None,
        }
    }

    /// The command at iteration `k`, its words on `target` shifted by
    /// `offset`; `None` when the stream has nothing to issue.
    fn at(&self, k: i64, target: MemTarget, offset: i64) -> Option<StreamCommand> {
        let (cmd, live) = match *self {
            Stream::Load(_, pat, dst, reuse) => {
                let (p, r) = (pat.at(k).offset_by(offset), reuse.at(k));
                (StreamCommand::load(target, p, dst, r), !p.is_empty() && r.base > 0)
            }
            Stream::Store(src, _, pat) => {
                let p = pat.at(k).offset_by(offset);
                (StreamCommand::store(src, target, p, RateFsm::ONCE), !p.is_empty())
            }
            Stream::Xfer(src, dst, outer, reuse) => {
                let (n, r) = (outer.at(k), reuse.at(k));
                (StreamCommand::xfer(src, dst, n, RateFsm::ONCE, r), n > 0 && r.base > 0)
            }
            Stream::AccumLen(..) => {
                panic!("an accumulator length lowers only in the hybrid program")
            }
        };
        live.then_some(cmd)
    }
}

/// One datapath of a nest.
#[derive(Debug, Clone)]
pub struct Datapath {
    /// The computation; its name names the region.
    pub dfg: Dfg,
    /// Inductive dependences it tracks (the dataflow baseline's FSM cost).
    pub deps: usize,
    /// `Some(width)` for an inner-loop datapath, vectorized up to `width`
    /// (its trip count is inductive); `None` for a scalar outer-loop one.
    pub vector: Option<usize>,
}

impl Datapath {
    /// Its region under `cfg`.
    pub fn region(&self, cfg: &BuildCfg) -> Region {
        let (name, dfg) = (self.dfg.name(), self.dfg.clone());
        match self.vector {
            Some(_) => cfg.inner_region(name, dfg, self.deps, self.unroll(cfg)),
            None => cfg.outer_region(name, dfg, self.deps),
        }
    }

    fn unroll(&self, cfg: &BuildCfg) -> usize {
        self.vector.map_or(1, |width| cfg.inner_unroll(width, true))
    }
}

/// A kernel's outer loop, described once.
#[derive(Debug, Clone)]
pub struct LoopNest {
    /// Kernel name; programs are named `{kernel}[-sys|-ring]-n{n}`.
    pub kernel: &'static str,
    /// Problem size, naming the program.
    pub n: i64,
    /// Outer trip count: `k ∈ 0..trips`.
    pub trips: i64,
    /// The datapaths, in region order.
    pub datapaths: Vec<Datapath>,
    /// The streams iteration `k` issues, in order.
    pub streams: Vec<Stream>,
    /// The words of the carried matrix's update, naming which carried
    /// [`Stream::Store`] it is; `None` when the nest stores to the carried
    /// matrix only once. A nest with several carried stores must name one.
    pub update: Option<Pattern>,
    /// Pipeline the iterations of one problem around the lane ring instead
    /// of running one independent problem per lane.
    pub pipelined: bool,
}

/// A lowered nest: its program, and where each problem instance's data
/// lives.
#[derive(Debug, Clone)]
pub struct NestProgram {
    /// The command program.
    pub program: RevelProgram,
    /// Per instance, where its carried matrix starts: `(lane, address)`,
    /// lane `None` for the shared scratchpad.
    pub carried: Vec<(Option<u8>, i64)>,
    /// Per instance, the shared-scratchpad address of its result.
    pub result: Vec<i64>,
}

impl LoopNest {
    /// Writes the command program for `cfg`, its instances placed as
    /// [`LoopNest::placement`] places them.
    ///
    /// # Panics
    /// Panics if the nest stores to the carried matrix more than once and
    /// names none of them in its `update` field, or names words none of them
    /// stores.
    pub fn lower(&self, cfg: &BuildCfg) -> NestProgram {
        // Only the ring and host-outer lowerings use the update, but every
        // lowering rejects a nest that leaves it ambiguous.
        self.update();
        let (carried, result) = self.placement(cfg);
        let program = if self.rings(cfg) {
            self.ring(cfg, carried[0].1)
        } else if cfg.outer_on_fabric() {
            self.hybrid(cfg, result.len())
        } else {
            self.host_outer(cfg, result.len())
        };
        NestProgram { program, carried, result }
    }

    /// Where [`LoopNest::lower`]'s program for `cfg` expects each problem
    /// instance's data, without writing the program: per instance, where
    /// its carried matrix starts (`(lane, address)`, lane `None` for the
    /// shared scratchpad), and the shared-scratchpad address of its result.
    pub fn placement(&self, cfg: &BuildCfg) -> (Vec<(Option<u8>, i64)>, Vec<i64>) {
        let result = self.footprint(Operand::Result);
        if self.rings(cfg) {
            // One problem; round 0 reads the first of the ring's two
            // buffers, right after the result.
            return (vec![(None, result)], vec![0]);
        }
        // One problem per lane (one in all for a pipelined nest), placed as
        // [`per_lane`] places its streams.
        let lanes = if self.pipelined { 1 } else { cfg.num_lanes };
        let carried = (0..lanes as u8).map(|l| (Some(l), 0)).collect();
        (carried, (0..lanes as i64).map(|l| l * result).collect())
    }

    /// Whether `cfg` pipelines the nest's iterations around the lane ring.
    /// Baselines cannot pipeline inductive dependences across lanes
    /// (statically scheduled fabrics need static dependence distances,
    /// §III-B): a pipelined nest runs as one problem on one lane there.
    fn rings(&self, cfg: &BuildCfg) -> bool {
        self.pipelined && cfg.num_lanes > 1 && cfg.outer_on_fabric() && cfg.arch != Arch::Dataflow
    }

    /// Words `of` spans: one past the highest address a stream touches.
    fn footprint(&self, of: Operand) -> i64 {
        let pats = self.streams.iter().filter_map(|s| s.memory().filter(|m| m.0 == of));
        let ends =
            pats.flat_map(|(_, p)| (0..self.trips).filter_map(move |k| p.at(k).addr_range()));
        ends.map(|(_, hi)| hi + 1).max().unwrap_or(0)
    }

    /// The stream feeding `port`.
    fn source(&self, port: InPortId) -> &Stream {
        self.streams.iter().find(|s| s.dst() == Some(port)).expect("every input port is fed")
    }

    /// The update of the carried matrix: the port storing it, and its words.
    /// It is the carried store the `update` field names, or the only one.
    pub fn update(&self) -> (OutPortId, Pattern) {
        let mut stores = self.streams.iter().filter_map(|s| match *s {
            Stream::Store(src, Operand::Carried, pat) => Some((src, pat)),
            _ => None,
        });
        match self.update {
            Some(words) => stores.find(|s| s.1 == words).expect("the named update is stored"),
            None => {
                let only = stores.next().expect("the nest carries a matrix");
                let more = stores.count();
                assert!(
                    more == 0,
                    "{}: {} carried stores, none named the update",
                    self.kernel,
                    more + 1
                );
                only
            }
        }
    }

    fn program(&self, tag: &str, cfg: &BuildCfg, all: LaneMask, dps: &[Datapath]) -> RevelProgram {
        let mut prog = RevelProgram::new(format!("{}{tag}-n{}", self.kernel, self.n));
        let config = ConfigId(prog.add_config(dps.iter().map(|d| d.region(cfg)).collect()));
        prog.push(VectorCommand::broadcast(all, StreamCommand::Configure { config }));
        prog
    }

    fn hybrid(&self, cfg: &BuildCfg, lanes: usize) -> RevelProgram {
        let all = LaneMask::all(lanes as u8);
        let result = self.footprint(Operand::Result);
        let mut prog = self.program("", cfg, all, &self.datapaths);
        for k in 0..self.trips {
            for s in &self.streams {
                let (target, scale) = per_lane(s, result);
                let cmd = match *s {
                    Stream::AccumLen(d, len) => {
                        let unroll = self.datapaths[d].unroll(cfg) as i64;
                        let fires = RateFsm::fixed(((len.at(k) + unroll - 1) / unroll).max(1));
                        Some(StreamCommand::SetAccumLen { region: d as u32, len: fires })
                    }
                    _ => s.at(k, target, 0),
                };
                if let Some(cmd) = cmd {
                    prog.push(VectorCommand::scaled(all, scale, cmd));
                }
            }
            prog.push(VectorCommand::broadcast(all, StreamCommand::BarrierScratch));
        }
        prog.push(VectorCommand::broadcast(all, StreamCommand::Wait));
        prog
    }

    fn host_outer(&self, cfg: &BuildCfg, lanes: usize) -> RevelProgram {
        let all = LaneMask::all(lanes as u8);
        let result = self.footprint(Operand::Result);
        let (outer, mut inner): (Vec<_>, Vec<_>) =
            self.datapaths.iter().cloned().partition(|d| d.vector.is_none());
        // The host runs the outer datapath fed one value, used once, per
        // iteration on each of its ports.
        let n1 = Ind::konst(1);
        let (host, fused): (Vec<_>, Vec<_>) = outer.into_iter().partition(|d| {
            d.dfg.input_ports().iter().all(|&p| match *self.source(p) {
                Stream::Load(_, p, _, r) => p == Pattern::linear(p.start, n1) && r == Rate::ONCE,
                Stream::Xfer(_, _, n, r) => n == n1 && r == Rate::ONCE,
                Stream::Store(..) | Stream::AccumLen(..) => unreachable!(),
            })
        });
        let [host] = &host[..] else { panic!("{}: no single per-iteration datapath", self.kernel) };
        // Each other outer datapath fuses into the one its output XFER
        // feeds, which reads the fused datapath's memory operands on that
        // XFER's port; its XFER-fed operands keep their ports.
        let fused: Vec<(Vec<InPortId>, Stream)> = fused
            .iter()
            .map(|p| {
                let outputs = p.dfg.output_ports();
                let out = |s: &&Stream| matches!(s, Stream::Xfer(src, ..) if outputs.contains(src));
                let x = *self.streams.iter().find(out).expect("fused outputs cross by XFER");
                let to = x.dst().unwrap();
                let port_of = |p| if matches!(self.source(p), Stream::Load(..)) { to } else { p };
                let c = inner.iter_mut().find(|d| d.dfg.input_ports().contains(&to)).unwrap();
                c.dfg = fuse(&c.dfg, to, &p.dfg, port_of);
                (p.dfg.input_ports(), x)
            })
            .collect();
        // Without inductive streams, the commands of the datapath storing
        // the carried update are issued once per row of that update.
        let (update_src, update) = self.update();
        let rows = inner.iter().find(|d| d.dfg.output_ports().contains(&update_src)).unwrap();
        let (rows_in, rows_out) = (rows.dfg.input_ports(), rows.dfg.output_ports());
        let in_rows = |c: &VectorCommand| match &c.cmd {
            StreamCommand::Load { dst, .. } => rows_in.contains(dst),
            StreamCommand::Store { src, .. } => rows_out.contains(src),
            _ => false,
        };

        let (host_in, host_out) = (host.dfg.input_ports(), host.dfg.output_ports());
        let slots = host_out.len() as i64;
        // The control core's scratch, after every instance's result.
        let scratch = result * lanes as i64;
        let cycles = host.dfg.num_instructions() as u64 * HOST_FP_OP_CYCLES + HOST_LOOP_CYCLES;
        let dfg = Arc::new(host.dfg.clone());
        let mut prog = self.program("-sys", cfg, all, &inner);
        for k in 0..self.trips {
            // The host reads the one word each of its operand streams holds.
            let reads: Vec<i64> = host_in
                .iter()
                .map(|&p| self.source(p).memory().expect("host operands are loaded").1.at(k).start)
                .collect();
            let dfg = Arc::clone(&dfg);
            prog.push_host(cycles, move |mem| {
                let mut eval = dfg.evaluator(1);
                for lane in 0..lanes as u8 {
                    let args: Vec<VecVal> =
                        reads.iter().map(|&a| VecVal::splat(mem.read(Some(lane), a), 1)).collect();
                    for (slot, (_, v)) in eval.fire(&args).iter().enumerate() {
                        mem.write(None, scratch + slots * i64::from(lane) + slot as i64, v.raw(0));
                    }
                }
            });
            let mut cmds = Vec::new();
            for s in &self.streams {
                let dst = s.dst();
                if dst.is_some_and(|p| host_in.contains(&p)) || fused.iter().any(|(_, x)| x == s) {
                    continue;
                }
                let (target, mut scale) = per_lane(s, result);
                let Some(mut cmd) = s.at(k, target, 0) else { continue };
                // A fused datapath's operand now feeds its consumer, used
                // once per use of the value it went into.
                let into = fused.iter().find(|(ins, _)| dst.is_some_and(|d| ins.contains(&d)));
                if let Some(&(_, Stream::Xfer(_, to, outer, reuse))) = into {
                    let (outer, uses) = (outer.at(k), reuse.at(k));
                    match &mut cmd {
                        StreamCommand::Load { dst, reuse, .. } => (*dst, *reuse) = (to, uses),
                        StreamCommand::Xfer { consumption, .. } => {
                            *consumption = RateFsm::fixed(uses.total(outer));
                        }
                        _ => {}
                    }
                }
                // A value leaving the control core arrives from its scratch.
                if let StreamCommand::Xfer { route, consumption, .. } = cmd {
                    if let Some(slot) = host_out.iter().position(|&p| p == route.src) {
                        let at = AffinePattern::scalar(scratch + slot as i64);
                        cmd = StreamCommand::load(MemTarget::Shared, at, route.dst, consumption);
                        scale = LaneScale::addr(slots);
                    }
                }
                cmds.push(VectorCommand::scaled(all, scale, cmd));
            }
            if !cfg.inductive_streams {
                if let Some(at) = cmds.iter().position(&in_rows) {
                    let group: Vec<_> = cmds.iter().filter(|c| in_rows(c)).cloned().collect();
                    cmds.retain(|c| !in_rows(c));
                    cmds.splice(at..at, split_rows(&group, &update.at(k)));
                }
            }
            cmds.into_iter().for_each(|cmd| prog.push(cmd));
            prog.push(VectorCommand::broadcast(all, StreamCommand::Wait));
        }
        prog
    }

    /// The lane ring, its carried matrix read in round 0 from `first`.
    fn ring(&self, cfg: &BuildCfg, first: i64) -> RevelProgram {
        use {
            MemTarget::{Private, Shared},
            Operand::Carried,
        };
        let lanes = cfg.num_lanes as i64;
        let all = LaneMask::all(lanes as u8);
        let carried = self.footprint(Operand::Carried);
        // Round `r` reads buffer `r mod 2` and writes the other, both after
        // the result in shared scratchpad.
        let buf = |round: i64| first + carried * (round % 2);
        let (update_src, update) = self.update();
        let reread = |s: &&Stream| matches!(s, Stream::Load(Carried, pat, ..) if *pat == update);
        let reread = self.streams.iter().find(reread).and_then(Stream::dst).expect("re-read");
        // The park region takes the lowest free ports, at the width of the
        // datapath storing the update.
        let ins: Vec<_> = self.datapaths.iter().flat_map(|d| d.dfg.input_ports()).collect();
        let outs: Vec<_> = self.datapaths.iter().flat_map(|d| d.dfg.output_ports()).collect();
        let park_in = (0..).map(InPortId).find(|p| !ins.contains(p)).unwrap();
        let park_out = (0..).map(OutPortId).find(|p| !outs.contains(p)).unwrap();
        let mut park = Dfg::new("park");
        let incoming = park.input(park_in);
        let parked = park.op(OpCode::Mov, &[incoming]);
        park.output(parked, park_out);
        let producer = self.datapaths.iter().find(|d| d.dfg.output_ports().contains(&update_src));
        let park = Datapath { dfg: park, deps: 0, vector: producer.unwrap().vector };
        let once = RateFsm::ONCE;
        let hand_right = |to, words, rows| {
            StreamCommand::xfer_right_rows(update_src, to, words, once, once, rows)
        };

        let regions: Vec<_> = std::iter::once(park).chain(self.datapaths.iter().cloned()).collect();
        let mut prog = self.program("-ring", cfg, all, &regions);
        for k in 0..self.trips {
            let (owner, round) = (k % lanes, k / lanes);
            let last = owner == lanes - 1 || k == self.trips - 1;
            let mut cmds = Vec::new();
            // Iteration k−1's first updated row is this iteration's pivot
            // row. Past the first lane of a round it arrives on the park
            // region, which stores it at 0 in private scratchpad.
            let pivot = (owner > 0).then(|| update.at(k - 1));
            if let Some(pivot) = pivot {
                let row = AffinePattern::linear(0, pivot.row_len(0));
                cmds.push(StreamCommand::store(park_out, Private, row, once));
            }
            for s in &self.streams {
                let cmd = match (*s, pivot) {
                    (Stream::Store(_, Carried, pat), _) if !last => {
                        // Hand the update right: its first row to the park
                        // region, the rest to the datapath that re-reads it.
                        let t = pat.at(k);
                        let (head, tail) = (t.row_len(0), t.total_elems() - t.row_len(0));
                        if head > 0 {
                            cmds.push(hand_right(park_in, head, RateFsm::fixed(head)));
                        }
                        if tail > 0 {
                            let rows = RateFsm::inductive(head + t.stretch, t.stretch);
                            cmds.push(hand_right(reread, tail, rows));
                        }
                        continue;
                    }
                    (Stream::Store(_, Carried, _), _) => s.at(k, Shared, buf(round + 1)),
                    (Stream::Load(Carried, pat, ..), Some(_)) if pat == update => None,
                    (Stream::Load(Carried, ..), Some(p)) => s.at(k, Private, -p.start),
                    (Stream::Load(Carried, ..), None) => s.at(k, Shared, buf(round)),
                    _ => s.at(k, Shared, 0),
                };
                cmds.extend(cmd);
            }
            let lane = LaneMask::single(LaneId(owner as u8));
            cmds.into_iter().for_each(|cmd| prog.push(VectorCommand::broadcast(lane, cmd)));
            if last {
                prog.push(VectorCommand::broadcast(all, StreamCommand::Wait));
            }
        }
        prog
    }
}

/// Where a stream's words live when every lane runs its own problem: the
/// carried matrix at 0 in the lane's private scratchpad, results in
/// `result`-word slices of the shared one, scratch in slices at its stride.
fn per_lane(s: &Stream, result: i64) -> (MemTarget, LaneScale) {
    match s.memory() {
        Some((Operand::Result, _)) => (MemTarget::Shared, LaneScale::addr(result)),
        Some((Operand::Scratch(stride), _)) => (MemTarget::Shared, LaneScale::addr(stride)),
        _ => (MemTarget::Private, LaneScale::BROADCAST),
    }
}

/// Issues a command group once per row of `rows`. Each command keeps the
/// part of its stream that row consumes: its row of a 2-D pattern, its
/// `r`-th word of a 1-D one (with that word's reuse), or its one word, used
/// once per element of the row.
pub(crate) fn split_rows(group: &[VectorCommand], rows: &AffinePattern) -> Vec<VectorCommand> {
    let row = |c: &VectorCommand, r: i64| {
        let mut c = c.clone();
        let (pattern, reuse) = match &mut c.cmd {
            StreamCommand::Load { pattern, reuse, .. } => (pattern, Some(reuse)),
            StreamCommand::Store { pattern, .. } => (pattern, None),
            other => panic!("only memory streams split into rows, not {other:?}"),
        };
        let p = *pattern;
        let (split, uses) = if p.len_j > 1 {
            (AffinePattern::strided(p.start + r * p.stride_j, p.stride_i, p.row_len(r)), None)
        } else if p.len_i > 1 {
            (AffinePattern::scalar(p.start + r * p.stride_i), reuse.as_ref().map(|u| u.count_at(r)))
        } else {
            (AffinePattern::scalar(p.start), Some(rows.row_len(r)))
        };
        *pattern = split;
        if let (Some(reuse), Some(uses)) = (reuse, uses) {
            *reuse = RateFsm::fixed(uses);
        }
        c
    };
    (0..rows.len_j).flat_map(|r| group.iter().map(move |c| row(c, r))).collect()
}

/// `consumer` with its input on `at` computed in place by `producer`,
/// whose one output fed it. The producer's inputs take the replaced
/// input's position and binding, on the ports `port_of` gives; its body
/// runs after the consumer's inputs and before the consumer's body.
fn fuse(
    consumer: &Dfg,
    at: InPortId,
    producer: &Dfg,
    port_of: impl Fn(InPortId) -> InPortId,
) -> Dfg {
    let mut g = Dfg::new(consumer.name());
    let (mut c_ids, mut p_ids) = (vec![NodeId(0); consumer.len()], vec![NodeId(0); producer.len()]);
    let mut replaced = NodeId(0);
    let input =
        |g: &mut Dfg, port, scalar| if scalar { g.input_scalar(port) } else { g.input(port) };
    for (id, node) in consumer.iter() {
        let Node::Input { port: p, scalar } = *node else { continue };
        if p != at {
            c_ids[id.0 as usize] = input(&mut g, p, scalar);
            continue;
        }
        replaced = id;
        for (pid, pnode) in producer.iter() {
            if let Node::Input { port: pp, .. } = *pnode {
                p_ids[pid.0 as usize] = input(&mut g, port_of(pp), scalar);
            }
        }
    }
    for (pid, pnode) in producer.iter() {
        match *pnode {
            Node::Input { .. } => {}
            Node::Output { arg, .. } => c_ids[replaced.0 as usize] = p_ids[arg.0 as usize],
            _ => p_ids[pid.0 as usize] = copy(&mut g, pnode, &p_ids),
        }
    }
    for (id, node) in consumer.iter().filter(|(_, n)| !matches!(n, Node::Input { .. })) {
        c_ids[id.0 as usize] = copy(&mut g, node, &c_ids);
    }
    g
}

fn copy(g: &mut Dfg, node: &Node, ids: &[NodeId]) -> NodeId {
    match node {
        Node::Op { op, args } => {
            g.op(*op, &args.iter().map(|a| ids[a.0 as usize]).collect::<Vec<_>>())
        }
        Node::Output { arg, port } => g.output(ids[arg.0 as usize], *port),
        other => panic!("fusing a {other:?} is not supported"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revel_sim::{ControlStep, HostMem};
    use std::collections::HashMap;

    #[test]
    fn row_split_issues_one_group_per_row() {
        let tri = AffinePattern::two_d(0, 1, 10, 5, 5, -1);
        let all = LaneMask::all(1);
        let group = [
            VectorCommand::broadcast(
                all,
                StreamCommand::load(MemTarget::Private, tri, InPortId(2), RateFsm::ONCE),
            ),
            VectorCommand::broadcast(
                all,
                StreamCommand::load(
                    MemTarget::Shared,
                    AffinePattern::scalar(100),
                    InPortId(8),
                    RateFsm::fixed(15),
                ),
            ),
        ];
        let rows = split_rows(&group, &tri);
        assert_eq!(rows.len(), 10, "two commands per row, five rows");
        let mut words = 0;
        for (r, pair) in rows.chunks(2).enumerate() {
            let row_len = 5 - r as i64;
            let StreamCommand::Load { pattern, reuse, .. } = pair[0].cmd else { panic!() };
            assert_eq!(pattern, AffinePattern::linear(10 * r as i64, row_len));
            assert_eq!(reuse, RateFsm::ONCE);
            words += pattern.total_elems();
            let StreamCommand::Load { pattern, reuse, .. } = pair[1].cmd else { panic!() };
            assert_eq!(pattern, AffinePattern::scalar(100));
            assert_eq!(reuse, RateFsm::fixed(row_len), "the scalar is used once per row element");
        }
        assert_eq!(words, tri.total_elems(), "the split keeps every element");
    }

    struct Mem(HashMap<(Option<u8>, i64), f64>);

    impl HostMem for Mem {
        fn read(&self, lane: Option<u8>, addr: i64) -> f64 {
            self.0[&(lane, addr)]
        }
        fn write(&mut self, lane: Option<u8>, addr: i64, value: f64) {
            self.0.insert((lane, addr), value);
        }
    }

    /// A one-iteration nest: `ia, is` from the pivot, `is` scaling the row.
    fn pivot_nest() -> LoopNest {
        let mut point = Dfg::new("point");
        let akk = point.input(InPortId(6));
        let ia = point.op(OpCode::Recip, &[akk]);
        let is = point.op(OpCode::Rsqrt, &[akk]);
        point.output(ia, OutPortId(6));
        point.output(is, OutPortId(7));
        let mut row = Dfg::new("row");
        let a = row.input(InPortId(0));
        let s = row.input_scalar(InPortId(4));
        let scaled = row.op(OpCode::Mul, &[a, s]);
        row.output(scaled, OutPortId(0));
        let (start, len, one) = (Ind::konst(0), Ind::konst(3), Ind::konst(1));
        LoopNest {
            kernel: "pivot",
            n: 1,
            trips: 1,
            datapaths: vec![
                Datapath { dfg: point, deps: 1, vector: None },
                Datapath { dfg: row, deps: 1, vector: Some(4) },
            ],
            streams: vec![
                Stream::Load(
                    Operand::Carried,
                    Pattern::linear(start, one),
                    InPortId(6),
                    Rate::ONCE,
                ),
                Stream::Xfer(OutPortId(7), InPortId(4), one, Rate::fixed(len)),
                Stream::Load(
                    Operand::Carried,
                    Pattern::linear(start, len),
                    InPortId(0),
                    Rate::ONCE,
                ),
                Stream::Store(OutPortId(0), Operand::Carried, Pattern::linear(start, len)),
            ],
            pipelined: false,
            update: None,
        }
    }

    /// A trailing-update nest of size `n`: per `k`, `is = rsqrt(a[k,k])`
    /// scales the pivot row into the result, and the trailing rows take the
    /// pivot row's segments away in place (Cholesky's shape, without its
    /// scale datapath).
    fn trailing_nest(n: i64, pipelined: bool) -> LoopNest {
        use Operand::{Carried, Result};
        let mut point = Dfg::new("point");
        let akk = point.input(InPortId(6));
        let is = point.op(OpCode::Rsqrt, &[akk]);
        point.output(is, OutPortId(7));
        let mut row = Dfg::new("row");
        let a = row.input(InPortId(0));
        let s = row.input_scalar(InPortId(4));
        let scaled = row.op(OpCode::Mul, &[a, s]);
        row.output(scaled, OutPortId(0));
        let mut matrix = Dfg::new("matrix");
        let aki = matrix.input(InPortId(2));
        let aji = matrix.input(InPortId(3));
        let upd = matrix.op(OpCode::Sub, &[aji, aki]);
        matrix.output(upd, OutPortId(1));
        let (diag, rem, trail) = (Ind::new(0, n + 1), Ind::new(n, -1), Ind::new(n - 1, -1));
        let (one, next) = (Ind::konst(1), Ind::new(1, n + 1));
        let trailing = Pattern::triangle(Ind::new(n + 1, n + 1), n + 1, trail);
        LoopNest {
            kernel: "trailing",
            n,
            trips: n,
            datapaths: vec![
                Datapath { dfg: point, deps: 1, vector: None },
                Datapath { dfg: row, deps: 1, vector: Some(4) },
                Datapath { dfg: matrix, deps: 2, vector: Some(4) },
            ],
            streams: vec![
                Stream::Load(Carried, Pattern::linear(diag, one), InPortId(6), Rate::ONCE),
                Stream::Xfer(OutPortId(7), InPortId(4), one, Rate::fixed(rem)),
                Stream::Load(Carried, Pattern::linear(diag, rem), InPortId(0), Rate::ONCE),
                Stream::Store(OutPortId(0), Result, Pattern::strided(diag, n, rem)),
                Stream::Load(Carried, Pattern::triangle(next, 1, trail), InPortId(2), Rate::ONCE),
                Stream::Load(Carried, trailing, InPortId(3), Rate::ONCE),
                Stream::Store(OutPortId(1), Carried, trailing),
            ],
            pipelined,
            update: None,
        }
    }

    /// Where iteration 0 reads each instance's pivot (its carried matrix's
    /// first word) and stores its result's first word, read off the lowered
    /// program: the commands as each lane of their mask sees them, or the
    /// host op that reads the pivot.
    fn first_words(built: &NestProgram) -> (Vec<(Option<u8>, i64)>, Vec<i64>) {
        struct Reads(std::cell::RefCell<Vec<(Option<u8>, i64)>>);
        impl HostMem for Reads {
            fn read(&self, lane: Option<u8>, addr: i64) -> f64 {
                self.0.borrow_mut().push((lane, addr));
                4.0
            }
            fn write(&mut self, _: Option<u8>, _: i64, _: f64) {}
        }
        let on_lanes = |c: &VectorCommand| {
            let lanes = (0..32).filter(|&l| c.lanes.contains(LaneId(l)));
            lanes.map(|l| (l, c.specialize(LaneId(l)))).collect::<Vec<_>>()
        };
        let commands = built.program.control.iter().filter_map(|s| match s {
            ControlStep::Command(c) => Some(c),
            ControlStep::Host(_) => None,
        });
        let pivot = commands
            .clone()
            .find(|c| matches!(c.cmd, StreamCommand::Load { dst, .. } if dst == InPortId(6)));
        let carried = match pivot {
            Some(c) => on_lanes(c)
                .into_iter()
                .map(|(l, cmd)| match cmd {
                    StreamCommand::Load { target: MemTarget::Private, pattern, .. } => {
                        (Some(l), pattern.start)
                    }
                    StreamCommand::Load { pattern, .. } => (None, pattern.start),
                    _ => unreachable!(),
                })
                .collect(),
            None => {
                let mut reads = Reads(Default::default());
                let host = built.program.control.iter().find_map(|s| match s {
                    ControlStep::Host(op) => Some(op),
                    ControlStep::Command(_) => None,
                });
                (host.expect("the host reads the pivot").func)(&mut reads);
                reads.0.into_inner()
            }
        };
        let store = commands
            .clone()
            .find(|c| matches!(c.cmd, StreamCommand::Store { src, .. } if src == OutPortId(0)))
            .expect("the result is stored");
        let result = on_lanes(store)
            .into_iter()
            .map(|(_, cmd)| match cmd {
                StreamCommand::Store { target: MemTarget::Shared, pattern, .. } => pattern.start,
                _ => unreachable!(),
            })
            .collect();
        (carried, result)
    }

    #[test]
    fn placement_is_where_the_lowering_puts_each_instance() {
        use crate::AblationStep;
        let mut rings = 0;
        for lanes in [1, 2, 4, 8] {
            let mut cfgs = vec![
                BuildCfg::revel(lanes),
                BuildCfg::systolic_baseline(lanes),
                BuildCfg::dataflow_baseline(lanes),
            ];
            cfgs.extend(AblationStep::LADDER.map(|step| BuildCfg::ablation(step, lanes)));
            for cfg in cfgs {
                for n in [12, 16, 24, 32] {
                    for pipelined in [false, true] {
                        let nest = trailing_nest(n, pipelined);
                        let built = nest.lower(&cfg);
                        let what = format!("{cfg:?} n={n} pipelined={pipelined}");
                        let placement = nest.placement(&cfg);
                        assert_eq!(placement, first_words(&built), "{what}: the program's words");
                        // A carried matrix in shared scratchpad lies apart
                        // from every result.
                        let (fc, fr) =
                            (nest.footprint(Operand::Carried), nest.footprint(Operand::Result));
                        for at in placement.0.iter().filter(|c| c.0.is_none()).map(|c| c.1) {
                            let apart = placement.1.iter().all(|&r| at >= r + fr || at + fc <= r);
                            assert!(apart, "{what}: a carried matrix overlaps a result");
                        }
                        assert_eq!(placement, (built.carried, built.result), "{what}");
                        rings += usize::from(built.program.name.contains("-ring"));
                    }
                }
            }
        }
        // Every lane count above one rings on REVEL and the +hybrid and
        // +stream-pred rungs.
        assert_eq!(rings, 3 * 4 * 3, "ring lowerings covered");
    }

    #[test]
    #[should_panic(expected = "pivot: 2 carried stores, none named the update")]
    fn a_nest_with_two_carried_stores_must_name_its_update() {
        let mut nest = pivot_nest();
        let pivot = Pattern::linear(Ind::konst(0), Ind::konst(1));
        nest.streams.push(Stream::Store(OutPortId(6), Operand::Carried, pivot));
        nest.lower(&BuildCfg::revel(1));
    }

    #[test]
    fn host_evaluates_the_per_iteration_datapath_into_each_lanes_slots() {
        let built = pivot_nest().lower(&BuildCfg::systolic_baseline(2));
        let hosts: Vec<_> = built
            .program
            .control
            .iter()
            .filter_map(|s| match s {
                ControlStep::Host(op) => Some(op),
                _ => None,
            })
            .collect();
        assert_eq!(hosts.len(), 1);
        assert_eq!(hosts[0].cycles, 2 * HOST_FP_OP_CYCLES + HOST_LOOP_CYCLES);
        assert_eq!(hosts[0].cycles, 46);
        let mut mem = Mem([((Some(0), 0), 4.0), ((Some(1), 0), 9.0)].into_iter().collect());
        (hosts[0].func)(&mut mem);
        for (slot, want) in [1.0 / 4.0, 1.0 / 2.0, 1.0 / 9.0, 1.0 / 3.0].into_iter().enumerate() {
            assert_eq!(mem.0[&(None, slot as i64)], want, "lane {}, slot {}", slot / 2, slot % 2);
        }
        // `is` reaches the row datapath from its lane's slot pair.
        let is = VectorCommand::scaled(
            LaneMask::all(2),
            LaneScale::addr(2),
            StreamCommand::load(
                MemTarget::Shared,
                AffinePattern::scalar(1),
                InPortId(4),
                RateFsm::fixed(3),
            ),
        );
        assert!(built
            .program
            .control
            .iter()
            .any(|s| matches!(s, ControlStep::Command(c) if *c == is)));
    }
}
