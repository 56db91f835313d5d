//! One REVEL vector lane: ports, active streams, region firing, and the
//! triggered-instruction temporal executor.

use crate::fault::FaultKind;
use crate::kernel::{NextEvent, PortSet};
use crate::memory::Scratchpad;
use crate::port::{InPort, OutPort};
use crate::stats::{CycleBreakdown, CycleClass};
use crate::trace::Recorder;
use revel_dfg::{Dfg, DfgEvaluator, FuClass, Node, OpCode, Region, RegionKind, VecVal};
use revel_fabric::{EventCounts, LaneConfig};
use revel_isa::{AffinePattern, MemTarget, OutPortId, PatternElem, RateFsm};
use revel_scheduler::RegionSchedule;
use std::collections::VecDeque;

/// A memory pattern walker: the element a stream is at, held as counters
/// (a stream retries an element when its destination stalls). Every query
/// is a `&self` read, so the store→load guard asks older streams' walkers
/// without copying them, and a step within a row is one add.
#[derive(Debug, Clone)]
pub(crate) struct PatternWalker {
    pattern: AffinePattern,
    /// Outer and inner index of the current element; `j == len_j` once
    /// the pattern is exhausted.
    j: i64,
    i: i64,
    /// Length of row `j`.
    row_len: i64,
    /// Word offset of the current element.
    offset: i64,
}

impl PatternWalker {
    pub(crate) fn new(pattern: AffinePattern) -> Self {
        let mut walker = PatternWalker { pattern, j: 0, i: 0, row_len: 0, offset: 0 };
        walker.enter_row(0);
        walker
    }

    /// Moves to the first element of the first non-empty row at or after
    /// `j` (or past the last row).
    fn enter_row(&mut self, mut j: i64) {
        let p = &self.pattern;
        while j < p.len_j && p.row_len(j) == 0 {
            j += 1;
        }
        self.j = j;
        self.i = 0;
        self.row_len = p.row_len(j);
        self.offset = p.start + j * p.stride_j;
    }

    pub(crate) fn peek(&self) -> Option<PatternElem> {
        (!self.exhausted()).then_some(PatternElem {
            offset: self.offset,
            j: self.j,
            i: self.i,
            last_in_row: self.i == self.row_len - 1,
        })
    }

    /// Steps past the current element; the walker must not be exhausted.
    pub(crate) fn advance(&mut self) {
        self.advance_by(1);
    }

    /// Steps past `n` elements of the current row, at most the
    /// [`PatternWalker::row_left`] of a walker that is not exhausted.
    #[inline]
    pub(crate) fn advance_by(&mut self, n: i64) {
        debug_assert!(!self.exhausted(), "advancing an exhausted walker");
        debug_assert!((1..=self.row_left()).contains(&n), "advancing past the row");
        self.i += n;
        if self.i < self.row_len {
            self.offset += n * self.pattern.stride_i;
        } else {
            self.enter_row(self.j + 1);
        }
    }

    /// Elements left in the current row, the current one included.
    #[inline]
    pub(crate) fn row_left(&self) -> i64 {
        self.row_len - self.i
    }

    /// True if each row's elements are consecutive words, so the rest of
    /// a row is one run of addresses from the current element's.
    pub(crate) fn rows_are_runs(&self) -> bool {
        self.pattern.stride_i == 1
    }

    pub(crate) fn exhausted(&self) -> bool {
        self.j >= self.pattern.len_j
    }

    /// True if the remaining (unvisited) part of the pattern will touch
    /// `addr`. Used for scratchpad store→load ordering.
    pub(crate) fn remaining_contains(&self, addr: i64) -> bool {
        !self.exhausted()
            && (self.offset == addr || self.pattern.visits_from(self.j, self.i + 1, addr))
    }

    /// The outer-row index the walker is currently writing/reading, or
    /// `i64::MAX` when exhausted.
    pub(crate) fn current_row(&self) -> i64 {
        if self.exhausted() {
            i64::MAX
        } else {
            self.j
        }
    }
}

/// The set of word addresses a store stream has written so far: a dense
/// bitset over the addresses its pattern spans (within its scratchpad), so
/// the store→load guard's membership test is one subtract, shift and mask.
/// A span of at most [`WrittenSet::INLINE_WORDS`] × 64 addresses is held
/// inline, so binding such a store does not allocate.
#[derive(Debug, Clone)]
pub(crate) struct WrittenSet {
    /// The lowest address the set covers.
    base: i64,
    /// Words of the bitset: `inline[..words]` up to `INLINE_WORDS`, else
    /// `heap`.
    words: usize,
    inline: [u64; WrittenSet::INLINE_WORDS],
    heap: Vec<u64>,
}

impl WrittenSet {
    const INLINE_WORDS: usize = 2;

    /// An empty set over the addresses in `range` (a pattern's
    /// [`AffinePattern::addr_range`]) in a scratchpad of `spad_words` words.
    pub(crate) fn spanning(range: Option<(i64, i64)>, spad_words: usize) -> Self {
        let last = spad_words as i64 - 1;
        let (base, words) = match range {
            Some((lo, hi)) if lo <= last && hi >= 0 => {
                let (lo, hi) = (lo.max(0), hi.min(last));
                (lo, (hi - lo) as usize / 64 + 1)
            }
            _ => (0, 0),
        };
        let heap = if words > Self::INLINE_WORDS { vec![0; words] } else { Vec::new() };
        WrittenSet { base, words, inline: [0; Self::INLINE_WORDS], heap }
    }

    fn bits(&self) -> &[u64] {
        if self.words <= Self::INLINE_WORDS {
            &self.inline[..self.words]
        } else {
            &self.heap
        }
    }

    fn bits_mut(&mut self) -> &mut [u64] {
        if self.words <= Self::INLINE_WORDS {
            &mut self.inline[..self.words]
        } else {
            &mut self.heap
        }
    }

    /// Word index and bit of `addr`, or `None` outside the span.
    fn slot(&self, addr: i64) -> Option<(usize, u64)> {
        let at = usize::try_from(addr.checked_sub(self.base)?).ok()?;
        (at / 64 < self.words).then_some((at / 64, 1 << (at % 64)))
    }

    /// Records a written address. One outside the span is not recorded:
    /// the store's pattern never writes it in its scratchpad (the write
    /// itself panics on one outside the scratchpad).
    pub(crate) fn insert(&mut self, addr: i64) {
        if let Some((word, bit)) = self.slot(addr) {
            self.bits_mut()[word] |= bit;
        }
    }

    pub(crate) fn contains(&self, addr: i64) -> bool {
        self.slot(addr).is_some_and(|(word, bit)| self.bits()[word] & bit != 0)
    }

    /// Number of distinct addresses written.
    pub(crate) fn len(&self) -> usize {
        self.bits().iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Tracks inner-row boundaries of a dependence stream so the destination
/// port can apply stream predication (the port FSM "compares the remaining
/// iterations with the port's vector length", §IV-B).
#[derive(Debug, Clone)]
pub(crate) struct RowTracker {
    fsm: Option<RateFsm>,
    idx: i64,
    left: i64,
}

impl RowTracker {
    pub(crate) fn new(fsm: Option<RateFsm>) -> Self {
        let left = fsm.map(|f| f.count_at(0)).unwrap_or(0);
        RowTracker { fsm, idx: 0, left }
    }

    /// Advances past one delivered word; returns true when that word ends
    /// an inner row.
    pub(crate) fn step(&mut self) -> bool {
        let Some(f) = self.fsm else { return false };
        self.left -= 1;
        if self.left <= 0 {
            self.idx += 1;
            self.left = f.count_at(self.idx);
            true
        } else {
            false
        }
    }
}

/// The body of an active stream resident in a lane's stream table.
#[derive(Debug, Clone)]
pub(crate) enum StreamBody {
    /// Memory → input port.
    Load { target: MemTarget, walker: PatternWalker, dst: u8, flushed: bool },
    /// Output port → memory.
    Store {
        src: u8,
        target: MemTarget,
        walker: PatternWalker,
        /// The inclusive range of addresses the pattern touches, if any:
        /// a load run outside it cannot meet this store.
        range: Option<(i64, i64)>,
        /// Addresses written so far (distinguishes write-once
        /// producer→consumer streams from in-place multi-version rewrites
        /// in the store→load ordering guard).
        written: WrittenSet,
    },
    /// Immediate values → input port.
    Const { dst: u8, values: VecDeque<f64> },
    /// Output port → input port, same lane.
    XferLocal { src: u8, dst: u8, remaining: i64, rows: RowTracker },
    /// Output port → input port of the lane to the right. The destination
    /// port is reserved on the destination lane via the cmd-sync mechanism.
    XferRight { src: u8, dst: u8, remaining: i64, rows: RowTracker },
}

/// An entry of a lane's stream table. The table is kept in program-order
/// issue order, which the store→load scratchpad guard relies on.
#[derive(Debug, Clone)]
pub(crate) struct ActiveStream {
    pub body: StreamBody,
}

impl ActiveStream {
    /// The input port this stream occupies on *this* lane, if any.
    pub(crate) fn local_in_port(&self) -> Option<u8> {
        match &self.body {
            StreamBody::Load { dst, .. }
            | StreamBody::Const { dst, .. }
            | StreamBody::XferLocal { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// The output port this stream occupies on this lane, if any.
    pub(crate) fn local_out_port(&self) -> Option<u8> {
        match &self.body {
            StreamBody::Store { src, .. }
            | StreamBody::XferLocal { src, .. }
            | StreamBody::XferRight { src, .. } => Some(*src),
            _ => None,
        }
    }

    pub(crate) fn is_store(&self) -> bool {
        matches!(self.body, StreamBody::Store { .. })
    }

    /// True if this is a store to `target` whose pattern may touch an
    /// address in `lo..=hi`: the store→load guard may hold a load word
    /// there.
    #[inline]
    pub(crate) fn store_meets(&self, target: MemTarget, lo: i64, hi: i64) -> bool {
        match &self.body {
            StreamBody::Store { target: t, range, .. } => {
                *t == target && range.is_some_and(|(a, b)| a <= hi && lo <= b)
            }
            _ => false,
        }
    }
}

/// Temporal instances one region may have in flight on the dPEs.
const MAX_TEMPORAL_INSTANCES: usize = 4;

/// Cycles a dPE instruction may take from issue to completion: the width
/// of [`TempInstance::due`]'s window.
const MAX_TEMPORAL_LATENCY: u64 = 64;

/// One instruction of a temporal (dataflow) region's instruction graph, in
/// shape order: per unroll replica, the DFG's compute nodes in order.
#[derive(Debug, Clone)]
struct TempNode {
    /// Index into the lane's dPE array this instruction is resident on.
    dpe: usize,
    latency: u64,
    /// Indices (into the shape order) of argument instructions, one per
    /// operand; Input/Const arguments are ready at instance creation.
    args: Vec<usize>,
}

/// One instruction as the executor sees it.
#[derive(Debug, Clone)]
struct TempInstr {
    dpe: usize,
    /// Issue to completion: the op's latency, plus the temporal network's
    /// penalty of 2 when an operand comes from another dPE.
    latency: u64,
    /// Instruction operands; a repeated one (`Mul(d, d)`) counts each time.
    operands: u32,
}

/// Static description of a temporal region's instruction graph, built once
/// per configuration. Instructions are numbered dPE-major — dPE 0's in
/// shape order, then dPE 1's, and so on — so the first eligible
/// instruction of a dPE in this numbering is its first in shape order.
#[derive(Debug, Clone)]
struct TemporalShape {
    instrs: Vec<TempInstr>,
    /// Per dPE: one past its last instruction in this numbering (for a
    /// dPE without instructions, unused).
    dpe_end: Vec<u32>,
    /// Consumers of instruction `i` are `consumers[consumer_start[i]..
    /// consumer_start[i + 1]]`, one entry per operand they take from it.
    consumer_start: Vec<u32>,
    consumers: Vec<u32>,
    /// Instructions without an instruction operand, as an eligibility
    /// bitset: they may issue as soon as their instance fires.
    roots: Vec<u64>,
}

impl TemporalShape {
    fn new(nodes: &[TempNode]) -> Self {
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_by_key(|&n| nodes[n].dpe); // stable: shape order within a dPE
        let mut number = vec![0u32; nodes.len()];
        for (i, &n) in order.iter().enumerate() {
            number[n] = i as u32;
        }
        let instrs: Vec<TempInstr> = order
            .iter()
            .map(|&n| {
                let node = &nodes[n];
                let remote = node.args.iter().any(|a| nodes[*a].dpe != node.dpe);
                let latency = node.latency + if remote { 2 } else { 0 };
                // At least a cycle: the issue rule relies on no issue making
                // another ready in the same cycle.
                assert!((1..=MAX_TEMPORAL_LATENCY).contains(&latency), "dPE latency {latency}");
                TempInstr { dpe: node.dpe, latency, operands: node.args.len() as u32 }
            })
            .collect();
        let mut consumer_start = vec![0u32; instrs.len() + 1];
        for node in nodes {
            for a in &node.args {
                consumer_start[number[*a] as usize + 1] += 1;
            }
        }
        for i in 0..instrs.len() {
            consumer_start[i + 1] += consumer_start[i];
        }
        let mut consumers = vec![0u32; consumer_start[instrs.len()] as usize];
        let mut fill = consumer_start.clone();
        for (n, node) in nodes.iter().enumerate() {
            for a in &node.args {
                let slot = &mut fill[number[*a] as usize];
                consumers[*slot as usize] = number[n];
                *slot += 1;
            }
        }
        let mut dpe_end = vec![0u32; instrs.last().map_or(0, |i| i.dpe + 1)];
        for (i, instr) in instrs.iter().enumerate() {
            dpe_end[instr.dpe] = i as u32 + 1;
        }
        let mut roots = vec![0u64; instrs.len().div_ceil(64)];
        for (i, instr) in instrs.iter().enumerate() {
            if instr.operands == 0 {
                roots[i / 64] |= 1 << (i % 64);
            }
        }
        TemporalShape { instrs, dpe_end, consumer_start, consumers, roots }
    }

    fn consumers_of(&self, i: usize) -> &[u32] {
        &self.consumers[self.consumer_start[i] as usize..self.consumer_start[i + 1] as usize]
    }
}

/// An instruction's operand state within one instance.
#[derive(Debug, Clone, Copy)]
struct Operands {
    /// Operands not yet issued.
    waiting: u32,
    /// The cycle the last issued operand completes.
    ready_at: u64,
}

/// A firing of a temporal region in flight on the dataflow PEs. Its
/// instruction graph is the region's [`TemporalShape`] and its output
/// vectors are the oldest unretired set in the region's `results` (a
/// region's instances retire in fire order), so an instance owns only its
/// per-instruction progress. An issue wakes the issuing instruction's
/// consumers, so each cycle the executor looks only at instructions whose
/// operands have all issued.
#[derive(Debug, Clone, Default)]
pub(crate) struct TempInstance {
    region: usize,
    /// Per instruction, in the shape's dPE-major numbering.
    operands: Vec<Operands>,
    /// Instructions whose operands have all issued and which have not
    /// issued themselves, as a bitset; a dPE's are a contiguous range.
    eligible: Vec<u64>,
    /// No eligible instruction can issue before this cycle.
    next_ready: u64,
    /// Instructions not yet issued.
    unissued: usize,
    /// The cycle the last issued instruction completes.
    last_done: u64,
    /// Completions after `due_from`: bit `k` is set iff an issued
    /// instruction completes at cycle `due_from + 1 + k`.
    due: u64,
    /// The cycle `due` counts from: the instance's last issue, or its fire.
    due_from: u64,
}

impl TempInstance {
    /// Restarts this (possibly recycled) instance as a fire of `region`
    /// at cycle `now`.
    fn start(&mut self, region: usize, shape: &TemporalShape, now: u64) {
        self.region = region;
        self.operands.clear();
        self.operands
            .extend(shape.instrs.iter().map(|i| Operands { waiting: i.operands, ready_at: 0 }));
        self.eligible.clear();
        self.eligible.extend_from_slice(&shape.roots);
        self.next_ready = 0;
        self.unissued = shape.instrs.len();
        self.last_done = 0;
        self.due = 0;
        self.due_from = now;
    }

    fn finished(&self, now: u64) -> bool {
        self.unissued == 0 && self.last_done <= now
    }

    /// Issues, in dPE-major order, every eligible instruction whose
    /// operands complete by `now` and whose dPE has not issued this cycle
    /// (`dpe_issued[d] == now + 1` once dPE `d` has). Visiting instances in
    /// fire order, this gives each dPE its first instance in fire order,
    /// then its first instruction in shape order, among those ready:
    /// completions are at least one cycle after issue, so no issue makes
    /// another ready in the same cycle. `on_issue` sees each issue's dPE,
    /// instruction and completion cycle; returns the number of issues.
    fn issue(
        &mut self,
        shape: &TemporalShape,
        now: u64,
        dpe_issued: &mut [u64],
        mut on_issue: impl FnMut(usize, usize, u64),
    ) -> usize {
        if self.next_ready > now {
            return 0;
        }
        let shift = now - self.due_from;
        self.due = if shift < MAX_TEMPORAL_LATENCY { self.due >> shift } else { 0 };
        self.due_from = now;
        let mut next_ready = u64::MAX;
        let mut issued = 0;
        let mut from = 0;
        while let Some(i) = next_set_bit(&self.eligible, from) {
            let instr = &shape.instrs[i];
            if dpe_issued[instr.dpe] == now + 1 {
                // The rest of this dPE's range waits at least a cycle;
                // its `ready_at`s go unread.
                next_ready = next_ready.min(now + 1);
                from = shape.dpe_end[instr.dpe] as usize;
                continue;
            }
            let ready_at = self.operands[i].ready_at;
            if ready_at > now {
                next_ready = next_ready.min(ready_at);
                from = i + 1;
                continue;
            }
            dpe_issued[instr.dpe] = now + 1;
            self.eligible[i / 64] &= !(1 << (i % 64));
            self.unissued -= 1;
            let done = now + instr.latency;
            self.last_done = self.last_done.max(done);
            self.due |= 1 << (done - now - 1);
            for &c in shape.consumers_of(i) {
                let c = c as usize;
                let op = &mut self.operands[c];
                op.waiting -= 1;
                op.ready_at = op.ready_at.max(done);
                if op.waiting == 0 {
                    self.eligible[c / 64] |= 1 << (c % 64);
                    next_ready = next_ready.min(op.ready_at);
                }
            }
            on_issue(instr.dpe, i, done);
            issued += 1;
            from = i + 1;
        }
        self.next_ready = next_ready;
        issued
    }
}

/// The first set bit of `bits` at or after `from`.
fn next_set_bit(bits: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut word = *bits.get(w)? & (!0 << (from % 64));
    while word == 0 {
        w += 1;
        word = *bits.get(w)?;
    }
    Some(w * 64 + word.trailing_zeros() as usize)
}

/// One configured program region resident on the lane fabric.
#[derive(Debug, Clone)]
pub(crate) struct RegionState {
    pub region: Region,
    eval: DfgEvaluator,
    pub sched: RegionSchedule,
    in_ports: Vec<u8>,
    out_ports: Vec<u8>,
    /// Functional units one systolic fire occupies, per class (the DFG's
    /// demand times the unroll), for event accounting.
    fu_ops: Vec<(FuClass, u64)>,
    next_fire: u64,
    /// One entry per fired result set not yet delivered, oldest first: the
    /// cycle a systolic result matures. (Temporal fires wait in
    /// `Lane::instances` instead.)
    inflight: VecDeque<u64>,
    /// The output vectors of every undelivered fire, oldest first:
    /// `out_ports.len()` entries per fire, in output-node order.
    results: VecDeque<(OutPortId, VecVal)>,
    temporal_shape: Option<TemporalShape>,
    /// Temporal instances of this region in flight on the dPEs.
    instances: usize,
    /// Scratch of the temporal retire pass: an older instance of this
    /// region could not retire, so younger ones must wait behind it.
    retire_blocked: bool,
    /// Injected dead-PE fault: the pipeline never fires again (matured
    /// in-flight results still deliver).
    dead: bool,
    /// Injected transient stall: the region cannot fire before this cycle
    /// (0 = not stalled).
    stalled_until: u64,
}

impl RegionState {
    /// Applies a `SetAccumLen` command to this region's accumulators.
    pub(crate) fn set_accum_len(&mut self, len: RateFsm) {
        self.eval.set_accum_len(len);
    }

    pub(crate) fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    pub(crate) fn next_fire_cycle(&self) -> u64 {
        self.next_fire
    }

    /// Temporal instances of this region in flight on the dPEs.
    pub(crate) fn temporal_instances(&self) -> usize {
        self.instances
    }

    pub(crate) fn idle(&self) -> bool {
        self.inflight.is_empty() && self.results.is_empty()
    }
}

/// `DataWake::idle_gen` while the lane's last data pass moved something.
const NOT_IDLE: u64 = u64::MAX;

/// A lane's data-path wake state, which lets a stepped cycle skip the
/// lane's data phases — port ticks, source streams, region fires,
/// deliveries and drains — while they cannot act (the kernel module's
/// "Woken, not polled" lists what wakes them).
#[derive(Debug, Clone)]
pub(crate) struct DataWake {
    /// Bumped by every event from outside the lane's data phases that can
    /// let them act.
    pub gen: u64,
    /// Bumped whenever an input port of this lane may gain space: what can
    /// unblock the left neighbour's `XferRight`s.
    pub space: u64,
    /// `gen` when the lane's last data pass began, if that pass moved
    /// nothing and was not bandwidth-starved; else [`NOT_IDLE`].
    idle_gen: u64,
    /// The cycle of that pass.
    idle_at: u64,
    /// The earliest data timer after that pass (a region's `next_fire` or
    /// stall end, or its oldest in-flight result), or 0 until the gate
    /// first needs it: a pass followed by a wake never reads it.
    idle_until: u64,
    /// The right neighbour's `space` when that pass's `XferRight`s ran.
    idle_right_space: u64,
    /// What that pass flagged: the store→load guard held a load, a region
    /// missed an input, a shared-scratchpad stream reached its bandwidth
    /// check.
    idle_guard: bool,
    idle_dep: bool,
    idle_shared: bool,
    /// This cycle's pass is skipped. Set when the pass begins, cleared
    /// after `dpe_step` if a retirement woke the lane.
    pub gated: bool,
    /// `gen` when this cycle's pass began.
    pass_gen: u64,
    /// The right neighbour's `space` at this cycle's `XferRight` pass.
    pub pass_right_space: u64,
    /// Per cycle: a data phase moved a word, a vector or a flag of the
    /// lane's streams.
    pub moved: bool,
    /// Per cycle: the source phase's guard held a load.
    pub guard: bool,
    /// Per cycle: a shared-scratchpad stream reached its bandwidth check.
    pub shared: bool,
    /// What the kernel did with the lane's passes, for the wake tests.
    #[cfg(test)]
    pub tally: WakeTally,
}

/// Counts of gated passes and of the ways a gated pass woke mid-cycle.
#[cfg(test)]
#[derive(Debug, Clone, Default)]
pub(crate) struct WakeTally {
    pub gated: u64,
    pub woken_by_retirement: u64,
    pub woken_by_right_space: u64,
    pub run_for_shared_budget: u64,
}

impl Default for DataWake {
    fn default() -> Self {
        DataWake {
            gen: 0,
            space: 0,
            idle_gen: NOT_IDLE,
            idle_at: 0,
            idle_until: 0,
            idle_right_space: 0,
            idle_guard: false,
            idle_dep: false,
            idle_shared: false,
            gated: false,
            pass_gen: 0,
            pass_right_space: 0,
            moved: false,
            guard: false,
            shared: false,
            #[cfg(test)]
            tally: WakeTally::default(),
        }
    }
}

/// One vector lane.
#[derive(Debug, Clone)]
pub(crate) struct Lane {
    pub cfg: LaneConfig,
    pub spad: Scratchpad,
    pub in_ports: Vec<InPort>,
    /// The input ports whose last vector's flush is deferred
    /// ([`InPort::owes_flush`]): the ones the port-tick phase retries.
    pub flush_owed: PortSet,
    pub out_ports: Vec<OutPort>,
    pub in_busy: Vec<bool>,
    pub out_busy: Vec<bool>,
    pub cmd_queue: VecDeque<revel_isa::StreamCommand>,
    pub streams: Vec<ActiveStream>,
    /// Bumped by every event that can make a blocked stream command on
    /// this lane, or an `XferRight` into it, issuable (the kernel module's
    /// "Woken, not polled" lists them).
    pub wake: u64,
    /// This lane's and its right neighbour's `wake` at the lane's last
    /// issue scan, if that scan issued nothing.
    pub idle_scan: Option<(u64, u64)>,
    /// A stream in the table may have completed since the last retirement
    /// pass over this lane.
    pub retire_due: bool,
    pub data: DataWake,
    pub regions: Vec<RegionState>,
    pub instances: Vec<TempInstance>,
    /// Retired instances kept for their buffers, so a temporal fire
    /// allocates only until the in-flight bound is first reached.
    spare_instances: Vec<TempInstance>,
    num_dpes: usize,
    /// Per dPE: one past the last cycle it issued in (0 = never).
    dpe_issued: Vec<u64>,
    /// Reconfiguration completes at this cycle (0 = not reconfiguring).
    pub reconfig_until: u64,
    pub breakdown: CycleBreakdown,
    pub events: EventCounts,
    // Per-cycle flags for classification.
    pub fired_systolic: u32,
    pub fired_temporal: bool,
    pub bw_starved: bool,
    pub barrier_blocked: bool,
    pub dep_blocked: bool,
    pub draining: bool,
    /// True if the dPE executor issued or retired this cycle (the data
    /// phases report in `data.moved`). The event-horizon loop may only skip
    /// ahead after a cycle in which no lane progressed.
    pub dpe_progressed: bool,
    /// Classification of the most recently recorded cycle. A skipped stall
    /// span repeats this class: the machine state the classifier reads is
    /// unchanged across the span by the quiescence invariant.
    pub last_class: CycleClass,
    /// Hardware stream-predication support (ablation knob).
    pub predication: bool,
}

impl Lane {
    pub(crate) fn new(cfg: &LaneConfig, predication: bool) -> Self {
        let in_ports = cfg
            .in_port_widths
            .iter()
            .map(|w| InPort::new(*w, cfg.port_fifo_depth))
            .collect::<Vec<_>>();
        let out_ports = cfg
            .out_port_widths
            .iter()
            .map(|w| OutPort::new(*w, cfg.port_fifo_depth))
            .collect::<Vec<_>>();
        Lane {
            cfg: cfg.clone(),
            spad: Scratchpad::new(cfg.spad_words),
            in_busy: vec![false; in_ports.len()],
            out_busy: vec![false; out_ports.len()],
            in_ports,
            flush_owed: PortSet::default(),
            out_ports,
            cmd_queue: VecDeque::new(),
            streams: Vec::new(),
            wake: 0,
            idle_scan: None,
            retire_due: false,
            data: DataWake::default(),
            regions: Vec::new(),
            instances: Vec::new(),
            spare_instances: Vec::new(),
            num_dpes: cfg.num_dataflow_pes.max(1),
            dpe_issued: vec![0; cfg.num_dataflow_pes.max(1)],
            reconfig_until: 0,
            breakdown: CycleBreakdown::default(),
            events: EventCounts::default(),
            fired_systolic: 0,
            fired_temporal: false,
            bw_starved: false,
            barrier_blocked: false,
            dep_blocked: false,
            draining: false,
            dpe_progressed: false,
            last_class: CycleClass::Idle,
            predication,
        }
    }

    pub(crate) fn reset_cycle_flags(&mut self) {
        self.fired_systolic = 0;
        self.fired_temporal = false;
        self.bw_starved = false;
        self.barrier_blocked = false;
        self.dep_blocked = false;
        self.draining = false;
        self.dpe_progressed = false;
        self.data.moved = false;
        self.data.guard = false;
        self.data.shared = false;
    }

    /// Begins this cycle's data pass, after command issue. The pass is
    /// skipped (`data.gated`) when the lane's last pass moved nothing and
    /// was not bandwidth-starved, no wake event has bumped `data.gen` since
    /// that pass began, and none of its data timers has arrived: every
    /// data phase would then repeat it, so the flags it raised are raised
    /// again instead. `gate` is false under the reference stepper.
    #[inline]
    pub(crate) fn begin_data_pass(&mut self, now: u64, gate: bool) -> bool {
        self.data.pass_gen = self.data.gen;
        self.data.gated = gate && self.data.idle_gen == self.data.gen && now < self.idle_until();
        let w = &mut self.data;
        if w.gated {
            w.guard = w.idle_guard;
            w.shared = w.idle_shared;
            self.barrier_blocked |= w.idle_guard;
            self.dep_blocked |= w.idle_dep;
            #[cfg(test)]
            {
                w.tally.gated += 1;
            }
        }
        w.gated
    }

    /// The remembered pass's earliest data timer. Region timers move only
    /// when the lane moves or `gen` is bumped, so it can be computed from
    /// the pass's cycle on any later one.
    #[inline]
    fn idle_until(&mut self) -> u64 {
        if self.data.idle_until == 0 {
            self.data.idle_until = self.first_timer_after(self.data.idle_at);
        }
        self.data.idle_until
    }

    #[cold]
    fn first_timer_after(&self, at: u64) -> u64 {
        self.regions.iter().filter_map(|r| r.next_event(at)).min().unwrap_or(u64::MAX)
    }

    /// Ends this cycle's data pass: remembers it if it moved nothing and
    /// was not bandwidth-starved. A pass gated throughout is the pass it
    /// repeated, so only its `XferRight` view of the right neighbour moves.
    #[inline]
    pub(crate) fn end_data_pass(&mut self, now: u64) {
        let w = &mut self.data;
        if w.moved || self.bw_starved {
            w.idle_gen = NOT_IDLE;
            return;
        }
        if !w.gated {
            w.idle_gen = w.pass_gen;
            w.idle_at = now;
            w.idle_until = 0;
            w.idle_guard = w.guard;
            w.idle_dep = self.dep_blocked;
            w.idle_shared = w.shared;
        }
        w.idle_right_space = w.pass_right_space;
    }

    /// True if a gated lane's `XferRight` pass must still run: its right
    /// neighbour's input ports may have gained space since the pass it
    /// repeats.
    #[inline]
    pub(crate) fn right_space_moved(&self) -> bool {
        self.data.pass_right_space != self.data.idle_right_space
    }

    /// Applies a fabric configuration: installs regions with their
    /// schedules and resets all port state.
    pub(crate) fn apply_config(&mut self, regions: &[Region], schedules: &[RegionSchedule]) {
        assert_eq!(regions.len(), schedules.len());
        self.regions.clear();
        self.clear_instances();
        for (region, sched) in regions.iter().zip(schedules) {
            let temporal_shape = if region.kind == RegionKind::Temporal {
                Some(TemporalShape::new(&temporal_nodes(&region.dfg, self.num_dpes, region.unroll)))
            } else {
                None
            };
            let in_ports: Vec<u8> = region.input_ports().iter().map(|p| p.0).collect();
            self.regions.push(RegionState {
                eval: region.dfg.evaluator(region.unroll),
                region: region.clone(),
                sched: *sched,
                in_ports,
                out_ports: region.output_ports().iter().map(|p| p.0).collect(),
                fu_ops: region
                    .dfg
                    .fu_demand()
                    .into_iter()
                    .map(|(class, n)| (class, (n * region.unroll) as u64))
                    .collect(),
                next_fire: 0,
                inflight: VecDeque::new(),
                results: VecDeque::new(),
                temporal_shape,
                instances: 0,
                retire_blocked: false,
                dead: false,
                stalled_until: 0,
            });
        }
        // Reset ports. Input ports bound to a region run at that region's
        // logical width (scalar inputs at width 1); unbound ports default
        // to their hardware width.
        let mut logical: Vec<usize> = self.cfg.in_port_widths.clone();
        for region in regions {
            for (p, scalar) in region.input_bindings() {
                logical[p.0 as usize] = region.port_logical_width(scalar);
            }
        }
        for (i, p) in self.in_ports.iter_mut().enumerate() {
            *p = InPort::new(logical[i], self.cfg.port_fifo_depth);
        }
        self.flush_owed = PortSet::default();
        for (i, p) in self.out_ports.iter_mut().enumerate() {
            *p = OutPort::new(self.cfg.out_port_widths[i], self.cfg.port_fifo_depth);
        }
        self.in_busy.iter_mut().for_each(|b| *b = false);
        self.out_busy.iter_mut().for_each(|b| *b = false);
        self.wake += 1;
        self.data.gen += 1;
        self.data.space += 1;
    }

    /// Drops every temporal instance in flight, keeping its buffers, and
    /// forgets when each dPE last issued (a new run counts cycles from 0).
    pub(crate) fn clear_instances(&mut self) {
        self.spare_instances.append(&mut self.instances);
        self.regions.iter_mut().for_each(|r| r.instances = 0);
        self.dpe_issued.iter_mut().for_each(|d| *d = 0);
    }

    /// True when no stream, firing, or temporal instance is outstanding.
    pub(crate) fn is_idle(&self) -> bool {
        self.cmd_queue.is_empty()
            && self.streams.is_empty()
            && self.instances.is_empty()
            && self.regions.iter().all(|r| r.idle())
            && self.reconfig_until == 0
    }

    /// True when the fabric has drained (needed before reconfiguration).
    pub(crate) fn fabric_drained(&self) -> bool {
        self.streams.is_empty()
            && self.instances.is_empty()
            && self.regions.iter().all(|r| r.idle())
    }

    pub(crate) fn has_active_store(&self) -> bool {
        self.streams.iter().any(|s| s.is_store())
    }

    /// Fires every region that is ready this cycle. `li` is this lane's
    /// index, for a recording run's `recorder`.
    pub(crate) fn fire_regions(&mut self, now: u64, li: usize, recorder: &mut Option<Recorder>) {
        let has_pending_activity =
            !self.streams.is_empty() || !self.cmd_queue.is_empty() || !self.instances.is_empty();
        for r in 0..self.regions.len() {
            let ready = self.region_ready(r, now);
            match ready {
                ReadyState::Ready => self.fire_region(r, now, li, recorder),
                ReadyState::MissingInput => {
                    if has_pending_activity {
                        self.dep_blocked = true;
                    }
                }
                ReadyState::Blocked | ReadyState::NoData => {}
            }
        }
    }

    fn region_ready(&self, r: usize, now: u64) -> ReadyState {
        let rs = &self.regions[r];
        // `dead` is constant state and `stalled_until` is a pure timer
        // enumerated by `RegionState::next_event`, so this check preserves
        // the kernel's quiescence/skip invariant.
        if rs.dead || now < rs.stalled_until {
            return ReadyState::Blocked;
        }
        if now < rs.next_fire || rs.inflight.len() >= 8 {
            return ReadyState::Blocked;
        }
        if rs.instances >= MAX_TEMPORAL_INSTANCES {
            return ReadyState::Blocked;
        }
        for (k, p) in rs.in_ports.iter().enumerate() {
            if !self.in_ports[*p as usize].has_data() {
                return if k > 0 || self.in_ports_have_any_data(rs) {
                    ReadyState::MissingInput
                } else {
                    ReadyState::NoData
                };
            }
        }
        for p in &rs.out_ports {
            if !self.out_ports[*p as usize].has_space() {
                return ReadyState::Blocked;
            }
        }
        ReadyState::Ready
    }

    fn in_ports_have_any_data(&self, rs: &RegionState) -> bool {
        rs.in_ports.iter().any(|p| self.in_ports[*p as usize].has_data())
    }

    /// The valid-lane count a fire of region `r` would cover right now:
    /// the minimum head valid-count across full-width vector inputs. It
    /// reads port predicates only, so a recording run's fires cover what a
    /// concrete run's do.
    fn compute_fire_valid(&self, r: usize) -> u32 {
        let unroll = self.regions[r].region.unroll;
        let mut fire_valid = unroll as u32;
        for p in &self.regions[r].in_ports {
            let port = &self.in_ports[*p as usize];
            if port.width() == unroll && unroll > 1 {
                if let Some(valid) = port.head_valid_count() {
                    fire_valid = fire_valid.min(valid);
                }
            }
        }
        fire_valid.max(1)
    }

    /// The functional half of a region fire: gathers inputs from the ports
    /// (mutating reuse FSMs), evaluates the DFG — on values, or in a
    /// recording run symbolically over the gathered tags — queues the
    /// output vectors on the region's `results`, and returns the minimum
    /// adapted valid-count. Both runs gather through the same ports, so
    /// which tag fills which lane of which input is a concrete run's.
    fn gather_and_fire(
        &mut self,
        r: usize,
        fire_valid: u32,
        li: usize,
        recorder: &mut Option<Recorder>,
    ) -> u32 {
        let Lane { regions, in_ports, in_busy, events, wake, .. } = self;
        let rs = &mut regions[r];
        let unroll = rs.region.unroll;
        // Gather inputs straight into the evaluator's input slots.
        // Scalar-broadcast ports burn `fire_valid` reuse elements per fire
        // (reuse counts are in element units); vector ports consume one
        // presentation per fire.
        let mut min_valid = unroll as u32;
        for (k, p) in rs.in_ports.iter().enumerate() {
            let port = &mut in_ports[*p as usize];
            let v = if port.width() < unroll {
                port.take_elems(fire_valid as i64)
            } else {
                port.take()
            };
            // A free port that drains can bind the next stream queued for it.
            if !in_busy[*p as usize] && port.is_drained() {
                *wake += 1;
            }
            events.port_words += v.width() as u64;
            let adapted = adapt_width(v, unroll);
            min_valid = min_valid.min(adapted.valid_count());
            rs.eval.set_input(k, adapted);
        }
        match recorder {
            Some(rec) => rs.results.extend(rec.fire(li, r, rs.eval.inputs())),
            None => rs.results.extend(rs.eval.fire_set()),
        }
        min_valid
    }

    fn fire_region(&mut self, r: usize, now: u64, li: usize, recorder: &mut Option<Recorder>) {
        self.data.moved = true;
        // Its inputs may free space for the left neighbour's `XferRight`s.
        self.data.space += 1;
        // The fire covers `fire_valid` logical inner-loop elements: the
        // minimum valid-lane count across full-width vector inputs.
        let fire_valid = self.compute_fire_valid(r);
        let min_valid = self.gather_and_fire(r, fire_valid, li, recorder);
        let rs = &mut self.regions[r];

        if let Some(shape) = &rs.temporal_shape {
            // dPE instructions are counted when issued by the executor.
            let mut inst = self.spare_instances.pop().unwrap_or_default();
            inst.start(r, shape, now);
            self.instances.push(inst);
            rs.instances += 1;
            rs.next_fire = now + 1;
        } else {
            for (class, n) in &rs.fu_ops {
                self.events.count_fu_op(*class, *n);
            }
            self.events.switch_hops += rs.sched.hops_per_fire as u64;
            rs.inflight.push_back(now + rs.sched.latency as u64);
            let mut ii = rs.sched.ii as u64;
            // Without hardware stream predication, a partially-valid vector
            // fire degenerates to scalar-remainder execution: one extra
            // cycle per valid lane beyond the first.
            let unroll = rs.region.unroll;
            if !self.predication && (min_valid as usize) < unroll && min_valid > 0 {
                ii += (min_valid - 1) as u64;
            }
            rs.next_fire = now + ii.max(1);
            self.fired_systolic += 1;
        }
    }

    /// Delivers matured systolic outputs to output ports (respecting
    /// FIFO space — backpressure stalls delivery).
    pub(crate) fn deliver_outputs(&mut self, now: u64) {
        let Lane { regions, out_ports, events, data, .. } = self;
        for rs in regions.iter_mut() {
            let n_out = rs.out_ports.len();
            while rs.inflight.front().is_some_and(|ready| *ready <= now) {
                if !results_fit(&rs.results, n_out, out_ports) {
                    break;
                }
                rs.inflight.pop_front();
                data.moved = true;
                push_results(&mut rs.results, n_out, out_ports, events);
            }
        }
    }

    /// One cycle of the triggered-instruction executor: each dataflow PE
    /// issues at most one ready instruction — the first instance in fire
    /// order, then the first instruction in shape order, among those whose
    /// operands complete by `now` — and finished instances retire.
    pub(crate) fn dpe_step(&mut self, now: u64) {
        self.dpe_step_observed(now, |_, _, _, _| {});
    }

    /// [`Lane::dpe_step`], calling `on_issue(dpe, instance, instruction,
    /// completion)` per issue; `instance` is the position in `instances`
    /// and `instruction` the shape's dPE-major number.
    fn dpe_step_observed(&mut self, now: u64, mut on_issue: impl FnMut(usize, usize, usize, u64)) {
        if self.instances.is_empty() {
            return;
        }
        let Lane { regions, instances, spare_instances, out_ports, events, dpe_issued, .. } = self;
        let mut issued = 0;
        for (k, inst) in instances.iter_mut().enumerate() {
            if issued == self.num_dpes {
                break;
            }
            // A temporal instance's region always carries its shape.
            let shape = regions[inst.region].temporal_shape.as_ref().expect("temporal");
            issued += inst.issue(shape, now, dpe_issued, |dpe, i, done| on_issue(dpe, k, i, done));
        }
        if issued > 0 {
            events.dpe_instrs += issued as u64;
            self.fired_temporal = true;
            self.dpe_progressed = true;
        }
        // Retire finished instances — in order per region, so dataflow
        // tag-ordering is preserved at the output ports even when a later
        // instance finishes first on another PE.
        for rs in regions.iter_mut() {
            rs.retire_blocked = false;
        }
        let mut i = 0;
        while i < instances.len() {
            let rs = &mut regions[instances[i].region];
            let n_out = rs.out_ports.len();
            if rs.retire_blocked
                || !instances[i].finished(now)
                || !results_fit(&rs.results, n_out, out_ports)
            {
                rs.retire_blocked = true;
                i += 1;
                continue;
            }
            push_results(&mut rs.results, n_out, out_ports, events);
            rs.instances -= 1;
            spare_instances.push(instances.remove(i));
            self.dpe_progressed = true;
            // Its results wait on the output ports and its region may fire
            // again: the rest of this cycle's data pass must run.
            self.data.gen += 1;
        }
        if self.data.gated && self.data.gen != self.data.pass_gen {
            self.data.gated = false;
            #[cfg(test)]
            {
                self.data.tally.woken_by_retirement += 1;
            }
        }
    }

    /// Applies one injected fault against live lane state. Returns `true`
    /// iff state was mutated (a miss — empty port, already-dead region —
    /// is recorded by the caller but changes nothing).
    pub(crate) fn apply_fault(&mut self, kind: FaultKind, now: u64) -> bool {
        match kind {
            FaultKind::DeadPe { region } => {
                if self.regions.is_empty() {
                    return false;
                }
                let r = region as usize % self.regions.len();
                if self.regions[r].dead {
                    return false;
                }
                self.regions[r].dead = true;
                true
            }
            FaultKind::StallPe { region, cycles } => {
                if self.regions.is_empty() {
                    return false;
                }
                let r = region as usize % self.regions.len();
                let until = now + cycles as u64;
                // A stall on a dead region (or one already stalled past
                // `until`) changes no observable behaviour.
                if self.regions[r].dead || self.regions[r].stalled_until >= until {
                    return false;
                }
                self.regions[r].stalled_until = until;
                true
            }
            FaultKind::DropPort { port } => {
                let p = port as usize % self.in_ports.len();
                self.in_ports[p].drop_front()
            }
            FaultKind::BitFlip { port, bit } => {
                let p = port as usize % self.in_ports.len();
                self.in_ports[p].corrupt_front(bit)
            }
        }
    }
}

impl NextEvent for RegionState {
    fn next_event(&self, after: u64) -> Option<u64> {
        // A region's only pure timers are its firing interval, an injected
        // transient stall, and the maturation of its oldest in-flight
        // result (delivery is in-order, so later entries cannot act before
        // the front). A dead region holds no fire timer: it never fires
        // again, and folding `next_fire` forever would stall the horizon.
        let mut next = (!self.dead && self.next_fire > after).then_some(self.next_fire);
        if !self.dead && self.stalled_until > after {
            let s = self.stalled_until;
            next = Some(next.map_or(s, |n| n.min(s)));
        }
        if let Some(ready) = self.inflight.front() {
            if *ready > after {
                next = Some(next.map_or(*ready, |n| n.min(*ready)));
            }
        }
        next
    }
}

impl NextEvent for TempInstance {
    /// Completions are the only timers in the executor, and `due` holds
    /// every one after `due_from`, so this is exact for any `after` from
    /// then on — every cycle the kernel asks about.
    fn next_event(&self, after: u64) -> Option<u64> {
        debug_assert!(after >= self.due_from, "asked about cycles the window has passed");
        let shift = after - self.due_from;
        let ahead = if shift < MAX_TEMPORAL_LATENCY { self.due >> shift } else { 0 };
        (ahead != 0).then(|| after + 1 + u64::from(ahead.trailing_zeros()))
    }
}

impl NextEvent for Lane {
    fn next_event(&self, after: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut fold = |c: Option<u64>| {
            if let Some(c) = c {
                next = Some(next.map_or(c, |n| n.min(c)));
            }
        };
        if self.reconfig_until > after {
            fold(Some(self.reconfig_until));
        }
        for r in &self.regions {
            fold(r.next_event(after));
        }
        for i in &self.instances {
            fold(i.next_event(after));
        }
        next
    }
}

enum ReadyState {
    Ready,
    /// Some input port empty while others have data (a dependence stall).
    MissingInput,
    /// All input ports empty (nothing scheduled for this region yet).
    NoData,
    /// Structural block: II, pipeline depth, or output backpressure.
    Blocked,
}

/// True if every valid vector of the oldest result set (the first `n_out`
/// of `results`) has room at its output port.
fn results_fit(
    results: &VecDeque<(OutPortId, VecVal)>,
    n_out: usize,
    out_ports: &[OutPort],
) -> bool {
    results.iter().take(n_out).all(|(p, v)| !v.any_valid() || out_ports[p.0 as usize].has_space())
}

/// Moves the oldest result set out of `results` onto the output ports.
fn push_results(
    results: &mut VecDeque<(OutPortId, VecVal)>,
    n_out: usize,
    out_ports: &mut [OutPort],
    events: &mut EventCounts,
) {
    for (p, v) in results.drain(..n_out) {
        if v.any_valid() {
            events.port_words += v.valid_count() as u64;
            out_ports[p.0 as usize].push(v);
        }
    }
}

/// Widens or narrows a port vector to the region's unroll width:
/// a scalar port value is broadcast; same-width passes through.
fn adapt_width(v: VecVal, unroll: usize) -> VecVal {
    if v.width() == unroll {
        v
    } else if v.width() == 1 {
        match v.get(0) {
            Some(x) => VecVal::splat(x, unroll),
            None => VecVal::invalid(unroll),
        }
    } else {
        // Unreachable for validated programs: `RevelProgram::validate`
        // rejects any binding whose port width cannot serve the region's
        // unroll (ProgramError::PortWidthMismatch), and `Machine::run`
        // validates before simulating. Reaching this means a caller fed
        // the lane model directly with an unvalidated program.
        panic!("port width {} incompatible with region unroll {unroll}", v.width());
    }
}

/// The instructions of a temporal region in shape order: per unroll
/// replica and instruction node, its dPE, latency, and argument
/// instructions. The dPE is round-robin over the region's own
/// instructions, restarting at dPE 0 for each temporal region of a
/// configuration; `revel_scheduler::place` numbers temporal instructions
/// across the whole configuration instead, so the two placements differ
/// when a configuration holds more than one temporal region (EXPERIMENTS.md
/// D6).
fn temporal_nodes(dfg: &Dfg, num_dpes: usize, unroll: usize) -> Vec<TempNode> {
    let mut nodes = Vec::new();
    for _replica in 0..unroll.max(1) {
        // Map node-id -> instruction index within this replica.
        let mut instr_index = vec![usize::MAX; dfg.len()];
        for (id, node) in dfg.iter() {
            let (lat, args) = match node {
                Node::Op { op, args } => (op.latency() as u64, args.clone()),
                Node::Accum { arg, .. } | Node::AccumVec { arg, .. } => {
                    (OpCode::Add.latency() as u64, vec![*arg])
                }
                _ => continue,
            };
            let arg_instrs: Vec<usize> = args
                .iter()
                .filter_map(|a| {
                    let idx = instr_index[a.0 as usize];
                    (idx != usize::MAX).then_some(idx)
                })
                .collect();
            instr_index[id.0 as usize] = nodes.len();
            let dpe = nodes.len() % num_dpes;
            nodes.push(TempNode { dpe, latency: lat, args: arg_instrs });
        }
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use revel_isa::{InPortId, PatternIter, RateFsm, Rng};

    fn lane() -> Lane {
        Lane::new(&LaneConfig::paper_default(), true)
    }

    fn neg_region(unroll: usize) -> (Region, RegionSchedule) {
        let mut g = Dfg::new("neg");
        let a = g.input(InPortId(4)); // width 2
        let n = g.op(OpCode::Neg, &[a]);
        g.output(n, OutPortId(0));
        (
            Region::systolic("neg", g, unroll),
            RegionSchedule { latency: 4, ii: 1, max_delay_fifo: 0, hops_per_fire: 4 },
        )
    }

    /// The walker as it was before its queries took `&self`: a lazily filled
    /// lookahead, and a scan of a copy of the iterator.
    struct LazyWalker {
        iter: PatternIter,
        pending: Option<PatternElem>,
    }

    impl LazyWalker {
        fn peek(&mut self) -> Option<PatternElem> {
            if self.pending.is_none() {
                self.pending = self.iter.next();
            }
            self.pending
        }

        fn remaining_contains(&mut self, addr: i64) -> bool {
            self.peek().is_some_and(|p| p.offset == addr)
                || self.iter.clone().any(|e| e.offset == addr)
        }

        fn current_row(&mut self) -> i64 {
            self.peek().map_or(i64::MAX, |e| e.j)
        }
    }

    #[test]
    fn walker_queries_match_clone_and_peek() {
        // Row-major upper triangle a[j, j..4] of a 4x5 layout, as Cholesky
        // and the solver store it.
        let tri = AffinePattern::two_d(0, 1, 6, 4, 4, -1);
        let mut new = PatternWalker::new(tri);
        let mut old = LazyWalker { iter: tri.iter(), pending: None };
        loop {
            // The old walker answered the same with its element not yet
            // pulled (fresh, or just advanced) and with it pending (after a
            // `peek`); the new one must match both.
            for pending in [false, true] {
                assert!(old.pending.is_some() == pending || new.exhausted());
                for addr in -1..24 {
                    let mut probe = LazyWalker { iter: old.iter.clone(), pending: old.pending };
                    assert_eq!(new.remaining_contains(addr), probe.remaining_contains(addr));
                }
                assert_eq!(new.current_row(), old.current_row()); // fills `old.pending`
            }
            assert_eq!(new.peek(), old.pending);
            if new.exhausted() {
                break;
            }
            new.advance();
            old.pending = None;
        }
        assert_eq!(new.current_row(), i64::MAX);
        assert!(!new.remaining_contains(21), "the last element is behind an exhausted walker");
    }

    #[test]
    fn written_set_counts_distinct_words_of_its_scratchpad() {
        let mut w = WrittenSet::spanning(AffinePattern::linear(0, 100).addr_range(), 100);
        assert!(!w.contains(7));
        for addr in [7, 64, 99, 7] {
            w.insert(addr);
        }
        assert_eq!(w.len(), 3);
        assert!(w.contains(7) && w.contains(64) && w.contains(99));
        assert!(!w.contains(8), "never written");
        // Outside the scratchpad: never a member, and not recorded.
        w.insert(1 << 40);
        w.insert(-3);
        assert!(!w.contains(1 << 40) && !w.contains(-3));
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn a_written_set_spans_its_pattern_not_the_scratchpad() {
        // Column 3 of a 16-row, 64-word-stride layout: words 195..=1155.
        let column = AffinePattern::strided(195, 64, 16);
        let mut w = WrittenSet::spanning(column.addr_range(), 4096);
        assert_eq!(w.bits().len(), (1155 - 195) / 64 + 1);
        for e in column.iter() {
            assert!(!w.contains(e.offset));
            w.insert(e.offset);
            assert!(w.contains(e.offset));
        }
        assert_eq!(w.len(), 16);
        assert!(!w.contains(194) && !w.contains(196) && !w.contains(1156));
        // A span of at most 128 words is held inline.
        let inline = WrittenSet::spanning(AffinePattern::linear(3, 128).addr_range(), 4096);
        assert_eq!((inline.bits().len(), inline.heap.capacity()), (2, 0));
        let heap = WrittenSet::spanning(AffinePattern::linear(3, 129).addr_range(), 4096);
        assert_eq!((heap.bits().len(), heap.heap.len()), (3, 3));
        // Clipped to the scratchpad; an empty or wholly outside pattern
        // spans nothing.
        assert_eq!(
            WrittenSet::spanning(AffinePattern::linear(90, 20).addr_range(), 100).bits().len(),
            1
        );
        assert!(WrittenSet::spanning(AffinePattern::linear(0, 0).addr_range(), 100)
            .bits()
            .is_empty());
        assert!(WrittenSet::spanning(AffinePattern::linear(100, 4).addr_range(), 100)
            .bits()
            .is_empty());
    }

    #[test]
    fn systolic_fire_and_deliver() {
        let mut l = lane();
        let (r, s) = neg_region(2);
        l.apply_config(&[r], &[s]);
        l.in_ports[4].bind_stream(RateFsm::ONCE);
        assert!(l.in_ports[4].push_word(3.0, false));
        assert!(l.in_ports[4].push_word(4.0, false));
        l.fire_regions(0, 0, &mut None);
        assert_eq!(l.fired_systolic, 1);
        l.deliver_outputs(3);
        assert_eq!(l.out_ports[0].occupancy(), 0, "latency 4 not yet reached");
        l.deliver_outputs(4);
        assert_eq!(l.out_ports[0].occupancy(), 1);
        assert_eq!(l.out_ports[0].pop_kept(), Some(-3.0));
        assert_eq!(l.out_ports[0].pop_kept(), Some(-4.0));
    }

    #[test]
    fn region_respects_ii() {
        let mut l = lane();
        let (r, mut s) = neg_region(2);
        s.ii = 3;
        l.apply_config(&[r], &[s]);
        l.in_ports[4].bind_stream(RateFsm::ONCE);
        for i in 0..8 {
            l.in_ports[4].push_word(i as f64, false);
        }
        l.fire_regions(0, 0, &mut None);
        assert_eq!(l.fired_systolic, 1);
        l.reset_cycle_flags();
        l.fire_regions(1, 0, &mut None);
        assert_eq!(l.fired_systolic, 0, "II=3 blocks cycle 1");
        l.reset_cycle_flags();
        l.fire_regions(3, 0, &mut None);
        assert_eq!(l.fired_systolic, 1);
    }

    #[test]
    fn temporal_region_executes_on_dpe() {
        let mut l = lane();
        let mut g = Dfg::new("recip");
        let a = g.input(InPortId(5)); // scalar port
        let d = g.op(OpCode::Recip, &[a]);
        let m = g.op(OpCode::Mul, &[d, d]);
        g.output(m, OutPortId(5));
        let region = Region::temporal("recip", g);
        let sched = RegionSchedule { latency: 1, ii: 1, max_delay_fifo: 0, hops_per_fire: 0 };
        l.apply_config(&[region], &[sched]);
        l.in_ports[5].bind_stream(RateFsm::ONCE);
        l.in_ports[5].push_word(4.0, false);
        l.fire_regions(0, 0, &mut None);
        assert_eq!(l.instances.len(), 1);
        // recip: 12 cycles, then mul: 4 cycles, 1 instr/cycle issue.
        let mut produced_at = None;
        for t in 0..40 {
            l.dpe_step(t);
            if l.out_ports[5].occupancy() > 0 && produced_at.is_none() {
                produced_at = Some(t);
            }
        }
        let at = produced_at.expect("output produced");
        assert!(at >= 16, "recip+mul takes at least 16 cycles, got {at}");
        assert_eq!(l.out_ports[5].pop_kept(), Some(1.0 / 16.0));
        assert!(l.instances.is_empty());
        assert_eq!(l.events.dpe_instrs, 2);
    }

    /// The executor the operand-driven one replaced: every cycle, each dPE
    /// scans every instruction of every in-flight instance, in fire order
    /// and then shape order, and issues the first whose operands have
    /// completed. It keeps its own per-instruction completion cycles,
    /// parallel to the instances of the lane it steps.
    struct ScanReference {
        /// Per region of the configuration: its instructions in shape order.
        nodes: Vec<Vec<TempNode>>,
        /// Per in-flight instance: each instruction's completion, once issued.
        done_at: Vec<Vec<Option<u64>>>,
        num_dpes: usize,
    }

    /// One issue: dPE, instance (position in fire order), instruction (in
    /// shape order), completion cycle.
    type Issue = (usize, usize, usize, u64);

    impl ScanReference {
        fn new(lane: &Lane, regions: &[Region]) -> Self {
            let nodes =
                regions.iter().map(|r| temporal_nodes(&r.dfg, lane.num_dpes, r.unroll)).collect();
            ScanReference { nodes, done_at: Vec::new(), num_dpes: lane.num_dpes }
        }

        /// The scan's `dpe_step` on `lane`, whose instances it tracks from
        /// their fire on.
        fn step(&mut self, lane: &mut Lane, now: u64) -> Vec<Issue> {
            while self.done_at.len() < lane.instances.len() {
                let region = lane.instances[self.done_at.len()].region;
                self.done_at.push(vec![None; self.nodes[region].len()]);
            }
            let done = |d: &Option<u64>| d.is_some_and(|d| d <= now);
            let mut issues = Vec::new();
            for dpe in 0..self.num_dpes {
                'instances: for (k, inst) in lane.instances.iter().enumerate() {
                    let nodes = &self.nodes[inst.region];
                    let done_at = &mut self.done_at[k];
                    for (n, node) in nodes.iter().enumerate() {
                        if node.dpe != dpe || done_at[n].is_some() {
                            continue;
                        }
                        if !node.args.iter().all(|a| done(&done_at[*a])) {
                            continue;
                        }
                        let remote = node.args.iter().any(|a| nodes[*a].dpe != dpe);
                        let at = now + node.latency + if remote { 2 } else { 0 };
                        done_at[n] = Some(at);
                        lane.events.dpe_instrs += 1;
                        issues.push((dpe, k, n, at));
                        break 'instances;
                    }
                }
            }
            for rs in lane.regions.iter_mut() {
                rs.retire_blocked = false;
            }
            let mut i = 0;
            while i < lane.instances.len() {
                let rs = &mut lane.regions[lane.instances[i].region];
                let n_out = rs.out_ports.len();
                if rs.retire_blocked
                    || !self.done_at[i].iter().all(done)
                    || !results_fit(&rs.results, n_out, &lane.out_ports)
                {
                    rs.retire_blocked = true;
                    i += 1;
                    continue;
                }
                push_results(&mut rs.results, n_out, &mut lane.out_ports, &mut lane.events);
                rs.instances -= 1;
                lane.instances.remove(i);
                self.done_at.remove(i);
            }
            issues
        }

        /// The scan's `Lane::next_event`.
        fn next_event(&self, lane: &Lane, after: u64) -> Option<u64> {
            let completions = self.done_at.iter().flatten().flatten().copied();
            let regions = lane.regions.iter().filter_map(|r| r.next_event(after));
            completions.filter(|d| *d > after).chain(regions).min()
        }
    }

    /// Ports grouped by hardware width (`LaneConfig::paper_default`).
    const PORTS_BY_WIDTH: [(usize, &[u8]); 4] =
        [(8, &[0, 1]), (4, &[2, 3]), (2, &[4, 5]), (1, &[6, 7, 8, 9, 10, 11])];

    /// The positions in `free` of ports of hardware width `width` (in- and
    /// out-ports are laid out alike).
    fn ports_of_width(free: &[u8], width: usize) -> Vec<usize> {
        let (_, ports) = PORTS_BY_WIDTH.iter().find(|(w, _)| *w == width).expect("a port width");
        (0..free.len()).filter(|&i| ports.contains(&free[i])).collect()
    }

    /// Removes and returns a random free port of hardware width `width`.
    fn take_port(rng: &mut Rng, free: &mut Vec<u8>, width: usize) -> u8 {
        let fits = ports_of_width(free, width);
        free.remove(fits[rng.gen_index(fits.len())])
    }

    /// A seeded random temporal region at `unroll` on free ports: one or
    /// two inputs (a vector port of the unroll's width, or a scalar
    /// broadcast), a random op graph with long-latency `Recip`s, repeated
    /// operands and an occasional accumulator, and one or two outputs.
    fn random_temporal_region(
        rng: &mut Rng,
        name: &str,
        free_in: &mut Vec<u8>,
        free_out: &mut Vec<u8>,
    ) -> Region {
        let unroll = [1, 1, 2, 4][rng.gen_index(4)];
        let unroll = if [&*free_in, &*free_out].iter().all(|f| ports_of_width(f, unroll).len() >= 2)
        {
            unroll
        } else {
            1
        };
        let mut g = Dfg::new(name);
        let mut values = vec![g.input(InPortId(take_port(rng, free_in, unroll)))];
        if rng.gen_bool() {
            values.push(g.input_scalar(InPortId(take_port(rng, free_in, 1))));
        }
        if rng.gen_bool() {
            values.push(g.konst(0.5));
        }
        for _ in 0..2 + rng.gen_index(10) {
            let [a, b, c] = [(); 3].map(|()| values[rng.gen_index(values.len())]);
            let v = match rng.gen_index(7) {
                0 => g.op(OpCode::Recip, &[a]),
                1 => g.op(OpCode::Mul, &[a, a]),
                2 => g.op(OpCode::Mul, &[a, b]),
                3 => g.op(OpCode::Add, &[a, b]),
                4 => g.op(OpCode::Neg, &[a]),
                5 => g.op(OpCode::Select, &[a, b, c]),
                _ => g.accum(a, RateFsm::fixed(2)),
            };
            values.push(v);
        }
        let last = values.len() - 1;
        g.output(values[last], OutPortId(take_port(rng, free_out, unroll)));
        if rng.gen_bool() {
            g.output(values[last - 1], OutPortId(take_port(rng, free_out, unroll)));
        }
        Region::temporal_unrolled(name, g, unroll)
    }

    #[test]
    fn operand_driven_executor_issues_what_the_scan_issues() {
        let sched = RegionSchedule { latency: 1, ii: 1, max_delay_fifo: 0, hops_per_fire: 0 };
        let (mut issues, mut retired, mut max_inflight) = (0, 0, 0);
        for seed in 0..48u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let num_dpes = [1, 2, 4, 25][seed as usize % 4];
            let cfg = LaneConfig { num_dataflow_pes: num_dpes, ..LaneConfig::paper_default() };
            let (mut free_in, mut free_out): (Vec<u8>, Vec<u8>) =
                ((0..12).collect(), (0..12).collect());
            let regions: Vec<Region> = (0..1 + rng.gen_index(3))
                .map(|r| {
                    random_temporal_region(&mut rng, &format!("t{r}"), &mut free_in, &mut free_out)
                })
                .collect();
            let mut new = Lane::new(&cfg, true);
            new.apply_config(&regions, &vec![sched; regions.len()]);
            for p in regions.iter().flat_map(|r| r.input_ports()) {
                new.in_ports[p.0 as usize].bind_stream(RateFsm::ONCE);
            }
            let mut old = new.clone();
            let mut reference = ScanReference::new(&old, &regions);
            let what = |now| format!("seed {seed}, {num_dpes} dPEs, cycle {now}");
            for now in 0..400 {
                for lane in [&mut new, &mut old] {
                    lane.reset_cycle_flags();
                }
                // The same seeded feed and drain on both lanes.
                let feed: Vec<bool> = (0..12).map(|_| now < 300 && rng.gen_index(3) > 0).collect();
                let drain: Vec<bool> = (0..12).map(|_| rng.gen_index(3) > 0).collect();
                for lane in [&mut new, &mut old] {
                    for (p, port) in lane.in_ports.iter_mut().enumerate() {
                        if feed[p] && port.can_accept() {
                            port.push_word(1.0 + (now % 7) as f64, false);
                        }
                    }
                    lane.fire_regions(now, 0, &mut None);
                }
                let regions_of =
                    |l: &Lane| l.instances.iter().map(|i| i.region).collect::<Vec<_>>();
                let fired = regions_of(&new);
                let mut got = Vec::new();
                new.dpe_step_observed(now, |dpe, k, i, done| {
                    // Report the instruction by its shape-order index.
                    let nodes = &reference.nodes[fired[k]];
                    let mut order: Vec<usize> = (0..nodes.len()).collect();
                    order.sort_by_key(|&n| nodes[n].dpe);
                    got.push((dpe, k, order[i], done));
                });
                let mut want = reference.step(&mut old, now);
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "issues, {}", what(now));
                assert_eq!(new.fired_temporal, !want.is_empty(), "{}", what(now));
                assert_eq!(regions_of(&new), regions_of(&old), "retirements, {}", what(now));
                for (r, rs) in new.regions.iter().enumerate() {
                    let count = new.instances.iter().filter(|i| i.region == r).count();
                    assert_eq!(rs.instances, count, "region {r}'s count, {}", what(now));
                    max_inflight = max_inflight.max(count);
                }
                assert_eq!(new.events.dpe_instrs, old.events.dpe_instrs, "{}", what(now));
                for (k, inst) in new.instances.iter().enumerate() {
                    let scan = reference.done_at[k].iter().flatten().copied().filter(|d| *d > now);
                    assert_eq!(inst.next_event(now), scan.min(), "instance {k}, {}", what(now));
                }
                assert_eq!(new.next_event(now), reference.next_event(&old, now), "{}", what(now));
                for p in (0..12).filter(|&p| drain[p]) {
                    let (a, b) = (new.out_ports[p].pop_kept(), old.out_ports[p].pop_kept());
                    assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "port {p}, {}", what(now));
                    retired += usize::from(a.is_some());
                }
                for lane in [&mut new, &mut old] {
                    for p in &mut lane.in_ports {
                        p.tick();
                    }
                }
                issues += got.len();
            }
        }
        // The sweep really exercises the executor.
        assert!(issues > 20_000 && retired > 1_000, "{issues} issues, {retired} words out");
        assert_eq!(max_inflight, MAX_TEMPORAL_INSTANCES, "the in-flight bound is reached");
    }

    #[test]
    fn temporal_dpe_numbering_restarts_per_region() {
        // Deviation D6 (EXPERIMENTS.md): the simulator numbers each temporal
        // region's instructions round-robin from dPE 0, where
        // `revel_scheduler::place` numbers them across the configuration
        // and would put the second region's on dPEs 3, 0, 1. The fix flips
        // this test on purpose.
        let chain = |name: &str, port: u8| {
            let mut g = Dfg::new(name);
            let a = g.input(InPortId(port));
            let r = g.op(OpCode::Recip, &[a]);
            let m = g.op(OpCode::Mul, &[r, r]);
            let n = g.op(OpCode::Neg, &[m]);
            g.output(n, OutPortId(port));
            Region::temporal(name, g)
        };
        let mut l =
            Lane::new(&LaneConfig { num_dataflow_pes: 4, ..LaneConfig::paper_default() }, true);
        let sched = RegionSchedule { latency: 1, ii: 1, max_delay_fifo: 0, hops_per_fire: 0 };
        l.apply_config(&[chain("a", 6), chain("b", 7)], &[sched, sched]);
        let dpes = |r: usize| {
            let shape = l.regions[r].temporal_shape.as_ref().expect("temporal");
            shape.instrs.iter().map(|i| i.dpe).collect::<Vec<_>>()
        };
        assert_eq!(dpes(0), [0, 1, 2]);
        assert_eq!(dpes(1), [0, 1, 2], "restarts at dPE 0: the scheduler's numbering has 0, 1, 3");
    }

    #[test]
    fn broadcast_scalar_port_to_vector_region() {
        let mut l = lane();
        let mut g = Dfg::new("scale");
        let x = g.input(InPortId(0)); // width 8
        let s = g.input_scalar(InPortId(5)); // logical width 1 -> broadcast
        let m = g.op(OpCode::Mul, &[x, s]);
        g.output(m, OutPortId(0));
        let region = Region::systolic("scale", g, 8);
        let sched = RegionSchedule { latency: 4, ii: 1, max_delay_fifo: 0, hops_per_fire: 0 };
        l.apply_config(&[region], &[sched]);
        l.in_ports[0].bind_stream(RateFsm::ONCE);
        l.in_ports[5].bind_stream(RateFsm::ONCE);
        for i in 0..8 {
            l.in_ports[0].push_word(i as f64, false);
        }
        l.in_ports[5].push_word(2.0, false);
        l.fire_regions(0, 0, &mut None);
        l.deliver_outputs(4);
        let mut outs = Vec::new();
        while let Some(v) = l.out_ports[0].pop_kept() {
            outs.push(v);
        }
        assert_eq!(outs, [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]);
    }

    #[test]
    fn predicated_fire_without_hw_predication_pays_scalar_cycles() {
        let mut lane_no_pred = Lane::new(&LaneConfig::paper_default(), false);
        let mut g = Dfg::new("neg");
        let a = g.input(InPortId(2)); // width 4
        let n = g.op(OpCode::Neg, &[a]);
        g.output(n, OutPortId(0));
        let region = Region::systolic("neg", g, 4);
        let sched = RegionSchedule { latency: 2, ii: 1, max_delay_fifo: 0, hops_per_fire: 0 };
        lane_no_pred.apply_config(&[region], &[sched]);
        lane_no_pred.in_ports[2].bind_stream(RateFsm::ONCE);
        // 3 of 4 lanes valid (row end).
        lane_no_pred.in_ports[2].push_word(1.0, false);
        lane_no_pred.in_ports[2].push_word(2.0, false);
        lane_no_pred.in_ports[2].push_word(3.0, true);
        lane_no_pred.fire_regions(0, 0, &mut None);
        // next_fire should be 0 + 1 + (3-1) = 3.
        assert_eq!(lane_no_pred.regions[0].next_fire, 3);
    }

    #[test]
    fn dep_blocked_flag_set() {
        let mut l = lane();
        let mut g = Dfg::new("two");
        let a = g.input(InPortId(5)); // scalar port, will have data
        let b = g.input(InPortId(4)); // empty port, awaited
        let s = g.op(OpCode::Add, &[a, b]);
        g.output(s, OutPortId(0));
        let region = Region::systolic("two", g, 1);
        let sched = RegionSchedule { latency: 2, ii: 1, max_delay_fifo: 0, hops_per_fire: 0 };
        l.apply_config(&[region], &[sched]);
        l.in_ports[5].bind_stream(RateFsm::ONCE);
        l.in_ports[5].push_word(1.0, false);
        // Pretend a stream is outstanding so the block counts as dependence.
        l.streams
            .push(ActiveStream { body: StreamBody::Const { dst: 4, values: VecDeque::new() } });
        l.fire_regions(0, 0, &mut None);
        assert_eq!(l.fired_systolic, 0);
        assert!(l.dep_blocked);
    }
}
