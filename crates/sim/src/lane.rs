//! One REVEL vector lane: ports, active streams, region firing, and the
//! triggered-instruction temporal executor.

use crate::fault::FaultKind;
use crate::kernel::NextEvent;
use crate::memory::Scratchpad;
use crate::port::{InPort, OutPort};
use crate::stats::{CycleBreakdown, CycleClass};
use crate::trace::{TraceOp, TraceRecorder};
use revel_dfg::{Dfg, DfgEvaluator, FuClass, Node, OpCode, Region, RegionKind, VecVal};
use revel_fabric::{EventCounts, LaneConfig};
use revel_isa::{AffinePattern, MemTarget, OutPortId, PatternElem, PatternIter, RateFsm};
use revel_scheduler::RegionSchedule;
use std::collections::VecDeque;

/// A memory pattern walker with one-element lookahead (streams need to
/// retry an element when the destination stalls). The lookahead is always
/// filled, so every query is a `&self` read: the store→load guard asks
/// older streams' walkers without copying them.
#[derive(Debug, Clone)]
pub(crate) struct PatternWalker {
    iter: PatternIter,
    /// The element the stream is at; `None` once the pattern is exhausted.
    head: Option<PatternElem>,
}

impl PatternWalker {
    pub(crate) fn new(pattern: AffinePattern) -> Self {
        let mut iter = pattern.iter();
        let head = iter.next();
        PatternWalker { iter, head }
    }

    pub(crate) fn peek(&self) -> Option<PatternElem> {
        self.head
    }

    pub(crate) fn advance(&mut self) {
        self.head = self.iter.next();
    }

    pub(crate) fn exhausted(&self) -> bool {
        self.head.is_none()
    }

    /// True if the remaining (unvisited) part of the pattern will touch
    /// `addr`. Used for scratchpad store→load ordering.
    pub(crate) fn remaining_contains(&self, addr: i64) -> bool {
        self.head.is_some_and(|e| e.offset == addr) || self.iter.will_visit(addr)
    }

    /// The outer-row index the walker is currently writing/reading, or
    /// `i64::MAX` when exhausted.
    pub(crate) fn current_row(&self) -> i64 {
        self.head.map_or(i64::MAX, |e| e.j)
    }
}

/// The set of word addresses a store stream has written so far: a dense
/// bitset over its scratchpad's words, so the store→load guard's
/// membership test is one shift and mask.
#[derive(Debug, Clone)]
pub(crate) struct WrittenSet {
    bits: Vec<u64>,
}

impl WrittenSet {
    /// An empty set over a scratchpad of `spad_words` words.
    pub(crate) fn new(spad_words: usize) -> Self {
        WrittenSet { bits: vec![0; spad_words.div_ceil(64)] }
    }

    /// Word index and bit of `addr`, or `None` outside the scratchpad.
    fn slot(&self, addr: i64) -> Option<(usize, u64)> {
        let addr = usize::try_from(addr).ok()?;
        (addr / 64 < self.bits.len()).then_some((addr / 64, 1 << (addr % 64)))
    }

    /// Records a written address. One outside the scratchpad is not
    /// recorded: the write itself panics on it.
    pub(crate) fn insert(&mut self, addr: i64) {
        if let Some((word, bit)) = self.slot(addr) {
            self.bits[word] |= bit;
        }
    }

    pub(crate) fn contains(&self, addr: i64) -> bool {
        self.slot(addr).is_some_and(|(word, bit)| self.bits[word] & bit != 0)
    }

    /// Number of distinct addresses written.
    pub(crate) fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
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
}

/// One instruction of a temporal (dataflow) region's instruction graph.
#[derive(Debug, Clone)]
struct TempNode {
    /// Index into the lane's dPE array this instruction is resident on.
    dpe: usize,
    latency: u64,
    /// Indices (into the shape's `nodes`) of argument instructions;
    /// Input/Const arguments are ready at instance creation.
    args: Vec<usize>,
}

/// A firing of a temporal region in flight on the dataflow PEs. Its
/// instruction graph is the region's [`TemporalShape`] and its output
/// vectors are the oldest unretired set in the region's `results` (a
/// region's instances retire in fire order), so an instance owns only its
/// per-instruction progress.
#[derive(Debug, Clone)]
pub(crate) struct TempInstance {
    region: usize,
    /// Per instruction of the shape: completion cycle once issued.
    done_at: Vec<Option<u64>>,
}

impl TempInstance {
    pub(crate) fn region_index(&self) -> usize {
        self.region
    }
}

/// Static description of a temporal region's instruction graph, built once
/// per configuration.
#[derive(Debug, Clone)]
struct TemporalShape {
    nodes: Vec<TempNode>,
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
    /// Scratch: the input vectors of the fire in progress.
    inputs: Vec<VecVal>,
    /// One entry per fired result set not yet delivered, oldest first: the
    /// cycle a systolic result matures. (Temporal fires wait in
    /// `Lane::instances` instead; the trace compiler, which has no cycles,
    /// enters every fire here as 0.)
    inflight: VecDeque<u64>,
    /// The output vectors of every undelivered fire, oldest first:
    /// `out_ports.len()` entries per fire, in output-node order.
    results: VecDeque<(OutPortId, VecVal)>,
    temporal_shape: Option<TemporalShape>,
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

    pub(crate) fn is_temporal(&self) -> bool {
        self.temporal_shape.is_some()
    }

    /// Input-port indices this region reads from (for the trace compiler's
    /// pre-checks).
    pub(crate) fn input_port_ids(&self) -> &[u8] {
        &self.in_ports
    }

    pub(crate) fn idle(&self) -> bool {
        self.inflight.is_empty() && self.results.is_empty()
    }

    /// Trace compiler: enters the fire whose outputs
    /// [`Lane::gather_and_fire`] just queued as awaiting delivery.
    pub(crate) fn replay_fired(&mut self) {
        self.inflight.push_back(0);
    }

    /// Trace compiler: the fire [`Lane::gather_and_fire`] just made — its
    /// input vectors, and its output vectors at the back of the undelivered
    /// results, for the compiler to retag.
    pub(crate) fn last_fire_mut(&mut self) -> (&[VecVal], impl Iterator<Item = &mut VecVal>) {
        let start = self.results.len() - self.out_ports.len();
        (&self.inputs, self.results.range_mut(start..).map(|(_, v)| v))
    }

    /// Trace compiler: the oldest undelivered fire's output vectors,
    /// removed from the queue, or `None` when no fire is awaiting delivery.
    pub(crate) fn replay_delivered(
        &mut self,
    ) -> Option<impl Iterator<Item = (OutPortId, VecVal)> + '_> {
        self.inflight.pop_front()?;
        Some(self.results.drain(..self.out_ports.len()))
    }
}

/// One vector lane.
#[derive(Debug, Clone)]
pub(crate) struct Lane {
    pub cfg: LaneConfig,
    pub spad: Scratchpad,
    pub in_ports: Vec<InPort>,
    pub out_ports: Vec<OutPort>,
    pub in_busy: Vec<bool>,
    pub out_busy: Vec<bool>,
    pub cmd_queue: VecDeque<revel_isa::StreamCommand>,
    pub streams: Vec<ActiveStream>,
    pub regions: Vec<RegionState>,
    pub instances: Vec<TempInstance>,
    /// Retired instances kept for their `done_at` buffers, so a temporal
    /// fire allocates only until the in-flight bound is first reached.
    spare_instances: Vec<TempInstance>,
    num_dpes: usize,
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
    /// True if any component of this lane mutated state this cycle (set by
    /// the step phases, reset with the other per-cycle flags). The
    /// event-horizon loop may only skip ahead after a cycle in which no
    /// lane progressed.
    pub progressed: bool,
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
            out_ports,
            cmd_queue: VecDeque::new(),
            streams: Vec::new(),
            regions: Vec::new(),
            instances: Vec::new(),
            spare_instances: Vec::new(),
            num_dpes: cfg.num_dataflow_pes.max(1),
            reconfig_until: 0,
            breakdown: CycleBreakdown::default(),
            events: EventCounts::default(),
            fired_systolic: 0,
            fired_temporal: false,
            bw_starved: false,
            barrier_blocked: false,
            dep_blocked: false,
            draining: false,
            progressed: false,
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
        self.progressed = false;
    }

    /// Applies a fabric configuration: installs regions with their
    /// schedules and resets all port state.
    pub(crate) fn apply_config(&mut self, regions: &[Region], schedules: &[RegionSchedule]) {
        assert_eq!(regions.len(), schedules.len());
        self.regions.clear();
        self.instances.clear();
        for (region, sched) in regions.iter().zip(schedules) {
            let temporal_shape = if region.kind == RegionKind::Temporal {
                Some(build_temporal_shape(&region.dfg, self.num_dpes, region.unroll))
            } else {
                None
            };
            let in_ports: Vec<u8> = region.input_ports().iter().map(|p| p.0).collect();
            self.regions.push(RegionState {
                eval: region.dfg.evaluator(region.unroll),
                region: region.clone(),
                sched: *sched,
                inputs: Vec::with_capacity(in_ports.len()),
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
        for (i, p) in self.out_ports.iter_mut().enumerate() {
            *p = OutPort::new(self.cfg.out_port_widths[i], self.cfg.port_fifo_depth);
        }
        self.in_busy.iter_mut().for_each(|b| *b = false);
        self.out_busy.iter_mut().for_each(|b| *b = false);
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

    /// Fires every region that is ready this cycle.
    pub(crate) fn fire_regions(&mut self, now: u64, li: u8, trace: &mut Option<TraceRecorder>) {
        let has_pending_activity =
            !self.streams.is_empty() || !self.cmd_queue.is_empty() || !self.instances.is_empty();
        for r in 0..self.regions.len() {
            let ready = self.region_ready(r, now);
            match ready {
                ReadyState::Ready => self.fire_region(r, now, li, trace),
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
        if rs.is_temporal() {
            // Bound in-flight temporal instances per region.
            let count = self.instances.iter().filter(|i| i.region == r).count();
            if count >= 4 {
                return ReadyState::Blocked;
            }
        }
        let mut any_data = false;
        for p in &rs.in_ports {
            match self.in_ports[*p as usize].peek() {
                Some(_) => any_data = true,
                None => {
                    return if any_data || self.in_ports_have_any_data(rs) {
                        ReadyState::MissingInput
                    } else {
                        ReadyState::NoData
                    };
                }
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
        rs.in_ports.iter().any(|p| self.in_ports[*p as usize].peek().is_some())
    }

    /// The valid-lane count a fire of region `r` would cover right now:
    /// the minimum head valid-count across full-width vector inputs. Pure
    /// (reads port heads only) — the trace compiler recomputes it and checks
    /// it against the recorded value as a divergence probe.
    pub(crate) fn compute_fire_valid(&self, r: usize) -> u32 {
        let unroll = self.regions[r].region.unroll;
        let mut fire_valid = unroll as u32;
        for p in &self.regions[r].in_ports {
            let port = &self.in_ports[*p as usize];
            if port.width() == unroll && unroll > 1 {
                if let Some(head) = port.peek() {
                    fire_valid = fire_valid.min(head.valid_count());
                }
            }
        }
        fire_valid.max(1)
    }

    /// The functional half of a region fire: gathers inputs from the ports
    /// (mutating reuse FSMs), evaluates the DFG, queues the output vectors
    /// on the region's `results`, and returns the minimum adapted
    /// valid-count. Shared verbatim by the timing walk and the trace
    /// compiler — that sharing is what makes the compiled gathers (which
    /// value fills which lane of which input) the timing walk's own.
    pub(crate) fn gather_and_fire(&mut self, r: usize, fire_valid: u32) -> u32 {
        let Lane { regions, in_ports, events, .. } = self;
        let rs = &mut regions[r];
        let unroll = rs.region.unroll;
        // Gather inputs. Scalar-broadcast ports burn `fire_valid` reuse
        // elements per fire (reuse counts are in element units); vector
        // ports consume one presentation per fire.
        rs.inputs.clear();
        let mut min_valid = unroll as u32;
        for p in &rs.in_ports {
            let port = &mut in_ports[*p as usize];
            let v = if port.width() < unroll {
                port.take_elems(fire_valid as i64)
            } else {
                port.take()
            };
            events.port_words += v.width() as u64;
            let adapted = adapt_width(v, unroll);
            min_valid = min_valid.min(adapted.valid_count());
            rs.inputs.push(adapted);
        }
        rs.results.extend(rs.eval.fire(&rs.inputs));
        min_valid
    }

    fn fire_region(&mut self, r: usize, now: u64, li: u8, trace: &mut Option<TraceRecorder>) {
        self.progressed = true;
        // The fire covers `fire_valid` logical inner-loop elements: the
        // minimum valid-lane count across full-width vector inputs.
        let fire_valid = self.compute_fire_valid(r);
        if let Some(t) = trace {
            t.record(TraceOp::Fire { lane: li, region: r as u8, fire_valid });
        }
        let min_valid = self.gather_and_fire(r, fire_valid);
        let rs = &mut self.regions[r];

        if let Some(shape) = &rs.temporal_shape {
            // dPE instructions are counted when issued by the executor.
            let mut inst = self
                .spare_instances
                .pop()
                .unwrap_or_else(|| TempInstance { region: r, done_at: Vec::new() });
            inst.region = r;
            inst.done_at.clear();
            inst.done_at.resize(shape.nodes.len(), None);
            self.instances.push(inst);
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
    pub(crate) fn deliver_outputs(&mut self, now: u64, li: u8, trace: &mut Option<TraceRecorder>) {
        let Lane { regions, out_ports, events, progressed, .. } = self;
        for (r, rs) in regions.iter_mut().enumerate() {
            let n_out = rs.out_ports.len();
            while rs.inflight.front().is_some_and(|ready| *ready <= now) {
                if !results_fit(&rs.results, n_out, out_ports) {
                    break;
                }
                rs.inflight.pop_front();
                if let Some(t) = trace.as_mut() {
                    t.record(TraceOp::Deliver { lane: li, region: r as u8 });
                }
                *progressed = true;
                push_results(&mut rs.results, n_out, out_ports, events);
            }
        }
    }

    /// One cycle of the triggered-instruction executor: each dataflow PE
    /// issues at most one ready instruction.
    pub(crate) fn dpe_step(&mut self, now: u64, li: u8, trace: &mut Option<TraceRecorder>) {
        if self.instances.is_empty() {
            return;
        }
        let Lane { regions, instances, spare_instances, out_ports, events, .. } = self;
        let done = |d: &Option<u64>| d.is_some_and(|d| d <= now);
        for dpe in 0..self.num_dpes {
            'instances: for inst in instances.iter_mut() {
                // A temporal instance's region always carries its shape.
                let shape = regions[inst.region].temporal_shape.as_ref().expect("temporal");
                for (n, node) in shape.nodes.iter().enumerate() {
                    if node.dpe != dpe || inst.done_at[n].is_some() {
                        continue;
                    }
                    if !node.args.iter().all(|a| done(&inst.done_at[*a])) {
                        continue;
                    }
                    // Remote operands pay a temporal-network penalty.
                    let remote = node.args.iter().any(|a| shape.nodes[*a].dpe != dpe);
                    let extra = if remote { 2 } else { 0 };
                    inst.done_at[n] = Some(now + node.latency + extra);
                    events.dpe_instrs += 1;
                    self.fired_temporal = true;
                    self.progressed = true;
                    break 'instances;
                }
            }
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
                || !instances[i].done_at.iter().all(done)
                || !results_fit(&rs.results, n_out, out_ports)
            {
                rs.retire_blocked = true;
                i += 1;
                continue;
            }
            if let Some(t) = trace.as_mut() {
                t.record(TraceOp::RetireTemp { lane: li, region: instances[i].region as u8 });
            }
            push_results(&mut rs.results, n_out, out_ports, events);
            spare_instances.push(instances.remove(i));
            self.progressed = true;
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
    fn next_event(&self, after: u64) -> Option<u64> {
        // A dPE instruction issues when its argument instructions have
        // completed; completions are the only timers in the executor.
        self.done_at.iter().flatten().copied().filter(|d| *d > after).min()
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

/// Builds the instruction graph of a temporal region: per instruction node
/// and unroll replica, its dPE (round-robin, matching the scheduler),
/// latency, and argument instruction indices.
fn build_temporal_shape(dfg: &Dfg, num_dpes: usize, unroll: usize) -> TemporalShape {
    let mut nodes = Vec::new();
    for replica in 0..unroll.max(1) {
        // Map node-id -> instruction index within this replica.
        let mut instr_index = vec![usize::MAX; dfg.len()];
        let _ = replica;
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
    TemporalShape { nodes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revel_isa::{InPortId, RateFsm};

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
        let mut w = WrittenSet::new(100);
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
    fn systolic_fire_and_deliver() {
        let mut l = lane();
        let (r, s) = neg_region(2);
        l.apply_config(&[r], &[s]);
        l.in_ports[4].bind_stream(RateFsm::ONCE);
        assert!(l.in_ports[4].push_word(3.0, false));
        assert!(l.in_ports[4].push_word(4.0, false));
        l.fire_regions(0, 0, &mut None);
        assert_eq!(l.fired_systolic, 1);
        l.deliver_outputs(3, 0, &mut None);
        assert_eq!(l.out_ports[0].occupancy(), 0, "latency 4 not yet reached");
        l.deliver_outputs(4, 0, &mut None);
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
            l.dpe_step(t, 0, &mut None);
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
        l.deliver_outputs(4, 0, &mut None);
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
