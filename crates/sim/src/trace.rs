//! Timing-trace recording, compilation and replay: the "one timing run,
//! N datasets" lever.
//!
//! A program's cycle-level behaviour — which commands issue when, which
//! regions fire with how many valid lanes, which words move through which
//! ports — depends only on problem *sizes*, never on dataset *values*:
//! every stream length, stride, trip count, configuration index and
//! host-op cost is a literal of the program, and no control step reads a
//! data word (DESIGN.md §13). One cycle-accurate run therefore records the
//! linear sequence of functional micro-operations ([`TraceOp`]) in exact
//! execution order, and [`TimingTrace::compile`] lowers it, once, to
//! straight-line code that every further same-shape dataset executes
//! ([`Machine::replay`]): read a word into a slot, apply one scalar op to
//! slots into a new slot, write a slot to memory, or run a host op — no
//! cycle stepping, no port FSM and no DFG evaluation.
//!
//! The compiler is the checked replay walk: it drives the *real* port
//! FSMs and region result queues through the op list with every word a
//! slot tag (a float whose low bits number the slot) instead of a value.
//! That is sound because the ports never inspect values and a fire's
//! predicates are an AND of its input predicates plus accumulator FSMs,
//! so which slot fills which lane of which fire input is the same for
//! every dataset. The arithmetic is just as fixed: each fire is evaluated
//! once more in `revel-dfg`'s [`Symbolic`] domain — the evaluator the
//! simulator fires, over slots instead of values — which records the
//! scalar ops each valid output lane costs, in the order the concrete
//! evaluator performs them, so a replayed memory image is byte-identical
//! to a full simulation of the same dataset. What the walk settles for
//! good is not paid again per dataset: between host ops a word is read
//! from memory at most once, and not at all once a store has written it.
//!
//! Every check the walk makes — guarded pushes succeed, pops produce, fire
//! widths match, a fire's symbolic predicates are the walk's, results are
//! delivered before a reconfiguration and by the end, addresses stay in
//! bounds — is a fact about the op list, made once per trace: an op list
//! that breaks one fails to compile with [`SimError::Replay`] naming the
//! op, never a panic. That timing reads no data is a property of the ISA,
//! not of a program, so no program needs a certificate before replay; the
//! grid oracle's second-dataset sweep and the edge-value replay test are
//! the dynamic evidence.

use crate::kernel::MachineMem;
use crate::lane::Lane;
use crate::machine::{Machine, SimError};
use crate::stats::RunReport;
use revel_dfg::{DfgEvaluator, Domain, OpCode, Symbolic, VecVal};
use revel_fabric::{FabricMask, RevelConfig};
use revel_isa::{MemTarget, ProdMode, RateFsm};
use revel_prog::{structural_id, ControlStep, RevelProgram, StructuralId};
use revel_scheduler::RegionSchedule;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// One recorded functional micro-operation of a timing run.
///
/// Ops are recorded at the exact site (and in the exact global order)
/// where the timing walk mutates functional state, so a linear walk of
/// the sequence reproduces every data movement without any notion of
/// cycles. Timing-only state (busy flags, stream retirement, stall
/// classification) is deliberately absent: it affects *when* these ops
/// happen, which the trace has already resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceOp {
    /// A host op at control-program `pc` ran against scratchpad memory.
    Host {
        /// Control-program index of the [`ControlStep::Host`] step.
        pc: u32,
    },
    /// A lane applied fabric configuration `config`.
    Configure {
        /// Lane index.
        lane: u8,
        /// Index into `program.configs`.
        config: u32,
    },
    /// A region's accumulator length FSM was reprogrammed.
    SetAccumLen {
        /// Lane index.
        lane: u8,
        /// Region index within the active configuration.
        region: u8,
        /// The new accumulation-length FSM.
        len: RateFsm,
    },
    /// An input port was bound to a new stream (reuse FSM reset).
    BindIn {
        /// Lane index.
        lane: u8,
        /// Input-port index.
        port: u8,
        /// The stream's consumption/reuse FSM.
        reuse: RateFsm,
    },
    /// An output port was bound to a new drain stream (discard FSM reset).
    BindOut {
        /// Lane index.
        lane: u8,
        /// Output-port index.
        port: u8,
        /// The stream's production/discard FSM.
        discard: RateFsm,
        /// Keep-first vs drop-first phase selection.
        mode: ProdMode,
    },
    /// A load stream pushed the word at `addr` into an input port.
    /// Replay re-reads the address from *its* scratchpad image, which is
    /// how dataset values flow into the replayed computation.
    PushMem {
        /// Lane index.
        lane: u8,
        /// Destination input port.
        port: u8,
        /// Which scratchpad the word came from.
        target: MemTarget,
        /// Word address read.
        addr: i64,
        /// True when this word ended an inductive inner row.
        row_end: bool,
    },
    /// A const stream pushed an immediate (program-structural, therefore
    /// dataset-independent) value into an input port.
    PushConst {
        /// Lane index.
        lane: u8,
        /// Destination input port.
        port: u8,
        /// Raw bits of the immediate.
        bits: u64,
    },
    /// A stream-end flush landed on an input port (partial vector padded
    /// with predicated-off lanes).
    FlushIn {
        /// Lane index.
        lane: u8,
        /// Input-port index.
        port: u8,
    },
    /// A deferred staging flush landed on an input port's cycle tick.
    TickIn {
        /// Lane index.
        lane: u8,
        /// Input-port index.
        port: u8,
    },
    /// A region fired: inputs gathered from its ports, DFG evaluated.
    Fire {
        /// Lane index.
        lane: u8,
        /// Region index within the active configuration.
        region: u8,
        /// Valid-lane count the fire covered; the compiler recomputes this
        /// from its own port state and treats a mismatch as divergence.
        fire_valid: u32,
    },
    /// A matured systolic result left the pipeline for its output ports.
    Deliver {
        /// Lane index.
        lane: u8,
        /// Region index.
        region: u8,
    },
    /// A temporal (dataflow-PE) instance retired to its output ports.
    RetireTemp {
        /// Lane index.
        lane: u8,
        /// Region index.
        region: u8,
    },
    /// A store stream popped a kept value and wrote it to `addr`.
    PopStore {
        /// Lane index.
        lane: u8,
        /// Source output port.
        port: u8,
        /// Which scratchpad was written.
        target: MemTarget,
        /// Word address written.
        addr: i64,
    },
    /// A drain's `pop_kept` consumed spent/discarded values and returned
    /// nothing; the compiler repeats the call so discard-FSM state stays
    /// in lockstep, and treats a produced value as divergence.
    PopSpent {
        /// Lane index.
        lane: u8,
        /// Output-port index.
        port: u8,
    },
    /// An XFER moved one word from an output port to an input port
    /// (same lane or the right-hand neighbour).
    XferWord {
        /// Source lane.
        src_lane: u8,
        /// Source output port.
        src_port: u8,
        /// Destination lane.
        dst_lane: u8,
        /// Destination input port.
        dst_port: u8,
        /// True when this word ended an inductive inner row at the
        /// destination.
        row_end: bool,
    },
}

/// The recorded timing side of one cycle-accurate run, compiled: the
/// straight-line code every dataset executes, plus the run's full report
/// (cycles, per-lane breakdown, event counts), which every replayed
/// dataset shares verbatim — that *is* data-independent timing being
/// cashed in.
#[derive(Debug, Clone)]
pub struct TimingTrace {
    /// Name of the program the trace was recorded from.
    pub program: String,
    /// The timing run's report, shared by all replays.
    pub report: RunReport,
    program_id: StructuralId,
    config: RevelConfig,
    /// Micro-ops the timing walk recorded.
    ops: usize,
    /// Process-unique, so a machine can keep a trace's constant slots
    /// across its datasets.
    id: u64,
    code: ReplayProgram,
}

/// Source of [`TimingTrace`] ids.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(0);

impl TimingTrace {
    /// Compiles the op list a timing run of `program` on a `config`
    /// machine recorded ([`Machine::run_recording`]) into the straight-line
    /// code its replays execute, making every check of the replay walk
    /// once. A timed-out run's op list is cut off, so it is not lowered:
    /// the trace keeps its report and [`Machine::replay`] refuses it.
    ///
    /// # Errors
    /// [`SimError::Program`] if `program` fails validation, and
    /// [`SimError::Replay`] naming the first op that breaks the walk — a
    /// port rejecting a word, a fire whose valid-lane count differs from
    /// the recorded one or whose symbolic output predicates differ from
    /// the walk's, a delivery with no fired result, a reconfiguration over
    /// an undelivered one, an address outside its scratchpad — or outputs
    /// still undelivered at the end.
    pub fn compile(
        program: &RevelProgram,
        config: &RevelConfig,
        ops: &[TraceOp],
        report: RunReport,
    ) -> Result<TimingTrace, SimError> {
        program.validate(&config.lane)?;
        let code = if report.timed_out {
            ReplayProgram::default()
        } else {
            let mut compiler = Compiler::new(program, config);
            for (i, op) in ops.iter().enumerate() {
                compiler.walk(i, *op)?;
            }
            compiler.finish(ops.len())?
        };
        Ok(TimingTrace {
            program: program.name.clone(),
            report,
            program_id: structural_id(program),
            config: config.clone(),
            ops: ops.len(),
            id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
            code,
        })
    }

    /// Number of micro-ops the timing walk recorded.
    pub fn len(&self) -> usize {
        self.ops
    }

    /// True when the trace recorded no functional activity.
    pub fn is_empty(&self) -> bool {
        self.ops == 0
    }

    /// Structural identity ([`structural_id`]) of the program the trace
    /// was recorded from.
    pub fn program_id(&self) -> StructuralId {
        self.program_id
    }
}

/// The straight-line code a trace compiles to. Every value a dataset
/// computes lives in a slot written once: slot 0 is `+0.0`, the next
/// `consts.len()` slots hold the constants, and each `Load` or `Op` step
/// writes the slot after the previous one's.
#[derive(Debug, Clone, Default)]
struct ReplayProgram {
    steps: Vec<Step>,
    /// The bits of slots `1..=consts.len()`, written once per machine and
    /// trace.
    consts: Vec<u64>,
    /// Slots the program uses.
    slots: usize,
}

/// `Step::Load` / `Step::Store` memory: a lane's private scratchpad, or
/// this one for the shared scratchpad.
const SHARED: u8 = u8::MAX;

/// One step of a [`ReplayProgram`].
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Reads word `addr` of `mem` into the next slot.
    Load { mem: u8, addr: u32 },
    /// Applies `op` to slots `args` into the next slot. A three-operand op
    /// (`Select`) takes its third operand from the slot just before.
    Op { op: OpCode, args: [u32; 2] },
    /// Writes `slot` to word `addr` of `mem`.
    Store { mem: u8, addr: u32, slot: u32 },
    /// Runs the host op at control `pc` (recorded as op `op`).
    Host { pc: u32, op: u32 },
}

// Twelve bytes a step: no step names the slot it writes, and the one
// three-operand op finds its third operand in place, so no step is wider.
const _: () = assert!(std::mem::size_of::<Step>() == 12);

/// The `f64` a slot travels through the compile walk as: slot 0 is the
/// zero a padded lane holds, any other slot `s` the normal float
/// `1 + s × 2⁻⁵²` (subnormal tags would slow the walk's DFG arithmetic).
fn tag(slot: u32) -> f64 {
    if slot == 0 {
        0.0
    } else {
        f64::from_bits(1f64.to_bits() | u64::from(slot))
    }
}

/// The slot a compile-walk value is the tag of.
fn slot_of(v: f64) -> u32 {
    v.to_bits() as u32
}

/// The memory field of a load or store step.
fn mem_code(target: MemTarget, lane: u8) -> u8 {
    match target {
        MemTarget::Private => lane,
        MemTarget::Shared => SHARED,
    }
}

/// The compile walk: the checked replay walk over slot tags, emitting a
/// [`ReplayProgram`] as it goes.
struct Compiler<'a> {
    program: &'a RevelProgram,
    /// Port and region state of each lane; the scratchpads only bound
    /// addresses.
    lanes: Vec<Lane>,
    shared_words: usize,
    /// Stand-ins for `apply_config`'s schedules: the walk has no cycles.
    schedules: Vec<RegionSchedule>,
    /// Each lane's symbolic evaluators, one per region of its active
    /// configuration, built and reprogrammed as the lane's own are.
    evals: Vec<Vec<DfgEvaluator<Symbolic>>>,
    /// Names every slot and records the symbolic fires' ops. Its numbers
    /// are provisional until [`Compiler::finish`].
    sym: Symbolic,
    /// Scratch: a fire's input vectors, as slots.
    inputs: Vec<VecVal<u32>>,
    /// The slot holding a memory word's current value, keyed like a step's
    /// `(mem, addr)`: set by a load or a store, forgotten wholesale at a
    /// host op, which may touch any word. A load of a word held here
    /// costs a dataset nothing.
    words: HashMap<(u8, u32), u32>,
    steps: Vec<Step>,
    /// The slot the last `Load` or `Op` step writes.
    last_write: u32,
    /// The slot of each three-operand op whose third operand a copy
    /// staged (see [`Step::Op`]), in step order.
    staged: Vec<u32>,
}

impl<'a> Compiler<'a> {
    fn new(program: &'a RevelProgram, config: &RevelConfig) -> Self {
        let regions = program.configs.iter().map(Vec::len).max().unwrap_or(0);
        let timing = RegionSchedule { latency: 0, ii: 1, max_delay_fifo: 0, hops_per_fire: 0 };
        Compiler {
            program,
            lanes: (0..config.num_lanes).map(|_| Lane::new(&config.lane, true)).collect(),
            shared_words: config.shared_spad_words,
            schedules: vec![timing; regions],
            evals: (0..config.num_lanes).map(|_| Vec::new()).collect(),
            sym: Symbolic::default(),
            inputs: Vec::new(),
            words: HashMap::new(),
            steps: Vec::new(),
            last_write: 0,
            staged: Vec::new(),
        }
    }

    /// Walks op `i`, emitting the steps it costs a dataset.
    fn walk(&mut self, i: usize, op: TraceOp) -> Result<(), SimError> {
        let program = self.program;
        match op {
            TraceOp::Host { pc } => {
                if !matches!(program.control.get(pc as usize), Some(ControlStep::Host(_))) {
                    return Err(desync(i, format!("no host op at control pc {pc}")));
                }
                self.steps.push(Step::Host { pc, op: i as u32 });
                self.words.clear();
            }
            TraceOp::Configure { lane, config } => {
                let l = self.lane_index(i, lane)?;
                let Some(regions) = program.configs.get(config as usize) else {
                    return Err(desync(i, format!("config {config} out of range")));
                };
                if self.lanes[l].regions.iter().any(|r| !r.idle()) {
                    return Err(desync(i, "reconfigure with undelivered region outputs"));
                }
                self.lanes[l].apply_config(regions, &self.schedules[..regions.len()]);
                self.evals[l] =
                    regions.iter().map(|r| DfgEvaluator::new(&r.dfg, r.unroll)).collect();
            }
            TraceOp::SetAccumLen { lane, region, len } => {
                let l = self.lane_index(i, lane)?;
                let r = self.region_index(i, l, region)?;
                self.lanes[l].regions[r].set_accum_len(len);
                self.evals[l][r].set_accum_len(len);
            }
            TraceOp::BindIn { lane, port, reuse } => {
                let l = self.lane_index(i, lane)?;
                self.in_port(i, l, port)?.bind_stream(reuse);
            }
            TraceOp::BindOut { lane, port, discard, mode } => {
                let l = self.lane_index(i, lane)?;
                self.out_port(i, l, port)?.bind_stream_mode(discard, mode);
            }
            TraceOp::PushMem { lane, port, target, addr, row_end } => {
                let l = self.lane_index(i, lane)?;
                let addr = self.address(i, l, target, addr, "load")?;
                let word = (mem_code(target, lane), addr);
                let slot = match self.words.get(&word) {
                    Some(&slot) => slot,
                    None => {
                        let slot = self.sym.fresh();
                        self.words.insert(word, slot);
                        let (mem, addr) = word;
                        self.steps.push(Step::Load { mem, addr });
                        self.last_write = slot;
                        slot
                    }
                };
                if !self.in_port(i, l, port)?.push_word(tag(slot), row_end) {
                    return Err(desync(i, format!("input port {port} rejected a word")));
                }
            }
            TraceOp::PushConst { lane, port, bits } => {
                let l = self.lane_index(i, lane)?;
                let slot = self.sym.constant(f64::from_bits(bits));
                if !self.in_port(i, l, port)?.push_word(tag(slot), false) {
                    return Err(desync(i, format!("input port {port} rejected a const")));
                }
            }
            TraceOp::FlushIn { lane, port } => {
                let l = self.lane_index(i, lane)?;
                if !self.in_port(i, l, port)?.flush_at_stream_end() {
                    return Err(desync(i, format!("stream-end flush on port {port} failed")));
                }
            }
            TraceOp::TickIn { lane, port } => {
                let l = self.lane_index(i, lane)?;
                if !self.in_port(i, l, port)?.tick() {
                    return Err(desync(i, format!("deferred flush on port {port} failed")));
                }
            }
            TraceOp::Fire { lane, region, fire_valid } => self.fire(i, lane, region, fire_valid)?,
            TraceOp::Deliver { lane, region } => self.deliver(i, lane, region, false)?,
            TraceOp::RetireTemp { lane, region } => self.deliver(i, lane, region, true)?,
            TraceOp::PopStore { lane, port, target, addr } => {
                let l = self.lane_index(i, lane)?;
                let Some(v) = self.out_port(i, l, port)?.pop_kept() else {
                    return Err(desync(i, format!("output port {port} produced no value")));
                };
                let addr = self.address(i, l, target, addr, "store")?;
                let (mem, slot) = (mem_code(target, lane), slot_of(v));
                self.words.insert((mem, addr), slot);
                self.steps.push(Step::Store { mem, addr, slot });
            }
            TraceOp::PopSpent { lane, port } => {
                let l = self.lane_index(i, lane)?;
                if self.out_port(i, l, port)?.pop_kept().is_some() {
                    return Err(desync(
                        i,
                        format!("output port {port} produced a value where timing saw none"),
                    ));
                }
            }
            TraceOp::XferWord { src_lane, src_port, dst_lane, dst_port, row_end } => {
                let sl = self.lane_index(i, src_lane)?;
                let Some(v) = self.out_port(i, sl, src_port)?.pop_kept() else {
                    return Err(desync(i, format!("xfer source port {src_port} was dry")));
                };
                let dl = self.lane_index(i, dst_lane)?;
                if !self.in_port(i, dl, dst_port)?.push_word(v, row_end) {
                    return Err(desync(i, format!("xfer destination port {dst_port} full")));
                }
            }
        }
        Ok(())
    }

    /// A region fire: the real gather over the ports' tags, then the same
    /// fire in the symbolic domain over the gathered slots. Its recorded
    /// ops become steps, and its output slots retag the walk's outputs.
    fn fire(&mut self, i: usize, lane: u8, region: u8, fire_valid: u32) -> Result<(), SimError> {
        let l = self.lane_index(i, lane)?;
        let r = self.region_index(i, l, region)?;
        let ln = &self.lanes[l];
        for &p in ln.regions[r].input_port_ids() {
            if ln.in_ports[p as usize].peek().is_none() {
                return Err(desync(i, format!("input port {p} empty at fire")));
            }
        }
        let computed = ln.compute_fire_valid(r);
        if computed != fire_valid {
            return Err(desync(
                i,
                format!("fire covers {computed} valid lanes, trace recorded {fire_valid}"),
            ));
        }
        self.lanes[l].gather_and_fire(r, fire_valid);
        let Compiler { lanes, evals, sym, inputs, steps, last_write, staged, .. } = self;
        let rs = &mut lanes[l].regions[r];
        rs.replay_fired();
        let (gathered, walked) = rs.last_fire_mut();
        inputs.clear();
        inputs.extend(gathered.iter().map(|v| v.map(slot_of)));
        let outputs = evals[l][r].fire_in(sym, inputs);
        for (v, (_, out)) in walked.zip(outputs) {
            if v.pred() != out.pred() {
                return Err(desync(i, "symbolic fire's output predicates differ from the walk's"));
            }
            *v = out.map(tag);
        }
        for op in sym.drain_ops() {
            let [a, b, c] = op.args;
            if op.op.arity() == 3 && *last_write != c {
                // Stage the third operand in the slot just before the op's.
                steps.push(Step::Op { op: OpCode::Mov, args: [c, 0] });
                staged.push(op.out);
            }
            steps.push(Step::Op { op: op.op, args: [a, b] });
            *last_write = op.out;
        }
        Ok(())
    }

    /// The finished program, once nothing is left in flight, its slots
    /// renumbered: the constants after slot 0, then one slot per `Load`
    /// and `Op` step, in step order.
    fn finish(self, ops: usize) -> Result<ReplayProgram, SimError> {
        if self.lanes.iter().flat_map(|l| &l.regions).any(|r| !r.idle()) {
            return Err(desync(ops, "undelivered region outputs at end of trace"));
        }
        // Every slot named but slot 0 and the constants is a `Load` or `Op`
        // result, named in step order; a staged copy writes one more.
        let consts = self.sym.constants();
        let first = 1 + consts.len();
        let slots = self.sym.slots() + self.staged.len();
        if u32::try_from(slots).is_err() {
            return Err(desync(ops, "more values than a replay program can name"));
        }
        // A result's new number is its rank among the results: the slots
        // named before it, less slot 0 and the constants, plus the copies
        // staged up to it.
        let number = |s: u32| {
            let k = consts.partition_point(|&(c, _)| c < s);
            if s == 0 {
                0
            } else if consts.get(k).is_some_and(|&(c, _)| c == s) {
                (1 + k) as u32
            } else {
                let copies = self.staged.partition_point(|&x| x <= s);
                (first + s as usize - 1 - k + copies) as u32
            }
        };
        // The trace keeps the steps for its lifetime: drop the growth slack.
        let mut steps = self.steps;
        steps.shrink_to_fit();
        for step in &mut steps {
            match step {
                Step::Op { args, .. } => *args = args.map(number),
                Step::Store { slot, .. } => *slot = number(*slot),
                Step::Load { .. } | Step::Host { .. } => {}
            }
        }
        let consts = consts.iter().map(|&(_, bits)| bits).collect();
        Ok(ReplayProgram { steps, consts, slots })
    }

    fn lane_index(&self, op: usize, lane: u8) -> Result<usize, SimError> {
        let l = lane as usize;
        if l < self.lanes.len() {
            Ok(l)
        } else {
            Err(desync(op, format!("lane {lane} out of range ({} lanes)", self.lanes.len())))
        }
    }

    fn region_index(&self, op: usize, l: usize, region: u8) -> Result<usize, SimError> {
        let r = region as usize;
        if r < self.lanes[l].regions.len() {
            Ok(r)
        } else {
            Err(desync(op, format!("region {region} out of range")))
        }
    }

    /// `addr` as a step operand, once it is inside its scratchpad.
    fn address(
        &self,
        op: usize,
        l: usize,
        target: MemTarget,
        addr: i64,
        what: &str,
    ) -> Result<u32, SimError> {
        let in_bounds = match target {
            MemTarget::Private => self.lanes[l].spad.in_bounds(addr),
            MemTarget::Shared => (0..self.shared_words as i64).contains(&addr),
        };
        match u32::try_from(addr) {
            Ok(a) if in_bounds => Ok(a),
            _ => Err(desync(op, format!("{what} address {addr} out of bounds"))),
        }
    }

    fn in_port(&mut self, op: usize, l: usize, port: u8) -> Result<&mut crate::InPort, SimError> {
        let n = self.lanes[l].in_ports.len();
        self.lanes[l]
            .in_ports
            .get_mut(port as usize)
            .ok_or_else(|| desync(op, format!("input port {port} out of range ({n} ports)")))
    }

    fn out_port(&mut self, op: usize, l: usize, port: u8) -> Result<&mut crate::OutPort, SimError> {
        let n = self.lanes[l].out_ports.len();
        self.lanes[l]
            .out_ports
            .get_mut(port as usize)
            .ok_or_else(|| desync(op, format!("output port {port} out of range ({n} ports)")))
    }

    /// Pushes region `region`'s oldest fired result set to its output
    /// ports, checking space the way the timing walk's delivery gate did.
    /// `temporal` is the kind of region the op retires from: a systolic
    /// `Deliver` never takes a temporal region's result, nor the reverse.
    fn deliver(&mut self, op: usize, lane: u8, region: u8, temporal: bool) -> Result<(), SimError> {
        let l = self.lane_index(op, lane)?;
        let Lane { regions, out_ports, .. } = &mut self.lanes[l];
        let outs = regions
            .get_mut(region as usize)
            .filter(|rs| rs.is_temporal() == temporal)
            .and_then(|rs| rs.replay_delivered());
        let Some(outs) = outs else {
            return Err(desync(op, "delivery with no fired result in flight"));
        };
        for (p, v) in outs {
            if !v.any_valid() {
                continue;
            }
            let n = out_ports.len();
            let Some(port) = out_ports.get_mut(p.0 as usize) else {
                return Err(desync(op, format!("output port {} out of range ({n} ports)", p.0)));
            };
            if !port.has_space() {
                return Err(desync(op, format!("output port {} full at delivery", p.0)));
            }
            port.push(v);
        }
        Ok(())
    }
}

/// Accumulates [`TraceOp`]s during a timing walk. Installed on the
/// machine by [`Machine::run_recording`]; `None` (the default) makes every
/// record site a no-op.
#[derive(Debug, Clone, Default)]
pub(crate) struct TraceRecorder {
    pub(crate) ops: Vec<TraceOp>,
}

impl TraceRecorder {
    #[inline]
    pub(crate) fn record(&mut self, op: TraceOp) {
        self.ops.push(op);
    }
}

/// A machine's replay state, kept across the datasets of one trace so a
/// warm replay allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct Executor {
    /// The trace (by id) whose constants `slots` holds.
    trace: Option<u64>,
    slots: Vec<f64>,
}

impl Executor {
    /// The slot buffer for `trace`, its constants written unless they
    /// already are.
    fn slots_for(&mut self, trace: &TimingTrace) -> &mut [f64] {
        if self.trace != Some(trace.id) {
            let code = &trace.code;
            self.slots.clear();
            self.slots.resize(code.slots, 0.0);
            for (slot, &bits) in self.slots.iter_mut().skip(1).zip(&code.consts) {
                *slot = f64::from_bits(bits);
            }
            self.trace = Some(trace.id);
        }
        &mut self.slots
    }
}

/// A timing trace cannot be replayed: a recorded op broke the replay walk
/// when the op list was compiled (a checked port, region or memory
/// operation did not behave as the timing run promised), or the trace
/// does not belong to the program or machine it is replayed on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// Index of the offending op within the recorded op list.
    pub op: usize,
    /// What desynchronized.
    pub message: String,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace replay diverged at op {}: {}", self.op, self.message)
    }
}

/// Shorthand constructor for replay desync errors.
fn desync(op: usize, message: impl Into<String>) -> SimError {
    SimError::Replay(ReplayError { op, message: message.into() })
}

impl Machine {
    /// Runs `program` cycle-accurately while recording the functional
    /// micro-op sequence, and compiles it into a [`TimingTrace`] (which
    /// embeds the run's [`RunReport`]): [`Machine::run_recording`] then
    /// [`TimingTrace::compile`].
    ///
    /// # Errors
    /// Everything those two can return.
    pub fn run_traced(&mut self, program: &RevelProgram) -> Result<TimingTrace, SimError> {
        let (ops, report) = self.run_recording(program)?;
        TimingTrace::compile(program, &self.cfg, &ops, report)
    }

    /// Runs `program` cycle-accurately while recording the functional
    /// micro-op sequence, returning it with the run's report.
    ///
    /// # Errors
    /// Everything [`Machine::run`] can return, plus [`SimError::Replay`]
    /// when the machine is configured with fault injection or a degraded
    /// fabric — perturbed runs are not oblivious and must never seed a
    /// replay trace (mirroring the engine's cache-bypass rule).
    pub fn run_recording(
        &mut self,
        program: &RevelProgram,
    ) -> Result<(Vec<TraceOp>, RunReport), SimError> {
        if self.opts.fault_plan.is_some() || self.opts.fabric_mask != FabricMask::HEALTHY {
            return Err(desync(
                0,
                "refusing to record a timing trace under fault injection or a degraded fabric",
            ));
        }
        self.trace = Some(TraceRecorder::default());
        let result = self.run(program);
        // Always uninstall the recorder, even when the run errored.
        let recorder = self.trace.take().expect("recorder installed above");
        Ok((recorder.ops, result?))
    }

    /// Replays a compiled [`TimingTrace`] against this machine's current
    /// scratchpad contents (the dataset): executes its straight-line code,
    /// reproducing byte-identical functional results without cycle
    /// stepping. Only the scratchpads change.
    ///
    /// `program` must be the one the trace was recorded from (its host
    /// ops run); `revel-workloads`' `replay_trace_on` checks that by
    /// structural identity.
    ///
    /// # Errors
    /// [`SimError::Replay`] when the trace was recorded on another machine
    /// configuration, comes from a timed-out run, or names a host op
    /// `program` does not have.
    pub fn replay(&mut self, program: &RevelProgram, trace: &TimingTrace) -> Result<(), SimError> {
        if trace.config != self.cfg {
            return Err(desync(0, "trace was recorded on another machine configuration"));
        }
        if trace.report.timed_out {
            return Err(desync(trace.ops, "the timing run timed out, so its trace is incomplete"));
        }
        let Machine { lanes, shared, executor, .. } = self;
        let code = &trace.code;
        let slots = executor.slots_for(trace);
        // Each `Load` and `Op` writes the slot after the previous one's.
        let mut next = 1 + code.consts.len();
        for step in &code.steps {
            match *step {
                Step::Load { mem, addr } => {
                    let spad = if mem == SHARED { &*shared } else { &lanes[mem as usize].spad };
                    slots[next] = f64::from_bits(spad.read(i64::from(addr)));
                    next += 1;
                }
                Step::Op { op, args: [a, b] } => {
                    let (a, b, c) = (slots[a as usize], slots[b as usize], slots[next - 1]);
                    slots[next] = op.apply3(a, b, c);
                    next += 1;
                }
                Step::Store { mem, addr, slot } => {
                    let spad =
                        if mem == SHARED { &mut *shared } else { &mut lanes[mem as usize].spad };
                    spad.write(i64::from(addr), slots[slot as usize].to_bits());
                }
                Step::Host { pc, op } => {
                    let Some(ControlStep::Host(host)) = program.control.get(pc as usize) else {
                        return Err(desync(op as usize, format!("no host op at control pc {pc}")));
                    };
                    // Host ops are part of the trusted, validated program
                    // (not the dataset), so they use the same panicking
                    // memory adapter as the timing walk.
                    (host.func)(&mut MachineMem { lanes: &mut *lanes, shared: &mut *shared });
                }
            }
        }
        Ok(())
    }
}
