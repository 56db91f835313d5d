//! Timing-trace recording, compilation and replay: the "one timing run,
//! N datasets" lever.
//!
//! For a certified data-oblivious program (see `revel-verify`'s
//! `ObliviousnessCert`) the cycle-level behaviour of a run — which
//! commands issue when, which regions fire with how many valid lanes,
//! which words move through which ports — depends only on problem
//! *sizes*, never on dataset *values*. One cycle-accurate run therefore
//! records the linear sequence of functional micro-operations
//! ([`TraceOp`]) in exact execution order, and [`TimingTrace::compile`]
//! lowers it, once, to a flat value program that every further same-shape
//! dataset executes ([`Machine::replay`]): read a word into a slot, fire a
//! region's DFG evaluator on inputs gathered from slots, write a slot to
//! memory, or run a host op — no cycle stepping and no port FSM.
//!
//! The compiler is the checked replay walk: it drives the *real* port
//! FSMs and region result queues through the op list with every word a
//! slot tag (a float whose low bits number the slot) instead of a value.
//! That is sound because the ports never inspect values and a fire's
//! predicates are an AND of its input predicates plus accumulator FSMs,
//! so which slot fills which lane of which fire input is the same for
//! every dataset. Slot 0 holds the zero a padded lane carries. The values
//! themselves come from the same evaluators the timing walk fires, fed the
//! same vectors in the same order, so a replayed memory image is
//! byte-identical to a full simulation of the same dataset. What the walk
//! settles for good is not paid again per dataset: between host ops a
//! word is read from memory at most once, and not at all once a store has
//! written it; an input vector two fires share is built once.
//!
//! Every check the walk makes — guarded pushes succeed, pops produce, fire
//! widths match, results are delivered before a reconfiguration and by
//! the end, addresses stay in bounds — is a fact about the op list, made
//! once per trace: an op list that breaks one fails to compile with
//! [`SimError::Replay`] naming the op, never a panic. Replaying a program
//! whose timing depends on its data values computes the recorded
//! dataset's shape over the new values; callers must gate replay on the
//! static certificate, which the trace machinery cannot prove.

use crate::kernel::MachineMem;
use crate::lane::Lane;
use crate::machine::{Machine, SimError};
use crate::stats::RunReport;
use revel_dfg::{DfgEvaluator, VecVal, MAX_VEC_WIDTH};
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

/// The recorded timing side of one cycle-accurate run, compiled: the value
/// program every dataset executes, plus the run's full report (cycles,
/// per-lane breakdown, event counts), which every replayed dataset shares
/// verbatim — that *is* the obliviousness claim being cashed in.
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
    /// Process-unique, so a machine can keep its evaluators and constant
    /// slots across the datasets of one trace.
    id: u64,
    code: ReplayProgram,
}

/// Source of [`TimingTrace`] ids.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(0);

impl TimingTrace {
    /// Compiles the op list a timing run of `program` on a `config`
    /// machine recorded ([`Machine::run_recording`]) into the value program
    /// its replays execute, making every check of the replay walk once.
    /// A timed-out run's op list is cut off, so it is not lowered: the
    /// trace keeps its report and [`Machine::replay`] refuses it.
    ///
    /// # Errors
    /// [`SimError::Program`] if `program` fails validation, and
    /// [`SimError::Replay`] naming the first op that breaks the walk — a
    /// port rejecting a word, a fire whose valid-lane count differs from
    /// the recorded one, a delivery with no fired result, a
    /// reconfiguration over an undelivered one, an address outside its
    /// scratchpad — or outputs still undelivered at the end.
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

/// The flat value program a trace compiles to. Every value a dataset
/// computes lives in a slot: a loaded word, a constant, or one lane of a
/// fire's output vector, each written by exactly one producer before any
/// step reads it. A fire input is a vector over slots; as its slots never
/// change once written, each distinct one is built once per dataset and
/// reused by every later fire it feeds (a reused port value, a window two
/// fires share).
#[derive(Debug, Clone, Default)]
struct ReplayProgram {
    steps: Vec<Step>,
    /// The input vectors of the `Fire` steps, in step order: an index into
    /// the vector buffer, `BUILD`-tagged at a vector's first use.
    inputs: Vec<u32>,
    /// How each vector is built, in order of first use: its predicate,
    /// then the slot of each lane.
    builds: Vec<u32>,
    /// Distinct input vectors.
    vectors: usize,
    /// `(config, region)` of each evaluator instance. Each (lane, config)
    /// pair owns one instance per region of the configuration.
    evals: Vec<(u32, u32)>,
    /// The accumulation lengths `SetAccumLen` steps install.
    rates: Vec<RateFsm>,
    /// Constant slots and their bits, written once per machine and trace.
    consts: Vec<(u32, u64)>,
    /// Slots the program uses, the zero slot included.
    slots: usize,
}

/// Marks the first use of a vector in [`ReplayProgram::inputs`].
const BUILD: u32 = 1 << 31;

/// `Step::Load` / `Step::Store` memory: a lane's private scratchpad, or
/// this one for the shared scratchpad.
const SHARED: u8 = u8::MAX;

/// One step of a [`ReplayProgram`].
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Reads word `addr` of `mem` into `slot`.
    Load { mem: u8, addr: u32, slot: u32 },
    /// Writes `slot` to word `addr` of `mem`.
    Store { mem: u8, addr: u32, slot: u32 },
    /// Fires evaluator `eval` on its next input vectors, writing output
    /// vector `o` lane by lane to the slots from `out + o × width` on.
    Fire { eval: u32, out: u32 },
    /// Runs the host op at control `pc` (recorded as op `op`).
    Host { pc: u32, op: u32 },
    /// A lane's reconfiguration: evaluators `first..first + count` restart.
    Configure { first: u32, count: u32 },
    /// Installs accumulation length `rates[rate]` on evaluator `eval`.
    SetAccumLen { eval: u32, rate: u32 },
}

/// The `f64` a slot travels through the compile walk as: slot 0 is the
/// zero a padded lane holds, any other slot `s` the normal float
/// `1 + s × 2⁻⁵²` (subnormal tags would slow the walk's DFG arithmetic).
fn tag(slot: usize) -> f64 {
    if slot == 0 {
        0.0
    } else {
        f64::from_bits(1f64.to_bits() | slot as u64)
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
    /// Port, region and evaluator state of each lane; the scratchpads
    /// only bound addresses.
    lanes: Vec<Lane>,
    shared_words: usize,
    /// Stand-ins for `apply_config`'s schedules: the walk has no cycles.
    schedules: Vec<RegionSchedule>,
    /// First evaluator instance of each (lane, config) configured so far.
    bases: HashMap<(u8, u32), u32>,
    /// Each lane's first instance of its active configuration.
    current: Vec<u32>,
    /// The slot holding a memory word's current value, keyed like a step's
    /// `(mem, addr)`: set by a load or a store, forgotten wholesale at a
    /// host op, which may touch any word. A load of a word held here
    /// costs a dataset nothing.
    words: HashMap<(u8, u32), u32>,
    /// The index of each distinct input vector: its lanes' slots, its
    /// predicate and its width.
    vector_ids: HashMap<([u32; MAX_VEC_WIDTH], u8, u8), u32>,
    code: ReplayProgram,
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
            bases: HashMap::new(),
            current: vec![0; config.num_lanes],
            words: HashMap::new(),
            vector_ids: HashMap::new(),
            code: ReplayProgram { slots: 1, ..ReplayProgram::default() },
        }
    }

    /// A fresh slot, travelling as its tag.
    fn fresh_slot(&mut self) -> usize {
        self.code.slots += 1;
        self.code.slots - 1
    }

    /// Walks op `i`, emitting the steps it costs a dataset.
    fn walk(&mut self, i: usize, op: TraceOp) -> Result<(), SimError> {
        let program = self.program;
        match op {
            TraceOp::Host { pc } => {
                if !matches!(program.control.get(pc as usize), Some(ControlStep::Host(_))) {
                    return Err(desync(i, format!("no host op at control pc {pc}")));
                }
                self.code.steps.push(Step::Host { pc, op: i as u32 });
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
                let count = regions.len() as u32;
                let evals = &mut self.code.evals;
                let first = *self.bases.entry((lane, config)).or_insert_with(|| {
                    evals.extend((0..count).map(|r| (config, r)));
                    (evals.len() as u32) - count
                });
                self.current[l] = first;
                self.code.steps.push(Step::Configure { first, count });
            }
            TraceOp::SetAccumLen { lane, region, len } => {
                let l = self.lane_index(i, lane)?;
                let r = self.region_index(i, l, region)?;
                self.lanes[l].regions[r].set_accum_len(len);
                let rate = self.code.rates.len() as u32;
                self.code.rates.push(len);
                let eval = self.current[l] + u32::from(region);
                self.code.steps.push(Step::SetAccumLen { eval, rate });
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
                    Some(&slot) => slot as usize,
                    None => {
                        let slot = self.fresh_slot();
                        self.words.insert(word, slot as u32);
                        let (mem, addr) = word;
                        self.code.steps.push(Step::Load { mem, addr, slot: slot as u32 });
                        slot
                    }
                };
                if !self.in_port(i, l, port)?.push_word(tag(slot), row_end) {
                    return Err(desync(i, format!("input port {port} rejected a word")));
                }
            }
            TraceOp::PushConst { lane, port, bits } => {
                let l = self.lane_index(i, lane)?;
                let slot = self.fresh_slot();
                self.code.consts.push((slot as u32, bits));
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
                self.code.steps.push(Step::Store { mem, addr, slot });
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

    /// A region fire: the real gather over the ports' tags, whose input
    /// vectors become the step's inputs, and fresh slots for every lane of
    /// every output vector.
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
        let rs = &mut self.lanes[l].regions[r];
        rs.replay_fired();
        let Compiler { code, vector_ids, .. } = self;
        let (inputs, outputs) = rs.last_fire_mut();
        for v in inputs {
            let width = v.width();
            let mut lanes = [0; MAX_VEC_WIDTH];
            for (k, slot) in lanes[..width].iter_mut().enumerate() {
                *slot = slot_of(v.raw(k));
            }
            let key = (lanes, v.pred(), width as u8);
            let id = match vector_ids.get(&key) {
                Some(&id) => id,
                None => {
                    let id = code.vectors as u32;
                    vector_ids.insert(key, id);
                    code.vectors += 1;
                    code.builds.push(u32::from(v.pred()));
                    code.builds.extend_from_slice(&lanes[..width]);
                    id | BUILD
                }
            };
            code.inputs.push(id);
        }
        let out = code.slots;
        for v in outputs {
            for k in 0..v.width() {
                v.set_raw(k, tag(code.slots));
                code.slots += 1;
            }
        }
        let eval = self.current[l] + u32::from(region);
        code.steps.push(Step::Fire { eval, out: out as u32 });
        Ok(())
    }

    /// The finished program, once nothing is left in flight.
    fn finish(self, ops: usize) -> Result<ReplayProgram, SimError> {
        if self.lanes.iter().flat_map(|l| &l.regions).any(|r| !r.idle()) {
            return Err(desync(ops, "undelivered region outputs at end of trace"));
        }
        let code = &self.code;
        if u32::try_from(code.slots).is_err() || code.vectors >= BUILD as usize {
            return Err(desync(ops, "more values than a replay program can name"));
        }
        Ok(self.code)
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
    /// The trace (by id) the evaluators and constant slots are set up for.
    trace: Option<u64>,
    evals: Vec<DfgEvaluator>,
    slots: Vec<f64>,
    vectors: Vec<VecVal>,
    /// Scratch: the input vectors of the fire in progress.
    inputs: Vec<VecVal>,
}

impl Executor {
    /// Sets up evaluators and slots for `trace`, unless they already are.
    fn prepare(&mut self, program: &RevelProgram, trace: &TimingTrace) -> Result<(), SimError> {
        if self.trace == Some(trace.id) {
            return Ok(());
        }
        self.trace = None;
        self.evals.clear();
        for &(config, region) in &trace.code.evals {
            let Some(r) = program.configs.get(config as usize).and_then(|c| c.get(region as usize))
            else {
                return Err(desync(0, format!("config {config} has no region {region}")));
            };
            self.evals.push(r.dfg.evaluator(r.unroll));
        }
        self.slots.clear();
        self.slots.resize(trace.code.slots, 0.0);
        self.vectors.clear();
        self.vectors.resize(trace.code.vectors, VecVal::invalid(1));
        for &(slot, bits) in &trace.code.consts {
            self.slots[slot as usize] = f64::from_bits(bits);
        }
        self.trace = Some(trace.id);
        Ok(())
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
    /// scratchpad contents (the dataset): executes its value program,
    /// reproducing byte-identical functional results without cycle
    /// stepping. Only the scratchpads change.
    ///
    /// `program` must be the one the trace was recorded from (its host
    /// ops run, and its regions' evaluators fire); `revel-workloads`'
    /// `replay_trace_on` checks that by structural identity.
    ///
    /// # Errors
    /// [`SimError::Replay`] when the trace was recorded on another machine
    /// configuration, comes from a timed-out run, or names a region or
    /// host op `program` does not have.
    pub fn replay(&mut self, program: &RevelProgram, trace: &TimingTrace) -> Result<(), SimError> {
        if trace.config != self.cfg {
            return Err(desync(0, "trace was recorded on another machine configuration"));
        }
        if trace.report.timed_out {
            return Err(desync(trace.ops, "the timing run timed out, so its trace is incomplete"));
        }
        let Machine { lanes, shared, executor, .. } = self;
        executor.prepare(program, trace)?;
        let Executor { evals, slots, vectors, inputs, .. } = executor;
        let code = &trace.code;
        // Cursors into `code.inputs` and `code.builds`.
        let (mut i, mut b) = (0, 0);
        for step in &code.steps {
            match *step {
                Step::Load { mem, addr, slot } => {
                    let spad = if mem == SHARED { &*shared } else { &lanes[mem as usize].spad };
                    slots[slot as usize] = f64::from_bits(spad.read(i64::from(addr)));
                }
                Step::Store { mem, addr, slot } => {
                    let spad =
                        if mem == SHARED { &mut *shared } else { &mut lanes[mem as usize].spad };
                    spad.write(i64::from(addr), slots[slot as usize].to_bits());
                }
                Step::Fire { eval, out } => {
                    let eval = &mut evals[eval as usize];
                    let width = eval.width();
                    inputs.clear();
                    for &input in &code.inputs[i..i + eval.num_inputs()] {
                        let v = (input & !BUILD) as usize;
                        if input & BUILD != 0 {
                            let mut vals = [0.0; MAX_VEC_WIDTH];
                            let lanes = &code.builds[b + 1..b + 1 + width];
                            for (x, s) in vals.iter_mut().zip(lanes) {
                                *x = slots[*s as usize];
                            }
                            vectors[v] = VecVal::with_pred(&vals[..width], code.builds[b] as u8);
                            b += 1 + width;
                        }
                        inputs.push(vectors[v]);
                    }
                    i += inputs.len();
                    for (o, (_, v)) in eval.fire(inputs).iter().enumerate() {
                        let base = out as usize + o * width;
                        for (k, slot) in slots[base..base + width].iter_mut().enumerate() {
                            *slot = v.raw(k);
                        }
                    }
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
                Step::Configure { first, count } => {
                    for eval in &mut evals[first as usize..(first + count) as usize] {
                        eval.reset();
                    }
                }
                Step::SetAccumLen { eval, rate } => {
                    evals[eval as usize].set_accum_len(code.rates[rate as usize]);
                }
            }
        }
        Ok(())
    }
}
