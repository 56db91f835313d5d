//! Timing-trace recording and replay: the "one timing run, N datasets"
//! lever.
//!
//! A program's cycle-level behaviour — which commands issue when, which
//! regions fire with how many valid lanes, which words move through which
//! ports — depends only on problem *sizes*, never on dataset *values*:
//! every stream length, stride, trip count, configuration index and
//! host-op cost is a literal of the program, and no control step reads a
//! data word (DESIGN.md §13). So one cycle-accurate run writes, as it
//! goes, the straight-line code every further same-shape dataset executes
//! ([`Machine::run_traced`], then [`Machine::replay`]): gather the words a
//! stretch between host ops reads, apply scalar ops to value rows, scatter
//! the words it writes, run the host op — no cycle stepping, no port FSM
//! and no DFG evaluation. Since every dataset runs the same code,
//! [`Machine::replay_batch`] runs each step once across a chunk of
//! datasets, one lane of each row apiece.
//!
//! A recording run is the cycle kernel in tag mode: its own ports, reuse
//! and discard FSMs and result queues carry slot tags (a float whose low
//! bits number the slot) in place of values. That is sound because the
//! ports never inspect values and a fire's predicates are an AND of its
//! input predicates plus accumulator FSMs, so which slot fills which lane
//! of which fire input is the same for every dataset. Each kernel site
//! that makes a value asks the run's `Recorder` for its tag: a load names
//! a slot per first read of a word, a const stream a constant slot, and a
//! fire is evaluated in `revel-dfg`'s [`Symbolic`] domain — the evaluator
//! the simulator fires, over slots instead of values — which records the
//! scalar ops each valid output lane costs, in the order the concrete
//! evaluator performs them, so a replayed memory image is byte-identical
//! to a full simulation of the same dataset. A store pop writes the
//! store table instead of memory, and a host op ends a segment instead of
//! running, so a recording run leaves the scratchpads as it found them.
//! What the run settles for good is not paid again per dataset: between
//! host ops a word is read from memory at most once, and not at all once
//! a store has written it, and only the last value stored to a word is
//! written back. A liveness pass then gives each result a register,
//! reused once its last reader has run, so a chunk's rows stay a few
//! hundred values deep.
//!
//! That timing reads no data is a property of the ISA, not of a program,
//! so no program needs a certificate before replay; the grid oracle's
//! second-dataset sweep and the edge-value replay test are the dynamic
//! evidence.

use crate::kernel::MachineMem;
use crate::lane::Lane;
use crate::machine::{Machine, SimError};
use crate::memory::Scratchpad;
use crate::stats::RunReport;
use revel_dfg::{DfgEvaluator, Domain, OpCode, Region, Symbolic, VecVal};
use revel_fabric::{FabricMask, RevelConfig};
use revel_isa::{MemTarget, OutPortId, RateFsm};
use revel_prog::{structural_id, ControlStep, RevelProgram, StructuralId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// The timing side of one cycle-accurate run: the straight-line code it
/// wrote, which every dataset executes, plus the run's full report
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
    /// Process-unique, so a machine can keep a trace's constant slots
    /// across its datasets.
    id: u64,
    code: ReplayProgram,
}

/// Source of [`TimingTrace`] ids.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(0);

impl TimingTrace {
    /// Number of scalar-op steps the compiled program runs per dataset.
    pub fn len(&self) -> usize {
        self.code.steps.len()
    }

    /// True when the compiled program runs no scalar op.
    pub fn is_empty(&self) -> bool {
        self.code.steps.is_empty()
    }

    /// Structural identity ([`structural_id`]) of the program the trace
    /// was recorded from.
    pub fn program_id(&self) -> StructuralId {
        self.program_id
    }

    /// The compiled program's segments, in order: the ranges of the loads,
    /// steps and stores each runs, and the control pc of the host op that
    /// ends it.
    pub fn segments(&self) -> impl Iterator<Item = ([Range<usize>; 3], Option<u32>)> + '_ {
        let code = &self.code.segments;
        code.iter().map(|s| ([s.loads.clone(), s.steps.clone(), s.stores.clone()], s.host))
    }

    /// The compiled program's steps: `(op, dst, args)` over rows.
    pub fn steps(&self) -> impl Iterator<Item = (OpCode, u32, [u32; 3])> + '_ {
        self.code.steps.iter().map(|s| (s.op, s.dst(), s.args()))
    }

    /// The compiled program's loads, `(mem, addr)`: `mem` is a lane, or
    /// `u8::MAX` for the shared scratchpad.
    pub fn loads(&self) -> impl Iterator<Item = (u8, u32)> + '_ {
        self.code.loads.iter().map(|l| (l.mem, l.addr))
    }

    /// The compiled program's stores, `(mem, addr, row)`.
    pub fn stores(&self) -> impl Iterator<Item = (u8, u32, u32)> + '_ {
        self.code.stores.iter().map(|s| (s.mem, s.addr, s.row))
    }

    /// The bits of the compiled program's constants, rows `1..`.
    pub fn constants(&self) -> &[u64] {
        &self.code.consts
    }

    /// The registers the compiled program's steps write.
    pub fn registers(&self) -> usize {
        self.code.registers
    }
}

/// The straight-line code a recording run writes, over rows of values. Row 0
/// is `+0.0`, the next `consts.len()` rows hold the constants, the next
/// `loads.len()` rows the words the loads read (load `j` into row
/// `1 + consts.len() + j`), and the rest are registers: each step writes
/// one, and a register is reused once its value's last reader has run.
/// A row holds one value per dataset of a chunk.
#[derive(Debug, Clone, Default)]
struct ReplayProgram {
    /// The code between host ops, in order; only the last ends in none.
    segments: Vec<Segment>,
    steps: Vec<Step>,
    loads: Vec<Load>,
    stores: Vec<Store>,
    /// The bits of rows `1..=consts.len()`, written once per machine,
    /// trace and width.
    consts: Vec<u64>,
    /// Registers the steps write.
    registers: usize,
}

impl ReplayProgram {
    /// Rows the program uses: zero, constants, loads and registers.
    fn rows(&self) -> usize {
        1 + self.consts.len() + self.loads.len() + self.registers
    }
}

/// A run of a [`ReplayProgram`] between host ops: its loads are gathered
/// first, then its steps run, then its stores are scattered, then its host
/// op runs. No load reads a word its own stores write: the recording run
/// forwards a stored word's value to every later reader in the segment.
#[derive(Debug, Clone, Default)]
struct Segment {
    loads: Range<usize>,
    steps: Range<usize>,
    stores: Range<usize>,
    /// The control pc of the host op that ends the segment.
    host: Option<u32>,
}

/// `Load` / `Store` memory: a lane's private scratchpad, or this one for
/// the shared scratchpad.
const SHARED: u8 = u8::MAX;

/// A segment's read of word `addr` of `mem`, into its load row.
#[derive(Debug, Clone, Copy)]
struct Load {
    mem: u8,
    addr: u32,
}

/// A segment's write of row `row` to word `addr` of `mem`: the last value
/// the segment stores there.
#[derive(Debug, Clone, Copy)]
struct Store {
    mem: u8,
    addr: u32,
    row: u32,
}

/// One step of a [`ReplayProgram`]: `op` over rows `args` into register
/// `dst`. Only `Select` reads `args[2]`; the unused operands are row 0.
/// The trace keeps one per scalar op for its lifetime, so each row number
/// takes three bytes: a program names fewer than [`MAX_ROWS`] values.
#[derive(Clone, Copy)]
struct Step {
    op: OpCode,
    /// `dst`, then `args`, three little-endian bytes each.
    rows: [u8; 12],
}

const _: () = assert!(std::mem::size_of::<Step>() == 13);

/// Bound on the values a compiled program names: slots during the
/// recording run, rows after it. Register allocation marks a slot in the next bit.
const MAX_ROWS: u32 = 1 << 23;

impl Step {
    fn new(op: OpCode, dst: u32, args: [u32; 3]) -> Step {
        let mut step = Step { op, rows: [0; 12] };
        step.set(dst, args);
        step
    }

    fn dst(&self) -> u32 {
        self.row(0)
    }

    fn args(&self) -> [u32; 3] {
        [self.row(1), self.row(2), self.row(3)]
    }

    /// Row number `k` (`dst`, then `args`).
    fn row(&self, k: usize) -> u32 {
        let r = &self.rows[3 * k..3 * k + 3];
        u32::from_le_bytes([r[0], r[1], r[2], 0])
    }

    fn set(&mut self, dst: u32, args: [u32; 3]) {
        for (k, row) in [dst, args[0], args[1], args[2]].into_iter().enumerate() {
            assert!(row < 1 << 24, "row {row} does not fit a step");
            self.rows[3 * k..3 * k + 3].copy_from_slice(&row.to_le_bytes()[..3]);
        }
    }
}

impl std::fmt::Debug for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Step")
            .field("op", &self.op)
            .field("dst", &self.dst())
            .field("args", &self.args())
            .finish()
    }
}

/// The datasets a host-free trace replays at once, one lane of each row
/// apiece. A trace with host ops replays one dataset at a time, since a
/// host op reads and writes the whole memory of its dataset.
const CHUNK: usize = 16;

/// The `f64` a slot travels through a recording run as: slot 0 is the
/// zero a padded lane holds, any other slot `s` the normal float
/// `1 + s × 2⁻⁵²`.
fn tag(slot: u32) -> f64 {
    if slot == 0 {
        0.0
    } else {
        f64::from_bits(1f64.to_bits() | u64::from(slot))
    }
}

/// The slot a recording run's value is the tag of.
fn slot_of(v: f64) -> u32 {
    v.to_bits() as u32
}

/// The memory field of a load or store of word `addr` of `spad`, `lane`'s
/// if `target` is private, and its address, which must be inside `spad`
/// as for a concrete run's read or write.
fn word(target: MemTarget, lane: usize, spad: &Scratchpad, addr: i64) -> (u8, u32) {
    assert!(spad.in_bounds(addr), "scratchpad access out of bounds: {addr} (size {})", spad.len());
    let mem = match target {
        MemTarget::Private => lane as u8,
        MemTarget::Shared => SHARED,
    };
    (mem, addr as u32)
}

/// The replay program a recording run ([`Machine::run_traced`]) writes as
/// it goes. Installed on the machine for the run, it puts the cycle kernel
/// in tag mode: each kernel site that makes a value takes its tag from here.
#[derive(Debug, Clone)]
pub(crate) struct Recorder {
    /// Each lane's symbolic evaluators, one per region of its active
    /// configuration, built and reprogrammed as the lane's own are.
    evals: Vec<Vec<DfgEvaluator<Symbolic>>>,
    /// Names every slot and records the symbolic fires' ops. Its numbers
    /// are provisional until [`Recorder::finish`].
    sym: Symbolic,
    /// Scratch: a fire's input vectors, as slots.
    inputs: Vec<VecVal<u32>>,
    /// The slot holding a memory word's current value, keyed `(mem, addr)`:
    /// set by a load or a store, forgotten wholesale at a host op, which
    /// may touch any word. A load of a word held here costs a dataset
    /// nothing.
    words: HashMap<(u8, u32), u32>,
    /// The current segment's store to each word it writes, by index into
    /// `stores`: a later store to the word replaces the value it writes.
    stored: HashMap<(u8, u32), usize>,
    /// The program so far, over the symbolic evaluation's slots until
    /// [`Recorder::finish`] assigns rows.
    segments: Vec<Segment>,
    steps: Vec<Step>,
    loads: Vec<Load>,
    stores: Vec<Store>,
    /// The slot each load reads into.
    load_slots: Vec<u32>,
}

impl Recorder {
    pub(crate) fn new(lanes: usize) -> Self {
        Recorder {
            evals: vec![Vec::new(); lanes],
            sym: Symbolic::default(),
            inputs: Vec::new(),
            words: HashMap::new(),
            stored: HashMap::new(),
            segments: Vec::new(),
            steps: Vec::new(),
            loads: Vec::new(),
            stores: Vec::new(),
            load_slots: Vec::new(),
        }
    }

    /// `lane` applied the configuration `regions`.
    pub(crate) fn configure(&mut self, lane: usize, regions: &[Region]) {
        self.evals[lane] = regions.iter().map(|r| DfgEvaluator::new(&r.dfg, r.unroll)).collect();
    }

    /// `lane` reprogrammed `region`'s accumulators.
    pub(crate) fn set_accum_len(&mut self, lane: usize, region: usize, len: RateFsm) {
        self.evals[lane][region].set_accum_len(len);
    }

    /// The tag a load stream of `lane` pushes for word `addr` of `spad`:
    /// the segment's slot for the word, or a new load's.
    pub(crate) fn load(
        &mut self,
        target: MemTarget,
        lane: usize,
        spad: &Scratchpad,
        addr: i64,
    ) -> f64 {
        let (mem, addr) = word(target, lane, spad, addr);
        let slot = *self.words.entry((mem, addr)).or_insert_with(|| {
            let slot = self.sym.fresh();
            self.loads.push(Load { mem, addr });
            self.load_slots.push(slot);
            slot
        });
        tag(slot)
    }

    /// The tag a const stream pushes for the immediate `x`.
    pub(crate) fn constant(&mut self, x: f64) -> f64 {
        tag(self.sym.constant(x))
    }

    /// A fire of `lane`'s `region` over the tags `inputs` gathered: its
    /// symbolic evaluation's ops become steps, and its output vectors, as
    /// tags, are returned in output-node order.
    pub(crate) fn fire(
        &mut self,
        lane: usize,
        region: usize,
        inputs: &[VecVal],
    ) -> impl Iterator<Item = (OutPortId, VecVal)> + '_ {
        self.inputs.clear();
        self.inputs.extend(inputs.iter().map(|v| v.map(slot_of)));
        let outputs = self.evals[lane][region].fire_in(&mut self.sym, &self.inputs);
        // A program naming too many values fails in `finish`; its steps are
        // not kept, since their rows do not fit a step.
        let fits = self.sym.slots() < MAX_ROWS as usize;
        let ops = self.sym.drain_ops().filter(|_| fits);
        self.steps.extend(ops.map(|op| Step::new(op.op, op.out, op.args)));
        outputs.iter().map(|&(port, v)| (port, v.map(tag)))
    }

    /// A store stream of `lane` popped the tag `v` for word `addr` of
    /// `spad`.
    pub(crate) fn store(
        &mut self,
        target: MemTarget,
        lane: usize,
        spad: &Scratchpad,
        addr: i64,
        v: f64,
    ) {
        let (mem, addr) = word(target, lane, spad, addr);
        let row = slot_of(v);
        self.words.insert((mem, addr), row);
        let store = Store { mem, addr, row };
        match self.stored.entry((mem, addr)) {
            Entry::Occupied(e) => self.stores[*e.get()] = store,
            Entry::Vacant(e) => {
                e.insert(self.stores.len());
                self.stores.push(store);
            }
        }
    }

    /// The host op at control pc `pc` ends the current segment. It may
    /// touch any word, so the next segment loads every word it reads.
    pub(crate) fn host(&mut self, pc: usize) {
        self.end_segment(Some(pc as u32));
        self.words.clear();
        self.stored.clear();
    }

    /// Closes the current segment, which the host op at `host` ends.
    fn end_segment(&mut self, host: Option<u32>) {
        let start = self.segments.last().map_or(Segment::default(), Segment::clone);
        self.segments.push(Segment {
            loads: start.loads.end..self.loads.len(),
            steps: start.steps.end..self.steps.len(),
            stores: start.stores.end..self.stores.len(),
            host,
        });
    }

    /// The finished program, with rows in place of slots: the constants
    /// after row 0, then one row per load, then the registers
    /// [`allocate_registers`] assigns.
    fn finish(mut self) -> Result<ReplayProgram, SimError> {
        self.end_segment(None);
        let Recorder { sym, segments, mut steps, mut loads, mut stores, load_slots, .. } = self;
        if sym.slots() >= MAX_ROWS as usize {
            return Err(replay_error("more values than a replay program can name"));
        }
        let consts = sym.constants();
        let fixed: Vec<u32> = std::iter::once(0)
            .chain(consts.iter().map(|&(slot, _)| slot))
            .chain(load_slots)
            .collect();
        let registers =
            allocate_registers(&mut steps, &mut stores, &segments, &fixed).map_err(replay_error)?;
        // The trace keeps the program for its lifetime: drop the growth slack.
        steps.shrink_to_fit();
        stores.shrink_to_fit();
        loads.shrink_to_fit();
        let consts = consts.iter().map(|&(_, bits)| bits).collect();
        Ok(ReplayProgram { segments, steps, loads, stores, consts, registers })
    }
}

/// Register allocation: renames every slot a step reads or writes, or a
/// store writes, to a row. The `k`-th slot of `fixed` is row `k` (zero,
/// constants, loads), and every other slot is a step's result, named in
/// step order. Results take the rows after the fixed ones, registers,
/// each free again once its value's last reader has run — the last step
/// reading it, or the scatter of the segment storing it — and the most
/// recently freed reused first. Returns the number of registers.
///
/// A result's slot is its step's index plus the fixed slots named before
/// it, so the walk needs no table over all slots: a set of the slots read
/// so far, for liveness, and each step's own `dst`, for its register.
fn allocate_registers(
    steps: &mut [Step],
    stores: &mut [Store],
    segments: &[Segment],
    fixed: &[u32],
) -> Result<usize, &'static str> {
    // Marks the last read of a slot, in a step's operand or a store, and a
    // result nothing reads.
    const LAST: u32 = MAX_ROWS;
    let mut by_slot: Vec<(u32, u32)> = (0..).zip(fixed).map(|(row, &slot)| (slot, row)).collect();
    by_slot.sort_unstable();
    let slots = fixed.len() + steps.len();
    let named = |slot: u32| {
        if (slot as usize) < slots {
            Ok(slot as usize)
        } else {
            Err("a step names a value the recording never named")
        }
    };
    let locate = |slot: u32| {
        let k = by_slot.partition_point(|&(s, _)| s < slot);
        match by_slot.get(k) {
            Some(&(s, row)) if s == slot => Ok(Source::Fixed(row)),
            _ => named(slot).map(|slot| Source::Step(slot - k)),
        }
    };
    // Liveness, backwards: a read of a slot no later reader reads is its
    // last, and a value its last reader reads twice is marked once. A
    // segment's scatter runs after its steps.
    let mut seen = vec![false; slots];
    for seg in segments.iter().rev() {
        for store in stores[seg.stores.clone()].iter_mut().rev() {
            if !std::mem::replace(&mut seen[named(store.row)?], true) {
                store.row |= LAST;
            }
        }
        for i in seg.steps.clone().rev() {
            let (mut dst, mut args) = (steps[i].dst(), steps[i].args());
            if locate(dst)? != Source::Step(i) {
                return Err("a step's result is not the next value named");
            }
            for arg in &mut args {
                if !std::mem::replace(&mut seen[named(*arg)?], true) {
                    *arg |= LAST;
                }
            }
            if !seen[dst as usize] {
                dst |= LAST;
            }
            steps[i].set(dst, args);
        }
    }
    drop(seen);
    // Allocation, forwards: a result's register is its step's renamed
    // `dst`, read back while the value is live.
    let first = fixed.len() as u32;
    let mut free = Vec::new();
    let mut registers = 0;
    let read = |steps: &[Step], free: &mut Vec<u32>, slot: u32, before: usize| {
        let row = match locate(slot & !LAST)? {
            Source::Fixed(row) => return Ok(row),
            Source::Step(j) if j < before => steps[j].dst(),
            Source::Step(_) => return Err("a value is read before it is computed"),
        };
        if slot & LAST != 0 {
            free.push(row);
        }
        Ok(row)
    };
    for seg in segments {
        for i in seg.steps.clone() {
            let (dst, args) = (steps[i].dst(), steps[i].args());
            let args = [
                read(steps, &mut free, args[0], i)?,
                read(steps, &mut free, args[1], i)?,
                read(steps, &mut free, args[2], i)?,
            ];
            let reg = free.pop().unwrap_or_else(|| {
                registers += 1;
                first + registers - 1
            });
            if dst & LAST != 0 {
                // Nothing reads it: free again at once.
                free.push(reg);
            }
            steps[i].set(reg, args);
        }
        for store in &mut stores[seg.stores.clone()] {
            store.row = read(steps, &mut free, store.row, seg.steps.end)?;
        }
    }
    Ok(registers as usize)
}

/// Where a slot's value comes from, for [`allocate_registers`].
#[derive(Debug, PartialEq)]
enum Source {
    /// A fixed row: zero, a constant or a load.
    Fixed(u32),
    /// The result of the step at this index.
    Step(usize),
}

/// A machine's replay state, kept across the datasets, chunks and calls
/// of one trace so a warm replay allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct Executor {
    /// The trace (by id) and width whose constants `rows` holds.
    key: Option<(u64, usize)>,
    /// Row `r`'s lanes at `r × width..(r + 1) × width`.
    rows: Vec<f64>,
}

impl Executor {
    /// The rows of `trace` at width `W`, its constants written unless they
    /// already are.
    fn rows<const W: usize>(&mut self, trace: &TimingTrace) -> &mut [[f64; W]] {
        if self.key != Some((trace.id, W)) {
            self.rows.clear();
            self.rows.resize(trace.code.rows() * W, 0.0);
            self.key = Some((trace.id, W));
            let rows = self.rows.as_chunks_mut::<W>().0;
            for (row, &bits) in rows[1..].iter_mut().zip(&trace.code.consts) {
                *row = [f64::from_bits(bits); W];
            }
        }
        self.rows.as_chunks_mut::<W>().0
    }

    /// Replays `trace` on the one dataset in `lanes` and `shared`.
    fn replay(
        &mut self,
        program: &RevelProgram,
        trace: &TimingTrace,
        lanes: &mut Vec<Lane>,
        shared: &mut Scratchpad,
    ) -> Result<(), SimError> {
        let code = &trace.code;
        let rows = self.rows::<1>(trace);
        for seg in &code.segments {
            gather(code, seg, rows, lanes, shared, 0);
            run(rows, &code.steps[seg.steps.clone()]);
            scatter(code, seg, rows, lanes, shared, 0);
            if let Some(pc) = seg.host {
                let Some(ControlStep::Host(host)) = program.control.get(pc as usize) else {
                    return Err(replay_error(format!("no host op at control pc {pc}")));
                };
                // Host ops are part of the trusted, validated program (not
                // the dataset), so they use the same panicking memory
                // adapter as a concrete run.
                (host.func)(&mut MachineMem { lanes: &mut *lanes, shared: &mut *shared });
            }
        }
        Ok(())
    }

    /// [`Machine::replay_batch`] on `machine`, whose executor this was.
    fn replay_batch<D>(
        &mut self,
        machine: &mut Machine,
        program: &RevelProgram,
        trace: &TimingTrace,
        datasets: impl IntoIterator<Item = D>,
        mut init: impl FnMut(&mut Machine, &D),
        mut check: impl FnMut(&Machine, D),
    ) -> Result<(), SimError> {
        let code = &trace.code;
        let mut datasets = datasets.into_iter();
        let [seg] = &code.segments[..] else {
            // Host ops: a dataset at a time, the way `Machine::replay` runs.
            for dataset in datasets {
                init(machine, &dataset);
                self.replay(program, trace, &mut machine.lanes, &mut machine.shared)?;
                check(machine, dataset);
            }
            return Ok(());
        };
        let rows = self.rows::<CHUNK>(trace);
        loop {
            let mut chunk: [Option<D>; CHUNK] = std::array::from_fn(|_| None);
            for (slot, dataset) in chunk.iter_mut().zip(datasets.by_ref()) {
                *slot = Some(dataset);
            }
            if chunk[0].is_none() {
                return Ok(());
            }
            for (k, dataset) in chunk.iter().flatten().enumerate() {
                init(machine, dataset);
                gather(code, seg, rows, &machine.lanes, &machine.shared, k);
            }
            run(rows, &code.steps);
            for (k, dataset) in chunk.into_iter().flatten().enumerate() {
                init(machine, &dataset);
                scatter(code, seg, rows, &mut machine.lanes, &mut machine.shared, k);
                check(machine, dataset);
            }
        }
    }
}

/// Reads `seg`'s loads from the dataset in memory into lane `k` of their
/// rows.
fn gather<const W: usize>(
    code: &ReplayProgram,
    seg: &Segment,
    rows: &mut [[f64; W]],
    lanes: &[Lane],
    shared: &Scratchpad,
    k: usize,
) {
    let first = 1 + code.consts.len() + seg.loads.start;
    for (row, load) in rows[first..].iter_mut().zip(&code.loads[seg.loads.clone()]) {
        let spad = if load.mem == SHARED { shared } else { &lanes[load.mem as usize].spad };
        row[k] = f64::from_bits(spad.read(i64::from(load.addr)));
    }
}

/// Writes lane `k` of `seg`'s stored rows to the dataset in memory.
fn scatter<const W: usize>(
    code: &ReplayProgram,
    seg: &Segment,
    rows: &[[f64; W]],
    lanes: &mut [Lane],
    shared: &mut Scratchpad,
    k: usize,
) {
    for store in &code.stores[seg.stores.clone()] {
        let spad =
            if store.mem == SHARED { &mut *shared } else { &mut lanes[store.mem as usize].spad };
        spad.write(i64::from(store.addr), rows[store.row as usize][k].to_bits());
    }
}

/// Runs `steps` across the `W` lanes of the rows: the one loop over steps
/// a replay has, at every width.
fn run<const W: usize>(rows: &mut [[f64; W]], steps: &[Step]) {
    for step in steps {
        let op = step.op;
        let [a, b, c] = step.args().map(|r| &rows[r as usize]);
        let out = match op {
            OpCode::Add => lanes(op, a, b, b, |a, b, _| a + b),
            OpCode::Sub => lanes(op, a, b, b, |a, b, _| a - b),
            OpCode::Mul => lanes(op, a, b, b, |a, b, _| a * b),
            OpCode::Div => lanes(op, a, b, b, |a, b, _| a / b),
            OpCode::Sqrt => lanes(op, a, a, a, |a, _, _| a.sqrt()),
            OpCode::Rsqrt => lanes(op, a, a, a, |a, _, _| 1.0 / a.sqrt()),
            OpCode::Recip => lanes(op, a, a, a, |a, _, _| 1.0 / a),
            OpCode::Neg => lanes(op, a, a, a, |a, _, _| -a),
            OpCode::Abs => lanes(op, a, a, a, |a, _, _| a.abs()),
            OpCode::Min => lanes(op, a, b, b, |a, b, _| a.min(b)),
            OpCode::Max => lanes(op, a, b, b, |a, b, _| a.max(b)),
            OpCode::CmpLt => lanes(op, a, b, b, |a, b, _| f64::from(u8::from(a < b))),
            OpCode::Select => lanes(op, a, b, c, |a, b, c| if c != 0.0 { a } else { b }),
            OpCode::Mov | OpCode::ReduceAdd => *a,
            // A packed complex word's NaN halves do not make it a NaN.
            OpCode::CAdd | OpCode::CSub | OpCode::CMul => {
                std::array::from_fn(|k| op.apply3(a[k], b[k], c[k]))
            }
        };
        rows[step.dst() as usize] = out;
    }
}

/// `op` across the lanes of its operand rows. `raw` is its plain IEEE
/// arithmetic, which [`OpCode::apply3`] agrees with on every lane whose
/// result is not a NaN; `apply3`, the one scalar definition, recomputes
/// each NaN lane, so which NaN a lane returns is pinned as everywhere.
#[inline(always)]
fn lanes<const W: usize>(
    op: OpCode,
    a: &[f64; W],
    b: &[f64; W],
    c: &[f64; W],
    raw: impl Fn(f64, f64, f64) -> f64,
) -> [f64; W] {
    let mut out = [0.0; W];
    for k in 0..W {
        out[k] = raw(a[k], b[k], c[k]);
    }
    if out.iter().fold(false, |nan, v| nan | v.is_nan()) {
        for k in 0..W {
            if out[k].is_nan() {
                out[k] = op.apply3(a[k], b[k], c[k]);
            }
        }
    }
    out
}

/// A timing trace cannot be recorded or replayed: it was asked for under
/// perturbation, names more values than a replay program can, or does not
/// belong to the program or machine it is replayed on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Shorthand constructor for replay errors.
fn replay_error(message: impl Into<String>) -> SimError {
    SimError::Replay(ReplayError { message: message.into() })
}

impl Machine {
    /// Runs `program` cycle-accurately in tag mode, writing the
    /// straight-line code its replays execute as it goes, and returns it as
    /// a [`TimingTrace`] with the run's [`RunReport`]. The run computes no
    /// value: the scratchpads are left as they were, so replaying the trace
    /// over them ([`Machine::replay`]) is what yields the run's results. A
    /// timed-out run's program is cut off, so it is not kept: the trace
    /// keeps its report and [`Machine::replay`] refuses it.
    ///
    /// # Errors
    /// Everything [`Machine::run`] can return, plus [`SimError::Replay`]
    /// when the machine is configured with fault injection or a degraded
    /// fabric — perturbed runs are not oblivious and must never seed a
    /// replay trace (mirroring the engine's cache-bypass rule) — or when
    /// the program names more values than a replay program can.
    pub fn run_traced(&mut self, program: &RevelProgram) -> Result<TimingTrace, SimError> {
        if self.opts.fault_plan.is_some() || self.opts.fabric_mask != FabricMask::HEALTHY {
            return Err(replay_error(
                "refusing to record a timing trace under fault injection or a degraded fabric",
            ));
        }
        self.recorder = Some(Recorder::new(self.lanes.len()));
        let report = self.run(program);
        // Always uninstall the recorder, even when the run errored.
        let recorder = self.recorder.take().expect("recorder installed above");
        let report = report?;
        let code = if report.timed_out { ReplayProgram::default() } else { recorder.finish()? };
        Ok(TimingTrace {
            program: program.name.clone(),
            report,
            program_id: structural_id(program),
            config: self.cfg.clone(),
            id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
            code,
        })
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
        self.check_replayable(trace)?;
        let Machine { lanes, shared, executor, .. } = self;
        executor.replay(program, trace, lanes, shared)
    }

    /// Replays `trace` over `datasets`, each executing the code
    /// [`Machine::replay`] does and ending in the same memory image:
    /// `init(machine, &d)` writes dataset `d`'s memory, and `check(machine,
    /// d)` then sees its replayed image, for each dataset in order.
    ///
    /// A trace without host ops replays its datasets a chunk at a time,
    /// each step once per chunk across one lane per dataset, so a chunk's
    /// datasets are all held at once: `init` runs before a dataset's words
    /// are gathered, and again before its stored words are scattered and
    /// `check` runs, so the image `check` sees is `init`'s plus the
    /// dataset's stores. A trace with host ops replays one dataset at a
    /// time (`init`, replay, `check`), since a host op reads and writes a
    /// whole dataset's memory.
    ///
    /// # Errors
    /// As [`Machine::replay`].
    pub fn replay_batch<D>(
        &mut self,
        program: &RevelProgram,
        trace: &TimingTrace,
        datasets: impl IntoIterator<Item = D>,
        init: impl FnMut(&mut Machine, &D),
        check: impl FnMut(&Machine, D),
    ) -> Result<(), SimError> {
        self.check_replayable(trace)?;
        let mut executor = std::mem::take(&mut self.executor);
        let replayed = executor.replay_batch(self, program, trace, datasets, init, check);
        self.executor = executor;
        replayed
    }

    /// Refuses a trace this machine cannot replay.
    fn check_replayable(&self, trace: &TimingTrace) -> Result<(), SimError> {
        if trace.config != self.cfg {
            return Err(replay_error("trace was recorded on another machine configuration"));
        }
        if trace.report.timed_out {
            return Err(replay_error("the timing run timed out, so its trace is incomplete"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `op` over slots `args` into slot `dst`.
    fn step(op: OpCode, dst: u32, args: [u32; 3]) -> Step {
        Step::new(op, dst, args)
    }

    /// Allocates registers for `steps` and `stores` (one segment per entry
    /// of `segments`, as `(steps, stores)` ends) over the fixed slots
    /// `0..fixed.len()` holding `fixed`, runs the result at width `W`, and
    /// checks every store scatters the bits the write-once program stores.
    /// Returns the program's registers.
    fn allocate_and_run<const W: usize>(
        fixed: &[[f64; W]],
        mut steps: Vec<Step>,
        mut stores: Vec<Store>,
        ends: &[(usize, usize)],
    ) -> (Vec<Step>, usize) {
        // The write-once program, through the one scalar definition.
        let mut slots: Vec<[f64; W]> = fixed.to_vec();
        for s in &steps {
            let [a, b, c] = s.args().map(|x| slots[x as usize]);
            slots.push(std::array::from_fn(|k| s.op.apply3(a[k], b[k], c[k])));
        }
        let expected: Vec<[u64; W]> =
            stores.iter().map(|s| slots[s.row as usize].map(f64::to_bits)).collect();
        let mut segments = Vec::new();
        let (mut step_start, mut store_start) = (0, 0);
        for &(step_end, store_end) in ends {
            segments.push(Segment {
                loads: 0..0,
                steps: step_start..step_end,
                stores: store_start..store_end,
                host: None,
            });
            (step_start, store_start) = (step_end, store_end);
        }
        let fixed_slots: Vec<u32> = (0..fixed.len() as u32).collect();
        let registers = allocate_registers(&mut steps, &mut stores, &segments, &fixed_slots)
            .expect("allocates");
        assert!(registers <= steps.len(), "{registers} registers for {} steps", steps.len());
        let mut rows = fixed.to_vec();
        rows.resize(fixed.len() + registers, [f64::NAN; W]);
        for seg in &segments {
            run(&mut rows, &steps[seg.steps.clone()]);
            for (k, store) in stores[seg.stores.clone()].iter().enumerate() {
                let got = rows[store.row as usize].map(f64::to_bits);
                assert_eq!(got, expected[seg.stores.start + k], "store {}", seg.stores.start + k);
            }
        }
        (steps, registers)
    }

    fn store(addr: u32, slot: u32) -> Store {
        Store { mem: 0, addr, row: slot }
    }

    #[test]
    fn a_value_its_last_reader_reads_twice_frees_its_register_once() {
        use OpCode::*;
        // Slots 0..3 are zero, 2 and 3. Slot 4 = 5 is squared at its last
        // read; freeing its register twice would hand it to both slot 5
        // (25, still live) and slot 6.
        let fixed = [[0.0], [2.0], [3.0]];
        let steps = vec![
            step(Add, 3, [1, 2, 0]),
            step(Mul, 4, [3, 3, 0]),
            step(Add, 5, [1, 1, 0]),
            step(Sub, 6, [4, 5, 0]),
        ];
        let (steps, registers) =
            allocate_and_run(&fixed, steps, vec![store(0, 6), store(1, 4)], &[(4, 2)]);
        assert_ne!(steps[1].dst(), steps[2].dst(), "two live values share a register");
        assert_eq!(registers, 2);
    }

    #[test]
    fn a_select_reads_its_condition_before_its_result_reuses_the_register() {
        use OpCode::*;
        // The select is the last reader of its condition (slot 3) and of
        // its first operand (slot 4): its own result takes the condition's
        // register, and the next step the operand's.
        let fixed = [[0.0; 4], [1.0, 5.0, -1.0, f64::NAN], [2.0, 3.0, 0.0, 7.0]];
        let steps = vec![
            step(CmpLt, 3, [1, 2, 0]),
            step(Add, 4, [1, 2, 0]),
            step(Select, 5, [4, 2, 3]),
            step(Mul, 6, [2, 2, 0]),
            step(Add, 7, [5, 6, 0]),
        ];
        let (steps, _) = allocate_and_run(&fixed, steps, vec![store(0, 7)], &[(5, 1)]);
        assert_eq!(steps[2].dst(), steps[0].dst(), "the condition's register is recycled");
        assert_eq!(steps[3].dst(), steps[1].dst());
    }

    #[test]
    fn random_programs_allocate_no_more_registers_than_steps_and_keep_every_store() {
        use OpCode::*;
        const OPS: [OpCode; 15] =
            [Add, Sub, Mul, Div, Sqrt, Rsqrt, Recip, Neg, Abs, Min, Max, CmpLt, Select, CAdd, CMul];
        let edges = [0.0, -0.0, 1.5, -2.0, f64::INFINITY, f64::NEG_INFINITY];
        let mut rng = revel_isa::Rng::seed_from_u64(7);
        for round in 0..200 {
            let mut fixed: Vec<[f64; 8]> = vec![[0.0; 8]];
            for _ in 0..1 + rng.gen_index(6) {
                fixed.push(std::array::from_fn(|_| match rng.gen_index(8) {
                    k if k < edges.len() => edges[k],
                    6 => f64::from_bits(0x7ff0_0000_dead_beef),
                    _ => rng.gen_f64() * 4.0 - 2.0,
                }));
            }
            let (f, n) = (fixed.len() as u32, 1 + rng.gen_index(60) as u32);
            let pick = |rng: &mut revel_isa::Rng, below: u32| rng.gen_index(below as usize) as u32;
            let steps: Vec<Step> = (0..n)
                .map(|i| {
                    let op = OPS[rng.gen_index(OPS.len())];
                    let mut args = [0; 3];
                    for arg in args.iter_mut().take(op.arity()) {
                        *arg = pick(&mut rng, f + i);
                    }
                    step(op, f + i, args)
                })
                .collect();
            // Up to three segments, each scattering a few values (fixed
            // ones among them) once its steps have run.
            let cuts = 1 + rng.gen_index(3);
            let (mut ends, mut stores) = (Vec::new(), Vec::new());
            for c in 1..=cuts {
                let end = (n as usize * c / cuts) as u32;
                for _ in 0..rng.gen_index(4) {
                    stores.push(store(stores.len() as u32, pick(&mut rng, f + end)));
                }
                ends.push((end as usize, stores.len()));
            }
            let (_, registers) = allocate_and_run(&fixed, steps, stores, &ends);
            assert!(registers <= n as usize, "round {round}");
        }
    }
}
