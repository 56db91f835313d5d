use crate::{Dfg, Node, NodeId, OpCode};
use revel_isa::{OutPortId, RateFsm};
use std::collections::HashMap;

/// Maximum vector width of a region (the widest port is 512 bits = 8 words).
pub const MAX_VEC_WIDTH: usize = 8;

/// A vector value with a predicate mask: the unit of data flowing through a
/// (possibly vectorized) program region.
///
/// Lane `k` is valid when bit `k` of `pred` is set. Stream predication
/// (§IV-A) pads the final sub-vector of an inductive stream with invalid
/// lanes; the mask propagates through computation and memory writes skip
/// invalid lanes.
///
/// A lane is an `f64`, or in a [`Symbolic`] evaluation the number of the
/// slot that will hold it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VecVal<T = f64> {
    vals: [T; MAX_VEC_WIDTH],
    pred: u8,
    width: u8,
}

impl<T: Copy + Default> VecVal<T> {
    /// A value with every lane equal to `x` and valid.
    ///
    /// # Panics
    /// Panics if `width` is 0 or exceeds [`MAX_VEC_WIDTH`].
    pub fn splat(x: T, width: usize) -> Self {
        assert!((1..=MAX_VEC_WIDTH).contains(&width), "bad vector width {width}");
        let mut vals = [T::default(); MAX_VEC_WIDTH];
        vals[..width].fill(x);
        VecVal { vals, pred: mask_all(width), width: width as u8 }
    }

    /// A value from explicit lanes, all valid.
    ///
    /// # Panics
    /// Panics if `lanes` is empty or longer than [`MAX_VEC_WIDTH`].
    pub fn from_lanes(lanes: &[T]) -> Self {
        assert!(!lanes.is_empty() && lanes.len() <= MAX_VEC_WIDTH);
        let mut vals = [T::default(); MAX_VEC_WIDTH];
        vals[..lanes.len()].copy_from_slice(lanes);
        VecVal { vals, pred: mask_all(lanes.len()), width: lanes.len() as u8 }
    }

    /// A value from explicit lanes and an explicit predicate mask.
    ///
    /// # Panics
    /// Panics if `lanes` is empty or longer than [`MAX_VEC_WIDTH`].
    pub fn with_pred(lanes: &[T], pred: u8) -> Self {
        let mut v = Self::from_lanes(lanes);
        v.pred = pred & mask_all(lanes.len());
        v
    }

    /// A value from a whole lane array, the lanes of `pred` valid. Lanes
    /// at and past `width` must be `T::default()`, as every other
    /// constructor leaves them.
    ///
    /// # Panics
    /// Panics if `width` is 0 or exceeds [`MAX_VEC_WIDTH`].
    #[inline]
    pub fn from_array(vals: [T; MAX_VEC_WIDTH], width: usize, pred: u8) -> Self {
        assert!((1..=MAX_VEC_WIDTH).contains(&width), "bad vector width {width}");
        VecVal { vals, pred: pred & mask_all(width), width: width as u8 }
    }

    /// A fully predicated-off value (no valid lanes).
    ///
    /// # Panics
    /// Panics if `width` is 0 or exceeds [`MAX_VEC_WIDTH`].
    pub fn invalid(width: usize) -> Self {
        assert!((1..=MAX_VEC_WIDTH).contains(&width), "bad vector width {width}");
        VecVal { vals: [T::default(); MAX_VEC_WIDTH], pred: 0, width: width as u8 }
    }

    /// Vector width.
    pub fn width(&self) -> usize {
        self.width as usize
    }

    /// The predicate mask.
    pub fn pred(&self) -> u8 {
        self.pred
    }

    /// Lane `k`'s value, or `None` if the lane is invalid or out of range.
    pub fn get(&self, k: usize) -> Option<T> {
        if k < self.width() && self.pred & (1 << k) != 0 {
            Some(self.vals[k])
        } else {
            None
        }
    }

    /// Lane `k`'s raw value regardless of the predicate.
    pub fn raw(&self, k: usize) -> T {
        self.vals[k]
    }

    /// Overwrites lane `k`'s value, leaving the predicate unchanged (used
    /// by the simulator's bit-flip fault injection).
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn set_raw(&mut self, k: usize, v: T) {
        assert!(k < self.width(), "lane {k} out of range");
        self.vals[k] = v;
    }

    /// True if any lane is valid.
    pub fn any_valid(&self) -> bool {
        self.pred != 0
    }

    /// Number of valid lanes.
    pub fn valid_count(&self) -> u32 {
        self.pred.count_ones()
    }

    /// Iterator over valid `(lane, value)` pairs.
    pub fn iter_valid(&self) -> impl Iterator<Item = (usize, T)> + '_ {
        (0..self.width()).filter_map(move |k| self.get(k).map(|v| (k, v)))
    }

    /// The same vector with every lane, valid or not, mapped through `f`.
    pub fn map<U>(self, f: impl FnMut(T) -> U) -> VecVal<U> {
        VecVal { vals: self.vals.map(f), pred: self.pred, width: self.width }
    }
}

impl VecVal {
    /// Sum of valid lanes in lane order, folded from `-0.0` as `f64`'s
    /// `Sum` is (so `-0.0` if none is valid).
    pub fn sum_valid(&self) -> f64 {
        sum_valid(&mut Concrete, self)
    }
}

fn mask_all(width: usize) -> u8 {
    ((1u16 << width) - 1) as u8
}

/// The widest [`OpCode`] arity (`Select`).
const MAX_ARITY: usize = 3;

/// What an evaluator's values are. One generic evaluator defines what a
/// fire computes; the domain decides whether that is an `f64` result
/// ([`Concrete`], what the simulator fires) or a record of the scalar ops
/// that compute it ([`Symbolic`], what a replay program is compiled from).
/// Predicates never depend on values, so both domains agree on them.
pub trait Domain {
    /// One lane's value. Its `Default` is `+0.0`: a padded lane's value and
    /// an accumulator's start.
    type Value: Copy + Default + std::fmt::Debug;

    /// True when an op's predicated-off lanes are computed too. Nothing
    /// reads them (ports, reductions and accumulators take valid lanes
    /// only), so the concrete domain computes them rather than branch per
    /// lane, and the symbolic one records nothing for them.
    const DENSE: bool;

    /// The constant `x`.
    fn constant(&mut self, x: f64) -> Self::Value;

    /// `op` over the first `op.arity()` of `args` (the rest are `Default`);
    /// never `ReduceAdd`, which the evaluator folds into adds.
    fn apply(&mut self, op: OpCode, args: [Self::Value; 3]) -> Self::Value;

    /// `op` lane by lane over lanes `0..width` of `args` into `out`, in
    /// lane order: every one of them in a [`Domain::DENSE`] domain, else
    /// those set in `pred`, with the others `Default`. Lanes past `width`
    /// are left as they are. An op step of a fire dispatches here once for
    /// all its lanes.
    #[inline]
    fn apply_lanes(
        &mut self,
        op: OpCode,
        args: [&[Self::Value; MAX_VEC_WIDTH]; MAX_ARITY],
        pred: u8,
        width: usize,
        out: &mut [Self::Value; MAX_VEC_WIDTH],
    ) {
        for (k, o) in out.iter_mut().enumerate().take(width) {
            *o = if Self::DENSE || pred & (1 << k) != 0 {
                self.apply(op, [args[0][k], args[1][k], args[2][k]])
            } else {
                Self::Value::default()
            };
        }
    }
}

/// `a + b` in domain `d`: one add of a reduction or of an accumulator.
fn add<D: Domain>(d: &mut D, a: D::Value, b: D::Value) -> D::Value {
    d.apply(OpCode::Add, [a, b, D::Value::default()])
}

/// The `f64` domain: every op computed as it is met.
#[derive(Debug, Clone, Copy, Default)]
pub struct Concrete;

impl Domain for Concrete {
    type Value = f64;
    const DENSE: bool = true;

    fn constant(&mut self, x: f64) -> f64 {
        x
    }

    fn apply(&mut self, op: OpCode, [a, b, c]: [f64; 3]) -> f64 {
        op.apply3(a, b, c)
    }

    /// One lane loop per opcode, each over [`OpCode::apply3`] at a constant
    /// op: the match inside it folds away, and every NaN pin stays. A
    /// width-1 op is one `apply3`.
    #[inline]
    fn apply_lanes(
        &mut self,
        op: OpCode,
        args: [&[f64; MAX_VEC_WIDTH]; MAX_ARITY],
        _pred: u8,
        width: usize,
        out: &mut [f64; MAX_VEC_WIDTH],
    ) {
        #[inline(always)]
        fn lanes(
            op: OpCode,
            [a, b, c]: [&[f64; MAX_VEC_WIDTH]; MAX_ARITY],
            width: usize,
            out: &mut [f64; MAX_VEC_WIDTH],
        ) {
            for (k, o) in out.iter_mut().enumerate().take(width) {
                *o = op.apply3(a[k], b[k], c[k]);
            }
        }
        if width == 1 {
            out[0] = op.apply3(args[0][0], args[1][0], args[2][0]);
            return;
        }
        match op {
            OpCode::Add => lanes(OpCode::Add, args, width, out),
            OpCode::Sub => lanes(OpCode::Sub, args, width, out),
            OpCode::Mul => lanes(OpCode::Mul, args, width, out),
            OpCode::Div => lanes(OpCode::Div, args, width, out),
            OpCode::Sqrt => lanes(OpCode::Sqrt, args, width, out),
            OpCode::Rsqrt => lanes(OpCode::Rsqrt, args, width, out),
            OpCode::Recip => lanes(OpCode::Recip, args, width, out),
            OpCode::Neg => lanes(OpCode::Neg, args, width, out),
            OpCode::Abs => lanes(OpCode::Abs, args, width, out),
            OpCode::Min => lanes(OpCode::Min, args, width, out),
            OpCode::Max => lanes(OpCode::Max, args, width, out),
            OpCode::CmpLt => lanes(OpCode::CmpLt, args, width, out),
            OpCode::Select => lanes(OpCode::Select, args, width, out),
            OpCode::Mov => lanes(OpCode::Mov, args, width, out),
            OpCode::ReduceAdd => lanes(OpCode::ReduceAdd, args, width, out),
            OpCode::CAdd => lanes(OpCode::CAdd, args, width, out),
            OpCode::CSub => lanes(OpCode::CSub, args, width, out),
            OpCode::CMul => lanes(OpCode::CMul, args, width, out),
        }
    }
}

/// One scalar operation a [`Symbolic`] evaluation recorded: slot `out` is
/// `op` over the slots `args` (the first `op.arity()` of them; the rest
/// are 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalarOp {
    /// The operation.
    pub op: OpCode,
    /// Operand slots.
    pub args: [u32; MAX_ARITY],
    /// The slot the result goes to, written by no earlier op.
    pub out: u32,
}

/// The symbolic domain: a value is the number of the slot that will hold it
/// once the recorded ops run. Slot 0 is `+0.0`. [`Domain::constant`] names
/// one slot per distinct bit pattern, `Mov` names its operand's slot (it
/// returns its operand unchanged, NaN payloads included), and every other
/// op — each add of a reduction and of an accumulator among them — is
/// recorded as a [`ScalarOp`] into a fresh slot, in the order the concrete
/// domain computes it. Predicated-off lanes record nothing.
#[derive(Debug, Clone)]
pub struct Symbolic {
    /// Slots named so far, slot 0 included.
    slots: u32,
    /// Constant slots other than slot 0, with their bits, in naming order.
    consts: Vec<(u32, u64)>,
    const_slots: HashMap<u64, u32>,
    ops: Vec<ScalarOp>,
}

impl Default for Symbolic {
    fn default() -> Self {
        Symbolic {
            slots: 1,
            consts: Vec::new(),
            const_slots: HashMap::from([(0f64.to_bits(), 0)]),
            ops: Vec::new(),
        }
    }
}

impl Symbolic {
    /// A fresh slot, for a value the recorded ops do not compute (a word
    /// read from memory, an input lane).
    pub fn fresh(&mut self) -> u32 {
        self.slots += 1;
        self.slots - 1
    }

    /// Number of slots named so far, slot 0 included.
    pub fn slots(&self) -> usize {
        self.slots as usize
    }

    /// The constant slots named so far other than slot 0, with their bits,
    /// in naming order.
    pub fn constants(&self) -> &[(u32, u64)] {
        &self.consts
    }

    /// Removes and returns the ops recorded since the last call, in order.
    pub fn drain_ops(&mut self) -> std::vec::Drain<'_, ScalarOp> {
        self.ops.drain(..)
    }
}

impl Domain for Symbolic {
    type Value = u32;
    const DENSE: bool = false;

    fn constant(&mut self, x: f64) -> u32 {
        let bits = x.to_bits();
        if let Some(&slot) = self.const_slots.get(&bits) {
            return slot;
        }
        let slot = self.fresh();
        self.const_slots.insert(bits, slot);
        self.consts.push((slot, bits));
        slot
    }

    fn apply(&mut self, op: OpCode, args: [u32; 3]) -> u32 {
        if op == OpCode::Mov {
            return args[0];
        }
        let out = self.fresh();
        self.ops.push(ScalarOp { op, args, out });
        out
    }
}

/// Functional evaluator of a [`Dfg`] at a fixed vector width, over the
/// values of domain `D`.
///
/// The evaluator owns the accumulator state, so one evaluator corresponds
/// to one *configured instance* of the region on the fabric. Create a
/// concrete one with [`Dfg::evaluator`].
///
/// The graph is compiled once, here, into a flat list of steps over value
/// slots: slot 0 pads an op's operands to `MAX_ARITY` (every lane valid and
/// `Default`), input `k` is slot `k + 1`, every constant, op and
/// accumulator node gets the next slot in node order, and an output names
/// its argument's slot. A step holds its operand and accumulator indices
/// inline and writes its own slot in place, so a fire walks the list
/// without looking at a node, and an op step dispatches on its opcode once
/// for all of its lanes ([`Domain::apply_lanes`]). A step writes only its
/// slot's lanes below the evaluator's width, so the lanes past it stay
/// `Default`.
///
/// [`DfgEvaluator::fire`] is the simulator's innermost loop: it touches the
/// heap nowhere. Slot values and output vectors live in scratch buffers
/// sized here, once per configured instance.
#[derive(Debug, Clone)]
pub struct DfgEvaluator<D: Domain = Concrete> {
    /// The graph's name, for panic messages.
    name: String,
    width: usize,
    steps: Vec<Step>,
    /// Per accumulator, in node order.
    accum: Vec<AccumState<D::Value>>,
    /// Runtime-configured emission length (overrides the DFG's rate).
    accum_len_override: Option<RateFsm>,
    num_inputs: usize,
    /// Each output node's port and the slot it drains, in node order.
    out_slots: Vec<(OutPortId, u32)>,
    /// Every slot's value in the fire in progress: the pad, the inputs,
    /// then the steps' results. A step's operands precede its own slot.
    values: Vec<VecVal<D::Value>>,
    /// Scratch: the output vectors [`DfgEvaluator::fire_in`] returns, in
    /// output-node order.
    outputs: Vec<(OutPortId, VecVal<D::Value>)>,
}

/// One step of a compiled fire; `out`, `arg` and `args` are value slots.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Slot `out` is the constant `value` in every lane.
    Const { value: f64, out: u32 },
    /// Slot `out` is `op` over the slots `args` lane by lane; a lane is
    /// valid iff it is valid in every argument.
    Op { op: OpCode, args: [u32; MAX_ARITY], out: u32 },
    /// Slot `out` is the sum of slot `arg`'s valid lanes, in every lane.
    ReduceAdd { arg: u32, out: u32 },
    /// Accumulator `acc` adds the sum of slot `arg`'s valid lanes; slot
    /// `out` is its emission (lane 0) or invalid.
    Accum { arg: u32, acc: u32, out: u32 },
    /// Accumulator `acc` adds slot `arg` lane by lane; slot `out` is its
    /// emission or invalid.
    AccumVec { arg: u32, acc: u32, out: u32 },
}

#[derive(Debug, Clone)]
struct AccumState<V> {
    /// The DFG's emission length.
    len: RateFsm,
    sum: V,
    /// Per-lane sums (AccumVec only).
    lanes: [V; MAX_VEC_WIDTH],
    /// Union of predicates seen this accumulation window (AccumVec only).
    pred: u8,
    remaining: i64,
    j: i64,
}

impl<V: Copy + Default> AccumState<V> {
    fn fresh(len: RateFsm, emit: RateFsm) -> Self {
        AccumState {
            len,
            sum: V::default(),
            lanes: [V::default(); MAX_VEC_WIDTH],
            pred: 0,
            remaining: emit.count_at(0),
            j: 0,
        }
    }
}

impl<D: Domain> DfgEvaluator<D> {
    /// Builds an evaluator, compiling `dfg` into its step list; prefer
    /// [`Dfg::evaluator`] for a concrete one.
    ///
    /// # Panics
    /// Panics if `width` is 0 or exceeds [`MAX_VEC_WIDTH`].
    pub fn new(dfg: &Dfg, width: usize) -> Self {
        assert!((1..=MAX_VEC_WIDTH).contains(&width), "bad vector width {width}");
        let num_inputs = dfg.nodes().iter().filter(|n| matches!(n, Node::Input { .. })).count();
        let mut slot = vec![0u32; dfg.len()];
        let mut next_input = 1;
        let mut next_slot = num_inputs as u32 + 1;
        let mut steps = Vec::new();
        let mut accum = Vec::new();
        let mut out_slots = Vec::new();
        for (idx, node) in dfg.nodes().iter().enumerate() {
            let arg = |a: &NodeId| slot[a.0 as usize];
            let step = match node {
                Node::Input { .. } => {
                    slot[idx] = next_input;
                    next_input += 1;
                    continue;
                }
                Node::Output { arg: a, port } => {
                    let s = arg(a);
                    out_slots.push((*port, s));
                    slot[idx] = s;
                    continue;
                }
                Node::Const { value } => Step::Const { value: *value, out: next_slot },
                Node::Op { op: OpCode::ReduceAdd, args } => {
                    Step::ReduceAdd { arg: arg(&args[0]), out: next_slot }
                }
                Node::Op { op, args } => {
                    // An op reads at most `MAX_ARITY` arguments; the pad
                    // slot fills the rest.
                    let mut slots = [0; MAX_ARITY];
                    for (s, a) in slots.iter_mut().zip(args) {
                        *s = arg(a);
                    }
                    Step::Op { op: *op, args: slots, out: next_slot }
                }
                Node::Accum { arg: a, len } => {
                    accum.push(AccumState::fresh(*len, *len));
                    Step::Accum { arg: arg(a), acc: accum.len() as u32 - 1, out: next_slot }
                }
                Node::AccumVec { arg: a, len } => {
                    accum.push(AccumState::fresh(*len, *len));
                    Step::AccumVec { arg: arg(a), acc: accum.len() as u32 - 1, out: next_slot }
                }
            };
            slot[idx] = next_slot;
            next_slot += 1;
            steps.push(step);
        }
        let mut values = vec![VecVal::invalid(width); next_slot as usize];
        values[0].pred = u8::MAX;
        DfgEvaluator {
            name: dfg.name().to_string(),
            width,
            steps,
            accum,
            accum_len_override: None,
            num_inputs,
            outputs: Vec::with_capacity(out_slots.len()),
            out_slots,
            values,
        }
    }

    /// The vector width the evaluator runs at.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of input vectors a fire expects.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Reconfigures every accumulator's emission length and resets its
    /// state (the `SetAccumLen` stream command).
    pub fn set_accum_len(&mut self, len: RateFsm) {
        for st in &mut self.accum {
            *st = AccumState::fresh(st.len, len);
        }
        self.accum_len_override = Some(len);
    }

    /// Returns the evaluator to its freshly built state, as a
    /// reconfiguration does: every accumulator restarts at its DFG length
    /// and any [`DfgEvaluator::set_accum_len`] override is dropped.
    pub fn reset(&mut self) {
        self.accum_len_override = None;
        for st in &mut self.accum {
            *st = AccumState::fresh(st.len, st.len);
        }
    }

    /// Sets input `k` (in input-node order) of the next
    /// [`DfgEvaluator::fire_set_in`].
    ///
    /// # Panics
    /// Panics if `k` is not an input or `v` is not at the evaluator's width.
    #[inline]
    pub fn set_input(&mut self, k: usize, v: VecVal<D::Value>) {
        assert!(k < self.num_inputs, "region {} has {} inputs", self.name, self.num_inputs);
        assert_eq!(v.width(), self.width, "input width mismatch in region {}", self.name);
        self.values[k + 1] = v;
    }

    /// The inputs as last set, in input-node order.
    pub fn inputs(&self) -> &[VecVal<D::Value>] {
        &self.values[1..=self.num_inputs]
    }

    /// Executes one firing of the region in domain `d`: consumes one vector
    /// per input node (in input-node order) and returns the vectors
    /// produced at each output port (in output-node order). The slice is
    /// the evaluator's own buffer, overwritten by the next fire.
    ///
    /// Accumulator nodes emit a fully-predicated-off value on non-emitting
    /// fires; callers (the simulator's output ports) drop values with no
    /// valid lanes.
    ///
    /// # Panics
    /// Panics if `inputs.len()` differs from [`DfgEvaluator::num_inputs`].
    pub fn fire_in(
        &mut self,
        d: &mut D,
        inputs: &[VecVal<D::Value>],
    ) -> &[(OutPortId, VecVal<D::Value>)] {
        assert_eq!(
            inputs.len(),
            self.num_inputs,
            "region {} expects {} inputs",
            self.name,
            self.num_inputs
        );
        for (k, v) in inputs.iter().enumerate() {
            self.set_input(k, *v);
        }
        self.fire_steps(d);
        let DfgEvaluator { out_slots, values, outputs, .. } = self;
        outputs.clear();
        outputs.extend(out_slots.iter().map(|&(port, s)| (port, values[s as usize])));
        outputs
    }

    /// [`DfgEvaluator::fire_in`] over the inputs set with
    /// [`DfgEvaluator::set_input`], which it leaves in place: the output
    /// vectors, in output-node order, read straight from their slots.
    pub fn fire_set_in(
        &mut self,
        d: &mut D,
    ) -> impl ExactSizeIterator<Item = (OutPortId, VecVal<D::Value>)> + '_ {
        self.fire_steps(d);
        let values = &self.values;
        self.out_slots.iter().map(move |&(port, s)| (port, values[s as usize]))
    }

    /// Runs the step list once over the inputs in place.
    fn fire_steps(&mut self, d: &mut D) {
        let DfgEvaluator { width, steps, accum, accum_len_override, values, .. } = self;
        let width = *width;
        let all = mask_all(width);
        for step in steps.iter() {
            match *step {
                Step::Const { value, out } => {
                    let dst = &mut values[out as usize];
                    dst.vals[..width].fill(d.constant(value));
                    dst.pred = all;
                }
                Step::Op { op, args, out } => {
                    let (before, rest) = values.split_at_mut(out as usize);
                    let [a, b, c] = args.map(|s| &before[s as usize]);
                    let dst = &mut rest[0];
                    dst.pred = all & a.pred & b.pred & c.pred;
                    d.apply_lanes(op, [&a.vals, &b.vals, &c.vals], dst.pred, width, &mut dst.vals);
                }
                Step::ReduceAdd { arg, out } => {
                    let sum = sum_valid(d, &values[arg as usize]);
                    let dst = &mut values[out as usize];
                    dst.vals[..width].fill(sum);
                    dst.pred = all;
                }
                Step::Accum { arg, acc, out } => {
                    let sum = sum_valid(d, &values[arg as usize]);
                    let state = &mut accum[acc as usize];
                    state.sum = add(d, state.sum, sum);
                    state.remaining -= 1;
                    let dst = &mut values[out as usize];
                    if state.remaining <= 0 {
                        dst.vals[0] = state.sum;
                        dst.pred = 1;
                        state.sum = D::Value::default();
                        state.j += 1;
                        state.remaining = accum_len_override.unwrap_or(state.len).count_at(state.j);
                    } else {
                        dst.vals[0] = D::Value::default();
                        dst.pred = 0;
                    }
                }
                Step::AccumVec { arg, acc, out } => {
                    let (before, rest) = values.split_at_mut(out as usize);
                    let input = &before[arg as usize];
                    let state = &mut accum[acc as usize];
                    for (k, x) in input.iter_valid() {
                        state.lanes[k] = add(d, state.lanes[k], x);
                    }
                    state.pred |= input.pred();
                    state.remaining -= 1;
                    let dst = &mut rest[0];
                    if state.remaining <= 0 {
                        dst.vals = std::mem::take(&mut state.lanes);
                        dst.pred = std::mem::take(&mut state.pred);
                        state.j += 1;
                        state.remaining = accum_len_override.unwrap_or(state.len).count_at(state.j);
                    } else {
                        dst.vals[..width].fill(D::Value::default());
                        dst.pred = 0;
                    }
                }
            }
        }
    }
}

impl DfgEvaluator {
    /// Executes one firing of the region on `f64` values:
    /// [`DfgEvaluator::fire_in`] the concrete domain.
    ///
    /// # Panics
    /// Panics if `inputs.len()` differs from [`DfgEvaluator::num_inputs`].
    pub fn fire(&mut self, inputs: &[VecVal]) -> &[(OutPortId, VecVal)] {
        self.fire_in(&mut Concrete, inputs)
    }

    /// [`DfgEvaluator::fire_set_in`] the concrete domain.
    pub fn fire_set(&mut self) -> impl ExactSizeIterator<Item = (OutPortId, VecVal)> + '_ {
        self.fire_set_in(&mut Concrete)
    }
}

/// The sum of `v`'s valid lanes in lane order, folded from `-0.0`.
fn sum_valid<D: Domain>(d: &mut D, v: &VecVal<D::Value>) -> D::Value {
    let mut sum = d.constant(-0.0);
    for k in 0..v.width() {
        if v.pred & (1 << k) != 0 {
            sum = add(d, sum, v.vals[k]);
        }
    }
    sum
}

/// The node-walking interpreter the compiled fire replaced, kept as the
/// reference the compiled evaluator must reproduce bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    #[derive(Debug, Clone)]
    pub(crate) struct Interpreter<D: Domain = Concrete> {
        dfg: Dfg,
        width: usize,
        /// Per-accum-node state, indexed densely by accum order.
        accum: Vec<InterpAccum<D::Value>>,
        /// Map node index → accum state index (usize::MAX when not an accum).
        accum_index: Vec<usize>,
        /// Runtime-configured emission length (overrides the DFG's rate).
        accum_len_override: Option<RateFsm>,
        input_nodes: Vec<NodeId>,
        /// Scratch: the value of every node in the fire in progress.
        values: Vec<VecVal<D::Value>>,
        /// Scratch: the last fire's output vectors, in output-node order.
        outputs: Vec<(OutPortId, VecVal<D::Value>)>,
    }

    #[derive(Debug, Clone)]
    struct InterpAccum<V> {
        sum: V,
        /// Per-lane sums (AccumVec only).
        lanes: [V; MAX_VEC_WIDTH],
        /// Union of predicates seen this accumulation window (AccumVec only).
        pred: u8,
        remaining: i64,
        j: i64,
    }

    impl<V: Copy + Default> InterpAccum<V> {
        fn fresh(remaining: i64) -> Self {
            InterpAccum {
                sum: V::default(),
                lanes: [V::default(); MAX_VEC_WIDTH],
                pred: 0,
                remaining,
                j: 0,
            }
        }
    }

    impl<D: Domain> Interpreter<D> {
        /// Builds an evaluator; prefer [`Dfg::evaluator`] for a concrete one.
        ///
        /// # Panics
        /// Panics if `width` is 0 or exceeds [`MAX_VEC_WIDTH`].
        pub(crate) fn new(dfg: &Dfg, width: usize) -> Self {
            assert!((1..=MAX_VEC_WIDTH).contains(&width), "bad vector width {width}");
            let mut accum = Vec::new();
            let mut accum_index = vec![usize::MAX; dfg.len()];
            let mut input_nodes = Vec::new();
            let mut num_outputs = 0;
            for (id, node) in dfg.iter() {
                match node {
                    Node::Accum { len, .. } | Node::AccumVec { len, .. } => {
                        accum_index[id.0 as usize] = accum.len();
                        accum.push(InterpAccum::fresh(len.count_at(0)));
                    }
                    Node::Input { .. } => input_nodes.push(id),
                    Node::Output { .. } => num_outputs += 1,
                    _ => {}
                }
            }
            Interpreter {
                dfg: dfg.clone(),
                width,
                accum,
                accum_index,
                accum_len_override: None,
                input_nodes,
                values: vec![VecVal::invalid(width); dfg.len()],
                outputs: Vec::with_capacity(num_outputs),
            }
        }

        /// Reconfigures every accumulator's emission length and resets its
        /// state (the `SetAccumLen` stream command).
        pub(crate) fn set_accum_len(&mut self, len: RateFsm) {
            for st in &mut self.accum {
                *st = InterpAccum::fresh(len.count_at(0));
            }
            self.accum_len_override = Some(len);
        }

        /// Returns the evaluator to its freshly built state, as a
        /// reconfiguration does: every accumulator restarts at its DFG length
        /// and any [`Interpreter::set_accum_len`] override is dropped.
        pub(crate) fn reset(&mut self) {
            self.accum_len_override = None;
            let mut k = 0;
            for node in self.dfg.nodes() {
                if let Node::Accum { len, .. } | Node::AccumVec { len, .. } = node {
                    self.accum[k] = InterpAccum::fresh(len.count_at(0));
                    k += 1;
                }
            }
        }

        /// Executes one firing of the region in domain `d`: consumes one vector
        /// per input node (in input-node order) and returns the vectors
        /// produced at each output port (in output-node order). The slice is
        /// the evaluator's own buffer, overwritten by the next fire.
        ///
        /// Accumulator nodes emit a fully-predicated-off value on non-emitting
        /// fires; callers (the simulator's output ports) drop values with no
        /// valid lanes.
        ///
        /// # Panics
        /// Panics if `inputs.len()` differs from [`Interpreter::num_inputs`].
        pub(crate) fn fire_in(
            &mut self,
            d: &mut D,
            inputs: &[VecVal<D::Value>],
        ) -> &[(OutPortId, VecVal<D::Value>)] {
            let Interpreter {
                dfg,
                width,
                accum,
                accum_index,
                accum_len_override,
                values,
                outputs,
                ..
            } = self;
            let width = *width;
            assert_eq!(
                inputs.len(),
                self.input_nodes.len(),
                "region {} expects {} inputs",
                dfg.name(),
                self.input_nodes.len()
            );
            let mut next_input = 0;
            outputs.clear();
            for (idx, node) in dfg.nodes().iter().enumerate() {
                let v = match node {
                    Node::Input { .. } => {
                        let v = inputs[next_input];
                        next_input += 1;
                        assert_eq!(
                            v.width(),
                            width,
                            "input width mismatch in region {}",
                            dfg.name()
                        );
                        v
                    }
                    Node::Const { value } => VecVal::splat(d.constant(*value), width),
                    Node::Op { op, args } => eval_op(d, *op, args, values, width),
                    Node::Accum { arg, len } => {
                        let len = accum_len_override.unwrap_or(*len);
                        let sum = sum_valid(d, &values[arg.0 as usize]);
                        let state = &mut accum[accum_index[idx]];
                        state.sum = add(d, state.sum, sum);
                        state.remaining -= 1;
                        let mut out = VecVal::invalid(width);
                        if state.remaining <= 0 {
                            out.vals[0] = state.sum;
                            out.pred = 1;
                            state.sum = D::Value::default();
                            state.j += 1;
                            state.remaining = len.count_at(state.j);
                        }
                        out
                    }
                    Node::AccumVec { arg, len } => {
                        let len = accum_len_override.unwrap_or(*len);
                        let input = values[arg.0 as usize];
                        let state = &mut accum[accum_index[idx]];
                        for (k, v) in input.iter_valid() {
                            state.lanes[k] = add(d, state.lanes[k], v);
                        }
                        state.pred |= input.pred();
                        state.remaining -= 1;
                        if state.remaining <= 0 {
                            let out =
                                VecVal { vals: state.lanes, pred: state.pred, width: width as u8 };
                            state.lanes = [D::Value::default(); MAX_VEC_WIDTH];
                            state.pred = 0;
                            state.j += 1;
                            state.remaining = len.count_at(state.j);
                            out
                        } else {
                            VecVal::invalid(width)
                        }
                    }
                    Node::Output { arg, port } => {
                        let v = values[arg.0 as usize];
                        outputs.push((*port, v));
                        v
                    }
                };
                values[idx] = v;
            }
            outputs
        }
    }

    /// One op node over the values computed so far. A result lane is valid iff
    /// every argument lane is valid.
    fn eval_op<D: Domain>(
        d: &mut D,
        op: OpCode,
        args: &[NodeId],
        values: &[VecVal<D::Value>],
        width: usize,
    ) -> VecVal<D::Value> {
        if op == OpCode::ReduceAdd {
            return VecVal::splat(sum_valid(d, &values[args[0].0 as usize]), width);
        }
        // An op reads at most `MAX_ARITY` arguments.
        let args = &args[..args.len().min(MAX_ARITY)];
        let mut out = VecVal {
            vals: [D::Value::default(); MAX_VEC_WIDTH],
            pred: mask_all(width),
            width: width as u8,
        };
        for a in args {
            out.pred &= values[a.0 as usize].pred;
        }
        let mut scalars = [D::Value::default(); MAX_ARITY];
        for k in 0..width {
            if !D::DENSE && out.pred & (1 << k) == 0 {
                continue;
            }
            for (s, a) in scalars.iter_mut().zip(args) {
                *s = values[a.0 as usize].vals[k];
            }
            out.vals[k] = d.apply(op, scalars);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dfg;
    use revel_isa::{InPortId, Rng};

    #[test]
    fn vecval_basics() {
        let v = VecVal::from_lanes(&[1.0, 2.0, 3.0]);
        assert_eq!(v.width(), 3);
        assert_eq!(v.get(1), Some(2.0));
        assert_eq!(v.get(3), None);
        assert_eq!(v.sum_valid(), 6.0);
        assert_eq!(v.valid_count(), 3);
    }

    #[test]
    fn vecval_predication() {
        let v = VecVal::with_pred(&[1.0, 2.0, 3.0, 4.0], 0b0101);
        assert_eq!(v.get(0), Some(1.0));
        assert_eq!(v.get(1), None);
        assert_eq!(v.sum_valid(), 4.0);
        assert!(v.any_valid());
        assert!(!VecVal::<f64>::invalid(4).any_valid());
    }

    #[test]
    fn sum_valid_folds_as_f64_sums_do() {
        // An empty sum is -0.0, and so is a sum of -0.0s: the fold starts
        // at -0.0, as `f64`'s `Sum` does.
        for lanes in [&[1.0, 2.0][..], &[-0.0, -0.0], &[-0.0, 0.0]] {
            for pred in 0..4 {
                let v = VecVal::with_pred(lanes, pred);
                let std_sum: f64 = v.iter_valid().map(|(_, x)| x).sum();
                assert_eq!(v.sum_valid().to_bits(), std_sum.to_bits(), "{lanes:?} {pred:#b}");
            }
        }
        assert_eq!(VecVal::with_pred(&[1.0], 0).sum_valid().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn elementwise_fire() {
        let mut g = Dfg::new("sub");
        let a = g.input(InPortId(0));
        let b = g.input(InPortId(1));
        let d = g.op(OpCode::Sub, &[a, b]);
        g.output(d, OutPortId(0));
        let mut ev = g.evaluator(4);
        let out = ev.fire(&[
            VecVal::from_lanes(&[5.0, 6.0, 7.0, 8.0]),
            VecVal::from_lanes(&[1.0, 1.0, 1.0, 1.0]),
        ]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, OutPortId(0));
        assert_eq!(out[0].1.get(3), Some(7.0));
    }

    #[test]
    fn predicate_propagates_through_ops() {
        let mut g = Dfg::new("mask");
        let a = g.input(InPortId(0));
        let b = g.input(InPortId(1));
        let m = g.op(OpCode::Mul, &[a, b]);
        g.output(m, OutPortId(0));
        let mut ev = g.evaluator(4);
        let out = ev.fire(&[
            VecVal::with_pred(&[1.0; 4], 0b0011), // last two lanes padded
            VecVal::from_lanes(&[2.0; 4]),
        ]);
        assert_eq!(out[0].1.pred(), 0b0011);
        assert_eq!(out[0].1.get(2), None);
    }

    #[test]
    fn reduce_add_sums_valid_lanes() {
        let mut g = Dfg::new("red");
        let a = g.input(InPortId(0));
        let r = g.op(OpCode::ReduceAdd, &[a]);
        g.output(r, OutPortId(0));
        let mut ev = g.evaluator(4);
        let out = ev.fire(&[VecVal::with_pred(&[1.0, 2.0, 4.0, 8.0], 0b1011)]);
        assert_eq!(out[0].1.get(0), Some(11.0));
    }

    #[test]
    fn accumulator_fixed_length() {
        // Dot-product style: accumulate reduced products, emit every 3 fires.
        let mut g = Dfg::new("dot");
        let a = g.input(InPortId(0));
        let r = g.op(OpCode::ReduceAdd, &[a]);
        let acc = g.accum(r, RateFsm::fixed(3));
        g.output(acc, OutPortId(0));
        let mut ev = g.evaluator(2);
        let mut emitted = Vec::new();
        for fire in 0..6 {
            let v = VecVal::splat((fire + 1) as f64, 2);
            for (_, out) in ev.fire(&[v]) {
                if out.any_valid() {
                    emitted.push(out.get(0).unwrap());
                }
            }
        }
        // fires contribute 2*(f+1) each (width 2, reduced then re-reduced by
        // accum across lanes of the broadcast — ReduceAdd broadcasts, so
        // accum sums width copies). Use the observed algebra:
        // reduce(splat(x,2)) = 2x broadcast; accum adds sum_valid = 4x.
        // emissions: f=0..2 -> 4*(1+2+3) = 24; f=3..5 -> 4*(4+5+6) = 60.
        assert_eq!(emitted, [24.0, 60.0]);
    }

    #[test]
    fn accumulator_inductive_length() {
        // Shrinking reduction: emit after 3 fires, then 2, then 1.
        let mut g = Dfg::new("tri");
        let a = g.input(InPortId(0));
        let acc = g.accum(a, RateFsm::inductive(3, -1));
        g.output(acc, OutPortId(0));
        let mut ev = g.evaluator(1);
        let mut emitted = Vec::new();
        for _ in 0..6 {
            for (_, out) in ev.fire(&[VecVal::splat(1.0, 1)]) {
                if out.any_valid() {
                    emitted.push(out.get(0).unwrap());
                }
            }
        }
        assert_eq!(emitted, [3.0, 2.0, 1.0]);
    }

    #[test]
    fn accum_vec_per_lane() {
        // GEMM-style: c[j] += a * b[j], emit after 3 fires.
        let mut g = Dfg::new("gemmacc");
        let a = g.input(InPortId(0));
        let acc = g.accum_vec(a, RateFsm::fixed(3));
        g.output(acc, OutPortId(0));
        let mut ev = g.evaluator(4);
        let mut emitted = Vec::new();
        for f in 0..6 {
            let v = VecVal::from_lanes(&[f as f64, 1.0, 2.0, 3.0]);
            for (_, out) in ev.fire(&[v]) {
                if out.any_valid() {
                    emitted.push((0..4).map(|k| out.get(k).unwrap()).collect::<Vec<_>>());
                }
            }
        }
        assert_eq!(emitted.len(), 2);
        assert_eq!(emitted[0], [0.0 + 1.0 + 2.0, 3.0, 6.0, 9.0]);
        assert_eq!(emitted[1], [3.0 + 4.0 + 5.0, 3.0, 6.0, 9.0]);
    }

    #[test]
    fn accum_vec_respects_predicates() {
        let mut g = Dfg::new("p");
        let a = g.input(InPortId(0));
        let acc = g.accum_vec(a, RateFsm::fixed(2));
        g.output(acc, OutPortId(0));
        let mut ev = g.evaluator(2);
        let _ = ev.fire(&[VecVal::with_pred(&[5.0, 7.0], 0b01)]);
        let out = ev.fire(&[VecVal::with_pred(&[1.0, 2.0], 0b01)]);
        let v = out[0].1;
        assert_eq!(v.get(0), Some(6.0));
        assert_eq!(v.get(1), None, "lane 1 never saw valid data");
    }

    #[test]
    fn reset_clears_accumulators() {
        let mut g = Dfg::new("acc");
        let a = g.input(InPortId(0));
        let acc = g.accum(a, RateFsm::fixed(2));
        g.output(acc, OutPortId(0));
        let mut ev = g.evaluator(1);
        let _ = ev.fire(&[VecVal::splat(5.0, 1)]);
        ev.reset();
        let _ = ev.fire(&[VecVal::splat(1.0, 1)]);
        let out = ev.fire(&[VecVal::splat(1.0, 1)]);
        assert_eq!(out[0].1.get(0), Some(2.0)); // 5.0 was discarded by reset
    }

    #[test]
    fn reset_drops_an_accum_len_override() {
        let mut g = Dfg::new("acc");
        let a = g.input(InPortId(0));
        let acc = g.accum(a, RateFsm::fixed(3));
        g.output(acc, OutPortId(0));
        let mut ev = g.evaluator(1);
        ev.set_accum_len(RateFsm::fixed(1));
        ev.reset();
        // Back to the DFG's own length: the third fire emits, not the first.
        let emits: Vec<bool> =
            (0..3).map(|_| ev.fire(&[VecVal::splat(1.0, 1)])[0].1.any_valid()).collect();
        assert_eq!(emits, [false, false, true]);
    }

    #[test]
    fn select_and_cmp() {
        let mut g = Dfg::new("sel");
        let a = g.input(InPortId(0));
        let b = g.input(InPortId(1));
        let c = g.op(OpCode::CmpLt, &[a, b]);
        let s = g.op(OpCode::Select, &[a, b, c]);
        g.output(s, OutPortId(0));
        let mut ev = g.evaluator(2);
        let out = ev.fire(&[VecVal::from_lanes(&[1.0, 9.0]), VecVal::from_lanes(&[5.0, 5.0])]);
        // lane0: 1<5 -> select a = 1 ; lane1: 9<5 false -> select b = 5
        assert_eq!(out[0].1.get(0), Some(1.0));
        assert_eq!(out[0].1.get(1), Some(5.0));
    }

    #[test]
    fn a_symbolic_fire_records_valid_lanes_and_aliases_moves() {
        // out0 = mov(a) * 2 and out1 = mov(a), at width 4 with lane 3
        // padded: three multiplies, no move, the constant named once.
        let mut g = Dfg::new("scale");
        let a = g.input(InPortId(0));
        let two = g.konst(2.0);
        let m = g.op(OpCode::Mov, &[a]);
        let p = g.op(OpCode::Mul, &[m, two]);
        g.output(p, OutPortId(0));
        g.output(m, OutPortId(1));
        let mut sym = Symbolic::default();
        let lanes: Vec<u32> = (0..4).map(|_| sym.fresh()).collect();
        let mut ev = DfgEvaluator::<Symbolic>::new(&g, 4);
        let outs = ev.fire_in(&mut sym, &[VecVal::with_pred(&lanes, 0b0111)]).to_vec();
        assert_eq!(outs[0].1.pred(), 0b0111);
        let moved: Vec<Option<u32>> = (0..4).map(|k| outs[1].1.get(k)).collect();
        assert_eq!(moved, [Some(lanes[0]), Some(lanes[1]), Some(lanes[2]), None]);
        let ops: Vec<ScalarOp> = sym.drain_ops().collect();
        assert_eq!(ops.len(), 3);
        assert!(ops.iter().all(|op| op.op == OpCode::Mul && op.args[1] == 5));
        assert_eq!(sym.constants(), [(5, 2f64.to_bits())]);
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn wrong_input_count_panics() {
        let mut g = Dfg::new("two");
        let a = g.input(InPortId(0));
        let b = g.input(InPortId(1));
        let s = g.op(OpCode::Add, &[a, b]);
        g.output(s, OutPortId(0));
        let mut ev = g.evaluator(1);
        let _ = ev.fire(&[VecVal::splat(1.0, 1)]);
    }

    /// Every opcode: the compiled-fire test's graphs cover each.
    const ALL_OPS: [OpCode; 18] = [
        OpCode::Add,
        OpCode::Sub,
        OpCode::Mul,
        OpCode::Div,
        OpCode::Sqrt,
        OpCode::Rsqrt,
        OpCode::Recip,
        OpCode::Neg,
        OpCode::Abs,
        OpCode::Min,
        OpCode::Max,
        OpCode::CmpLt,
        OpCode::Select,
        OpCode::Mov,
        OpCode::ReduceAdd,
        OpCode::CAdd,
        OpCode::CSub,
        OpCode::CMul,
    ];

    /// A lane value, edge cases weighted in: both zeros, infinities, NaNs
    /// with payloads (quiet and signalling, either sign), packed complex
    /// words with a NaN half, and ordinary numbers.
    fn edge_value(r: &mut Rng) -> f64 {
        let payload = r.next_u64() & ((1 << 51) - 1);
        let sign = r.next_u64() & (1 << 63);
        match r.gen_index(9) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 | 4 => f64::from_bits(sign | 0x7ff8_0000_0000_0000 | payload),
            5 => f64::from_bits(sign | 0x7ff0_0000_0000_0000 | payload.max(1)),
            6 => crate::pack_complex(f32::from_bits(0x7fc0_0000 | payload as u32 >> 10), 1.5),
            7 => crate::pack_complex(r.gen_f64() as f32, -(r.gen_f64() as f32)),
            _ => r.gen_range_f64(-8.0, 8.0),
        }
    }

    fn arb_len(r: &mut Rng) -> RateFsm {
        if r.gen_bool() {
            RateFsm::fixed(r.gen_range_i64(1, 4))
        } else {
            RateFsm::inductive(r.gen_range_i64(1, 5), r.gen_range_i64(-1, 2))
        }
    }

    /// A graph of 1–3 inputs and 3–14 random constants, ops (each of
    /// `first`'s opcode at least once over the cases), reductions and
    /// accumulators of either kind over earlier nodes, with 1–3 outputs
    /// (one of them on an input or an output's argument now and then).
    fn arb_dfg(r: &mut Rng, first: OpCode) -> Dfg {
        let mut g = Dfg::new("compiled");
        let inputs = 1 + r.gen_index(3);
        let mut nodes: Vec<NodeId> = (0..inputs).map(|p| g.input(InPortId(p as u8))).collect();
        for k in 0..3 + r.gen_index(12) {
            let arg = nodes[r.gen_index(nodes.len())];
            let node = match r.gen_index(10) {
                _ if k == 0 => {
                    let args: Vec<NodeId> =
                        (0..first.arity()).map(|_| nodes[r.gen_index(nodes.len())]).collect();
                    g.op(first, &args)
                }
                0 => g.konst(edge_value(r)),
                1 => g.accum(arg, arb_len(r)),
                2 => g.accum_vec(arg, arb_len(r)),
                _ => {
                    let op = ALL_OPS[r.gen_index(ALL_OPS.len())];
                    let args: Vec<NodeId> =
                        (0..op.arity()).map(|_| nodes[r.gen_index(nodes.len())]).collect();
                    g.op(op, &args)
                }
            };
            nodes.push(node);
        }
        for port in 0..1 + r.gen_index(3) {
            let out = g.output(nodes[r.gen_index(nodes.len())], OutPortId(port as u8));
            if r.gen_index(4) == 0 {
                // An op over an output node reads the output's argument.
                let op = g.op(OpCode::Mul, &[out, nodes[0]]);
                nodes.push(op);
            }
        }
        g.output(*nodes.last().expect("nodes"), OutPortId(7));
        g
    }

    /// Both evaluators' accumulators get the same `set_accum_len` and
    /// `reset` calls, one fire in four.
    fn reprogram<D: Domain>(
        r: &mut Rng,
        compiled: &mut DfgEvaluator<D>,
        interp: &mut reference::Interpreter<D>,
    ) {
        match r.gen_index(8) {
            0 => {
                let len = arb_len(r);
                compiled.set_accum_len(len);
                interp.set_accum_len(len);
            }
            1 => {
                compiled.reset();
                interp.reset();
            }
            _ => {}
        }
    }

    #[test]
    fn compiled_fires_reproduce_the_interpreter_bit_for_bit() {
        let mut r = Rng::seed_from_u64(0xC0_3F1E);
        let bits = |outs: &[(OutPortId, VecVal)]| -> Vec<(OutPortId, VecVal<u64>)> {
            outs.iter().map(|(p, v)| (*p, v.map(f64::to_bits))).collect()
        };
        for case in 0..400 {
            let g = arb_dfg(&mut r, ALL_OPS[case % ALL_OPS.len()]);
            let width = 1 + r.gen_index(MAX_VEC_WIDTH);
            let what = |fire| format!("case {case} fire {fire}, width {width}: {:?}", g.nodes());

            // Concrete: every whole output vector, invalid lanes included.
            let mut compiled = DfgEvaluator::<Concrete>::new(&g, width);
            let mut interp = reference::Interpreter::<Concrete>::new(&g, width);
            for fire in 0..12 {
                reprogram(&mut r, &mut compiled, &mut interp);
                let inputs: Vec<VecVal> = (0..compiled.num_inputs())
                    .map(|_| {
                        let lanes: Vec<f64> = (0..width).map(|_| edge_value(&mut r)).collect();
                        VecVal::with_pred(&lanes, r.gen_index(1 << width) as u8)
                    })
                    .collect();
                let want = bits(interp.fire_in(&mut Concrete, &inputs));
                let got = if r.gen_bool() {
                    bits(compiled.fire(&inputs))
                } else {
                    for (k, v) in inputs.iter().enumerate() {
                        compiled.set_input(k, *v);
                    }
                    bits(&compiled.fire_set().collect::<Vec<_>>())
                };
                assert_eq!(got, want, "{}", what(fire));
            }

            // Symbolic: the same outputs, recorded ops, slots and constants.
            let mut compiled = DfgEvaluator::<Symbolic>::new(&g, width);
            let mut interp = reference::Interpreter::<Symbolic>::new(&g, width);
            let (mut sym_c, mut sym_i) = (Symbolic::default(), Symbolic::default());
            for fire in 0..12 {
                reprogram(&mut r, &mut compiled, &mut interp);
                let inputs: Vec<VecVal<u32>> = (0..compiled.num_inputs())
                    .map(|_| {
                        let lanes: Vec<u32> = (0..width).map(|_| sym_c.fresh()).collect();
                        for _ in 0..width {
                            sym_i.fresh();
                        }
                        VecVal::with_pred(&lanes, r.gen_index(1 << width) as u8)
                    })
                    .collect();
                let want = interp.fire_in(&mut sym_i, &inputs).to_vec();
                let got = compiled.fire_in(&mut sym_c, &inputs).to_vec();
                assert_eq!(got, want, "{}", what(fire));
                let ops: Vec<ScalarOp> = sym_c.drain_ops().collect();
                assert_eq!(ops, sym_i.drain_ops().collect::<Vec<_>>(), "{}", what(fire));
                assert_eq!(sym_c.slots(), sym_i.slots(), "{}", what(fire));
                assert_eq!(sym_c.constants(), sym_i.constants(), "{}", what(fire));
            }
        }
    }
}
