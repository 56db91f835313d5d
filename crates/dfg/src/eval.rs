use crate::{Dfg, Node, NodeId, OpCode};
use revel_isa::OutPortId;

/// Maximum vector width of a region (the widest port is 512 bits = 8 words).
pub const MAX_VEC_WIDTH: usize = 8;

/// A vector value with a predicate mask: the unit of data flowing through a
/// (possibly vectorized) program region.
///
/// Lane `k` is valid when bit `k` of `pred` is set. Stream predication
/// (§IV-A) pads the final sub-vector of an inductive stream with invalid
/// lanes; the mask propagates through computation and memory writes skip
/// invalid lanes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VecVal {
    vals: [f64; MAX_VEC_WIDTH],
    pred: u8,
    width: u8,
}

impl VecVal {
    /// A value with every lane equal to `x` and valid.
    ///
    /// # Panics
    /// Panics if `width` is 0 or exceeds [`MAX_VEC_WIDTH`].
    pub fn splat(x: f64, width: usize) -> Self {
        assert!((1..=MAX_VEC_WIDTH).contains(&width), "bad vector width {width}");
        let mut vals = [0.0; MAX_VEC_WIDTH];
        vals[..width].fill(x);
        VecVal { vals, pred: mask_all(width), width: width as u8 }
    }

    /// A value from explicit lanes, all valid.
    ///
    /// # Panics
    /// Panics if `lanes` is empty or longer than [`MAX_VEC_WIDTH`].
    pub fn from_lanes(lanes: &[f64]) -> Self {
        assert!(!lanes.is_empty() && lanes.len() <= MAX_VEC_WIDTH);
        let mut vals = [0.0; MAX_VEC_WIDTH];
        vals[..lanes.len()].copy_from_slice(lanes);
        VecVal { vals, pred: mask_all(lanes.len()), width: lanes.len() as u8 }
    }

    /// A value from explicit lanes and an explicit predicate mask.
    ///
    /// # Panics
    /// Panics if `lanes` is empty or longer than [`MAX_VEC_WIDTH`].
    pub fn with_pred(lanes: &[f64], pred: u8) -> Self {
        let mut v = Self::from_lanes(lanes);
        v.pred = pred & mask_all(lanes.len());
        v
    }

    /// A fully predicated-off value (no valid lanes).
    ///
    /// # Panics
    /// Panics if `width` is 0 or exceeds [`MAX_VEC_WIDTH`].
    pub fn invalid(width: usize) -> Self {
        assert!((1..=MAX_VEC_WIDTH).contains(&width), "bad vector width {width}");
        VecVal { vals: [0.0; MAX_VEC_WIDTH], pred: 0, width: width as u8 }
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
    pub fn get(&self, k: usize) -> Option<f64> {
        if k < self.width() && self.pred & (1 << k) != 0 {
            Some(self.vals[k])
        } else {
            None
        }
    }

    /// Lane `k`'s raw value regardless of the predicate.
    pub fn raw(&self, k: usize) -> f64 {
        self.vals[k]
    }

    /// Overwrites lane `k`'s value, leaving the predicate unchanged (used
    /// by the simulator's bit-flip fault injection).
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn set_raw(&mut self, k: usize, v: f64) {
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
    pub fn iter_valid(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        (0..self.width()).filter_map(move |k| self.get(k).map(|v| (k, v)))
    }

    /// Sum of valid lanes (0.0 if none).
    pub fn sum_valid(&self) -> f64 {
        self.iter_valid().map(|(_, v)| v).sum()
    }
}

fn mask_all(width: usize) -> u8 {
    ((1u16 << width) - 1) as u8
}

/// The widest [`OpCode`] arity (`Select`).
const MAX_ARITY: usize = 3;

/// Functional evaluator of a [`Dfg`] at a fixed vector width.
///
/// The evaluator owns the accumulator state, so one evaluator corresponds
/// to one *configured instance* of the region on the fabric. Create it with
/// [`Dfg::evaluator`].
///
/// [`DfgEvaluator::fire`] is the simulator's innermost loop: it touches the
/// heap nowhere. Node values and output vectors live in scratch buffers
/// sized here, once per configured instance.
#[derive(Debug, Clone)]
pub struct DfgEvaluator {
    dfg: Dfg,
    width: usize,
    /// Per-accum-node state, indexed densely by accum order.
    accum: Vec<AccumState>,
    /// Map node index → accum state index (usize::MAX when not an accum).
    accum_index: Vec<usize>,
    /// Runtime-configured emission length (overrides the DFG's rate).
    accum_len_override: Option<revel_isa::RateFsm>,
    input_nodes: Vec<NodeId>,
    /// Scratch: the value of every node in the fire in progress.
    values: Vec<VecVal>,
    /// Scratch: the last fire's output vectors, in output-node order.
    outputs: Vec<(OutPortId, VecVal)>,
}

#[derive(Debug, Clone)]
struct AccumState {
    sum: f64,
    /// Per-lane sums (AccumVec only).
    lanes: [f64; MAX_VEC_WIDTH],
    /// Union of predicates seen this accumulation window (AccumVec only).
    pred: u8,
    remaining: i64,
    j: i64,
}

impl AccumState {
    fn fresh(remaining: i64) -> Self {
        AccumState { sum: 0.0, lanes: [0.0; MAX_VEC_WIDTH], pred: 0, remaining, j: 0 }
    }
}

impl DfgEvaluator {
    /// Builds an evaluator; prefer [`Dfg::evaluator`].
    ///
    /// # Panics
    /// Panics if `width` is 0 or exceeds [`MAX_VEC_WIDTH`].
    pub fn new(dfg: &Dfg, width: usize) -> Self {
        assert!((1..=MAX_VEC_WIDTH).contains(&width), "bad vector width {width}");
        let mut accum = Vec::new();
        let mut accum_index = vec![usize::MAX; dfg.len()];
        let mut input_nodes = Vec::new();
        let mut num_outputs = 0;
        for (id, node) in dfg.iter() {
            match node {
                Node::Accum { len, .. } | Node::AccumVec { len, .. } => {
                    accum_index[id.0 as usize] = accum.len();
                    accum.push(AccumState::fresh(len.count_at(0)));
                }
                Node::Input { .. } => input_nodes.push(id),
                Node::Output { .. } => num_outputs += 1,
                _ => {}
            }
        }
        DfgEvaluator {
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

    /// The vector width the evaluator runs at.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of input vectors [`DfgEvaluator::fire`] expects.
    pub fn num_inputs(&self) -> usize {
        self.input_nodes.len()
    }

    /// Reconfigures every accumulator's emission length and resets its
    /// state (the `SetAccumLen` stream command).
    pub fn set_accum_len(&mut self, len: revel_isa::RateFsm) {
        for st in &mut self.accum {
            *st = AccumState::fresh(len.count_at(0));
        }
        self.accum_len_override = Some(len);
    }

    /// Returns the evaluator to its freshly built state, as a
    /// reconfiguration does: every accumulator restarts at its DFG length
    /// and any [`DfgEvaluator::set_accum_len`] override is dropped.
    pub fn reset(&mut self) {
        self.accum_len_override = None;
        let mut k = 0;
        for node in self.dfg.nodes() {
            if let Node::Accum { len, .. } | Node::AccumVec { len, .. } = node {
                self.accum[k] = AccumState::fresh(len.count_at(0));
                k += 1;
            }
        }
    }

    /// Executes one firing of the region: consumes one vector per input
    /// node (in input-node order) and returns the vectors produced at each
    /// output port (in output-node order). The slice is the evaluator's own
    /// buffer, overwritten by the next fire.
    ///
    /// Accumulator nodes emit a fully-predicated-off value on non-emitting
    /// fires; callers (the simulator's output ports) drop values with no
    /// valid lanes.
    ///
    /// # Panics
    /// Panics if `inputs.len()` differs from [`DfgEvaluator::num_inputs`].
    pub fn fire(&mut self, inputs: &[VecVal]) -> &[(OutPortId, VecVal)] {
        let DfgEvaluator {
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
                    assert_eq!(v.width(), width, "input width mismatch in region {}", dfg.name());
                    v
                }
                Node::Const { value } => VecVal::splat(*value, width),
                Node::Op { op, args } => eval_op(*op, args, values, width),
                Node::Accum { arg, len } => {
                    let len = accum_len_override.unwrap_or(*len);
                    let input = values[arg.0 as usize];
                    let state = &mut accum[accum_index[idx]];
                    state.sum += input.sum_valid();
                    state.remaining -= 1;
                    let mut out = VecVal::invalid(width);
                    if state.remaining <= 0 {
                        out.vals[0] = state.sum;
                        out.pred = 1;
                        state.sum = 0.0;
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
                        state.lanes[k] += v;
                    }
                    state.pred |= input.pred();
                    state.remaining -= 1;
                    if state.remaining <= 0 {
                        let out =
                            VecVal { vals: state.lanes, pred: state.pred, width: width as u8 };
                        state.lanes = [0.0; MAX_VEC_WIDTH];
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
fn eval_op(op: OpCode, args: &[NodeId], values: &[VecVal], width: usize) -> VecVal {
    if op == OpCode::ReduceAdd {
        return VecVal::splat(values[args[0].0 as usize].sum_valid(), width);
    }
    // `OpCode::apply` reads at most `MAX_ARITY` arguments.
    let args = &args[..args.len().min(MAX_ARITY)];
    let mut out = VecVal { vals: [0.0; MAX_VEC_WIDTH], pred: mask_all(width), width: width as u8 };
    for a in args {
        out.pred &= values[a.0 as usize].pred;
    }
    let mut scalars = [0.0; MAX_ARITY];
    for k in 0..width {
        for (s, a) in scalars.iter_mut().zip(args) {
            *s = values[a.0 as usize].vals[k];
        }
        out.vals[k] = op.apply(&scalars[..args.len()]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dfg;
    use revel_isa::{InPortId, RateFsm};

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
        assert!(!VecVal::invalid(4).any_valid());
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
}
