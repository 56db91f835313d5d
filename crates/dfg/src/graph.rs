use crate::{DfgEvaluator, FuClass, OpCode};
use revel_isa::{InPortId, OutPortId, RateFsm};
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifier of a node within a [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// A node of an inductive dataflow graph.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Reads one vector per fire from an input port.
    Input {
        /// The port this node reads.
        port: InPortId,
        /// True if the node reads a scalar broadcast to every vector lane
        /// (the port runs at logical width 1 regardless of its hardware
        /// width); false for full-width vector operands.
        scalar: bool,
    },
    /// A compile-time constant, broadcast to every vector lane.
    Const {
        /// The constant value.
        value: f64,
    },
    /// A functional-unit operation.
    Op {
        /// The operation.
        op: OpCode,
        /// Argument nodes (must precede this node).
        args: Vec<NodeId>,
    },
    /// A stateful accumulator: adds its (vector-reduced) argument every
    /// fire; after `len(j)` fires it emits the sum and resets, with the
    /// outer index `j` advancing per emission. This is how reductions with
    /// inductively-shrinking trip counts (e.g. `i = j..n`) map onto a
    /// systolic PE's accumulator register.
    Accum {
        /// The value accumulated each fire.
        arg: NodeId,
        /// Fires per emission, as an inductive rate.
        len: RateFsm,
    },
    /// A per-lane vector accumulator: adds its argument elementwise every
    /// fire; after `len(j)` fires it emits the accumulated vector and
    /// resets. This maps a vectorized reduction-per-lane (e.g. GEMM's
    /// `c[j] += a_i · b[i,j]` over `i`, or FIR's tap accumulation) onto the
    /// systolic PEs' accumulator registers.
    AccumVec {
        /// The vector accumulated each fire.
        arg: NodeId,
        /// Fires per emission, as an inductive rate.
        len: RateFsm,
    },
    /// Drains one vector per fire to an output port.
    Output {
        /// The value node written out.
        arg: NodeId,
        /// The port this node writes.
        port: OutPortId,
    },
}

impl Node {
    /// Argument nodes of this node.
    pub fn args(&self) -> &[NodeId] {
        match self {
            Node::Input { .. } | Node::Const { .. } => &[],
            Node::Op { args, .. } => args,
            Node::Accum { arg, .. } | Node::AccumVec { arg, .. } | Node::Output { arg, .. } => {
                std::slice::from_ref(arg)
            }
        }
    }
}

/// Structural identity: every field of every variant, a `Const`'s value by
/// bit pattern — so identity is finer than `==` (`0.0` and `-0.0` differ,
/// as do NaN payloads). Each arm names all of its variant's fields, so a
/// field added later fails to compile here instead of escaping identity.
impl Hash for Node {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Node::Input { port, scalar } => {
                port.hash(state);
                scalar.hash(state);
            }
            Node::Const { value } => value.to_bits().hash(state),
            Node::Op { op, args } => {
                op.hash(state);
                args.hash(state);
            }
            Node::Accum { arg, len } | Node::AccumVec { arg, len } => {
                arg.hash(state);
                len.hash(state);
            }
            Node::Output { arg, port } => {
                arg.hash(state);
                port.hash(state);
            }
        }
    }
}

/// Structural error detected by [`Dfg::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfgError {
    /// An op has the wrong number of arguments.
    BadArity {
        /// Offending node.
        node: NodeId,
        /// Expected argument count.
        expected: usize,
        /// Actual argument count.
        actual: usize,
    },
    /// Two input nodes read the same port.
    DuplicateInputPort {
        /// The port bound twice.
        port: InPortId,
    },
    /// Two output nodes write the same port.
    DuplicateOutputPort {
        /// The port bound twice.
        port: OutPortId,
    },
    /// The graph has no output and therefore no observable effect.
    NoOutput,
}

impl fmt::Display for DfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfgError::BadArity { node, expected, actual } => {
                write!(f, "node {} expects {expected} args, got {actual}", node.0)
            }
            DfgError::DuplicateInputPort { port } => {
                write!(f, "input port {port} bound to more than one node")
            }
            DfgError::DuplicateOutputPort { port } => {
                write!(f, "output port {port} bound to more than one node")
            }
            DfgError::NoOutput => write!(f, "graph has no output node"),
        }
    }
}

impl std::error::Error for DfgError {}

/// A dataflow computation graph.
///
/// Nodes are appended through the builder methods ([`Dfg::input`],
/// [`Dfg::op`], …) which only accept already-created nodes as arguments, so
/// a `Dfg` is topologically ordered by construction and acyclic by
/// construction.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Dfg {
    name: String,
    nodes: Vec<Node>,
}

impl Dfg {
    /// Creates an empty graph with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        Dfg { name: name.into(), nodes: Vec::new() }
    }

    /// The graph's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Adds a vector input node reading `port` at the region's full width.
    pub fn input(&mut self, port: InPortId) -> NodeId {
        self.push(Node::Input { port, scalar: false })
    }

    /// Adds a scalar input node: the port delivers one value per logical
    /// element, broadcast across the region's vector lanes (e.g. the pivot
    /// `b[j]` in the solver).
    pub fn input_scalar(&mut self, port: InPortId) -> NodeId {
        self.push(Node::Input { port, scalar: true })
    }

    /// Adds a constant node.
    pub fn konst(&mut self, value: f64) -> NodeId {
        self.push(Node::Const { value })
    }

    /// Adds an operation node.
    ///
    /// # Panics
    /// Panics if any argument id is not an existing node (which would break
    /// the topological-by-construction invariant).
    pub fn op(&mut self, op: OpCode, args: &[NodeId]) -> NodeId {
        for a in args {
            assert!((a.0 as usize) < self.nodes.len(), "argument {} does not exist yet", a.0);
        }
        self.push(Node::Op { op, args: args.to_vec() })
    }

    /// Adds an accumulator node emitting every `len(j)` fires.
    pub fn accum(&mut self, arg: NodeId, len: RateFsm) -> NodeId {
        assert!((arg.0 as usize) < self.nodes.len(), "argument does not exist yet");
        self.push(Node::Accum { arg, len })
    }

    /// Adds a per-lane vector accumulator emitting every `len(j)` fires.
    pub fn accum_vec(&mut self, arg: NodeId, len: RateFsm) -> NodeId {
        assert!((arg.0 as usize) < self.nodes.len(), "argument does not exist yet");
        self.push(Node::AccumVec { arg, len })
    }

    /// Adds an output node draining `arg` to `port`.
    pub fn output(&mut self, arg: NodeId, port: OutPortId) -> NodeId {
        assert!((arg.0 as usize) < self.nodes.len(), "argument does not exist yet");
        self.push(Node::Output { arg, port })
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node behind an id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterator over `(NodeId, &Node)` in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Input ports read by this graph, in node order.
    pub fn input_ports(&self) -> Vec<InPortId> {
        self.input_bindings().into_iter().map(|(p, _)| p).collect()
    }

    /// Input ports with their scalar/vector binding, in node order.
    pub fn input_bindings(&self) -> Vec<(InPortId, bool)> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Input { port, scalar } => Some((*port, *scalar)),
                _ => None,
            })
            .collect()
    }

    /// Output ports written by this graph, in node order.
    pub fn output_ports(&self) -> Vec<OutPortId> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Output { port, .. } => Some(*port),
                _ => None,
            })
            .collect()
    }

    /// Number of compute instructions (op + accumulator nodes): what
    /// occupies PEs.
    pub fn num_instructions(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Op { .. } | Node::Accum { .. } | Node::AccumVec { .. }))
            .count()
    }

    /// How many FUs of each class the graph needs when spatially mapped
    /// (one dedicated PE per instruction).
    pub fn fu_demand(&self) -> BTreeMap<FuClass, usize> {
        let mut demand = BTreeMap::new();
        for n in &self.nodes {
            let class = match n {
                Node::Op { op, .. } => op.fu_class(),
                Node::Accum { .. } | Node::AccumVec { .. } => FuClass::Adder,
                _ => continue,
            };
            *demand.entry(class).or_insert(0) += 1;
        }
        demand
    }

    /// Critical-path latency in cycles through FU pipelines only (network
    /// hops are added by the spatial scheduler).
    pub fn critical_path_latency(&self) -> u32 {
        let mut arrival = vec![0u32; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            let input_ready = n.args().iter().map(|a| arrival[a.0 as usize]).max().unwrap_or(0);
            let lat = match n {
                Node::Op { op, .. } => op.latency(),
                Node::Accum { .. } | Node::AccumVec { .. } => OpCode::Add.latency(),
                _ => 0,
            };
            arrival[i] = input_ready + lat;
        }
        arrival.into_iter().max().unwrap_or(0)
    }

    /// Per-node number of consumers (fan-out), used by the scheduler.
    pub fn fanout(&self) -> Vec<u32> {
        let mut fanout = vec![0u32; self.nodes.len()];
        for n in &self.nodes {
            for a in n.args() {
                fanout[a.0 as usize] += 1;
            }
        }
        fanout
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    /// See [`DfgError`].
    pub fn validate(&self) -> Result<(), DfgError> {
        let mut in_ports = std::collections::BTreeSet::new();
        let mut out_ports = std::collections::BTreeSet::new();
        let mut has_output = false;
        for (i, n) in self.nodes.iter().enumerate() {
            match n {
                Node::Input { port, .. } if !in_ports.insert(*port) => {
                    return Err(DfgError::DuplicateInputPort { port: *port });
                }
                Node::Output { port, .. } => {
                    has_output = true;
                    if !out_ports.insert(*port) {
                        return Err(DfgError::DuplicateOutputPort { port: *port });
                    }
                }
                Node::Op { op, args } if args.len() != op.arity() => {
                    return Err(DfgError::BadArity {
                        node: NodeId(i as u32),
                        expected: op.arity(),
                        actual: args.len(),
                    });
                }
                _ => {}
            }
        }
        if !has_output {
            return Err(DfgError::NoOutput);
        }
        Ok(())
    }

    /// Creates an evaluator for this graph at the given vector width.
    ///
    /// # Panics
    /// Panics if `width` is 0 or exceeds [`crate::MAX_VEC_WIDTH`].
    pub fn evaluator(&self, width: usize) -> DfgEvaluator {
        DfgEvaluator::new(self, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axpy_graph() -> Dfg {
        let mut g = Dfg::new("axpy");
        let a = g.input(InPortId(0));
        let x = g.input(InPortId(1));
        let y = g.input(InPortId(2));
        let ax = g.op(OpCode::Mul, &[a, x]);
        let r = g.op(OpCode::Add, &[ax, y]);
        g.output(r, OutPortId(0));
        g
    }

    #[test]
    fn build_and_validate() {
        let g = axpy_graph();
        assert!(g.validate().is_ok());
        assert_eq!(g.num_instructions(), 2);
        assert_eq!(g.input_ports().len(), 3);
        assert_eq!(g.output_ports(), [OutPortId(0)]);
    }

    #[test]
    fn fu_demand_counts() {
        let g = axpy_graph();
        let d = g.fu_demand();
        assert_eq!(d.get(&FuClass::Multiplier), Some(&1));
        assert_eq!(d.get(&FuClass::Adder), Some(&1));
        assert_eq!(d.get(&FuClass::DivSqrt), None);
    }

    #[test]
    fn critical_path() {
        // mul (4) then add (2) = 6
        assert_eq!(axpy_graph().critical_path_latency(), 6);
    }

    #[test]
    fn fanout_counts() {
        let mut g = Dfg::new("fan");
        let a = g.input(InPortId(0));
        let s = g.op(OpCode::Mul, &[a, a]);
        g.output(s, OutPortId(0));
        assert_eq!(g.fanout()[a.0 as usize], 2);
    }

    #[test]
    fn duplicate_ports_rejected() {
        let mut g = Dfg::new("dup");
        let a = g.input(InPortId(0));
        let _b = g.input(InPortId(0));
        g.output(a, OutPortId(0));
        assert!(matches!(g.validate(), Err(DfgError::DuplicateInputPort { .. })));
    }

    #[test]
    fn missing_output_rejected() {
        let mut g = Dfg::new("noout");
        let _ = g.input(InPortId(0));
        assert_eq!(g.validate(), Err(DfgError::NoOutput));
    }

    #[test]
    fn bad_arity_rejected() {
        let mut g = Dfg::new("arity");
        let a = g.input(InPortId(0));
        // Bypass `op`'s arity-agnostic builder by pushing a malformed node
        // through the public API: op() does not check arity (validate does).
        let bad = g.op(OpCode::Add, &[a]);
        g.output(bad, OutPortId(0));
        assert!(matches!(g.validate(), Err(DfgError::BadArity { .. })));
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_reference_panics() {
        let mut g = Dfg::new("fwd");
        let _ = g.op(OpCode::Neg, &[NodeId(5)]);
    }
}
