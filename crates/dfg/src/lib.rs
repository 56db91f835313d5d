//! # revel-dfg — inductive dataflow graphs
//!
//! Computation graphs for the REVEL hybrid systolic-dataflow architecture
//! (HPCA 2020). A [`Dfg`] is the *computation* half of a program region: a
//! DAG of functional-unit operations fed by input ports and draining to
//! output ports. The *communication* half (streams, rates) lives in
//! [`revel_isa`].
//!
//! Graphs here carry the two pieces of inductive-dataflow semantics that
//! matter inside the fabric:
//!
//! * **Stream predication** (§IV-A, Fig. 12): values are vectors of up to 8
//!   lanes with a predicate mask; lanes padded by a port on an inductive
//!   stream boundary are predicated off, the predicate propagates through
//!   ops, and memory writes ignore invalid lanes. See [`VecVal`].
//! * **Inductive accumulation**: an [`Node::Accum`] node sums across fires
//!   and emits/resets every `len(j)` fires where `len` is a
//!   [`revel_isa::RateFsm`] — the dependence-stream rate applied to a
//!   reduction.
//!
//! ```
//! use revel_dfg::{Dfg, OpCode, VecVal};
//! use revel_isa::{InPortId, OutPortId};
//!
//! // out = a * b (2-wide vector region)
//! let mut g = Dfg::new("mul");
//! let a = g.input(InPortId(0));
//! let b = g.input(InPortId(1));
//! let m = g.op(OpCode::Mul, &[a, b]);
//! g.output(m, OutPortId(0));
//!
//! let mut ev = g.evaluator(2);
//! let outs = ev.fire(&[VecVal::splat(3.0, 2), VecVal::splat(4.0, 2)]);
//! assert_eq!(outs[0].1.get(0), Some(12.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod eval;
mod graph;
mod op;
mod region;

pub use eval::{Concrete, DfgEvaluator, Domain, ScalarOp, Symbolic, VecVal, MAX_VEC_WIDTH};
pub use graph::{Dfg, DfgError, Node, NodeId};
pub use op::{pack_complex, unpack_complex, FuClass, OpCode};
pub use region::{Region, RegionId, RegionKind};
