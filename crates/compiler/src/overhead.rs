//! Dependence-FSM instruction overhead for the tagged-dataflow baseline.
//!
//! Traditional dataflow architectures have no port-FSM hardware, so
//! tracking data reuse / discard across iterations takes real fabric
//! instructions (Fig. 9: "update use count", "cmp", plus a select/steer) —
//! roughly three extra ALU ops per inductive dependence, executed once per
//! region firing. This module injects those ops into a region's DFG so the
//! triggered-instruction executor pays for them cycle-by-cycle, which is
//! "the primary reason why dataflow does not reach maximum throughput"
//! (§III-B).

use revel_dfg::{Dfg, Node, OpCode};

/// Returns `dfg` with `num_deps * 3` FSM bookkeeping instructions
/// appended (increment, compare, select per tracked dependence).
///
/// The injected ops form a live chain hanging off the first input (so they
/// are real work for the instruction scheduler) but do not alter any
/// output value.
pub(crate) fn add_fsm_overhead(mut g: Dfg, num_deps: usize) -> Dfg {
    if num_deps == 0 {
        return g;
    }
    // Anchor the chain on an input if one exists, else on a constant.
    let input_anchor = g.iter().find(|(_, n)| matches!(n, Node::Input { .. })).map(|(id, _)| id);
    let anchor = match input_anchor {
        Some(id) => id,
        None => g.konst(0.0),
    };
    let one = g.konst(1.0);
    let mut counter = anchor;
    for _ in 0..num_deps {
        // counter += 1  (update use count)
        counter = g.op(OpCode::Add, &[counter, one]);
        // done = counter < bound  (compare against the trip bound)
        let cmp = g.op(OpCode::CmpLt, &[counter, one]);
        // steer: select(reset, counter, done)
        counter = g.op(OpCode::Select, &[one, counter, cmp]);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use revel_isa::{InPortId, OutPortId};

    fn base() -> Dfg {
        let mut g = Dfg::new("k");
        let a = g.input(InPortId(0));
        let b = g.input(InPortId(1));
        let m = g.op(OpCode::Mul, &[a, b]);
        g.output(m, OutPortId(0));
        g
    }

    #[test]
    fn overhead_adds_three_ops_per_dep() {
        let g = base();
        let g2 = add_fsm_overhead(g.clone(), 2);
        assert_eq!(g2.num_instructions(), g.num_instructions() + 6);
    }

    #[test]
    fn zero_deps_is_identity() {
        let g = base();
        assert_eq!(add_fsm_overhead(g.clone(), 0), g);
    }

    #[test]
    fn outputs_unchanged() {
        use revel_dfg::VecVal;
        let g = base();
        let g2 = add_fsm_overhead(g.clone(), 3);
        let mut e1 = g.evaluator(1);
        let mut e2 = g2.evaluator(1);
        let ins = [VecVal::splat(3.0, 1), VecVal::splat(5.0, 1)];
        assert_eq!(e1.fire(&ins)[0].1.get(0), e2.fire(&ins)[0].1.get(0));
    }

    #[test]
    fn overhead_graph_still_validates() {
        let g2 = add_fsm_overhead(base(), 4);
        assert!(g2.validate().is_ok());
    }
}
