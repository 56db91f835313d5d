//! Stream lowering: turning inductive stream commands into the command
//! sequences a machine *without* first-class inductive streams must issue.
//!
//! This is the mechanism behind the first rung of the Fig. 22 ladder: on a
//! plain stream-dataflow baseline, a triangular load is `n` separate
//! rectangular loads, each constructed and shipped by the control core —
//! the control overhead REVEL's inductive streams amortize away.
//!
//! XFER dependence streams are *not* decomposed here: on the systolic
//! baseline inter-region dependences are restructured through memory and
//! host ops by the workload builder (outer regions live on the control
//! core), and on the tagged-dataflow baseline the dependence FSM costs
//! in-fabric instructions (see [`BuildCfg::inner_region`]) rather than
//! commands.

use crate::BuildCfg;
use revel_isa::{AffinePattern, StreamCommand};

/// The result of lowering one command.
#[derive(Debug, Clone, PartialEq)]
pub struct Lowered {
    /// The command sequence to issue (length 1 when nothing was lowered).
    pub cmds: Vec<StreamCommand>,
    /// True if the command had to be decomposed.
    pub decomposed: bool,
}

impl Lowered {
    fn passthrough(cmd: StreamCommand) -> Self {
        Lowered { cmds: vec![cmd], decomposed: false }
    }
}

/// Lowers a stream command for the target architecture.
///
/// With `cfg.inductive_streams` set this is the identity. Without it,
/// inductive loads/stores decompose into per-row (or, when the reuse rate
/// itself is inductive, per-element) commands, and inductive consts into
/// per-phase consts.
pub fn lower_command(cfg: &BuildCfg, cmd: StreamCommand) -> Lowered {
    if cfg.inductive_streams {
        return Lowered::passthrough(cmd);
    }
    match cmd {
        StreamCommand::Load { target, pattern, dst, reuse } => {
            if !pattern.is_inductive() && !reuse.is_inductive() {
                return Lowered::passthrough(StreamCommand::Load { target, pattern, dst, reuse });
            }
            let mut cmds = Vec::new();
            if reuse.is_inductive() {
                // Each element needs its own (fixed) reuse count: one
                // command per element.
                for (k, elem) in pattern.iter().enumerate() {
                    cmds.push(StreamCommand::Load {
                        target,
                        pattern: AffinePattern::scalar(elem.offset),
                        dst,
                        reuse: revel_isa::RateFsm::fixed(reuse.count_at(k as i64)),
                    });
                }
            } else {
                // One rectangular command per inner row.
                for j in 0..pattern.len_j {
                    let len = pattern.row_len(j);
                    if len == 0 {
                        continue;
                    }
                    cmds.push(StreamCommand::Load {
                        target,
                        pattern: AffinePattern::strided(
                            pattern.start + j * pattern.stride_j,
                            pattern.stride_i,
                            len,
                        ),
                        dst,
                        reuse,
                    });
                }
            }
            Lowered { cmds, decomposed: true }
        }
        StreamCommand::Store { src, target, pattern, discard } => {
            if !pattern.is_inductive() {
                return Lowered::passthrough(StreamCommand::Store {
                    src,
                    target,
                    pattern,
                    discard,
                });
            }
            assert!(
                !discard.is_inductive(),
                "cannot decompose a store with an inductive discard rate"
            );
            let mut cmds = Vec::new();
            for j in 0..pattern.len_j {
                let len = pattern.row_len(j);
                if len == 0 {
                    continue;
                }
                cmds.push(StreamCommand::Store {
                    src,
                    target,
                    pattern: AffinePattern::strided(
                        pattern.start + j * pattern.stride_j,
                        pattern.stride_i,
                        len,
                    ),
                    discard,
                });
            }
            Lowered { cmds, decomposed: true }
        }
        StreamCommand::Const { dst, pattern } => {
            let inductive = pattern.n1.is_inductive()
                || pattern.val2.map(|(_, n2)| n2.is_inductive()).unwrap_or(false);
            if !inductive {
                return Lowered::passthrough(StreamCommand::Const { dst, pattern });
            }
            let mut cmds = Vec::new();
            for j in 0..pattern.outer {
                cmds.push(StreamCommand::Const {
                    dst,
                    pattern: revel_isa::ConstPattern {
                        val1: pattern.val1,
                        n1: revel_isa::RateFsm::fixed(pattern.n1.count_at(j)),
                        val2: pattern
                            .val2
                            .map(|(v2, n2)| (v2, revel_isa::RateFsm::fixed(n2.count_at(j)))),
                        outer: 1,
                    },
                });
            }
            Lowered { cmds, decomposed: true }
        }
        other => Lowered::passthrough(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revel_isa::{InPortId, MemTarget, OutPortId, RateFsm};

    fn no_ind() -> BuildCfg {
        BuildCfg::systolic_baseline(1)
    }

    #[test]
    fn revel_build_is_identity() {
        let cfg = BuildCfg::revel(1);
        let cmd = StreamCommand::load(
            MemTarget::Private,
            AffinePattern::two_d(0, 1, 8, 8, 8, -1),
            InPortId(0),
            RateFsm::ONCE,
        );
        let l = lower_command(&cfg, cmd.clone());
        assert_eq!(l.cmds, vec![cmd]);
        assert!(!l.decomposed);
    }

    #[test]
    fn triangular_load_decomposes_per_row() {
        let cmd = StreamCommand::load(
            MemTarget::Private,
            AffinePattern::two_d(0, 1, 8, 8, 8, -1),
            InPortId(0),
            RateFsm::ONCE,
        );
        let l = lower_command(&no_ind(), cmd);
        assert!(l.decomposed);
        assert_eq!(l.cmds.len(), 8);
        // Row 3 starts at 24 with length 5.
        match &l.cmds[3] {
            StreamCommand::Load { pattern, .. } => {
                assert_eq!(pattern.start, 24);
                assert_eq!(pattern.total_elems(), 5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn decomposed_rows_preserve_elements() {
        let pat = AffinePattern::two_d(3, 2, 16, 6, 5, -1);
        let cmd = StreamCommand::load(MemTarget::Private, pat, InPortId(0), RateFsm::ONCE);
        let l = lower_command(&no_ind(), cmd);
        let mut offsets = Vec::new();
        for c in &l.cmds {
            if let StreamCommand::Load { pattern, .. } = c {
                offsets.extend(pattern.iter().map(|e| e.offset));
            }
        }
        let expect: Vec<i64> = pat.iter().map(|e| e.offset).collect();
        assert_eq!(offsets, expect);
    }

    #[test]
    fn inductive_reuse_decomposes_per_element() {
        let cmd = StreamCommand::load(
            MemTarget::Private,
            AffinePattern::linear(0, 4),
            InPortId(0),
            RateFsm::inductive(4, -1),
        );
        let l = lower_command(&no_ind(), cmd);
        assert_eq!(l.cmds.len(), 4);
        match &l.cmds[2] {
            StreamCommand::Load { reuse, pattern, .. } => {
                assert_eq!(reuse.base, 2); // counts 4,3,2,1
                assert_eq!(pattern.start, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rectangular_load_stays_single() {
        let cmd = StreamCommand::load(
            MemTarget::Private,
            AffinePattern::two_d(0, 1, 8, 8, 8, 0),
            InPortId(0),
            RateFsm::ONCE,
        );
        let l = lower_command(&no_ind(), cmd);
        assert!(!l.decomposed);
        assert_eq!(l.cmds.len(), 1);
    }

    #[test]
    fn triangular_store_decomposes() {
        let cmd = StreamCommand::store(
            OutPortId(0),
            MemTarget::Private,
            AffinePattern::two_d(0, 1, 1, 7, 7, -1),
            RateFsm::ONCE,
        );
        let l = lower_command(&no_ind(), cmd);
        assert!(l.decomposed);
        assert_eq!(l.cmds.len(), 7);
    }

    #[test]
    fn inductive_const_decomposes() {
        let cmd = StreamCommand::konst(
            InPortId(1),
            revel_isa::ConstPattern {
                val1: 0,
                n1: RateFsm::inductive(3, -1),
                val2: Some((1, RateFsm::ONCE)),
                outer: 3,
            },
        );
        let l = lower_command(&no_ind(), cmd);
        assert_eq!(l.cmds.len(), 3);
        assert!(l.decomposed);
    }

    #[test]
    fn barriers_pass_through() {
        let l = lower_command(&no_ind(), StreamCommand::BarrierScratch);
        assert_eq!(l.cmds, vec![StreamCommand::BarrierScratch]);
    }
}
