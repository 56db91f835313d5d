//! Householder QR decomposition — used for MIMO signal detection (§II-A).
//!
//! Per outer iteration `k` (column-major `A`):
//!
//! * **dot** (systolic, vectorized): tail norm `Σ x_i²` then column dots
//!   `d_j = Σ_{i>k} A[i,k]·A[i,j]`, with the accumulator emission length
//!   reconfigured per `k` (`SetAccumLen`) as the reduction shrinks;
//! * **point** (temporal): `α = -sign(x₀)·‖x‖`, `v₀ = x₀ - α`,
//!   `β = 2/vᵀv` — a long scalar chain that only the hybrid fabric can
//!   overlap with the inner loops;
//! * **scale** (temporal): `s_j = β·(d_j + v₀·A[k,j])` (the `v₀` term
//!   corrects for streaming only the below-diagonal part of `v`);
//! * **update** (systolic, vectorized): `A[i,j] -= s_j·A[i,k]` for `i > k`,
//!   plus a second pass updating row `k` with the same datapath.
//!
//! The Householder vectors' tails remain below the diagonal (the LAPACK
//! storage convention); verification checks the upper triangle `R`.
//!
//! On the systolic baseline, point and scale run on the control core with a
//! `Wait` before each (fabric results must land in scratchpad first) —
//! the fine-grain serialization of Fig. 8.

use crate::data;
use crate::reference;
use crate::suite::{BuiltKernel, MemInit, Workload};
use revel_compiler::{BuildCfg, HOST_FP_OP_CYCLES, HOST_LOOP_CYCLES};
use revel_dfg::{Dfg, OpCode, Region};
use revel_isa::{
    AffinePattern, ConfigId, InPortId, LaneId, LaneMask, LaneScale, MemTarget, OutPortId, RateFsm,
    StreamCommand, VectorCommand,
};
use std::sync::Arc;

/// The QR workload (Table V: n ∈ {12, 16, 24, 32}).
#[derive(Debug, Clone, Copy)]
pub struct Qr {
    /// Matrix dimension.
    pub n: usize,
    /// Data seed.
    pub seed: u64,
}

impl Qr {
    /// Creates the workload.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 4, "qr needs n >= 4");
        Qr { n, seed }
    }

    fn a_row_major(&self, lane: u64) -> Vec<f64> {
        data::matrix(self.n, self.n, self.seed + 17 * lane)
    }

    /// Column-major copy for the device.
    fn a_col_major(&self, lane: u64) -> Vec<f64> {
        let n = self.n;
        let a = self.a_row_major(lane);
        let mut c = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                c[j * n + i] = a[i * n + j];
            }
        }
        c
    }

    fn a_base(&self) -> i64 {
        0
    }

    /// Shared scratch per lane: [v0, beta, alpha, dots/s...].
    fn scratch(&self, lane: usize) -> i64 {
        (lane * 64) as i64
    }

    fn init(&self, lanes: usize) -> Vec<MemInit> {
        (0..lanes)
            .map(|l| MemInit::Private {
                lane: l as u8,
                addr: self.a_base(),
                data: self.a_col_major(l as u64),
            })
            .collect()
    }

    fn check(&self, lanes: usize) -> crate::suite::CheckFn {
        let me = *self;
        Arc::new(move |machine| {
            let n = me.n;
            for l in 0..lanes {
                let (_, r_ref) = reference::qr(&me.a_row_major(l as u64), n);
                let a = machine.read_private(LaneId(l as u8), me.a_base(), n * n);
                for i in 0..n {
                    for j in i..n {
                        let got = a[j * n + i]; // column-major
                        let want = r_ref[i * n + j];
                        if (got - want).abs() > 1e-6 * (1.0 + want.abs()) {
                            return Err(format!("lane {l}: R[{i},{j}] = {got} != {want}"));
                        }
                    }
                }
            }
            Ok(())
        })
    }

    fn dot_region(&self, cfg: &BuildCfg, unroll: usize) -> Region {
        let mut dot = Dfg::new("dot");
        let v = dot.input(InPortId(2));
        let col = dot.input(InPortId(3));
        let prod = dot.op(OpCode::Mul, &[v, col]);
        // Accum reduces across vector lanes itself (it sums the valid
        // lanes of its input every fire) and emits the scalar dot.
        let acc = dot.accum(prod, RateFsm::ONCE);
        dot.output(acc, OutPortId(2));
        cfg.inner_region("dot", dot, 2, unroll)
    }

    fn update_region(&self, cfg: &BuildCfg, unroll: usize) -> Region {
        let mut upd = Dfg::new("update");
        let v = upd.input(InPortId(0));
        let col = upd.input(InPortId(1));
        let s = upd.input_scalar(InPortId(5));
        let prod = upd.op(OpCode::Mul, &[s, v]);
        let out = upd.op(OpCode::Sub, &[col, prod]);
        upd.output(out, OutPortId(1));
        cfg.inner_region("update", upd, 2, unroll)
    }

    /// Hybrid build: point and scale on the temporal fabric.
    fn build_hybrid(&self, cfg: &BuildCfg) -> BuiltKernel {
        let n = self.n as i64;
        let unroll = cfg.inner_unroll(4, true);
        let lanes = LaneMask::all(cfg.num_lanes as u8);

        // point: alpha, v0, beta from (tail, x0).
        let mut point = Dfg::new("point");
        let x0 = point.input(InPortId(6));
        let tail = point.input(InPortId(7));
        let zero = point.konst(0.0);
        let two = point.konst(2.0);
        let sq = point.op(OpCode::Mul, &[x0, x0]);
        let norm2 = point.op(OpCode::Add, &[tail, sq]);
        let rt = point.op(OpCode::Sqrt, &[norm2]);
        let neg_rt = point.op(OpCode::Neg, &[rt]);
        let x0_neg = point.op(OpCode::CmpLt, &[x0, zero]);
        let alpha = point.op(OpCode::Select, &[rt, neg_rt, x0_neg]);
        let v0 = point.op(OpCode::Sub, &[x0, alpha]);
        let v0sq = point.op(OpCode::Mul, &[v0, v0]);
        let vtv = point.op(OpCode::Add, &[tail, v0sq]);
        let inv = point.op(OpCode::Recip, &[vtv]);
        let beta = point.op(OpCode::Mul, &[two, inv]);
        point.output(alpha, OutPortId(6));
        point.output(v0, OutPortId(7));
        point.output(beta, OutPortId(8));
        point.output(v0, OutPortId(11));

        // scale: s_j = beta * (d_j + v0 * akj)
        let mut scale = Dfg::new("scale");
        let d = scale.input(InPortId(8));
        let akj = scale.input(InPortId(9));
        let v0_in = scale.input(InPortId(10));
        let beta_in = scale.input(InPortId(11));
        let t = scale.op(OpCode::Mul, &[v0_in, akj]);
        let u = scale.op(OpCode::Add, &[d, t]);
        let s = scale.op(OpCode::Mul, &[beta_in, u]);
        scale.output(s, OutPortId(10));

        let regions = vec![
            self.dot_region(cfg, unroll),
            self.update_region(cfg, unroll),
            cfg.outer_region("point", point, 1),
            cfg.outer_region("scale", scale, 2),
        ];

        let mut prog = revel_sim::RevelProgram::new(format!("qr-n{}", self.n));
        let config = prog.add_config(regions);
        let push = |prog: &mut revel_sim::RevelProgram, cmd| {
            prog.push(VectorCommand::broadcast(lanes, cmd))
        };
        push(&mut prog, StreamCommand::Configure { config: ConfigId(config) });
        for k in 0..n - 1 {
            let trail = n - k - 1;
            let diag = self.a_base() + k * (n + 1);
            let col_tail = diag + 1; // A[k+1.., k] (column-major)
            let fires = (trail + unroll as i64 - 1) / (unroll as i64);
            push(
                &mut prog,
                StreamCommand::SetAccumLen { region: 0, len: RateFsm::fixed(fires.max(1)) },
            );
            // Tail norm: dot(vtail, vtail).
            push(
                &mut prog,
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::linear(col_tail, trail),
                    InPortId(2),
                    RateFsm::ONCE,
                ),
            );
            push(
                &mut prog,
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::linear(col_tail, trail),
                    InPortId(3),
                    RateFsm::ONCE,
                ),
            );
            push(
                &mut prog,
                StreamCommand::xfer(OutPortId(2), InPortId(7), 1, RateFsm::ONCE, RateFsm::ONCE),
            );
            // x0 -> point.
            push(
                &mut prog,
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::scalar(diag),
                    InPortId(6),
                    RateFsm::ONCE,
                ),
            );
            // alpha -> A[k,k].
            push(
                &mut prog,
                StreamCommand::store(
                    OutPortId(6),
                    MemTarget::Private,
                    AffinePattern::scalar(diag),
                    RateFsm::ONCE,
                ),
            );
            // v0, beta -> scale (one value, reused per trailing column).
            push(
                &mut prog,
                StreamCommand::xfer(
                    OutPortId(7),
                    InPortId(10),
                    1,
                    RateFsm::ONCE,
                    RateFsm::fixed(trail),
                ),
            );
            push(
                &mut prog,
                StreamCommand::xfer(
                    OutPortId(8),
                    InPortId(11),
                    1,
                    RateFsm::ONCE,
                    RateFsm::fixed(trail),
                ),
            );
            // akj scalars A[k, j] for j > k.
            push(
                &mut prog,
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::strided(diag + n, n, trail),
                    InPortId(9),
                    RateFsm::ONCE,
                ),
            );
            // Column dots -> scale.
            push(
                &mut prog,
                StreamCommand::xfer(OutPortId(2), InPortId(8), trail, RateFsm::ONCE, RateFsm::ONCE),
            );
            // Dot streams: v tail re-read per column; trailing columns.
            push(
                &mut prog,
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::two_d(col_tail, 1, 0, trail, trail, 0),
                    InPortId(2),
                    RateFsm::ONCE,
                ),
            );
            push(
                &mut prog,
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::two_d(col_tail + n, 1, n, trail, trail, 0),
                    InPortId(3),
                    RateFsm::ONCE,
                ),
            );
            // s_j values drain to scratch as one-element rows (the
            // store→load row guard then releases each s_j to its consumers
            // the cycle after it is written, preserving pipelining). This
            // keeps the drain path resident in the stream table ahead of
            // the bandwidth-hungry update streams.
            let s_pat = AffinePattern::linear(self.scratch(0) + 4, trail);
            prog.push(VectorCommand::scaled(
                lanes,
                LaneScale::addr(64),
                StreamCommand::store(OutPortId(10), MemTarget::Shared, s_pat, RateFsm::ONCE),
            ));
            // s_j -> update (broadcast, one column's worth of reuse each).
            prog.push(VectorCommand::scaled(
                lanes,
                LaneScale::addr(64),
                StreamCommand::load(MemTarget::Shared, s_pat, InPortId(5), RateFsm::fixed(trail)),
            ));
            // Update streams: v tail re-read; trailing columns in place.
            push(
                &mut prog,
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::two_d(col_tail, 1, 0, trail, trail, 0),
                    InPortId(0),
                    RateFsm::ONCE,
                ),
            );
            let cols_pat = AffinePattern::two_d(col_tail + n, 1, n, trail, trail, 0);
            push(
                &mut prog,
                StreamCommand::load(MemTarget::Private, cols_pat, InPortId(1), RateFsm::ONCE),
            );
            push(
                &mut prog,
                StreamCommand::store(OutPortId(1), MemTarget::Private, cols_pat, RateFsm::ONCE),
            );
            // Row-k pass: same datapath, s as the vector operand and v0 as
            // the broadcast: A[k,j] -= v0 * s_j.
            prog.push(VectorCommand::scaled(
                lanes,
                LaneScale::addr(64),
                StreamCommand::load(MemTarget::Shared, s_pat, InPortId(0), RateFsm::ONCE),
            ));
            let row_pat = AffinePattern::strided(diag + n, n, trail);
            push(
                &mut prog,
                StreamCommand::load(MemTarget::Private, row_pat, InPortId(1), RateFsm::ONCE),
            );
            push(
                &mut prog,
                StreamCommand::xfer(
                    OutPortId(11),
                    InPortId(5),
                    1,
                    RateFsm::ONCE,
                    RateFsm::fixed(trail),
                ),
            );
            push(
                &mut prog,
                StreamCommand::store(OutPortId(1), MemTarget::Private, row_pat, RateFsm::ONCE),
            );
            push(&mut prog, StreamCommand::BarrierScratch);
        }
        push(&mut prog, StreamCommand::Wait);

        BuiltKernel {
            program: prog,
            init: self.init(cfg.num_lanes),
            check: self.check(cfg.num_lanes),
        }
    }

    /// Systolic build: point and scale on the control core.
    fn build_host_outer(&self, cfg: &BuildCfg) -> BuiltKernel {
        let n = self.n as i64;
        let unroll = cfg.inner_unroll(4, true);
        let lanes = LaneMask::all(cfg.num_lanes as u8);
        let num_lanes = cfg.num_lanes;
        let regions = vec![self.dot_region(cfg, unroll), self.update_region(cfg, unroll)];

        let mut prog = revel_sim::RevelProgram::new(format!("qr-sys-n{}", self.n));
        let config = prog.add_config(regions);
        let push = |prog: &mut revel_sim::RevelProgram, cmd| {
            prog.push(VectorCommand::broadcast(lanes, cmd))
        };
        push(&mut prog, StreamCommand::Configure { config: ConfigId(config) });
        let a_base = self.a_base();
        for k in 0..n - 1 {
            let trail = n - k - 1;
            let diag = a_base + k * (n + 1);
            let col_tail = diag + 1;
            let fires = (trail + unroll as i64 - 1) / (unroll as i64);
            let scratch0 = self.scratch(0);
            push(
                &mut prog,
                StreamCommand::SetAccumLen { region: 0, len: RateFsm::fixed(fires.max(1)) },
            );
            // Tail norm on fabric -> scratch.
            push(
                &mut prog,
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::linear(col_tail, trail),
                    InPortId(2),
                    RateFsm::ONCE,
                ),
            );
            push(
                &mut prog,
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::linear(col_tail, trail),
                    InPortId(3),
                    RateFsm::ONCE,
                ),
            );
            prog.push(VectorCommand::scaled(
                lanes,
                LaneScale::addr(64),
                StreamCommand::store(
                    OutPortId(2),
                    MemTarget::Shared,
                    AffinePattern::scalar(scratch0),
                    RateFsm::ONCE,
                ),
            ));
            push(&mut prog, StreamCommand::Wait);
            // Host: alpha, v0, beta; alpha written straight into A[k,k].
            prog.push_host(6 * HOST_FP_OP_CYCLES + HOST_LOOP_CYCLES, move |mem| {
                for l in 0..num_lanes as u8 {
                    let sc = scratch0 + 64 * l as i64;
                    let tail = mem.read(None, sc);
                    let x0 = mem.read(Some(l), diag);
                    let norm = (tail + x0 * x0).sqrt();
                    let alpha = if x0 >= 0.0 { -norm } else { norm };
                    let v0 = x0 - alpha;
                    let beta = 2.0 / (tail + v0 * v0);
                    mem.write(Some(l), diag, alpha);
                    mem.write(None, sc + 1, v0);
                    mem.write(None, sc + 2, beta);
                }
            });
            // Column dots on fabric -> scratch array.
            push(
                &mut prog,
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::two_d(col_tail, 1, 0, trail, trail, 0),
                    InPortId(2),
                    RateFsm::ONCE,
                ),
            );
            push(
                &mut prog,
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::two_d(col_tail + n, 1, n, trail, trail, 0),
                    InPortId(3),
                    RateFsm::ONCE,
                ),
            );
            prog.push(VectorCommand::scaled(
                lanes,
                LaneScale::addr(64),
                StreamCommand::store(
                    OutPortId(2),
                    MemTarget::Shared,
                    AffinePattern::linear(scratch0 + 4, trail),
                    RateFsm::ONCE,
                ),
            ));
            push(&mut prog, StreamCommand::Wait);
            // Host: s_j = beta * (d_j + v0 * akj), written over the dots;
            // row k of R updated on the host as well.
            let trail_us = trail as u64;
            prog.push_host(
                (3 * trail_us + 2) * (HOST_FP_OP_CYCLES / 4) + HOST_LOOP_CYCLES,
                move |mem| {
                    for l in 0..num_lanes as u8 {
                        let sc = scratch0 + 64 * l as i64;
                        let v0 = mem.read(None, sc + 1);
                        let beta = mem.read(None, sc + 2);
                        for idx in 0..trail {
                            let akj = mem.read(Some(l), diag + n * (idx + 1));
                            let d = mem.read(None, sc + 4 + idx);
                            let s = beta * (d + v0 * akj);
                            mem.write(None, sc + 4 + idx, s);
                            mem.write(Some(l), diag + n * (idx + 1), akj - s * v0);
                        }
                    }
                },
            );
            // Update on fabric: s from scratch (broadcast per column).
            prog.push(VectorCommand::scaled(
                lanes,
                LaneScale::addr(64),
                StreamCommand::load(
                    MemTarget::Shared,
                    AffinePattern::linear(scratch0 + 4, trail),
                    InPortId(5),
                    RateFsm::fixed(trail),
                ),
            ));
            push(
                &mut prog,
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::two_d(col_tail, 1, 0, trail, trail, 0),
                    InPortId(0),
                    RateFsm::ONCE,
                ),
            );
            let cols_pat = AffinePattern::two_d(col_tail + n, 1, n, trail, trail, 0);
            push(
                &mut prog,
                StreamCommand::load(MemTarget::Private, cols_pat, InPortId(1), RateFsm::ONCE),
            );
            push(
                &mut prog,
                StreamCommand::store(OutPortId(1), MemTarget::Private, cols_pat, RateFsm::ONCE),
            );
            push(&mut prog, StreamCommand::Wait);
        }

        BuiltKernel {
            program: prog,
            init: self.init(cfg.num_lanes),
            check: self.check(cfg.num_lanes),
        }
    }
}

impl Workload for Qr {
    fn name(&self) -> &'static str {
        "qr"
    }

    fn params(&self) -> String {
        format!("n={}", self.n)
    }

    fn flops(&self) -> u64 {
        reference::qr_flops(self.n)
    }

    fn build(&self, cfg: &BuildCfg) -> BuiltKernel {
        if cfg.outer_on_fabric() {
            self.build_hybrid(cfg)
        } else {
            self.build_host_outer(cfg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::run_workload;

    #[test]
    fn revel_qr_correct_all_sizes() {
        for n in [12, 16, 24, 32] {
            let run = run_workload(&Qr::new(n, 1), &BuildCfg::revel(1)).unwrap();
            run.assert_ok(&format!("qr n={n}"));
        }
    }

    #[test]
    fn systolic_baseline_correct_and_much_slower() {
        let w = Qr::new(16, 2);
        let revel = run_workload(&w, &BuildCfg::revel(1)).unwrap();
        let sys = run_workload(&w, &BuildCfg::systolic_baseline(1)).unwrap();
        revel.assert_ok("revel");
        sys.assert_ok("systolic");
        assert!(
            sys.cycles as f64 > 1.5 * revel.cycles as f64,
            "QR serialization: systolic {} vs revel {}",
            sys.cycles,
            revel.cycles
        );
    }

    #[test]
    fn dataflow_baseline_correct() {
        let w = Qr::new(12, 3);
        let run = run_workload(&w, &BuildCfg::dataflow_baseline(1)).unwrap();
        run.assert_ok("qr dataflow");
    }

    #[test]
    fn batch_8_qr() {
        let w = Qr::new(12, 4);
        let run = run_workload(&w, &BuildCfg::revel(8)).unwrap();
        run.assert_ok("qr batch 8");
    }
}
