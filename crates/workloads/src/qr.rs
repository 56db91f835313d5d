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
//! With a temporal fabric the per-`k` step is described once, as a
//! [`LoopNest`], and `revel_compiler` lowers it. On the systolic baseline,
//! point and scale run on the control core with a `Wait` before each
//! (fabric results must land in scratchpad first) — the fine-grain
//! serialization of Fig. 8; that build is still written by hand.

use crate::data;
use crate::reference;
use crate::suite::{BuiltKernel, Dataset, MemInit, Workload};
use revel_compiler::{
    BuildCfg, Datapath, Ind, LoopNest, Operand, Pattern, Rate, Stream, HOST_FP_OP_CYCLES,
    HOST_LOOP_CYCLES,
};
use revel_dfg::{Dfg, OpCode};
use revel_isa::{
    AffinePattern, ConfigId, InPortId, LaneId, LaneMask, LaneScale, MemTarget, OutPortId, RateFsm,
    StreamCommand, VectorCommand,
};
use std::sync::Arc;

/// Each lane's slice of the shared scratchpad, `SCRATCH_STRIDE` words
/// apart: `[tail, v0, beta, -, s_j...]`, `s_j` from `SCRATCH_S`.
const SCRATCH_STRIDE: i64 = 64;
const SCRATCH_S: i64 = 4;

/// dot: `Σ v_i·col_i`. Accum reduces across vector lanes itself (it sums
/// the valid lanes of its input every fire) and emits the scalar dot.
fn dot() -> Datapath {
    let mut dot = Dfg::new("dot");
    let v = dot.input(InPortId(2));
    let col = dot.input(InPortId(3));
    let prod = dot.op(OpCode::Mul, &[v, col]);
    let acc = dot.accum(prod, RateFsm::ONCE);
    dot.output(acc, OutPortId(2));
    Datapath { dfg: dot, deps: 2, vector: Some(4) }
}

/// update: `col -= s·v`.
fn update() -> Datapath {
    let mut upd = Dfg::new("update");
    let v = upd.input(InPortId(0));
    let col = upd.input(InPortId(1));
    let s = upd.input_scalar(InPortId(5));
    let prod = upd.op(OpCode::Mul, &[s, v]);
    let out = upd.op(OpCode::Sub, &[col, prod]);
    upd.output(out, OutPortId(1));
    Datapath { dfg: upd, deps: 2, vector: Some(4) }
}

/// point: alpha, v0, beta from (tail, x0).
fn point() -> Datapath {
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
    Datapath { dfg: point, deps: 1, vector: None }
}

/// scale: `s_j = beta * (d_j + v0 * akj)`.
fn scale() -> Datapath {
    let mut scale = Dfg::new("scale");
    let d = scale.input(InPortId(8));
    let akj = scale.input(InPortId(9));
    let v0_in = scale.input(InPortId(10));
    let beta_in = scale.input(InPortId(11));
    let t = scale.op(OpCode::Mul, &[v0_in, akj]);
    let u = scale.op(OpCode::Add, &[d, t]);
    let s = scale.op(OpCode::Mul, &[beta_in, u]);
    scale.output(s, OutPortId(10));
    Datapath { dfg: scale, deps: 2, vector: None }
}

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

    /// Each lane's `A` at 0 in its private scratchpad, where a nest places
    /// its carried matrix.
    fn init(&self, lanes: usize) -> Vec<MemInit> {
        (0..lanes)
            .map(|l| MemInit::Private { lane: l as u8, addr: 0, data: self.a_col_major(l as u64) })
            .collect()
    }

    fn check(&self, lanes: usize) -> crate::suite::CheckFn {
        let me = *self;
        Arc::new(move |machine| {
            let n = me.n;
            for l in 0..lanes {
                let (_, r_ref) = reference::qr(&me.a_row_major(l as u64), n);
                let a = machine.read_private(LaneId(l as u8), 0, n * n);
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

    /// The per-`k` step (column-major `A`, the carried matrix): `trips =
    /// n − 1`, the trailing block `trail = n − k − 1` wide. `s_j` drains to
    /// each lane's slice of the shared scratchpad.
    fn nest(&self) -> LoopNest {
        use Operand::{Carried, Scratch};
        let n = self.n as i64;
        let diag = Pattern::linear(Ind::new(0, n + 1), Ind::konst(1)); // A[k,k]
        let col_tail = Ind::new(1, n + 1); // A[k+1.., k]
        let trail = Ind::new(n - 1, -1);
        let one = Ind::konst(1);
        let v = Pattern::linear(col_tail, trail);
        // The v tail re-read once per trailing column; the trailing columns.
        let v_per_col = Pattern::two_d(col_tail, 1, 0, trail, trail);
        let cols = Pattern::two_d(Ind::new(n + 1, n + 1), 1, n, trail, trail);
        let row_k = Pattern::strided(Ind::new(n, n + 1), n, trail); // A[k, j] for j > k
        let s = Pattern::linear(Ind::konst(SCRATCH_S), trail);
        let scratch = Scratch(SCRATCH_STRIDE);
        LoopNest {
            kernel: "qr",
            n,
            trips: n - 1,
            datapaths: vec![dot(), update(), point(), scale()],
            streams: vec![
                // The dot accumulator emits once per column as the tail shrinks.
                Stream::AccumLen(0, trail),
                // Tail norm: dot(v tail, v tail) -> point.
                Stream::Load(Carried, v, InPortId(2), Rate::ONCE),
                Stream::Load(Carried, v, InPortId(3), Rate::ONCE),
                Stream::Xfer(OutPortId(2), InPortId(7), one, Rate::ONCE),
                // x0 -> point; alpha -> A[k,k].
                Stream::Load(Carried, diag, InPortId(6), Rate::ONCE),
                Stream::Store(OutPortId(6), Carried, diag),
                // v0, beta -> scale (one value, reused per trailing column).
                Stream::Xfer(OutPortId(7), InPortId(10), one, Rate::fixed(trail)),
                Stream::Xfer(OutPortId(8), InPortId(11), one, Rate::fixed(trail)),
                // akj scalars -> scale.
                Stream::Load(Carried, row_k, InPortId(9), Rate::ONCE),
                // Column dots -> scale.
                Stream::Xfer(OutPortId(2), InPortId(8), trail, Rate::ONCE),
                Stream::Load(Carried, v_per_col, InPortId(2), Rate::ONCE),
                Stream::Load(Carried, cols, InPortId(3), Rate::ONCE),
                // s_j values drain to scratch as one-element rows (the
                // store→load row guard then releases each s_j to its
                // consumers the cycle after it is written, preserving
                // pipelining). This keeps the drain path resident in the
                // stream table ahead of the bandwidth-hungry update streams.
                Stream::Store(OutPortId(10), scratch, s),
                // s_j -> update (broadcast, one column's worth of reuse each).
                Stream::Load(scratch, s, InPortId(5), Rate::fixed(trail)),
                // Update streams: v tail re-read; trailing columns in place.
                Stream::Load(Carried, v_per_col, InPortId(0), Rate::ONCE),
                Stream::Load(Carried, cols, InPortId(1), Rate::ONCE),
                Stream::Store(OutPortId(1), Carried, cols),
                // Row-k pass: same datapath, s as the vector operand and v0
                // as the broadcast: A[k,j] -= v0 * s_j.
                Stream::Load(scratch, s, InPortId(0), Rate::ONCE),
                Stream::Load(Carried, row_k, InPortId(1), Rate::ONCE),
                Stream::Xfer(OutPortId(11), InPortId(5), one, Rate::fixed(trail)),
                Stream::Store(OutPortId(1), Carried, row_k),
            ],
            pipelined: false,
            update: Some(cols),
        }
    }

    /// Systolic build: point and scale on the control core.
    fn build_host_outer(&self, cfg: &BuildCfg) -> revel_sim::RevelProgram {
        let n = self.n as i64;
        let unroll = cfg.inner_unroll(4, true);
        let lanes = LaneMask::all(cfg.num_lanes as u8);
        let num_lanes = cfg.num_lanes;
        let regions = vec![dot().region(cfg), update().region(cfg)];

        let mut prog = revel_sim::RevelProgram::new(format!("qr-sys-n{}", self.n));
        let config = prog.add_config(regions);
        let push = |prog: &mut revel_sim::RevelProgram, cmd| {
            prog.push(VectorCommand::broadcast(lanes, cmd))
        };
        push(&mut prog, StreamCommand::Configure { config: ConfigId(config) });
        for k in 0..n - 1 {
            let trail = n - k - 1;
            let diag = k * (n + 1);
            let col_tail = diag + 1;
            let fires = (trail + unroll as i64 - 1) / (unroll as i64);
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
                LaneScale::addr(SCRATCH_STRIDE),
                StreamCommand::store(
                    OutPortId(2),
                    MemTarget::Shared,
                    AffinePattern::scalar(0),
                    RateFsm::ONCE,
                ),
            ));
            push(&mut prog, StreamCommand::Wait);
            // Host: alpha, v0, beta; alpha written straight into A[k,k].
            prog.push_host(6 * HOST_FP_OP_CYCLES + HOST_LOOP_CYCLES, move |mem| {
                for l in 0..num_lanes as u8 {
                    let sc = SCRATCH_STRIDE * l as i64;
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
                LaneScale::addr(SCRATCH_STRIDE),
                StreamCommand::store(
                    OutPortId(2),
                    MemTarget::Shared,
                    AffinePattern::linear(SCRATCH_S, trail),
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
                        let sc = SCRATCH_STRIDE * l as i64;
                        let v0 = mem.read(None, sc + 1);
                        let beta = mem.read(None, sc + 2);
                        for idx in 0..trail {
                            let akj = mem.read(Some(l), diag + n * (idx + 1));
                            let d = mem.read(None, sc + SCRATCH_S + idx);
                            let s = beta * (d + v0 * akj);
                            mem.write(None, sc + SCRATCH_S + idx, s);
                            mem.write(Some(l), diag + n * (idx + 1), akj - s * v0);
                        }
                    }
                },
            );
            // Update on fabric: s from scratch (broadcast per column).
            prog.push(VectorCommand::scaled(
                lanes,
                LaneScale::addr(SCRATCH_STRIDE),
                StreamCommand::load(
                    MemTarget::Shared,
                    AffinePattern::linear(SCRATCH_S, trail),
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
        prog
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
        let program = if cfg.outer_on_fabric() {
            self.nest().lower(cfg).program
        } else {
            self.build_host_outer(cfg)
        };
        BuiltKernel::new(program, self.dataset(cfg))
    }

    fn dataset(&self, cfg: &BuildCfg) -> Dataset {
        Dataset { init: self.init(cfg.num_lanes), check: self.check(cfg.num_lanes) }
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
    fn the_update_is_the_trailing_columns_not_alpha() {
        // Three streams store to `A`: alpha to A[k,k] (first), the trailing
        // columns, and row k. The trailing columns are the update.
        let n = 12;
        let trail = Ind::new(n - 1, -1);
        let cols = Pattern::two_d(Ind::new(n + 1, n + 1), 1, n, trail, trail);
        assert_eq!(Qr::new(n as usize, 1).nest().update(), (OutPortId(1), cols));
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
