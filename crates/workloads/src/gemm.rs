//! Dense matrix multiply (GEMM) — the regular, non-inductive workload of
//! the suite (beamforming, §II-A). `C[m×p] = A[m×k] · B[k×p]`.
//!
//! Mapping: a vectorized MAC region computes eight columns of `C` at once —
//! `c[0..8] += a[i][t] · b[t][0..8]` — with the scalar `a` element broadcast
//! and a per-lane vector accumulator emitting a `C` row-tile every `k`
//! fires. Column tiles are partitioned across lanes; one broadcast command
//! stream drives all lanes (vector-stream amortization in space), three
//! commands per tile (time amortization).
//!
//! There is no inductive behaviour here, so the systolic baseline runs this
//! kernel as well as REVEL — exactly the paper's point that dedicated-PE
//! architectures excel on regular loops (Fig. 8) while the tagged-dataflow
//! baseline pays instruction overhead.

use crate::data;
use crate::reference;
use crate::suite::{BuiltKernel, Dataset, MemInit, Workload};
use revel_compiler::BuildCfg;
use revel_dfg::{Dfg, OpCode};
use revel_isa::{
    AffinePattern, ConfigId, InPortId, LaneMask, LaneScale, MemTarget, OutPortId, RateFsm,
    StreamCommand, VectorCommand,
};
use std::sync::Arc;

const TILE: usize = 8;

/// The GEMM workload (Table V: (12 or 48) × 16 × 64).
#[derive(Debug, Clone, Copy)]
pub struct Gemm {
    /// Rows of `A` / `C`.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Columns of `B` / `C` (must be a multiple of 8).
    pub p: usize,
    /// Data seed.
    pub seed: u64,
}

impl Gemm {
    /// Creates the workload.
    ///
    /// # Panics
    /// Panics unless `p` is a positive multiple of 8.
    pub fn new(m: usize, k: usize, p: usize, seed: u64) -> Self {
        assert!(p > 0 && p.is_multiple_of(TILE), "p must be a multiple of {TILE}");
        Gemm { m, k, p, seed }
    }

    fn a(&self) -> Vec<f64> {
        data::matrix(self.m, self.k, self.seed)
    }

    fn b(&self) -> Vec<f64> {
        data::matrix(self.k, self.p, self.seed + 1)
    }

    /// Layout: `A` and `C` in the shared scratchpad (A is broadcast-read at
    /// one word per fire per lane; C streams out on the separate write
    /// port); each lane's `B` column tiles in its private scratchpad
    /// (8 words per fire — the full private read bandwidth).
    fn a_base(&self) -> i64 {
        0
    }

    /// Private B tile base.
    fn b_base(&self) -> i64 {
        0
    }

    /// Shared C base (per-lane slices follow).
    fn c_base(&self) -> i64 {
        (self.m * self.k) as i64
    }

    fn tiles_per_lane(&self, lanes: usize) -> usize {
        let total = self.p / TILE;
        assert!(
            total.is_multiple_of(lanes),
            "column tiles ({total}) must divide evenly across {lanes} lanes"
        );
        total / lanes
    }

    fn c_lane_words(&self, lanes: usize) -> i64 {
        (self.m * TILE * self.tiles_per_lane(lanes)) as i64
    }

    fn init(&self, a: Vec<f64>, b: &[f64], lanes: usize) -> Vec<MemInit> {
        let tpl = self.tiles_per_lane(lanes);
        let mut init = vec![MemInit::Shared { addr: self.a_base(), data: a }];
        for l in 0..lanes {
            // This lane's B column tiles, tile-major, rows contiguous.
            let mut tiles = Vec::with_capacity(self.k * TILE * tpl);
            for t in 0..tpl {
                let col0 = (l * tpl + t) * TILE;
                for row in 0..self.k {
                    for c in 0..TILE {
                        tiles.push(b[row * self.p + col0 + c]);
                    }
                }
            }
            init.push(MemInit::Private { lane: l as u8, addr: self.b_base(), data: tiles });
        }
        init
    }

    fn check(&self, expect: Vec<f64>, lanes: usize) -> crate::suite::CheckFn {
        let me = *self;
        Arc::new(move |machine| {
            let tpl = me.tiles_per_lane(lanes);
            for l in 0..lanes {
                let c = machine.read_shared(
                    me.c_base() + me.c_lane_words(lanes) * l as i64,
                    me.m * TILE * tpl,
                );
                for t in 0..tpl {
                    let col0 = (l * tpl + t) * TILE;
                    for i in 0..me.m {
                        for j in 0..TILE {
                            let got = c[t * me.m * TILE + i * TILE + j];
                            let want = expect[i * me.p + col0 + j];
                            if (got - want).abs() > 1e-8 {
                                return Err(format!(
                                    "lane {l} tile {t}: C[{i},{}] = {got} != {want}",
                                    col0 + j
                                ));
                            }
                        }
                    }
                }
            }
            Ok(())
        })
    }
}

impl Workload for Gemm {
    fn name(&self) -> &'static str {
        "gemm"
    }

    fn params(&self) -> String {
        format!("{}x{}x{}", self.m, self.k, self.p)
    }

    fn flops(&self) -> u64 {
        reference::gemm_flops(self.m, self.k, self.p)
    }

    fn build(&self, cfg: &BuildCfg) -> BuiltKernel {
        let lanes_mask = LaneMask::all(cfg.num_lanes as u8);
        let unroll = cfg.inner_unroll(TILE, false);
        let tpl = self.tiles_per_lane(cfg.num_lanes);
        let (m, k) = (self.m as i64, self.k as i64);

        // MAC region: c[0..8] += a_scalar * b_vec, emit every k fires.
        let mut g = Dfg::new("gemm-mac");
        let a_s = g.input_scalar(InPortId(6));
        let b_v = g.input(InPortId(0));
        let prod = g.op(OpCode::Mul, &[a_s, b_v]);
        let acc = g.accum_vec(prod, RateFsm::fixed(k));
        g.output(acc, OutPortId(0));
        let region = cfg.inner_region("mac", g, 2, unroll);

        let mut prog = revel_sim::RevelProgram::new(format!("gemm-{}", self.params()));
        let config = prog.add_config(vec![region]);
        let push = |prog: &mut revel_sim::RevelProgram, cmd| {
            prog.push(VectorCommand::broadcast(lanes_mask, cmd))
        };
        push(&mut prog, StreamCommand::Configure { config: ConfigId(config) });
        let tile_words = (self.k * TILE) as i64;
        let c_scale = LaneScale::addr(self.c_lane_words(cfg.num_lanes));
        for t in 0..tpl as i64 {
            // All of A, row by row (each element scalar-broadcast once).
            push(
                &mut prog,
                StreamCommand::load(
                    MemTarget::Shared,
                    AffinePattern::two_d(self.a_base(), 1, k, k, m, 0),
                    InPortId(6),
                    RateFsm::ONCE,
                ),
            );
            // This tile of B, repeated for every row of A (stride_j = 0).
            push(
                &mut prog,
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::two_d(self.b_base() + t * tile_words, 1, 0, tile_words, m, 0),
                    InPortId(0),
                    RateFsm::ONCE,
                ),
            );
            // C row-tiles stream out, m emissions of 8 words.
            prog.push(VectorCommand::scaled(
                lanes_mask,
                c_scale,
                StreamCommand::store(
                    OutPortId(0),
                    MemTarget::Shared,
                    AffinePattern::linear(self.c_base() + t * m * TILE as i64, m * TILE as i64),
                    RateFsm::ONCE,
                ),
            ));
        }
        push(&mut prog, StreamCommand::Wait);

        BuiltKernel::new(prog, self.dataset(cfg))
    }

    fn dataset(&self, cfg: &BuildCfg) -> Dataset {
        let (a, b) = (self.a(), self.b());
        let expect = reference::gemm(&a, &b, self.m, self.k, self.p);
        Dataset { init: self.init(a, &b, cfg.num_lanes), check: self.check(expect, cfg.num_lanes) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::run_workload;

    #[test]
    fn revel_gemm_single_lane_correct() {
        let w = Gemm::new(12, 16, 16, 1);
        let run = run_workload(&w, &BuildCfg::revel(1)).unwrap();
        run.assert_ok("gemm 12x16x16");
    }

    #[test]
    fn revel_gemm_eight_lanes_correct() {
        let w = Gemm::new(12, 16, 64, 2);
        let run = run_workload(&w, &BuildCfg::revel(8)).unwrap();
        run.assert_ok("gemm 12x16x64 x8");
    }

    #[test]
    fn gemm_large_row_count() {
        let w = Gemm::new(48, 16, 64, 3);
        let run = run_workload(&w, &BuildCfg::revel(8)).unwrap();
        run.assert_ok("gemm 48x16x64");
    }

    #[test]
    fn systolic_baseline_matches_revel_performance_class() {
        // GEMM is regular: the systolic baseline should be competitive.
        let w = Gemm::new(12, 16, 16, 4);
        let revel = run_workload(&w, &BuildCfg::revel(1)).unwrap();
        let sys = run_workload(&w, &BuildCfg::systolic_baseline(1)).unwrap();
        revel.assert_ok("revel");
        sys.assert_ok("systolic");
        let ratio = sys.cycles as f64 / revel.cycles as f64;
        assert!(ratio < 1.5, "systolic GEMM should be near REVEL, got {ratio:.2}x");
    }

    #[test]
    fn dataflow_baseline_correct_but_slower() {
        let w = Gemm::new(12, 16, 16, 5);
        let revel = run_workload(&w, &BuildCfg::revel(1)).unwrap();
        let df = run_workload(&w, &BuildCfg::dataflow_baseline(1)).unwrap();
        revel.assert_ok("revel");
        df.assert_ok("dataflow");
        assert!(
            df.cycles > revel.cycles,
            "tagged dataflow pays instruction overhead: {} vs {}",
            df.cycles,
            revel.cycles
        );
    }

    #[test]
    fn eight_lanes_speed_up_gemm() {
        let w = Gemm::new(48, 16, 64, 6);
        let one = run_workload(&w, &BuildCfg::revel(1)).unwrap();
        let eight = run_workload(&w, &BuildCfg::revel(8)).unwrap();
        one.assert_ok("1 lane");
        eight.assert_ok("8 lanes");
        let speedup = one.cycles as f64 / eight.cycles as f64;
        assert!(speedup > 4.0, "8 lanes should give >4x, got {speedup:.2}x");
    }
}
