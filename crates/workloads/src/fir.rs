//! Centro-symmetric FIR filter (§II-A, [16]): a regular streaming kernel.
//!
//! The symmetric filter is folded into pairs,
//! `y[i] = Σ_t c'[t]·(x[i+t] + x[i+m-1-t])`, halving the multiplies. The
//! fabric region computes four outputs at once: two overlapping signal
//! windows stream in, the folded coefficient is broadcast (one scalar per
//! tap), and a per-lane vector accumulator emits a `y` tile every
//! `pairs` fires. Output tiles are partitioned across lanes; every lane
//! receives the identical broadcast command stream over its own signal
//! segment.

use crate::data;
use crate::reference;
use crate::suite::{BuiltKernel, Dataset, MemInit, Workload};
use revel_compiler::BuildCfg;
use revel_dfg::{Dfg, OpCode};
use revel_isa::{
    AffinePattern, ConfigId, InPortId, LaneId, LaneMask, MemTarget, OutPortId, RateFsm,
    StreamCommand, VectorCommand,
};
use std::sync::Arc;

const TILE: usize = 4;

/// The centro-symmetric FIR workload (Table V: m ∈ {37, 199}, 1024-sample
/// output).
#[derive(Debug, Clone, Copy)]
pub struct CentroFir {
    /// Filter taps (odd, centro-symmetric).
    pub taps: usize,
    /// Output samples (must divide evenly into 4-wide tiles per lane).
    pub n_out: usize,
    /// Data seed.
    pub seed: u64,
}

impl CentroFir {
    /// Creates the workload.
    ///
    /// # Panics
    /// Panics if `n_out` is not a multiple of 4.
    pub fn new(taps: usize, n_out: usize, seed: u64) -> Self {
        assert!(n_out.is_multiple_of(TILE), "n_out must be a multiple of {TILE}");
        CentroFir { taps, n_out, seed }
    }

    fn signal(&self) -> Vec<f64> {
        data::vector(self.n_out + self.taps - 1, self.seed)
    }

    fn filter(&self) -> Vec<f64> {
        data::symmetric_filter(self.taps, self.seed + 1)
    }

    fn pairs(&self) -> usize {
        self.taps.div_ceil(2)
    }

    fn out_per_lane(&self, lanes: usize) -> usize {
        assert!(self.n_out.is_multiple_of(lanes * TILE), "output must tile evenly across lanes");
        self.n_out / lanes
    }

    /// Private layout: lane's signal segment at 0; folded filter after it;
    /// y tile output after that.
    fn x_base(&self) -> i64 {
        0
    }

    fn seg_words(&self, lanes: usize) -> usize {
        self.out_per_lane(lanes) + self.taps - 1
    }

    fn c_base(&self, lanes: usize) -> i64 {
        self.seg_words(lanes) as i64
    }

    fn y_base(&self, lanes: usize) -> i64 {
        self.c_base(lanes) + self.pairs() as i64
    }

    fn init(&self, x: &[f64], c: &[f64], lanes: usize) -> Vec<MemInit> {
        let cp = reference::centro_pairs(c);
        let opl = self.out_per_lane(lanes);
        let mut init = Vec::new();
        for l in 0..lanes {
            let start = l * opl;
            let seg = x[start..start + self.seg_words(lanes)].to_vec();
            init.push(MemInit::Private { lane: l as u8, addr: self.x_base(), data: seg });
            init.push(MemInit::Private {
                lane: l as u8,
                addr: self.c_base(lanes),
                data: cp.clone(),
            });
        }
        init
    }

    fn check(&self, expect: Vec<f64>, lanes: usize) -> crate::suite::CheckFn {
        let me = *self;
        Arc::new(move |machine| {
            let opl = me.out_per_lane(lanes);
            for l in 0..lanes {
                let y = machine.read_private(LaneId(l as u8), me.y_base(lanes), opl);
                for i in 0..opl {
                    let want = expect[l * opl + i];
                    if (y[i] - want).abs() > 1e-8 {
                        return Err(format!("lane {l}: y[{i}] = {} != {want}", y[i]));
                    }
                }
            }
            Ok(())
        })
    }
}

impl Workload for CentroFir {
    fn name(&self) -> &'static str {
        "fir"
    }

    fn params(&self) -> String {
        format!("m={} n={}", self.taps, self.n_out)
    }

    fn flops(&self) -> u64 {
        reference::fir_flops(self.n_out, self.taps)
    }

    fn build(&self, cfg: &BuildCfg) -> BuiltKernel {
        let lanes_mask = LaneMask::all(cfg.num_lanes as u8);
        let unroll = cfg.inner_unroll(TILE, false);
        let pairs = self.pairs() as i64;
        let m = self.taps as i64;

        // Region: y[0..4] += c_t * (x[i+t, ..+4] + x[i+m-1-t, ..+4]).
        let mut g = Dfg::new("fir");
        let ct = g.input_scalar(InPortId(6));
        let x1 = g.input(InPortId(2));
        let x2 = g.input(InPortId(3));
        let sum = g.op(OpCode::Add, &[x1, x2]);
        let prod = g.op(OpCode::Mul, &[ct, sum]);
        let acc = g.accum_vec(prod, RateFsm::fixed(pairs));
        g.output(acc, OutPortId(2));
        let region = cfg.inner_region("fir", g, 1, unroll);

        let mut prog = revel_sim::RevelProgram::new(format!("fir-{}", self.params()));
        let config = prog.add_config(vec![region]);
        let push = |prog: &mut revel_sim::RevelProgram, cmd| {
            prog.push(VectorCommand::broadcast(lanes_mask, cmd))
        };
        push(&mut prog, StreamCommand::Configure { config: ConfigId(config) });
        let opl = self.out_per_lane(cfg.num_lanes) as i64;
        let tiles = opl / TILE as i64;
        for tile in 0..tiles {
            let i0 = tile * TILE as i64;
            // Forward window x[i0+t .. i0+t+4] per tap t.
            push(
                &mut prog,
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::two_d(self.x_base() + i0, 1, 1, TILE as i64, pairs, 0),
                    InPortId(2),
                    RateFsm::ONCE,
                ),
            );
            // Mirrored window x[i0+m-1-t .. +4] per tap t (stride_j = -1).
            push(
                &mut prog,
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::two_d(self.x_base() + i0 + m - 1, 1, -1, TILE as i64, pairs, 0),
                    InPortId(3),
                    RateFsm::ONCE,
                ),
            );
            // Folded coefficients, one per fire.
            push(
                &mut prog,
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::linear(self.c_base(cfg.num_lanes), pairs),
                    InPortId(6),
                    RateFsm::ONCE,
                ),
            );
            // One y tile out.
            push(
                &mut prog,
                StreamCommand::store(
                    OutPortId(2),
                    MemTarget::Private,
                    AffinePattern::linear(self.y_base(cfg.num_lanes) + i0, TILE as i64),
                    RateFsm::ONCE,
                ),
            );
        }
        push(&mut prog, StreamCommand::Wait);

        BuiltKernel::new(prog, self.dataset(cfg))
    }

    fn dataset(&self, cfg: &BuildCfg) -> Dataset {
        let (x, c) = (self.signal(), self.filter());
        let expect = reference::centro_fir(&x, &c, self.n_out);
        Dataset { init: self.init(&x, &c, cfg.num_lanes), check: self.check(expect, cfg.num_lanes) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::run_workload;

    #[test]
    fn fir_small_filter_single_lane() {
        let w = CentroFir::new(37, 64, 1);
        let run = run_workload(&w, &BuildCfg::revel(1)).unwrap();
        run.assert_ok("fir m=37 n=64");
    }

    #[test]
    fn fir_large_filter_eight_lanes() {
        let w = CentroFir::new(199, 1024, 2);
        let run = run_workload(&w, &BuildCfg::revel(8)).unwrap();
        run.assert_ok("fir m=199 n=1024 x8");
    }

    #[test]
    fn fir_even_taps_supported() {
        let w = CentroFir::new(8, 32, 3);
        let run = run_workload(&w, &BuildCfg::revel(1)).unwrap();
        run.assert_ok("fir m=8");
    }

    #[test]
    fn fir_systolic_baseline_competitive() {
        let w = CentroFir::new(37, 128, 4);
        let revel = run_workload(&w, &BuildCfg::revel(1)).unwrap();
        let sys = run_workload(&w, &BuildCfg::systolic_baseline(1)).unwrap();
        revel.assert_ok("revel");
        sys.assert_ok("systolic");
        let ratio = sys.cycles as f64 / revel.cycles as f64;
        assert!(ratio < 1.5, "regular kernel: systolic near REVEL, got {ratio:.2}x");
    }

    #[test]
    fn fir_dataflow_baseline_slower() {
        let w = CentroFir::new(37, 128, 5);
        let revel = run_workload(&w, &BuildCfg::revel(1)).unwrap();
        let df = run_workload(&w, &BuildCfg::dataflow_baseline(1)).unwrap();
        df.assert_ok("dataflow");
        assert!(df.cycles > revel.cycles);
    }

    #[test]
    fn fir_lane_scaling() {
        // 256 outputs so the single-lane segment fits the 1024-word spad.
        let w = CentroFir::new(37, 256, 6);
        let one = run_workload(&w, &BuildCfg::revel(1)).unwrap();
        let eight = run_workload(&w, &BuildCfg::revel(8)).unwrap();
        one.assert_ok("1 lane");
        eight.assert_ok("8 lanes");
        let speedup = one.cycles as f64 / eight.cycles as f64;
        assert!(speedup > 4.0, "expected >4x on 8 lanes, got {speedup:.2}");
    }
}
