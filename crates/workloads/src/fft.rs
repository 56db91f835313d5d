//! Radix-2 decimation-in-frequency FFT on packed single-precision complex
//! data (Table III's 2-way FP subword SIMD: one 64-bit word holds one
//! complex sample).
//!
//! Each of the `log2 n` stages is an in-place sweep of `n/2` butterflies
//! `a' = a + b`, `b' = (a - b)·w`, expressed as two-level affine streams.
//! Twiddle factors are *reused through the port FSM*: in deep stages one
//! twiddle drives a whole row of blocks, so the twiddle stream shrinks from
//! `n/2` words to `half` words — the paper's observation that "even FFT
//! benefits by using inductive reuse to reduce scratchpad bandwidth".
//! Stages are separated by scratchpad barriers (the double-buffering use
//! case of `Barrier_Ld/St`), which is why small FFTs show drain overhead
//! in the cycle breakdown (Fig. 23).
//!
//! Output is in bit-reversed order, as standard for in-place DIF.

use crate::data;
use crate::reference;
use crate::suite::{BuiltKernel, MemInit, Workload};
use revel_compiler::BuildCfg;
use revel_dfg::{pack_complex, unpack_complex, Dfg, OpCode};
use revel_isa::{
    AffinePattern, ConfigId, InPortId, LaneId, LaneMask, MemTarget, OutPortId, RateFsm,
    StreamCommand, VectorCommand,
};
use std::sync::Arc;

const VEC: usize = 4;

/// The FFT workload (Table V: n ∈ {64, 128, 512, 1024}).
#[derive(Debug, Clone, Copy)]
pub struct Fft {
    /// Transform size (power of two, ≥ 8).
    pub n: usize,
    /// Data seed.
    pub seed: u64,
}

impl Fft {
    /// Creates the workload.
    ///
    /// # Panics
    /// Panics unless `n` is a power of two ≥ 8.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n.is_power_of_two() && n >= 8, "n must be a power of two >= 8");
        Fft { n, seed }
    }

    fn input(&self) -> Vec<(f32, f32)> {
        let raw = data::vector(2 * self.n, self.seed);
        (0..self.n).map(|i| (raw[2 * i] as f32, raw[2 * i + 1] as f32)).collect()
    }

    /// Host mirror of the device pipeline: classic in-place DIF in f32,
    /// bit-reversed output.
    pub fn mirror(&self) -> Vec<(f32, f32)> {
        let mut x = self.input();
        let n = self.n;
        let mut size = n;
        while size >= 2 {
            let half = size / 2;
            for blk in (0..n).step_by(size) {
                for k in 0..half {
                    let ang = -2.0 * std::f32::consts::PI * k as f32 / size as f32;
                    let (wr, wi) = (ang.cos(), ang.sin());
                    let (ar, ai) = x[blk + k];
                    let (br, bi) = x[blk + k + half];
                    x[blk + k] = (ar + br, ai + bi);
                    let (dr, di) = (ar - br, ai - bi);
                    x[blk + k + half] = (dr * wr - di * wi, dr * wi + di * wr);
                }
            }
            size /= 2;
        }
        x
    }

    /// Private layout: packed data at 0. Twiddle tables live in the shared
    /// scratchpad, one table per stage, consecutive.
    fn x_base(&self) -> i64 {
        0
    }

    fn stage_sizes(&self) -> Vec<usize> {
        let mut v = Vec::new();
        let mut size = self.n;
        while size >= 2 {
            v.push(size);
            size /= 2;
        }
        v
    }

    /// Shared-scratchpad offset of each stage's twiddle table.
    fn tw_base(&self, stage: usize) -> i64 {
        let sizes = self.stage_sizes();
        let mut off = 0i64;
        for s in &sizes[..stage] {
            off += (*s as i64) / 2;
        }
        off
    }

    fn twiddles(&self) -> Vec<f64> {
        let mut tw = Vec::new();
        for size in self.stage_sizes() {
            for k in 0..size / 2 {
                let ang = -2.0 * std::f32::consts::PI * k as f32 / size as f32;
                tw.push(pack_complex(ang.cos(), ang.sin()));
            }
        }
        tw
    }

    fn init(&self, lanes: usize) -> Vec<MemInit> {
        let packed: Vec<f64> =
            self.input().into_iter().map(|(re, im)| pack_complex(re, im)).collect();
        let mut init = vec![MemInit::Shared { addr: 0, data: self.twiddles() }];
        for l in 0..lanes {
            init.push(MemInit::Private {
                lane: l as u8,
                addr: self.x_base(),
                data: packed.clone(),
            });
        }
        init
    }

    fn check(&self, lanes: usize) -> crate::suite::CheckFn {
        let me = *self;
        let expect = self.mirror();
        Arc::new(move |machine| {
            let scale = (me.n as f32).sqrt();
            for l in 0..lanes {
                let out = machine.read_private(LaneId(l as u8), me.x_base(), me.n);
                for (i, w) in out.iter().enumerate() {
                    let (re, im) = unpack_complex(*w);
                    let (er, ei) = expect[i];
                    if (re - er).abs() > 1e-4 * scale || (im - ei).abs() > 1e-4 * scale {
                        return Err(format!("lane {l}: X[{i}] = ({re}, {im}) != ({er}, {ei})"));
                    }
                }
            }
            Ok(())
        })
    }
}

impl Workload for Fft {
    fn name(&self) -> &'static str {
        "fft"
    }

    fn params(&self) -> String {
        format!("n={}", self.n)
    }

    fn flops(&self) -> u64 {
        reference::fft_flops(self.n)
    }

    fn build(&self, cfg: &BuildCfg) -> BuiltKernel {
        let lanes_mask = LaneMask::all(cfg.num_lanes as u8);
        let unroll = cfg.inner_unroll(VEC, false);
        let n = self.n as i64;

        // Butterfly region: s = a + b -> a'; bw = (a - b)·w -> b'.
        let mut g = Dfg::new("butterfly");
        let a = g.input(InPortId(2));
        let b = g.input(InPortId(3));
        let w = g.input(InPortId(0)); // vector twiddle (w8 port at logical 4)
        let s = g.op(OpCode::CAdd, &[a, b]);
        let d = g.op(OpCode::CSub, &[a, b]);
        let bw = g.op(OpCode::CMul, &[d, w]);
        g.output(s, OutPortId(2));
        g.output(bw, OutPortId(3));
        let region = cfg.inner_region("butterfly", g, 2, unroll);

        let mut prog = revel_sim::RevelProgram::new(format!("fft-n{}", self.n));
        let config = prog.add_config(vec![region]);
        let push = |prog: &mut revel_sim::RevelProgram, cmd| {
            prog.push(VectorCommand::broadcast(lanes_mask, cmd))
        };
        push(&mut prog, StreamCommand::Configure { config: ConfigId(config) });
        let uv = unroll as i64;
        for (stage, size) in self.stage_sizes().into_iter().enumerate() {
            let size = size as i64;
            let half = size / 2;
            let blocks = n / size;
            let tw = self.tw_base(stage);
            // Loop order per stage: vectorize over blocks when possible
            // (one twiddle vector-reused across fires), else over k
            // (twiddle table streamed).
            let (a_pat, b_pat, w_pat, w_reuse) = if blocks >= uv {
                // k outer, blk inner.
                let a = AffinePattern::two_d(self.x_base(), size, 1, blocks, half, 0);
                let b = AffinePattern::two_d(self.x_base() + half, size, 1, blocks, half, 0);
                // One replicated twiddle row per k, vector-reused for all
                // fires of that k.
                let w = AffinePattern::two_d(tw, 0, 1, uv, half, 0);
                let reuse = RateFsm::fixed((blocks + uv - 1) / uv);
                (a, b, w, reuse)
            } else {
                // blk outer, k inner.
                let a = AffinePattern::two_d(self.x_base(), 1, size, half, blocks, 0);
                let b = AffinePattern::two_d(self.x_base() + half, 1, size, half, blocks, 0);
                let w = AffinePattern::two_d(tw, 1, 0, half, blocks, 0);
                (a, b, w, RateFsm::ONCE)
            };
            // Loads precede the in-place stores in program order so the
            // store→load scratchpad guard only orders across stages.
            push(
                &mut prog,
                StreamCommand::load(MemTarget::Private, a_pat, InPortId(2), RateFsm::ONCE),
            );
            push(
                &mut prog,
                StreamCommand::load(MemTarget::Private, b_pat, InPortId(3), RateFsm::ONCE),
            );
            push(&mut prog, StreamCommand::load(MemTarget::Shared, w_pat, InPortId(0), w_reuse));
            push(
                &mut prog,
                StreamCommand::store(OutPortId(2), MemTarget::Private, a_pat, RateFsm::ONCE),
            );
            push(
                &mut prog,
                StreamCommand::store(OutPortId(3), MemTarget::Private, b_pat, RateFsm::ONCE),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::run_workload;

    /// Bit-reverse permutation of `bits`-bit indices.
    fn bitrev(i: usize, bits: u32) -> usize {
        (i as u32).reverse_bits() as usize >> (32 - bits)
    }

    #[test]
    fn mirror_matches_dft_reference() {
        let w = Fft::new(64, 1);
        let mirror = w.mirror();
        // Reference f64 FFT (natural order) on the same input.
        let mut interleaved: Vec<f64> = Vec::new();
        for (re, im) in w.input() {
            interleaved.push(re as f64);
            interleaved.push(im as f64);
        }
        reference::fft(&mut interleaved);
        let bits = 6;
        for (i, &(mr, mi)) in mirror.iter().enumerate() {
            let j = bitrev(i, bits);
            assert!(
                (mr as f64 - interleaved[2 * j]).abs() < 1e-3
                    && (mi as f64 - interleaved[2 * j + 1]).abs() < 1e-3,
                "mirror[{i}] vs DFT[{j}]"
            );
        }
    }

    #[test]
    fn fft_sizes_correct_on_revel() {
        for n in [64, 128, 512, 1024] {
            let w = Fft::new(n, 2);
            let run = run_workload(&w, &BuildCfg::revel(1)).unwrap();
            run.assert_ok(&format!("fft n={n}"));
        }
    }

    #[test]
    fn fft_systolic_baseline_correct() {
        let w = Fft::new(128, 3);
        let run = run_workload(&w, &BuildCfg::systolic_baseline(1)).unwrap();
        run.assert_ok("fft systolic");
    }

    #[test]
    fn fft_dataflow_baseline_slower() {
        let w = Fft::new(128, 4);
        let revel = run_workload(&w, &BuildCfg::revel(1)).unwrap();
        let df = run_workload(&w, &BuildCfg::dataflow_baseline(1)).unwrap();
        revel.assert_ok("revel");
        df.assert_ok("dataflow");
        assert!(df.cycles > revel.cycles);
    }

    #[test]
    fn fft_batch_8_lanes() {
        let w = Fft::new(128, 5);
        let run = run_workload(&w, &BuildCfg::revel(8)).unwrap();
        run.assert_ok("fft batch 8");
    }

    #[test]
    fn small_fft_shows_barrier_overhead() {
        use revel_sim::CycleClass;
        let w = Fft::new(64, 6);
        let run = run_workload(&w, &BuildCfg::revel(1)).unwrap();
        run.assert_ok("fft 64");
        let b = run.report.total_breakdown();
        assert!(
            b.count(CycleClass::ScrBarrier) + b.count(CycleClass::Drain) > 0,
            "per-stage barriers must show up in the breakdown"
        );
    }
}
