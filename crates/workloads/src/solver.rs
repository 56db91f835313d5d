//! Triangular linear solver — the paper's running inductive example
//! (Fig. 2/11/15).
//!
//! * **Hybrid builds** (REVEL, dataflow baseline): a vectorized systolic
//!   inner region updates the `b` vector while a temporal divider computes
//!   pivots; pivots flow through a keep-first inductive XFER, the updated
//!   tail recirculates through a drop-first XFER, and the broadcast pivot
//!   is reused `n-1-j` elements per iteration.
//! * **Systolic builds** (no temporal fabric): the divide runs on the
//!   control core per outer iteration with a `Wait` to observe the fabric's
//!   stores (§III: outer-loop code "execute[s] on a control core") — the
//!   serialization REVEL's hybrid fabric removes.
//!
//! Memory: `A` (n×n row-major) in the shared scratchpad (so n=32 fits
//! alongside per-lane vectors); `b` and the solution `x` in each lane's
//! private scratchpad. Batch mode (`cfg.num_lanes > 1`) runs one
//! independent system per lane from a single broadcast command stream.

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

/// The triangular solver workload (Table V: n ∈ {12, 16, 24, 32}).
#[derive(Debug, Clone, Copy)]
pub struct Solver {
    /// System dimension.
    pub n: usize,
    /// Data seed.
    pub seed: u64,
}

/// Inner region: `newb = b[i] - pivot * a[j,i]`. The hybrid build consumes
/// the result twice (out 2 feeds each vector's head to the divider over an
/// XFER, out 3 stores the vector), so it asks for the `second_output`; the
/// systolic build only stores out 2.
fn inner_region(cfg: &BuildCfg, unroll: usize, second_output: bool) -> Region {
    let mut inner = Dfg::new("solver-inner");
    let pivot = inner.input_scalar(InPortId(6));
    let aji = inner.input(InPortId(2));
    let bi = inner.input(InPortId(3));
    let prod = inner.op(OpCode::Mul, &[pivot, aji]);
    let newb = inner.op(OpCode::Sub, &[bi, prod]);
    inner.output(newb, OutPortId(2));
    if second_output {
        inner.output(newb, OutPortId(3));
    }
    cfg.inner_region("inner", inner, 3, unroll)
}

impl Solver {
    /// Creates the workload.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 3, "solver needs n >= 3");
        Solver { n, seed }
    }

    fn data(&self, lane: u64) -> (Vec<f64>, Vec<f64>) {
        let a = data::triangular_system(self.n, self.seed + 31 * lane);
        let b = data::vector(self.n, self.seed + 31 * lane + 7);
        (a, b)
    }

    fn expected(&self, lane: u64) -> Vec<f64> {
        let (a, mut b) = self.data(lane);
        reference::solver(&a, self.n, &mut b);
        b
    }

    /// `b` base address in private scratchpad.
    fn b_base(&self) -> i64 {
        0
    }

    /// Solution base address in private scratchpad.
    fn x_base(&self) -> i64 {
        self.n as i64
    }

    /// Pivot scratch address (systolic build).
    fn pivot_addr(&self) -> i64 {
        2 * self.n as i64
    }

    /// Per-lane `A` base address in shared scratchpad.
    fn a_base(&self) -> i64 {
        0
    }

    fn lane_a_stride(&self) -> i64 {
        (self.n * self.n) as i64
    }

    fn init(&self, lanes: usize) -> Vec<MemInit> {
        let mut init = Vec::new();
        for l in 0..lanes {
            let (a, b) = self.data(l as u64);
            init.push(MemInit::Shared {
                addr: self.a_base() + self.lane_a_stride() * l as i64,
                data: a,
            });
            init.push(MemInit::Private { lane: l as u8, addr: self.b_base(), data: b });
        }
        init
    }

    fn check(&self, lanes: usize) -> crate::suite::CheckFn {
        let me = *self;
        Arc::new(move |machine| {
            for l in 0..lanes {
                let expect = me.expected(l as u64);
                let x = machine.read_private(LaneId(l as u8), me.x_base(), me.n);
                for i in 0..me.n {
                    if (x[i] - expect[i]).abs() > 1e-8 {
                        return Err(format!(
                            "lane {l}: x[{i}] = {} != reference {}",
                            x[i], expect[i]
                        ));
                    }
                }
            }
            Ok(())
        })
    }

    /// Hybrid build: pivots on the temporal fabric, dependences via XFER.
    fn build_hybrid(&self, cfg: &BuildCfg) -> BuiltKernel {
        let n = self.n as i64;
        let unroll = cfg.inner_unroll(4, true);
        let lanes = LaneMask::all(cfg.num_lanes as u8);
        let a_scale = LaneScale::addr(self.lane_a_stride());

        // Outer region: pivot = b_raw / a[j,j]
        let mut outer = Dfg::new("solver-outer");
        let braw = outer.input(InPortId(7));
        let diag = outer.input(InPortId(8));
        let bdiv = outer.op(OpCode::Div, &[braw, diag]);
        outer.output(bdiv, OutPortId(6));
        outer.output(bdiv, OutPortId(7));

        let regions = vec![inner_region(cfg, unroll, true), cfg.outer_region("outer", outer, 1)];

        let mut prog = revel_sim::RevelProgram::new(format!("solver-n{}", self.n));
        let config = prog.add_config(regions);
        let push = |prog: &mut revel_sim::RevelProgram, cmd| {
            prog.push(VectorCommand::broadcast(lanes, cmd))
        };
        push(&mut prog, StreamCommand::Configure { config: ConfigId(config) });
        // Diagonal a[j,j] -> divider.
        prog.push(VectorCommand::scaled(
            lanes,
            a_scale,
            StreamCommand::load(
                MemTarget::Shared,
                AffinePattern::strided(self.a_base(), n + 1, n),
                InPortId(8),
                RateFsm::ONCE,
            ),
        ));
        // Seed b[0] -> divider.
        push(
            &mut prog,
            StreamCommand::load(
                MemTarget::Private,
                AffinePattern::scalar(self.b_base()),
                InPortId(7),
                RateFsm::ONCE,
            ),
        );
        // Triangular row stream a[j, j+1:n] -> inner.
        prog.push(VectorCommand::scaled(
            lanes,
            a_scale,
            StreamCommand::load(
                MemTarget::Shared,
                AffinePattern::two_d(self.a_base() + 1, 1, n + 1, n - 1, n - 1, -1),
                InPortId(2),
                RateFsm::ONCE,
            ),
        ));
        // Initial b[1:n] -> inner.
        push(
            &mut prog,
            StreamCommand::load(
                MemTarget::Private,
                AffinePattern::linear(self.b_base() + 1, n - 1),
                InPortId(3),
                RateFsm::ONCE,
            ),
        );
        // Divided pivot: reused n-1-j elements per outer iteration.
        push(
            &mut prog,
            StreamCommand::xfer(
                OutPortId(6),
                InPortId(6),
                n - 1,
                RateFsm::ONCE,
                RateFsm::inductive(n - 1, -1),
            ),
        );
        // Head of each updated vector (raw b[j+1]) -> divider.
        push(
            &mut prog,
            StreamCommand::xfer(
                OutPortId(2),
                InPortId(7),
                n - 1,
                RateFsm::inductive(n - 1, -1),
                RateFsm::ONCE,
            ),
        );
        // The updated vector recirculates through memory, exactly as the
        // paper's Fig. 15 encodes it (StoreStream b+1 / LoadStream b+2
        // triangular pair); fine-grain store→load ordering in the
        // scratchpad stream control keeps the reload behind the store.
        // Store row j: b[j+1..n].
        push(
            &mut prog,
            StreamCommand::store(
                OutPortId(3),
                MemTarget::Private,
                AffinePattern::two_d(self.b_base() + 1, 1, 1, n - 1, n - 1, -1),
                RateFsm::ONCE,
            ),
        );
        // Reload rows j=1..: b[j+1..n] (skipping the head, which went to
        // the divider through the XFER).
        push(
            &mut prog,
            StreamCommand::load(
                MemTarget::Private,
                AffinePattern::two_d(self.b_base() + 2, 1, 1, n - 2, n - 2, -1),
                InPortId(3),
                RateFsm::ONCE,
            ),
        );
        // Solution: all n divider outputs -> x.
        push(
            &mut prog,
            StreamCommand::store(
                OutPortId(7),
                MemTarget::Private,
                AffinePattern::linear(self.x_base(), n),
                RateFsm::ONCE,
            ),
        );
        push(&mut prog, StreamCommand::Wait);

        BuiltKernel {
            program: prog,
            init: self.init(cfg.num_lanes),
            check: self.check(cfg.num_lanes),
        }
    }

    /// Systolic build: the divide runs on the control core, serialized per
    /// outer iteration; the fabric only hosts the (scalar or vector) inner
    /// update region.
    fn build_host_outer(&self, cfg: &BuildCfg) -> BuiltKernel {
        let n = self.n as i64;
        let nn = self.n;
        let unroll = cfg.inner_unroll(4, true);
        let lanes = LaneMask::all(cfg.num_lanes as u8);
        let a_scale = LaneScale::addr(self.lane_a_stride());
        let num_lanes = cfg.num_lanes;

        let mut prog = revel_sim::RevelProgram::new(format!("solver-sys-n{}", self.n));
        let config = prog.add_config(vec![inner_region(cfg, unroll, false)]);
        prog.push(VectorCommand::broadcast(
            lanes,
            StreamCommand::Configure { config: ConfigId(config) },
        ));
        let b_base = self.b_base();
        let x_base = self.x_base();
        let pivot_addr = self.pivot_addr();
        let a_base = self.a_base();
        let a_stride = self.lane_a_stride();
        for j in 0..nn as i64 - 1 {
            // Host: pivot = b[j] / a[j,j]; also the solution x[j].
            prog.push_host(HOST_FP_OP_CYCLES + HOST_LOOP_CYCLES, move |mem| {
                for l in 0..num_lanes as u8 {
                    let bj = mem.read(Some(l), b_base + j);
                    let ajj = mem.read(None, a_base + a_stride * l as i64 + j * (n + 1));
                    let p = bj / ajj;
                    mem.write(Some(l), pivot_addr, p);
                    mem.write(Some(l), x_base + j, p);
                }
            });
            let len = n - 1 - j;
            prog.push(VectorCommand::broadcast(
                lanes,
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::scalar(pivot_addr),
                    InPortId(6),
                    RateFsm::fixed(len),
                ),
            ));
            prog.push(VectorCommand::scaled(
                lanes,
                a_scale,
                StreamCommand::load(
                    MemTarget::Shared,
                    AffinePattern::linear(a_base + j * (n + 1) + 1, len),
                    InPortId(2),
                    RateFsm::ONCE,
                ),
            ));
            prog.push(VectorCommand::broadcast(
                lanes,
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::linear(b_base + j + 1, len),
                    InPortId(3),
                    RateFsm::ONCE,
                ),
            ));
            prog.push(VectorCommand::broadcast(
                lanes,
                StreamCommand::store(
                    OutPortId(2),
                    MemTarget::Private,
                    AffinePattern::linear(b_base + j + 1, len),
                    RateFsm::ONCE,
                ),
            ));
            prog.push(VectorCommand::broadcast(lanes, StreamCommand::Wait));
        }
        // Final element.
        let jl = n - 1;
        prog.push_host(HOST_FP_OP_CYCLES + HOST_LOOP_CYCLES, move |mem| {
            for l in 0..num_lanes as u8 {
                let bj = mem.read(Some(l), b_base + jl);
                let ajj = mem.read(None, a_base + a_stride * l as i64 + jl * (n + 1));
                mem.write(Some(l), x_base + jl, bj / ajj);
            }
        });

        BuiltKernel {
            program: prog,
            init: self.init(cfg.num_lanes),
            check: self.check(cfg.num_lanes),
        }
    }
}

impl Workload for Solver {
    fn name(&self) -> &'static str {
        "solver"
    }

    fn params(&self) -> String {
        format!("n={}", self.n)
    }

    fn flops(&self) -> u64 {
        reference::solver_flops(self.n)
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
    use revel_compiler::AblationStep;

    #[test]
    fn revel_solver_correct_all_sizes() {
        for n in [12, 16, 24, 32] {
            let run = run_workload(&Solver::new(n, 1), &BuildCfg::revel(1)).unwrap();
            run.assert_ok(&format!("solver n={n}"));
        }
    }

    #[test]
    fn systolic_baseline_correct_and_slower() {
        // The gap grows with n (serialization cost is per-iteration).
        let w = Solver::new(32, 1);
        let revel = run_workload(&w, &BuildCfg::revel(1)).unwrap();
        let sys = run_workload(&w, &BuildCfg::systolic_baseline(1)).unwrap();
        revel.assert_ok("revel");
        sys.assert_ok("systolic");
        assert!(
            sys.cycles as f64 > 1.7 * revel.cycles as f64,
            "systolic {} should be much slower than revel {}",
            sys.cycles,
            revel.cycles
        );
    }

    #[test]
    fn dataflow_baseline_correct() {
        let w = Solver::new(12, 2);
        let run = run_workload(&w, &BuildCfg::dataflow_baseline(1)).unwrap();
        run.assert_ok("dataflow solver");
    }

    #[test]
    fn ablation_ladder_improves_for_solver() {
        // At n=32 every mechanism step helps (at small n predication's
        // vectorization overhead can offset its gain, matching §II-B's
        // observation that inductive-loop vectorization pays off only with
        // enough work).
        let w = Solver::new(32, 3);
        let cycles: Vec<u64> = AblationStep::LADDER
            .iter()
            .map(|s| {
                let run = run_workload(&w, &BuildCfg::ablation(*s, 1)).unwrap();
                run.assert_ok(s.label());
                run.cycles
            })
            .collect();
        assert!(cycles[1] <= cycles[0], "ind-streams {} vs systolic {}", cycles[1], cycles[0]);
        assert!(cycles[2] < cycles[1], "hybrid {} vs ind-streams {}", cycles[2], cycles[1]);
        assert!(cycles[3] < cycles[2], "pred {} vs hybrid {}", cycles[3], cycles[2]);
        // Recurrence-bound kernel: the gap narrows as command issue gets
        // cheaper on the baseline; require a solid but not 2x margin.
        assert!((*cycles.last().unwrap() as f64) * 1.6 < cycles[0] as f64);
    }

    #[test]
    fn batch_8_runs_one_system_per_lane() {
        let w = Solver::new(12, 4);
        let run = run_workload(&w, &BuildCfg::revel(8)).unwrap();
        run.assert_ok("solver batch8");
        // Batch throughput: 8 systems in not much more time than 1.
        let single = run_workload(&w, &BuildCfg::revel(1)).unwrap();
        assert!(run.cycles < 3 * single.cycles);
    }
}
