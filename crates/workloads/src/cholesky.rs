//! Cholesky decomposition — the paper's flagship inductive workload
//! (Fig. 5 / Fig. 17). Per outer iteration `k`, three concurrent regions:
//!
//! * **point** (temporal): `ia = 1/a[k,k]`, `is = 1/√a[k,k]`;
//! * **scale** (temporal): `s_j = a[k,j]·ia` per trailing column;
//! * **vector** (systolic): `l[j,k] = a[k,j]·is` — the `L` column;
//! * **matrix** (systolic, vectorized): `a[j,i] -= s_j·a[k,i]` over the
//!   shrinking triangular trailing submatrix.
//!
//! The control program is the paper's per-`k` command loop (Fig. 17(c)):
//! one inductive 2-D stream covers each triangular operand, `ia`/`is`/`s_j`
//! flow through XFER dependence streams with inductive reuse, and a
//! scratchpad barrier separates iterations.
//!
//! On the systolic baseline the point computation runs on the control core
//! and `s_j` folds back into a scalar matrix region (no temporal fabric);
//! without inductive streams the trailing update is issued as one command
//! group per row, written out by hand in `build_host_outer`.

use crate::data;
use crate::reference;
use crate::suite::{BuiltKernel, MemInit, Workload};
use revel_compiler::{Arch, BuildCfg, HOST_FP_OP_CYCLES, HOST_LOOP_CYCLES};
use revel_dfg::{Dfg, OpCode, Region};
use revel_isa::{
    AffinePattern, ConfigId, InPortId, LaneMask, LaneScale, MemTarget, OutPortId, RateFsm,
    StreamCommand, VectorCommand,
};
use std::sync::Arc;

/// The Cholesky workload (Table V: n ∈ {12, 16, 24, 32}).
#[derive(Debug, Clone, Copy)]
pub struct Cholesky {
    /// Matrix dimension.
    pub n: usize,
    /// Data seed.
    pub seed: u64,
    /// Pipeline outer iterations across the lanes of one problem
    /// (Fig. 17's ring of `Xfer Right` dependences) instead of running one
    /// independent problem per lane.
    pub parallel: bool,
}

/// point: `ia = 1/akk`, `is = rsqrt(akk)`.
fn point_region(cfg: &BuildCfg) -> Region {
    let mut point = Dfg::new("point");
    let akk = point.input(InPortId(6));
    let ia = point.op(OpCode::Recip, &[akk]);
    let is = point.op(OpCode::Rsqrt, &[akk]);
    point.output(ia, OutPortId(6));
    point.output(is, OutPortId(7));
    cfg.outer_region("point", point, 1)
}

/// scale: `s_j = akj * ia`.
fn scale_region(cfg: &BuildCfg) -> Region {
    let mut scale = Dfg::new("scale");
    let akj = scale.input(InPortId(7));
    let ia_in = scale.input(InPortId(8));
    let sj = scale.op(OpCode::Mul, &[akj, ia_in]);
    scale.output(sj, OutPortId(8));
    cfg.outer_region("scale", scale, 1)
}

/// vector: `l[j,k] = a[k,j] * is`.
fn vector_region(cfg: &BuildCfg, unroll: usize) -> Region {
    let mut vector = Dfg::new("vector");
    let arow = vector.input(InPortId(0));
    let is_in = vector.input_scalar(InPortId(4));
    let lcol = vector.op(OpCode::Mul, &[arow, is_in]);
    vector.output(lcol, OutPortId(0));
    cfg.inner_region("vector", vector, 1, unroll)
}

/// matrix: `a[j,i] -= s_j * a[k,i]`. With `fold_scale` there is no scale
/// region upstream: port 5 carries `akj` and the region multiplies it by
/// `ia` (port 8) itself.
fn matrix_region(cfg: &BuildCfg, unroll: usize, fold_scale: bool) -> Region {
    let mut matrix = Dfg::new("matrix");
    let mut sj = matrix.input_scalar(InPortId(5));
    let ia_in = fold_scale.then(|| matrix.input_scalar(InPortId(8)));
    let aki = matrix.input(InPortId(2));
    let aji = matrix.input(InPortId(3));
    if let Some(ia_in) = ia_in {
        sj = matrix.op(OpCode::Mul, &[sj, ia_in]);
    }
    let prod = matrix.op(OpCode::Mul, &[sj, aki]);
    let upd = matrix.op(OpCode::Sub, &[aji, prod]);
    matrix.output(upd, OutPortId(1));
    cfg.inner_region("matrix", matrix, 2, unroll)
}

impl Cholesky {
    /// Creates the workload (batch semantics: one problem per lane when
    /// the build uses several lanes).
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 4, "cholesky needs n >= 4");
        Cholesky { n, seed, parallel: false }
    }

    /// Creates the lane-pipelined variant: outer iterations rotate around
    /// the lane ring, the trailing matrix streaming lane-to-lane.
    pub fn parallel(n: usize, seed: u64) -> Self {
        assert!(n >= 4, "cholesky needs n >= 4");
        Cholesky { n, seed, parallel: true }
    }

    fn a(&self, lane: u64) -> Vec<f64> {
        data::spd_matrix(self.n, self.seed + 13 * lane)
    }

    /// Working matrix `A` in private scratchpad at 0 (updated in place).
    fn a_base(&self) -> i64 {
        0
    }

    /// `L` output in the shared scratchpad, one slice per lane.
    fn l_base(&self) -> i64 {
        0
    }

    fn l_lane_stride(&self) -> i64 {
        (self.n * self.n) as i64
    }

    fn host_scratch_shared(&self, lanes: usize) -> i64 {
        self.l_lane_stride() * lanes as i64
    }

    fn init(&self, lanes: usize) -> Vec<MemInit> {
        (0..lanes)
            .map(|l| MemInit::Private {
                lane: l as u8,
                addr: self.a_base(),
                data: self.a(l as u64),
            })
            .collect()
    }

    fn check(&self, lanes: usize) -> crate::suite::CheckFn {
        let me = *self;
        Arc::new(move |machine| {
            let n = me.n;
            for l in 0..lanes {
                let expect = reference::cholesky(&me.a(l as u64), n);
                let got = machine.read_shared(me.l_base() + me.l_lane_stride() * l as i64, n * n);
                for j in 0..n {
                    for i in 0..=j {
                        let g = got[j * n + i];
                        let e = expect[j * n + i];
                        if (g - e).abs() > 1e-7 * (1.0 + e.abs()) {
                            return Err(format!("lane {l}: L[{j},{i}] = {g} != {e}"));
                        }
                    }
                }
            }
            Ok(())
        })
    }

    /// Hybrid build (REVEL / dataflow): four concurrent regions.
    fn build_hybrid(&self, cfg: &BuildCfg) -> BuiltKernel {
        let n = self.n as i64;
        let unroll = cfg.inner_unroll(4, true);
        let vec_unroll = cfg.inner_unroll(4, true);
        let lanes = LaneMask::all(cfg.num_lanes as u8);
        let l_scale = LaneScale::addr(self.l_lane_stride());

        let regions = vec![
            point_region(cfg),
            scale_region(cfg),
            vector_region(cfg, vec_unroll),
            matrix_region(cfg, unroll, false),
        ];

        let mut prog = revel_sim::RevelProgram::new(format!("cholesky-n{}", self.n));
        let config = prog.add_config(regions);
        let push = |prog: &mut revel_sim::RevelProgram, cmd| {
            prog.push(VectorCommand::broadcast(lanes, cmd))
        };
        push(&mut prog, StreamCommand::Configure { config: ConfigId(config) });
        for k in 0..self.n as i64 {
            let rem = n - k; // elements in the pivot row from the diagonal
            let trail = n - k - 1; // trailing rows/columns
            let diag = self.a_base() + k * (n + 1);
            // Pivot a[k,k] -> point region.
            push(
                &mut prog,
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::scalar(diag),
                    InPortId(6),
                    RateFsm::ONCE,
                ),
            );
            // is -> vector region, reused for the whole L column (rem elems).
            push(
                &mut prog,
                StreamCommand::xfer(
                    OutPortId(7),
                    InPortId(4),
                    1,
                    RateFsm::ONCE,
                    RateFsm::fixed(rem),
                ),
            );
            // Pivot row a[k, k:n] -> vector region.
            push(
                &mut prog,
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::linear(diag, rem),
                    InPortId(0),
                    RateFsm::ONCE,
                ),
            );
            // L column store: L[j,k] for j = k..n (column-major walk).
            prog.push(VectorCommand::scaled(
                lanes,
                l_scale,
                StreamCommand::store(
                    OutPortId(0),
                    MemTarget::Shared,
                    AffinePattern::strided(self.l_base() + k * n + k, n, rem),
                    RateFsm::ONCE,
                ),
            ));
            if trail > 0 {
                // ia -> scale region, used once per trailing column.
                push(
                    &mut prog,
                    StreamCommand::xfer(
                        OutPortId(6),
                        InPortId(8),
                        1,
                        RateFsm::ONCE,
                        RateFsm::fixed(trail),
                    ),
                );
                // a[k, k+1:n] scalars -> scale region.
                push(
                    &mut prog,
                    StreamCommand::load(
                        MemTarget::Private,
                        AffinePattern::linear(diag + 1, trail),
                        InPortId(7),
                        RateFsm::ONCE,
                    ),
                );
                // s_j -> matrix region, reused for row j's n-j elements.
                push(
                    &mut prog,
                    StreamCommand::xfer(
                        OutPortId(8),
                        InPortId(5),
                        trail,
                        RateFsm::ONCE,
                        RateFsm::inductive(trail, -1),
                    ),
                );
                // Pivot-row segments a[k, j:n] for j = k+1..n (triangular).
                push(
                    &mut prog,
                    StreamCommand::load(
                        MemTarget::Private,
                        AffinePattern::two_d(diag + 1, 1, 1, trail, trail, -1),
                        InPortId(2),
                        RateFsm::ONCE,
                    ),
                );
                // Trailing rows a[j, j:n] (triangular, in place).
                let trail_pat = AffinePattern::two_d(diag + n + 1, 1, n + 1, trail, trail, -1);
                push(
                    &mut prog,
                    StreamCommand::load(MemTarget::Private, trail_pat, InPortId(3), RateFsm::ONCE),
                );
                push(
                    &mut prog,
                    StreamCommand::store(
                        OutPortId(1),
                        MemTarget::Private,
                        trail_pat,
                        RateFsm::ONCE,
                    ),
                );
            }
            push(&mut prog, StreamCommand::BarrierScratch);
        }
        push(&mut prog, StreamCommand::Wait);

        BuiltKernel {
            program: prog,
            init: self.init(cfg.num_lanes),
            check: self.check(cfg.num_lanes),
        }
    }

    /// Ring-pipelined build (Fig. 17): outer iteration `k` runs on lane
    /// `k mod L`. Within a round of `L` iterations the updated trailing
    /// matrix streams lane-to-lane over the inter-lane bus (the incoming
    /// pivot row is parked in local scratchpad through a Mov region — §IV-B:
    /// port data may be "written to scratchpad" — and the store→load guard
    /// releases its re-reads element by element). Rounds cross through
    /// memory exactly as the paper's control program does: the last lane
    /// `WriteStream`s the trailing matrix, a `Wait lanes done` closes the
    /// round, and lane 0 `LoadStream`s it back — which is also what makes
    /// the ring deadlock-free (no port reservation ever wraps around).
    fn build_ring(&self, cfg: &BuildCfg) -> BuiltKernel {
        let n = self.n as i64;
        let num_lanes = cfg.num_lanes as i64;
        let unroll = cfg.inner_unroll(4, true);

        // Regions (identical configuration on every lane).
        let mut mov = Dfg::new("park");
        let incoming = mov.input(InPortId(1));
        let parked = mov.op(OpCode::Mov, &[incoming]);
        mov.output(parked, OutPortId(2));
        let regions = vec![
            cfg.inner_region("park", mov, 0, unroll),
            point_region(cfg),
            scale_region(cfg),
            vector_region(cfg, unroll),
            matrix_region(cfg, unroll, false),
        ];

        let mut prog = revel_sim::RevelProgram::new(format!("cholesky-ring-n{}", self.n));
        let config = prog.add_config(regions);
        prog.push(VectorCommand::broadcast(
            LaneMask::all(num_lanes as u8),
            StreamCommand::Configure { config: ConfigId(config) },
        ));
        for k in 0..n {
            let owner = k % num_lanes;
            let round = (k / num_lanes) as usize;
            let lane = LaneMask::single(revel_isa::LaneId(owner as u8));
            let rem = n - k;
            let trail = n - k - 1;
            let first_in_round = owner == 0;
            let last_in_round = owner == num_lanes - 1 || k == n - 1;
            let read_buf = self.ring_tbuf(round % 2);
            let write_buf = self.ring_tbuf((round + 1) % 2);
            let diag = k * (n + 1);
            // Where this iteration's pivot row can be (re-)read from.
            let (pivot_mem, pb) = if first_in_round {
                (MemTarget::Shared, read_buf + diag)
            } else {
                (MemTarget::Private, self.ring_pivot_buf())
            };
            let push = |prog: &mut revel_sim::RevelProgram, cmd| {
                prog.push(VectorCommand::broadcast(lane, cmd))
            };
            if !first_in_round {
                // Park the incoming pivot row (the left neighbour reserved
                // our in1 with its first XferRight).
                push(
                    &mut prog,
                    StreamCommand::store(
                        OutPortId(2),
                        MemTarget::Private,
                        AffinePattern::linear(pb, rem),
                        RateFsm::ONCE,
                    ),
                );
            }
            // Pivot element -> point (guard-ordered behind the park store).
            push(
                &mut prog,
                StreamCommand::load(
                    pivot_mem,
                    AffinePattern::scalar(pb),
                    InPortId(6),
                    RateFsm::ONCE,
                ),
            );
            // is -> vector region; pivot row -> vector region; L -> shared.
            push(
                &mut prog,
                StreamCommand::xfer(
                    OutPortId(7),
                    InPortId(4),
                    1,
                    RateFsm::ONCE,
                    RateFsm::fixed(rem),
                ),
            );
            push(
                &mut prog,
                StreamCommand::load(
                    pivot_mem,
                    AffinePattern::linear(pb, rem),
                    InPortId(0),
                    RateFsm::ONCE,
                ),
            );
            push(
                &mut prog,
                StreamCommand::store(
                    OutPortId(0),
                    MemTarget::Shared,
                    AffinePattern::strided(self.l_base() + k * n + k, n, rem),
                    RateFsm::ONCE,
                ),
            );
            if trail > 0 {
                push(
                    &mut prog,
                    StreamCommand::xfer(
                        OutPortId(6),
                        InPortId(8),
                        1,
                        RateFsm::ONCE,
                        RateFsm::fixed(trail),
                    ),
                );
                push(
                    &mut prog,
                    StreamCommand::load(
                        pivot_mem,
                        AffinePattern::linear(pb + 1, trail),
                        InPortId(7),
                        RateFsm::ONCE,
                    ),
                );
                push(
                    &mut prog,
                    StreamCommand::xfer(
                        OutPortId(8),
                        InPortId(5),
                        trail,
                        RateFsm::ONCE,
                        RateFsm::inductive(trail, -1),
                    ),
                );
                // Pivot-row segments a[k, j:n] (triangular re-read).
                push(
                    &mut prog,
                    StreamCommand::load(
                        pivot_mem,
                        AffinePattern::two_d(pb + 1, 1, 1, trail, trail, -1),
                        InPortId(2),
                        RateFsm::ONCE,
                    ),
                );
                // Current trailing values: round-opening lanes read them
                // from the shared round buffer; the rest receive them on
                // in3 from the previous owner's second XferRight.
                if first_in_round {
                    push(
                        &mut prog,
                        StreamCommand::load(
                            MemTarget::Shared,
                            AffinePattern::two_d(
                                read_buf + diag + n + 1,
                                1,
                                n + 1,
                                trail,
                                trail,
                                -1,
                            ),
                            InPortId(3),
                            RateFsm::ONCE,
                        ),
                    );
                }
                if last_in_round {
                    // Close the round through memory: T_{k+1} -> buffer.
                    push(
                        &mut prog,
                        StreamCommand::store(
                            OutPortId(1),
                            MemTarget::Shared,
                            AffinePattern::two_d(
                                write_buf + diag + n + 1,
                                1,
                                n + 1,
                                trail,
                                trail,
                                -1,
                            ),
                            RateFsm::ONCE,
                        ),
                    );
                } else {
                    // Ship T_{k+1} right: first its pivot row (to the next
                    // lane's park region), then the remaining rows straight
                    // into its matrix region, with shrinking row bounds.
                    push(
                        &mut prog,
                        StreamCommand::xfer_right_rows(
                            OutPortId(1),
                            InPortId(1),
                            trail,
                            RateFsm::ONCE,
                            RateFsm::ONCE,
                            RateFsm::fixed(trail),
                        ),
                    );
                    if trail > 1 {
                        push(
                            &mut prog,
                            StreamCommand::xfer_right_rows(
                                OutPortId(1),
                                InPortId(3),
                                trail * (trail - 1) / 2,
                                RateFsm::ONCE,
                                RateFsm::ONCE,
                                RateFsm::inductive(trail - 1, -1),
                            ),
                        );
                    }
                }
            }
            if last_in_round {
                // The paper's `Wait lanes done` per k-round.
                prog.push(VectorCommand::broadcast(
                    LaneMask::all(num_lanes as u8),
                    StreamCommand::Wait,
                ));
            }
        }

        // Memory: the first round buffer starts as A (in shared); lanes are
        // otherwise empty.
        let init = vec![MemInit::Shared { addr: self.ring_tbuf(0), data: self.a(0) }];
        // One problem, whose `L` lands where a single-lane build puts lane 0's.
        BuiltKernel { program: prog, init, check: self.check(1) }
    }

    /// Pivot-row park buffer in each lane's private scratchpad.
    fn ring_pivot_buf(&self) -> i64 {
        0
    }

    /// The two round buffers in shared memory, after the `L` output.
    fn ring_tbuf(&self, parity: usize) -> i64 {
        (self.n * self.n) as i64 * (1 + parity as i64)
    }

    /// Systolic build: `ia`/`is` on the control core, scalar matrix region
    /// folding the `s_j` multiply, serialized per `k`.
    fn build_host_outer(&self, cfg: &BuildCfg) -> BuiltKernel {
        let n = self.n as i64;
        let nn = self.n;
        let unroll = cfg.inner_unroll(4, true);
        let lanes = LaneMask::all(cfg.num_lanes as u8);
        let l_scale = LaneScale::addr(self.l_lane_stride());
        let num_lanes = cfg.num_lanes;

        // `is` is broadcast from memory; the matrix region folds the
        // `s_j` multiply the host has no region for.
        let regions = vec![vector_region(cfg, unroll), matrix_region(cfg, unroll, true)];

        let mut prog = revel_sim::RevelProgram::new(format!("cholesky-sys-n{}", self.n));
        let config = prog.add_config(regions);
        prog.push(VectorCommand::broadcast(
            lanes,
            StreamCommand::Configure { config: ConfigId(config) },
        ));
        let scratch = self.host_scratch_shared(num_lanes);
        let a_base = self.a_base();
        for k in 0..nn as i64 {
            let rem = n - k;
            let trail = n - k - 1;
            let diag = a_base + k * (n + 1);
            // Host: ia, is from the (updated) diagonal element.
            prog.push_host(2 * HOST_FP_OP_CYCLES + HOST_LOOP_CYCLES, move |mem| {
                for l in 0..num_lanes as u8 {
                    let akk = mem.read(Some(l), diag);
                    mem.write(None, scratch + 2 * l as i64, 1.0 / akk);
                    mem.write(None, scratch + 2 * l as i64 + 1, 1.0 / akk.sqrt());
                }
            });
            // is -> vector region (element-reused for the column).
            prog.push(VectorCommand::scaled(
                lanes,
                LaneScale::addr(2),
                StreamCommand::load(
                    MemTarget::Shared,
                    AffinePattern::scalar(scratch + 1),
                    InPortId(4),
                    RateFsm::fixed(rem),
                ),
            ));
            let bcast = |prog: &mut revel_sim::RevelProgram, cmd| {
                prog.push(VectorCommand::broadcast(lanes, cmd))
            };
            bcast(
                &mut prog,
                StreamCommand::load(
                    MemTarget::Private,
                    AffinePattern::linear(diag, rem),
                    InPortId(0),
                    RateFsm::ONCE,
                ),
            );
            prog.push(VectorCommand::scaled(
                lanes,
                l_scale,
                StreamCommand::store(
                    OutPortId(0),
                    MemTarget::Shared,
                    AffinePattern::strided(self.l_base() + k * n + k, n, rem),
                    RateFsm::ONCE,
                ),
            ));
            if trail > 0 {
                if cfg.inductive_streams {
                    // Whole trailing update as inductive streams
                    // (ablation step 2: inductive streams on a systolic
                    // fabric, outer loop still on the control core).
                    let total: i64 = (1..=trail).sum();
                    prog.push(VectorCommand::scaled(
                        lanes,
                        LaneScale::addr(2),
                        StreamCommand::load(
                            MemTarget::Shared,
                            AffinePattern::scalar(scratch),
                            InPortId(8),
                            RateFsm::fixed(total),
                        ),
                    ));
                    bcast(
                        &mut prog,
                        StreamCommand::load(
                            MemTarget::Private,
                            AffinePattern::linear(diag + 1, trail),
                            InPortId(5),
                            RateFsm::inductive(trail, -1),
                        ),
                    );
                    bcast(
                        &mut prog,
                        StreamCommand::load(
                            MemTarget::Private,
                            AffinePattern::two_d(diag + 1, 1, 1, trail, trail, -1),
                            InPortId(2),
                            RateFsm::ONCE,
                        ),
                    );
                    let trail_pat = AffinePattern::two_d(diag + n + 1, 1, n + 1, trail, trail, -1);
                    bcast(
                        &mut prog,
                        StreamCommand::load(
                            MemTarget::Private,
                            trail_pat,
                            InPortId(3),
                            RateFsm::ONCE,
                        ),
                    );
                    bcast(
                        &mut prog,
                        StreamCommand::store(
                            OutPortId(1),
                            MemTarget::Private,
                            trail_pat,
                            RateFsm::ONCE,
                        ),
                    );
                } else {
                    // Plain stream-dataflow: one command group per trailing
                    // row j — the per-iteration control traffic inductive
                    // streams exist to amortize.
                    for idx in 0..trail {
                        let row_len = trail - idx;
                        let row_base = diag + 1 + idx;
                        prog.push(VectorCommand::scaled(
                            lanes,
                            LaneScale::addr(2),
                            StreamCommand::load(
                                MemTarget::Shared,
                                AffinePattern::scalar(scratch),
                                InPortId(8),
                                RateFsm::fixed(row_len),
                            ),
                        ));
                        bcast(
                            &mut prog,
                            StreamCommand::load(
                                MemTarget::Private,
                                AffinePattern::scalar(diag + 1 + idx),
                                InPortId(5),
                                RateFsm::fixed(row_len),
                            ),
                        );
                        bcast(
                            &mut prog,
                            StreamCommand::load(
                                MemTarget::Private,
                                AffinePattern::linear(row_base, row_len),
                                InPortId(2),
                                RateFsm::ONCE,
                            ),
                        );
                        let row_pat = AffinePattern::linear(diag + (n + 1) * (idx + 1), row_len);
                        bcast(
                            &mut prog,
                            StreamCommand::load(
                                MemTarget::Private,
                                row_pat,
                                InPortId(3),
                                RateFsm::ONCE,
                            ),
                        );
                        bcast(
                            &mut prog,
                            StreamCommand::store(
                                OutPortId(1),
                                MemTarget::Private,
                                row_pat,
                                RateFsm::ONCE,
                            ),
                        );
                    }
                }
            }
            prog.push(VectorCommand::broadcast(lanes, StreamCommand::Wait));
        }

        BuiltKernel {
            program: prog,
            init: self.init(cfg.num_lanes),
            check: self.check(cfg.num_lanes),
        }
    }
}

impl Workload for Cholesky {
    fn name(&self) -> &'static str {
        "cholesky"
    }

    fn params(&self) -> String {
        format!("n={}", self.n)
    }

    fn flops(&self) -> u64 {
        reference::cholesky_flops(self.n)
    }

    fn build(&self, cfg: &BuildCfg) -> BuiltKernel {
        if self.parallel && cfg.num_lanes > 1 && cfg.outer_on_fabric() && cfg.arch != Arch::Dataflow
        {
            self.build_ring(cfg)
        } else if cfg.outer_on_fabric() {
            // Baselines cannot pipeline inductive dependences across lanes
            // (statically scheduled fabrics need static dependence
            // distances, §III-B), so a `parallel` request degrades to the
            // single-problem single-lane build for them.
            let cfg1 = if self.parallel { BuildCfg { num_lanes: 1, ..*cfg } } else { *cfg };
            self.build_hybrid(&cfg1)
        } else {
            let cfg1 = if self.parallel { BuildCfg { num_lanes: 1, ..*cfg } } else { *cfg };
            self.build_host_outer(&cfg1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::run_workload;
    use revel_compiler::AblationStep;

    #[test]
    fn revel_cholesky_correct_all_sizes() {
        for n in [12, 16, 24, 32] {
            let run = run_workload(&Cholesky::new(n, 1), &BuildCfg::revel(1)).unwrap();
            run.assert_ok(&format!("cholesky n={n}"));
        }
    }

    #[test]
    fn systolic_baseline_correct_and_slower() {
        let w = Cholesky::new(24, 2);
        let revel = run_workload(&w, &BuildCfg::revel(1)).unwrap();
        let sys = run_workload(&w, &BuildCfg::systolic_baseline(1)).unwrap();
        revel.assert_ok("revel");
        sys.assert_ok("systolic");
        assert!(
            sys.cycles as f64 > 1.5 * revel.cycles as f64,
            "systolic {} vs revel {}",
            sys.cycles,
            revel.cycles
        );
    }

    #[test]
    fn dataflow_baseline_correct() {
        let w = Cholesky::new(12, 3);
        let run = run_workload(&w, &BuildCfg::dataflow_baseline(1)).unwrap();
        run.assert_ok("cholesky dataflow");
    }

    #[test]
    fn ablation_ladder_improves_for_cholesky() {
        let w = Cholesky::new(24, 4);
        let cycles: Vec<u64> = AblationStep::LADDER
            .iter()
            .map(|s| {
                let run = run_workload(&w, &BuildCfg::ablation(*s, 1)).unwrap();
                run.assert_ok(s.label());
                run.cycles
            })
            .collect();
        assert!(cycles[1] <= cycles[0], "+ind {} vs base {}", cycles[1], cycles[0]);
        assert!(cycles[3] < cycles[1], "revel {} vs +ind {}", cycles[3], cycles[1]);
        assert!(cycles[3] * 2 < cycles[0], "revel should be >2x over base");
    }

    #[test]
    fn batch_8_cholesky() {
        let w = Cholesky::new(16, 5);
        let run = run_workload(&w, &BuildCfg::revel(8)).unwrap();
        run.assert_ok("cholesky batch 8");
    }
}
