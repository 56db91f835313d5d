//! Cholesky decomposition — the paper's flagship inductive workload
//! (Fig. 5 / Fig. 17). Per outer iteration `k`, four datapaths:
//!
//! * **point** (temporal): `ia = 1/a[k,k]`, `is = 1/√a[k,k]`;
//! * **scale** (temporal): `s_j = a[k,j]·ia` per trailing column;
//! * **vector** (systolic): `l[j,k] = a[k,j]·is` — the `L` column;
//! * **matrix** (systolic, vectorized): `a[j,i] -= s_j·a[k,i]` over the
//!   shrinking triangular trailing submatrix.
//!
//! The per-`k` step is described once, as a [`LoopNest`] (Fig. 17(c)):
//! one inductive 2-D stream per triangular operand, `ia`/`is`/`s_j`
//! crossing through XFERs, and the trailing matrix carried through memory.
//! `revel_compiler` lowers it to every architecture and Fig. 22 rung.

use crate::data;
use crate::reference;
use crate::suite::{BuiltKernel, Dataset, MemInit, Workload};
use revel_compiler::{
    BuildCfg, Datapath, Ind, LoopNest, NestProgram, Operand, Pattern, Rate, Stream,
};
use revel_dfg::{Dfg, OpCode};
use revel_isa::{InPortId, OutPortId};
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
fn point() -> Datapath {
    let mut point = Dfg::new("point");
    let akk = point.input(InPortId(6));
    let ia = point.op(OpCode::Recip, &[akk]);
    let is = point.op(OpCode::Rsqrt, &[akk]);
    point.output(ia, OutPortId(6));
    point.output(is, OutPortId(7));
    Datapath { dfg: point, deps: 1, vector: None }
}

/// scale: `s_j = akj * ia`.
fn scale() -> Datapath {
    let mut scale = Dfg::new("scale");
    let akj = scale.input(InPortId(7));
    let ia_in = scale.input(InPortId(8));
    let sj = scale.op(OpCode::Mul, &[akj, ia_in]);
    scale.output(sj, OutPortId(8));
    Datapath { dfg: scale, deps: 1, vector: None }
}

/// vector: `l[j,k] = a[k,j] * is`.
fn vector() -> Datapath {
    let mut vector = Dfg::new("vector");
    let arow = vector.input(InPortId(0));
    let is_in = vector.input_scalar(InPortId(4));
    let lcol = vector.op(OpCode::Mul, &[arow, is_in]);
    vector.output(lcol, OutPortId(0));
    Datapath { dfg: vector, deps: 1, vector: Some(4) }
}

/// matrix: `a[j,i] -= s_j * a[k,i]`.
fn matrix() -> Datapath {
    let mut matrix = Dfg::new("matrix");
    let sj = matrix.input_scalar(InPortId(5));
    let aki = matrix.input(InPortId(2));
    let aji = matrix.input(InPortId(3));
    let prod = matrix.op(OpCode::Mul, &[sj, aki]);
    let upd = matrix.op(OpCode::Sub, &[aji, prod]);
    matrix.output(upd, OutPortId(1));
    Datapath { dfg: matrix, deps: 2, vector: Some(4) }
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

    fn a(&self, instance: usize) -> Vec<f64> {
        data::spd_matrix(self.n, self.seed + 13 * instance as u64)
    }

    /// The per-`k` step: `A` (row-major, `n × n`) is the carried matrix and
    /// `L` (column `k` written as row `k`, `n × n`) the result.
    fn nest(&self) -> LoopNest {
        use Operand::{Carried, Result};
        let n = self.n as i64;
        let diag = Ind::new(0, n + 1); // a[k,k]
        let rem = Ind::new(n, -1); // elements in the pivot row from the diagonal
        let trail = Ind::new(n - 1, -1); // trailing rows/columns
        let one = Ind::konst(1);
        let next = Ind::new(1, n + 1); // a[k,k+1]
        let trailing = Pattern::triangle(Ind::new(n + 1, n + 1), n + 1, trail);
        LoopNest {
            kernel: "cholesky",
            n,
            trips: n,
            datapaths: vec![point(), scale(), vector(), matrix()],
            streams: vec![
                // Pivot a[k,k] -> point.
                Stream::Load(Carried, Pattern::linear(diag, one), InPortId(6), Rate::ONCE),
                // is -> vector, reused for the whole L column.
                Stream::Xfer(OutPortId(7), InPortId(4), one, Rate::fixed(rem)),
                // Pivot row a[k, k:n] -> vector; L[j,k] for j = k..n out.
                Stream::Load(Carried, Pattern::linear(diag, rem), InPortId(0), Rate::ONCE),
                Stream::Store(OutPortId(0), Result, Pattern::strided(diag, n, rem)),
                // ia -> scale, used once per trailing column.
                Stream::Xfer(OutPortId(6), InPortId(8), one, Rate::fixed(trail)),
                // a[k, k+1:n] scalars -> scale.
                Stream::Load(Carried, Pattern::linear(next, trail), InPortId(7), Rate::ONCE),
                // s_j -> matrix, reused for row j's n-j elements.
                Stream::Xfer(OutPortId(8), InPortId(5), trail, Rate::inductive(trail, -1)),
                // Pivot-row segments a[k, j:n] for j = k+1..n (triangular).
                Stream::Load(Carried, Pattern::triangle(next, 1, trail), InPortId(2), Rate::ONCE),
                // Trailing rows a[j, j:n] for j = k+1..n, updated in place.
                Stream::Load(Carried, trailing, InPortId(3), Rate::ONCE),
                Stream::Store(OutPortId(1), Carried, trailing),
            ],
            pipelined: self.parallel,
            update: None,
        }
    }

    /// One dataset: instance `i`'s `A`, drawn once, where the build places
    /// its carried matrix, and the check of its `L` at its result address.
    fn placed(&self, carried: &[(Option<u8>, i64)], result: Vec<i64>) -> Dataset {
        let a: Vec<Vec<f64>> = (0..carried.len()).map(|i| self.a(i)).collect();
        let init = carried
            .iter()
            .zip(&a)
            .map(|(&(lane, addr), a)| match lane {
                Some(lane) => MemInit::Private { lane, addr, data: a.clone() },
                None => MemInit::Shared { addr, data: a.clone() },
            })
            .collect();
        Dataset { init, check: self.check(a, result) }
    }

    fn check(&self, a: Vec<Vec<f64>>, result: Vec<i64>) -> crate::suite::CheckFn {
        let n = self.n;
        Arc::new(move |machine| {
            for (l, (&base, a)) in result.iter().zip(&a).enumerate() {
                let expect = reference::cholesky(a, n);
                let got = machine.read_shared(base, n * n);
                for (j, i) in (0..n).flat_map(|j| (0..=j).map(move |i| (j, i))) {
                    let (g, e) = (got[j * n + i], expect[j * n + i]);
                    if (g - e).abs() > 1e-7 * (1.0 + e.abs()) {
                        return Err(format!("lane {l}: L[{j},{i}] = {g} != {e}"));
                    }
                }
            }
            Ok(())
        })
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
        let NestProgram { program, carried, result } = self.nest().lower(cfg);
        BuiltKernel::new(program, self.placed(&carried, result))
    }

    fn dataset(&self, cfg: &BuildCfg) -> Dataset {
        let (carried, result) = self.nest().placement(cfg);
        self.placed(&carried, result)
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
