//! # revel-workloads — the evaluation kernel suite
//!
//! The seven dense linear-algebra kernels of the paper's evaluation
//! (Table V) — triangular Solver, Cholesky, QR, SVD, FFT, GEMM and
//! centro-symmetric FIR — each with:
//!
//! * a golden reference implementation ([`mod@reference`]),
//! * seeded synthetic inputs ([`data`]),
//! * a builder producing a [`revel_sim::RevelProgram`] for any
//!   [`revel_compiler::BuildCfg`] (REVEL, the systolic/dataflow baselines,
//!   and every Fig. 22 ablation step),
//! * numerical verification of the simulated result against the reference.
//!
//! The [`depdist`] module reproduces the Fig. 6 instrumentation
//! (inter-region dependence distances).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod cholesky;
pub mod data;
pub mod depdist;
mod fft;
mod fir;
mod gemm;
mod qr;
pub mod reference;
mod solver;
mod suite;
mod svd;

pub use batch::{
    batch_replayable, record_timing, replay_dataset_on, replay_trace_on, validate_init,
};
pub use cholesky::Cholesky;
pub use fft::Fft;
pub use fir::CentroFir;
pub use gemm::Gemm;
pub use qr::Qr;
pub use solver::Solver;
pub use suite::{
    apply_init, run_built_with, run_workload, run_workload_with, BuiltKernel, CheckFn, MemInit,
    Workload, WorkloadRun,
};
pub use svd::Svd;
