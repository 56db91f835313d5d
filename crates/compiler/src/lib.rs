//! # revel-compiler — the kernel-construction ("pragma") layer
//!
//! Plays the role of the paper's LLVM/Clang pragma compiler (§VI). A kernel
//! describes its outer loop once, as a [`LoopNest`] (datapaths plus the
//! inductive streams one iteration issues), and this crate writes the
//! vector-stream control program for every [`BuildCfg`] — the architecture
//! and the mechanism-ablation knobs of Fig. 22:
//!
//! * **inductive streams** off → each triangular command group is issued
//!   once per row, paying the control core for each (the row-split
//!   lowering; only Cholesky is a [`LoopNest`] so far, so the other six
//!   kernels build the same program on both rungs — EXPERIMENTS.md D4);
//! * **hybrid** off → outer-loop regions cannot go to the temporal fabric:
//!   on the pure-systolic baseline they execute on the control core as
//!   [`revel_sim::HostOp`]s (§III: "for systolic these execute on a control
//!   core");
//! * **stream predication** off → inductive inner loops are not profitably
//!   vectorizable (§II-B), so [`BuildCfg::inner_unroll`] degrades them to
//!   scalar datapaths;
//! * **arch = Dataflow** → every region becomes temporal and dependence
//!   FSMs cost real in-fabric instructions (Fig. 9).
//!
//! The compiler owns region lowering: a datapath becomes a region through
//! [`BuildCfg::inner_region`] or [`BuildCfg::outer_region`] with the number
//! of inductive dependences it tracks; no kernel matches on the
//! architecture to pick a region kind itself.
//!
//! ```
//! use revel_compiler::{Arch, BuildCfg};
//! let cfg = BuildCfg::revel(8);
//! assert_eq!(cfg.inner_unroll(8, true), 8);       // predication: full vec
//! let base = BuildCfg::systolic_baseline(8);
//! assert_eq!(base.inner_unroll(8, true), 1);      // inductive loop: scalar
//! assert_eq!(base.inner_unroll(8, false), 8);     // regular loop: fine
//! assert_eq!(base.arch, Arch::Systolic);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod nest;
mod overhead;

pub use build::{AblationStep, Arch, BuildCfg, HOST_FP_OP_CYCLES, HOST_LOOP_CYCLES};
pub use nest::{Datapath, Ind, LoopNest, NestProgram, Operand, Pattern, Rate, Stream};
