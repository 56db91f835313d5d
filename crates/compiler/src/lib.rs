//! # revel-compiler — the kernel-construction ("pragma") layer
//!
//! Plays the role of the paper's LLVM/Clang pragma compiler (§VI): a kernel
//! describes its datapaths once and this crate decides how each becomes a
//! fabric region under a [`BuildCfg`]; the vector-stream control code is
//! pushed by the kernel itself ([`revel_sim::RevelProgram::push`]), not
//! generated here. The [`BuildCfg`] selects the architecture and the
//! mechanism-ablation knobs of Fig. 22:
//!
//! * **inductive streams** off → a plain stream-dataflow machine must
//!   issue one command group per outer iteration and pay the control core
//!   for each. Nothing in this crate performs that decomposition: the knob
//!   is a flag a kernel's host-outer build reads to pick between its two
//!   hand-written command sequences, and only Cholesky's does (the other
//!   six kernels build the same program on both rungs — EXPERIMENTS.md
//!   "Figure 22");
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
//! The compiler owns region lowering: a kernel hands each datapath to
//! [`BuildCfg::inner_region`] or [`BuildCfg::outer_region`] with the number
//! of inductive dependences it tracks, and never matches on the
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
mod overhead;

pub use build::{AblationStep, Arch, BuildCfg, HOST_FP_OP_CYCLES, HOST_LOOP_CYCLES};
