//! # revel-compiler — the kernel-construction ("pragma") layer
//!
//! Plays the role of the paper's LLVM/Clang pragma compiler (§VI): kernels
//! are described once, in inductive-dataflow form, and lowered to a
//! [`revel_sim::RevelProgram`] (fabric configurations + vector-stream
//! control code) under a [`BuildCfg`] that selects the architecture and the
//! mechanism-ablation knobs of Fig. 22:
//!
//! * **inductive streams** off → every inductive stream command is
//!   decomposed into per-outer-iteration commands, and the control core
//!   pays for each (this is how a plain stream-dataflow machine must run
//!   inductive code);
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
mod lower;
mod overhead;

pub use build::{AblationStep, Arch, BuildCfg, HOST_FP_OP_CYCLES, HOST_LOOP_CYCLES};
pub use lower::{lower_command, Lowered};
