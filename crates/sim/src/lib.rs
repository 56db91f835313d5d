//! # revel-sim — cycle-level functional simulator for REVEL
//!
//! A cycle-level, *functional + timing* simulator of the REVEL accelerator
//! from *"A Hybrid Systolic-Dataflow Architecture for Inductive Matrix
//! Algorithms"* (HPCA 2020). It executes [`RevelProgram`]s — fabric
//! configurations plus vector-stream control code — on a machine model
//! comprising:
//!
//! * a **control core** that constructs and ships stream commands (one per
//!   few cycles) and blocks on `Wait`;
//! * per-lane **command queues** (8 entries) issuing to a **stream table**
//!   (8 concurrent streams) in per-port program order;
//! * **programmable ports** with reuse/discard FSMs and stream predication;
//! * **stream engines** enforcing scratchpad (512 b 1R/1W), XFER-bus, and
//!   inter-lane-bus bandwidth;
//! * **systolic region firing** at the scheduler-derived latency/II and a
//!   **triggered-instruction executor** for temporal regions;
//! * cycle classification (Fig. 23) and event counting for the power model.
//!
//! Because streams carry real data and DFGs are evaluated on real values,
//! every workload's numeric output can be verified against a reference
//! implementation — the simulator is its own correctness oracle.
//!
//! ```
//! use revel_fabric::RevelConfig;
//! use revel_sim::{Machine, RevelProgram, SimOptions};
//! use revel_dfg::{Dfg, OpCode, Region};
//! use revel_isa::*;
//!
//! // Negate 16 numbers through the fabric.
//! let mut g = Dfg::new("neg");
//! let a = g.input(InPortId(0));
//! let n = g.op(OpCode::Neg, &[a]);
//! g.output(n, OutPortId(0));
//!
//! let mut prog = RevelProgram::new("neg16");
//! let cfg_id = prog.add_config(vec![Region::systolic("neg", g, 8)]);
//! let lane0 = LaneMask::single(LaneId(0));
//! prog.push(VectorCommand::broadcast(lane0, StreamCommand::Configure { config: ConfigId(cfg_id) }));
//! prog.push(VectorCommand::broadcast(lane0, StreamCommand::load(
//!     MemTarget::Private, AffinePattern::linear(0, 16), InPortId(0), RateFsm::ONCE)));
//! prog.push(VectorCommand::broadcast(lane0, StreamCommand::store(
//!     OutPortId(0), MemTarget::Private, AffinePattern::linear(16, 16), RateFsm::ONCE)));
//! prog.push(VectorCommand::broadcast(lane0, StreamCommand::Wait));
//!
//! let mut m = Machine::new(RevelConfig::single_lane(), SimOptions::default());
//! let input: Vec<f64> = (0..16).map(|i| i as f64).collect();
//! m.write_private(LaneId(0), 0, &input);
//! let report = m.run(&prog).unwrap();
//! assert!(!report.timed_out);
//! assert_eq!(m.read_private(LaneId(0), 16, 16), input.iter().map(|x| -x).collect::<Vec<_>>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod kernel;
mod lane;
mod machine;
mod memory;
mod port;
mod snapshot;
mod stats;
mod trace;

pub use fault::{
    FaultEvent, FaultKind, FaultPlan, FaultRecord, FaultSnapshot, RunOutcome, FAULT_ALL,
    FAULT_BIT_FLIP, FAULT_DEAD_PE, FAULT_DROP_PORT, FAULT_STALL_PE,
};
pub use kernel::NextEvent;
pub use machine::{schedule_cache_stats, Machine, ScheduleCacheStats, SimError, SimOptions};
pub use memory::Scratchpad;
pub use port::{InPort, OutPort};
// The program representation lives in `revel-prog` (so the static verifier
// can analyze programs without depending on the simulator); re-exported here
// for backward compatibility.
pub use revel_prog::{
    structural_id, ControlStep, HostMem, HostOp, ProgramError, RevelProgram, StructuralId,
};
pub use snapshot::{DeadlockSnapshot, LaneSnapshot, RegionSnapshot};
pub use stats::{CycleBreakdown, CycleClass, ObservableReport, RunReport, StepperStats};
pub use trace::{ReplayError, TimingTrace};
