//! Structured deadlock diagnostics.
//!
//! A [`DeadlockSnapshot`] is captured unconditionally when a run exhausts
//! its cycle budget and attached to the [`crate::RunReport`], so the
//! failing state travels with the result: `WorkloadRun::assert_ok` prints
//! it in its panic and the server sends it in the `timed_out` frame. It
//! also participates in the differential oracle's observable comparison:
//! the event-horizon loop and the reference stepper must time out in
//! *identical* states, not merely at the same cycle.

use crate::lane::{Lane, StreamBody};
use std::fmt;

/// One-line summary of an active stream: what it moves and how far it got,
/// without the walker and bitset internals of the raw `Debug` form.
fn stream_brief(body: &StreamBody) -> String {
    match body {
        StreamBody::Load { target, dst, flushed, .. } => {
            format!("load {target:?} -> in{dst} (flushed={flushed})")
        }
        StreamBody::Store { src, target, written, .. } => {
            format!("store out{src} -> {target:?} ({} written)", written.len())
        }
        StreamBody::Const { dst, values } => format!("const -> in{dst} ({} left)", values.len()),
        StreamBody::XferLocal { src, dst, remaining, .. } => {
            format!("xfer out{src} -> in{dst} ({remaining} left)")
        }
        StreamBody::XferRight { src, dst, remaining, .. } => {
            format!("xfer out{src} -> right in{dst} ({remaining} left)")
        }
    }
}

/// State of one region pipeline at timeout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionSnapshot {
    /// Region name (diagnostic label from the DFG).
    pub name: String,
    /// Matured-but-undelivered firings in the region pipeline.
    pub inflight: usize,
    /// Cycle at which the region may next fire.
    pub next_fire: u64,
}

/// State of one lane at timeout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneSnapshot {
    /// Commands waiting in the lane's command queue.
    pub queued: Vec<String>,
    /// Active streams in the stream table.
    pub streams: Vec<String>,
    /// Temporal region instances in flight on the dataflow PEs.
    pub instances: usize,
    /// Input-port FIFO occupancy (vectors), indexed by port.
    pub in_port_occupancy: Vec<usize>,
    /// Output-port FIFO occupancy (vectors), indexed by port.
    pub out_port_occupancy: Vec<usize>,
    /// Per-region pipeline state.
    pub regions: Vec<RegionSnapshot>,
    /// Reconfiguration deadline (0 = not reconfiguring).
    pub reconfig_until: u64,
}

/// The machine state captured when a run hits its cycle budget: enough to
/// see *what* every component was waiting on without re-running under a
/// debug flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockSnapshot {
    /// Cycle at which the budget ran out.
    pub cycle: u64,
    /// Control-core program counter.
    pub control_pc: usize,
    /// Length of the control program.
    pub control_len: usize,
    /// True if the control core was blocked on a `Wait`.
    pub control_waiting: bool,
    /// Per-lane state.
    pub lanes: Vec<LaneSnapshot>,
}

impl LaneSnapshot {
    pub(crate) fn capture(lane: &Lane) -> Self {
        LaneSnapshot {
            queued: lane.cmd_queue.iter().map(|c| format!("{c:?}")).collect(),
            streams: lane.streams.iter().map(|s| stream_brief(&s.body)).collect(),
            instances: lane.instances.len(),
            in_port_occupancy: lane.in_ports.iter().map(|p| p.occupancy()).collect(),
            out_port_occupancy: lane.out_ports.iter().map(|p| p.occupancy()).collect(),
            regions: lane
                .regions
                .iter()
                .map(|r| RegionSnapshot {
                    name: r.region.name.clone(),
                    inflight: r.inflight_len(),
                    next_fire: r.next_fire_cycle(),
                })
                .collect(),
            reconfig_until: lane.reconfig_until,
        }
    }
}

impl fmt::Display for DeadlockSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== DEADLOCK at cycle {} ===", self.cycle)?;
        writeln!(
            f,
            "control: pc={}/{} waiting={}",
            self.control_pc, self.control_len, self.control_waiting
        )?;
        for (i, lane) in self.lanes.iter().enumerate() {
            writeln!(
                f,
                "lane {i}: queue={} streams={} instances={}",
                lane.queued.len(),
                lane.streams.len(),
                lane.instances
            )?;
            for c in &lane.queued {
                writeln!(f, "  queued: {c}")?;
            }
            for s in &lane.streams {
                writeln!(f, "  stream: {s}")?;
            }
            for (p, occ) in lane.in_port_occupancy.iter().enumerate() {
                if *occ > 0 {
                    writeln!(f, "  in{p}: occ={occ}")?;
                }
            }
            for (p, occ) in lane.out_port_occupancy.iter().enumerate() {
                if *occ > 0 {
                    writeln!(f, "  out{p}: occ={occ}")?;
                }
            }
            if lane.reconfig_until != 0 {
                writeln!(f, "  reconfiguring until cycle {}", lane.reconfig_until)?;
            }
            for (r, reg) in lane.regions.iter().enumerate() {
                writeln!(
                    f,
                    "  region {r} '{}' inflight={} next_fire={}",
                    reg.name, reg.inflight, reg.next_fire
                )?;
            }
        }
        Ok(())
    }
}
