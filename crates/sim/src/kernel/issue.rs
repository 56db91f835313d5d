//! Command issue: from per-lane command queues into the stream table,
//! fabric configuration, barriers, and accumulator-length updates.

use super::PortSet;
use crate::lane::{ActiveStream, PatternWalker, RowTracker, StreamBody, WrittenSet};
use crate::machine::Machine;
use revel_isa::{LaneHop, MemTarget, StreamCommand};
use revel_prog::RevelProgram;
use revel_scheduler::RegionSchedule;

impl Machine {
    /// Issues commands from each lane's queue to the stream table. Commands
    /// execute in program order *per port*; independent ports may issue out
    /// of order past a stalled command (the queue scans forward). Barriers
    /// and reconfigurations serialize the queue. Returns `true` iff any
    /// command issued, retired, or armed a reconfiguration deadline.
    ///
    /// A lane whose queue holds a stream command at its head is scanned
    /// only when woken: a scan that issued nothing is repeated only after
    /// the lane's or its right neighbour's `wake` counter moved (the module
    /// doc lists what moves them), since nothing else can change its
    /// outcome.
    pub(crate) fn issue_commands(
        &mut self,
        now: u64,
        program: &RevelProgram,
        schedules: &[Vec<RegionSchedule>],
    ) -> bool {
        let mut progress = false;
        let num_lanes = self.lanes.len();
        for li in 0..num_lanes {
            let lane = &self.lanes[li];
            let Some(head) = lane.cmd_queue.front() else { continue };
            let wake = (lane.wake, self.lanes[(li + 1) % num_lanes].wake);
            if lane.idle_scan == Some(wake) && !serializes(head) {
                continue;
            }
            let (scan_progress, issued) = self.scan_queue(li, now, program, schedules);
            progress |= scan_progress;
            self.lanes[li].idle_scan = (!issued).then_some(wake);
        }
        progress
    }

    /// The full issue scan of every lane on every cycle, which the woken
    /// scan must match.
    #[cfg(test)]
    pub(crate) fn issue_commands_full(
        &mut self,
        now: u64,
        program: &RevelProgram,
        schedules: &[Vec<RegionSchedule>],
    ) -> bool {
        let mut progress = false;
        for li in 0..self.lanes.len() {
            progress |= self.scan_queue(li, now, program, schedules).0;
        }
        progress
    }

    /// One lane's issue scan: returns whether it made progress and whether
    /// it issued a command. A scan that issues nothing with a stream
    /// command at the head changes no state.
    fn scan_queue(
        &mut self,
        li: usize,
        now: u64,
        program: &RevelProgram,
        schedules: &[Vec<RegionSchedule>],
    ) -> (bool, bool) {
        // The scan borrows commands out of the queue while it mutates the
        // rest of the lane, so the queue steps aside for the scan (nothing
        // in this phase reads `lane.cmd_queue`).
        let mut queue = std::mem::take(&mut self.lanes[li].cmd_queue);
        let mut progress = false;
        let mut issued = 0usize;
        let mut blocked_in = PortSet::default();
        let mut blocked_out = PortSet::default();
        // Loads may not bypass an earlier *unissued* store to the same
        // scratchpad: once a store issues it is visible to the store→load
        // ordering guard, but a store still in the queue is not, so program
        // order must hold at issue time.
        let mut store_pending_private = false;
        let mut store_pending_shared = false;
        let mut qi = 0usize;
        while issued < 2 && qi < queue.len() {
            let cmd = &queue[qi];
            match cmd {
                StreamCommand::Configure { config } => {
                    if qi != 0 {
                        break; // configure serializes the queue
                    }
                    let lane = &mut self.lanes[li];
                    lane.draining = true;
                    if !lane.fabric_drained() {
                        break;
                    }
                    if lane.reconfig_until == 0 {
                        // Arming the deadline is a state change: the event
                        // horizon must see it before skipping.
                        lane.reconfig_until = self.cfg.reconfig_deadline(now);
                        progress = true;
                        break;
                    }
                    if now < lane.reconfig_until {
                        break;
                    }
                    let idx = config.0 as usize;
                    lane.apply_config(&program.configs[idx], &schedules[idx]);
                    if let Some(rec) = &mut self.recorder {
                        rec.configure(li, &program.configs[idx]);
                    }
                    lane.reconfig_until = 0;
                    lane.draining = false;
                    queue.pop_front();
                    issued += 1;
                    progress = true;
                    continue;
                }
                StreamCommand::BarrierScratch => {
                    if qi != 0 {
                        break;
                    }
                    if self.lanes[li].has_active_store() {
                        self.lanes[li].barrier_blocked = true;
                        break;
                    }
                    queue.pop_front();
                    issued += 1;
                    progress = true;
                    continue;
                }
                StreamCommand::SetAccumLen { region, len } => {
                    // Applies once the region has drained its in-flight
                    // work (serializes the queue like a barrier).
                    if qi != 0 {
                        break;
                    }
                    let lane = &mut self.lanes[li];
                    let r = *region as usize;
                    if r < lane.regions.len() {
                        if !lane.regions[r].idle() || lane.regions[r].temporal_instances() > 0 {
                            break;
                        }
                        lane.regions[r].set_accum_len(*len);
                        if let Some(rec) = &mut self.recorder {
                            rec.set_accum_len(li, r, *len);
                        }
                    }
                    queue.pop_front();
                    issued += 1;
                    progress = true;
                    continue;
                }
                _ => {}
            }
            // A full stream table binds no stream command, and nothing
            // behind one can issue (a serializing command there breaks the
            // scan), so the scan ends here.
            if self.lanes[li].streams.len() >= self.cfg.lane.stream_table_entries {
                break;
            }
            // Port-conflict scan: commands behind a blocked command on the
            // same port must not bypass it; loads must not bypass unissued
            // stores to the same scratchpad.
            let in_p = cmd.dst_in_port().map(|p| p.0);
            let out_p = cmd.src_out_port().map(|p| p.0);
            let mem_conflict = match cmd {
                StreamCommand::Load { target: MemTarget::Private, .. } => store_pending_private,
                StreamCommand::Load { target: MemTarget::Shared, .. } => store_pending_shared,
                _ => false,
            };
            let conflicts = mem_conflict
                || in_p.is_some_and(|p| blocked_in.contains(p))
                || out_p.is_some_and(|p| blocked_out.contains(p));
            if !conflicts && self.try_issue_stream(li, cmd) {
                queue.remove(qi);
                issued += 1;
                progress = true;
            } else {
                if let Some(p) = in_p {
                    blocked_in.insert(p);
                }
                if let Some(p) = out_p {
                    blocked_out.insert(p);
                }
                if let StreamCommand::Store { target, .. } = cmd {
                    match target {
                        MemTarget::Private => store_pending_private = true,
                        MemTarget::Shared => store_pending_shared = true,
                    }
                }
                qi += 1;
            }
        }
        self.lanes[li].cmd_queue = queue;
        if issued > 0 {
            // A command leaving the queue wakes the data pass: a stream
            // issued, and a region's dependence flag reads whether the
            // queue is empty.
            self.lanes[li].data.gen += 1;
        }
        (progress, issued > 0)
    }

    /// Attempts to bind a stream command to ports and a free entry of the
    /// stream table.
    fn try_issue_stream(&mut self, li: usize, cmd: &StreamCommand) -> bool {
        match cmd {
            StreamCommand::Load { target, pattern, dst, reuse } => {
                let lane = &mut self.lanes[li];
                let d = dst.0 as usize;
                if lane.in_busy[d] || !in_port_rebindable(&lane.in_ports[d], reuse) {
                    return false;
                }
                lane.in_busy[d] = true;
                lane.in_ports[d].bind_stream(*reuse);
                lane.streams.push(ActiveStream {
                    body: StreamBody::Load {
                        target: *target,
                        walker: PatternWalker::new(*pattern),
                        dst: dst.0,
                        flushed: false,
                    },
                });
                true
            }
            StreamCommand::Const { dst, pattern } => {
                let lane = &mut self.lanes[li];
                let d = dst.0 as usize;
                if lane.in_busy[d]
                    || !in_port_rebindable(&lane.in_ports[d], &revel_isa::RateFsm::ONCE)
                {
                    return false;
                }
                lane.in_busy[d] = true;
                lane.in_ports[d].bind_stream(revel_isa::RateFsm::ONCE);
                let values = pattern.expand().into_iter().map(f64::from_bits).collect();
                lane.streams.push(ActiveStream { body: StreamBody::Const { dst: dst.0, values } });
                true
            }
            StreamCommand::Store { src, target, pattern, discard } => {
                let lane = &mut self.lanes[li];
                let s = src.0 as usize;
                if lane.out_busy[s] {
                    return false;
                }
                lane.out_busy[s] = true;
                lane.out_ports[s].bind_stream(*discard);
                let spad_words = match target {
                    MemTarget::Private => lane.spad.len(),
                    MemTarget::Shared => self.shared.len(),
                };
                let range = pattern.addr_range();
                lane.streams.push(ActiveStream {
                    body: StreamBody::Store {
                        src: src.0,
                        target: *target,
                        walker: PatternWalker::new(*pattern),
                        range,
                        written: WrittenSet::spanning(range, spad_words),
                    },
                });
                true
            }
            StreamCommand::Xfer { route, outer, production, prod_mode, consumption, rows } => {
                let s = route.src.0 as usize;
                let d = route.dst.0 as usize;
                let hop = match route.hop {
                    LaneHop::Right if (li + 1) % self.lanes.len() != li => LaneHop::Right,
                    // Single lane: the right neighbour is this lane.
                    _ => LaneHop::Local,
                };
                match hop {
                    LaneHop::Local => {
                        let lane = &mut self.lanes[li];
                        if lane.out_busy[s]
                            || lane.in_busy[d]
                            || !in_port_rebindable(&lane.in_ports[d], consumption)
                        {
                            return false;
                        }
                        lane.out_busy[s] = true;
                        lane.in_busy[d] = true;
                        lane.out_ports[s].bind_stream_mode(*production, *prod_mode);
                        lane.in_ports[d].bind_stream(*consumption);
                        lane.streams.push(ActiveStream {
                            body: StreamBody::XferLocal {
                                src: route.src.0,
                                dst: route.dst.0,
                                remaining: *outer,
                                rows: RowTracker::new(*rows),
                            },
                        });
                        true
                    }
                    LaneHop::Right => {
                        let ri = (li + 1) % self.lanes.len();
                        if self.lanes[li].out_busy[s]
                            || self.lanes[ri].in_busy[d]
                            || !in_port_rebindable(&self.lanes[ri].in_ports[d], consumption)
                        {
                            return false;
                        }
                        self.lanes[li].out_busy[s] = true;
                        self.lanes[ri].in_busy[d] = true;
                        self.lanes[li].out_ports[s].bind_stream_mode(*production, *prod_mode);
                        self.lanes[ri].in_ports[d].bind_stream(*consumption);
                        self.lanes[li].streams.push(ActiveStream {
                            body: StreamBody::XferRight {
                                src: route.src.0,
                                dst: route.dst.0,
                                remaining: *outer,
                                rows: RowTracker::new(*rows),
                            },
                        });
                        true
                    }
                }
            }
            StreamCommand::Configure { .. }
            | StreamCommand::SetAccumLen { .. }
            | StreamCommand::BarrierScratch
            | StreamCommand::Wait => unreachable!("handled in scan_queue and control_step"),
        }
    }
}

/// True for the commands that act only at the head of the queue and are
/// evaluated every cycle: they wait on fabric, store or region state that
/// no wake event tracks.
fn serializes(cmd: &StreamCommand) -> bool {
    matches!(
        cmd,
        StreamCommand::Configure { .. }
            | StreamCommand::BarrierScratch
            | StreamCommand::SetAccumLen { .. }
    )
}

/// A new stream may bind to an input port when the port is drained, or
/// when leftover data is still flowing through under the trivial
/// once-per-value rate and the new stream also uses it (the FIFO contents
/// stay valid across the rebinding; non-trivial FSMs must drain so their
/// per-value indexing stays aligned).
fn in_port_rebindable(port: &crate::port::InPort, new_reuse: &revel_isa::RateFsm) -> bool {
    port.is_drained() || (port.reuse_is_trivial() && new_reuse.is_trivial())
}
