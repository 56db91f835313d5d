//! The cycle kernel: a component-clock architecture for the run loop.
//!
//! `Machine::step` is a fixed pipeline of phases (control → command issue →
//! port ticks → source streams → fabric → drain streams → retirement →
//! classification). Historically the run loop invoked it for *every* cycle
//! up to the budget, even across multi-thousand-cycle stall regimes where
//! the whole machine was waiting on one known-future deadline.
//!
//! This module restructures that into two cooperating pieces:
//!
//! * **Progress instrumentation** — every phase reports whether it mutated
//!   any component's persistent state this cycle; [`Machine::step`] returns
//!   the disjunction.
//! * **The [`NextEvent`] trait** — each stateful component (control core,
//!   region pipelines, temporal instances, lanes, the whole machine)
//!   reports the earliest *future* cycle at which a pure timer it owns can
//!   flip (`busy_until`, `reconfig_until`, `next_fire`, in-flight
//!   maturation, dPE completion).
//!
//! # The quiescence/skip invariant
//!
//! **A cycle may be skipped iff no component's observable state can change
//! in it.** The kernel establishes this conservatively: after a step that
//! made *no* progress, every phase is a pure function of (machine state,
//! timer comparisons against `now`). Machine state is unchanged by
//! definition of no-progress, and every `now` comparison in the step
//! pipeline tests one of the timers enumerated by [`NextEvent`]. Hence all
//! cycles strictly before the machine-wide event horizon replay the same
//! no-op step with the same per-lane classification, and the loop may jump
//! `now` to the horizon, bulk-recording the span via
//! [`CycleBreakdown::record_span`](crate::CycleBreakdown::record_span).
//!
//! Wake-ups are conservative: a timer crossing need not produce progress
//! (e.g. a region's `next_fire` arriving while its input port is still
//! empty). The loop then simply steps one more no-op cycle and skips again
//! from a strictly later horizon, so there is no livelock. If no component
//! reports any future event while the program is unfinished, the machine
//! is deadlocked and the loop jumps straight to the cycle budget — exactly
//! what the naive stepper would spin its way to.
//!
//! # The differential oracle
//!
//! The naive stepper is retained behind
//! [`SimOptions::reference_stepper`](crate::SimOptions::reference_stepper):
//! it never skips, and therefore trivially satisfies the invariant. Both
//! loops must produce bit-identical observable reports
//! ([`RunReport::observable`](crate::RunReport::observable)); the
//! `grid-oracle` CI job and `crates/sim/tests/differential.rs` enforce
//! this across the full workload × architecture × ablation suite plus
//! randomized stream programs.

mod control;
mod issue;
mod streams;

pub(crate) use control::{ControlCore, MachineMem};

use crate::machine::Machine;
use crate::stats::{CycleClass, StepperStats};
use crate::trace::TraceOp;
use revel_prog::RevelProgram;
use revel_scheduler::RegionSchedule;

/// A component clock: reports the earliest future cycle at which this
/// component's own timers can change its behaviour.
///
/// `after` is exclusive: implementations return the smallest owned deadline
/// strictly greater than `after`, or `None` if the component holds no
/// future deadline. Returning an *earlier-than-necessary* cycle is always
/// safe (the loop wakes, finds nothing to do, and skips again); returning a
/// *later* one would violate the quiescence invariant.
pub trait NextEvent {
    /// Earliest cycle strictly after `after` at which state can change.
    fn next_event(&self, after: u64) -> Option<u64>;
}

/// What `Machine::execute` observed while running the loop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Execution {
    /// Cycles from start to completion (or budget exhaustion).
    pub cycles: u64,
    /// True if the cycle budget or the wall-clock deadline ran out first.
    pub timed_out: bool,
    /// True if the cap that fired was the wall-clock deadline.
    pub deadline_expired: bool,
    /// Skip accounting (all zeros under the reference stepper).
    pub stats: StepperStats,
}

impl NextEvent for Machine {
    fn next_event(&self, after: u64) -> Option<u64> {
        let mut next = self.control.next_event(after);
        for lane in &self.lanes {
            if let Some(c) = lane.next_event(after) {
                next = Some(next.map_or(c, |n| n.min(c)));
            }
        }
        // A pending injected fault is a component clock: the skip loop must
        // wake at the injection cycle so the event applies exactly there.
        if let Some(c) = self.faults.next_cycle(after) {
            next = Some(next.map_or(c, |n| n.min(c)));
        }
        next
    }
}

impl Machine {
    /// Runs the cycle loop to completion or the budget, under either the
    /// event-horizon kernel or the reference stepper.
    pub(crate) fn execute(
        &mut self,
        program: &RevelProgram,
        schedules: &[Vec<RegionSchedule>],
    ) -> Execution {
        let max_cycles = self.opts.max_cycles;
        let reference = self.opts.reference_stepper;
        let deadline = self.opts.wall_deadline;
        let mut now = 0u64;
        let mut timed_out = false;
        let mut deadline_expired = false;
        let mut stats = StepperStats::default();
        // Host-loop iterations between wall-clock checks. `Instant::now()`
        // is cheap but not free; checking every iteration would tax the
        // reference stepper's 50M-cycle walks. 4096 iterations bound the
        // overshoot to well under a millisecond of simulated work.
        const DEADLINE_STRIDE: u64 = 4096;
        let mut iters = 0u64;
        loop {
            if self.program_finished(program) {
                break;
            }
            if now >= max_cycles {
                timed_out = true;
                break;
            }
            if let Some(d) = deadline {
                // Stride-gated: the deadline is a host-side safety cap, not
                // an architectural event, so an inexact firing cycle is fine
                // (the run is declared hung either way).
                if iters.is_multiple_of(DEADLINE_STRIDE) && std::time::Instant::now() >= d {
                    timed_out = true;
                    deadline_expired = true;
                    break;
                }
                iters += 1;
            }
            let progress = self.step(now, program, schedules);
            now += 1;
            if reference || progress {
                continue;
            }
            // Quiescent: cycle `now - 1` changed nothing, so every cycle
            // before the event horizon replays it verbatim. `after` is the
            // just-stepped cycle; candidates at exactly `now` yield no skip.
            let horizon = self.next_event(now - 1).unwrap_or(max_cycles).min(max_cycles);
            if horizon > now {
                let span = horizon - now;
                for lane in &mut self.lanes {
                    let class = lane.last_class;
                    lane.breakdown.record_span(class, span);
                }
                stats.skipped_cycles += span;
                stats.horizon_jumps += 1;
                now = horizon;
            }
        }
        Execution { cycles: now, timed_out, deadline_expired, stats }
    }

    /// One machine cycle. Returns `true` iff any component's persistent
    /// state changed (the per-cycle classification flags and breakdown
    /// counters are bookkeeping, not state).
    ///
    /// Phase order is architectural and load-bearing: commands issue before
    /// streams move, sources fill ports before regions fire, drains run
    /// after delivery so same-cycle forwarding works, and retirement sees
    /// the cycle's final stream state.
    pub(crate) fn step(
        &mut self,
        now: u64,
        program: &RevelProgram,
        schedules: &[Vec<RegionSchedule>],
    ) -> bool {
        for lane in &mut self.lanes {
            lane.reset_cycle_flags();
        }
        // Faults apply before any other phase so the rest of the cycle sees
        // the degraded state (a region killed at cycle C must not fire at
        // cycle C). Applying one counts as progress.
        let mut progress = self.apply_faults(now);
        progress |= self.control_step(now, program);
        progress |= self.issue_commands(now, program, schedules);
        for (li, lane) in self.lanes.iter_mut().enumerate() {
            for (pi, p) in lane.in_ports.iter_mut().enumerate() {
                if p.tick() {
                    progress = true;
                    if let Some(t) = &mut self.trace {
                        t.record(TraceOp::TickIn { lane: li as u8, port: pi as u8 });
                    }
                }
            }
        }
        progress |= self.run_source_streams(now);
        for (li, lane) in self.lanes.iter_mut().enumerate() {
            lane.fire_regions(now, li as u8, &mut self.trace);
            lane.dpe_step(now, li as u8, &mut self.trace);
            lane.deliver_outputs(now, li as u8, &mut self.trace);
        }
        progress |= self.run_drain_streams(now);
        progress |= self.retire_streams();
        let program_done = self.control.pc >= program.control.len() && !self.control.waiting;
        for lane in &mut self.lanes {
            let class = classify(lane, program_done);
            lane.breakdown.record(class);
            lane.last_class = class;
            progress |= lane.progressed;
        }
        progress
    }
}

/// Classifies what a lane did this cycle (Fig. 23 taxonomy).
///
/// Everything read here is either machine state or a per-cycle flag
/// recomputed from machine state and timer comparisons, so on a no-progress
/// cycle the classification is identical for every cycle up to the event
/// horizon — which is what lets the skip loop repeat `last_class`.
fn classify(lane: &crate::lane::Lane, program_done: bool) -> CycleClass {
    if lane.fired_systolic >= 2 {
        CycleClass::MultiIssue
    } else if lane.fired_systolic == 1 {
        CycleClass::Issue
    } else if lane.fired_temporal {
        CycleClass::Temporal
    } else if lane.draining || lane.reconfig_until != 0 {
        CycleClass::Drain
    } else if lane.bw_starved {
        CycleClass::ScrBw
    } else if lane.barrier_blocked {
        CycleClass::ScrBarrier
    } else if lane.dep_blocked {
        CycleClass::StreamDpd
    } else if lane.is_idle() {
        if program_done {
            CycleClass::Idle
        } else {
            CycleClass::CtrlOvhd
        }
    } else if lane.cmd_queue.is_empty() && lane.streams.is_empty() {
        CycleClass::CtrlOvhd
    } else {
        CycleClass::StreamDpd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::Lane;
    use crate::machine::SimOptions;
    use revel_fabric::{LaneConfig, RevelConfig};

    #[test]
    fn idle_lane_has_no_events() {
        let lane = Lane::new(&LaneConfig::paper_default(), true);
        assert_eq!(lane.next_event(0), None);
    }

    #[test]
    fn lane_reconfig_deadline_is_an_event() {
        let mut lane = Lane::new(&LaneConfig::paper_default(), true);
        lane.reconfig_until = 64;
        assert_eq!(lane.next_event(0), Some(64));
        assert_eq!(lane.next_event(63), Some(64));
        assert_eq!(lane.next_event(64), None, "deadline is exclusive of `after`");
    }

    #[test]
    fn machine_folds_control_and_lane_events() {
        let mut m = Machine::new(RevelConfig::single_lane(), SimOptions::default());
        assert_eq!(m.next_event(0), None);
        m.control.busy_until = 10;
        m.lanes[0].reconfig_until = 7;
        assert_eq!(m.next_event(0), Some(7));
        assert_eq!(m.next_event(7), Some(10));
        assert_eq!(m.next_event(10), None);
    }
}
