//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a compact, `Copy`-able spec carried on
//! [`SimOptions`](crate::SimOptions): a seed, an event count, an injection
//! window, and a bitmask of enabled fault classes. At the start of
//! [`Machine::run`](crate::Machine::run) the plan is expanded through the
//! workspace's seeded SplitMix64 generator into a sorted list of concrete
//! [`FaultEvent`]s, so the same plan replays bit-identically on every run,
//! on every worker count, and under both the event-horizon kernel and the
//! reference stepper (the differential-stepper invariant extends to
//! faulted runs).
//!
//! # How events compose with the event-horizon kernel
//!
//! A pending fault is a component clock like any other: the machine's
//! [`NextEvent`](crate::NextEvent) fold includes the next unapplied event's
//! cycle, so the skip loop can never jump past an injection point. The
//! apply phase runs first in `Machine::step`, mutates state at the exact
//! programmed cycle, and reports progress, which keeps the quiescence
//! invariant intact: a skipped span provably contains no fault.
//!
//! # What a fault does
//!
//! Targets are resolved *at application time* against live machine state
//! (`pick % #regions`, `pick % #ports`), which keeps the plan independent
//! of the program being run. An event that finds nothing to break — a port
//! with an empty FIFO, a region already dead — is recorded as missed, not
//! applied. The run's outcome is [`RunOutcome::Faulted`] iff at least one
//! event applied; the attached [`FaultSnapshot`] names every event, what it
//! hit, and the first cycle at which machine state observably diverged from
//! the clean run.

use revel_isa::Rng;
use std::fmt;

/// Enables dead-PE events (a region's pipeline stops firing permanently).
pub const FAULT_DEAD_PE: u8 = 1 << 0;
/// Enables transient PE stalls (a region cannot fire for N cycles).
pub const FAULT_STALL_PE: u8 = 1 << 1;
/// Enables port drops (the vector at an input-port FIFO head vanishes).
pub const FAULT_DROP_PORT: u8 = 1 << 2;
/// Enables bit flips (one bit of a buffered stream value is inverted).
pub const FAULT_BIT_FLIP: u8 = 1 << 3;
/// All fault classes.
pub const FAULT_ALL: u8 = FAULT_DEAD_PE | FAULT_STALL_PE | FAULT_DROP_PORT | FAULT_BIT_FLIP;

/// A compact, deterministic fault-injection spec.
///
/// `Copy + Eq + Hash` so it rides on [`SimOptions`](crate::SimOptions)
/// (and over the `revel-serve` wire) without breaking those derives; the
/// concrete event list is derived, never stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Seed for the event expansion.
    pub seed: u64,
    /// Number of events to inject.
    pub count: u32,
    /// Events land uniformly in cycles `[1, window]` (clamped to ≥ 1).
    pub window: u64,
    /// Bitmask of enabled fault classes ([`FAULT_ALL`] etc.). An empty
    /// mask expands to no events.
    pub kinds: u8,
}

impl FaultPlan {
    /// A plan drawing from every fault class.
    pub fn new(seed: u64, count: u32, window: u64) -> Self {
        FaultPlan { seed, count, window, kinds: FAULT_ALL }
    }

    /// Restricts the plan to the given fault classes.
    pub fn with_kinds(self, kinds: u8) -> Self {
        FaultPlan { kinds, ..self }
    }

    /// Expands the spec into concrete events, sorted by injection cycle.
    ///
    /// Deterministic: the same plan and lane count always yield the same
    /// list. Raw target picks are stored unresolved (they are taken modulo
    /// the live region/port count when the event fires).
    pub fn expand(&self, num_lanes: usize) -> Vec<FaultEvent> {
        let mut rng = Rng::seed_from_u64(self.seed);
        let kinds: Vec<u8> = [FAULT_DEAD_PE, FAULT_STALL_PE, FAULT_DROP_PORT, FAULT_BIT_FLIP]
            .into_iter()
            .filter(|k| self.kinds & k != 0)
            .collect();
        if kinds.is_empty() || num_lanes == 0 {
            return Vec::new();
        }
        let window = self.window.max(1);
        let mut events = Vec::with_capacity(self.count as usize);
        for _ in 0..self.count {
            // Draw order is part of the seed contract: cycle, lane, class,
            // then class parameters.
            let cycle = 1 + (rng.next_u64() % window);
            let lane = rng.gen_index(num_lanes) as u32;
            let kind = match kinds[rng.gen_index(kinds.len())] {
                FAULT_DEAD_PE => FaultKind::DeadPe { region: rng.next_u64() as u32 },
                FAULT_STALL_PE => FaultKind::StallPe {
                    region: rng.next_u64() as u32,
                    cycles: 16 + rng.gen_index(2048) as u32,
                },
                FAULT_DROP_PORT => FaultKind::DropPort { port: rng.next_u64() as u32 },
                _ => {
                    FaultKind::BitFlip { port: rng.next_u64() as u32, bit: rng.gen_index(64) as u8 }
                }
            };
            events.push(FaultEvent { cycle, lane, kind });
        }
        // Stable sort: simultaneous events keep their draw order, so ties
        // resolve identically everywhere.
        events.sort_by_key(|e| e.cycle);
        events
    }
}

/// One concrete injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The targeted region's pipeline stops firing permanently (a dead FU
    /// datapath; already-matured results still deliver).
    DeadPe {
        /// Raw region pick (`% #regions` at application).
        region: u32,
    },
    /// The targeted region cannot fire for `cycles` cycles.
    StallPe {
        /// Raw region pick (`% #regions` at application).
        region: u32,
        /// Stall duration in cycles.
        cycles: u32,
    },
    /// The vector at the targeted input port's FIFO head is dropped.
    DropPort {
        /// Raw port pick (`% #in-ports` at application).
        port: u32,
    },
    /// One bit of the first valid lane buffered at the targeted input port
    /// is inverted.
    BitFlip {
        /// Raw port pick (`% #in-ports` at application).
        port: u32,
        /// Bit index within the f64 pattern (0–63).
        bit: u8,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::DeadPe { region } => write!(f, "dead-pe region%{region}"),
            FaultKind::StallPe { region, cycles } => {
                write!(f, "stall-pe region%{region} for {cycles}")
            }
            FaultKind::DropPort { port } => write!(f, "drop-port in%{port}"),
            FaultKind::BitFlip { port, bit } => write!(f, "bit-flip in%{port} bit {bit}"),
        }
    }
}

/// A fault scheduled for a specific cycle and lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Machine cycle at which the fault fires.
    pub cycle: u64,
    /// Target lane.
    pub lane: u32,
    /// What breaks.
    pub kind: FaultKind,
}

/// What one injected event did when it fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Cycle at which the event was applied (== its scheduled cycle).
    pub cycle: u64,
    /// Target lane.
    pub lane: u32,
    /// The fault.
    pub kind: FaultKind,
    /// True if machine state was actually mutated (a drop on an empty
    /// port or a second kill of a dead region is a recorded miss).
    pub applied: bool,
}

/// Structured account of a faulted run, attached to
/// [`RunReport::fault`](crate::RunReport::fault).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSnapshot {
    /// Every event that fired, in application order.
    pub records: Vec<FaultRecord>,
    /// Events whose cycle was never reached (the program finished or the
    /// budget ran out first).
    pub pending: u32,
    /// First cycle at which an applied fault mutated machine state — the
    /// first observable divergence from the clean run. `None` when every
    /// event missed.
    pub first_divergence: Option<u64>,
}

impl FaultSnapshot {
    /// Number of events that mutated state.
    pub fn applied_count(&self) -> usize {
        self.records.iter().filter(|r| r.applied).count()
    }

    /// True if any event mutated state (the run diverged).
    pub fn any_applied(&self) -> bool {
        self.first_divergence.is_some()
    }
}

impl fmt::Display for FaultSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "faults: {} applied, {} missed, {} pending, first_divergence={}",
            self.applied_count(),
            self.records.len() - self.applied_count(),
            self.pending,
            match self.first_divergence {
                Some(c) => c.to_string(),
                None => "none".to_string(),
            }
        )?;
        for r in &self.records {
            writeln!(
                f,
                "  cycle {} lane {}: {} [{}]",
                r.cycle,
                r.lane,
                r.kind,
                if r.applied { "applied" } else { "missed" }
            )?;
        }
        Ok(())
    }
}

/// How a run ended, folding fault detection into the completion status.
///
/// `Faulted` takes precedence over `TimedOut`: a fault that deadlocks the
/// machine *is* the interesting outcome, and a run with applied faults is
/// untrusted regardless of whether it finished.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The program ran to completion with no applied fault.
    Completed,
    /// The cycle budget or wall deadline expired with no applied fault.
    TimedOut,
    /// At least one injected fault mutated machine state.
    Faulted {
        /// The structured fault account.
        snapshot: FaultSnapshot,
    },
}

/// Per-run fault machinery on the [`Machine`](crate::Machine): the expanded
/// event queue, a cursor over it, and the application log.
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultState {
    events: Vec<FaultEvent>,
    cursor: usize,
    records: Vec<FaultRecord>,
    first_divergence: Option<u64>,
    /// True when a plan was present this run (an empty expansion still
    /// yields a snapshot, so callers can tell "no plan" from "no events").
    active: bool,
}

impl FaultState {
    pub(crate) fn from_plan(plan: Option<FaultPlan>, num_lanes: usize) -> Self {
        match plan {
            None => FaultState::default(),
            Some(p) => {
                FaultState { events: p.expand(num_lanes), active: true, ..Default::default() }
            }
        }
    }

    /// The next unapplied event's cycle strictly after `after`, for the
    /// machine's [`NextEvent`](crate::NextEvent) fold.
    pub(crate) fn next_cycle(&self, after: u64) -> Option<u64> {
        self.events[self.cursor..].iter().map(|e| e.cycle).find(|c| *c > after)
    }

    pub(crate) fn snapshot(&self) -> Option<FaultSnapshot> {
        self.active.then(|| FaultSnapshot {
            records: self.records.clone(),
            pending: (self.events.len() - self.cursor) as u32,
            first_divergence: self.first_divergence,
        })
    }
}

impl crate::machine::Machine {
    /// Applies every event scheduled for `now`. Returns `true` iff any
    /// mutated machine state (the step-loop progress contract).
    pub(crate) fn apply_faults(&mut self, now: u64) -> bool {
        let mut progress = false;
        while let Some(ev) = self.faults.events.get(self.faults.cursor).copied() {
            if ev.cycle > now {
                break;
            }
            self.faults.cursor += 1;
            let lane = &mut self.lanes[ev.lane as usize];
            let applied = lane.apply_fault(ev.kind, now);
            if applied {
                progress = true;
                self.faults.first_divergence.get_or_insert(now);
            }
            self.faults.records.push(FaultRecord {
                cycle: ev.cycle,
                lane: ev.lane,
                kind: ev.kind,
                applied,
            });
        }
        progress
    }

    pub(crate) fn reset_faults(&mut self) {
        self.faults = FaultState::from_plan(self.opts.fault_plan, self.lanes.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic_and_sorted() {
        let plan = FaultPlan::new(0xFA17, 32, 10_000);
        let a = plan.expand(8);
        let b = plan.expand(8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        assert!(a.windows(2).all(|w| w[0].cycle <= w[1].cycle), "sorted by cycle");
        assert!(a.iter().all(|e| (1..=10_000).contains(&e.cycle)));
        assert!(a.iter().all(|e| e.lane < 8));
        let c = FaultPlan::new(0xFA18, 32, 10_000).expand(8);
        assert_ne!(a, c, "different seeds draw different events");
    }

    #[test]
    fn kind_mask_restricts_expansion() {
        let plan = FaultPlan::new(7, 64, 1000).with_kinds(FAULT_BIT_FLIP);
        let events = plan.expand(2);
        assert!(events.iter().all(|e| matches!(e.kind, FaultKind::BitFlip { .. })));
        assert!(plan.with_kinds(0).expand(2).is_empty(), "empty mask expands to nothing");
    }

    #[test]
    fn fault_state_next_cycle_tracks_cursor() {
        let plan = FaultPlan::new(3, 4, 100).with_kinds(FAULT_DROP_PORT);
        let mut st = FaultState::from_plan(Some(plan), 1);
        let first = st.events[0].cycle;
        assert_eq!(st.next_cycle(0), Some(first));
        assert_eq!(st.next_cycle(first), st.events.iter().map(|e| e.cycle).find(|c| *c > first));
        st.cursor = st.events.len();
        assert_eq!(st.next_cycle(0), None, "consumed events are not future clocks");
        assert!(FaultState::from_plan(None, 1).snapshot().is_none());
        assert!(st.snapshot().is_some(), "active plan always yields a snapshot");
    }

    #[test]
    fn snapshot_display_is_stable() {
        let snap = FaultSnapshot {
            records: vec![FaultRecord {
                cycle: 9,
                lane: 0,
                kind: FaultKind::BitFlip { port: 5, bit: 51 },
                applied: true,
            }],
            pending: 2,
            first_divergence: Some(9),
        };
        let text = format!("{snap}");
        assert_eq!(
            text,
            "faults: 1 applied, 0 missed, 2 pending, first_divergence=9\n\
             \x20 cycle 9 lane 0: bit-flip in%5 bit 51 [applied]\n"
        );
    }
}
