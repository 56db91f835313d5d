//! Cycle-level statistics: the bottleneck taxonomy of Fig. 23 plus event
//! counters for the power model.

use crate::fault::{FaultSnapshot, RunOutcome};
use crate::snapshot::DeadlockSnapshot;
use revel_fabric::EventCounts;
use std::fmt::Write as _;

/// What a lane did (or was blocked on) during one cycle, in priority order.
/// These are exactly the categories of the paper's Fig. 23.
///
/// The discriminants are the indices into [`CycleBreakdown`]'s count array
/// (and match the position in [`CycleClass::ALL`]); `record`/`count` run
/// per lane per cycle, so the mapping must stay O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum CycleClass {
    /// Two or more systolic regions fired this cycle.
    MultiIssue = 0,
    /// Exactly one systolic region fired.
    Issue = 1,
    /// Only a temporal (dataflow-PE) instruction issued.
    Temporal = 2,
    /// The fabric was draining for reconfiguration.
    Drain = 3,
    /// A stream wanted to move data but scratchpad bandwidth was exhausted.
    ScrBw = 4,
    /// Blocked on a scratchpad barrier.
    ScrBarrier = 5,
    /// Waiting on a dependence: a region's input port was empty while its
    /// producing stream had not delivered yet.
    StreamDpd = 6,
    /// Waiting on the control core: no commands in the queue but the
    /// program was not finished.
    CtrlOvhd = 7,
    /// Nothing to do (program finished or lane unused).
    Idle = 8,
}

impl CycleClass {
    /// All classes in display order (Fig. 23 stacking order).
    pub const ALL: [CycleClass; 9] = [
        CycleClass::MultiIssue,
        CycleClass::Issue,
        CycleClass::Temporal,
        CycleClass::Drain,
        CycleClass::ScrBw,
        CycleClass::ScrBarrier,
        CycleClass::StreamDpd,
        CycleClass::CtrlOvhd,
        CycleClass::Idle,
    ];

    /// Index into [`CycleBreakdown`]'s count array (the discriminant).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            CycleClass::MultiIssue => "multi-issue",
            CycleClass::Issue => "issue",
            CycleClass::Temporal => "temporal",
            CycleClass::Drain => "drain",
            CycleClass::ScrBw => "scr-b/w",
            CycleClass::ScrBarrier => "scr-barrier",
            CycleClass::StreamDpd => "stream-dpd",
            CycleClass::CtrlOvhd => "ctrl-ovhd",
            CycleClass::Idle => "idle",
        }
    }
}

/// Per-lane cycle breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    counts: [u64; 9],
}

impl CycleBreakdown {
    /// Records one cycle of the given class.
    #[inline]
    pub fn record(&mut self, class: CycleClass) {
        self.counts[class.index()] += 1;
    }

    /// Records `n` consecutive cycles of the given class in O(1).
    ///
    /// The event-horizon loop uses this to account for a skipped stall
    /// span; it must be indistinguishable from calling [`record`] `n`
    /// times (pinned by a regression test).
    ///
    /// [`record`]: CycleBreakdown::record
    #[inline]
    pub fn record_span(&mut self, class: CycleClass, n: u64) {
        self.counts[class.index()] += n;
    }

    /// Cycles spent in a class.
    #[inline]
    pub fn count(&self, class: CycleClass) -> u64 {
        self.counts[class.index()]
    }

    /// Total classified cycles.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of cycles in a class (0 when no cycles recorded).
    pub fn fraction(&self, class: CycleClass) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.count(class) as f64 / t as f64
        }
    }

    /// Merges another breakdown into this one.
    pub fn add(&mut self, other: &CycleBreakdown) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Cycles doing useful fabric work (multi-issue + issue + temporal).
    pub fn busy(&self) -> u64 {
        self.count(CycleClass::MultiIssue)
            + self.count(CycleClass::Issue)
            + self.count(CycleClass::Temporal)
    }
}

/// How the run loop spent (or skipped) host work. Pure measurement of the
/// simulator itself — deliberately *not* part of the observable report,
/// because the reference stepper skips nothing by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepperStats {
    /// Machine cycles the event-horizon loop advanced past without
    /// stepping (their breakdown classes were bulk-recorded).
    pub skipped_cycles: u64,
    /// Number of distinct horizon jumps (each covers ≥1 skipped cycle).
    pub horizon_jumps: u64,
}

/// The report returned by a simulation run.
///
/// Deliberately does **not** derive `PartialEq`: the event-horizon loop and
/// the reference stepper differ in [`RunReport::stepper`] by design, so
/// whole-struct equality would be a trap. Compare runs with
/// [`RunReport::observable`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Total cycles from start to completion.
    pub cycles: u64,
    /// Per-lane cycle breakdowns.
    pub lane_breakdown: Vec<CycleBreakdown>,
    /// Aggregate event counts (for the power model).
    pub events: EventCounts,
    /// Stream commands issued by the control core.
    pub commands_issued: u64,
    /// True if the run hit the cycle limit before completing (deadlock or
    /// runaway program).
    pub timed_out: bool,
    /// True if the cap that ended the run was the *wall-clock* deadline
    /// ([`SimOptions::wall_deadline`](crate::SimOptions::wall_deadline))
    /// rather than the cycle budget. Host-side accounting like
    /// [`RunReport::stepper`]: deliberately excluded from the observable
    /// report and the canonical text, because where the wall clock lands is
    /// not deterministic.
    pub deadline_expired: bool,
    /// Machine state at timeout (`Some` iff [`RunReport::timed_out`]).
    pub deadlock: Option<DeadlockSnapshot>,
    /// Fault-injection account (`Some` iff the run carried a
    /// [`FaultPlan`](crate::FaultPlan), even when every event missed).
    /// Part of the observable report: both steppers must inject and record
    /// identically.
    pub fault: Option<FaultSnapshot>,
    /// Host-side loop accounting (not architecturally observable).
    pub stepper: StepperStats,
}

/// The architecturally observable slice of a [`RunReport`]: every field
/// both steppers must agree on bit-for-bit. Borrowed views keep the
/// comparison allocation-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservableReport<'a> {
    /// Total cycles from start to completion.
    pub cycles: u64,
    /// Per-lane cycle breakdowns.
    pub lane_breakdown: &'a [CycleBreakdown],
    /// Aggregate event counts.
    pub events: &'a EventCounts,
    /// Stream commands issued by the control core.
    pub commands_issued: u64,
    /// True if the run hit the cycle limit.
    pub timed_out: bool,
    /// Machine state at timeout, if any.
    pub deadlock: Option<&'a DeadlockSnapshot>,
    /// Fault-injection account, if the run carried a plan.
    pub fault: Option<&'a FaultSnapshot>,
}

impl RunReport {
    /// Aggregate breakdown across lanes.
    pub fn total_breakdown(&self) -> CycleBreakdown {
        let mut total = CycleBreakdown::default();
        for b in &self.lane_breakdown {
            total.add(b);
        }
        total
    }

    /// Mean fabric utilization across lanes (busy cycles / total cycles).
    pub fn utilization(&self) -> f64 {
        let total = self.total_breakdown();
        if total.total() == 0 {
            0.0
        } else {
            total.busy() as f64 / total.total() as f64
        }
    }

    /// The slice of the report both steppers must reproduce identically.
    pub fn observable(&self) -> ObservableReport<'_> {
        ObservableReport {
            cycles: self.cycles,
            lane_breakdown: &self.lane_breakdown,
            events: &self.events,
            commands_issued: self.commands_issued,
            timed_out: self.timed_out,
            deadlock: self.deadlock.as_ref(),
            fault: self.fault.as_ref(),
        }
    }

    /// How the run ended, folding fault detection into the completion
    /// status. [`RunOutcome::Faulted`] wins over [`RunOutcome::TimedOut`]:
    /// an applied fault makes the run untrusted regardless of whether it
    /// finished (and a fault that deadlocks the machine *is* the outcome
    /// of interest).
    pub fn outcome(&self) -> RunOutcome {
        match &self.fault {
            Some(s) if s.any_applied() => RunOutcome::Faulted { snapshot: s.clone() },
            _ if self.timed_out => RunOutcome::TimedOut,
            _ => RunOutcome::Completed,
        }
    }

    /// True iff an injected fault actually mutated machine state. Result
    /// memoizers must refuse to cache such runs (same rule as
    /// [`RunReport::deadline_expired`]).
    pub fn faulted(&self) -> bool {
        self.fault.as_ref().is_some_and(|s| s.any_applied())
    }

    /// Canonical text rendering of the observable state, suitable for
    /// byte-for-byte diffing in the `grid-oracle` CI job. Every field
    /// here is deterministic (derived `Debug` on plain structs; no hash
    /// containers).
    pub fn canonical_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "cycles={}", self.cycles);
        let _ = writeln!(s, "commands_issued={}", self.commands_issued);
        let _ = writeln!(s, "timed_out={}", self.timed_out);
        let _ = writeln!(s, "events={:?}", self.events);
        for (i, b) in self.lane_breakdown.iter().enumerate() {
            let _ = write!(s, "lane{i}:");
            for c in CycleClass::ALL {
                let _ = write!(s, " {}={}", c.label(), b.count(c));
            }
            s.push('\n');
        }
        match &self.deadlock {
            None => s.push_str("deadlock=none\n"),
            Some(d) => {
                let _ = write!(s, "{d}");
            }
        }
        // Emitted only for runs that carried a fault plan, so clean runs'
        // canonical text is byte-identical to what it was before fault
        // injection existed.
        if let Some(fault) = &self.fault {
            let _ = write!(s, "{fault}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_records_and_fractions() {
        let mut b = CycleBreakdown::default();
        b.record(CycleClass::Issue);
        b.record(CycleClass::Issue);
        b.record(CycleClass::CtrlOvhd);
        b.record(CycleClass::MultiIssue);
        assert_eq!(b.total(), 4);
        assert_eq!(b.count(CycleClass::Issue), 2);
        assert!((b.fraction(CycleClass::Issue) - 0.5).abs() < 1e-12);
        assert_eq!(b.busy(), 3);
    }

    #[test]
    fn breakdown_merge() {
        let mut a = CycleBreakdown::default();
        a.record(CycleClass::Drain);
        let mut b = CycleBreakdown::default();
        b.record(CycleClass::Drain);
        b.record(CycleClass::Idle);
        a.add(&b);
        assert_eq!(a.count(CycleClass::Drain), 2);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn labels_unique() {
        let labels: std::collections::HashSet<_> =
            CycleClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), CycleClass::ALL.len());
    }

    #[test]
    fn empty_fraction_is_zero() {
        let b = CycleBreakdown::default();
        assert_eq!(b.fraction(CycleClass::Issue), 0.0);
    }

    /// Pins the bulk-recording contract of the event-horizon loop: a span
    /// of `n` skipped cycles must account identically to `n` individually
    /// recorded cycles, for every class.
    #[test]
    fn record_span_equals_repeated_record() {
        for class in CycleClass::ALL {
            for n in [0u64, 1, 2, 7, 1_000_003] {
                let mut spanned = CycleBreakdown::default();
                spanned.record(CycleClass::Issue); // pre-existing state
                let mut looped = spanned.clone();
                spanned.record_span(class, n);
                for _ in 0..n.min(10_000) {
                    looped.record(class);
                }
                if n <= 10_000 {
                    assert_eq!(spanned, looped, "class={class:?} n={n}");
                } else {
                    // Too large to loop: check the count arithmetic alone.
                    assert_eq!(
                        spanned.count(class),
                        looped.count(class) + (n - 10_000),
                        "class={class:?} n={n}"
                    );
                }
            }
        }
    }

    fn report(cycles: u64, skipped: u64) -> RunReport {
        let mut b = CycleBreakdown::default();
        b.record(CycleClass::Issue);
        RunReport {
            cycles,
            lane_breakdown: vec![b],
            events: EventCounts::default(),
            commands_issued: 3,
            timed_out: false,
            deadline_expired: false,
            deadlock: None,
            fault: None,
            stepper: StepperStats { skipped_cycles: skipped, horizon_jumps: skipped.min(1) },
        }
    }

    /// Stepper accounting must not leak into the observable comparison:
    /// two runs that differ only in skipped-cycle stats are observably
    /// identical.
    #[test]
    fn observable_ignores_stepper_stats() {
        let a = report(10, 0);
        let b = report(10, 7);
        assert_eq!(a.observable(), b.observable());
        assert_eq!(a.canonical_text(), b.canonical_text());
        let c = report(11, 7);
        assert_ne!(a.observable(), c.observable());
        assert_ne!(a.canonical_text(), c.canonical_text());
    }

    #[test]
    fn class_index_matches_display_order() {
        // `record`/`count` index the counts array by discriminant; the
        // discriminants must stay aligned with the Fig. 23 stacking order.
        for (i, c) in CycleClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
    }
}
