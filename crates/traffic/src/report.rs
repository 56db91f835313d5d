//! Per-phase reporting and SLO evaluation.
//!
//! The runner aggregates each phase's [`crate::lane::Completion`]s plus a
//! server-side stats window into a [`PhaseSummary`]; this module renders
//! the stable JSON report line (via [`crate::json`], so field order and
//! number formatting are byte-deterministic) and checks the scenario's
//! [`Slo`]s, returning one [`SloViolation`] per broken gate.

use crate::json::Value;
use crate::lane::{Completion, Outcome};
use crate::scenario::Slo;

/// Nearest-rank percentile over a **sorted** sample slice, `p` in
/// `[0, 100]`. Returns 0 for an empty slice.
///
/// # Panics
/// On a non-finite or out-of-range `p`: clamping would turn a NaN into
/// rank 0 and report the *minimum* as "p99", and a caller holding a bad
/// percentile has a bug that must not pass for a latency number.
pub fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    assert!(
        p.is_finite() && (0.0..=100.0).contains(&p),
        "percentile p must be finite and in [0, 100], got {p}"
    );
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The server-side counter window bracketing one phase (deltas of the
/// engine stats between the phase's start and end snapshots).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsWindow {
    /// Cache hits during the phase.
    pub hits: u64,
    /// Cache misses during the phase.
    pub misses: u64,
    /// Trace-replay hits during the phase.
    pub trace_hits: u64,
    /// Disk-tier hits during the phase.
    pub disk_hits: u64,
}

impl StatsWindow {
    /// hits / (hits + misses); `None` when the window saw no lookups.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }

    /// Component-wise sum (for whole-run aggregation).
    pub fn merged(&self, other: &StatsWindow) -> StatsWindow {
        StatsWindow {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            trace_hits: self.trace_hits + other.trace_hits,
            disk_hits: self.disk_hits + other.disk_hits,
        }
    }
}

/// Everything the report knows about one phase (or the whole run).
#[derive(Debug, Clone, Default)]
pub struct PhaseSummary {
    /// Requests the plan offered.
    pub offered: u64,
    /// Successful completions.
    pub ok: u64,
    /// Deadline expiries.
    pub timed_out: u64,
    /// Overload rejections that out-lived retries.
    pub overloaded: u64,
    /// Other terminal failures.
    pub errors: u64,
    /// Retry attempts performed.
    pub retries: u64,
    /// Sends that slipped behind the arrival grid.
    pub late_sends: u64,
    /// Coordinated-omission-correct latencies, µs, sorted ascending.
    pub latencies_us: Vec<u64>,
    /// Server-side counter window, when a stats connection was available.
    pub window: Option<StatsWindow>,
    /// Wall-clock phase length, seconds.
    pub wall_s: f64,
}

impl PhaseSummary {
    /// Fold a batch of lane completions (and counters) into the summary.
    /// Call [`seal`](PhaseSummary::seal) once after the last fold.
    pub fn fold(&mut self, completions: &[Completion], late_sends: u64, retries: u64) {
        self.offered += completions.len() as u64;
        self.late_sends += late_sends;
        self.retries += retries;
        for c in completions {
            match c.outcome {
                Outcome::Ok => self.ok += 1,
                Outcome::TimedOut => self.timed_out += 1,
                Outcome::Overloaded => self.overloaded += 1,
                Outcome::Error => self.errors += 1,
            }
            self.latencies_us.push(c.latency_us());
        }
    }

    /// Sort the latency samples (percentiles need it).
    pub fn seal(&mut self) {
        self.latencies_us.sort_unstable();
    }

    /// ok / offered; 1.0 for an empty phase (nothing failed).
    pub fn success_rate(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.ok as f64 / self.offered as f64
        }
    }

    /// Latency percentile in milliseconds (samples must be sealed).
    pub fn p_ms(&self, p: f64) -> f64 {
        percentile_us(&self.latencies_us, p) as f64 / 1000.0
    }

    /// Merge another phase into a whole-run aggregate.
    pub fn absorb(&mut self, other: &PhaseSummary) {
        self.offered += other.offered;
        self.ok += other.ok;
        self.timed_out += other.timed_out;
        self.overloaded += other.overloaded;
        self.errors += other.errors;
        self.retries += other.retries;
        self.late_sends += other.late_sends;
        self.latencies_us.extend_from_slice(&other.latencies_us);
        self.window = match (self.window, other.window) {
            (Some(a), Some(b)) => Some(a.merged(&b)),
            (a, b) => a.or(b),
        };
        self.wall_s += other.wall_s;
    }

    /// The stable one-line JSON report for this phase.
    pub fn json_line(&self, scenario: &str, phase: &str) -> String {
        let mut fields = vec![
            ("type".to_string(), Value::Str("scenario_phase".into())),
            ("scenario".to_string(), Value::Str(scenario.into())),
            ("phase".to_string(), Value::Str(phase.into())),
            ("offered".to_string(), Value::Num(self.offered as f64)),
            ("ok".to_string(), Value::Num(self.ok as f64)),
            ("timed_out".to_string(), Value::Num(self.timed_out as f64)),
            ("overloaded".to_string(), Value::Num(self.overloaded as f64)),
            ("errors".to_string(), Value::Num(self.errors as f64)),
            ("retries".to_string(), Value::Num(self.retries as f64)),
            ("late_sends".to_string(), Value::Num(self.late_sends as f64)),
            ("success_rate".to_string(), Value::Num(round3(self.success_rate()))),
            ("p50_ms".to_string(), Value::Num(round3(self.p_ms(50.0)))),
            ("p90_ms".to_string(), Value::Num(round3(self.p_ms(90.0)))),
            ("p99_ms".to_string(), Value::Num(round3(self.p_ms(99.0)))),
        ];
        if let Some(w) = &self.window {
            if let Some(hr) = w.hit_rate() {
                fields.push(("hit_rate".to_string(), Value::Num(round3(hr))));
            }
            fields.push(("trace_hits".to_string(), Value::Num(w.trace_hits as f64)));
            fields.push(("disk_hits".to_string(), Value::Num(w.disk_hits as f64)));
        }
        fields.push(("wall_s".to_string(), Value::Num(round3(self.wall_s))));
        Value::Obj(fields).render()
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// One broken SLO gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloViolation {
    /// The SLO's name from the scenario file.
    pub slo: String,
    /// What broke, with measured vs pinned values.
    pub detail: String,
}

impl std::fmt::Display for SloViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SLO {}: {}", self.slo, self.detail)
    }
}

/// Check every SLO against the per-phase summaries (and the whole-run
/// aggregate for `phase: "all"` gates). Phase names were validated at
/// parse time, so a missing phase here is a violation, not a panic.
pub fn evaluate_slos(
    slos: &[Slo],
    per_phase: &[(String, PhaseSummary)],
    total: &PhaseSummary,
) -> Vec<SloViolation> {
    let mut out = Vec::new();
    for slo in slos {
        let (scope, summary) = match &slo.phase {
            None => ("all".to_string(), Some(total)),
            Some(name) => (name.clone(), per_phase.iter().find(|(n, _)| n == name).map(|(_, s)| s)),
        };
        let Some(s) = summary else {
            out.push(SloViolation {
                slo: slo.name.clone(),
                detail: format!("phase {scope:?} produced no summary"),
            });
            continue;
        };
        let mut fail = |detail: String| out.push(SloViolation { slo: slo.name.clone(), detail });
        if let Some(cap) = slo.max_p50_ms {
            let got = s.p_ms(50.0);
            if got > cap {
                fail(format!("p50 {got:.3}ms above the {cap}ms ceiling (phase {scope})"));
            }
        }
        if let Some(cap) = slo.max_p99_ms {
            let got = s.p_ms(99.0);
            if got > cap {
                fail(format!("p99 {got:.3}ms above the {cap}ms ceiling (phase {scope})"));
            }
        }
        if let Some(floor) = slo.min_success_rate {
            let got = s.success_rate();
            if got < floor {
                fail(format!("success rate {got:.4} below the {floor} floor (phase {scope})"));
            }
        }
        if let Some(floor) = slo.min_hit_rate {
            match s.window.as_ref().and_then(StatsWindow::hit_rate) {
                Some(got) if got >= floor => {}
                Some(got) => {
                    fail(format!("hit rate {got:.3} below the {floor} floor (phase {scope})"))
                }
                None => fail(format!("hit rate unavailable (phase {scope}, no stats window)")),
            }
        }
        if let Some(floor) = slo.min_trace_hits {
            match s.window {
                Some(w) if w.trace_hits >= floor => {}
                Some(w) => fail(format!(
                    "trace hits {} below the {floor} floor (phase {scope})",
                    w.trace_hits
                )),
                None => fail(format!("trace hits unavailable (phase {scope}, no stats window)")),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let us: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&us, 50.0), 50);
        assert_eq!(percentile_us(&us, 90.0), 90);
        assert_eq!(percentile_us(&us, 99.0), 99);
        assert_eq!(percentile_us(&us, 100.0), 100);
        assert_eq!(percentile_us(&us, 0.0), 1);
        assert_eq!(percentile_us(&[], 99.0), 0);
        assert_eq!(percentile_us(&[1, 2, 3], 50.0), 2);
    }

    #[test]
    fn percentile_boundaries_are_exact() {
        let us: Vec<u64> = (1..=10).collect();
        // Finite edges of the valid range are legal, not near-misses.
        assert_eq!(percentile_us(&us, 0.0), 1);
        assert_eq!(percentile_us(&us, 100.0), 10);
        // A single sample answers every percentile.
        assert_eq!(percentile_us(&[7], 99.9), 7);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn percentile_rejects_nan() {
        let _ = percentile_us(&[1, 2, 3], f64::NAN);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn percentile_rejects_infinity() {
        let _ = percentile_us(&[1, 2, 3], f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "in [0, 100]")]
    fn percentile_rejects_out_of_range() {
        let _ = percentile_us(&[1, 2, 3], 100.5);
    }

    #[test]
    #[should_panic(expected = "in [0, 100]")]
    fn percentile_rejects_negative() {
        let _ = percentile_us(&[1, 2, 3], -1.0);
    }
}
