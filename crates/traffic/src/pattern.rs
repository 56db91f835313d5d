//! Composable arrival processes over phased timelines.
//!
//! A [`PatternKind`] describes *when* requests arrive inside one phase; the
//! [`PatternEngine`] expands it into a sorted list of arrival offsets in
//! simulated microseconds. Everything is pure and seeded — generating a
//! ten-minute Poisson storm takes microseconds of wall clock, which is what
//! makes the shape tests (mean-rate sanity over long horizons) cheap.

use revel_isa::Rng;

/// Hard cap on arrivals a single phase may expand to. A scenario that
/// requests more is rejected with a structured error instead of allocating
/// without bound — scenario files are untrusted input like wire frames.
pub const MAX_ARRIVALS_PER_PHASE: usize = 1_000_000;

/// Highest accepted rate, in requests/second. Enough for any storm this
/// harness can deliver; anything above is a typo or hostile input.
pub const MAX_RPS: f64 = 1_000_000.0;

/// An arrival process for one phase. Rates are open-loop: arrivals are laid
/// on an absolute grid up front and the load generator is expected to chase
/// the grid, not the server (coordinated-omission correctness lives in
/// [`crate::lane`]).
#[derive(Debug, Clone, PartialEq)]
pub enum PatternKind {
    /// No arrivals — a quiet gap (e.g. the drain before a thundering herd).
    Silence,
    /// Evenly spaced arrivals at a fixed rate: arrival `k` at `k / rps`.
    Constant {
        /// Steady request rate, requests/second.
        rps: f64,
    },
    /// Open-loop Poisson process: exponential inter-arrival gaps with the
    /// given mean rate.
    Poisson {
        /// Mean request rate, requests/second.
        rps: f64,
    },
    /// A burst train: every `every_ms`, `count` requests land together,
    /// optionally smeared uniformly over `spread_ms`.
    Burst {
        /// Requests per burst.
        count: u64,
        /// Burst period, milliseconds.
        every_ms: u64,
        /// Uniform smear applied to each request inside its burst, ms.
        spread_ms: u64,
    },
    /// Linear ramp from `from_rps` to `to_rps` across the phase; arrival
    /// times invert the cumulative intensity analytically, so the schedule
    /// is exact and deterministic.
    Ramp {
        /// Rate at phase start, requests/second.
        from_rps: f64,
        /// Rate at phase end, requests/second.
        to_rps: f64,
    },
    /// Superimpose several processes (e.g. a Poisson baseline with a burst
    /// train on top): the union of all parts' arrivals, re-sorted.
    Overlay {
        /// The component processes.
        parts: Vec<PatternKind>,
    },
}

/// A structured pattern-expansion failure (bad parameter or blowup past
/// [`MAX_ARRIVALS_PER_PHASE`]). Never a panic: scenario files are input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternError {
    /// Human-readable reason, e.g. `"burst would produce 2000000 arrivals"`.
    pub message: String,
}

impl std::fmt::Display for PatternError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for PatternError {}

fn err(message: impl Into<String>) -> PatternError {
    PatternError { message: message.into() }
}

fn check_rate(name: &str, rps: f64) -> Result<(), PatternError> {
    if !rps.is_finite() || rps < 0.0 {
        return Err(err(format!("{name} must be a finite non-negative rate, got {rps}")));
    }
    if rps > MAX_RPS {
        return Err(err(format!("{name} {rps} exceeds the {MAX_RPS} rps cap")));
    }
    Ok(())
}

fn push_capped(out: &mut Vec<u64>, at_us: u64) -> Result<(), PatternError> {
    if out.len() >= MAX_ARRIVALS_PER_PHASE {
        return Err(err(format!("phase expands past the {MAX_ARRIVALS_PER_PHASE}-arrival cap")));
    }
    out.push(at_us);
    Ok(())
}

impl PatternKind {
    /// Validate parameters without expanding arrivals. [`arrivals_us`]
    /// re-checks everything; this exists so scenario parsing can reject a
    /// bad pattern eagerly with a field-level error.
    ///
    /// [`arrivals_us`]: PatternKind::arrivals_us
    pub fn validate(&self) -> Result<(), PatternError> {
        match self {
            PatternKind::Silence => Ok(()),
            PatternKind::Constant { rps } => check_rate("rps", *rps),
            PatternKind::Poisson { rps } => check_rate("rps", *rps),
            PatternKind::Burst { count, every_ms, spread_ms } => {
                if *every_ms == 0 {
                    return Err(err("burst every_ms must be >= 1"));
                }
                if *count as usize > MAX_ARRIVALS_PER_PHASE {
                    return Err(err(format!("burst count {count} exceeds the arrival cap")));
                }
                if *spread_ms >= *every_ms {
                    return Err(err("burst spread_ms must be smaller than every_ms"));
                }
                Ok(())
            }
            PatternKind::Ramp { from_rps, to_rps } => {
                check_rate("from_rps", *from_rps)?;
                check_rate("to_rps", *to_rps)
            }
            PatternKind::Overlay { parts } => {
                if parts.is_empty() {
                    return Err(err("overlay needs at least one part"));
                }
                if parts.len() > 16 {
                    return Err(err("overlay is capped at 16 parts"));
                }
                for (i, part) in parts.iter().enumerate() {
                    if matches!(part, PatternKind::Overlay { .. }) {
                        return Err(err(format!("overlay part {i}: overlays do not nest")));
                    }
                    part.validate()?;
                }
                Ok(())
            }
        }
    }

    /// Expand this pattern into sorted arrival offsets (µs from phase
    /// start, strictly `< duration_us`). Pure: the same `rng` state yields
    /// the same schedule.
    pub fn arrivals_us(&self, duration_us: u64, rng: &mut Rng) -> Result<Vec<u64>, PatternError> {
        self.validate()?;
        let dur_s = duration_us as f64 / 1e6;
        let mut out = Vec::new();
        match self {
            PatternKind::Silence => {}
            PatternKind::Constant { rps } => {
                if *rps > 0.0 {
                    let mut k = 0u64;
                    loop {
                        let t = k as f64 / rps;
                        if t >= dur_s {
                            break;
                        }
                        push_capped(&mut out, (t * 1e6) as u64)?;
                        k += 1;
                    }
                }
            }
            PatternKind::Poisson { rps } => {
                if *rps > 0.0 {
                    let mut t = 0.0f64;
                    loop {
                        // Exponential gap; 1 - u ∈ (0, 1] so ln is finite.
                        t += -(1.0 - rng.gen_f64()).ln() / rps;
                        if t >= dur_s {
                            break;
                        }
                        push_capped(&mut out, (t * 1e6) as u64)?;
                    }
                }
            }
            PatternKind::Burst { count, every_ms, spread_ms } => {
                let mut base_us = 0u64;
                while base_us < duration_us {
                    for _ in 0..*count {
                        let jitter_us = if *spread_ms == 0 {
                            0
                        } else {
                            rng.gen_index((*spread_ms * 1000 + 1) as usize) as u64
                        };
                        let at = base_us + jitter_us;
                        if at < duration_us {
                            push_capped(&mut out, at)?;
                        }
                    }
                    base_us += every_ms * 1000;
                }
            }
            PatternKind::Ramp { from_rps, to_rps } => {
                // Cumulative intensity Λ(t) = from·t + (to−from)·t²/(2D);
                // arrival k solves Λ(t) = k. The citardauq form
                // t = 2k / (from + sqrt(from² + 4ak)), a = (to−from)/(2D),
                // stays stable as a → 0 and handles decreasing ramps.
                let (r0, r1) = (*from_rps, *to_rps);
                if r0 > 0.0 || r1 > 0.0 {
                    let a = (r1 - r0) / (2.0 * dur_s);
                    let mut k = 0u64;
                    loop {
                        let t = if k == 0 {
                            if r0 > 0.0 {
                                0.0
                            } else {
                                // Rate starts at zero: first arrival once
                                // the ramp has accumulated unit intensity.
                                k = 1;
                                continue;
                            }
                        } else {
                            let disc = r0 * r0 + 4.0 * a * k as f64;
                            if disc < 0.0 {
                                break; // decreasing ramp ran out of mass
                            }
                            let denom = r0 + disc.sqrt();
                            if denom <= 0.0 {
                                break;
                            }
                            if a == 0.0 {
                                k as f64 / r0
                            } else {
                                2.0 * k as f64 / denom
                            }
                        };
                        if !t.is_finite() || t >= dur_s {
                            break;
                        }
                        push_capped(&mut out, (t * 1e6) as u64)?;
                        k += 1;
                    }
                }
            }
            PatternKind::Overlay { parts } => {
                for part in parts {
                    let sub = part.arrivals_us(duration_us, rng)?;
                    if out.len() + sub.len() > MAX_ARRIVALS_PER_PHASE {
                        return Err(err(format!(
                            "overlay expands past the {MAX_ARRIVALS_PER_PHASE}-arrival cap"
                        )));
                    }
                    out.extend(sub);
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }
}

/// Expands patterns into arrival schedules with per-phase seed streams, so
/// phase `i` of a scenario always sees the same randomness regardless of
/// what earlier phases consumed.
#[derive(Debug, Clone, Copy)]
pub struct PatternEngine {
    seed: u64,
}

impl PatternEngine {
    /// An engine rooted at `seed`; the same seed reproduces every phase.
    pub fn new(seed: u64) -> Self {
        PatternEngine { seed }
    }

    /// The root seed this engine was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Expand `pattern` for phase `phase_index` over `duration_ms` into
    /// sorted arrival offsets in µs from phase start.
    pub fn phase_arrivals(
        &self,
        phase_index: usize,
        pattern: &PatternKind,
        duration_ms: u64,
    ) -> Result<Vec<u64>, PatternError> {
        let mut rng = Rng::seed_from_u64(crate::stream_seed(self.seed, phase_index as u64));
        pattern.arrivals_us(duration_ms.saturating_mul(1000), &mut rng)
    }
}
