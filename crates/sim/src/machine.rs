//! The whole accelerator: control core, lanes, buses, shared scratchpad,
//! and run orchestration (validation, verification, spatial compilation,
//! and report assembly). The cycle-by-cycle pipeline itself lives in
//! [`crate::kernel`].

use crate::fault::{FaultPlan, FaultState};
use crate::kernel::ControlCore;
use crate::lane::Lane;
use crate::memory::Scratchpad;
use crate::snapshot::{DeadlockSnapshot, LaneSnapshot};
use crate::stats::{CycleBreakdown, RunReport};
use revel_fabric::{EventCounts, FabricMask, RevelConfig};
use revel_isa::LaneId;
use revel_prog::{structural_id, ProgramError, RevelProgram, StructuralId};
use revel_scheduler::{RegionSchedule, ScheduleError, SpatialScheduler};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Simulator options (ablation knobs and safety limits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Hardware stream predication (Fig. 22's fourth mechanism). When off,
    /// partially-valid vector fires degrade to scalar-remainder timing.
    pub predication: bool,
    /// Cycle budget before a run is declared hung.
    pub max_cycles: u64,
    /// Wall-clock deadline for the host-side run loop, composing with the
    /// cycle budget: whichever cap is crossed first ends the run as
    /// `timed_out` (a deadline expiry additionally sets
    /// [`RunReport::deadline_expired`](crate::RunReport::deadline_expired)).
    /// `None` (the default) disables the check entirely, keeping batch runs
    /// bit-deterministic; servers thread a per-request deadline here so one
    /// slow simulation cannot hold a worker hostage.
    pub wall_deadline: Option<std::time::Instant>,
    /// Run the `revel-verify` program lints before simulating and refuse
    /// to run programs with error-severity findings. Warnings never block.
    /// Opt out to simulate a deliberately broken program.
    pub verify: bool,
    /// Step every cycle naively instead of skipping quiescent stall spans
    /// via the event horizon. The reference stepper is the correctness
    /// oracle for the fast loop; reports must be observably identical.
    pub reference_stepper: bool,
    /// Deterministic fault injection: `Some` expands the plan into timed
    /// events at run start and attaches a
    /// [`FaultSnapshot`](crate::FaultSnapshot) to the report. Faulted runs
    /// must never be cached by result memoizers (same rule as
    /// deadline-expired runs).
    pub fault_plan: Option<FaultPlan>,
    /// Degraded-fabric mode: dead PEs/links are masked out of the spatial
    /// schedule (via `reschedule_degraded`), modelling graceful
    /// degradation. The mask participates in the schedule-cache key.
    pub fabric_mask: FabricMask,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            predication: true,
            max_cycles: 50_000_000,
            wall_deadline: None,
            verify: true,
            reference_stepper: false,
            fault_plan: None,
            fabric_mask: FabricMask::HEALTHY,
        }
    }
}

/// A simulation failure.
#[derive(Debug)]
pub enum SimError {
    /// The program failed validation.
    Program(ProgramError),
    /// A fabric configuration did not map onto the lane.
    Schedule(ScheduleError),
    /// The pre-simulation lint pass found error-severity diagnostics
    /// (the vector holds *all* findings, warnings included, so callers
    /// can show the full picture). Disable via [`SimOptions::verify`].
    Verify(Vec<revel_verify::Diagnostic>),
    /// A recorded op list broke the replay walk when compiled, a trace was
    /// replayed on a machine or program it was not recorded for, or a
    /// timing trace was requested under perturbation (faults/degraded
    /// fabric). See [`crate::TimingTrace`].
    Replay(crate::trace::ReplayError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Program(e) => write!(f, "program error: {e}"),
            SimError::Schedule(e) => write!(f, "schedule error: {e}"),
            SimError::Verify(diags) => {
                let errors =
                    diags.iter().filter(|d| d.severity() == revel_verify::Severity::Error).count();
                write!(f, "program failed static verification ({errors} error(s))")?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            SimError::Replay(e) => write!(f, "replay error: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ProgramError> for SimError {
    fn from(e: ProgramError) -> Self {
        SimError::Program(e)
    }
}

impl From<ScheduleError> for SimError {
    fn from(e: ScheduleError) -> Self {
        SimError::Schedule(e)
    }
}

/// Process-wide cache of compiled spatial schedules.
///
/// The simulated-annealing scheduler runs 2000 iterations per region set;
/// batch lanes, ablation sweeps, and repeated benchmark runs hit the same
/// `(program configs, lane config)` pairs over and over. The scheduler is
/// deterministic (seeded SA), so the first compile's result is *the*
/// result. Keyed by the [`structural_id`] of everything scheduling reads
/// (see [`Machine::compiled_schedules`]).
type ScheduleCache = Mutex<HashMap<StructuralId, Arc<Vec<Vec<RegionSchedule>>>>>;

static SCHEDULE_CACHE: OnceLock<ScheduleCache> = OnceLock::new();
static SCHEDULE_HITS: AtomicU64 = AtomicU64::new(0);
static SCHEDULE_MISSES: AtomicU64 = AtomicU64::new(0);

/// One consistent read of the process-wide spatial-schedule cache counters.
///
/// The split is *exact*: a miss is counted only by the thread whose compile
/// actually landed in the cache, so `misses == entries` always, and a
/// racing duplicate compile (which discards its result) counts as a hit.
/// Hits are therefore `lookups - entries` — both deterministic for every
/// worker count — which is what lets harness footers print this on the
/// byte-diffed stdout stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleCacheStats {
    /// Lookups served by an existing entry (including lost insert races).
    pub hits: u64,
    /// Compiles that created a new cache entry (`== entries`).
    pub misses: u64,
    /// Distinct compiled schedule sets currently cached.
    pub entries: u64,
}

impl fmt::Display for ScheduleCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule cache: {} hit(s), {} miss(es), {} entries",
            self.hits, self.misses, self.entries
        )
    }
}

/// Snapshot of the process-wide spatial-schedule cache counters.
pub fn schedule_cache_stats() -> ScheduleCacheStats {
    let entries =
        SCHEDULE_CACHE.get().map(|c| c.lock().expect("schedule cache poisoned").len()).unwrap_or(0);
    ScheduleCacheStats {
        hits: SCHEDULE_HITS.load(Ordering::Relaxed),
        misses: SCHEDULE_MISSES.load(Ordering::Relaxed),
        entries: entries as u64,
    }
}

/// The REVEL accelerator simulator: functional *and* cycle-level.
///
/// Workloads initialize scratchpad contents, [`Machine::run`] executes a
/// [`RevelProgram`], and results are read back from the scratchpads.
///
/// ```
/// use revel_fabric::RevelConfig;
/// use revel_sim::{Machine, SimOptions};
/// let m = Machine::new(RevelConfig::single_lane(), SimOptions::default());
/// assert_eq!(m.num_lanes(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    pub(crate) cfg: RevelConfig,
    pub(crate) lanes: Vec<Lane>,
    pub(crate) shared: Scratchpad,
    pub(crate) opts: SimOptions,
    pub(crate) control: ControlCore,
    pub(crate) control_events: EventCounts,
    pub(crate) faults: FaultState,
    /// Installed by [`Machine::run_recording`]; `None` keeps every record
    /// site in the timing walk a no-op.
    pub(crate) trace: Option<crate::trace::TraceRecorder>,
    /// What [`Machine::replay`] keeps warm across datasets.
    pub(crate) executor: crate::trace::Executor,
}

impl Machine {
    /// Builds a machine for a hardware configuration.
    pub fn new(cfg: RevelConfig, opts: SimOptions) -> Self {
        let lanes = (0..cfg.num_lanes).map(|_| Lane::new(&cfg.lane, opts.predication)).collect();
        Machine {
            shared: Scratchpad::new(cfg.shared_spad_words),
            lanes,
            opts,
            control: ControlCore::default(),
            control_events: EventCounts::default(),
            faults: FaultState::default(),
            trace: None,
            executor: Default::default(),
            cfg,
        }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &RevelConfig {
        &self.cfg
    }

    /// Number of lanes.
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Writes `values` into a lane's private scratchpad at word address
    /// `addr`.
    ///
    /// # Panics
    /// Panics if `lane` or the address range is out of bounds.
    pub fn write_private(&mut self, lane: LaneId, addr: i64, values: &[f64]) {
        self.lanes[lane.0 as usize].spad.write_f64_slice(addr, values);
    }

    /// Reads `len` values from a lane's private scratchpad.
    ///
    /// # Panics
    /// Panics if `lane` or the address range is out of bounds.
    pub fn read_private(&self, lane: LaneId, addr: i64, len: usize) -> Vec<f64> {
        self.lanes[lane.0 as usize].spad.read_f64_slice(addr, len)
    }

    /// Writes `values` into the shared scratchpad.
    ///
    /// # Panics
    /// Panics if the address range is out of bounds.
    pub fn write_shared(&mut self, addr: i64, values: &[f64]) {
        self.shared.write_f64_slice(addr, values);
    }

    /// Reads `len` values from the shared scratchpad.
    ///
    /// # Panics
    /// Panics if the address range is out of bounds.
    pub fn read_shared(&self, addr: i64, len: usize) -> Vec<f64> {
        self.shared.read_f64_slice(addr, len)
    }

    /// Runs a program to completion (or until the cycle limit).
    ///
    /// # Errors
    /// [`SimError::Program`] if the program is malformed,
    /// [`SimError::Verify`] if the static lints find errors (unless
    /// [`SimOptions::verify`] is off),
    /// [`SimError::Schedule`] if a configuration does not fit the fabric.
    pub fn run(&mut self, program: &RevelProgram) -> Result<RunReport, SimError> {
        program.validate(&self.cfg.lane)?;
        if self.opts.verify {
            // Program-level lints only (the spatial compile below already
            // covers schedule legality), through the process-wide memo.
            let diags = revel_verify::verdict(program, &self.cfg);
            if revel_verify::has_errors(&diags) {
                return Err(SimError::Verify(diags.as_ref().clone()));
            }
        }
        let schedules = self.compiled_schedules(program)?;
        // Reset control + lane dynamic state (keep scratchpad contents).
        self.control = ControlCore::default();
        for lane in &mut self.lanes {
            lane.cmd_queue.clear();
            lane.streams.clear();
            lane.instances.clear();
            lane.regions.clear();
            lane.breakdown = CycleBreakdown::default();
            lane.events = EventCounts::default();
            lane.reconfig_until = 0;
        }
        self.control_events = EventCounts::default();
        self.reset_faults();

        let exec = self.execute(program, &schedules);

        let deadlock = exec.timed_out.then(|| self.capture_snapshot(exec.cycles, program));
        let mut events = self.control_events;
        for lane in &self.lanes {
            events.add(&lane.events);
        }
        Ok(RunReport {
            cycles: exec.cycles,
            lane_breakdown: self.lanes.iter().map(|l| l.breakdown.clone()).collect(),
            events,
            commands_issued: self.control.commands_issued,
            timed_out: exec.timed_out,
            deadline_expired: exec.deadline_expired,
            deadlock,
            fault: self.faults.snapshot(),
            stepper: exec.stats,
        })
    }

    /// Spatially compiles every configuration of `program`, memoized
    /// process-wide on (program name, lane config, region configs, fabric
    /// mask).
    pub(crate) fn compiled_schedules(
        &self,
        program: &RevelProgram,
    ) -> Result<Arc<Vec<Vec<RegionSchedule>>>, SimError> {
        // The identity covers every field of these types, so the key
        // distinguishes any difference that can affect scheduling. The
        // fabric mask is part of it: a degraded fabric compiles a repaired
        // placement that must never be served to a healthy run.
        let mask = self.opts.fabric_mask;
        let key = structural_id(&(&program.name, &self.cfg.lane, &program.configs, mask));
        let cache = SCHEDULE_CACHE.get_or_init(Default::default);
        if let Some(hit) = cache.lock().expect("schedule cache poisoned").get(&key) {
            SCHEDULE_HITS.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        // Compile outside the lock: SA placement is the expensive part, and
        // a racing duplicate compile is deterministic, so last-writer-wins
        // inserts identical data. The hit/miss split is decided at insert
        // time — only the compile that lands counts as a miss, a lost race
        // counts as a hit — so `misses == entries` exactly and the split is
        // deterministic for every worker count (see [`ScheduleCacheStats`]).
        let scheduler = SpatialScheduler::for_lane(&self.cfg.lane);
        let mut schedules: Vec<Vec<RegionSchedule>> = Vec::new();
        for regions in &program.configs {
            schedules.push(scheduler.reschedule_degraded(regions, mask)?.regions);
        }
        let arc = Arc::new(schedules);
        match cache.lock().expect("schedule cache poisoned").entry(key) {
            std::collections::hash_map::Entry::Vacant(v) => {
                SCHEDULE_MISSES.fetch_add(1, Ordering::Relaxed);
                v.insert(Arc::clone(&arc));
                Ok(arc)
            }
            std::collections::hash_map::Entry::Occupied(o) => {
                SCHEDULE_HITS.fetch_add(1, Ordering::Relaxed);
                Ok(Arc::clone(o.get()))
            }
        }
    }

    /// Captures the full machine state for a timed-out run's report.
    fn capture_snapshot(&self, now: u64, program: &RevelProgram) -> DeadlockSnapshot {
        DeadlockSnapshot {
            cycle: now,
            control_pc: self.control.pc,
            control_len: program.control.len(),
            control_waiting: self.control.waiting,
            lanes: self.lanes.iter().map(LaneSnapshot::capture).collect(),
        }
    }
}
