//! The parallel, memoized evaluation engine.
//!
//! The paper's evaluation is a (workload × architecture × ablation) grid
//! in which many cells repeat across figures: Fig. 8/19/23/25/Tab. VII all
//! consume the same large-suite comparisons, and Fig. 20–24 re-simulate
//! overlapping configurations. Each cell is also embarrassingly parallel —
//! a cycle-level simulation touching only its own
//! [`Machine`](crate::sim::Machine) — so this
//! module provides the two mechanisms the harness, test suites, and the
//! `revel-serve` request handlers share:
//!
//! * a **run cache** keyed by a `(Bench, BuildCfg)` fingerprint (plus the
//!   batch-replication flag), so every distinct configuration is built,
//!   annealed (`Machine::run`'s 2000-iteration simulated-annealing spatial
//!   schedule), and simulated exactly once per process;
//! * a **scoped-thread job pool** ([`par_map`]) fanning independent cells
//!   across worker threads with *deterministic result ordering* — results
//!   land in per-item slots, so tables are byte-identical to a serial run
//!   regardless of `--jobs`.
//!
//! No ambient input: the simulator is a pure function of
//! `(program, init, SimOptions)` — it reads no environment variable and no
//! process-global default — so caching and reordering execution cannot
//! change any table cell. Workers only interleave *which* cell is computed
//! when; each cell's value and its position in the output are fixed.
//!
//! Three properties make the engine safe to park behind a long-running
//! server (`revel-serve`), not just a batch harness:
//!
//! * **Bounded caches.** The three caches — runs, lints and timing traces
//!   — each evict least-recently-used entries beyond [`cache_capacity`] (an
//!   unbounded memo table is a slow memory leak under an infinite request
//!   stream); hit/miss counters and one eviction counter shared by all
//!   three are exposed through [`stats`] for the report footer and the
//!   `stats` endpoint.
//! * **Single-flight misses.** Concurrent requests for the same key wait
//!   for the first simulation instead of duplicating it, so a thundering
//!   herd on a cold cell costs one simulation — and the hit/miss split
//!   becomes exact (misses == distinct simulations) and deterministic for
//!   every worker count.
//! * **Deadline pass-through.** A per-request wall-clock deadline threads
//!   into [`SimOptions::wall_deadline`]; deadline-expired runs are returned
//!   to their caller but *never* cached (where the wall clock fired is not
//!   deterministic, and a poisoned entry would serve bogus timeouts
//!   forever).
//!
//! Caches, counters, capacity and the optional disk tier are the fields of
//! one `Engine` value. The process has one (a `OnceLock`), and every free
//! function here, every [`Bench`] method and the server run on it — so
//! within one `all_experiments` run, one server process, or one test
//! binary every repeated configuration is a hit. Unit tests that assert
//! exact counter values make their own.

pub mod persist;

use crate::suite::{Bench, Comparison};
use persist::{PersistedRun, PersistentTier, WarmStart};
use revel_compiler::BuildCfg;
use revel_sim::{SimError, SimOptions, TimingTrace};
use revel_workloads::{
    batch_replayable, record_timing, replay_dataset_on, replay_trace_on, run_workload_with,
    WorkloadRun,
};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Cache key: one simulated configuration. `batch` distinguishes the
/// batch-replicated build of a kernel from its batch-1 build *only* for
/// kernels whose two builds differ (see [`Bench::batch_workload`]), so
/// identical programs share one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RunKey {
    bench: Bench,
    cfg: BuildCfg,
    batch: bool,
}

/// A bounded, recency-evicting memo table. The engine's run, lint and
/// trace caches are all instances; the run cache additionally uses the
/// `None` value state to mark *in-flight* computations for single-flight
/// misses.
struct BoundedCache<K, V> {
    map: HashMap<K, CacheEntry<V>>,
    clock: u64,
}

struct CacheEntry<V> {
    /// `Some` = completed result; `None` = another caller is computing it.
    value: Option<V>,
    /// Logical access time (monotone per-cache counter, not wall clock).
    last_used: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> BoundedCache<K, V> {
    fn new() -> Self {
        BoundedCache { map: HashMap::new(), clock: 0 }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Completed-entry lookup; a hit refreshes the entry's recency.
    fn get(&mut self, key: &K) -> Option<V> {
        let clock = self.tick();
        match self.map.get_mut(key) {
            Some(e) if e.value.is_some() => {
                e.last_used = clock;
                e.value.clone()
            }
            _ => None,
        }
    }

    /// True while another caller holds the in-flight claim for `key`.
    fn in_flight(&self, key: &K) -> bool {
        matches!(self.map.get(key), Some(e) if e.value.is_none())
    }

    /// Claims `key` for computation (single-flight marker).
    fn claim(&mut self, key: K) {
        let clock = self.tick();
        self.map.insert(key, CacheEntry { value: None, last_used: clock });
    }

    /// Releases an unfulfilled claim (computation failed or was aborted).
    /// A completed entry under the same key is left untouched.
    fn release_claim(&mut self, key: &K) {
        if self.in_flight(key) {
            self.map.remove(key);
        }
    }

    /// Inserts a completed value, then evicts least-recently-used
    /// *completed* entries until at most `capacity` remain (in-flight
    /// claims are never evicted — there is a thread waiting on each).
    /// Returns the number of entries evicted.
    fn insert(&mut self, key: K, value: V, capacity: usize) -> usize {
        let clock = self.tick();
        self.map.insert(key, CacheEntry { value: Some(value), last_used: clock });
        let mut ready = self.ready_len();
        let mut evicted = 0;
        while ready > capacity {
            let victim = self
                .map
                .iter()
                .filter(|(_, e)| e.value.is_some())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    self.map.remove(&k);
                    ready -= 1;
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }

    /// Number of completed entries (excludes in-flight claims).
    fn ready_len(&self) -> usize {
        self.map.values().filter(|e| e.value.is_some()).count()
    }

    /// Number of completed entries whose value satisfies `pred`.
    fn ready_matching(&self, pred: impl Fn(&V) -> bool) -> usize {
        self.map.values().filter(|e| e.value.as_ref().is_some_and(&pred)).count()
    }
}

pub(crate) struct Engine {
    /// Completed entries each cache may hold before least-recently-used
    /// eviction kicks in (clamped to ≥ 1).
    capacity: AtomicUsize,
    runs: Mutex<BoundedCache<RunKey, WorkloadRun>>,
    /// Signalled whenever a run completes or releases its claim, waking
    /// single-flight waiters.
    runs_done: Condvar,
    lints: Mutex<BoundedCache<(Bench, BuildCfg), Vec<revel_verify::Diagnostic>>>,
    /// Timing traces recorded by [`Engine::run_batched`]'s timing walk and
    /// compiled to straight-line code (the op lists are not kept), a
    /// first-class artifact cached next to the run results under the same
    /// key shape. Plain get/insert (no single-flight): a duplicated timing
    /// walk is wasted work, not a correctness hazard, and batch requests
    /// for one cell rarely race.
    traces: Mutex<BoundedCache<RunKey, Arc<TimingTrace>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    // Machine-cycle accounting across all *distinct* cached runs. Counted
    // at insert time by the single thread that executed the run, so the
    // totals are deterministic for every --jobs setting.
    sim_cycles: AtomicU64,
    skipped_cycles: AtomicU64,
    // Runs that went through [`run_uncached`]: every run whose options
    // change what a run means. The run key does not include `SimOptions`,
    // so such runs must bypass the cache entirely; this counter is the proof
    // (asserted by the degradation sweep) that none of them touched it.
    fault_bypasses: AtomicU64,
    // Deadline-expired waiters that gave up on another thread's in-flight
    // run and simulated uncached. Those lookups are neither hits nor
    // misses, so without this counter `hits + misses` undercounts lookups.
    deadline_fallbacks: AtomicU64,
    // Batched executions served by a cached timing trace (no timing walk).
    trace_hits: AtomicU64,
    // Individual datasets executed through the functional replayer instead
    // of the full simulator. Stays zero for uncertified batches — the
    // counter-delta proof that the replay gate holds.
    batched_replays: AtomicU64,
    /// The optional disk tier ([`enable_persistence`]); `None` outside
    /// server processes. Its own lock, never held while simulating.
    disk: Mutex<Option<PersistentTier>>,
    // Lookups served from the disk tier (a memory miss answered without
    // simulating). Neither a hit nor a miss of the in-memory cache.
    disk_hits: AtomicU64,
    // Entries the disk tier recovered at [`enable_persistence`] time.
    warm_start_entries: AtomicU64,
    // Files (or file suffixes) the tier loader had to skip as corrupt —
    // each one a structured cold start, never a panic.
    disk_cold_starts: AtomicU64,
}

impl Engine {
    /// An engine with empty caches, zeroed counters, the default capacity
    /// and no disk tier. The process has one ([`engine`]); the tests that
    /// assert exact counter values each make their own, so no sibling
    /// test's lookup (or capacity change) can land in their window.
    pub(crate) fn new() -> Self {
        Engine {
            capacity: AtomicUsize::new(DEFAULT_CACHE_CAPACITY),
            runs: Mutex::new(BoundedCache::new()),
            runs_done: Condvar::new(),
            lints: Mutex::new(BoundedCache::new()),
            traces: Mutex::new(BoundedCache::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            sim_cycles: AtomicU64::new(0),
            skipped_cycles: AtomicU64::new(0),
            fault_bypasses: AtomicU64::new(0),
            deadline_fallbacks: AtomicU64::new(0),
            trace_hits: AtomicU64::new(0),
            batched_replays: AtomicU64::new(0),
            disk: Mutex::new(None),
            disk_hits: AtomicU64::new(0),
            warm_start_entries: AtomicU64::new(0),
            disk_cold_starts: AtomicU64::new(0),
        }
    }

    fn set_cache_capacity(&self, n: usize) {
        self.capacity.store(n.max(1), Ordering::SeqCst);
    }

    fn cache_capacity(&self) -> usize {
        self.capacity.load(Ordering::SeqCst)
    }
}

/// The process engine: the one every free function of this module, the
/// [`Bench`] methods and the server run on.
pub(crate) fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(Engine::new)
}

/// Worker-thread count: 0 means "auto" (one per available core).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Default bound on each of the three caches (runs, lints and traces, each
/// bounded separately). Generous enough that the full evaluation grid never
/// evicts, small enough that a long-running server's memory stays flat.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// Sets the per-cache entry bound (`revel_serve --cache-capacity`). Takes
/// effect on subsequent inserts; already-cached entries above the new bound
/// are evicted lazily as new results land.
pub fn set_cache_capacity(n: usize) {
    engine().set_cache_capacity(n);
}

/// The current per-cache entry bound.
pub fn cache_capacity() -> usize {
    engine().cache_capacity()
}

/// Sets the worker-thread count for [`par_map`]. `0` restores the default
/// (one worker per available core). Tables are byte-identical for every
/// setting; only wall-clock changes.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::SeqCst);
}

/// The effective worker-thread count.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
}

/// Maps `f` over `items` on the engine's job pool, preserving order.
///
/// Scoped threads pull items off a shared index and write results into
/// per-item slots, so the output `Vec` is ordered exactly as `items`
/// regardless of scheduling. A panicking worker propagates its panic when
/// the scope joins (verification failures stay loud under parallelism).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_jobs(items, jobs(), f)
}

/// [`par_map`] with an explicit worker count (`1` = serial, no threads).
pub fn par_map_jobs<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs.max(1).min(n);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // A worker panic is caught and re-thrown on the caller's thread with
    // its original payload (scope's own join panic would replace e.g. an
    // assertion message with "a scoped thread panicked").
    let panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&items[i]))) {
                    Ok(r) => *slots[i].lock().expect("slot lock") = Some(r),
                    Err(payload) => {
                        let mut first = panic.lock().expect("panic slot");
                        if first.is_none() {
                            *first = Some(payload);
                        }
                        break;
                    }
                }
            });
        }
    });
    if let Some(payload) = panic.into_inner().expect("panic slot") {
        std::panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot lock").expect("worker filled slot"))
        .collect()
}

/// Releases an unfulfilled single-flight claim when the executing thread
/// unwinds (simulator error or panic), so waiters retry instead of hanging.
struct RunClaim<'a> {
    engine: &'a Engine,
    key: RunKey,
    fulfilled: bool,
}

impl Drop for RunClaim<'_> {
    fn drop(&mut self) {
        if !self.fulfilled {
            self.engine.runs.lock().expect("run cache lock").release_claim(&self.key);
            self.engine.runs_done.notify_all();
        }
    }
}

impl Engine {
    /// Runs `bench` under `cfg` through the run cache; `batch_build` asks
    /// for the batch-semantics build (one independent problem per lane,
    /// Figure 20), which shares the batch-1 entry whenever the two builds
    /// are identical.
    ///
    /// Cache hits are served instantly regardless of `deadline`. On a miss
    /// the deadline threads into [`SimOptions::wall_deadline`]; a run the
    /// deadline cut short is returned (as `timed_out`) but never cached. A
    /// caller that finds the key in flight waits for the executing thread —
    /// but only until its own deadline, after which it simulates uncached with
    /// the (expired) deadline and reports the timeout itself.
    ///
    /// # Errors
    /// Propagates simulator errors (never cached; they fail identically on
    /// every attempt).
    pub(crate) fn run_cached(
        &self,
        bench: Bench,
        cfg: &BuildCfg,
        batch_build: bool,
        deadline: Option<Instant>,
    ) -> Result<WorkloadRun, SimError> {
        let key = RunKey { bench, cfg: *cfg, batch: batch_build && bench.batch_build_differs() };
        let opts = SimOptions { wall_deadline: deadline, ..cfg.sim_options() };

        // Phase 1: hit, claim the key, or wait out another claimant.
        {
            let mut runs = self.runs.lock().expect("run cache lock");
            loop {
                if let Some(run) = runs.get(&key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(run);
                }
                if !runs.in_flight(&key) {
                    runs.claim(key);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                match deadline {
                    None => runs = self.runs_done.wait(runs).expect("run cache lock"),
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            // Budget spent waiting on someone else's run: fall
                            // through to an uncached simulation with the expired
                            // deadline — it returns `timed_out` almost
                            // immediately and never touches the cache. Counted
                            // separately: this lookup is neither a hit nor a
                            // miss, and dropping it would break the
                            // `hits + misses + deadline_fallbacks == lookups`
                            // invariant the stats endpoint reports.
                            self.deadline_fallbacks.fetch_add(1, Ordering::Relaxed);
                            drop(runs);
                            let workload =
                                if key.batch { bench.batch_workload() } else { bench.workload() };
                            return run_workload_with(workload.as_ref(), cfg, opts);
                        }
                        runs =
                            self.runs_done.wait_timeout(runs, d - now).expect("run cache lock").0;
                    }
                }
            }
        }

        // Phase 2: simulate outside the lock, claim guarded against unwinds.
        let mut claim = RunClaim { engine: self, key, fulfilled: false };
        let workload = if key.batch { bench.batch_workload() } else { bench.workload() };
        let result = run_workload_with(workload.as_ref(), cfg, opts);
        if let Ok(run) = &result {
            // A deadline-expired run is not a property of the configuration
            // (the wall clock fired at an arbitrary cycle); caching it would
            // serve bogus timeouts to every later request. Leave the claim to
            // the drop guard instead. The faulted check is defense in depth:
            // fault-injected runs are supposed to arrive via [`run_uncached`]
            // and never reach this path, but a corrupted result must not be
            // served to later clean requests under any circumstances.
            if !run.report.deadline_expired && !run.report.faulted() {
                self.sim_cycles.fetch_add(run.report.cycles, Ordering::Relaxed);
                self.skipped_cycles.fetch_add(run.report.stepper.skipped_cycles, Ordering::Relaxed);
                let evicted = {
                    let mut runs = self.runs.lock().expect("run cache lock");
                    runs.insert(key, run.clone(), self.cache_capacity())
                };
                self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
                claim.fulfilled = true;
                self.runs_done.notify_all();
                // Every result admitted to the memory tier is also appended
                // to the disk tier (when one is enabled): timed-out, faulted,
                // and degraded runs can never get here, so disk entries are
                // always completed, trustworthy runs. Best-effort — an I/O
                // failure degrades persistence, never the request.
                let mut disk = self.disk.lock().expect("disk tier lock");
                if let Some(tier) = disk.as_mut() {
                    let _ = tier
                        .append(key_fingerprint(bench, cfg, batch_build), &PersistedRun::from(run));
                }
            }
        }
        result
    }
}

/// The 128-bit, process-independent fingerprint of one run-cache key —
/// the same key shape the run cache uses, rendered stably and hashed
/// with the disk tier's FNV-1a pair. The serving fleet routes requests by
/// this fingerprint (consistent hashing keeps each shard's LRU disjoint),
/// and the disk tier files results under it.
pub fn key_fingerprint(bench: Bench, cfg: &BuildCfg, batch: bool) -> (u64, u64) {
    let batch = batch && bench.batch_build_differs();
    persist::fingerprint(&format!("{bench:?}|{cfg:?}|batch={batch}"))
}

impl Engine {
    /// [`enable_persistence`] on this engine.
    fn enable_persistence(&self, dir: &std::path::Path) -> std::io::Result<WarmStart> {
        let (tier, warm) = PersistentTier::open(dir)?;
        self.warm_start_entries.store(warm.entries as u64, Ordering::SeqCst);
        self.disk_cold_starts.fetch_add(warm.cold_starts.len() as u64, Ordering::SeqCst);
        *self.disk.lock().expect("disk tier lock") = Some(tier);
        Ok(warm)
    }

    /// [`persist_snapshot`] on this engine.
    fn persist_snapshot(&self) -> std::io::Result<()> {
        match self.disk.lock().expect("disk tier lock").as_mut() {
            Some(tier) => tier.snapshot(),
            None => Ok(()),
        }
    }

    /// [`run_served`] on this engine.
    fn run_served(
        &self,
        bench: Bench,
        cfg: &BuildCfg,
        deadline: Option<Instant>,
    ) -> Result<Served, SimError> {
        let key = RunKey { bench, cfg: *cfg, batch: false };
        if let Some(run) = self.runs.lock().expect("run cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Served::Run(Box::new(run)));
        }
        {
            let disk = self.disk.lock().expect("disk tier lock");
            if let Some(tier) = disk.as_ref() {
                // Failpoint on the served-run disk path: an injected error
                // degrades to a cache miss (simulate instead of serving a
                // possibly-suspect disk record); an armed abort crashes at
                // the exact instant a reply would have come from disk.
                if revel_failpoint::hit("engine.serve.disk-lookup").is_ok() {
                    if let Some(run) = tier.lookup(key_fingerprint(bench, cfg, false)) {
                        self.disk_hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(Served::Disk(run.clone()));
                    }
                }
            }
        }
        self.run_cached(bench, cfg, false, deadline).map(|run| Served::Run(Box::new(run)))
    }

    /// [`run_uncached`] on this engine.
    fn run_uncached(
        &self,
        bench: Bench,
        cfg: &BuildCfg,
        opts: SimOptions,
    ) -> Result<WorkloadRun, SimError> {
        self.fault_bypasses.fetch_add(1, Ordering::Relaxed);
        run_workload_with(bench.workload().as_ref(), cfg, opts)
    }
}

/// Attaches a disk-backed persistence tier rooted at `dir` to the engine:
/// every subsequent cacheable run is appended to the tier, and lookups
/// that miss memory are answered from disk ([`run_served`]). Loads
/// whatever the directory already holds — a restarted server warm-starts
/// from its predecessor's results. Corrupt files surface as structured
/// cold starts in the returned [`WarmStart`] (and in
/// [`CacheStats::disk_cold_starts`]), never as a panic.
///
/// Calling again replaces the tier (tests use fresh directories); the
/// warm-start counter is overwritten, the cold-start counter accumulates.
///
/// # Errors
/// Propagates directory-creation and file-open failures.
pub fn enable_persistence(dir: &std::path::Path) -> std::io::Result<WarmStart> {
    engine().enable_persistence(dir)
}

/// Compacts the disk tier into a fresh atomic snapshot (no-op when
/// persistence is disabled). Servers call this on graceful shutdown so a
/// restart loads one snapshot instead of replaying a long segment.
///
/// # Errors
/// Propagates snapshot write/rename failures.
pub fn persist_snapshot() -> std::io::Result<()> {
    engine().persist_snapshot()
}

/// A result served by [`run_served`]: either a live (or memory-cached)
/// [`WorkloadRun`], or the persisted surface of a previous process's run,
/// recovered from the disk tier without simulating.
#[derive(Debug, Clone)]
pub enum Served {
    /// Simulated in this process (or served from the in-memory cache).
    /// Boxed: a live run dwarfs the persisted summary, and callers on the
    /// serving path immediately unbox it.
    Run(Box<WorkloadRun>),
    /// Served from the disk tier: the run completed in an earlier
    /// process; only its persisted summary is available.
    Disk(PersistedRun),
}

/// The cached-run lookup with the disk tier layered in: memory first,
/// then disk ([`CacheStats::disk_hits`]), then simulation. A disk hit
/// costs one index lookup — a restarted shard answers its first repeat
/// requests from disk *before* its first simulation completes.
///
/// # Errors
/// Propagates simulator errors (never cached).
pub fn run_served(
    bench: Bench,
    cfg: &BuildCfg,
    deadline: Option<Instant>,
) -> Result<Served, SimError> {
    engine().run_served(bench, cfg, deadline)
}

/// Runs `bench` under explicit [`SimOptions`], bypassing the run cache in
/// both directions: no lookup, no insert. The cache key deliberately
/// excludes `SimOptions` (clean runs are a pure function of the
/// configuration), so every run whose options change what a run means — a
/// fault plan, a fabric mask, a reduced budget, the reference stepper —
/// goes through here, with that one field set on `cfg.sim_options()`. Each
/// call increments [`CacheStats::fault_bypasses`]: the counter counts
/// exactly those runs, and the degradation sweep and the serving
/// `bypass_accounting` test read it to prove none of them touched the cache.
///
/// # Errors
/// Propagates simulator errors, including `NotEnoughPes`/`Unroutable`
/// when too little fabric survives a mask.
pub fn run_uncached(
    bench: Bench,
    cfg: &BuildCfg,
    opts: SimOptions,
) -> Result<WorkloadRun, SimError> {
    engine().run_uncached(bench, cfg, opts)
}

/// The result of a batched execution: one [`WorkloadRun`] per dataset
/// seed, plus whether the batch went through the trace-replay fast path
/// (`false` = every dataset was a full simulation).
#[derive(Debug, Clone)]
pub struct BatchRun {
    /// Per-dataset results, in `seeds` order.
    pub runs: Vec<WorkloadRun>,
    /// True when the datasets were executed by replaying one recorded
    /// timing trace instead of N full simulations.
    pub replayed: bool,
}

/// Executes `bench` under `cfg` once per dataset seed — through the
/// batched replay path when the configuration is certified oblivious.
///
/// For certified programs one cycle-accurate **timing walk** records a
/// [`TimingTrace`] and compiles it to straight-line load / scalar-op /
/// store code (cached process-wide, next to the run cache, in place of the
/// recorded ops), and each seed's dataset then executes that code:
/// byte-identical results, one simulation's worth of scheduling work and
/// no DFG evaluation.
/// Uncertified programs fall back to N independent full simulations.
///
/// # Errors
/// Propagates simulator errors, including a recorded trace that fails to
/// compile ([`revel_sim::SimError::Replay`]) — which can only happen if
/// the compile walk disagrees with the timing walk that recorded it, so it
/// is surfaced, never swallowed — and a first seed whose build is not
/// structurally the traced program.
pub fn run_batched(bench: Bench, cfg: &BuildCfg, seeds: &[u64]) -> Result<BatchRun, SimError> {
    engine().run_batched(bench, cfg, seeds)
}

impl Engine {
    /// [`run_batched`] on this engine. A batch always runs under
    /// `cfg.sim_options()`: perturbed options have no way in, and
    /// [`batch_replayable`] and `Machine::run_traced` refuse them besides.
    fn run_batched(
        &self,
        bench: Bench,
        cfg: &BuildCfg,
        seeds: &[u64],
    ) -> Result<BatchRun, SimError> {
        let opts = cfg.sim_options();
        let full_batch = || -> Result<BatchRun, SimError> {
            let mut runs = Vec::with_capacity(seeds.len());
            for &seed in seeds {
                runs.push(run_workload_with(bench.workload_seeded(seed).as_ref(), cfg, opts)?);
            }
            Ok(BatchRun { runs, replayed: false })
        };
        let built = bench.workload().build(cfg);
        if !batch_replayable(&built, cfg, &opts) {
            return full_batch();
        }

        // Certified: fetch or record the timing trace for this cell.
        let key = RunKey { bench, cfg: *cfg, batch: false };
        let cached = self.traces.lock().expect("trace cache lock").get(&key);
        let trace = match cached {
            Some(t) => {
                self.trace_hits.fetch_add(1, Ordering::Relaxed);
                t
            }
            None => {
                let (timing, trace) = record_timing(&built, cfg, opts)?;
                if timing.report.timed_out {
                    // A budget- or deadline-capped timing walk is not a usable
                    // trace (and caching it would poison every later batch).
                    return full_batch();
                }
                let trace = Arc::new(trace);
                let evicted = self.traces.lock().expect("trace cache lock").insert(
                    key,
                    trace.clone(),
                    self.cache_capacity(),
                );
                self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
                trace
            }
        };

        // Replay the one trace over every dataset, reusing a single machine
        // across lanes — allocating scratchpads and value slots per lane
        // would cost more than the replay itself. The first dataset
        // checks the trace's program identity; every seed of a cell builds
        // the same structure, so the rest skip that pass over the program.
        let mut machine = revel_sim::Machine::new(cfg.machine_config(), opts);
        let mut runs = Vec::with_capacity(seeds.len());
        for (k, &seed) in seeds.iter().enumerate() {
            let built_seed = bench.workload_seeded(seed).build(cfg);
            let run = if k == 0 {
                replay_trace_on(&mut machine, &built_seed, &trace)?
            } else {
                replay_dataset_on(&mut machine, &built_seed, &trace)?
            };
            self.batched_replays.fetch_add(1, Ordering::Relaxed);
            runs.push(run);
        }
        Ok(BatchRun { runs, replayed: true })
    }

    /// Runs REVEL and both spatial baselines for `bench` through the cache.
    ///
    /// # Errors
    /// Propagates simulator errors; panics (via `assert_ok`) if any run fails
    /// numerical verification or timed out.
    pub(crate) fn compare(&self, bench: Bench) -> Result<Comparison, SimError> {
        let lanes = bench.lanes();
        let revel = self.run_cached(bench, &BuildCfg::revel(lanes), false, None)?;
        revel.assert_ok(&format!("{} revel", bench.name()));
        let systolic = self.run_cached(bench, &BuildCfg::systolic_baseline(lanes), false, None)?;
        systolic.assert_ok(&format!("{} systolic", bench.name()));
        let dataflow = self.run_cached(bench, &BuildCfg::dataflow_baseline(lanes), false, None)?;
        dataflow.assert_ok(&format!("{} dataflow", bench.name()));
        Ok(Comparison {
            bench,
            revel,
            systolic_cycles: systolic.cycles,
            dataflow_cycles: dataflow.cycles,
        })
    }

    /// Lints `bench`'s build for `cfg` through the lint cache (the full
    /// verifier re-runs the spatial scheduler, so repeats are worth memoizing
    /// across the lint CLI, the serving front-end, and the test suites).
    pub(crate) fn lint(&self, bench: Bench, cfg: &BuildCfg) -> Vec<revel_verify::Diagnostic> {
        let key = (bench, *cfg);
        if let Some(diags) = self.lints.lock().expect("lint cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return diags;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = bench.workload().build(cfg);
        let diags = revel_verify::Verifier::new().verify(&built.program, &cfg.machine_config());
        let evicted = self.lints.lock().expect("lint cache lock").insert(
            key,
            diags.clone(),
            self.cache_capacity(),
        );
        self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        diags
    }
}

/// Cache counters for the report footer and the `stats` endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to simulate (or lint) from scratch.
    pub misses: u64,
    /// Entries dropped by least-recently-used eviction, summed over the
    /// run, lint and trace caches.
    pub evictions: u64,
    /// Per-cache entry bound currently in force.
    pub capacity: u64,
    /// Distinct simulated configurations currently cached.
    pub run_entries: u64,
    /// Distinct linted configurations currently cached.
    pub lint_entries: u64,
    /// Machine cycles across all distinct cached runs (deterministic:
    /// counted once per cache entry regardless of worker interleaving).
    pub sim_cycles: u64,
    /// Of [`CacheStats::sim_cycles`], cycles the event-horizon kernel
    /// skipped rather than stepped.
    pub skipped_cycles: u64,
    /// Runs routed through [`run_uncached`] — every run whose options
    /// change what a run means (a fault plan, a fabric mask, a reduced
    /// budget, the reference stepper): they neither read nor wrote the
    /// cache. Not shown in the standard footer (clean-run output stays
    /// byte-identical); the degradation sweep prints it directly.
    pub fault_bypasses: u64,
    /// Of [`CacheStats::run_entries`], entries whose program carries an
    /// obliviousness certificate (`WorkloadRun::oblivious`): their timing
    /// is provably data-independent, so a batched executor may reuse the
    /// cached cycle counts across datasets of the same shape.
    pub oblivious_entries: u64,
    /// Deadline-expired waiters that gave up on another thread's in-flight
    /// run and simulated uncached. These lookups are neither hits nor
    /// misses; `hits + misses + deadline_fallbacks` equals total lookups.
    pub deadline_fallbacks: u64,
    /// Batched executions whose timing trace was served from the trace
    /// cache (no timing walk needed).
    pub trace_hits: u64,
    /// Datasets executed through the functional trace replayer instead of
    /// the full simulator. Zero for uncertified batches — the
    /// counter-delta proof that the replay gate holds.
    pub batched_replays: u64,
    /// Lookups that missed memory but were answered from the disk tier
    /// without simulating. Neither a hit nor a miss of the memory cache.
    pub disk_hits: u64,
    /// Entries the disk tier recovered when persistence was enabled: the
    /// size of the warm start a restarted server inherited.
    pub warm_start_entries: u64,
    /// Corrupt tier files (truncated, checksum-failed, or
    /// version-mismatched) skipped as structured cold starts.
    pub disk_cold_starts: u64,
}

impl CacheStats {
    /// Skipped cycles as a percentage of all simulated machine cycles.
    pub fn skipped_pct(&self) -> f64 {
        if self.sim_cycles == 0 {
            0.0
        } else {
            100.0 * self.skipped_cycles as f64 / self.sim_cycles as f64
        }
    }

    /// Cache hits as a fraction of all lookups (0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "evaluation cache: {} hit(s), {} miss(es) ({} sim + {} lint entries, \
             {} eviction(s), capacity {})",
            self.hits,
            self.misses,
            self.run_entries,
            self.lint_entries,
            self.evictions,
            self.capacity
        )?;
        write!(
            f,
            "simulated {} machine cycles; {} stepped, {} skipped by the \
             event-horizon kernel ({:.1}%)",
            self.sim_cycles,
            self.sim_cycles - self.skipped_cycles,
            self.skipped_cycles,
            self.skipped_pct()
        )
    }
}

/// Snapshot of the engine's cache counters.
pub fn stats() -> CacheStats {
    engine().stats()
}

impl Engine {
    /// [`stats`] of this engine.
    pub(crate) fn stats(&self) -> CacheStats {
        let (run_entries, oblivious_entries) = {
            let runs = self.runs.lock().expect("run cache lock");
            (runs.ready_len() as u64, runs.ready_matching(|r| r.oblivious) as u64)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            capacity: self.cache_capacity() as u64,
            run_entries,
            lint_entries: self.lints.lock().expect("lint cache lock").ready_len() as u64,
            sim_cycles: self.sim_cycles.load(Ordering::Relaxed),
            skipped_cycles: self.skipped_cycles.load(Ordering::Relaxed),
            fault_bypasses: self.fault_bypasses.load(Ordering::Relaxed),
            oblivious_entries,
            deadline_fallbacks: self.deadline_fallbacks.load(Ordering::Relaxed),
            trace_hits: self.trace_hits.load(Ordering::Relaxed),
            batched_replays: self.batched_replays.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            warm_start_entries: self.warm_start_entries.load(Ordering::SeqCst),
            disk_cold_starts: self.disk_cold_starts.load(Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..64).collect();
        let out = par_map_jobs(&items, 8, |i| i * 2);
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_serial_and_parallel_agree() {
        let items: Vec<u64> = (0..33).collect();
        let f = |x: &u64| x.wrapping_mul(2654435761).rotate_left(7);
        assert_eq!(par_map_jobs(&items, 1, f), par_map_jobs(&items, 4, f));
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map_jobs(&empty, 4, |x| *x).is_empty());
        assert_eq!(par_map_jobs(&[7u32], 4, |x| *x + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "worker panic propagates")]
    fn par_map_propagates_worker_panics() {
        let items: Vec<usize> = (0..8).collect();
        par_map_jobs(&items, 4, |i| {
            if *i == 5 {
                panic!("worker panic propagates");
            }
            *i
        });
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let mut c: BoundedCache<u32, u32> = BoundedCache::new();
        assert_eq!(c.insert(1, 10, 2), 0);
        assert_eq!(c.insert(2, 20, 2), 0);
        // Refresh 1 so 2 becomes the LRU victim.
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.insert(3, 30, 2), 1);
        assert_eq!(c.get(&2), None, "LRU entry must be gone");
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
        assert_eq!(c.ready_len(), 2);
    }

    #[test]
    fn bounded_cache_shrinks_to_new_capacity_on_insert() {
        let mut c: BoundedCache<u32, u32> = BoundedCache::new();
        for k in 0..8 {
            c.insert(k, k, 8);
        }
        // A smaller capacity evicts down in one insert.
        assert_eq!(c.insert(100, 100, 4), 5);
        assert_eq!(c.ready_len(), 4);
        assert_eq!(c.get(&100), Some(100), "the fresh insert must survive");
    }

    #[test]
    fn bounded_cache_never_evicts_in_flight_claims() {
        let mut c: BoundedCache<u32, u32> = BoundedCache::new();
        c.claim(1);
        assert!(c.in_flight(&1));
        assert_eq!(c.ready_len(), 0);
        // Capacity 1 with a claim present: inserts only evict ready entries.
        c.insert(2, 20, 1);
        assert_eq!(c.insert(3, 30, 1), 1);
        assert!(c.in_flight(&1), "claim must survive eviction pressure");
        // Completing the claim works; releasing a fulfilled key is a no-op.
        c.insert(1, 10, 3);
        c.release_claim(&1);
        assert_eq!(c.get(&1), Some(10));
    }

    #[test]
    fn cache_capacity_is_settable_and_clamped() {
        // Its own engine: shrinking the process engine's bound would evict
        // the entries sibling tests are counting on.
        let e = Engine::new();
        assert_eq!(e.cache_capacity(), DEFAULT_CACHE_CAPACITY);
        e.set_cache_capacity(64);
        assert_eq!(e.stats().capacity, 64);
        e.set_cache_capacity(0);
        assert_eq!(e.cache_capacity(), 1, "capacity clamps to at least one entry");
    }

    #[test]
    fn run_cache_hits_on_repeat() {
        let b = Bench::Solver { n: 12 };
        let cfg = BuildCfg::revel(1);
        let first = engine().run_cached(b, &cfg, false, None).expect("runs");
        let before = stats();
        let second = engine().run_cached(b, &cfg, false, None).expect("runs");
        let after = stats();
        assert_eq!(first.cycles, second.cycles);
        assert!(after.hits > before.hits, "second lookup must hit: {before:?} -> {after:?}");
    }

    #[test]
    fn expired_deadline_times_out_and_is_never_cached() {
        let b = Bench::Qr { n: 12 };
        let cfg = BuildCfg::systolic_baseline(1);
        let before = stats();
        let dead = Some(Instant::now());
        let run = engine().run_cached(b, &cfg, false, dead).expect("runs");
        assert!(run.report.timed_out, "expired deadline must surface as timed_out");
        assert!(run.report.deadline_expired);
        // The poisoned result must not have landed in the cache: a fresh
        // lookup with no deadline simulates and completes normally.
        let good = engine().run_cached(b, &cfg, false, None).expect("runs");
        assert!(!good.report.timed_out, "cache must not have been poisoned");
        let after = stats();
        assert!(after.misses >= before.misses + 2, "both lookups were misses");
    }

    #[test]
    fn generous_deadline_matches_undeadlined_run() {
        let b = Bench::Fft { n: 64 };
        let cfg = BuildCfg::revel(1);
        let plain = engine().run_cached(b, &cfg, false, None).expect("runs");
        let far = Some(Instant::now() + std::time::Duration::from_secs(600));
        let with = engine().run_cached(b, &cfg, false, far).expect("runs");
        assert_eq!(plain.cycles, with.cycles);
        assert!(!with.report.deadline_expired);
    }

    #[test]
    fn single_flight_dedups_concurrent_misses() {
        // 8 threads race one cold key; single-flight must simulate it once.
        // Its own engine: the process-wide one counts sibling tests' misses.
        let e = Engine::new();
        let b = Bench::Solver { n: 16 };
        let cfg = BuildCfg::dataflow_baseline(1);
        let items: Vec<u32> = (0..8).collect();
        let runs = par_map_jobs(&items, 8, |_| e.run_cached(b, &cfg, false, None).expect("runs"));
        let after = e.stats();
        for r in &runs {
            assert_eq!(r.cycles, runs[0].cycles);
        }
        assert_eq!(after.misses, 1, "exactly one simulation for eight concurrent requests");
        assert_eq!(after.hits, 7, "the other seven are hits");
    }

    #[test]
    fn cycle_counters_track_distinct_runs() {
        let before = stats();
        let b = Bench::Gemm { m: 4, k: 4, p: 8 };
        let cfg = BuildCfg::revel(1);
        let run = engine().run_cached(b, &cfg, false, None).expect("runs");
        let after = stats();
        // Lower bounds only: other tests in this binary run concurrently
        // and may add their own cycles.
        assert!(
            after.sim_cycles >= before.sim_cycles + run.cycles,
            "sim-cycle counter must grow by at least this run: {before:?} -> {after:?}"
        );
        assert!(after.skipped_cycles <= after.sim_cycles);
        assert!(after.skipped_pct() >= 0.0 && after.skipped_pct() <= 100.0);
        // A repeat is a hit and must not re-count cycles; assert indirectly
        // by checking the entry count didn't change for this key.
        let again = engine().run_cached(b, &cfg, false, None).expect("runs");
        assert_eq!(run.cycles, again.cycles);
    }

    #[test]
    fn cached_runs_record_the_oblivious_certificate() {
        let b = Bench::Fft { n: 64 };
        let cfg = BuildCfg::revel(1);
        let run = engine().run_cached(b, &cfg, false, None).expect("runs");
        assert!(run.oblivious, "suite kernels are statically data-oblivious");
        let s = stats();
        assert!(s.oblivious_entries >= 1, "certified entry must be counted: {s:?}");
        assert!(
            s.oblivious_entries <= s.run_entries,
            "certified entries are a subset of cached runs: {s:?}"
        );
    }

    #[test]
    fn distinct_configs_do_not_collide() {
        let b = Bench::Solver { n: 12 };
        let revel = engine().run_cached(b, &BuildCfg::revel(1), false, None).expect("runs");
        let systolic =
            engine().run_cached(b, &BuildCfg::systolic_baseline(1), false, None).expect("runs");
        assert_ne!(revel.cycles, systolic.cycles, "different archs must not share an entry");
    }

    #[test]
    fn parallel_compare_matches_serial() {
        // The determinism claim the whole engine rests on: fanned-out,
        // cache-warmed comparisons equal fresh serial ones cycle-for-cycle.
        let benches = [Bench::Solver { n: 12 }, Bench::Fft { n: 64 }];
        let par = par_map_jobs(&benches, 2, |b| engine().compare(*b).expect("runs"));
        for (b, c) in benches.iter().zip(&par) {
            let serial = engine().compare(*b).expect("runs");
            assert_eq!(c.revel.cycles, serial.revel.cycles, "{}", b.name());
            assert_eq!(c.systolic_cycles, serial.systolic_cycles, "{}", b.name());
            assert_eq!(c.dataflow_cycles, serial.dataflow_cycles, "{}", b.name());
        }
    }

    #[test]
    fn fault_runs_bypass_and_never_poison_the_cache() {
        use revel_sim::{FaultPlan, FAULT_DEAD_PE};
        // A key no other test in this binary touches, so the clean lookup
        // below exercises a genuinely cold entry.
        let b = Bench::Qr { n: 12 };
        let cfg = BuildCfg::revel(1);
        let before = stats();
        // Enough dead-PE events across a wide window that at least one
        // lands on a configured region (seed-pinned; asserted below).
        let plan = FaultPlan::new(7, 8, 4096).with_kinds(FAULT_DEAD_PE);
        let opts = SimOptions { fault_plan: Some(plan), ..cfg.sim_options() };
        let run = run_uncached(b, &cfg, opts).expect("runs");
        let snap = run.report.fault.as_ref().expect("fault plan carried => snapshot present");
        assert!(snap.any_applied(), "seed 7 must land at least one dead-PE event");
        assert!(run.report.faulted());
        assert_eq!(run.verified, Err("fault injected".to_string()));
        let mid = stats();
        assert!(
            mid.fault_bypasses > before.fault_bypasses,
            "fault run must count as a bypass: {before:?} -> {mid:?}"
        );
        // The faulted result must not be visible to clean lookups: the same
        // key simulates fresh and completes unfaulted.
        let clean = engine().run_cached(b, &cfg, false, None).expect("runs");
        assert!(clean.report.fault.is_none(), "clean run must carry no fault section");
        assert!(clean.verified.is_ok(), "cache must serve an unpoisoned result");
        assert_ne!(clean.cycles, 0);
    }

    #[test]
    fn degraded_runs_bypass_the_cache() {
        use revel_fabric::FabricMask;
        let b = Bench::Fft { n: 64 };
        let cfg = BuildCfg::revel(1);
        let before = stats();
        // Mask one systolic tile: the scheduler repairs around it and the
        // run still verifies (degraded, not broken).
        let mask = FabricMask { dead_pes: 1, dead_links: 0 };
        let opts = SimOptions { fabric_mask: mask, ..cfg.sim_options() };
        let run = run_uncached(b, &cfg, opts).expect("schedulable around one dead PE");
        assert!(run.verified.is_ok(), "degraded run must still verify: {:?}", run.verified);
        let after = stats();
        assert!(
            after.fault_bypasses > before.fault_bypasses,
            "degraded run must count as a bypass: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn batched_replay_matches_independent_full_simulations() {
        // Exact counter deltas: this test's own engine (see `Engine::new`).
        let e = Engine::new();
        let b = Bench::Fft { n: 64 };
        let cfg = BuildCfg::revel(1);
        let seeds = [2u64, 3, 4];
        let batch = e.run_batched(b, &cfg, &seeds).expect("batched run");
        let after = e.stats();
        assert!(batch.replayed, "a certified cell must take the replay path");
        assert_eq!(batch.runs.len(), seeds.len());
        assert_eq!(after.batched_replays, seeds.len() as u64, "one replay per dataset: {after:?}");
        assert_eq!(after.trace_hits, 0, "the first batch records the trace");
        for (seed, run) in seeds.iter().zip(&batch.runs) {
            run.assert_ok(&format!("fft batched seed {seed}"));
            let full =
                run_workload_with(b.workload_seeded(*seed).as_ref(), &cfg, cfg.sim_options())
                    .expect("full sim");
            full.assert_ok(&format!("fft full seed {seed}"));
            assert_eq!(run.cycles, full.cycles, "seed {seed}: oblivious timing must match");
            assert_eq!(
                run.report.canonical_text(),
                full.report.canonical_text(),
                "seed {seed}: replayed report must be byte-identical to full simulation"
            );
        }
        // A second batch of the same cell reuses the cached trace.
        let again = e.run_batched(b, &cfg, &seeds).expect("batched rerun");
        assert!(again.replayed);
        assert_eq!(e.stats().trace_hits, 1, "second batch must hit the trace cache");
    }

    #[test]
    fn contended_deadline_fallback_keeps_lookup_accounting_exact() {
        // A waiter that gives up on someone else's in-flight run simulates
        // uncached; that lookup must still be counted, or
        // `hits + misses + deadline_fallbacks == lookups` breaks. Its own
        // engine holds a claim nobody will ever fulfil, and a deadlined
        // lookup of that key falls back.
        let e = Engine::new();
        let b = Bench::Svd { n: 12 };
        let cfg = BuildCfg::dataflow_baseline(1);
        e.runs.lock().expect("run cache lock").claim(RunKey { bench: b, cfg, batch: false });
        let deadline = Some(Instant::now() + std::time::Duration::from_millis(50));
        let run = e.run_cached(b, &cfg, false, deadline).expect("falls back uncached");
        assert!(run.report.timed_out, "expired-deadline fallback surfaces as timed_out");
        assert!(run.report.deadline_expired);
        let after = e.stats();
        assert_eq!(after.deadline_fallbacks, 1, "the fallback must be counted: {after:?}");
        assert_eq!((after.hits, after.misses), (0, 0), "neither a hit nor a miss: {after:?}");
    }

    #[test]
    fn hit_rate_is_well_defined() {
        let zero = CacheStats {
            hits: 0,
            misses: 0,
            evictions: 0,
            capacity: 1,
            run_entries: 0,
            lint_entries: 0,
            sim_cycles: 0,
            skipped_cycles: 0,
            fault_bypasses: 0,
            oblivious_entries: 0,
            deadline_fallbacks: 0,
            trace_hits: 0,
            batched_replays: 0,
            disk_hits: 0,
            warm_start_entries: 0,
            disk_cold_starts: 0,
        };
        assert_eq!(zero.hit_rate(), 0.0);
        let mixed = CacheStats { hits: 3, misses: 1, ..zero };
        assert!((mixed.hit_rate() - 0.75).abs() < 1e-12);
    }
}
