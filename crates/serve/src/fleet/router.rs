//! The fleet router: forwards work-plane requests to the shard that owns
//! their cache key, failing over along ring successors.

use super::placement::Ring;
use crate::client::Client;
use crate::protocol::{Counters, Request, Response, ShardStatsWire};
use revel_bench::grid;
use revel_core::engine::{self, CacheStats};
use revel_core::sim::ScheduleCacheStats;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::Duration;

/// Read-timeout backstop on forwarded requests: generous enough for a
/// cold simulation of the largest grid cell, tight enough that a hung
/// shard eventually fails over instead of wedging a router worker.
const FORWARD_TIMEOUT: Duration = Duration::from_secs(120);

/// Read timeout for control-plane fan-out (stats, shutdown): these are
/// answered inline by shards, so seconds means the shard is gone.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(5);

/// Retry hint attached to `fleet_unavailable`: roughly the supervisor's
/// detect-and-respawn latency.
const UNAVAILABLE_RETRY_MS: u64 = 50;

/// One shard as the router sees it: address, liveness, routing counters,
/// and a pool of idle connections.
struct ShardHandle {
    id: usize,
    port: u16,
    addr: String,
    /// Routable: the process answered a health probe and has not failed
    /// a forward since. Flipped by the router (on transport failure) and
    /// the supervisor (on death/respawn); every flip rebuilds the ring.
    alive: AtomicBool,
    /// Requests forwarded to this shard and answered.
    routed: AtomicU64,
    /// Forward attempts against this shard that failed (connect or
    /// transport), each causing a failover to the next successor.
    failed: AtomicU64,
    /// Times the supervisor respawned this shard's process (surfaced in
    /// the `fleet_stats` roster).
    restarts: AtomicU64,
    /// Permanently evicted by the supervisor's restart circuit: never
    /// marked up again, the ring routes around it for good.
    evicted: AtomicBool,
    /// Idle connections, reused across forwards (a dead shard's pool is
    /// discarded when it is marked down).
    pool: Mutex<Vec<Client>>,
}

/// The shard fleet: the routing table the frontend server forwards
/// through. Liveness flips rebuild the consistent-hash ring over the
/// alive set; all methods are callable from any worker thread.
pub struct Fleet {
    shards: Vec<ShardHandle>,
    ring: RwLock<Ring>,
    /// Round-robin cursor for unkeyed requests (`sleep`).
    rr: AtomicUsize,
}

impl Fleet {
    /// Builds the routing table for shards `0..count` listening on
    /// `host:ports[i]`. Every shard starts **down** — the supervisor's
    /// health probe marks it up once the process answers.
    pub fn new(host: &str, ports: &[u16]) -> Fleet {
        let shards = ports
            .iter()
            .enumerate()
            .map(|(id, &port)| ShardHandle {
                id,
                port,
                addr: format!("{host}:{port}"),
                alive: AtomicBool::new(false),
                routed: AtomicU64::new(0),
                failed: AtomicU64::new(0),
                restarts: AtomicU64::new(0),
                evicted: AtomicBool::new(false),
                pool: Mutex::new(Vec::new()),
            })
            .collect();
        Fleet { shards, ring: RwLock::new(Ring::default()), rr: AtomicUsize::new(0) }
    }

    /// Number of shards in the roster (alive or not).
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True for a fleet with no shards at all.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// `host:port` of shard `id`, for talking to it past the router.
    pub fn shard_addr(&self, id: usize) -> Option<&str> {
        self.shards.get(id).map(|s| s.addr.as_str())
    }

    /// True while shard `id` is routable.
    pub fn is_alive(&self, id: usize) -> bool {
        self.shards.get(id).is_some_and(|s| s.alive.load(Ordering::SeqCst))
    }

    /// Currently routable shards.
    pub fn alive_count(&self) -> usize {
        self.shards.iter().filter(|s| s.alive.load(Ordering::SeqCst)).count()
    }

    /// Blocks until at least `n` shards are routable or `timeout`
    /// elapses; returns whether the quorum was reached.
    pub fn wait_alive(&self, n: usize, timeout: Duration) -> bool {
        crate::harness::wait_for(timeout, || self.alive_count() >= n)
    }

    /// Marks a shard routable (supervisor, after a successful health
    /// probe) and rebalances the ring to include it. Refused for an
    /// evicted shard: the restart circuit's verdict is final.
    pub fn mark_up(&self, id: usize) {
        let Some(shard) = self.shards.get(id) else { return };
        if shard.evicted.load(Ordering::SeqCst) {
            return;
        }
        if !shard.alive.swap(true, Ordering::SeqCst) {
            self.rebuild_ring();
        }
    }

    /// Permanently evicts a flapping shard (the supervisor's restart
    /// circuit): marked down, flagged so [`Fleet::mark_up`] refuses it,
    /// and the ring rebalances its keys to the survivors for good.
    pub fn evict(&self, id: usize) {
        let Some(shard) = self.shards.get(id) else { return };
        shard.evicted.store(true, Ordering::SeqCst);
        self.mark_down(id);
    }

    /// True once shard `id` has been permanently evicted.
    pub fn is_evicted(&self, id: usize) -> bool {
        self.shards.get(id).is_some_and(|s| s.evicted.load(Ordering::SeqCst))
    }

    /// Records one supervisor respawn of shard `id` (roster column).
    pub fn record_restart(&self, id: usize) {
        if let Some(shard) = self.shards.get(id) {
            shard.restarts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Lifetime respawns of shard `id` as recorded by the supervisor.
    pub fn restarts(&self, id: usize) -> u64 {
        self.shards.get(id).map_or(0, |s| s.restarts.load(Ordering::Relaxed))
    }

    /// Marks a shard unroutable (transport failure or process death),
    /// discards its pooled connections, and rebalances the ring so its
    /// keys fail over to their successors.
    pub fn mark_down(&self, id: usize) {
        let Some(shard) = self.shards.get(id) else { return };
        if shard.alive.swap(false, Ordering::SeqCst) {
            shard.pool.lock().expect("shard pool lock").clear();
            self.rebuild_ring();
        }
    }

    fn rebuild_ring(&self) {
        let alive: Vec<usize> =
            self.shards.iter().filter(|s| s.alive.load(Ordering::SeqCst)).map(|s| s.id).collect();
        *self.ring.write().expect("ring lock") = Ring::build(&alive);
    }

    /// Forwards one work-plane request to the shard owning its cache-key
    /// fingerprint, failing over along ring successors. When no shard
    /// answers, the caller gets a retryable `fleet_unavailable` error —
    /// the supervisor's respawn is the recovery path.
    pub fn forward(&self, req: &Request) -> Response {
        for id in self.candidates(req) {
            if let Some(resp) = self.try_forward(&self.shards[id], req, FORWARD_TIMEOUT) {
                return resp;
            }
        }
        Response::Error {
            kind: "fleet_unavailable".to_string(),
            message: "no shard could serve the request".to_string(),
            retry_after_ms: Some(UNAVAILABLE_RETRY_MS),
        }
    }

    /// The failover chain for a request: ring successors for keyed ops,
    /// round-robin over the alive set for unkeyed ones.
    fn candidates(&self, req: &Request) -> Vec<usize> {
        if let Some(fp) = route_fingerprint(req) {
            return self.ring.read().expect("ring lock").successors(fp);
        }
        let alive: Vec<usize> =
            self.shards.iter().filter(|s| s.alive.load(Ordering::SeqCst)).map(|s| s.id).collect();
        if alive.is_empty() {
            return alive;
        }
        let start = self.rr.fetch_add(1, Ordering::Relaxed) % alive.len();
        let mut order = alive[start..].to_vec();
        order.extend_from_slice(&alive[..start]);
        order
    }

    /// One forward attempt against one shard; `None` means the shard
    /// failed at the transport level (and was marked down — protocol-level
    /// errors from a live shard are real answers and returned as-is).
    ///
    /// A failure on a *pooled* connection gets one retry on a fresh
    /// connection before the shard is condemned: the shard's
    /// slow-loris armor closes idle keep-alive connections after its
    /// `--conn-timeout`, and a pool entry that sat out the timeout must
    /// read as a stale socket, not a dead shard. (Work-plane requests
    /// are pure simulations, so the retry is idempotent.)
    fn try_forward(
        &self,
        shard: &ShardHandle,
        req: &Request,
        timeout: Duration,
    ) -> Option<Response> {
        // Pop under a short-lived guard: holding the pool lock across the
        // request would wedge everyone else who needs the pool (including
        // the push-back below).
        let pooled = shard.pool.lock().expect("shard pool lock").pop();
        if let Some(mut client) = pooled {
            if let Ok(resp) = client.request(req) {
                shard.routed.fetch_add(1, Ordering::Relaxed);
                shard.pool.lock().expect("shard pool lock").push(client);
                return Some(resp);
            }
            // Stale pooled socket; fall through to a fresh connection.
        }
        let mut client = match Client::connect(&shard.addr) {
            Ok(c) => {
                let _ = c.set_read_timeout(Some(timeout));
                c
            }
            Err(_) => {
                shard.failed.fetch_add(1, Ordering::Relaxed);
                self.mark_down(shard.id);
                return None;
            }
        };
        match client.request(req) {
            Ok(resp) => {
                shard.routed.fetch_add(1, Ordering::Relaxed);
                shard.pool.lock().expect("shard pool lock").push(client);
                Some(resp)
            }
            Err(_) => {
                shard.failed.fetch_add(1, Ordering::Relaxed);
                self.mark_down(shard.id);
                None
            }
        }
    }

    /// The `fleet_stats` roster: one row per shard, dead or alive.
    pub fn roster(&self) -> Vec<ShardStatsWire> {
        self.shards
            .iter()
            .map(|s| ShardStatsWire {
                shard: s.id as u64,
                port: u64::from(s.port),
                alive: s.alive.load(Ordering::SeqCst),
                routed: s.routed.load(Ordering::Relaxed),
                failed: s.failed.load(Ordering::Relaxed),
                restarts: s.restarts.load(Ordering::Relaxed),
                evicted: s.evicted.load(Ordering::SeqCst),
            })
            .collect()
    }

    /// Sums engine and schedule counters across every alive shard, so a
    /// client's stats window works against a fleet exactly as it does
    /// against one server. `None` when no shard answered. (A respawned
    /// shard restarts its counters; fleet-wide sums are therefore
    /// monotonic only while the roster is stable — clients clamp their
    /// window deltas.)
    pub fn aggregate_stats(&self) -> Option<(CacheStats, ScheduleCacheStats)> {
        let mut sum = None;
        for shard in self.shards.iter().filter(|s| s.alive.load(Ordering::SeqCst)) {
            let Some(Response::Stats { engine, schedule, .. }) =
                self.try_forward(shard, &Request::Stats, CONTROL_TIMEOUT)
            else {
                continue;
            };
            sum = Some(match sum {
                None => (engine, schedule),
                Some((e, s)) => (engine.sum(&e), schedule.sum(&s)),
            });
        }
        sum
    }

    /// The alive ring owner of a cell: the first successor of its routing
    /// fingerprint, i.e. the shard a fresh forward of that cell would hit.
    /// `None` when no shard is alive. Scenario kill events use this to
    /// SIGKILL the shard that is actually serving a cell.
    pub fn owner_of_cell(&self, bench: &str, params: &str, arch: &str) -> Option<usize> {
        let fp = cell_fingerprint(bench, params, arch);
        self.ring.read().expect("ring lock").successors(fp).into_iter().next()
    }

    /// Asks every alive shard to shut down gracefully (the supervisor
    /// then waits for the processes to exit).
    pub fn shutdown_shards(&self) {
        for shard in self.shards.iter().filter(|s| s.alive.load(Ordering::SeqCst)) {
            let _ = self.try_forward(shard, &Request::Shutdown, CONTROL_TIMEOUT);
        }
    }
}

/// The routing key for a request: the low word of the engine's cache-key
/// fingerprint for resolvable cells (so routing agrees exactly with what
/// the shard will cache), a stable string fingerprint for unresolvable
/// ones (repeated probes of a bad cell still land on one shard), `None`
/// for unkeyed ops (`sleep`), which round-robin.
pub fn route_fingerprint(req: &Request) -> Option<u64> {
    match req {
        Request::Simulate { bench, params, arch, .. } => {
            Some(cell_fingerprint(bench, params, arch))
        }
        Request::SimulateBatch { bench, params, arch, .. } => {
            Some(cell_fingerprint(bench, params, arch))
        }
        Request::Lint { bench, params, arch } => Some(cell_fingerprint(bench, params, arch)),
        Request::Compare { bench, params } => Some(cell_fingerprint(bench, params, "revel")),
        _ => None,
    }
}

/// Batch and non-batch requests for one cell share a fingerprint (the
/// engine's trace cache makes them reinforce each other on one shard).
fn cell_fingerprint(bench: &str, params: &str, arch: &str) -> u64 {
    match grid::resolve(bench, params, arch) {
        Some((b, cfg)) => engine::key_fingerprint(b, &cfg, false).0,
        None => engine::persist::fingerprint(&format!("{bench}|{params}|{arch}")).0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_requests_share_a_fingerprint_across_ops() {
        let sim = route_fingerprint(&Request::simulate("fft", "n=64", "revel")).expect("keyed");
        let lint = route_fingerprint(&Request::Lint {
            bench: "fft".to_string(),
            params: "n=64".to_string(),
            arch: "revel".to_string(),
        })
        .expect("keyed");
        assert_eq!(sim, lint, "lint co-locates with the runs it lints");
        let other = route_fingerprint(&Request::simulate("fft", "n=256", "revel")).expect("keyed");
        assert_ne!(sim, other, "different cells, different keys");
        assert_eq!(route_fingerprint(&Request::Sleep { ms: 1 }), None, "sleep is unkeyed");
    }

    #[test]
    fn unresolvable_cells_still_route_stably() {
        let a =
            route_fingerprint(&Request::simulate("no-such-bench", "n=1", "revel")).expect("keyed");
        let b =
            route_fingerprint(&Request::simulate("no-such-bench", "n=1", "revel")).expect("keyed");
        assert_eq!(a, b);
    }

    #[test]
    fn the_fleet_sum_of_two_records_is_field_wise() {
        // Sixteen distinct counters per shard, in wire order.
        let shard = |k: u64| CacheStats::from_counts(&(k..k + 16).collect::<Vec<u64>>());
        let (a, b) = (shard(100), shard(2000));
        assert_eq!((a.hits, a.capacity, b.warm_start_entries), (100, 103, 2014));
        let sum = a.sum(&b);
        assert_eq!((sum.hits, sum.capacity, sum.warm_start_entries), (2100, 2106, 2128), "{sum:?}");
        assert_eq!(sum.counts(), (0..16).map(|i| 2100 + 2 * i).collect::<Vec<u64>>());
        let sched = ScheduleCacheStats { hits: 1, misses: 2, entries: 3 }
            .sum(&ScheduleCacheStats { hits: 10, misses: 20, entries: 30 });
        assert_eq!(sched, ScheduleCacheStats { hits: 11, misses: 22, entries: 33 });
    }

    #[test]
    fn a_fleet_with_no_live_shards_answers_fleet_unavailable() {
        let fleet = Fleet::new("127.0.0.1", &[1, 2, 3]);
        assert_eq!(fleet.alive_count(), 0);
        let resp = fleet.forward(&Request::simulate("fft", "n=64", "revel"));
        match &resp {
            Response::Error { kind, retry_after_ms, .. } => {
                assert_eq!(kind, "fleet_unavailable");
                assert!(retry_after_ms.is_some(), "the error carries a backoff hint");
            }
            other => panic!("expected fleet_unavailable, got {other:?}"),
        }
        assert!(resp.is_retryable(), "fleet_unavailable is transient by contract");
    }

    #[test]
    fn an_evicted_shard_refuses_mark_up_and_surfaces_in_the_roster() {
        let fleet = Fleet::new("127.0.0.1", &[1, 2]);
        fleet.mark_up(0);
        fleet.mark_up(1);
        fleet.record_restart(0);
        fleet.record_restart(0);
        assert_eq!(fleet.restarts(0), 2);
        fleet.evict(0);
        assert!(fleet.is_evicted(0));
        assert!(!fleet.is_alive(0), "eviction marks the shard down");
        fleet.mark_up(0);
        assert!(!fleet.is_alive(0), "the circuit's verdict is final");
        let roster = fleet.roster();
        assert!(roster[0].evicted && roster[0].restarts == 2, "{roster:?}");
        assert!(!roster[1].evicted && roster[1].alive, "{roster:?}");
    }

    #[test]
    fn liveness_flips_rebalance_the_ring() {
        let fleet = Fleet::new("127.0.0.1", &[1, 2, 3]);
        fleet.mark_up(0);
        fleet.mark_up(1);
        fleet.mark_up(2);
        let fp = route_fingerprint(&Request::simulate("fft", "n=64", "revel")).expect("keyed");
        let owner = fleet.ring.read().expect("ring").route(fp).expect("route");
        fleet.mark_down(owner);
        let next = fleet.ring.read().expect("ring").route(fp).expect("route");
        assert_ne!(next, owner, "the dead shard's keys fail over");
        fleet.mark_up(owner);
        let back = fleet.ring.read().expect("ring").route(fp).expect("route");
        assert_eq!(back, owner, "a respawned shard reclaims its keys");
    }
}
