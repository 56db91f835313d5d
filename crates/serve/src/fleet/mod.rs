//! The scale-out shard fleet (DESIGN.md §11, "Shard fleet").
//!
//! One frontend process owns the public port and routes work-plane
//! requests to N single-shard `revel_serve` worker processes by
//! **consistent hashing on the engine's cache-key fingerprint**: the
//! same evaluation-grid cell always lands on the same shard, so each
//! shard's bounded memory cache and persistent disk tier stay hot for
//! its slice of the grid instead of every shard cold-starting every
//! cell.
//!
//! The module family:
//!
//! * [`placement`] — the hash ring: virtual nodes, deterministic
//!   placement, and the rebalance property (removing a shard moves only
//!   that shard's keys);
//! * [`router`] — [`Fleet`]: per-shard connection pools,
//!   forward-with-failover along ring successors, fleet-wide stats
//!   aggregation, and the `fleet_stats` roster;
//! * [`supervisor`] — shard processes and the [`Fleet`] over them:
//!   spawn, health-probe, respawn on death (the ring rebalances while
//!   the shard is down and again when it returns), the restart circuit
//!   that evicts a flapping shard, scripted kills, and graceful fleet
//!   shutdown.
//!
//! Nothing outside this module constructs a fleet: a frontend is booted
//! by [`crate::harness::attach_fleet`], which hands the server the
//! [`Supervisor`].
//!
//! Failure model: a forward that fails over marks the shard down and
//! retries the request on the next ring successor; when no shard can
//! serve, the client gets a retryable `fleet_unavailable` error and the
//! supervisor's respawn brings capacity back. A respawned shard
//! warm-starts from its persistent tier
//! ([`revel_core::engine::persist`]), so the keys that rebalance back
//! to it are answered from disk before its first simulation completes.

pub mod placement;
pub mod router;
pub mod supervisor;

pub use placement::Ring;
pub use router::Fleet;
pub use supervisor::{FleetConfig, ShardFailpoints, Supervisor, DEFAULT_MAX_RESTARTS};
