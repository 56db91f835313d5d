//! The one harness: the only place a test, the `torture` binary or the
//! `revel_serve --shards` frontend boots, drives or tears down servers.
//!
//! [`ServerGuard`] is a standalone in-process server and [`FleetGuard`] an
//! in-process router in front of real shard processes ([`attach_fleet`]
//! is the boot it shares with the frontend binary). Dropping a fleet guard
//! **reaps its shard processes**: a failed gate returns (or panics) past
//! the guard, and the ports are free before the process exits.
//! [`load_frames`], [`replay_pass`] and [`reference_answers`] are the
//! fleet's byte-identity oracle — replay a frame file, compare encoded
//! answers with a standalone server's — and [`wait_for`] the one
//! poll-until loop.

use crate::client::{Client, ClientError};
use crate::fleet::{Fleet, FleetConfig, Supervisor};
use crate::protocol::{decode_request, encode_response, read_all_frames, Request, Response};
use crate::server::{FinalStats, Server, ServerConfig};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often [`wait_for`] re-evaluates its condition.
const POLL: Duration = Duration::from_millis(20);

/// Polls `cond` until it holds or `timeout` elapses; returns whether it
/// held. The condition is always evaluated at least once.
pub fn wait_for(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(POLL);
    }
}

/// A loopback server configuration on an ephemeral port; every other
/// field keeps its default. Callers override with struct-update syntax.
pub fn loopback(workers: usize, queue_capacity: usize) -> ServerConfig {
    ServerConfig { addr: "127.0.0.1:0".to_string(), workers, queue_capacity, ..Default::default() }
}

/// Spawns `cfg`'s shard processes under a [`Supervisor`] and attaches
/// them to `router` ([`Server::set_fleet`]). The caller must
/// [`Supervisor::shutdown`] the returned handle once the router has
/// drained ([`FleetGuard`] does both).
///
/// # Errors
/// Propagates spawn failures of the initial shard set.
pub fn attach_fleet(router: &mut Server, cfg: FleetConfig) -> std::io::Result<Arc<Supervisor>> {
    let supervisor = Arc::new(Supervisor::start(cfg)?);
    router.set_fleet(Arc::clone(&supervisor));
    Ok(supervisor)
}

/// A server running on a background thread. [`ServerGuard::shutdown`] is
/// the normal end; a guard dropped without it (a panicking test) still
/// stops and joins its server.
pub struct ServerGuard {
    addr: String,
    server: Arc<Server>,
    thread: Option<JoinHandle<std::io::Result<FinalStats>>>,
}

impl ServerGuard {
    /// Binds `cfg` and serves it on a background thread.
    ///
    /// # Errors
    /// Propagates bind errors.
    pub fn start(cfg: &ServerConfig) -> std::io::Result<ServerGuard> {
        let server = Server::bind(cfg)?;
        let addr = server.local_addr()?.to_string();
        Ok(ServerGuard::spawn(server, addr))
    }

    fn spawn(server: Server, addr: String) -> ServerGuard {
        let server = Arc::new(server);
        let serving = Arc::clone(&server);
        let thread = std::thread::spawn(move || serving.serve());
        ServerGuard { addr, server, thread: Some(thread) }
    }

    /// The bound `host:port` (port 0 resolved).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Graceful end: sends a `shutdown` request, as an operator would,
    /// waits for the drain and returns the server's final counters.
    ///
    /// # Panics
    /// If the server does not answer `shutting_down`, or its thread
    /// panicked or died on a listener error: bugs in the server this
    /// guard started, not conditions a caller can handle.
    pub fn shutdown(mut self) -> FinalStats {
        self.drain()
    }

    fn drain(&mut self) -> FinalStats {
        let answer = Client::connect(&self.addr).and_then(|mut c| c.request(&Request::Shutdown));
        assert!(
            matches!(answer, Ok(Response::ShuttingDown)),
            "server at {} answered shutdown with {answer:?}",
            self.addr
        );
        let thread = self.thread.take().expect("a guard drains once");
        thread.join().expect("server thread panicked").expect("server died on a listener error")
    }
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.server.request_shutdown();
            let _ = thread.join();
        }
    }
}

/// The fleet of `revel_serve --shards` with an in-process router, so the
/// [`Supervisor`] is in reach: a harness can read the roster and kill
/// shards.
pub struct FleetGuard {
    router: ServerGuard,
    supervisor: Arc<Supervisor>,
}

impl FleetGuard {
    /// Binds the router on `router_cfg`, spawns `fleet_cfg`'s shards and
    /// starts routing. Shards come up asynchronously: wait on
    /// [`Fleet::wait_alive`] before offering load.
    ///
    /// # Errors
    /// Propagates the router's bind error and shard spawn failures.
    pub fn start(fleet_cfg: FleetConfig, router_cfg: &ServerConfig) -> std::io::Result<FleetGuard> {
        let mut router = Server::bind(router_cfg)?;
        let addr = router.local_addr()?.to_string();
        let supervisor = attach_fleet(&mut router, fleet_cfg)?;
        Ok(FleetGuard { router: ServerGuard::spawn(router, addr), supervisor })
    }

    /// The router's bound `host:port`.
    pub fn addr(&self) -> &str {
        self.router.addr()
    }

    /// The routing table: liveness, roster, direct forwards.
    pub fn fleet(&self) -> &Arc<Fleet> {
        self.supervisor.fleet()
    }

    /// The supervisor owning the shard processes.
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// Graceful end: drains the router (see [`ServerGuard::shutdown`]),
    /// then the shards, and returns the router's final counters.
    pub fn shutdown(mut self) -> FinalStats {
        let stats = self.router.drain();
        self.supervisor.shutdown();
        stats
    }
}

impl Drop for FleetGuard {
    /// Reaps the shard processes (a no-op after [`FleetGuard::shutdown`]);
    /// the router guard then stops its own thread.
    fn drop(&mut self) {
        self.supervisor.shutdown();
    }
}

/// Reads a replay file (one request frame per line) and returns its
/// frames with the ids of the work-plane ones — the frames whose answers
/// must be byte-identical on every serving path.
///
/// # Errors
/// I/O failures, the oversized-frame bound, and undecodable frames (as
/// `InvalidData`).
pub fn load_frames(path: &Path) -> std::io::Result<(Vec<String>, Vec<u64>)> {
    let frames = read_all_frames(std::io::BufReader::new(std::fs::File::open(path)?))?;
    let mut work_ids = Vec::new();
    for frame in &frames {
        let (id, req) = decode_request(frame).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad replay frame: {e}"))
        })?;
        if req.is_work_plane() {
            work_ids.push(id);
        }
    }
    Ok((frames, work_ids))
}

/// One pass over `frames` against `addr`, each driven to its terminal
/// answer (through overload and the `fleet_unavailable` of a crash
/// window); returns `id -> encoded response frame`.
///
/// # Errors
/// Transport failures, a closed connection, or a protocol violation.
pub fn replay_pass(addr: &str, frames: &[String]) -> Result<HashMap<u64, String>, ClientError> {
    let mut client = Client::connect(addr)?;
    frames
        .iter()
        .map(|frame| {
            let (id, resp) = client.request_raw_until_terminal(frame)?;
            Ok((id, encode_response(id, &resp)))
        })
        .collect()
}

/// The ground truth a fleet must match byte for byte: `frames` answered
/// by a standalone in-process server (two workers, the pre-fleet serving
/// path, which the loopback tests pin to `Bench::run`).
///
/// # Errors
/// The standalone server's bind error, or a [`replay_pass`] failure.
pub fn reference_answers(frames: &[String]) -> Result<HashMap<u64, String>, ClientError> {
    let server = ServerGuard::start(&loopback(2, 32))?;
    let answers = replay_pass(server.addr(), frames);
    server.shutdown();
    answers
}
