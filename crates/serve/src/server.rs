//! The concurrent simulation server.
//!
//! Threading model (all std, no reactor):
//!
//! * a single **event loop** runs on the caller's thread: a non-blocking
//!   listener plus one non-blocking socket per connection, each with its
//!   own read buffer ([`FrameReader`]), write buffer, and an ordered
//!   queue of pending replies. The loop paces itself with a readiness
//!   wheel — a tick that made progress polls again at once, idle ticks
//!   sleep, doubling from `IDLE_FLOOR` up to `POLL_INTERVAL` — so an
//!   idle server costs ~100 wakeups/s. Nothing wakes the loop: a worker's
//!   reply waits for the next sweep, which the benchmark ledger measures
//!   at ~620 µs of a resident request's ~636 µs round trip
//!   (`serve.server.worker_handoff_us`), and at ~8 ms after 50 ms of
//!   silence (`serve.server.idle_hit_rtt_us`);
//! * control-plane ops (`health`, `stats`, `shutdown`) are answered
//!   inline on the loop — they work even when the work queue is
//!   saturated (you can always ask a drowning server for its stats) —
//!   while work-plane ops go through the bounded queue, a full queue
//!   answering `overloaded` immediately;
//! * a **worker pool** (built on the evaluation engine's `par_map_jobs`
//!   primitive, one long-lived loop per worker slot) pops jobs and
//!   executes them through the process-wide engine cache, with a
//!   `catch_unwind` fence so a panicking request becomes a structured
//!   `internal` error instead of a dead worker. The `serve.worker.pre-run` failpoint sits
//!   inside that fence, so an armed `panic` tests the fence itself.
//!
//! Replies stay in request order per connection: each admitted frame
//! reserves a slot in the connection's pending queue, and the loop only
//! flushes a reply once every earlier slot has one.
//!
//! Graceful shutdown (SIGTERM, ctrl-c, or a `shutdown` request): the
//! loop stops accepting and stops reading new frames, keeps ticking
//! until every pending reply is flushed, then closes the queue and
//! joins the workers. Nothing admitted is ever dropped.

use crate::probe;
use crate::protocol::{encode_response, Counters, Frame, FrameReader, Request, Response};
use crate::queue::{Bounded, PushError};
use crate::signal;
use revel_bench::grid;
use revel_core::engine::persist::PersistedRun;
use revel_core::engine::{self, Served};
use revel_core::sim::{FaultPlan, RunReport, SimOptions};
use revel_core::workloads::WorkloadRun;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Ceiling of the event loop's idle backoff: the longest a fully idle
/// server sleeps between readiness sweeps.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Floor of the event loop's idle backoff: the first sleep after a tick
/// that made no progress.
const IDLE_FLOOR: Duration = Duration::from_micros(500);

/// Default [`ServerConfig::conn_timeout`]: how long a connection may sit
/// without completing a frame (while owing nothing) before the
/// slow-loris armor closes it.
pub const DEFAULT_CONN_TIMEOUT: Duration = Duration::from_secs(30);

/// Default [`ServerConfig::wbuf_limit`]: per-connection cap on unread
/// reply bytes before the connection is dropped as a non-draining peer.
pub const DEFAULT_WBUF_LIMIT: usize = 1 << 20;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7411` (port 0 = ephemeral).
    pub addr: String,
    /// Worker threads; 0 = the engine's job count (one per core).
    pub workers: usize,
    /// Bounded-queue capacity (admitted-but-unserved requests).
    pub queue_capacity: usize,
    /// Slow-loris armor: a connection that has not completed a frame
    /// within this window — while owing no replies — is closed and
    /// counted. `Duration::ZERO` disables the deadline. In-flight work
    /// is never expired: a connection waiting on a long simulation owes
    /// a reply and is exempt until it is flushed.
    pub conn_timeout: Duration,
    /// Per-connection cap on buffered-but-unread reply **bytes** (not
    /// frames): a peer that stops draining its socket while replies
    /// accumulate past this bound is disconnected and counted instead
    /// of growing the write buffer without limit.
    pub wbuf_limit: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7411".to_string(),
            workers: 0,
            queue_capacity: 64,
            conn_timeout: DEFAULT_CONN_TIMEOUT,
            wbuf_limit: DEFAULT_WBUF_LIMIT,
        }
    }
}

/// The server's request counters: the `server` member of a `stats` answer
/// while it runs, and what [`Server::serve`] returns for the shutdown line.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FinalStats {
    /// Requests admitted (decoded successfully).
    pub received: u64,
    /// Requests completed by a worker.
    pub completed: u64,
    /// Requests rejected `overloaded` (queue full).
    pub overloaded: u64,
    /// Requests that ended `timed_out` (budget or deadline).
    pub timed_out: u64,
    /// Requests answered with a structured error.
    pub errors: u64,
    /// Requests answered `injected_fault` by an armed
    /// `serve.worker.pre-run` failpoint.
    pub injected: u64,
    /// Connections closed by the slow-loris deadline (no complete frame,
    /// nothing owed, `conn_timeout` elapsed).
    pub conn_timeouts: u64,
    /// Connections dropped for overflowing the per-connection
    /// write-buffer byte cap.
    pub write_overflows: u64,
}

/// The shutdown line: `name N` pairs in wire order.
impl std::fmt::Display for FinalStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.fmt_pairs(f)
    }
}

/// One queued job: a decoded request plus its reply channel and the
/// wall-clock deadline fixed at admission (queueing time counts).
struct Job {
    req: Request,
    deadline: Option<Instant>,
    reply: mpsc::Sender<Response>,
}

struct Shared {
    queue: Bounded<Job>,
    shutdown: AtomicBool,
    workers: usize,
    /// Local port (resolved after bind), given to failpoint sites as
    /// their context.
    port: u16,
    /// Slow-loris deadline (`Duration::ZERO` disables it).
    conn_timeout: Duration,
    /// Per-connection unread-reply byte cap.
    wbuf_limit: usize,
    active_connections: AtomicU64,
    received: AtomicU64,
    completed: AtomicU64,
    overloaded: AtomicU64,
    timed_out: AtomicU64,
    errors: AtomicU64,
    injected: AtomicU64,
    conn_timeouts: AtomicU64,
    write_overflows: AtomicU64,
}

impl Shared {
    fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::shutdown_requested()
    }

    fn final_stats(&self) -> FinalStats {
        FinalStats {
            received: self.received.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            injected: self.injected.load(Ordering::Relaxed),
            conn_timeouts: self.conn_timeouts.load(Ordering::Relaxed),
            write_overflows: self.write_overflows.load(Ordering::Relaxed),
        }
    }

    /// Backoff hint in milliseconds, derived from the queue depth: an
    /// empty queue suggests an almost-immediate retry, a deep one scales
    /// the wait by the backlog per worker.
    fn retry_hint_ms(&self) -> u64 {
        let depth = self.queue.len() as u64;
        5 + depth * 25 / self.workers.max(1) as u64
    }
}

/// The simulation server. Bind, then [`Server::serve`] (blocks until
/// shutdown).
pub struct Server {
    listener: TcpListener,
    shared: Shared,
}

impl Server {
    /// Binds the listener (non-blocking accepts) and sizes the pool.
    ///
    /// # Errors
    /// Propagates bind/configuration I/O errors.
    pub fn bind(cfg: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let port = listener.local_addr()?.port();
        let workers = if cfg.workers == 0 { engine::jobs() } else { cfg.workers };
        Ok(Server {
            listener,
            shared: Shared {
                queue: Bounded::new(cfg.queue_capacity),
                shutdown: AtomicBool::new(false),
                workers,
                port,
                conn_timeout: cfg.conn_timeout,
                wbuf_limit: cfg.wbuf_limit.max(1),
                active_connections: AtomicU64::new(0),
                received: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                overloaded: AtomicU64::new(0),
                timed_out: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                injected: AtomicU64::new(0),
                conn_timeouts: AtomicU64::new(0),
                write_overflows: AtomicU64::new(0),
            },
        })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    /// Propagates `local_addr` I/O errors.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Requests graceful shutdown from another thread (tests; signals use
    /// the flag in [`signal`]).
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Runs the server until shutdown; returns the final counters after
    /// every connection is closed and every admitted job served.
    ///
    /// # Errors
    /// Propagates fatal listener errors (per-connection errors only close
    /// that connection).
    pub fn serve(&self) -> std::io::Result<FinalStats> {
        let shared = &self.shared;
        std::thread::scope(|scope| -> std::io::Result<()> {
            // The worker pool rides the engine's own fan-out primitive:
            // one long-lived worker loop per slot.
            let pool = scope.spawn(move || {
                let slots: Vec<usize> = (0..shared.workers).collect();
                engine::par_map_jobs(&slots, shared.workers, |_slot| worker_loop(shared));
            });
            let result = event_loop(&self.listener, shared);
            shared.queue.close();
            let _ = pool.join();
            result
        })?;
        Ok(shared.final_stats())
    }
}

/// Frames one connection may feed through a single pump sweep before the
/// flush stage (and everyone else's sweep) gets its turn.
const READ_BATCH: u32 = 128;

/// Escalating idle backoff for the event loop: a tick that made progress
/// resets to busy polling, consecutive idle ticks double the sleep from
/// [`IDLE_FLOOR`] up to [`POLL_INTERVAL`].
struct ReadinessWheel {
    idle_ticks: u32,
}

impl ReadinessWheel {
    fn new() -> ReadinessWheel {
        ReadinessWheel { idle_ticks: 0 }
    }

    fn tick(&mut self, progress: bool) {
        if progress {
            self.idle_ticks = 0;
            return;
        }
        let wait = IDLE_FLOOR.saturating_mul(1 << self.idle_ticks.min(5)).min(POLL_INTERVAL);
        self.idle_ticks = self.idle_ticks.saturating_add(1);
        std::thread::sleep(wait);
    }
}

/// A reply slot in a connection's ordered outgoing queue.
enum Pending {
    /// Encoded and ready to flush.
    Ready(String),
    /// Waiting on a worker; encoded with `id` when the reply arrives.
    Wait { id: u64, rx: mpsc::Receiver<Response> },
}

/// One live connection owned by the event loop.
struct Conn {
    stream: TcpStream,
    frames: FrameReader<TcpStream>,
    /// Bytes queued for the socket; `wpos` marks how much is written.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Replies owed to the client, in request order.
    pending: VecDeque<Pending>,
    /// Stop reading new frames; flush what is owed, then close.
    closing: bool,
    /// When the connection last completed a frame (or was accepted):
    /// the clock the slow-loris deadline runs against.
    last_frame: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Option<Conn> {
        stream.set_nonblocking(true).ok()?;
        let _ = stream.set_nodelay(true);
        let reader = stream.try_clone().ok()?;
        Some(Conn {
            stream,
            frames: FrameReader::new(reader),
            wbuf: Vec::new(),
            wpos: 0,
            pending: VecDeque::new(),
            closing: false,
            last_frame: Instant::now(),
        })
    }

    /// The connection has nothing left to do: no more reads, every owed
    /// reply flushed.
    fn done(&self) -> bool {
        self.closing && self.pending.is_empty() && self.wpos == self.wbuf.len()
    }

    /// Slow-loris expiry: the connection owes nothing (no pending
    /// replies, write buffer drained) yet has not completed a frame
    /// within `timeout`. Connections waiting on in-flight work are
    /// exempt — a slow *simulation* is the server's fault, not the
    /// client's.
    fn idle_expired(&self, now: Instant, timeout: Duration) -> bool {
        !self.closing
            && timeout > Duration::ZERO
            && self.pending.is_empty()
            && self.wpos == self.wbuf.len()
            && now.duration_since(self.last_frame) >= timeout
    }

    /// One readiness sweep: read and admit frames, move completed replies
    /// into the write buffer (in order), flush. Returns true if anything
    /// advanced.
    fn pump(&mut self, shared: &Shared) -> bool {
        let mut progress = false;
        // Bounded read batch: a client that floods frames faster than we
        // parse them must not pin this sweep in the read loop forever —
        // the flush stage (and the write-buffer cap) below have to run,
        // and the other connections have to get their turn.
        let mut batch = 0u32;
        while !self.closing && batch < READ_BATCH {
            batch += 1;
            match self.frames.next_frame() {
                Ok(None) => {
                    // Client closed its write side; owed replies still
                    // flush below before the connection is reaped.
                    self.closing = true;
                    progress = true;
                }
                Ok(Some(Frame::Oversized(n))) => {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                    let resp = Response::error(
                        "oversized_frame",
                        format!(
                            "frame of {n}+ bytes exceeds the {}-byte bound",
                            crate::protocol::MAX_FRAME_BYTES
                        ),
                    );
                    self.pending.push_back(Pending::Ready(encode_response(0, &resp)));
                    self.closing = true; // framing is lost
                    progress = true;
                }
                Ok(Some(Frame::Line(line))) => {
                    progress = true;
                    self.last_frame = Instant::now();
                    if line.trim().is_empty() {
                        continue;
                    }
                    self.admit(&line, shared);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.closing = true;
                    progress = true;
                }
            }
        }
        // Move completed replies to the write buffer — strictly in
        // admission order, so a fast later request never overtakes a slow
        // earlier one on the same connection.
        loop {
            let frame = match self.pending.front_mut() {
                Some(Pending::Ready(s)) => std::mem::take(s),
                Some(Pending::Wait { id, rx }) => match rx.try_recv() {
                    Ok(resp) => encode_response(*id, &resp),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => encode_response(
                        *id,
                        &Response::error("internal", "worker dropped the reply channel"),
                    ),
                },
                None => break,
            };
            self.pending.pop_front();
            self.wbuf.extend_from_slice(frame.as_bytes());
            progress = true;
        }
        // Failpoint on the reply write path (context: this server's
        // port): an injected error reads as a vanished peer, an armed
        // abort crashes the process with replies half-flushed.
        if self.wpos < self.wbuf.len()
            && revel_failpoint::hit_with("serve.reply.pre-write", || shared.port.to_string())
                .is_err()
        {
            self.fail();
            return true;
        }
        // Flush as much as the socket accepts.
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.fail();
                    break;
                }
                Ok(n) => {
                    self.wpos += n;
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.fail();
                    break;
                }
            }
        }
        if self.wpos == self.wbuf.len() && self.wpos > 0 {
            self.wbuf.clear();
            self.wpos = 0;
        }
        // Overload armor: a peer that stops draining while replies pile
        // up past the byte cap is dropped, not buffered without bound.
        if self.wbuf.len() - self.wpos > shared.wbuf_limit {
            shared.write_overflows.fetch_add(1, Ordering::Relaxed);
            self.fail();
            progress = true;
        }
        progress
    }

    /// The peer is gone: drop everything owed so `done` reports true. A
    /// vanished connection is not a server error.
    fn fail(&mut self) {
        self.closing = true;
        self.pending.clear();
        self.wbuf.clear();
        self.wpos = 0;
    }

    /// Decodes one frame and queues its reply slot: control-plane ops are
    /// answered inline, work-plane ops admitted to the bounded queue.
    fn admit(&mut self, line: &str, shared: &Shared) {
        let (id, req) = match crate::protocol::decode_request(line) {
            Ok(ok) => ok,
            Err(e) => {
                shared.errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::error("bad_request", e.message.clone());
                self.pending.push_back(Pending::Ready(encode_response(0, &resp)));
                return;
            }
        };
        shared.received.fetch_add(1, Ordering::Relaxed);
        // Control plane: answered inline so they work even when the queue
        // is saturated.
        let inline = match &req {
            Request::Health => Some(Response::Health {
                workers: shared.workers as u64,
                queue_capacity: shared.queue.capacity() as u64,
                queue_depth: shared.queue.len() as u64,
                active_connections: shared.active_connections.load(Ordering::Relaxed),
            }),
            Request::Stats => Some(Response::Stats {
                engine: engine::stats(),
                schedule: revel_core::sim::schedule_cache_stats(),
                server: shared.final_stats(),
            }),
            Request::Shutdown => {
                shared.shutdown.store(true, Ordering::SeqCst);
                Some(Response::ShuttingDown)
            }
            _ => None,
        };
        if let Some(resp) = inline {
            shared.completed.fetch_add(1, Ordering::Relaxed);
            if matches!(resp, Response::ShuttingDown) {
                self.closing = true;
            }
            self.pending.push_back(Pending::Ready(encode_response(id, &resp)));
            return;
        }
        // Work plane: through the bounded queue. The deadline clock starts
        // at admission, so time spent queued counts against the request.
        let deadline = match &req {
            Request::Simulate { deadline_ms: Some(ms), .. } => {
                Some(Instant::now() + Duration::from_millis(*ms))
            }
            _ => None,
        };
        let (tx, rx) = mpsc::channel();
        match shared.queue.try_push(Job { req, deadline, reply: tx }) {
            Ok(()) => self.pending.push_back(Pending::Wait { id, rx }),
            Err(PushError::Full(_)) => {
                shared.overloaded.fetch_add(1, Ordering::Relaxed);
                // The hint scales with the backlog the rejected caller
                // saw: a full queue means at least capacity jobs ahead of
                // a retry.
                let resp = Response::Overloaded {
                    capacity: shared.queue.capacity() as u64,
                    retry_after_ms: Some(shared.retry_hint_ms()),
                };
                self.pending.push_back(Pending::Ready(encode_response(id, &resp)));
            }
            Err(PushError::Closed(_)) => {
                shared.errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error {
                    kind: "shutting_down".to_string(),
                    message: "server is draining".to_string(),
                    retry_after_ms: Some(shared.retry_hint_ms()),
                };
                self.pending.push_back(Pending::Ready(encode_response(id, &resp)));
                self.closing = true;
            }
        }
    }
}

/// The event loop proper: accept, pump every connection, reap the done
/// ones, pace with the readiness wheel; on shutdown stop accepting and
/// reading but keep ticking until every owed reply is flushed.
fn event_loop(listener: &TcpListener, shared: &Shared) -> std::io::Result<()> {
    let mut conns: Vec<Conn> = Vec::new();
    let mut wheel = ReadinessWheel::new();
    let mut draining = false;
    loop {
        let mut progress = false;
        if !draining && shared.shutdown_requested() {
            draining = true;
            for conn in &mut conns {
                conn.closing = true;
            }
            progress = true;
        }
        if !draining {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if let Some(conn) = Conn::new(stream) {
                            conns.push(conn);
                            progress = true;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        shared.shutdown.store(true, Ordering::SeqCst);
                        return Err(e);
                    }
                }
            }
        }
        shared.active_connections.store(conns.len() as u64, Ordering::Relaxed);
        for conn in &mut conns {
            progress |= conn.pump(shared);
        }
        // Slow-loris sweep, piggybacked on idle ticks (the readiness
        // wheel only idles when no connection advanced, so a busy loop
        // never pays for expiry scans): close and count connections that
        // owe nothing and have not completed a frame within the
        // deadline.
        if !progress {
            let now = Instant::now();
            for conn in &mut conns {
                if conn.idle_expired(now, shared.conn_timeout) {
                    shared.conn_timeouts.fetch_add(1, Ordering::Relaxed);
                    conn.fail();
                    progress = true;
                }
            }
        }
        let before = conns.len();
        conns.retain(|c| !c.done());
        progress |= conns.len() != before;
        if draining && conns.is_empty() {
            shared.active_connections.store(0, Ordering::Relaxed);
            return Ok(());
        }
        wheel.tick(progress);
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        let resp = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // The one fault-injection site on the work path (context: this
            // server's port), inside the fence real bugs unwind into: an
            // armed `err` answers a retryable `injected_fault`, `delay`
            // holds the worker and then serves the job correctly, and
            // `panic` comes back as the `internal` error below.
            match revel_failpoint::hit_with("serve.worker.pre-run", || shared.port.to_string()) {
                Ok(()) => execute(&job.req, job.deadline),
                Err(e) => {
                    shared.injected.fetch_add(1, Ordering::Relaxed);
                    Response::Error {
                        kind: "injected_fault".to_string(),
                        message: e.to_string(),
                        retry_after_ms: Some(shared.retry_hint_ms()),
                    }
                }
            }
        }))
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "request panicked".to_string());
            Response::error("internal", msg)
        });
        match &resp {
            Response::TimedOut { .. } => shared.timed_out.fetch_add(1, Ordering::Relaxed),
            Response::Error { .. } => shared.errors.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
        shared.completed.fetch_add(1, Ordering::Relaxed);
        // A vanished connection is not a server error; drop the reply.
        let _ = job.reply.send(resp);
    }
}

/// Executes one work-plane request (on a worker thread).
fn execute(req: &Request, deadline: Option<Instant>) -> Response {
    match req {
        Request::Sleep { ms } => {
            std::thread::sleep(Duration::from_millis(*ms));
            Response::Slept { ms: *ms }
        }
        Request::Simulate {
            bench,
            params,
            arch,
            max_cycles,
            reference_stepper,
            fault_seed,
            fault_count,
            fault_window,
            ..
        } => {
            if let Some(seed) = fault_seed {
                return simulate_faulted(
                    bench,
                    params,
                    arch,
                    *seed,
                    fault_count.unwrap_or(4),
                    fault_window.unwrap_or(4096),
                );
            }
            simulate(bench, params, arch, deadline, *max_cycles, *reference_stepper)
        }
        Request::SimulateBatch { bench, params, arch, seeds } => {
            simulate_batch(bench, params, arch, seeds)
        }
        Request::Lint { bench, params, arch } => match grid::resolve(bench, params, arch) {
            Some((b, cfg)) => {
                let diags = b.lint(&cfg);
                Response::Lint {
                    clean: diags.is_empty(),
                    diagnostics: diags.iter().map(|d| d.to_string()).collect(),
                }
            }
            None => unknown_bench(bench, params, arch),
        },
        Request::Compare { bench, params } => match grid::find_bench(bench, params) {
            Some(b) => match b.compare() {
                Ok(c) => Response::Comparison {
                    revel_cycles: c.revel.cycles,
                    systolic_cycles: c.systolic_cycles,
                    dataflow_cycles: c.dataflow_cycles,
                },
                Err(e) => Response::error("sim_error", e.to_string()),
            },
            None => unknown_bench(bench, params, "-"),
        },
        // Control-plane ops never reach the queue.
        Request::Health | Request::Stats | Request::Shutdown => {
            Response::error("internal", "control-plane request routed to a worker")
        }
    }
}

/// An explicit fault-injection request: builds the deterministic plan,
/// runs it through the engine's uncached path, and reports the snapshot
/// counts. The numeric result is never returned — a faulted run is
/// untrusted by contract, whatever the verifier would have said.
fn simulate_faulted(
    bench: &str,
    params: &str,
    arch: &str,
    seed: u64,
    count: u64,
    window: u64,
) -> Response {
    let Some((b, cfg)) = grid::resolve(bench, params, arch) else {
        return unknown_bench(bench, params, arch);
    };
    let plan = FaultPlan::new(seed, count.min(u64::from(u32::MAX)) as u32, window.max(1));
    let opts = SimOptions { fault_plan: Some(plan), ..cfg.sim_options() };
    match engine::run_uncached(b, &cfg, opts) {
        Ok(run) => {
            let snap = run.report.fault.as_ref();
            let applied = snap.map_or(0, |s| s.applied_count() as u64);
            let recorded = snap.map_or(0, |s| s.records.len() as u64);
            Response::Faulted {
                cycles: run.report.cycles,
                applied,
                missed: recorded - applied,
                pending: snap.map_or(0, |s| u64::from(s.pending)),
                first_divergence: snap.and_then(|s| s.first_divergence),
            }
        }
        Err(e) => Response::error("sim_error", e.to_string()),
    }
}

/// A batched simulation request: one cell, N seeded datasets. The cell
/// pays one timing walk and replays it per seed, or simulates each seed in
/// full if that walk ran out of budget. Either way every lane is verified,
/// and a lane that hits the cycle budget turns the whole batch into
/// `timed_out` (a truncated lane has no trustworthy result to summarize).
fn simulate_batch(bench: &str, params: &str, arch: &str, seeds: &[u64]) -> Response {
    if seeds.is_empty() {
        return Response::error("bad_request", "simulate_batch needs at least one seed");
    }
    let Some((b, cfg)) = grid::resolve(bench, params, arch) else {
        return unknown_bench(bench, params, arch);
    };
    match b.run_batched(&cfg, seeds) {
        Ok(batch) => {
            if let Some(run) = batch.runs.iter().find(|r| r.report.timed_out) {
                return timed_out(&run.report);
            }
            let first = &batch.runs[0];
            Response::BatchResult {
                cycles: first.cycles,
                commands_issued: first.report.commands_issued,
                batch: batch.runs.len() as u64,
                verified: batch.runs.iter().all(|r| r.verified.is_ok()),
                replayed: batch.replayed,
            }
        }
        Err(e) => Response::error("sim_error", e.to_string()),
    }
}

fn unknown_bench(bench: &str, params: &str, arch: &str) -> Response {
    Response::error(
        "unknown_bench",
        format!("no evaluation-grid cell '{bench}' params='{params}' arch='{arch}'"),
    )
}

fn simulate(
    bench: &str,
    params: &str,
    arch: &str,
    deadline: Option<Instant>,
    max_cycles: Option<u64>,
    reference_stepper: bool,
) -> Response {
    if bench == probe::BENCH_NAME {
        return match probe::run(max_cycles, deadline) {
            Ok(report) => timed_out(&report),
            Err(e) => Response::error("sim_error", e.to_string()),
        };
    }
    let Some((b, cfg)) = grid::resolve(bench, params, arch) else {
        return unknown_bench(bench, params, arch);
    };
    let result = if max_cycles.is_some() || reference_stepper {
        // Option overrides change what a run *means*; they go through the
        // engine's uncached path so a truncated or oracle run is never
        // memoized as the configuration's canonical result.
        let base = cfg.sim_options();
        let opts = SimOptions {
            max_cycles: max_cycles.unwrap_or(base.max_cycles),
            reference_stepper,
            wall_deadline: deadline,
            ..base
        };
        engine::run_uncached(b, &cfg, opts).map(|run| response_for_run(&run))
    } else {
        // The layered lookup: memory cache, then the persistent disk
        // tier (a restarted server answers before its first
        // simulation), then a real run.
        b.run_served(&cfg, deadline).map(|served| match served {
            Served::Run(run) => response_for_run(&run),
            Served::Disk(run) => response_for_persisted(&run),
        })
    };
    result.unwrap_or_else(|e| Response::error("sim_error", e.to_string()))
}

/// The `timed_out` frame of a run the cycle budget or the deadline cut
/// short, deadlock snapshot included.
fn timed_out(report: &RunReport) -> Response {
    Response::TimedOut {
        cycles: report.cycles,
        deadline_expired: report.deadline_expired,
        deadlock: report.deadlock.as_ref().map(|d| d.to_string()),
    }
}

/// The response to a finished run: the one place a [`WorkloadRun`] becomes
/// a frame, for the server and for the tests that byte-compare a local run
/// against what the server said.
pub fn response_for_run(run: &WorkloadRun) -> Response {
    if run.report.timed_out {
        return timed_out(&run.report);
    }
    Response::Result {
        cycles: run.cycles,
        commands_issued: run.report.commands_issued,
        verified: run.verified.is_ok(),
        error: run.verified.clone().err(),
    }
}

/// [`response_for_run`] for a run served from the disk tier. Only completed
/// runs are persisted, so this is always a `result` frame — the same bytes
/// the run's first answer had.
fn response_for_persisted(run: &PersistedRun) -> Response {
    Response::Result {
        cycles: run.cycles,
        commands_issued: run.commands_issued,
        verified: run.verified.is_ok(),
        error: run.verified.clone().err(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_and_probe_execute_without_a_server() {
        assert_eq!(execute(&Request::Sleep { ms: 1 }, None), Response::Slept { ms: 1 });
        let resp = execute(
            &Request::Simulate {
                bench: probe::BENCH_NAME.to_string(),
                params: String::new(),
                arch: String::new(),
                deadline_ms: None,
                max_cycles: Some(50_000),
                reference_stepper: false,
                fault_seed: None,
                fault_count: None,
                fault_window: None,
            },
            None,
        );
        match resp {
            Response::TimedOut { deadline_expired, deadlock, .. } => {
                assert!(!deadline_expired);
                assert!(deadlock.expect("snapshot").contains("DEADLOCK"));
            }
            other => panic!("probe must time out, got {other:?}"),
        }
    }

    #[test]
    fn live_and_persisted_runs_answer_the_same_frame() {
        // The warm-restart byte-identity, without processes: what a run
        // answers live and what its disk record answers after a restart.
        use revel_core::compiler::BuildCfg;
        let mut run = revel_core::Bench::Solver { n: 12 }.run(&BuildCfg::revel(1)).expect("runs");
        for verified in [Ok(()), Err("lane 0: mismatch at 3".to_string())] {
            run.verified = verified;
            let live = response_for_run(&run);
            assert!(matches!(live, Response::Result { .. }), "{live:?}");
            let disk = response_for_persisted(&PersistedRun::from(&run));
            assert_eq!(encode_response(7, &disk), encode_response(7, &live));
        }
    }

    #[test]
    fn unknown_cells_get_structured_errors() {
        let resp = execute(&Request::simulate("qr", "n=999", "revel"), None);
        assert!(matches!(resp, Response::Error { ref kind, .. } if kind == "unknown_bench"));
    }

    #[test]
    fn readiness_wheel_backs_off_and_resets() {
        let mut wheel = ReadinessWheel::new();
        for _ in 0..3 {
            wheel.tick(true);
        }
        assert_eq!(wheel.idle_ticks, 0, "progress keeps the wheel hot");
        wheel.tick(false);
        assert_eq!(wheel.idle_ticks, 1);
        wheel.tick(true);
        assert_eq!(wheel.idle_ticks, 0, "one busy tick resets the backoff");
    }
}
