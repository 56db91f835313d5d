//! Per-connection lane state machines.
//!
//! A [`Lane`] owns one connection's slice of a phase's arrival plan and
//! decides, at every instant, whether to send, wait for a reply, sleep
//! until the next arrival, or stop. It is pure simulated-time logic: the
//! executor (the `revel_client` scenario runner, or a test harness with
//! a fake clock) performs the I/O and feeds observations back in.
//!
//! Two properties live here and nowhere else:
//!
//! * **Open-loop pacing / coordinated-omission correctness.** Every
//!   request has an *intended* send time on the arrival grid. Latency is
//!   measured from that intended time — a stalled server cannot shrink
//!   offered load or flatter the tail. Sends that slip more than
//!   [`LaneCfg::late_threshold_us`] behind the grid increment
//!   [`Lane::late_sends`], so a saturated generator is visible in the
//!   report instead of silently lying.
//! * **Deterministic-jitter retries.** Retryable failures reschedule with
//!   capped exponential backoff jittered into `[raw/2, raw]` by the lane's
//!   seeded RNG, with any server `retry_after_ms` hint as a floor. This
//!   is the serving stack's retry policy; the only other retry loop,
//!   `revel_serve::client::Client::request_raw_until_terminal`, is its
//!   blocking, jitter-free counterpart for replay harnesses.
//!
//! Replies correlate FIFO: the serving protocol answers each connection's
//! requests strictly in arrival order (DESIGN.md §11), so the oldest
//! in-flight entry always matches the next reply on the wire.

use revel_isa::Rng;
use std::collections::VecDeque;

/// Lane configuration, shared by every lane of a scenario run.
#[derive(Debug, Clone, Copy)]
pub struct LaneCfg {
    /// Maximum requests outstanding on the connection at once.
    pub max_inflight: usize,
    /// Total attempts per request (1 = no retries).
    pub max_attempts: u32,
    /// Backoff base for retry attempt 1, milliseconds.
    pub backoff_base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub backoff_cap_ms: u64,
    /// A send this many µs behind its intended time counts as late.
    pub late_threshold_us: u64,
}

impl Default for LaneCfg {
    fn default() -> Self {
        LaneCfg {
            max_inflight: 1,
            max_attempts: 1,
            backoff_base_ms: 5,
            backoff_cap_ms: 200,
            late_threshold_us: 1_000,
        }
    }
}

/// What the executor should do next, as decided by [`Lane::next_action`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Write request `slot` (attempt `attempt`) to the connection now.
    /// The lane has already moved the slot in-flight; on a write failure
    /// call [`Lane::on_transport_error`].
    Send {
        /// Index into the lane's planned-request slice.
        slot: usize,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// Block on the connection for a reply. `wait_until_us` bounds the
    /// wait when a future send is scheduled; `None` means no send is
    /// pending, wait as long as it takes.
    Recv {
        /// Absolute µs timestamp of the next scheduled send, if any.
        wait_until_us: Option<u64>,
    },
    /// Nothing in flight and nothing due: sleep until this µs timestamp.
    Sleep {
        /// Absolute µs timestamp of the next scheduled send.
        until_us: u64,
    },
    /// Every planned request has completed; the lane is finished.
    Done,
}

/// Terminal classification of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A successful (non-error) response.
    Ok,
    /// The server reported a deadline expiry.
    TimedOut,
    /// Admission-rejected (queue full) and retries exhausted.
    Overloaded,
    /// Any other failure: protocol error, injected fault that out-lived
    /// retries, or a dead connection.
    Error,
}

/// How the executor classified a reply frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyClass {
    /// Terminal reply — record the outcome.
    Final(Outcome),
    /// Retryable failure (overloaded / injected fault / shutting down),
    /// with the server's optional backoff hint.
    Retryable {
        /// Outcome to record if retries are exhausted.
        outcome: Outcome,
        /// Server `retry_after_ms` hint, used as a backoff floor.
        hint_ms: Option<u64>,
    },
}

/// The full accounting record of one completed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Index into the lane's planned-request slice.
    pub slot: usize,
    /// Intended send time from the arrival grid (absolute µs).
    pub intended_us: u64,
    /// When attempt 1 actually hit the wire (absolute µs).
    pub first_send_us: u64,
    /// When the terminal reply (or give-up) landed (absolute µs).
    pub done_us: u64,
    /// Attempts consumed (≥ 1).
    pub attempts: u32,
    /// Terminal classification.
    pub outcome: Outcome,
}

impl Completion {
    /// Coordinated-omission-correct latency: terminal reply minus
    /// *intended* send time, never minus the (possibly late) actual send.
    pub fn latency_us(&self) -> u64 {
        self.done_us.saturating_sub(self.intended_us)
    }
}

#[derive(Debug, Clone, Copy)]
struct Flight {
    slot: usize,
    intended_us: u64,
    first_send_us: u64,
    attempts: u32,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    retry_at_us: u64,
    flight: Flight,
}

/// One connection's state machine over a phase plan. Drive it with
/// [`next_action`](Lane::next_action) / [`on_sent`](Lane::on_sent) /
/// [`on_reply`](Lane::on_reply) / [`on_transport_error`](Lane::on_transport_error).
#[derive(Debug)]
pub struct Lane {
    cfg: LaneCfg,
    rng: Rng,
    /// Intended send times (absolute µs), sorted ascending.
    planned: Vec<u64>,
    next_new: usize,
    inflight: VecDeque<Flight>,
    /// Retry queue, kept sorted by `retry_at_us` (ties: insertion order).
    pending: Vec<Pending>,
    /// In between `next_action` handing out a `Send` and the executor
    /// confirming with `on_sent`, the flight lives here.
    sending: Option<Flight>,
    completions: Vec<Completion>,
    late_sends: u64,
    retries: u64,
}

impl Lane {
    /// A lane over `planned` intended send times (absolute µs, ascending),
    /// with its own decorrelated RNG stream for retry jitter.
    pub fn new(cfg: LaneCfg, seed: u64, planned: Vec<u64>) -> Self {
        debug_assert!(planned.windows(2).all(|w| w[0] <= w[1]));
        Lane {
            cfg,
            rng: Rng::seed_from_u64(seed),
            planned,
            next_new: 0,
            inflight: VecDeque::new(),
            pending: Vec::new(),
            sending: None,
            completions: Vec::new(),
            late_sends: 0,
            retries: 0,
        }
    }

    /// Completed requests, in completion order.
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// Sends that slipped behind the arrival grid by more than the
    /// configured threshold.
    pub fn late_sends(&self) -> u64 {
        self.late_sends
    }

    /// Retry attempts performed (attempt 2 and beyond).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Requests currently outstanding on the wire.
    pub fn inflight(&self) -> usize {
        self.inflight.len() + usize::from(self.sending.is_some())
    }

    fn next_due(&self) -> Option<(bool, u64)> {
        // (is_retry, due_at). Retries outrank new sends when both are due —
        // they are older work.
        let retry = self.pending.first().map(|p| p.retry_at_us);
        let fresh = self.planned.get(self.next_new).copied();
        match (retry, fresh) {
            (Some(r), Some(f)) => Some(if r <= f { (true, r) } else { (false, f) }),
            (Some(r), None) => Some((true, r)),
            (None, Some(f)) => Some((false, f)),
            (None, None) => None,
        }
    }

    /// Decide the next step at absolute time `now_us`. A returned
    /// [`Action::Send`] moves the chosen request in-flight immediately;
    /// the executor must follow up with [`on_sent`](Lane::on_sent) or
    /// [`on_transport_error`](Lane::on_transport_error).
    pub fn next_action(&mut self, now_us: u64) -> Action {
        debug_assert!(self.sending.is_none(), "previous Send not confirmed");
        let can_send = self.inflight.len() < self.cfg.max_inflight;
        match self.next_due() {
            Some((is_retry, due)) if can_send && due <= now_us => {
                let flight = if is_retry {
                    self.pending.remove(0).flight
                } else {
                    let slot = self.next_new;
                    self.next_new += 1;
                    Flight {
                        slot,
                        intended_us: self.planned[slot],
                        first_send_us: now_us,
                        attempts: 0,
                    }
                };
                self.sending = Some(flight);
                Action::Send { slot: flight.slot, attempt: flight.attempts + 1 }
            }
            Some((_, due)) if can_send => {
                if self.inflight.is_empty() {
                    Action::Sleep { until_us: due }
                } else {
                    Action::Recv { wait_until_us: Some(due) }
                }
            }
            // At the in-flight cap (or nothing due yet but work on the
            // wire): drain a reply first.
            Some((_, due)) => Action::Recv { wait_until_us: Some(due) },
            None if !self.inflight.is_empty() => Action::Recv { wait_until_us: None },
            None => Action::Done,
        }
    }

    /// Confirm that the request handed out by the last [`Action::Send`]
    /// hit the wire at `now_us`.
    pub fn on_sent(&mut self, now_us: u64) {
        let mut flight = self.sending.take().expect("on_sent without a pending Send");
        flight.attempts += 1;
        if flight.attempts == 1 {
            flight.first_send_us = now_us;
            if now_us.saturating_sub(flight.intended_us) > self.cfg.late_threshold_us {
                self.late_sends += 1;
            }
        } else {
            self.retries += 1;
        }
        self.inflight.push_back(flight);
    }

    /// Feed the reply for the oldest in-flight request (FIFO — the
    /// protocol answers per-connection requests in order), observed at
    /// `now_us`.
    pub fn on_reply(&mut self, class: ReplyClass, now_us: u64) {
        let flight = self.inflight.pop_front().expect("reply with nothing in flight");
        match class {
            ReplyClass::Retryable { outcome: _, hint_ms }
                if flight.attempts < self.cfg.max_attempts =>
            {
                let wait_ms = self.backoff_ms(flight.attempts, hint_ms);
                self.schedule_retry(flight, now_us + wait_ms * 1000);
            }
            ReplyClass::Retryable { outcome, .. } | ReplyClass::Final(outcome) => {
                self.complete(flight, outcome, now_us);
            }
        }
    }

    /// The connection died (write failure, read error, or a protocol
    /// violation): every in-flight request either reschedules as a retry
    /// or completes as [`Outcome::Error`]. The executor is expected to
    /// reconnect before the next `Send`.
    pub fn on_transport_error(&mut self, now_us: u64) {
        if let Some(flight) = self.sending.take() {
            // The unconfirmed send never made the wire; requeue it as-is.
            self.inflight.push_back(flight);
        }
        while let Some(flight) = self.inflight.pop_front() {
            if flight.attempts < self.cfg.max_attempts {
                let wait_ms = self.backoff_ms(flight.attempts, None);
                self.schedule_retry(flight, now_us + wait_ms * 1000);
            } else {
                self.complete(flight, Outcome::Error, now_us);
            }
        }
    }

    /// Give up on the whole lane: every request still outstanding — in
    /// flight, queued for retry, or never sent — completes as
    /// [`Outcome::Error`]. The executor calls this when the transport is
    /// persistently unavailable (reconnects keep failing), so the report
    /// still accounts for the full offered load instead of silently
    /// dropping the tail.
    pub fn abort(&mut self, now_us: u64) {
        if let Some(flight) = self.sending.take() {
            self.inflight.push_back(flight);
        }
        while let Some(flight) = self.inflight.pop_front() {
            self.complete(flight, Outcome::Error, now_us);
        }
        for pending in std::mem::take(&mut self.pending) {
            self.complete(pending.flight, Outcome::Error, now_us);
        }
        while self.next_new < self.planned.len() {
            let slot = self.next_new;
            self.next_new += 1;
            let flight = Flight {
                slot,
                intended_us: self.planned[slot],
                first_send_us: now_us,
                attempts: 0,
            };
            self.complete(flight, Outcome::Error, now_us);
        }
    }

    fn schedule_retry(&mut self, flight: Flight, retry_at_us: u64) {
        let at = self.pending.partition_point(|p| p.retry_at_us <= retry_at_us);
        self.pending.insert(at, Pending { retry_at_us, flight });
    }

    fn complete(&mut self, flight: Flight, outcome: Outcome, now_us: u64) {
        let attempts = flight.attempts.max(1);
        self.completions.push(Completion {
            slot: flight.slot,
            intended_us: flight.intended_us,
            first_send_us: flight.first_send_us,
            done_us: now_us,
            attempts,
            outcome,
        });
    }

    /// Capped exponential backoff with deterministic jitter into
    /// `[raw/2, raw]`, floored by the server hint, driven by the lane's
    /// seeded RNG.
    fn backoff_ms(&mut self, attempt: u32, hint_ms: Option<u64>) -> u64 {
        let exp = attempt.saturating_sub(1).min(16);
        let raw = self.cfg.backoff_base_ms.saturating_mul(1u64 << exp).min(self.cfg.backoff_cap_ms);
        let raw = raw.max(1);
        let jittered = raw / 2 + self.rng.gen_index((raw - raw / 2 + 1) as usize) as u64;
        jittered.max(hint_ms.unwrap_or(0)).min(self.cfg.backoff_cap_ms.max(hint_ms.unwrap_or(0)))
    }
}
