//! The three `serve_*` workloads: one in-process `Server` (one worker, an
//! ephemeral loopback port) and the benchmark's own load loop on two
//! connections, requesting the 35 small-suite cells of the evaluation grid.
//!
//! * `serve_hot` — closed loop, every cell resident: event loop, frame
//!   codec and an engine memory hit do the work, the simulator none.
//! * `serve_paced` — the same server and resident set under an open-loop
//!   Poisson schedule at a fixed low rate, latency counted from each
//!   request's due time: the event loop idles between arrivals.
//! * `serve_churn` — closed loop against a run cache of four entries, so
//!   nearly every request misses, re-simulates, inserts and evicts: the
//!   write side of the engine, and requests queueing behind one worker.
//!
//! The load loop lives here — schedule, cell choice, due-time latency,
//! late-send counting — on `revel_serve::client::Client` and `protocol`
//! alone, so a change to `serve::scenario` or `revel_client` cannot move
//! these numbers.

use super::{check_run, label, write_span_file, Counters, Job, Mode};
use crate::inputs::{Arrival, Inputs, CONNECTIONS};
use crate::report::ChildReport;
use crate::spec::Workload;
use crate::stats;
use crate::trace::Tracer;
use revel_bench::grid::Cell;
use revel_core::engine;
use revel_serve::client::Client;
use revel_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use revel_serve::server::{response_for_run, Server, ServerConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Run-cache capacity of `serve_churn`: far below the 35 cells a
/// connection cycles through, so the LRU never holds the next one.
const CHURN_CACHE_CAPACITY: usize = 4;

/// A send this long after its due time counts as late.
const LATE_SEND: Duration = Duration::from_millis(1);

/// Silence before each `idle_hit_rtt_us` probe: long enough for the event
/// loop's idle backoff to reach its ceiling.
const IDLE_GAP: Duration = Duration::from_millis(50);

/// What the clients know about the cells: the request to send, the reply
/// the batch path says is right, and the cycles that reply stands for.
struct Table {
    cells: Vec<Cell>,
    requests: Vec<Request>,
    expected: Vec<Response>,
    cycles: Vec<u64>,
}

/// What one client thread measured over one window.
struct ClientLog {
    /// The latency, ms, of each reply, by the slice of the window it
    /// arrived in (open loop: one slice, the whole window).
    latency_ms: Vec<Vec<f64>>,
    failures: Vec<String>,
    attempted: u64,
    cycles: u64,
    sends_due: u64,
    late_sends: u64,
    /// Seconds between a request becoming sendable and its reply.
    busy_s: f64,
    finished: Instant,
    tracer: Tracer,
}

impl ClientLog {
    fn new(tracing: bool, epoch: Instant) -> ClientLog {
        ClientLog {
            latency_ms: Vec::new(),
            failures: Vec::new(),
            attempted: 0,
            cycles: 0,
            sends_due: 0,
            late_sends: 0,
            busy_s: 0.0,
            finished: epoch,
            tracer: Tracer::new(tracing, epoch),
        }
    }

    fn record(&mut self, slice: usize, latency: Duration) {
        if self.latency_ms.len() <= slice {
            self.latency_ms.resize(slice + 1, Vec::new());
        }
        self.latency_ms[slice].push(latency.as_secs_f64() * 1e3);
    }

    /// Sends one request, waits for its reply and checks it against the
    /// batch path's answer. Returns when the reply arrived.
    fn exchange(&mut self, client: &mut Client, table: &Table, cell: usize, op: u64) -> Instant {
        let (reply, _) = self
            .tracer
            .span("serve.server", "request", op, |_| client.request(&table.requests[cell]));
        let done = Instant::now();
        self.attempted += 1;
        self.cycles += table.cycles[cell];
        match reply {
            Ok(reply) if reply == table.expected[cell] => {}
            Ok(reply) => self.failures.push(format!(
                "{}: reply {} differs from the batch path's",
                label(&table.cells[cell]),
                encode_response(op, &reply).trim_end()
            )),
            Err(e) => self.failures.push(format!("{}: {e}", label(&table.cells[cell]))),
        }
        done
    }
}

/// One window of load, all connections together.
struct Window {
    /// Seconds per unit of work, one sample per pass (see `ops_per_pass`).
    pass_s: Vec<f64>,
    latency_ms: Vec<f64>,
    ops_per_pass: f64,
    cycles_per_pass: f64,
    logs: Vec<ClientLog>,
}

impl Window {
    fn ops_per_s(&self) -> f64 {
        stats::per_second(self.ops_per_pass, stats::median(&self.pass_s))
    }

    /// Counts the window's requests and failures into the report.
    fn count_into(&self, report: &mut ChildReport) {
        for log in &self.logs {
            report.attempted += log.attempted - log.failures.len() as u64;
            log.failures.iter().for_each(|f| report.check(Err(f.clone())));
        }
    }
}

fn simulate_request(cell: &Cell) -> Request {
    Request::Simulate {
        bench: cell.bench.name().to_string(),
        params: cell.bench.params(),
        arch: cell.arch.to_string(),
        deadline_ms: None,
        max_cycles: None,
        reference_stepper: false,
        fault_seed: None,
        fault_count: None,
        fault_window: None,
    }
}

pub fn run(job: &Job, inputs: &Inputs) -> ChildReport {
    let mut report = ChildReport::default();
    if job.workload == Workload::ServeChurn {
        engine::set_cache_capacity(CHURN_CACHE_CAPACITY);
    }

    // Set-up: the batch path's answer for every cell. The server shares
    // this process's engine, so the same runs make the cells resident
    // (all of them, or the last four on `serve_churn`) and memoize every
    // lint and schedule.
    let mut table = Table {
        cells: inputs.cells.clone(),
        requests: inputs.cells.iter().map(simulate_request).collect(),
        expected: Vec::new(),
        cycles: Vec::new(),
    };
    for cell in &inputs.cells {
        let run = cell.bench.run(&cell.cfg);
        report.check(check_run(&label(cell), &run));
        table.cycles.push(run.as_ref().map_or(0, |r| r.cycles));
        table.expected.push(match &run {
            Ok(run) => response_for_run(run),
            Err(e) => Response::error("benchmark", e.to_string()),
        });
    }
    report.modeled_cycles_total = table.cycles.iter().sum();

    let config = ServerConfig { addr: "127.0.0.1:0".to_string(), workers: 1, ..Default::default() };
    let server = Server::bind(&config).expect("bind a loopback port");
    let addr = server.local_addr().expect("bound address").to_string();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve());
        let connect = || Client::connect(&addr).expect("connect to the in-process server");
        let mut clients: Vec<Client> = (0..CONNECTIONS).map(|_| connect()).collect();
        report.setup_s = job.started.elapsed().as_secs_f64();

        if job.mode != Mode::SetupOnly {
            let tracing = job.mode == Mode::Trace;
            let window = job.untraced_window();
            let untraced = load(job, inputs, &table, &mut clients, window, Duration::ZERO, false);
            untraced.count_into(&mut report);
            if tracing {
                let mut control = connect();
                traced_half(
                    job,
                    inputs,
                    &table,
                    &mut clients,
                    &mut control,
                    &untraced,
                    &mut report,
                );
            }
            report.ops_per_pass = untraced.ops_per_pass;
            report.cycles_per_pass = untraced.cycles_per_pass;
            report.pass_s = untraced.pass_s;
            report.latency_ms = untraced.latency_ms;
        }

        let mut control = connect();
        let stopping = control.request(&Request::Shutdown).map_err(|e| e.to_string());
        report.check(stopping.and_then(|reply| match reply {
            Response::ShuttingDown => Ok(()),
            other => Err(format!("shutdown answered {other:?}")),
        }));
        drop((clients, control));
        let totals = serving.join().expect("server thread").expect("server ran");
        let clean = totals.overloaded + totals.timed_out + totals.errors == 0;
        report.check(clean.then_some(()).ok_or(format!("server refused or failed work: {totals}")));
    });
    report
}

/// Drives one window of load on every connection. `from` is where in the
/// arrival schedule the window starts (`serve_paced` only).
fn load(
    job: &Job,
    inputs: &Inputs,
    table: &Table,
    clients: &mut [Client],
    window: Duration,
    from: Duration,
    tracing: bool,
) -> Window {
    let paced_load = job.workload == Workload::ServePaced;
    let opened = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                scope.spawn(move || {
                    let mut log = ClientLog::new(tracing, job.started);
                    if paced_load {
                        let span = from.as_micros() as u64..(from + window).as_micros() as u64;
                        let mine = inputs
                            .arrivals
                            .iter()
                            .filter(|a| a.conn == conn && span.contains(&a.due_us));
                        paced(&mut log, client, table, mine, opened, from);
                    } else {
                        let walk = &inputs.walks[conn];
                        closed_loop(&mut log, client, table, walk, conn, opened, window);
                    }
                    log
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("client thread")).collect()
    });
    // The latencies of every connection's replies in slice `i`.
    let in_slice = |i: usize| -> Vec<f64> {
        logs.iter().filter_map(|l| l.latency_ms.get(i)).flatten().copied().collect()
    };
    if paced_load {
        // One pass: the window's whole schedule, to its last reply.
        let closed = logs.iter().map(|l| l.finished).max().unwrap_or(opened);
        Window {
            pass_s: vec![(closed - opened).as_secs_f64()],
            latency_ms: in_slice(0),
            ops_per_pass: logs.iter().map(|l| l.attempted as f64).sum(),
            cycles_per_pass: logs.iter().map(|l| l.cycles as f64).sum(),
            logs,
        }
    } else {
        // Replies per whole slice of the window, both connections together
        // (the server favours one connection, so neither one's pace stands
        // for the pair), and of those slices the third with the most
        // replies: the worker simulates, so `serve_churn` slows with the
        // machine's neighbours as the single-threaded workloads do, and the
        // busiest slices are the window's quiet ones. One request is the
        // unit of work; a slice's sample is its seconds per request.
        let slice = slice_seconds(window);
        let whole_slices = ((window.as_secs_f64() / slice) as usize).max(1);
        let mut slices: Vec<Vec<f64>> = (0..whole_slices).map(in_slice).collect();
        slices.sort_by_key(|replies| std::cmp::Reverse(replies.len()));
        slices.truncate(whole_slices.div_ceil(3));
        slices.retain(|replies| !replies.is_empty());
        let cycles_per_request = table.cycles.iter().sum::<u64>() as f64 / table.cells.len() as f64;
        Window {
            pass_s: slices.iter().map(|replies| slice / replies.len() as f64).collect(),
            latency_ms: slices.concat(),
            ops_per_pass: 1.0,
            cycles_per_pass: cycles_per_request,
            logs,
        }
    }
}

/// Closed-loop throughput is counted per slice of this many seconds: one
/// second, or the whole window when it is shorter than two.
fn slice_seconds(window: Duration) -> f64 {
    if window >= Duration::from_secs(2) {
        1.0
    } else {
        window.as_secs_f64()
    }
}

/// Closed loop: the next request goes out when the previous reply is in,
/// walking the cells round and round until the window closes.
fn closed_loop(
    log: &mut ClientLog,
    client: &mut Client,
    table: &Table,
    walk: &[usize],
    conn: usize,
    opened: Instant,
    window: Duration,
) {
    let slice = slice_seconds(window);
    for (op, &cell) in ((conn as u64) << 32..).zip(walk.iter().cycle()) {
        let sent = Instant::now();
        if sent - opened >= window {
            break;
        }
        let done = log.exchange(client, table, cell, op);
        log.record(((done - opened).as_secs_f64() / slice) as usize, done - sent);
    }
    log.finished = Instant::now();
    log.busy_s = (log.finished - opened).as_secs_f64();
}

/// Open loop: each request goes out at its due time whatever the server
/// is doing — unless this connection's previous reply is still owed, in
/// which case it goes out late and is counted. Latency runs from the due
/// time, so a stall charges every request it delays.
fn paced<'a>(
    log: &mut ClientLog,
    client: &mut Client,
    table: &Table,
    arrivals: impl Iterator<Item = &'a Arrival>,
    opened: Instant,
    from: Duration,
) {
    for (n, arrival) in arrivals.enumerate() {
        let due = opened + (Duration::from_micros(arrival.due_us) - from);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let woke = Instant::now();
        log.sends_due += 1;
        log.late_sends += u64::from(woke > due + LATE_SEND);
        let op = ((arrival.conn as u64) << 32) + n as u64;
        let done = log.exchange(client, table, arrival.cell, op);
        log.record(0, done - due);
        log.busy_s += (done - woke).as_secs_f64();
        log.finished = done;
    }
}

/// The server's own request counters, over the wire.
fn server_counters(control: &mut Client) -> Result<[u64; 5], String> {
    match control.request(&Request::Stats) {
        Ok(Response::Stats { server: s, .. }) => {
            Ok([s.received, s.completed, s.overloaded, s.timed_out, s.errors])
        }
        Ok(other) => Err(format!("stats answered {other:?}")),
        Err(e) => Err(format!("stats: {e}")),
    }
}

/// The second half of a traced run: the same load with a span per
/// request, the server's and the engine's counters over that window, and
/// the probes that split a round trip into its layers.
fn traced_half(
    job: &Job,
    inputs: &Inputs,
    table: &Table,
    clients: &mut [Client],
    control: &mut Client,
    untraced: &Window,
    report: &mut ChildReport,
) {
    let server_before = server_counters(control);
    let before = Counters::now();
    let half = job.half_window();
    let traced = load(job, inputs, table, clients, half, half, true);
    before.record_since(report, 1.0);
    let server_after = server_counters(control);
    traced.count_into(report);
    match (server_before, server_after) {
        (Ok(a), Ok(b)) => {
            let names = ["received", "completed", "overloaded", "timed_out", "errors"];
            for (i, name) in names.iter().enumerate() {
                report.layer(&format!("serve.server.{name}"), (b[i] - a[i]) as f64);
            }
        }
        (Err(e), _) | (_, Err(e)) => report.check(Err(e)),
    }

    let sum = |f: fn(&ClientLog) -> f64| traced.logs.iter().map(f).sum::<f64>();
    let in_spans: f64 =
        traced.logs.iter().flat_map(|l| l.tracer.spans()).map(|s| s.seconds()).sum();
    let due = sum(|l| l.sends_due as f64);
    report.layer(
        "load.late_send_share",
        if due > 0.0 { sum(|l| l.late_sends as f64) / due } else { 0.0 },
    );
    report.layer("trace.unattributed_share", 1.0 - in_spans / sum(|l| l.busy_s));
    report.layer("trace.overhead_share", 1.0 - traced.ops_per_s() / untraced.ops_per_s());

    let mut tr = Tracer::new(true, job.started);
    for log in traced.logs {
        tr.absorb(log.tracer);
    }
    probes(job, table, control, &mut tr, report);
    write_span_file(job, &tr, report);
}

/// Times `f` over `iters` calls inside one span; nanoseconds per call.
fn per_call_ns(
    tr: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    iters: u32,
    mut f: impl FnMut(),
) -> f64 {
    let ((), seconds) = tr.span(layer, name, 0, |_| (0..iters).for_each(|_| f()));
    seconds * 1e9 / f64::from(iters)
}

/// The median round trip of `request` over `n` tries, microseconds, each
/// try after `gap` of silence.
fn median_rtt_us(
    tr: &mut Tracer,
    name: &'static str,
    n: u32,
    gap: Duration,
    client: &mut Client,
    request: &Request,
    report: &mut ChildReport,
) -> f64 {
    let trips: Vec<f64> = (0..n)
        .map(|i| {
            std::thread::sleep(gap);
            let (reply, seconds) =
                tr.span("serve.server", name, u64::from(i), |_| client.request(request));
            report.check(reply.map(drop).map_err(|e| format!("{name}: {e}")));
            seconds * 1e6
        })
        .collect();
    stats::median(&trips)
}

/// Splits a resident request's round trip into its layers, one connection,
/// nothing else in flight: the four codec functions on this workload's own
/// frames, the engine's memory hit, the inline `health` round trip (socket,
/// sweep and codec, no worker), and the full round trip — busy and after
/// the event loop has gone idle.
fn probes(
    job: &Job,
    table: &Table,
    client: &mut Client,
    tr: &mut Tracer,
    report: &mut ChildReport,
) {
    let (calls, trips, idle_trips) = if job.smoke { (200, 20, 2) } else { (20_000, 1_000, 30) };
    let cell = &table.cells[0];
    let request = &table.requests[0];
    // On `serve_churn` the cell may have been evicted; one request brings
    // it back, and nothing else runs to evict it again.
    let resident = client.request(request).map_err(|e| e.to_string());
    report.check(resident.and_then(|r| {
        (r == table.expected[0]).then_some(()).ok_or(format!("probe reply differs: {r:?}"))
    }));

    let request_frame = encode_request(1, request);
    let reply_frame = encode_response(1, &table.expected[0]);
    let round_trip = decode_response(&reply_frame).map(|(_, r)| r);
    let intact = round_trip.as_ref() == Ok(&table.expected[0]);
    report.check(intact.then_some(()).ok_or("result frame does not survive the codec".to_string()));
    let frame_bytes: usize = table.expected.iter().map(|r| encode_response(1, r).len()).sum();
    let codec = [
        (
            "serve.protocol.encode_request_ns",
            per_call_ns(tr, "serve.protocol", "encode_request", calls, || {
                black_box(encode_request(1, black_box(request)));
            }),
        ),
        (
            "serve.protocol.decode_request_ns",
            per_call_ns(tr, "serve.protocol", "decode_request", calls, || {
                black_box(decode_request(black_box(&request_frame)).ok());
            }),
        ),
        (
            "serve.protocol.encode_response_ns",
            per_call_ns(tr, "serve.protocol", "encode_response", calls, || {
                black_box(encode_response(1, black_box(&table.expected[0])));
            }),
        ),
        (
            "serve.protocol.decode_response_ns",
            per_call_ns(tr, "serve.protocol", "decode_response", calls, || {
                black_box(decode_response(black_box(&reply_frame)).ok());
            }),
        ),
    ];
    let hit_ns = per_call_ns(tr, "core.engine", "run_served_hit", calls, || {
        black_box(cell.bench.run_served(&cell.cfg, None).ok());
    });
    let none = Duration::ZERO;
    let health_us = median_rtt_us(tr, "health_rtt", trips, none, client, &Request::Health, report);
    let hit_us = median_rtt_us(tr, "hit_rtt", trips, none, client, request, report);
    let idle_us = median_rtt_us(tr, "idle_hit_rtt", idle_trips, IDLE_GAP, client, request, report);

    for (name, value) in codec {
        report.layer(name, value);
    }
    for (name, value) in [
        ("serve.protocol.result_frame_bytes", frame_bytes as f64),
        ("core.engine.hit_ns", hit_ns),
        ("serve.server.health_rtt_us", health_us),
        ("serve.server.hit_rtt_us", hit_us),
        ("serve.server.worker_handoff_us", hit_us - health_us - hit_ns / 1e3),
        ("serve.server.idle_hit_rtt_us", idle_us),
    ] {
        report.layer(name, value);
    }
}
