//! The shipped `revel_serve` binary, as a real process: what holds only
//! across a process boundary.
//!
//! * Signal escalation: a first SIGTERM starts a graceful drain; a
//!   second one during the drain force-exits the process with the
//!   distinct [`FORCED_EXIT_CODE`] — the operator can always get out, and
//!   a process manager can tell a forced kill from a clean drain.
//! * `--cache-capacity` reaches the engine: the `stats` wire reports the
//!   evictions of a tiny cache under replay load.
//! * The `--snapshot-dir` disk tier survives the process: a SIGKILLed
//!   server restarted on the same directory answers from disk, and an
//!   abort in the middle of an append loses only the torn record.
//!
//! Every child is held by a guard that SIGKILLs and reaps it on drop, so
//! a failed assertion cannot leave a server running.

#![cfg(unix)]

use revel_serve::client::Client;
use revel_serve::harness::{loopback, ServerGuard};
use revel_serve::protocol::{encode_response, read_all_frames, Request, Response};
use revel_serve::signal::FORCED_EXIT_CODE;
use std::io::{BufRead, BufReader};
use std::ops::{Deref, DerefMut};
use std::os::unix::process::ExitStatusExt;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A spawned server process, SIGKILLed and reaped when dropped (a no-op
/// for one that already exited and was waited on).
struct Spawned(Child);

impl Deref for Spawned {
    type Target = Child;
    fn deref(&self) -> &Child {
        &self.0
    }
}

impl DerefMut for Spawned {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}

impl Drop for Spawned {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns the real `revel_serve` binary on an ephemeral port and returns
/// (child, addr) once the listening line appears on stderr.
fn spawn_server(extra: &[&str]) -> (Spawned, String) {
    spawn_server_with_env(&[], extra)
}

/// [`spawn_server`] with environment variables set on the child (how
/// `REVEL_FAILPOINTS` reaches it).
fn spawn_server_with_env(env: &[(&str, &str)], extra: &[&str]) -> (Spawned, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_revel_serve"));
    cmd.args(["--port", "0", "--workers", "1", "--queue", "4"])
        .args(extra)
        .envs(env.iter().copied())
        .stderr(Stdio::piped())
        .stdout(Stdio::null());
    let mut child = Spawned(cmd.spawn().expect("spawn revel_serve"));
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines.next().expect("stderr open").expect("stderr line");
        if let Some(rest) = line.strip_prefix("revel-serve: listening on ") {
            break rest.split_whitespace().next().expect("addr token").to_string();
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

/// A fresh snapshot directory for one test, unique to this process.
fn snapshot_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("revel-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn send_signal(pid: u32, sig: &str) {
    let status =
        Command::new("kill").args(["-s", sig, &pid.to_string()]).status().expect("run kill");
    assert!(status.success(), "kill -s {sig} {pid} failed");
}

#[test]
fn second_sigterm_during_drain_forces_exit_code_3() {
    let (mut child, addr) = spawn_server(&[]);
    let pid = child.id();

    // Occupy the single worker so the post-SIGTERM drain has real work to
    // wait on — the server cannot exit cleanly while this is in flight.
    let mut c = Client::connect(&addr).expect("connect");
    let holder = std::thread::spawn(move || {
        // The sleep outlives the test's signals; the forced exit severs
        // the connection mid-request, which surfaces as a client error.
        let _ = c.request(&Request::Sleep { ms: 20_000 });
    });
    std::thread::sleep(Duration::from_millis(300)); // worker mid-sleep

    // First signal: graceful drain begins; the process must still be
    // alive, waiting on the in-flight sleep.
    send_signal(pid, "TERM");
    std::thread::sleep(Duration::from_millis(300));
    assert!(child.try_wait().expect("try_wait").is_none(), "drain must still be in progress");

    // Second signal: immediate forced exit with the distinct code.
    let t0 = Instant::now();
    send_signal(pid, "TERM");
    let status = loop {
        if let Some(st) = child.try_wait().expect("try_wait") {
            break st;
        }
        assert!(t0.elapsed() < Duration::from_secs(5), "forced exit must be fast");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(
        status.code(),
        Some(FORCED_EXIT_CODE),
        "a forced exit reports code {FORCED_EXIT_CODE}, got {status:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "second signal must not wait for the 20s sleep (took {:?})",
        t0.elapsed()
    );
    holder.join().expect("holder thread");
}

#[test]
fn single_sigterm_still_drains_cleanly() {
    let (mut child, addr) = spawn_server(&[]);
    let pid = child.id();

    // A short in-flight request: the drain waits for it, then exits 0.
    let mut c = Client::connect(&addr).expect("connect");
    let holder = std::thread::spawn(move || c.request(&Request::Sleep { ms: 400 }));
    std::thread::sleep(Duration::from_millis(150));

    send_signal(pid, "TERM");
    let t0 = Instant::now();
    let status = loop {
        if let Some(st) = child.try_wait().expect("try_wait") {
            break st;
        }
        assert!(t0.elapsed() < Duration::from_secs(10), "drain must finish");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(0), "a clean drain exits 0, got {status:?}");
    // The in-flight request was answered before exit.
    let resp = holder.join().expect("holder").expect("drained response");
    assert_eq!(resp, revel_serve::protocol::Response::Slept { ms: 400 });
}

/// `revel_serve --cache-capacity` bounds the in-memory cache, pinned from
/// the outside on the shipped binary: two passes of the smoke frames push
/// 8 distinct simulate cells through a 2-entry cache, and the `stats` wire
/// must report the evictions.
#[test]
fn client_asserts_evictions_against_a_capacity_bounded_server() {
    let (_server, addr) = spawn_server(&["--cache-capacity", "2"]);
    let smoke = std::fs::File::open("ci/smoke.jsonl").expect("smoke frames");
    let frames = read_all_frames(BufReader::new(smoke)).expect("smoke frames");
    let mut c = Client::connect(&addr).expect("connect");
    let evictions = |c: &mut Client| {
        let engine = c.engine_stats().expect("stats");
        assert_eq!(engine.capacity, 2, "the flag reached the engine: {engine:?}");
        engine.evictions
    };
    let before = evictions(&mut c);
    for _pass in 0..2 {
        for frame in &frames {
            c.request_raw_until_terminal(frame).expect("frame answered");
        }
    }
    let evicted = evictions(&mut c) - before;
    // 8 cells cycled twice through 2 entries: at least 6 evictions in the
    // first pass and, nothing having survived, 8 more in the second.
    assert!(evicted >= 14, "a tiny cache under replay load must evict, saw {evicted}");
}

/// A SIGKILLed server restarted on the same `--snapshot-dir` warm-starts
/// from its disk tier: it reports the recovered entry and answers the
/// repeat request from disk (`disk_hits` moves, `misses` does not),
/// byte-identical to the answer the killed process simulated.
#[test]
fn a_killed_server_warm_starts_from_its_disk_tier() {
    let dir = snapshot_dir("restart");
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    let req = Request::simulate("qr", "n=12", "revel");

    let (mut server, addr) = spawn_server(&["--snapshot-dir", dir_arg]);
    let first = Client::connect(&addr).and_then(|mut c| c.request(&req)).expect("simulate");
    assert!(matches!(first, Response::Result { verified: true, .. }), "{first:?}");
    // SIGKILL: no clean-exit snapshot, the segment log is all that is left.
    server.kill().expect("SIGKILL");
    server.wait().expect("reap");

    let (_server, addr) = spawn_server(&["--snapshot-dir", dir_arg]);
    let mut c = Client::connect(&addr).expect("connect");
    let before = c.engine_stats().expect("stats");
    assert!(before.warm_start_entries >= 1, "disk tier recovered the run: {before:?}");
    let again = c.request(&req).expect("repeat simulate");
    assert_eq!(
        encode_response(1, &first),
        encode_response(1, &again),
        "disk-served answer must match the live one"
    );
    let after = c.engine_stats().expect("stats");
    assert_eq!(after.disk_hits, before.disk_hits + 1, "served from disk: {after:?}");
    assert_eq!(after.misses, before.misses, "no re-simulation: {after:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Disk integrity across a crash in the middle of an append: a server
/// armed to abort halfway through its second record dies on the second
/// cell, leaving a torn record on disk. Restarted on the same directory,
/// it serves the first cell from disk, reports the torn tail as a cold
/// start rather than serving from it, and re-simulates the second cell to
/// the same bytes an in-process server answers.
#[test]
fn an_abort_mid_append_loses_only_the_torn_record() {
    let dir = snapshot_dir("torn");
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    let kept = Request::simulate("solver", "n=12", "revel");
    let torn = Request::simulate("fft", "n=64", "revel");

    let armed = [("REVEL_FAILPOINTS", "persist.append.mid-write=abort@2")];
    let (mut server, addr) = spawn_server_with_env(&armed, &["--snapshot-dir", dir_arg]);
    let mut c = Client::connect(&addr).expect("connect");
    let first = c.request(&kept).expect("first append completes");
    assert!(matches!(first, Response::Result { verified: true, .. }), "{first:?}");
    assert!(c.request(&torn).is_err(), "the second append aborts the server before it answers");
    let status = server.wait().expect("reap");
    assert_eq!(status.signal(), Some(6), "the failpoint aborts (SIGABRT): {status:?}");

    let (_server, addr) = spawn_server(&["--snapshot-dir", dir_arg]);
    let mut c = Client::connect(&addr).expect("connect");
    let before = c.engine_stats().expect("stats");
    assert_eq!(before.warm_start_entries, 1, "only the complete record is recovered: {before:?}");
    assert_eq!(before.disk_cold_starts, 1, "the torn tail is a cold start: {before:?}");

    let again = c.request(&kept).expect("kept cell");
    assert_eq!(encode_response(1, &first), encode_response(1, &again), "kept cell from disk");
    let hit = c.engine_stats().expect("stats");
    assert_eq!(hit.disk_hits, before.disk_hits + 1, "the kept cell is a disk hit: {hit:?}");
    assert_eq!(hit.misses, before.misses, "the kept cell is not re-simulated: {hit:?}");

    let resimulated = c.request(&torn).expect("torn cell");
    let after = c.engine_stats().expect("stats");
    assert_eq!(after.misses, hit.misses + 1, "the torn cell re-simulates: {after:?}");
    assert_eq!(after.disk_hits, hit.disk_hits, "nothing is served from the torn record");
    let reference = ServerGuard::start(&loopback(1, 4)).expect("in-process server");
    let expected = Client::connect(reference.addr()).and_then(|mut c| c.request(&torn));
    reference.shutdown();
    assert_eq!(
        encode_response(1, &resimulated),
        encode_response(1, &expected.expect("in-process answer")),
        "the re-simulated answer matches an in-process server's byte for byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
