//! The REVEL simulation server.
//!
//! ```text
//! revel_serve                          # 127.0.0.1:7411, one worker/core
//! revel_serve --port 7500 --workers 2 --queue 16 --cache-capacity 256
//! revel_serve --snapshot-dir /var/cache/revel   # persistent result cache
//! REVEL_FAILPOINTS='serve.worker.pre-run=err@%10' revel_serve   # fail 1 job in 10
//! ```
//!
//! Speaks the JSON-lines protocol of `revel_serve::protocol` (DESIGN.md
//! §11). SIGTERM/ctrl-c (or a `shutdown` request) drains in-flight work
//! and exits 0 with a final stats line on stderr; a second signal during
//! the drain force-exits with code 3.
//!
//! Faults are injected through `REVEL_FAILPOINTS` (DESIGN.md §11,
//! "Failpoints"), armed before anything else runs. The work path's site
//! is `serve.worker.pre-run`, hit once per popped job inside the worker's
//! unwind fence: `err` answers a retryable `injected_fault` (counted as
//! `injected` in `stats` and on the shutdown line), `delay:MS` holds the
//! worker and then serves the job, `panic` comes back as the `internal`
//! error a real bug would, `abort` kills the process. `@%N` fires on every Nth job, so
//! client retry logic can be drilled at a chosen rate.
//!
//! With `--snapshot-dir`, every simulated result is appended to a
//! disk-backed cache in that directory, and a restarted process (after a
//! clean exit or a crash) warm-starts from it: a repeat request is
//! answered from disk instead of re-simulating.

use revel_serve::server::{Server, ServerConfig};
use revel_serve::signal;
use std::path::PathBuf;
use std::time::Duration;

fn main() {
    // Fault-injection sites arm from the environment before anything
    // else runs, so a harness can target the process it is about to
    // spawn.
    match revel_failpoint::init_from_env() {
        Ok(0) => {}
        Ok(n) => {
            eprintln!("revel-serve: {n} failpoint(s) armed from ${}", revel_failpoint::ENV_VAR)
        }
        Err(e) => {
            eprintln!("revel-serve: bad ${}: {e}", revel_failpoint::ENV_VAR);
            std::process::exit(2);
        }
    }
    let mut cfg = ServerConfig::default();
    let mut host = "127.0.0.1".to_string();
    let mut port = 7411u16;
    let mut snapshot_dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val =
            |name: &str| args.next().unwrap_or_else(|| usage(&format!("{name} needs a value")));
        match a.as_str() {
            "--host" => host = val("--host"),
            "--port" => port = parse(&val("--port"), "--port"),
            "--workers" => cfg.workers = parse(&val("--workers"), "--workers"),
            "--queue" => cfg.queue_capacity = parse(&val("--queue"), "--queue"),
            "--cache-capacity" => revel_core::engine::set_cache_capacity(parse(
                &val("--cache-capacity"),
                "--cache-capacity",
            )),
            "--conn-timeout" => {
                cfg.conn_timeout =
                    Duration::from_secs(parse(&val("--conn-timeout"), "--conn-timeout"));
            }
            "--snapshot-dir" => snapshot_dir = Some(PathBuf::from(val("--snapshot-dir"))),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    cfg.addr = format!("{host}:{port}");
    if let Some(dir) = &snapshot_dir {
        match revel_core::engine::enable_persistence(dir) {
            Ok(warm) => {
                eprintln!(
                    "revel-serve: persistent cache at {} ({} entr{} warm, {} cold start(s))",
                    dir.display(),
                    warm.entries,
                    if warm.entries == 1 { "y" } else { "ies" },
                    warm.cold_starts.len(),
                );
                for cold in &warm.cold_starts {
                    eprintln!("revel-serve: cold start: {cold}");
                }
            }
            Err(e) => {
                eprintln!("revel-serve: cannot open snapshot dir {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }

    signal::install();
    let server = match Server::bind(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("revel-serve: cannot bind {}: {e}", cfg.addr);
            std::process::exit(1);
        }
    };
    let addr = server.local_addr().map(|a| a.to_string()).unwrap_or(cfg.addr.clone());

    eprintln!(
        "revel-serve: listening on {addr} ({} worker(s), queue capacity {}, cache capacity {})",
        if cfg.workers == 0 { revel_core::engine::jobs() } else { cfg.workers },
        cfg.queue_capacity,
        revel_core::engine::cache_capacity(),
    );
    match server.serve() {
        Ok(stats) => {
            // Fold the segment log into a compact snapshot while the exit
            // is clean; a crashed process just replays the log instead.
            if let Err(e) = revel_core::engine::persist_snapshot() {
                eprintln!("revel-serve: snapshot failed: {e}");
            }
            eprintln!("revel-serve: shutdown — {stats}");
            eprintln!("revel-serve: {}", revel_core::engine::stats());
        }
        Err(e) => {
            eprintln!("revel-serve: fatal: {e}");
            std::process::exit(1);
        }
    }
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| usage(&format!("bad value '{s}' for {flag}")))
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("revel-serve: {err}");
    }
    eprintln!(
        "usage: revel_serve [--host H] [--port P] [--workers N] [--queue N] [--cache-capacity N] \
         [--conn-timeout SECS] [--snapshot-dir DIR]"
    );
    std::process::exit(2);
}
