//! The scenario runner for `revel_serve`: the one way to offer load.
//!
//! ```text
//! # scripted storm: phased scenario file with pinned SLOs (exit 1 on miss)
//! revel_client --scenario ci/scenarios/thundering_herd.json --seed 7
//!
//! # same seed, same bytes: dump every frame sent, diff two runs
//! revel_client --scenario ci/scenarios/smoke.json --dump-requests dump.txt
//! ```
//!
//! A scenario file (`revel_traffic::scenario`, DESIGN.md §11) names the
//! connections, the workload mix (grid cells, `"batch": N` lanes, or the
//! whole grid), the phased arrival processes, the retry budget and the
//! SLOs. The runner prints one JSON line per phase
//! plus a human table — offered/ok/retries/late sends, p50/p90/p99
//! measured from each request's *intended* send time
//! (coordinated-omission correct), and the server-side cache window of
//! each phase — and exits 1 listing every violated SLO.
//!
//! `--seed` overrides the file's seed and pins every random choice end to
//! end: arrivals, workload-mix sampling and retry jitter.

use revel_serve::scenario::{human_table, run, RunOptions};
use revel_traffic::scenario::Scenario;

fn main() {
    let mut host = "127.0.0.1".to_string();
    let mut port = 7411u16;
    let mut scenario_path: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut dump_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val =
            |name: &str| args.next().unwrap_or_else(|| usage(&format!("{name} needs a value")));
        match flag.as_str() {
            "--host" => host = val("--host"),
            "--port" => port = parse(&val("--port"), "--port"),
            "--scenario" => scenario_path = Some(val("--scenario")),
            "--seed" => seed = Some(parse(&val("--seed"), "--seed")),
            "--dump-requests" => dump_path = Some(val("--dump-requests")),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    let path = scenario_path.unwrap_or_else(|| usage("--scenario FILE is required"));

    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fatal(&format!("cannot read scenario file {path}: {e}")));
    let scenario = Scenario::parse(&text).unwrap_or_else(|e| fatal(&e.to_string()));
    let opts = RunOptions {
        addr: format!("{host}:{port}"),
        seed_override: seed,
        dump_requests: dump_path.is_some(),
    };
    let report = run(&scenario, &opts).unwrap_or_else(|e| fatal(&e));
    if let Some(dump_path) = &dump_path {
        let mut dump = report.dump.join("\n");
        dump.push('\n');
        std::fs::write(dump_path, dump)
            .unwrap_or_else(|e| fatal(&format!("cannot write request dump {dump_path}: {e}")));
    }
    for (name, summary) in &report.phases {
        println!("{}", summary.json_line(&scenario.name, name));
    }
    println!("{}", report.total.json_line(&scenario.name, "all"));
    println!(
        "revel-client: scenario {} (seed {}): {} phase(s), {} request(s) offered",
        scenario.name,
        report.seed,
        report.phases.len(),
        report.total.offered,
    );
    print!("{}", human_table(&report.phases, &report.total));
    for v in &report.violations {
        eprintln!("revel-client: GATE FAILED: {v}");
    }
    if !report.violations.is_empty() {
        std::process::exit(1);
    }
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| usage(&format!("bad value '{s}' for {flag}")))
}

fn fatal(msg: &str) -> ! {
    eprintln!("revel-client: {msg}");
    std::process::exit(1);
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("revel-client: {err}");
    }
    eprintln!(
        "usage: revel_client --scenario FILE [--host H] [--port P] [--seed N] \
         [--dump-requests FILE]"
    );
    std::process::exit(2);
}
