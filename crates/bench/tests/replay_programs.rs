//! Every compiled replay program the evaluation records is pinned.
//!
//! For the 42 grid cells and the batch-8 Cholesky build, the timing walk
//! records a trace under both steppers, and one line per build records the
//! compiled program's counts — segments, loads, steps, stores, constants
//! and registers — and an FNV-1a 64 digest of every segment's ranges and
//! host pc, every step's `(op, dst, args)`, every load's `(mem, addr)`,
//! every store's `(mem, addr, row)` and the constants' bits. The lines
//! must equal `crates/bench/golden/replay_programs.txt`, so a change to how
//! a trace is recorded that moves a load, a step, a store or a register
//! shows here, and both steppers must record the same program.

use revel_bench::grid::evaluation_grid;
use revel_core::compiler::BuildCfg;
use revel_core::engine;
use revel_core::sim::{SimOptions, TimingTrace};
use revel_core::workloads::{record_timing, BuiltKernel};
use revel_core::Bench;

/// FNV-1a 64 over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// The line of a compiled program.
fn render(trace: &TimingTrace) -> String {
    let words = |ws: &[u64]| ws.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();
    let mut bytes = Vec::new();
    for ([loads, steps, stores], host) in trace.segments() {
        let ranges = [loads, steps, stores].map(|r| [r.start as u64, r.end as u64]);
        bytes.extend(words(ranges.as_flattened()));
        bytes.extend(words(&[host.map_or(u64::MAX, u64::from)]));
    }
    for (op, dst, args) in trace.steps() {
        bytes.extend(format!("{op:?}").bytes());
        bytes.extend(words(&[dst, args[0], args[1], args[2]].map(u64::from)));
    }
    for (mem, addr) in trace.loads() {
        bytes.extend(words(&[u64::from(mem), u64::from(addr)]));
    }
    for (mem, addr, row) in trace.stores() {
        bytes.extend(words(&[u64::from(mem), u64::from(addr), u64::from(row)]));
    }
    bytes.extend(words(trace.constants()));
    format!(
        "segments {} loads {} steps {} stores {} constants {} registers {} digest {:016x}",
        trace.segments().count(),
        trace.loads().count(),
        trace.steps().count(),
        trace.stores().count(),
        trace.constants().len(),
        trace.registers(),
        fnv1a(bytes)
    )
}

/// Every build the file pins: the grid cells, then the batch-8 Cholesky
/// build (which differs from its batch-1 build).
fn builds() -> Vec<(String, BuildCfg, BuiltKernel)> {
    let mut out: Vec<(String, BuildCfg, BuiltKernel)> = evaluation_grid()
        .into_iter()
        .map(|c| {
            let label = format!("{} {} [{}]", c.bench.name(), c.bench.params(), c.arch);
            (label, c.cfg, c.bench.workload().build(&c.cfg))
        })
        .collect();
    let cholesky = Bench::Cholesky { n: 12 };
    let cfg = BuildCfg::revel(8);
    let label = format!("{} {} [batch revel(8)]", cholesky.name(), cholesky.params());
    out.push((label, cfg, cholesky.batch_workload().build(&cfg)));
    out
}

#[test]
fn every_recorded_replay_program_is_pinned_under_both_steppers() {
    let builds = builds();
    assert_eq!(builds.len(), 43);
    let lines = engine::par_map(&builds, |(label, cfg, built)| {
        let reference = SimOptions { reference_stepper: true, ..cfg.sim_options() };
        let [line, reference] = [cfg.sim_options(), reference].map(|opts| {
            let (_, trace) = record_timing(built, cfg, opts).expect("timing walk");
            render(&trace)
        });
        assert_eq!(line, reference, "{label}: the reference stepper records another program");
        format!("{label}: {line}\n")
    });
    let actual: String = lines.concat();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/replay_programs.txt");
    let golden = std::fs::read_to_string(golden_path).expect("golden replay programs file");
    if golden != actual {
        let written = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("replay_programs.txt");
        std::fs::write(&written, &actual).expect("write actual replay programs");
        let first = golden
            .lines()
            .zip(actual.lines())
            .find(|(g, a)| g != a)
            .map(|(g, a)| format!("golden: {g}\nactual: {a}"))
            .unwrap_or_else(|| "one file is a prefix of the other".into());
        panic!(
            "replay programs differ from {golden_path} ({} golden lines, {} actual; actual \
             written to {}):\n{first}",
            golden.lines().count(),
            actual.lines().count(),
            written.display()
        );
    }
}
