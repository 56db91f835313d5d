//! Every command program the evaluation builds is pinned.
//!
//! For the 42 grid cells, the seven Fig. 20 batch builds at
//! `BuildCfg::revel(8)`, and QR at n ∈ {12, 16, 24, 32} under `revel(1)`,
//! `revel(8)`, `dataflow_baseline(1)` and every Fig. 22 ladder step, one
//! line per build records the program's name, its control-step count, the
//! sum of its host ops' cycles, and an FNV-1a 64 digest of every command,
//! every host step's cycles, every configuration's regions and the init
//! image. The lines must equal `crates/bench/golden/build_programs.txt`, so
//! a change to how a kernel is built that moves, adds or reorders a single
//! command, barrier or region shows here — which `replay_programs.txt`,
//! seeing only the recorded dataflow, does not.

use revel_bench::grid::evaluation_grid;
use revel_core::compiler::{AblationStep, BuildCfg};
use revel_core::sim::ControlStep;
use revel_core::workloads::{BuiltKernel, MemInit};
use revel_core::Bench;

/// FNV-1a 64 over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// The line of a built program.
fn render(built: &BuiltKernel) -> String {
    let program = &built.program;
    let mut bytes = Vec::new();
    let mut host_cycles = 0;
    for step in &program.control {
        match step {
            ControlStep::Command(cmd) => bytes.extend(format!("{cmd:?}").bytes()),
            ControlStep::Host(op) => {
                host_cycles += op.cycles;
                bytes.extend(format!("host {}", op.cycles).bytes());
            }
        }
    }
    for regions in &program.configs {
        bytes.extend(format!("{regions:?}").bytes());
    }
    for init in &built.init {
        let (place, addr, data) = match init {
            MemInit::Private { lane, addr, data } => (i64::from(*lane), *addr, data),
            MemInit::Shared { addr, data } => (-1, *addr, data),
        };
        bytes.extend([place, addr].iter().flat_map(|w| w.to_le_bytes()));
        bytes.extend(data.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    }
    format!(
        "{} steps {} host_cycles {} digest {:016x}",
        program.name,
        program.num_commands(),
        host_cycles,
        fnv1a(bytes)
    )
}

/// Every build the file pins: the grid cells, the Fig. 20 batch builds,
/// then QR's sizes under every configuration that builds it.
fn builds() -> Vec<(String, BuiltKernel)> {
    let mut out: Vec<(String, BuiltKernel)> = evaluation_grid()
        .into_iter()
        .map(|c| {
            let label = format!("{} {} [{}]", c.bench.name(), c.bench.params(), c.arch);
            (label, c.bench.workload().build(&c.cfg))
        })
        .collect();
    let batch = BuildCfg::revel(8);
    for b in Bench::suite_small() {
        let label = format!("{} {} [batch revel(8)]", b.name(), b.params());
        out.push((label, b.batch_workload().build(&batch)));
    }
    let qr_cfgs = [
        ("revel(1)", BuildCfg::revel(1)),
        ("revel(8)", BuildCfg::revel(8)),
        ("dataflow_baseline(1)", BuildCfg::dataflow_baseline(1)),
    ]
    .into_iter()
    .chain(AblationStep::LADDER.map(|s| (s.label(), BuildCfg::ablation(s, 1))));
    for (arch, cfg) in qr_cfgs {
        for n in [12, 16, 24, 32] {
            let qr = Bench::Qr { n };
            out.push((format!("qr {} [{arch}]", qr.params()), qr.workload().build(&cfg)));
        }
    }
    out
}

#[test]
fn every_built_command_program_is_pinned() {
    let builds = builds();
    assert_eq!(builds.len(), 42 + 7 + 4 * 7);
    let actual: String =
        builds.iter().map(|(label, built)| format!("{label}: {}\n", render(built))).collect();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/build_programs.txt");
    let golden = std::fs::read_to_string(golden_path).expect("golden build programs file");
    if golden != actual {
        let written = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("build_programs.txt");
        std::fs::write(&written, &actual).expect("write actual build programs");
        let first = golden
            .lines()
            .zip(actual.lines())
            .find(|(g, a)| g != a)
            .map(|(g, a)| format!("golden: {g}\nactual: {a}"))
            .unwrap_or_else(|| "one file is a prefix of the other".into());
        panic!(
            "build programs differ from {golden_path} ({} golden lines, {} actual; actual \
             written to {}):\n{first}",
            golden.lines().count(),
            actual.lines().count(),
            written.display()
        );
    }
}
