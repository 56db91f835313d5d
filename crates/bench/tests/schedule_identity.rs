//! Every spatial compile the evaluation runs is pinned, field by field.
//!
//! For 84 builds — the 42 grid cells, `BuildCfg::revel_with_dpes(lanes,
//! d)` for d ∈ {2, 4} and `BuildCfg::dataflow_baseline` over the 14 small
//! and large benches — each configuration of the program is scheduled the
//! way `Machine::run` schedules it (`SpatialScheduler::for_lane` on the
//! build's lane), on a healthy fabric and with tile 5 and tile 15 dead.
//! One line per (build, configuration, fabric) records every
//! `RegionSchedule` field, the `RouteStats`, and FNV-1a 64 digests of the
//! placement and of the dataflow-PE loads, each sorted by key; a schedule
//! that fails records its error. The lines must equal
//! `crates/bench/golden/schedules.txt`, so a change to the annealer or the
//! router that moves any placement, path or timing shows here.

use revel_bench::grid::evaluation_grid;
use revel_core::compiler::BuildCfg;
use revel_core::fabric::FabricMask;
use revel_core::scheduler::SpatialScheduler;
use revel_core::Bench;
use std::fmt::Write;

/// FNV-1a 64 over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Every build the identity covers, with its architecture label.
fn builds() -> Vec<(String, Bench, BuildCfg)> {
    let mut out: Vec<(String, Bench, BuildCfg)> =
        evaluation_grid().into_iter().map(|c| (format!("[{}]", c.arch), c.bench, c.cfg)).collect();
    for b in Bench::suite_small().into_iter().chain(Bench::suite_large()) {
        for d in [2, 4] {
            out.push((format!("[revel {d} dPE]"), b, BuildCfg::revel_with_dpes(b.lanes(), d)));
        }
        out.push(("[dataflow]".into(), b, BuildCfg::dataflow_baseline(b.lanes())));
    }
    out
}

/// The schedule lines of one build.
fn render(label: &str, bench: Bench, cfg: &BuildCfg, out: &mut String) {
    let program = bench.workload().build(cfg).program;
    let scheduler = SpatialScheduler::for_lane(&cfg.machine_config().lane);
    let masks = [
        ("healthy", FabricMask::HEALTHY),
        ("dead 5", FabricMask::HEALTHY.with_dead_pe(5)),
        ("dead 15", FabricMask::HEALTHY.with_dead_pe(15)),
    ];
    for (ci, regions) in program.configs.iter().enumerate() {
        for (fabric, mask) in masks {
            write!(out, "{} {} {label} config {ci} {fabric}:", bench.name(), bench.params())
                .unwrap();
            match scheduler.reschedule_degraded(regions, mask) {
                Ok(s) => {
                    for r in &s.regions {
                        write!(
                            out,
                            " [lat {} ii {} fifo {} hops {}]",
                            r.latency, r.ii, r.max_delay_fifo, r.hops_per_fire
                        )
                        .unwrap();
                    }
                    let st = s.route_stats;
                    let mut placement: Vec<_> = s.placement.into_iter().collect();
                    placement.sort();
                    let mut dpe_load: Vec<_> = s.dpe_load.into_iter().collect();
                    dpe_load.sort();
                    let placement = fnv1a(placement.iter().flat_map(|(k, c)| {
                        [k.region as u64, k.node.0 as u64, k.replica as u64, c.x as u64, c.y as u64]
                            .into_iter()
                            .flat_map(u64::to_le_bytes)
                    }));
                    let dpe_load = fnv1a(dpe_load.iter().flat_map(|(c, n)| {
                        [c.x as u64, c.y as u64, *n as u64].into_iter().flat_map(u64::to_le_bytes)
                    }));
                    writeln!(
                        out,
                        " route hops {} sharing {} iterations {} placement {placement:016x} \
                         dpe_load {dpe_load:016x}",
                        st.total_hops, st.max_link_sharing, st.iterations
                    )
                    .unwrap();
                }
                Err(e) => writeln!(out, " error {e}").unwrap(),
            }
        }
    }
}

#[test]
fn every_evaluated_configuration_schedules_as_pinned() {
    let builds = builds();
    assert_eq!(builds.len(), 84);
    let mut actual = String::new();
    for (label, bench, cfg) in &builds {
        render(label, *bench, cfg, &mut actual);
    }
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/schedules.txt");
    let golden = std::fs::read_to_string(golden_path).expect("golden schedules file");
    if golden != actual {
        let written = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("schedules.txt");
        std::fs::write(&written, &actual).expect("write actual schedules");
        let first = golden
            .lines()
            .zip(actual.lines())
            .find(|(g, a)| g != a)
            .map(|(g, a)| format!("golden: {g}\nactual: {a}"))
            .unwrap_or_else(|| "one file is a prefix of the other".into());
        panic!(
            "schedules differ from {golden_path} ({} golden lines, {} actual; actual written to \
             {}):\n{first}",
            golden.lines().count(),
            actual.lines().count(),
            written.display()
        );
    }
}
