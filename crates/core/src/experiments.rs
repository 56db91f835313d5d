//! One generator per paper table/figure. Each returns a [`Table`] so the
//! harness binaries (`crates/bench/src/bin/*`) just print them; the
//! integration tests assert the shapes (who wins, by roughly how much).

use crate::engine;
use crate::report::{pct, ratio, Table};
use crate::suite::{geomean, Bench, Comparison};
use revel_compiler::{AblationStep, BuildCfg};
use revel_fabric::{AreaBreakdown, CostModel, RelativePeArea};
use revel_models::{power, ACCEL_CLOCK_GHZ, CPU_CLOCK_GHZ, GPU_CLOCK_GHZ};
use revel_sim::CycleClass;

/// Runs the full comparison set for a suite, fanned across the evaluation
/// engine's job pool and served from its run cache: the first caller per
/// configuration simulates, every later figure gets cache hits. Result
/// order always matches `benches`.
pub fn run_comparisons(benches: &[Bench]) -> Vec<Comparison> {
    engine::par_map(benches, |b| b.compare().expect("bench runs"))
}

/// Formats a geomean at one decimal; "n/a" when the set was empty.
fn gm1(g: Option<f64>) -> String {
    g.map_or_else(|| "n/a".into(), |g| format!("{g:.1}"))
}

/// Formats a geomean at zero decimals; "n/a" when the set was empty.
fn gm0(g: Option<f64>) -> String {
    g.map_or_else(|| "n/a".into(), |g| format!("{g:.0}"))
}

/// Figure 1: percent of ideal (ASIC) performance for CPU, DSP, GPU.
pub fn fig01_percent_ideal() -> Table {
    let mut t = Table::new(
        "Figure 1: percent of ideal performance (CPU / DSP / GPU models)",
        &["kernel", "params", "cpu", "dsp", "gpu"],
    );
    for b in Bench::suite_large() {
        let ideal_ns = b.asic_cycles() as f64 / ACCEL_CLOCK_GHZ;
        let cpu_ns = b.cpu_cycles() as f64 / CPU_CLOCK_GHZ;
        let dsp_ns = b.dsp_cycles() as f64 / ACCEL_CLOCK_GHZ;
        let gpu_ns = b.gpu_cycles() as f64 / GPU_CLOCK_GHZ;
        t.row(vec![
            b.name().into(),
            b.params(),
            pct(ideal_ns / cpu_ns),
            pct(ideal_ns / dsp_ns),
            pct(ideal_ns / gpu_ns),
        ]);
    }
    t.note("paper: all platforms an order of magnitude below ideal on the factorizations");
    t
}

/// Figure 6: cumulative inter-region dependence distances.
pub fn fig06_dep_distance() -> Table {
    use revel_workloads::depdist;
    let mut t = Table::new(
        "Figure 6: inter-region dependence distance (instructions)",
        &["kernel", "n", "median", "p90", "<=100", "<=1000", "<=10000"],
    );
    let cases: Vec<(&str, usize, depdist::DepDistances)> = vec![
        ("cholesky", 24, depdist::cholesky_distances(24)),
        ("qr", 24, depdist::qr_distances(24)),
        ("svd", 24, depdist::svd_distances(24)),
        ("solver", 24, depdist::solver_distances(24)),
    ];
    for (name, n, d) in cases {
        let sorted = d.sorted();
        let p90 = sorted.get(sorted.len() * 9 / 10).copied().unwrap_or(0);
        t.row(vec![
            name.into(),
            n.to_string(),
            d.median().to_string(),
            p90.to_string(),
            pct(d.cumulative_at(100)),
            pct(d.cumulative_at(1000)),
            pct(d.cumulative_at(10_000)),
        ]);
    }
    t.note("paper: most dependences are around a thousand instructions apart");
    t
}

/// Figure 7: relative PE area across the spatial-architecture taxonomy.
pub fn fig07_taxonomy_area() -> Table {
    let r = RelativePeArea::paper();
    let mut t = Table::new(
        "Figure 7: relative PE area (taxonomy quadrants)",
        &["quadrant", "relative area"],
    );
    t.row(vec!["systolic (dedicated/static)".into(), ratio(r.systolic)]);
    t.row(vec!["ordered dataflow (dedicated/dynamic)".into(), ratio(r.ordered_dataflow)]);
    t.row(vec!["CGRA (shared/static)".into(), ratio(r.cgra)]);
    t.row(vec!["tagged dataflow (shared/dynamic)".into(), ratio(r.tagged_dataflow)]);
    t.note(format!(
        "per-PE synthesis: systolic {:.0} um^2, tagged dataflow {:.0} um^2",
        revel_fabric::SPE_AREA_UM2,
        revel_fabric::DPE_AREA_UM2
    ));
    t
}

/// Figure 8: the spatial baselines' fraction of ideal performance.
pub fn fig08_spatial_baselines(comparisons: &[Comparison]) -> Table {
    let mut t = Table::new(
        "Figure 8: spatial baselines relative to ideal",
        &["kernel", "params", "systolic", "dataflow", "revel"],
    );
    for c in comparisons {
        let ideal = c.bench.asic_cycles() as f64;
        t.row(vec![
            c.bench.name().into(),
            c.bench.params(),
            pct(ideal / c.systolic_cycles as f64),
            pct(ideal / c.dataflow_cycles as f64),
            pct(c.fraction_of_ideal()),
        ]);
    }
    t.note("paper: spatial architectures beat CPUs/DSPs but stay well under ideal");
    t
}

/// Figure 19 (batch 1): speedups over the DSP.
pub fn fig19_batch1(comparisons: &[Comparison]) -> Table {
    let mut t = Table::new(
        "Figure 19: batch-1 speedup over DSP",
        &["kernel", "params", "revel", "systolic", "dataflow"],
    );
    for c in comparisons {
        let dsp = c.bench.dsp_cycles() as f64;
        t.row(vec![
            c.bench.name().into(),
            c.bench.params(),
            ratio(c.speedup_vs_dsp()),
            ratio(dsp / c.systolic_cycles as f64),
            ratio(dsp / c.dataflow_cycles as f64),
        ]);
    }
    let g = gm1(geomean(comparisons.iter().map(|c| c.speedup_vs_dsp())));
    t.note(format!("geomean REVEL speedup over DSP: {g}x (paper: 11x small / 17x large)"));
    let gs = gm1(geomean(comparisons.iter().map(|c| c.speedup_vs_systolic())));
    let gd = gm1(geomean(comparisons.iter().map(|c| c.speedup_vs_dataflow())));
    t.note(format!("geomean vs systolic {gs}x (paper 3.3x), vs dataflow {gd}x (paper 3.5x)"));
    t
}

/// Figure 20 (batch 8): each lane runs an independent input; the DSP model
/// likewise runs one instance per core, so its per-instance time is its
/// single-core time.
pub fn fig20_batch8() -> Table {
    let mut t = Table::new("Figure 20: batch-8 speedup over DSP", &["kernel", "params", "revel"]);
    let benches = Bench::suite_small();
    // GEMM/FIR already use all lanes for one input; batch scales both
    // platforms equally, so the batch-1 number carries over (and shares the
    // batch-1 cache entry — only kernels whose batch build differs re-run).
    let speeds: Vec<f64> = engine::par_map(&benches, |b| {
        let run = engine::engine().run_cached(*b, &BuildCfg::revel(8), true, None).expect("run");
        run.assert_ok(b.name());
        b.dsp_cycles() as f64 / run.cycles as f64
    });
    for (b, s) in benches.iter().zip(&speeds) {
        t.row(vec![b.name().into(), b.params(), ratio(*s)]);
    }
    t.note(format!(
        "geomean: {}x (paper: 6.2x small / 8.1x large; DSP gets its own 8x from batch)",
        gm1(geomean(speeds))
    ));
    t
}

/// Figure 21: MKL thread scaling vs REVEL on Cholesky.
pub fn fig21_cpu_scaling() -> Table {
    use revel_models::cpu;
    let mut t = Table::new(
        "Figure 21: Cholesky — CPU (MKL model) thread scaling vs REVEL",
        &["n", "cpu 1t (us)", "cpu 2t", "cpu 4t", "cpu 8t", "revel (us)"],
    );
    for n in [16usize, 32, 64, 128, 256, 512] {
        let us = |cycles: u64| format!("{:.2}", cycles as f64 / CPU_CLOCK_GHZ / 1000.0);
        let revel = if n <= 32 {
            let run = Bench::Cholesky { n }.run(&BuildCfg::revel(1)).expect("run");
            run.assert_ok("cholesky");
            format!("{:.2}", run.cycles as f64 / ACCEL_CLOCK_GHZ / 1000.0)
        } else {
            "-".into()
        };
        t.row(vec![
            n.to_string(),
            us(cpu::cholesky_1t(n)),
            us(cpu::cholesky_mt(n, 2)),
            us(cpu::cholesky_mt(n, 4)),
            us(cpu::cholesky_mt(n, 8)),
            revel,
        ]);
    }
    t.note("paper: MKL threads only from n=128, where threading first *hurts*");
    t
}

/// Figure 22: the mechanism ablation ladder.
pub fn fig22_ablation() -> Table {
    let mut t = Table::new(
        "Figure 22: performance impact of each mechanism (speedup over systolic base)",
        &["kernel", "params", "+ind-streams", "+hybrid", "+stream-pred"],
    );
    let benches = Bench::suite_large();
    let rows = engine::par_map(&benches, |b| {
        let lanes = b.lanes();
        let base = b.run(&BuildCfg::ablation(AblationStep::Systolic, lanes)).expect("base");
        base.assert_ok(b.name());
        let mut cells = vec![b.name().to_string(), b.params()];
        for step in
            [AblationStep::InductiveStreams, AblationStep::Hybrid, AblationStep::StreamPredication]
        {
            let run = b.run(&BuildCfg::ablation(step, lanes)).expect("step");
            run.assert_ok(b.name());
            cells.push(ratio(base.cycles as f64 / run.cycles as f64));
        }
        cells
    });
    for cells in rows {
        t.row(cells);
    }
    t.note("paper: streams help everything; hybrid helps QR/SVD/Solver most; predication pays off on vectorized inductive loops");
    t
}

/// Figure 23: cycle-level bottleneck breakdown for REVEL.
pub fn fig23_bottlenecks(comparisons: &[Comparison]) -> Table {
    let classes = CycleClass::ALL;
    let mut headers: Vec<&str> = vec!["kernel", "params"];
    headers.extend(classes.iter().map(|c| c.label()));
    let mut t = Table::new("Figure 23: REVEL cycle-level breakdown", &headers);
    for c in comparisons {
        let b = c.revel.report.total_breakdown();
        let mut cells = vec![c.bench.name().to_string(), c.bench.params()];
        cells.extend(classes.iter().map(|cl| pct(b.fraction(*cl))));
        t.row(cells);
    }
    t.note("issue/multi-issue/temporal are useful work; the rest are stalls");
    t
}

/// Figure 24: sensitivity to the number of dataflow PEs.
pub fn fig24_dpe_sensitivity() -> Table {
    let mut t = Table::new(
        "Figure 24: dataflow-PE count sensitivity (cycles; area)",
        &["kernel", "1 dPE", "2 dPE", "4 dPE", "8 dPE"],
    );
    let benches = [
        Bench::Svd { n: 16 },
        Bench::Qr { n: 16 },
        Bench::Cholesky { n: 16 },
        Bench::Solver { n: 16 },
    ];
    let rows = engine::par_map(&benches, |b| {
        let mut cells = vec![b.name().to_string()];
        for dpes in [1usize, 2, 4, 8] {
            let cfg = BuildCfg::revel_with_dpes(b.lanes(), dpes);
            match b.run(&cfg) {
                Ok(run) => {
                    run.assert_ok(b.name());
                    cells.push(run.cycles.to_string());
                }
                Err(_) => cells.push("n/a".into()),
            }
        }
        cells
    });
    for cells in rows {
        t.row(cells);
    }
    let m = CostModel::paper();
    t.note(format!(
        "area: 1 dPE {:.2} mm^2, 2 dPE {:.2}, 4 dPE {:.2}, 8 dPE {:.2} (paper picks 1)",
        m.revel_mm2_with_dpes(8, 1),
        m.revel_mm2_with_dpes(8, 2),
        m.revel_mm2_with_dpes(8, 4),
        m.revel_mm2_with_dpes(8, 8)
    ));
    t
}

/// Figure 25: performance per area, normalized to the CPU.
pub fn fig25_perf_per_area(comparisons: &[Comparison]) -> Table {
    // Areas (28 nm-normalized): Xeon 4116 die share ~8 cores; the paper
    // normalizes technology and reports REVEL at 1089x the OOO core and
    // 7.3x the DSP. We use published per-core area estimates.
    const CPU_MM2: f64 = 8.0 * 35.0; // 8 Skylake cores + uncore, 28nm-equivalent
    const DSP_MM2: f64 = 8.0 * 1.6; // 8 C66x cores (core+L2 only), 28nm-equivalent
    let revel_mm2 = AreaBreakdown::paper().revel_mm2;
    let mut t = Table::new(
        "Figure 25: relative performance/mm^2 (normalized to CPU)",
        &["kernel", "dsp", "revel"],
    );
    let mut dsp_r = Vec::new();
    let mut revel_r = Vec::new();
    for c in comparisons {
        let cpu_time = c.bench.cpu_cycles() as f64 / CPU_CLOCK_GHZ;
        let dsp_time = c.bench.dsp_cycles() as f64 / ACCEL_CLOCK_GHZ;
        let revel_time = c.revel.cycles as f64 / ACCEL_CLOCK_GHZ;
        let cpu_pa = 1.0 / (cpu_time * CPU_MM2);
        let dsp_pa = 1.0 / (dsp_time * DSP_MM2) / cpu_pa;
        let rev_pa = 1.0 / (revel_time * revel_mm2) / cpu_pa;
        dsp_r.push(dsp_pa);
        revel_r.push(rev_pa);
        t.row(vec![c.bench.name().into(), ratio(dsp_pa), ratio(rev_pa)]);
    }
    t.note(format!(
        "geomean: DSP {}x, REVEL {}x over CPU (paper: REVEL 1089x CPU, 7.3x DSP)",
        gm0(geomean(dsp_r)),
        gm0(geomean(revel_r))
    ));
    t
}

/// Table IV: the ideal ASIC cycle models.
pub fn tab04_asic_models() -> Table {
    let mut t = Table::new("Table IV: ideal ASIC model cycles", &["kernel", "small", "large"]);
    for (s, l) in Bench::suite_small().into_iter().zip(Bench::suite_large()) {
        t.row(vec![
            s.name().into(),
            format!("{} ({})", s.asic_cycles(), s.params()),
            format!("{} ({})", l.asic_cycles(), l.params()),
        ]);
    }
    t
}

/// Table VI: the published area/power breakdown.
pub fn tab06_area_power() -> Table {
    let b = AreaBreakdown::paper();
    let mut t = Table::new(
        "Table VI: area and power breakdown (28 nm)",
        &["component", "area (mm^2)", "power (mW)"],
    );
    let mut row = |n: &str, a: f64, p: f64| {
        t.row(vec![n.into(), format!("{a:.2}"), format!("{p:.2}")]);
    };
    row("dedicated network (24)", b.dedicated_net_mm2, b.dedicated_net_mw);
    row("temporal network (1)", b.temporal_net_mm2, b.temporal_net_mw);
    row("functional units", b.func_units_mm2, b.func_units_mw);
    row("control (ports/XFER/stream)", b.control_mm2, b.control_mw);
    row("SPAD 8KB", b.spad_mm2, b.spad_mw);
    row("1 vector lane", b.lane_mm2, b.lane_mw);
    row("control core", b.core_mm2, b.core_mw);
    row("REVEL total", b.revel_mm2, b.revel_mw);
    t
}

/// Table VII: power/area overhead versus an iso-performance ASIC, from
/// measured simulator events.
pub fn tab07_asic_overhead(comparisons: &[Comparison]) -> Table {
    let mut t = Table::new(
        "Table VII: power/area overhead vs ideal ASIC (iso-performance)",
        &["kernel", "power ovhd", "area ovhd"],
    );
    let mut povs = Vec::new();
    for c in comparisons {
        let lanes = c.bench.lanes();
        let pov =
            power::power_overhead(&c.revel.report.events, c.revel.cycles, ACCEL_CLOCK_GHZ, lanes);
        let aov = power::revel_area_mm2(lanes) / power::asic_area_mm2(lanes);
        povs.push(pov);
        t.row(vec![c.bench.name().into(), ratio(pov), ratio(aov)]);
    }
    t.note(format!(
        "mean power overhead {}x (paper 2.0x); combined-ASIC area ratio {:.2} (paper 0.55)",
        gm1(geomean(povs)),
        power::combined_asics_vs_revel()
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        assert!(fig01_percent_ideal().to_string().contains("cholesky"));
        assert!(fig07_taxonomy_area().to_string().contains("tagged"));
        assert!(tab04_asic_models().to_string().contains("fft"));
        assert!(tab06_area_power().to_string().contains("REVEL total"));
    }

    #[test]
    fn fig01_platforms_below_ideal_on_factorizations() {
        let t = fig01_percent_ideal();
        // Every cpu/dsp entry for the factorizations is below 100%.
        for row in &t.rows[..4] {
            for cell in &row[2..4] {
                let v: f64 = cell.trim_end_matches('%').parse().unwrap();
                assert!(v < 100.0, "{row:?}");
            }
        }
    }
}
