//! The experiment generators must reproduce the *shapes* of the paper's
//! evaluation: who wins, by roughly what factor, where the crossovers are.

use revel_core::{experiments as ex, Bench};

fn parse_ratio(s: &str) -> f64 {
    s.trim_end_matches('x').parse().unwrap()
}

fn parse_pct(s: &str) -> f64 {
    s.trim_end_matches('%').parse().unwrap()
}

#[test]
fn fig01_platforms_far_below_ideal_on_factorizations() {
    let t = ex::fig01_percent_ideal();
    // rows: svd, qr, cholesky, solver, fft, gemm, fir
    for row in &t.rows {
        let dsp = parse_pct(&row[3]);
        assert!(dsp < 100.0, "{row:?}");
        if ["svd", "cholesky", "fft"].contains(&row[0].as_str()) {
            assert!(dsp < 25.0, "inductive kernel near peak on DSP: {row:?}");
        }
    }
}

#[test]
fn fig06_dependences_are_kilo_instruction_scale() {
    let t = ex::fig06_dep_distance();
    for row in &t.rows {
        let p_10k = parse_pct(&row[6]);
        assert!(p_10k > 99.0, "{row:?}");
    }
}

#[test]
fn fig19_geomeans_match_paper_ordering() {
    let comps = ex::run_comparisons(&Bench::suite_large());
    let t = ex::fig19_batch1(&comps);
    for row in &t.rows {
        let revel = parse_ratio(&row[2]);
        assert!(revel > 1.0, "REVEL must beat the DSP: {row:?}");
        let systolic = parse_ratio(&row[3]);
        let dataflow = parse_ratio(&row[4]);
        assert!(revel >= systolic - 1e-9, "{row:?}");
        assert!(revel > dataflow, "{row:?}");
    }
}

#[test]
fn fig23_breakdown_sums_to_one() {
    let comps = ex::run_comparisons(&[Bench::Cholesky { n: 16 }, Bench::Fft { n: 64 }]);
    let t = ex::fig23_bottlenecks(&comps);
    for row in &t.rows {
        let total: f64 = row[2..].iter().map(|c| parse_pct(c)).sum();
        assert!((total - 100.0).abs() < 1.0, "breakdown sums to {total}: {row:?}");
    }
}

#[test]
fn fig23_fft_shows_barrier_or_drain_overhead() {
    let comps = ex::run_comparisons(&[Bench::Fft { n: 64 }]);
    let t = ex::fig23_bottlenecks(&comps);
    // columns: kernel, params, multi-issue, issue, temporal, drain,
    // scr-b/w, scr-barrier, stream-dpd, ctrl-ovhd, idle
    let row = &t.rows[0];
    let drain = parse_pct(&row[5]) + parse_pct(&row[7]);
    assert!(drain > 1.0, "small FFT should show drain/barrier cycles: {row:?}");
}

#[test]
fn tab07_power_overhead_near_2x() {
    let comps = ex::run_comparisons(&Bench::suite_large());
    let t = ex::tab07_asic_overhead(&comps);
    for row in &t.rows {
        let p = parse_ratio(&row[1]);
        assert!((1.0..6.0).contains(&p), "power overhead out of family: {row:?}");
    }
}

#[test]
fn fig22_ladder_never_regresses_at_the_top() {
    let t = ex::fig22_ablation();
    for row in &t.rows {
        let full = parse_ratio(&row[4]);
        assert!(full >= 0.95, "full REVEL slower than systolic base: {row:?}");
        if ["cholesky", "qr", "solver", "svd"].contains(&row[0].as_str()) {
            assert!(full > 1.3, "inductive kernel should gain: {row:?}");
        }
    }
}

#[test]
fn cholesky_builds_keep_their_control_step_counts() {
    // Every Cholesky build of the evaluation grid and the batch suites, by
    // control-step count: a lowering change that adds or drops a command
    // fails here.
    use revel_core::compiler::{AblationStep, BuildCfg};
    let steps = |w: Box<dyn revel_core::workloads::Workload>, cfg: BuildCfg| {
        w.build(&cfg).program.num_commands()
    };
    let small = Bench::cholesky_small();
    let large = Bench::Cholesky { n: 32 };
    let lanes = small.lanes();
    for (cfg, want) in [
        (BuildCfg::revel(lanes), 127),
        (BuildCfg::systolic_baseline(lanes), 391),
        (BuildCfg::dataflow_baseline(lanes), 128),
        (BuildCfg::ablation(AblationStep::InductiveStreams, lanes), 116),
        (BuildCfg::ablation(AblationStep::Hybrid, lanes), 127),
    ] {
        assert_eq!(steps(small.workload(), cfg), want, "n=12 {cfg:?}");
    }
    assert_eq!(steps(large.workload(), BuildCfg::revel(large.lanes())), 347);
    assert_eq!(steps(small.batch_workload(), BuildCfg::revel(8)), 128);
    assert_eq!(steps(large.batch_workload(), BuildCfg::revel(8)), 348);
}

#[test]
fn fig22_rung_two_is_modeled_for_cholesky_only() {
    // `inductive_streams` is read by the compiler's row-split lowering,
    // which only Cholesky's loop nest reaches. Every other kernel builds the
    // same program on the first two rungs, so its 1.00x in the
    // `+inductive-streams` column is an identity, not a measurement. A PR
    // that implements rung 2 for another kernel flips this test on purpose.
    use revel_core::compiler::{AblationStep, BuildCfg};
    for b in Bench::suite_small() {
        let [base, ind] = [AblationStep::Systolic, AblationStep::InductiveStreams]
            .map(|step| BuildCfg::ablation(step, b.lanes()));
        let id = |cfg| revel_prog::structural_id(&b.workload().build(cfg).program);
        if b.name() == "cholesky" {
            assert_ne!(id(&base), id(&ind), "cholesky's rung 2 is a different program");
            let (slow, fast) = (b.run(&base).unwrap().cycles, b.run(&ind).unwrap().cycles);
            assert!(fast < slow, "+inductive-streams {fast} vs systolic {slow}");
        } else {
            assert_eq!(id(&base), id(&ind), "{}: rung 2 builds the rung-1 program", b.name());
        }
    }
}
