//! Shape of the built kernel programs: REVEL builds need no host
//! fallbacks, and inductive streams compress the control stream.

use revel_core::compiler::BuildCfg;
use revel_core::sim::ControlStep;
use revel_core::Bench;

#[test]
fn revel_programs_have_no_host_fallbacks() {
    // The hybrid fabric runs everything; host steps only exist on the
    // systolic baseline.
    for b in Bench::suite_small() {
        let built = b.workload().build(&BuildCfg::revel(b.lanes()));
        let hosts =
            built.program.control.iter().filter(|s| matches!(s, ControlStep::Host(_))).count();
        assert_eq!(hosts, 0, "{} uses the host in a REVEL build", b.name());
    }
}

#[test]
fn command_counts_show_control_amortization() {
    // Inductive streams compress the control stream: the systolic
    // baseline's program has far more commands than REVEL's.
    let b = Bench::Cholesky { n: 24 };
    let revel = b.workload().build(&BuildCfg::revel(1)).program.num_commands();
    let baseline = b.workload().build(&BuildCfg::systolic_baseline(1)).program.num_commands();
    assert!(baseline as f64 > 2.0 * revel as f64, "baseline {baseline} vs revel {revel} commands");
}
