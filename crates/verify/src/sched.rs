//! Post-schedule legality: each configuration is placed and routed with
//! the same spatial compiler the simulator uses, then the result is
//! checked for route conflicts (V011) and mapping failures (V014).

use crate::context::Context;
use crate::diag::{Code, Diagnostic, Location};
use crate::Lint;
use revel_scheduler::SpatialScheduler;

/// V011 + V014: places and routes every configuration.
///
/// This is the expensive lint (simulated-annealing placement per
/// configuration), so the pre-simulation gate skips it — `Machine::run`
/// performs the same spatial compile anyway and surfaces failures as
/// `SimError::Schedule`. The CLI and the suite tests run it, at the
/// simulator's own effort ([`SpatialScheduler::for_lane`]).
pub struct ScheduleLegality;

impl Lint for ScheduleLegality {
    fn name(&self) -> &'static str {
        "schedule-legality"
    }

    fn codes(&self) -> &'static [Code] {
        &[Code::V011, Code::V014]
    }

    fn check(&self, ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
        let scheduler = SpatialScheduler::for_lane(&ctx.cfg.lane);
        for (c, regions) in ctx.program.configs.iter().enumerate() {
            match scheduler.schedule(regions) {
                Ok(sched) => {
                    let sharing = sched.route_stats.max_link_sharing;
                    if sharing > 1 {
                        out.push(Diagnostic::new(
                            Code::V011,
                            Location::config(c),
                            format!(
                                "after negotiated routing, {sharing} systolic dependences \
                                 still share one mesh link; the II=1 static timing of the \
                                 placed regions cannot be honored"
                            ),
                        ));
                    }
                }
                Err(e) => {
                    out.push(Diagnostic::new(
                        Code::V014,
                        Location::config(c),
                        format!("configuration does not map onto the lane fabric: {e}"),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::test_util::*;
    use crate::{run_lint, Code};
    use revel_dfg::{Dfg, OpCode, Region};
    use revel_isa::{InPortId, OutPortId};
    use revel_prog::RevelProgram;

    #[test]
    fn unmappable_config_is_v014() {
        // More divide instructions than the lane's div/sqrt PEs.
        let mut g = Dfg::new("divs");
        let a = g.input(InPortId(0));
        let b = g.input(InPortId(1));
        let mut v = a;
        for _ in 0..6 {
            v = g.op(OpCode::Div, &[v, b]);
        }
        g.output(v, OutPortId(6));
        let mut p = RevelProgram::new("v014");
        p.add_config(vec![Region::systolic("divs", g, 1)]);
        let diags = run_lint(&super::ScheduleLegality, &p, &single_lane());
        assert_eq!(codes(&diags), vec![Code::V014]);
    }

    #[test]
    fn unavoidable_link_sharing_is_v011() {
        // On a 2x2 all-adder mesh every tile has exactly two links, so a
        // producer fanning out to three consumers must share one.
        use revel_fabric::{FuMix, LaneConfig, RevelConfig};
        let lane = LaneConfig {
            mesh_width: 2,
            mesh_height: 2,
            fu_mix: FuMix { adders: 4, multipliers: 0, div_sqrt: 0 },
            num_dataflow_pes: 0,
            ..LaneConfig::paper_default()
        };
        let cfg = RevelConfig { num_lanes: 1, lane, ..RevelConfig::paper_default() };
        let mut g = Dfg::new("fanout");
        let x = g.input(InPortId(0));
        let p = g.op(OpCode::Add, &[x, x]);
        let c1 = g.op(OpCode::Add, &[p, p]);
        let c2 = g.op(OpCode::Add, &[p, p]);
        let c3 = g.op(OpCode::Add, &[p, p]);
        g.output(c1, OutPortId(6));
        g.output(c2, OutPortId(7));
        g.output(c3, OutPortId(8));
        let mut prog = RevelProgram::new("v011");
        prog.add_config(vec![Region::systolic("fanout", g, 1)]);
        let diags = run_lint(&super::ScheduleLegality, &prog, &cfg);
        assert_eq!(codes(&diags), vec![Code::V011], "{diags:?}");
    }

    #[test]
    fn schedulable_config_is_clean() {
        let mut p = neg_program(&[0], 6);
        push1(&mut p, load_priv(0, 4, 0));
        push1(&mut p, store_priv(6, 8, 4));
        let diags = run_lint(&super::ScheduleLegality, &p, &single_lane());
        assert!(diags.is_empty(), "{diags:?}");
    }
}
