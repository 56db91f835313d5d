//! The shared evaluation grid: every (workload × architecture) cell the
//! grid oracle checks and served load replays.
//!
//! Both consumers need the *same* cell list — the `grid_oracle` gate so
//! its coverage claim is explicit, and the scenario runner
//! (`{"grid": true}` mix entries) so served load exercises exactly the
//! cells whose results the oracle pins. Keeping one constructor here means
//! the two can never drift.

use revel_core::compiler::{AblationStep, BuildCfg};
use revel_core::Bench;

/// One grid cell: a workload under a build configuration, with the
/// architecture label used in figure rows and wire requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    /// The benchmark.
    pub bench: Bench,
    /// The build configuration.
    pub cfg: BuildCfg,
    /// Architecture/ablation label (`"revel"`, `"systolic"`, ...).
    pub arch: &'static str,
}

/// The evaluation grid: small suite × (three architectures + the Fig. 22
/// ablation ladder), deduplicated by `(bench, cfg)` — two ladder steps
/// coincide with the revel and systolic builds — plus the large suite on
/// revel (the long stall-heavy cells where event-horizon skipping matters
/// most).
pub fn evaluation_grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut push = |cell: Cell, seen: &mut std::collections::HashSet<(Bench, BuildCfg)>| {
        if seen.insert((cell.bench, cell.cfg)) {
            cells.push(cell);
        }
    };
    for b in Bench::suite_small() {
        push(Cell { bench: b, cfg: BuildCfg::revel(b.lanes()), arch: "revel" }, &mut seen);
        push(
            Cell { bench: b, cfg: BuildCfg::systolic_baseline(b.lanes()), arch: "systolic" },
            &mut seen,
        );
        push(
            Cell { bench: b, cfg: BuildCfg::dataflow_baseline(b.lanes()), arch: "dataflow" },
            &mut seen,
        );
        for step in AblationStep::LADDER {
            push(
                Cell { bench: b, cfg: BuildCfg::ablation(step, b.lanes()), arch: step.label() },
                &mut seen,
            );
        }
    }
    for b in Bench::suite_large() {
        push(Cell { bench: b, cfg: BuildCfg::revel(b.lanes()), arch: "revel" }, &mut seen);
    }
    cells
}

/// Looks up a suite benchmark by its wire identity — `name` as printed by
/// [`Bench::name`] and `params` as printed by [`Bench::params`] (e.g.
/// `("qr", "n=12")`). `None` for anything outside the two Table V suites.
pub fn find_bench(name: &str, params: &str) -> Option<Bench> {
    Bench::suite_small()
        .into_iter()
        .chain(Bench::suite_large())
        .find(|b| b.name() == name && b.params() == params)
}

/// Resolves a wire-format `(bench, params, arch)` triple to a simulatable
/// cell. `arch` accepts the three architecture labels plus every Fig. 22
/// ablation-ladder label.
pub fn resolve(name: &str, params: &str, arch: &str) -> Option<(Bench, BuildCfg)> {
    let b = find_bench(name, params)?;
    let cfg = match arch {
        "revel" => BuildCfg::revel(b.lanes()),
        "systolic" => BuildCfg::systolic_baseline(b.lanes()),
        "dataflow" => BuildCfg::dataflow_baseline(b.lanes()),
        other => {
            let step = AblationStep::LADDER.into_iter().find(|s| s.label() == other)?;
            BuildCfg::ablation(step, b.lanes())
        }
    };
    Some((b, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_both_suites_without_duplicates() {
        let cells = evaluation_grid();
        let mut seen = std::collections::HashSet::new();
        for c in &cells {
            assert!(seen.insert((c.bench, c.cfg)), "duplicate cell {c:?}");
        }
        // 7 small benches × (3 archs + 4 ladder steps − 2 coincide) + 7 large.
        assert_eq!(cells.len(), 7 * 5 + 7, "the 42-cell evaluation grid");
    }

    #[test]
    fn every_grid_cell_resolves_from_its_wire_identity() {
        for c in evaluation_grid() {
            let (b, cfg) = resolve(c.bench.name(), &c.bench.params(), c.arch)
                .unwrap_or_else(|| panic!("cell must resolve: {c:?}"));
            assert_eq!(b, c.bench);
            assert_eq!(cfg, c.cfg, "{} {} [{}]", c.bench.name(), c.bench.params(), c.arch);
        }
    }

    #[test]
    fn unknown_identities_do_not_resolve() {
        assert_eq!(find_bench("qr", "n=999"), None);
        assert_eq!(find_bench("nonsense", "n=12"), None);
        assert!(resolve("qr", "n=12", "quantum").is_none());
        assert!(resolve("qr", "n=12", "revel").is_some());
    }
}
