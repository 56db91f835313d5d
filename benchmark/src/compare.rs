//! `compare A.json B.json`: one row per (metric, workload), judged by the
//! bounds `BENCHMARK.json` fixed.

use crate::report::{self, RunSet};
use crate::spec::{Workload, PER_LAYER};
use crate::stats;
use revel_serve::json::{self, Value};
use std::path::Path;
use std::process::ExitCode;

/// Direction and bound of one end-to-end metric, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// The metric's name.
    pub name: String,
    /// True when a higher value is better.
    pub higher_is_better: bool,
    /// The share of the base's median the metric may worsen by.
    pub bound: f64,
}

/// Reads the end-to-end bounds out of a `BENCHMARK.json` document.
pub fn bounds_from(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(benchmark_json).map_err(|e| e.to_string())?;
    let metrics = doc.get("end_to_end").and_then(Value::as_arr).ok_or("no end_to_end array")?;
    metrics
        .iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(Value::as_str).ok_or(format!("no {key}"));
            Ok(Bound {
                name: text("name")?.to_string(),
                higher_is_better: text("better")? == "higher",
                bound: m.get("bound").and_then(Value::as_f64).ok_or("no bound")?,
            })
        })
        .collect()
}

/// The verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// The runs of one side differ among themselves by more than the
    /// bound, so a difference of that size cannot be told from noise.
    Unresolved,
}

/// Distance between the quartiles as a share of the median; `None` for
/// fewer than four values.
fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // The exclusive method, as Python's `statistics.quantiles(v, n=4)`.
    let quartile = |q: f64| {
        let at = q * (v.len() + 1) as f64;
        let i = (at.floor() as usize).clamp(1, v.len() - 1);
        v[i - 1] + (at - i as f64) * (v[i] - v[i - 1])
    };
    let median = stats::median(&v);
    (median != 0.0).then(|| (quartile(0.75) - quartile(0.25)) / median.abs())
}

/// Judges `new` against `base` for one metric: medians of each side's
/// runs, the change as a share of the base median in the worse direction.
pub fn judge(bound: &Bound, base: &[f64], new: &[f64]) -> (Verdict, f64) {
    let (a, b) = (stats::median(base), stats::median(new));
    let worse_by = match (bound.higher_is_better, a != 0.0) {
        (_, false) => 0.0,
        (true, true) => (a - b) / a.abs(),
        (false, true) => (b - a) / a.abs(),
    };
    let better = |x: f64, y: f64| if bound.higher_is_better { x > y } else { x < y };
    let all_better = new.iter().all(|&n| base.iter().all(|&o| better(n, o)));
    let noisy = [spread(base), spread(new)].into_iter().flatten().any(|s| s > bound.bound);
    let verdict = if all_better {
        Verdict::Ok
    } else if noisy {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

/// Every value of `metric` on `workload` across the sets of one file.
fn values(sets: &[RunSet], workload: Workload, metric: &str, trace: bool) -> Vec<f64> {
    sets.iter()
        .filter(|s| s.trace == trace)
        .filter_map(|s| s.workload(workload)?.metric(metric))
        .collect()
}

fn load(path: &Path) -> Result<Vec<RunSet>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    report::parse_file(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the comparison; fails when any pair regressed.
pub fn compare(base_path: &Path, new_path: &Path) -> ExitCode {
    let benchmark_json = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let loaded = std::fs::read_to_string(&benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))
        .and_then(|text| bounds_from(&text))
        .and_then(|bounds| Ok((bounds, load(base_path)?, load(new_path)?)));
    let (bounds, base, new) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "base: commit {}, {} set(s); new: commit {}, {} set(s)",
        base.first().map_or("?", |s| &s.commit),
        base.len(),
        new.first().map_or("?", |s| &s.commit),
        new.len()
    );
    println!(
        "{:<13} {:<36} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "base median", "new median", "new/base"
    );
    let mut regressed = 0;
    for workload in Workload::ALL {
        for bound in &bounds {
            let (a, b) = (
                values(&base, workload, &bound.name, false),
                values(&new, workload, &bound.name, false),
            );
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let (verdict, worse_by) = judge(bound, &a, &b);
            regressed += usize::from(verdict == Verdict::Regressed);
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            println!(
                "{:<13} {:<36} {ma:>16.6} {mb:>16.6} {:>9.4}  {:<10} worse by {worse_by:+.4} of base, bound {}",
                workload.name(),
                bound.name,
                mb / ma,
                format!("{verdict:?}").to_lowercase(),
                bound.bound
            );
        }
        // Counts that must repeat exactly: a host-only change leaves them
        // identical, so a difference is printed, never judged. Layers the
        // workload never enters read 0 on both sides and are left out.
        for (name, _, _) in PER_LAYER.iter().filter(|m| m.2) {
            let (a, b) = (values(&base, workload, name, true), values(&new, workload, name, true));
            if let (Some(&a), Some(&b)) = (a.first(), b.first()) {
                if a != 0.0 || b != 0.0 {
                    let same = if a == b { "identical" } else { "DIFFERS" };
                    println!(
                        "{:<13} {name:<36} {a:>16.6} {b:>16.6} {:>9}  {same}",
                        workload.name(),
                        ""
                    );
                }
            }
        }
    }
    if regressed > 0 {
        println!("{regressed} pair(s) regressed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound { name: "latency_mid_ms".into(), higher_is_better: false, bound }
    }

    fn higher(bound: f64) -> Bound {
        Bound { name: "ops_per_s".into(), higher_is_better: true, bound }
    }

    #[test]
    fn a_change_inside_the_bound_is_ok_and_one_outside_regressed() {
        assert_eq!(judge(&lower(0.10), &[100.0], &[109.0]).0, Verdict::Ok);
        assert_eq!(judge(&lower(0.10), &[100.0], &[111.0]).0, Verdict::Regressed);
        assert_eq!(judge(&higher(0.10), &[100.0], &[91.0]).0, Verdict::Ok);
        assert_eq!(judge(&higher(0.10), &[100.0], &[89.0]).0, Verdict::Regressed);
        let (verdict, worse_by) = judge(&higher(0.10), &[100.0], &[120.0]);
        assert_eq!(verdict, Verdict::Ok);
        assert!((worse_by + 0.2).abs() < 1e-12, "an improvement is a negative worsening");
    }

    #[test]
    fn noisy_sides_are_unresolved_unless_every_run_is_better() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(&lower(0.10), &noisy, &[105.0, 100.0, 95.0, 99.0]).0, Verdict::Unresolved);
        assert_eq!(judge(&lower(0.10), &noisy, &[70.0, 75.0, 72.0, 71.0]).0, Verdict::Ok);
    }

    #[test]
    fn spread_matches_the_exclusive_quartile_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v).expect("ten values") - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn bounds_are_read_from_the_checked_in_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let bounds = bounds_from(text).expect("BENCHMARK.json parses");
        let cycles = bounds.iter().find(|b| b.name == "modeled_cycles_total").expect("declared");
        assert!(!cycles.higher_is_better && cycles.bound < 1e-6);
        // One extra modeled cycle in a million must not pass as unchanged.
        assert_eq!(judge(cycles, &[1_000_000.0], &[1_000_001.0]).0, Verdict::Regressed);
        assert_eq!(judge(cycles, &[1_000_000.0], &[1_000_000.0]).0, Verdict::Ok);
    }
}
