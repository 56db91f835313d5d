//! What a workload process hands back, and the result file a set of runs
//! is kept in.

use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::stats;
use revel_serve::json::{self, Value};
use std::collections::BTreeMap;

/// Raw samples of one workload process. The parent turns them into
/// metrics, so cold passes from several processes pool naturally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChildReport {
    /// Seconds from process start to the first timed operation.
    pub setup_s: f64,
    /// Operations attempted, correctness checks included.
    pub attempted: u64,
    /// Of those, how many failed, were refused, or failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// `VmHWM` at exit, MB.
    pub peak_rss_mb: f64,
    /// Duration of each timed pass (or window), seconds.
    pub pass_s: Vec<f64>,
    /// Latency of each timed call, ms, in call order.
    pub latency_ms: Vec<f64>,
    /// Calls per pass when every pass makes the same calls in the same
    /// order (the single-threaded workloads); 0 when calls are not
    /// repetitions of one another (the `serve_*` workloads).
    pub calls_per_pass: u64,
    /// Operations one pass completes (all client threads together).
    pub ops_per_pass: f64,
    /// Modeled cycles one pass retires.
    pub cycles_per_pass: f64,
    /// Σ modeled cycles over the workload's distinct cells.
    pub modeled_cycles_total: u64,
    /// Per-layer metrics and counter deltas.
    pub layers: BTreeMap<String, f64>,
}

/// Failure messages kept per report; the count is always exact.
const MAX_FAILURE_MESSAGES: usize = 8;

impl ChildReport {
    /// Counts one attempted operation and, on `Err`, one failure.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            if self.failures.len() < MAX_FAILURE_MESSAGES {
                self.failures.push(message);
            }
        }
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.0 == name), "undeclared layer metric {name}");
        self.layers.insert(name.to_string(), value);
    }

    /// One line of JSON, the child's whole standard output.
    pub fn render(&self) -> String {
        let nums = |v: &[f64]| Value::Arr(v.iter().map(|x| Value::Num(*x)).collect());
        Value::Obj(vec![
            ("setup_s".into(), Value::Num(self.setup_s)),
            ("attempted".into(), Value::u64(self.attempted)),
            ("failed".into(), Value::u64(self.failed)),
            ("failures".into(), Value::Arr(self.failures.iter().map(Value::str).collect())),
            ("peak_rss_mb".into(), Value::Num(self.peak_rss_mb)),
            ("pass_s".into(), nums(&self.pass_s)),
            ("latency_ms".into(), nums(&self.latency_ms)),
            ("calls_per_pass".into(), Value::u64(self.calls_per_pass)),
            ("ops_per_pass".into(), Value::Num(self.ops_per_pass)),
            ("cycles_per_pass".into(), Value::Num(self.cycles_per_pass)),
            ("modeled_cycles_total".into(), Value::u64(self.modeled_cycles_total)),
            (
                "layers".into(),
                Value::Obj(self.layers.iter().map(|(k, v)| (k.clone(), Value::Num(*v))).collect()),
            ),
        ])
        .render()
    }

    /// Parses [`ChildReport::render`]'s output.
    pub fn parse(line: &str) -> Result<ChildReport, String> {
        let doc = json::parse(line).map_err(|e| e.to_string())?;
        let num = |key: &str| {
            doc.get(key).and_then(Value::as_f64).ok_or_else(|| format!("child report lacks {key}"))
        };
        let nums = |key: &str| -> Result<Vec<f64>, String> {
            let arr = doc.get(key).and_then(Value::as_arr).ok_or(format!("no array {key}"))?;
            arr.iter().map(|v| v.as_f64().ok_or(format!("non-number in {key}"))).collect()
        };
        let failures = doc.get("failures").and_then(Value::as_arr).unwrap_or(&[]);
        let layers = match doc.get("layers") {
            Some(Value::Obj(fields)) => {
                fields.iter().filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v))).collect()
            }
            _ => BTreeMap::new(),
        };
        Ok(ChildReport {
            setup_s: num("setup_s")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            failures: failures.iter().filter_map(|f| f.as_str().map(String::from)).collect(),
            peak_rss_mb: num("peak_rss_mb")?,
            pass_s: nums("pass_s")?,
            latency_ms: nums("latency_ms")?,
            calls_per_pass: num("calls_per_pass")? as u64,
            ops_per_pass: num("ops_per_pass")?,
            cycles_per_pass: num("cycles_per_pass")?,
            modeled_cycles_total: num("modeled_cycles_total")? as u64,
            layers,
        })
    }
}

/// One workload's outcome in a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Every output check passed and nothing failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Timed passes (or windows) behind the throughput figures.
    pub passes: usize,
    /// Timed calls behind the latency figures.
    pub latencies: usize,
    /// The percentile `latency_tail_ms` was read at.
    pub tail_percentile: f64,
    /// `(name, value, unit)`, in declaration order.
    pub metrics: Vec<(String, f64, String)>,
}

impl WorkloadResult {
    /// Folds the untraced children of one workload into the end-to-end
    /// metrics: set-up is the median over processes, passes and latencies
    /// pool, memory is the maximum.
    ///
    /// Where every pass repeats the same deterministic calls, a call's
    /// latency is its fastest repeat ([`stats::fastest`] says why), the
    /// percentiles run over the distinct calls, and a pass's time is the sum
    /// of those latencies: the pass as it runs with the machine to itself.
    /// Requests to the server are not repetitions — queueing is part of
    /// what they measure — so there every request counts and the pass time
    /// is the median pass's.
    pub fn end_to_end(reports: &[ChildReport]) -> WorkloadResult {
        let pool = |f: fn(&ChildReport) -> &Vec<f64>| -> Vec<f64> {
            reports.iter().flat_map(|r| f(r).iter().copied()).collect()
        };
        let setups: Vec<f64> = reports.iter().map(|r| r.setup_s).collect();
        let passes = pool(|r| &r.pass_s);
        // Set-up-only processes report no passes; the measuring ones agree
        // on the work a pass does.
        let measured = reports.iter().find(|r| !r.pass_s.is_empty()).unwrap_or(&reports[0]);
        let mut latencies = pool(|r| &r.latency_ms);
        let calls = measured.calls_per_pass as usize;
        if calls > 0 {
            latencies = (0..calls)
                .map(|c| {
                    let repeats: Vec<f64> =
                        latencies.iter().skip(c).step_by(calls).copied().collect();
                    stats::fastest(&repeats)
                })
                .collect();
        }
        let pass_s =
            if calls > 0 { latencies.iter().sum::<f64>() / 1e3 } else { stats::median(&passes) };
        let mid_ms = stats::midmean(&latencies);
        // Too few calls for a tail: it reads as the centre, percentile 50.
        let (tail_percentile, tail_ms) = stats::tail(&latencies).unwrap_or((50.0, mid_ms));
        let values = [
            stats::median(&setups),
            stats::per_second(measured.ops_per_pass, pass_s),
            stats::per_second(measured.cycles_per_pass, pass_s),
            mid_ms,
            tail_ms,
            measured.modeled_cycles_total as f64,
            reports.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max),
        ];
        let attempted = reports.iter().map(|r| r.attempted).sum();
        let failed = reports.iter().map(|r| r.failed).sum();
        WorkloadResult {
            correct: failed == 0,
            attempted,
            failed,
            passes: passes.len(),
            latencies: latencies.len(),
            tail_percentile,
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|((name, unit), v)| (name.to_string(), v, unit.to_string()))
                .collect(),
        }
    }

    /// The per-layer metrics of a traced run: every declared name, 0 for
    /// a layer the workload never entered.
    pub fn per_layer(reports: &[ChildReport]) -> WorkloadResult {
        let mut merged = BTreeMap::new();
        for r in reports {
            merged.extend(r.layers.iter().map(|(k, v)| (k.as_str(), *v)));
        }
        let attempted = reports.iter().map(|r| r.attempted).sum();
        let failed = reports.iter().map(|r| r.failed).sum();
        WorkloadResult {
            correct: failed == 0,
            attempted,
            failed,
            passes: reports.iter().map(|r| r.pass_s.len()).sum(),
            latencies: reports.iter().map(|r| r.latency_ms.len()).sum(),
            tail_percentile: 0.0,
            metrics: PER_LAYER
                .iter()
                .map(|(name, unit, _)| {
                    let v = merged.get(name).copied().unwrap_or(0.0);
                    (name.to_string(), v, unit.to_string())
                })
                .collect(),
        }
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    fn metrics_value(&self) -> Value {
        Value::Obj(
            self.metrics
                .iter()
                .map(|(name, v, unit)| {
                    let fields =
                        vec![("value".into(), Value::Num(*v)), ("unit".into(), Value::str(unit))];
                    (name.clone(), Value::Obj(fields))
                })
                .collect(),
        )
    }

    /// The one-line result the pipeline reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::u64(self.attempted)),
            ("failed".into(), Value::u64(self.failed)),
            ("metrics".into(), self.metrics_value()),
        ])
        .render()
    }

    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::u64(self.attempted)),
            ("failed".into(), Value::u64(self.failed)),
            ("passes".into(), Value::u64(self.passes as u64)),
            ("latencies".into(), Value::u64(self.latencies as u64)),
            ("tail_percentile".into(), Value::Num(self.tail_percentile)),
            ("metrics".into(), self.metrics_value()),
        ])
    }

    fn from_value(v: &Value) -> Result<WorkloadResult, String> {
        let count = |key: &str| v.get(key).and_then(Value::as_u64).ok_or(format!("no {key}"));
        let Some(Value::Obj(metrics)) = v.get("metrics") else {
            return Err("no metrics".into());
        };
        Ok(WorkloadResult {
            correct: v.get("correct").and_then(Value::as_bool).ok_or("no correct")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            passes: count("passes")? as usize,
            latencies: count("latencies")? as usize,
            tail_percentile: v.get("tail_percentile").and_then(Value::as_f64).unwrap_or(0.0),
            metrics: metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Value::as_f64).ok_or("metric value")?;
                    let unit = m.get("unit").and_then(Value::as_str).ok_or("metric unit")?;
                    Ok((name.clone(), value, unit.to_string()))
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

/// One set of runs: where and how it was measured, and each workload's
/// result.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSet {
    /// `HEAD` of the checkout, or `unknown` outside a git repository.
    pub commit: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Cores available to the process.
    pub nproc: u64,
    /// The workload seed.
    pub seed: u64,
    /// The timed window, seconds.
    pub seconds: f64,
    /// Whether this was the traced (per-layer) run.
    pub trace: bool,
    /// The 1-minute load average when the set started.
    pub load_avg_1m: f64,
    /// Results by workload name, in run order.
    pub workloads: Vec<(String, WorkloadResult)>,
}

impl RunSet {
    /// Captures the environment of a set that is about to run.
    pub fn begin(seed: u64, seconds: f64, trace: bool) -> RunSet {
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let load_avg_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
            .unwrap_or(0.0);
        RunSet {
            commit: head_commit().unwrap_or_else(|| "unknown".into()),
            rustc,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            seed,
            seconds,
            trace,
            load_avg_1m,
            workloads: Vec::new(),
        }
    }

    /// The result of `workload`, if this set ran it.
    pub fn workload(&self, workload: Workload) -> Option<&WorkloadResult> {
        self.workloads.iter().find(|(name, _)| name == workload.name()).map(|(_, r)| r)
    }

    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("commit".into(), Value::str(&self.commit)),
            ("rustc".into(), Value::str(&self.rustc)),
            ("nproc".into(), Value::u64(self.nproc)),
            ("seed".into(), Value::u64(self.seed)),
            ("seconds".into(), Value::Num(self.seconds)),
            ("trace".into(), Value::Bool(self.trace)),
            ("load_avg_1m".into(), Value::Num(self.load_avg_1m)),
            (
                "workloads".into(),
                Value::Obj(self.workloads.iter().map(|(n, r)| (n.clone(), r.to_value())).collect()),
            ),
        ])
    }

    fn from_value(v: &Value) -> Result<RunSet, String> {
        let text = |key: &str| v.get(key).and_then(Value::as_str).ok_or(format!("no {key}"));
        let count = |key: &str| v.get(key).and_then(Value::as_u64).ok_or(format!("no {key}"));
        let Some(Value::Obj(workloads)) = v.get("workloads") else {
            return Err("no workloads".into());
        };
        Ok(RunSet {
            commit: text("commit")?.to_string(),
            rustc: text("rustc")?.to_string(),
            nproc: count("nproc")?,
            seed: count("seed")?,
            seconds: v.get("seconds").and_then(Value::as_f64).ok_or("no seconds")?,
            trace: v.get("trace").and_then(Value::as_bool).ok_or("no trace")?,
            load_avg_1m: v.get("load_avg_1m").and_then(Value::as_f64).ok_or("no load_avg_1m")?,
            workloads: workloads
                .iter()
                .map(|(n, r)| Ok((n.clone(), WorkloadResult::from_value(r)?)))
                .collect::<Result<_, String>>()?,
        })
    }
}

/// Renders a result file: `{"runs": [...]}`, one set per line.
pub fn render_file(sets: &[RunSet]) -> String {
    let runs: Vec<String> = sets.iter().map(|s| s.to_value().render()).collect();
    format!("{{\"runs\":[\n{}\n]}}\n", runs.join(",\n"))
}

/// Parses a result file.
pub fn parse_file(text: &str) -> Result<Vec<RunSet>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let runs = doc.get("runs").and_then(Value::as_arr).ok_or("result file has no runs array")?;
    runs.iter().map(RunSet::from_value).collect()
}

/// `HEAD` read from the files of `.git`, without running git: the
/// benchmark may not read outside its checkout, and git would search the
/// parent directories.
fn head_commit() -> Option<String> {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).parent()?.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|hash| hash.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ChildReport {
        let mut r = ChildReport {
            setup_s: 0.25,
            peak_rss_mb: 12.5,
            pass_s: vec![1.0, 2.0, 4.0],
            latency_ms: (1..=200).map(f64::from).collect(),
            calls_per_pass: 0,
            ops_per_pass: 42.0,
            cycles_per_pass: 1_000_000.0,
            modeled_cycles_total: 1_000_000,
            ..Default::default()
        };
        r.check(Ok(()));
        r.check(Err("svd n=12 [revel]: reply differs".into()));
        r.layer("sim.cycles", 1e6);
        r
    }

    #[test]
    fn child_report_round_trips() {
        let r = sample_report();
        assert_eq!(ChildReport::parse(&r.render()), Ok(r));
    }

    #[test]
    fn end_to_end_pools_passes_and_takes_the_median_setup() {
        let setup_only = ChildReport { setup_s: 0.75, peak_rss_mb: 20.0, ..Default::default() };
        let also = ChildReport { setup_s: 0.5, ..Default::default() };
        let result = WorkloadResult::end_to_end(&[sample_report(), setup_only, also]);
        assert_eq!(result.metric("setup_s"), Some(0.5));
        assert_eq!(result.metric("ops_per_s"), Some(21.0), "42 requests ÷ the 2 s median pass");
        assert_eq!(result.metric("sim_cycles_per_host_s"), Some(500_000.0));
        assert_eq!(result.metric("latency_mid_ms"), Some(100.5));
        assert_eq!(result.metric("latency_tail_ms"), Some(190.0));
        assert_eq!(result.tail_percentile, 95.0);
        assert_eq!(result.metric("peak_rss_mb"), Some(20.0));
        assert_eq!((result.attempted, result.failed, result.correct), (2, 1, false));
        assert_eq!(result.metrics.len(), END_TO_END.len());
    }

    #[test]
    fn repeated_calls_fold_to_their_quiet_time_before_the_percentiles() {
        // Three passes over two calls; the second pass ran beside a noisy
        // neighbour. Each call's latency is its fastest repeat.
        let r = ChildReport {
            pass_s: vec![0.011, 0.033, 0.0115],
            latency_ms: vec![1.0, 10.0, 3.0, 30.0, 1.5, 10.0],
            calls_per_pass: 2,
            ops_per_pass: 2.0,
            ..Default::default()
        };
        let result = WorkloadResult::end_to_end(&[r]);
        assert_eq!(result.latencies, 2);
        assert_eq!(result.metric("latency_mid_ms"), Some(5.5), "the quiet 1 and 10");
        assert_eq!(result.metric("ops_per_s"), Some(2.0 / 0.011), "a pass of the quiet calls");
    }

    #[test]
    fn per_layer_reports_every_declared_metric() {
        let result = WorkloadResult::per_layer(&[sample_report()]);
        assert_eq!(result.metrics.len(), PER_LAYER.len());
        assert_eq!(result.metric("sim.cycles"), Some(1e6));
        assert_eq!(result.metric("serve.server.errors"), Some(0.0));
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = WorkloadResult::end_to_end(&[sample_report()]).contract_line();
        let Value::Obj(fields) = json::parse(&line).expect("JSON") else { panic!("object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(!line.contains('\n'));
    }

    #[test]
    fn result_file_round_trips() {
        let mut set = RunSet::begin(7, 10.0, false);
        set.workloads.push(("grid_cold".into(), WorkloadResult::end_to_end(&[sample_report()])));
        set.workloads.push(("sim_steady".into(), WorkloadResult::per_layer(&[sample_report()])));
        let sets = vec![set.clone(), RunSet { seed: 8, ..set }];
        assert_eq!(parse_file(&render_file(&sets)), Ok(sets));
        assert!(parse_file("{}").is_err());
    }
}
