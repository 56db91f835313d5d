//! What the benchmark declares: the six workloads and every metric name
//! with its unit. `BENCHMARK.json` at the repository root repeats the
//! names (and adds direction and regression bound for the end-to-end
//! ones); a test below keeps the two in step.

/// One of the six workloads. Each isolates a different set of layers; the
/// README says which and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The evaluation grid (41 of its 42 cells), once per fresh process.
    GridCold,
    /// The seven large cells re-simulated with warm caches.
    SimSteady,
    /// 64 datasets per small cell through the trace replayer.
    BatchReplay,
    /// Closed-loop requests for resident cells.
    ServeHot,
    /// Open-loop Poisson arrivals at a fixed low rate.
    ServePaced,
    /// Closed-loop requests against an LRU too small to ever hit.
    ServeChurn,
}

impl Workload {
    /// Every workload, in the order a full set runs them.
    pub const ALL: [Workload; 6] = [
        Workload::GridCold,
        Workload::SimSteady,
        Workload::BatchReplay,
        Workload::ServeHot,
        Workload::ServePaced,
        Workload::ServeChurn,
    ];

    /// The name used on the command line and in result files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridCold => "grid_cold",
            Workload::SimSteady => "sim_steady",
            Workload::BatchReplay => "batch_replay",
            Workload::ServeHot => "serve_hot",
            Workload::ServePaced => "serve_paced",
            Workload::ServeChurn => "serve_churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one operation is: the thing `ops_per_s` counts. `latency_*`
    /// times one *call* — the same thing except on `batch_replay`, where a
    /// call replays 64 datasets.
    pub fn op(self) -> &'static str {
        match self {
            Workload::GridCold => "cell evaluated cold",
            Workload::SimSteady => "cell re-simulated",
            Workload::BatchReplay => "dataset replayed",
            Workload::ServeHot | Workload::ServePaced | Workload::ServeChurn => "request",
        }
    }
}

/// An end-to-end metric: `(name, unit)`. Measured with tracing off, on
/// every workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("sim_cycles_per_host_s", "cycles/s"),
    ("latency_mid_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("modeled_cycles_total", "cycles"),
    ("peak_rss_mb", "MB"),
];

/// A per-layer metric: `(name, unit, exact)`. `exact` marks counts that
/// must repeat bit-for-bit for one seed. Taken in a traced run; a layer a
/// workload never enters reports 0.
pub const PER_LAYER: [(&str, &str, bool); 55] = [
    ("compiler.build_ms", "ms", false),
    ("compiler.builds", "count", true),
    ("compiler.build_seeded_us_per_dataset", "us", false),
    ("verify.program_lints_ms", "ms", false),
    ("verify.program_lints_max_cell_ms", "ms", false),
    ("verify.certify_ms", "ms", false),
    ("verify.error_diagnostics", "count", true),
    ("scheduler.schedule_ms", "ms", false),
    ("scheduler.configs", "count", true),
    ("sim.run_warm_ms", "ms", false),
    ("sim.run_cold_extra_ms", "ms", false),
    ("sim.cold_unattributed_ms", "ms", false),
    ("sim.host_ns_per_cycle", "ns", false),
    ("sim.host_ns_per_stepped_cycle", "ns", false),
    ("sim.cycles", "cycles", true),
    ("sim.stepped_cycles", "cycles", true),
    ("sim.skipped_share", "ratio", true),
    ("sim.machine_new_us", "us", false),
    ("sim.record_ms", "ms", false),
    ("sim.replay_us_per_dataset", "us", false),
    ("sim.replay_ns_per_trace_op", "ns", false),
    ("sim.trace_ops", "count", true),
    ("core.engine.hit_ns", "ns", false),
    ("core.engine.batched_call_overhead_us", "us", false),
    ("core.engine.hits", "count", false),
    ("core.engine.misses", "count", false),
    ("core.engine.evictions", "count", false),
    ("core.engine.trace_hits", "count", false),
    ("core.engine.batched_replays", "count", false),
    ("core.engine.deadline_fallbacks", "count", false),
    ("core.engine.hit_rate", "ratio", false),
    ("core.engine.sched_cache_hits", "count", false),
    ("core.engine.sched_cache_misses", "count", false),
    ("serve.protocol.encode_request_ns", "ns", false),
    ("serve.protocol.decode_request_ns", "ns", false),
    ("serve.protocol.encode_response_ns", "ns", false),
    ("serve.protocol.decode_response_ns", "ns", false),
    ("serve.protocol.result_frame_bytes", "bytes", true),
    ("serve.server.health_rtt_us", "us", false),
    ("serve.server.hit_rtt_us", "us", false),
    ("serve.server.worker_handoff_us", "us", false),
    ("serve.server.idle_hit_rtt_us", "us", false),
    ("serve.server.received", "count", false),
    ("serve.server.completed", "count", false),
    ("serve.server.overloaded", "count", false),
    ("serve.server.timed_out", "count", false),
    ("serve.server.errors", "count", false),
    ("load.late_send_share", "ratio", false),
    ("models.speedup_vs_dsp_geomean", "x", true),
    ("models.speedup_vs_systolic_geomean", "x", true),
    ("models.speedup_vs_dataflow_geomean", "x", true),
    ("models.pct_of_ideal_geomean", "%", true),
    ("trace.unattributed_share", "ratio", false),
    ("trace.overhead_share", "ratio", false),
    ("trace.spans", "count", false),
];

/// True when `name` fits the result-file charset: starts with a letter or
/// digit, then up to 63 more of `[A-Za-z0-9_.-]`.
#[cfg(test)]
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_fits_the_charset_and_is_unique() {
        let mut seen = std::collections::HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(Workload::ALL.iter().map(|w| w.name()));
        for name in names {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(name), "{name} declared twice");
        }
    }

    #[test]
    fn charset_rejects_what_the_result_file_cannot_carry() {
        for bad in ["", ".lead", "-lead", "has space", "slash/inside", "µs", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        assert!(valid_metric_name("serve.server.hit_rtt_us"));
        assert!(valid_metric_name("9lives-ok_1.0"));
    }

    /// `BENCHMARK.json` is what the pipeline reads and this file is what
    /// the program emits: names, units and order must agree.
    #[test]
    fn benchmark_json_declares_what_the_program_emits() {
        use revel_serve::json::{parse, Value};
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is JSON");
        let list = |key: &str| doc.get(key).and_then(Value::as_arr).expect("list").to_vec();
        let text =
            |v: &Value, key: &str| v.get(key).and_then(Value::as_str).expect("text").to_string();

        let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
        for w in list("workloads") {
            assert!(text(&w, "why").len() <= 200 && !text(&w, "why").contains('\n'));
        }

        let end_to_end = list("end_to_end");
        let declared: Vec<(String, String)> =
            end_to_end.iter().map(|m| (text(m, "name"), text(m, "unit"))).collect();
        assert_eq!(declared, END_TO_END.map(|(n, u)| (n.to_string(), u.to_string())));
        for m in &end_to_end {
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", text(m, "name"));
            assert!(["lower", "higher"].contains(&text(m, "better").as_str()));
        }
        let setup = end_to_end.iter().find(|m| text(m, "name") == "setup_s").expect("setup_s");
        assert_eq!((text(setup, "unit"), text(setup, "better")), ("s".into(), "lower".into()));

        let per_layer: Vec<(String, String)> =
            list("per_layer").iter().map(|m| (text(m, "name"), text(m, "unit"))).collect();
        assert_eq!(per_layer, PER_LAYER.map(|(n, u, _)| (n.to_string(), u.to_string())));

        let seconds = doc.get("run_seconds").and_then(Value::as_u64).expect("run_seconds");
        assert!((1..=60).contains(&seconds));
        let paths: Vec<String> =
            list("paths").iter().map(|p| p.as_str().expect("path").to_string()).collect();
        assert_eq!(paths, ["benchmark"]);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("grid"), None);
    }
}
