//! Spans recorded from outside the system: the benchmark wraps each call
//! into a layer's public function, keeps the spans in memory, and writes
//! them out when the workload ends. Nothing inside the program under test
//! is instrumented.

use revel_serve::json::Value;
use std::time::Instant;

/// One timed call. Spans of one cell or request share `op`; `parent` is
/// the index (in the written file) of the span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `program_lints`.
    pub name: &'static str,
    /// The repository module the callee belongs to, e.g. `verify`.
    pub layer: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The cell, call or request this span belongs to.
    pub op: u64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A per-thread span recorder. A disabled tracer records nothing and
/// costs one branch per call, so the untraced and traced runs share code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose span times count from `epoch`. Threads of one
    /// workload share the epoch so their spans line up in one file.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer { enabled, epoch, spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    /// Returns `f`'s result and the span's duration in seconds (measured
    /// whether or not the tracer is enabled, so callers time with it).
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let parent = self.open.last().copied();
            self.spans.push(Span { name, layer, start_ns: 0, end_ns: 0, parent, op });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let result = f(self);
        let end = Instant::now();
        if let Some(i) = index {
            self.open.pop();
            self.spans[i].start_ns = (start - self.epoch).as_nanos() as u64;
            self.spans[i].end_ns = (end - self.epoch).as_nanos() as u64;
        }
        (result, (end - start).as_secs_f64())
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per layer, in seconds: each span's duration minus the part
/// its children cover, summed by the span's layer. Sorted by layer name.
pub fn self_seconds_by_layer(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut by_layer = std::collections::BTreeMap::<&'static str, f64>::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(children);
        *by_layer.entry(s.layer).or_default() += own as f64 / 1e9;
    }
    by_layer.into_iter().collect()
}

/// The span file: every span plus the counter deltas of the traced window.
pub fn render_file(
    workload: &str,
    seed: u64,
    spans: &[Span],
    counters: &[(String, f64)],
) -> String {
    let span_values = spans
        .iter()
        .map(|s| {
            Value::Obj(vec![
                ("name".into(), Value::str(s.name)),
                ("layer".into(), Value::str(s.layer)),
                ("start_ns".into(), Value::u64(s.start_ns)),
                ("end_ns".into(), Value::u64(s.end_ns)),
                ("parent".into(), s.parent.map_or(Value::Null, |p| Value::u64(p as u64))),
                ("op".into(), Value::u64(s.op)),
            ])
        })
        .collect();
    let self_times = self_seconds_by_layer(spans)
        .into_iter()
        .map(|(layer, s)| (layer.to_string(), Value::Num(s)))
        .collect();
    let counters = counters.iter().map(|(k, v)| (k.clone(), Value::Num(*v))).collect();
    Value::Obj(vec![
        ("workload".into(), Value::str(workload)),
        ("seed".into(), Value::u64(seed)),
        ("self_seconds_by_layer".into(), Value::Obj(self_times)),
        ("counters".into(), Value::Obj(counters)),
        ("spans".into(), Value::Arr(span_values)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("bench", "cell", 7, |t| {
            t.span("verify", "lints", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("sim", "run", 7, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        let by_layer = self_seconds_by_layer(spans);
        let total: f64 = by_layer.iter().map(|(_, s)| s).sum();
        assert!((total - spans[0].seconds()).abs() < 1e-9, "self times partition the root span");
        let verify = by_layer.iter().find(|(l, _)| *l == "verify").expect("verify layer").1;
        assert!(verify >= 0.002);
    }

    #[test]
    fn a_disabled_tracer_still_times_but_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let (value, seconds) = t.span("sim", "run", 0, |_| 41 + 1);
        assert_eq!(value, 42);
        assert!(seconds >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorbed_spans_keep_their_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.span("x", "a", 0, |_| ());
        let mut b = Tracer::new(true, epoch);
        b.span("x", "outer", 1, |t| t.span("y", "inner", 1, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let file = render_file("w", 3, a.spans(), &[("core.engine.hits".into(), 2.0)]);
        let doc = revel_serve::json::parse(&file).expect("span file is JSON");
        assert_eq!(doc.get("spans").and_then(Value::as_arr).map(<[Value]>::len), Some(3));
        assert_eq!(doc.get("seed").and_then(Value::as_u64), Some(3));
    }
}
