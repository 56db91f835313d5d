//! A tiny wall-clock micro-benchmark harness.
//!
//! The workspace builds with no external crates, so Criterion is
//! unavailable; this provides a small slice of it for ad-hoc timing:
//! adaptive iteration counts, a warm-up pass, and a median-of-samples
//! report. Statistical rigor is deliberately modest. Numbers meant to be
//! compared across commits belong in `benchmark/`, which bounds them.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall-clock spent measuring each benchmark.
const MEASURE_BUDGET: Duration = Duration::from_millis(250);
/// Number of timed samples the budget is split into.
const SAMPLES: usize = 10;

/// Times `f`, printing `group/name: <median> per iter (<iters> iters)`.
///
/// The closure's return value is passed through [`black_box`] so the
/// compiler cannot delete the benchmarked work.
pub fn bench<R>(group: &str, name: &str, f: impl FnMut() -> R) {
    let (median, iters) = bench_timed(f);
    println!("{group}/{name}: {} per iter ({iters} iters x {SAMPLES} samples)", fmt(median));
}

/// Times `f` and returns `(median per-iteration wall-clock, iterations per
/// sample)` without printing — for benches that post-process the timing
/// (speedup ratios, throughput rates) instead of just reporting it.
pub fn bench_timed<R>(mut f: impl FnMut() -> R) -> (Duration, u64) {
    // Warm-up & calibration: run until we have a per-iteration estimate.
    let mut calib_iters: u64 = 1;
    let per_iter = loop {
        let t0 = Instant::now();
        for _ in 0..calib_iters {
            black_box(f());
        }
        let dt = t0.elapsed();
        if dt >= Duration::from_millis(10) || calib_iters >= 1 << 24 {
            break dt / calib_iters.max(1) as u32;
        }
        calib_iters *= 4;
    };

    let per_sample = (MEASURE_BUDGET / SAMPLES as u32).as_nanos();
    let iters = (per_sample / per_iter.as_nanos().max(1)).clamp(1, 1 << 24) as u64;

    let mut samples: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed() / iters as u32
        })
        .collect();
    samples.sort();
    (samples[SAMPLES / 2], iters)
}

/// Formats a duration with an adaptive unit (`ns`/`us`/`ms`/`s`).
pub fn fmt(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        // Smoke test: must terminate quickly and not panic.
        bench("harness", "noop-sum", || (0..100u64).sum::<u64>());
    }

    #[test]
    fn bench_timed_returns_positive_median() {
        // The per-element black_box keeps -O from const-folding the sum
        // into a sub-nanosecond constant, which would round the per-iter
        // median down to Duration::ZERO.
        let (median, iters) = bench_timed(|| {
            let mut acc = 0u64;
            for i in 0..black_box(4096u64) {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        assert!(iters >= 1);
        assert!(median > Duration::ZERO);
    }
}
