//! The few statistics the benchmark reports: a median, the tail
//! percentile a sample can support, and the quiet time of repeated work.

/// Percentiles a tail may be read at, highest first. The ladder stops at
/// p95: on the machine that defined the benchmark, stalls of 50–250 ms hit
/// every process a few times in ten seconds, and one of them owns the p99
/// of 2000 samples (spread over ten seeds: p99 15 % closed loop and over
/// 100 % open loop, p95 5 %).
const TAIL_LADDER: [usize; 2] = [95, 90];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Sorts a copy of `samples` ascending. Samples are finite by
/// construction (durations and counts), so the order is total.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank index of percentile `p` (0 < p ≤ 100) in `n` sorted samples.
fn rank(p: usize, n: usize) -> usize {
    (p * n).div_ceil(100).clamp(1, n) - 1
}

/// The median (mean of the middle two for an even count); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The mean of the middle half of the samples (the interquartile mean); 0
/// for no samples. The centre the benchmark reports for latencies, not the
/// median: replies leave the server on its event loop's 0.5–10 ms sleep
/// grid, so latencies pile up on a few steps, and the median reads
/// whichever step holds the 50th percentile — on `serve_churn` 5.5 ms or
/// 8.0 ms, flipping when 2 % of requests cross a step (25 % between the
/// quartiles of eight runs, against 5–9 % for the middle half's mean).
pub fn midmean(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let middle = &v[v.len() / 4..v.len() - v.len() / 4];
    if middle.is_empty() {
        0.0
    } else {
        middle.iter().sum::<f64>() / middle.len() as f64
    }
}

/// The highest percentile of the ladder (p95, p90) that still has ten
/// samples beyond it, as `(percentile, value)`; `None` for a sample too
/// small for p90 — a tail read off fewer than ten samples is noise.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    let p = TAIL_LADDER.into_iter().find(|&p| n > MIN_BEYOND + rank(p, n.max(1)))?;
    Some((p as f64, v[rank(p, n)]))
}

/// The quiet time of deterministic work repeated identically: its fastest
/// sample.
///
/// Not the median. On the shared machine that defined the benchmark the
/// speed of memory-bound code moves in episodes of one to thirty seconds,
/// by up to 1.6× and only ever down (an interleaved arithmetic loop holds
/// within 6 %, so it is the neighbours' cache traffic, not the clock). Over
/// a seven-minute trace of `sim_steady` passes cut into 10 s windows, the
/// distance between the quartiles as a share of the median was 17 % for the
/// windows' median pass, 13 % for their fastest decile, 10 % for their
/// fastest pass — and the fast state is a sharp floor (±2 %) that 94 % of
/// 10 s windows and 97 % of 20 s windows touch. Deterministic work has no
/// faster-than-true sample to mislead a minimum.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// `work ÷ seconds`, 0 when no time was measured. Throughput is always
/// work per pass ÷ one pass's time, never total ÷ elapsed.
pub fn per_second(work: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        work / seconds
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn midmean_averages_the_middle_half() {
        assert_eq!(midmean(&ramp(8)), 4.5, "3, 4, 5, 6");
        assert_eq!(midmean(&[1.0, 2.0, 3.0, 100.0]), 2.5, "the tail does not pull it");
        assert_eq!(midmean(&[7.0]), 7.0);
        assert_eq!(midmean(&[]), 0.0);
        // Two steps of a sleep grid, 49 % / 51 % then 51 % / 49 %: the
        // median jumps from one step to the other, the midmean barely moves.
        let grid = |low: usize| [vec![5.5; low], vec![8.0; 100 - low]].concat();
        assert_eq!((median(&grid(49)), median(&grid(51))), (8.0, 5.5));
        assert!((midmean(&grid(49)) - midmean(&grid(51))).abs() < 0.11);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // The ladder tops out at p95 however many samples there are.
        assert_eq!(tail(&ramp(100_000)), Some((95.0, 95_000.0)));
        // 200 samples: p95 is rank 190, ten samples (191..=200) beyond.
        assert_eq!(tail(&ramp(200)), Some((95.0, 190.0)));
        assert_eq!(tail(&ramp(199)), Some((90.0, 180.0)));
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // Too few for p90: no tail, not a made-up one.
        assert_eq!(tail(&ramp(99)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_does_not_depend_on_sample_order() {
        let mut v = ramp(300);
        v.reverse();
        assert_eq!(tail(&v), Some((95.0, 285.0)));
    }

    #[test]
    fn fastest_is_the_minimum_and_zero_for_no_samples() {
        assert_eq!(fastest(&[4.0, 2.0, 8.0]), 2.0);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn throughput_comes_from_one_pass_not_from_the_total() {
        // Thirty passes, two thirds of them while a neighbour thrashed the
        // cache: total ÷ elapsed says 6 ops/s, the median pass 5, the
        // fastest pass — the program alone — 10.
        let mut passes = vec![1.0; 10];
        passes.extend([2.0; 20]);
        assert_eq!(per_second(10.0, fastest(&passes)), 10.0);
        assert_eq!(per_second(10.0, median(&passes)), 5.0);
        assert_eq!(per_second(10.0, fastest(&[])), 0.0);
    }
}
