//! The harness's own arithmetic: the percentile rule every timing metric
//! is reported under, and the wire-cost subtraction.

/// Sorted copy of `xs` (timings are finite, so `total_cmp` is a plain
/// numeric order).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle sample, or the mean of the two middle samples
/// for an even count. Panics on an empty slice — a phase that took no
/// sample has nothing to report and must fail loudly.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` of the
/// samples at or below it (`p` in `(0, 1]`).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 1.0, "percentile rank {p} outside (0, 1]");
    let v = sorted(xs);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// What a timed phase reports: median, p90 tail, and how many samples
/// stand behind them (phases hold tens of samples, so p90 is the highest
/// percentile with a handful of samples beyond it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
}

pub fn summarize(xs: &[f64]) -> Summary {
    Summary { n: xs.len(), p50: median(xs), p90: percentile(xs, 0.9) }
}

/// Cost of the socket path for one request kind: the TCP round-trip
/// median minus the median of the same request handled in-process.
/// Deliberately unclamped — a negative value would mean the twin is not
/// measuring the same request and must be visible.
pub fn wire_ms(tcp_p50_ms: f64, inproc_p50_ms: f64) -> f64 {
    tcp_p50_ms - inproc_p50_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn p90_is_nearest_rank() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        // ceil(0.9 * 10) = 9th smallest.
        assert_eq!(percentile(&ten, 0.9), 9.0);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        // ceil(9.9) = 10th smallest.
        assert_eq!(percentile(&eleven, 0.9), 10.0);
        // A single sample is every percentile of itself.
        assert_eq!(percentile(&[42.0], 0.9), 42.0);
        assert_eq!(percentile(&ten, 1.0), 10.0);
    }

    #[test]
    fn summary_carries_the_sample_count() {
        let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!(s, Summary { n: 40, p50: 20.5, p90: 36.0 });
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn an_empty_phase_fails_loudly() {
        median(&[]);
    }

    #[test]
    fn wire_cost_is_the_plain_difference() {
        assert!((wire_ms(88.25, 0.75) - 87.5).abs() < 1e-12);
        // Not clamped: a twin slower than the socket shows as negative.
        assert!(wire_ms(1.0, 1.5) < 0.0);
    }
}
