//! Order statistics for rep timings: median, quartiles, and the rule for
//! which tail percentile a sample of a given size can support.

/// Median, quartiles and sample count of one metric over the timed reps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The quantile at position `p` of `n + 1` (Python's
/// `statistics.quantiles(..., method="exclusive")`, which the acceptance
/// rule for this benchmark is written in), clamped to the sample range.
fn exclusive_quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let pos = p * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
}

/// Summarises a non-empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summarize needs at least one sample");
    let s = sorted(values);
    Summary {
        median: exclusive_quantile(&s, 0.5),
        q1: exclusive_quantile(&s, 0.25),
        q3: exclusive_quantile(&s, 0.75),
        n: s.len(),
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// The tail percentiles a report may quote, lowest first, each with the
/// per-mille of samples that lie beyond it.
const TAILS: [(f64, usize); 4] = [(90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// The highest percentile with at least ten samples beyond it, or `None`
/// when even p90 has fewer (below 100 samples only the median is quoted).
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .rev()
        .find(|(_, beyond_permille)| n * beyond_permille / 1000 >= 10)
        .map(|&(p, _)| p)
}

/// Nearest-rank percentile `p` (0–100) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile needs at least one sample");
    let s = sorted(values);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = summarize(&[4.2]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.2, 4.2, 4.2, 1));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(12), None);
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(4_000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
