//! Order statistics for benchmark samples.
//!
//! Two conventions are used, each where it matches its consumer:
//!
//! * latency percentiles use the **nearest rank** (`sorted[ceil(p·n) − 1]`),
//!   so "samples beyond the percentile" is an exact count;
//! * quartiles of repeated measurements use Python's
//!   `statistics.quantiles(values, n=4)` (the default *exclusive* method),
//!   so the spreads printed here are the ones a reader recomputes from the
//!   raw values.

/// Median, quartiles and sample count of one measured quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `None` for an empty slice or a non-finite value.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, q3) = if sorted.len() < 2 {
            (sorted[0], sorted[0])
        } else {
            let [q1, _, q3] = quartiles_exclusive(&sorted);
            (q1, q3)
        };
        Some(Summary {
            median: median_sorted(&sorted),
            q1,
            q3,
            n: sorted.len(),
        })
    }
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Python's `statistics.quantiles(sorted, n=4, method="exclusive")` for a
/// sorted slice of at least two values.
fn quartiles_exclusive(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    debug_assert!(n >= 2);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        // Python clamps j into 1..n-1 so both neighbours exist.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an unsorted sample set.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The highest whole percentile, at most `cap`, that leaves at least
/// `min_beyond` samples beyond it; `None` when not even the median does.
pub fn tail_percentile(n: usize, cap: u32, min_beyond: usize) -> Option<u32> {
    (50..=cap)
        .rev()
        .find(|&q| n > 0 && samples_beyond(n, f64::from(q)) >= min_beyond)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&values).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), Some(50.0));
        assert_eq!(percentile(&values, 99.0), Some(99.0));
        assert_eq!(percentile(&values, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&values, 0.0), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000, 99, 10), Some(99));
        // 999 samples: p99 would leave 9, so p98 (19 beyond) is the tail.
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999, 99, 10), Some(98));
        // 600 samples: p98 leaves 12, p99 only 6.
        assert_eq!(tail_percentile(600, 99, 10), Some(98));
        // The cap holds however many samples there are.
        assert_eq!(tail_percentile(1_000_000, 99, 10), Some(99));
        // Too few samples for even the median to have ten beyond.
        assert_eq!(tail_percentile(19, 99, 10), None);
        assert_eq!(tail_percentile(20, 99, 10), Some(50));
        assert_eq!(tail_percentile(0, 99, 10), None);
    }
}
