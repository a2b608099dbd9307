//! Order statistics the benchmark reports: medians, quartiles, a
//! nearest-rank percentile, and the static-split imbalance.

use fault_sneaking::tensor::parallel::split_ranges;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, median, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, the estimator the acceptance spread
/// is computed with. A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let v = sorted(xs);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Nearest-rank percentile `p` in `(0, 1]`: the smallest sample with at
/// least a `p` share of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let v = sorted(xs);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Load imbalance of a static contiguous split: the scenario costs are
/// cut into `pieces` ranges by [`split_ranges`] (the partition both the
/// in-process scheduler and the sharded executor use), and the result
/// is the slowest range's summed cost over the mean range cost. 1.0 is
/// a perfect split.
pub fn imbalance(costs: &[f64], pieces: usize) -> f64 {
    let sums: Vec<f64> = split_ranges(costs.len(), pieces)
        .into_iter()
        .map(|r| costs[r].iter().sum())
        .collect();
    if sums.is_empty() {
        return 1.0;
    }
    let mean = sums.iter().sum::<f64>() / sums.len() as f64;
    if mean <= 0.0 {
        return 1.0;
    }
    sums.iter().copied().fold(f64::MIN, f64::max) / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 2.0, 1.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0, 9.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 6.0);
        assert_eq!(percentile(&xs, 0.9), 11.0);
        assert_eq!(percentile(&xs, 1.0), 12.0);
    }

    #[test]
    fn imbalance_over_split_ranges() {
        // Balanced halves.
        assert_eq!(imbalance(&[1.0, 1.0, 1.0, 1.0], 2), 1.0);
        // One expensive scenario in the first half: sums 5 and 2.
        let got = imbalance(&[4.0, 1.0, 1.0, 1.0], 2);
        assert!((got - 5.0 / 3.5).abs() < 1e-12, "{got}");
        // Uneven counts split like split_ranges: 5 items → [0..3, 3..5].
        let got = imbalance(&[1.0, 1.0, 1.0, 1.0, 1.0], 2);
        assert!((got - 3.0 / 2.5).abs() < 1e-12, "{got}");
        // One piece is always balanced; nothing to split is balanced.
        assert_eq!(imbalance(&[3.0, 1.0], 1), 1.0);
        assert_eq!(imbalance(&[], 2), 1.0);
    }
}
