//! Order statistics used for every reported number: medians, percentiles
//! with the "ten samples beyond" rule, and the quartile spread the
//! calibration compares against a metric's bound.

/// Sorted copy of `values` (NaNs are a bug upstream and sort last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values`.
///
/// # Panics
///
/// On an empty slice: every caller reports a measured quantity, and an
/// empty measurement is a bug, not a number.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let v = sorted(values);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples of an `n`-sample set that lie strictly beyond the `p`-th
/// percentile (`p` in percent).
pub fn samples_beyond(n: usize, p: f64) -> usize {
    // The epsilon keeps 4000 x 0.1% at 4, not 3.9999999999997726.
    (n as f64 * (100.0 - p) / 100.0 + 1e-9).floor() as usize
}

/// The `p`-th percentile (in percent) of `values`, or `None` when fewer
/// than ten samples lie beyond it.
pub fn percentile_if_supported(values: &[f64], p: f64) -> Option<f64> {
    (samples_beyond(values.len(), p) >= 10).then(|| quantile(values, p / 100.0))
}

/// Quartiles `(q1, q2, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// computes them — the definition the acceptance check uses.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let v = sorted(values);
    let n = v.len();
    let at = |i: usize| -> f64 {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread the calibration holds against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles_exclusive(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn ten_beyond_rule_counts_the_tail() {
        // 4,000 samples: 40 beyond p99, only 4 beyond p99.9.
        assert_eq!(samples_beyond(4000, 99.0), 40);
        assert_eq!(samples_beyond(4000, 99.9), 4);
        // 1,000 samples: exactly ten beyond p99; 999 leave nine.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(20, 50.0), 10);
    }

    #[test]
    fn a_percentile_without_ten_samples_beyond_is_withheld() {
        let ramp = |n: u32| -> Vec<f64> { (0..n).map(f64::from).collect() };
        assert!(percentile_if_supported(&ramp(999), 99.0).is_none());
        let p99 = percentile_if_supported(&ramp(1000), 99.0).expect("ten beyond");
        assert!((p99 - 989.01).abs() < 1e-9);
        assert!(percentile_if_supported(&ramp(500), 99.0).is_none());
        assert!(percentile_if_supported(&ramp(500), 90.0).is_some());
        // Fewer than twenty samples support not even a median tail.
        assert!(percentile_if_supported(&ramp(19), 50.0).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles_exclusive(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q2, q3) = quartiles_exclusive(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12);
        assert!((q2 - 1.5).abs() < 1e-12);
        assert!((q3 - 2.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
