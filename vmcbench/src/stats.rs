//! Order statistics used by every metric the benchmark prints.

/// Percentile `q ∈ [0, 1]` of a sample by linear interpolation between
/// closest ranks (the "R-7" definition NumPy uses by default): over the
/// ascending values `x`, `h = (n − 1)·q` and the result is
/// `x[⌊h⌋] + (h − ⌊h⌋)·(x[⌊h⌋ + 1] − x[⌊h⌋])`. An empty sample has no
/// percentile and yields NaN.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "percentile {q} outside [0, 1]");
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    match x.len() {
        0 => f64::NAN,
        1 => x[0],
        n => {
            let h = (n - 1) as f64 * q;
            let lo = h.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            x[lo] + (h - lo as f64) * (x[hi] - x[lo])
        }
    }
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; NaN for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted (a layer a workload does
/// not exercise reports 0, not NaN).
pub fn ratio_or_zero(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_are_min_and_max() {
        let v = [3.0, 1.0, 2.0, 5.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn interpolates_between_closest_ranks() {
        // 0..=100: the q-th percentile is exactly 100·q.
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert!((percentile(&v, 0.99) - 99.0).abs() < 1e-12);
        assert!((percentile(&v, 0.125) - 12.5).abs() < 1e-12);
        // Ten values 1..=10: h = 9·0.99 = 8.91 → 9 + 0.91·(10 − 9).
        let w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((percentile(&w, 0.99) - 9.91).abs() < 1e-12);
    }

    #[test]
    fn matches_numpy_linear_on_a_skewed_sample() {
        // numpy.percentile([1, 2, 4, 8, 100], 90) == 63.2: h = 3.6 → 8 + 0.6·92
        let v = [100.0, 1.0, 8.0, 2.0, 4.0];
        assert!((percentile(&v, 0.9) - 63.2).abs() < 1e-12);
    }

    #[test]
    fn degenerate_samples() {
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(mean(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio_or_zero(5.0, 0.0), 0.0);
        assert_eq!(ratio_or_zero(6.0, 3.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_out_of_range_percentile() {
        percentile(&[1.0], 1.5);
    }
}
