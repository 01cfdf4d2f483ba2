//! Order statistics over timing samples.

/// Median of `samples` (sorted in place). Empty input gives NaN.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    sort(samples);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

/// The tail of `samples` (sorted in place): p99, or the highest lower
/// percentile that still leaves ten samples beyond it when there are
/// fewer than 1000. Returns `(percentile, value)`; with eleven samples or
/// fewer it is the smallest sample, reported as percentile 0.
pub fn tail(samples: &mut [f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, f64::NAN);
    }
    sort(samples);
    let n = samples.len();
    let beyond = (n / 100).max(10);
    let idx = n.saturating_sub(beyond + 1);
    (100.0 * idx as f64 / n as f64, samples[idx])
}

/// The second-largest of `samples` (sorted in place); with one sample,
/// that sample. Empty input gives NaN.
pub fn second_largest(samples: &mut [f64]) -> f64 {
    sort(samples);
    match samples.len() {
        0 => f64::NAN,
        1 => samples[0],
        n => samples[n - 2],
    }
}

/// Arithmetic mean; NaN for empty input.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.total_cmp(b));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_beyond() {
        let mut v: Vec<f64> = (0..100).map(f64::from).collect();
        let (pct, value) = tail(&mut v);
        assert_eq!(value, 89.0);
        assert_eq!(pct, 89.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn second_largest_skips_one_outlier() {
        assert_eq!(second_largest(&mut [5.0, 9.0, 1.0, 7.0]), 7.0);
        assert_eq!(second_largest(&mut [3.0]), 3.0);
        assert!(second_largest(&mut []).is_nan());
    }

    #[test]
    fn tail_is_at_most_p99() {
        let mut v: Vec<f64> = (0..5000).map(f64::from).collect();
        let (pct, value) = tail(&mut v);
        assert_eq!(value, 4949.0);
        assert!((pct - 98.98).abs() < 1e-9);
    }
}
