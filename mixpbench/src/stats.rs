//! Order statistics used by every metric: medians, nearest-rank
//! percentiles that refuse to extrapolate, and geometric means.

/// The median of `values` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice: every metric is computed from at least one
/// sample, so an empty one is a benchmark bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// How many samples a percentile must leave above it before it is
/// reported: fewer would make the tail a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `values`.
///
/// # Errors
///
/// Refuses (with a message naming the shortfall) when fewer than
/// [`MIN_BEYOND`] samples lie beyond the percentile's rank.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of range");
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples leaves {beyond} beyond it; need at least {MIN_BEYOND}"
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank.max(1) - 1])
}

/// The geometric mean of strictly positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Times `f` `reps` times and returns the median duration in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        // p99 of 999 samples is rank 990: only 9 samples lie beyond it.
        assert!(percentile(&values, 99.0).is_err());
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 99.0), Ok(990.0));
        // p50 needs only 20 samples.
        assert!(percentile(&values[..19], 50.0).is_err());
        assert_eq!(percentile(&values[..20], 50.0), Ok(10.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), Ok(50.0));
        assert_eq!(percentile(&values, 90.0), Ok(90.0));
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }
}
