//! Medians and percentiles.

/// The median of `values` (mean of the middle two for an even count).
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[u32], q: f64) -> u32 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly beyond the `q` percentile's rank.
pub fn samples_beyond(count: usize, q: f64) -> usize {
    count - ((q * count as f64).ceil() as usize).clamp(1, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[5], 0.99), 5);
        // 8 192 samples: the p99 has 81 samples beyond it.
        assert_eq!(samples_beyond(8192, 0.99), 81);
        let w: Vec<u32> = (0..8192).collect();
        assert_eq!(percentile(&w, 0.99), 8110);
    }
}
