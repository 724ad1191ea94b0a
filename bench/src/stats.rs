//! Order statistics on samples the benchmark keeps in full (no
//! histogram buckets: the percentile path is exact).

/// Nearest-rank percentile of an ascending slice: the sample at rank
/// `ceil(p × n)` (1-based). `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted_copy(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so a
/// spread printed here is the spread a driver using that function sees.
/// Needs at least two values; one value is returned three times.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted_copy(values);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The highest of p50/p90/p99/p99.9 that leaves at least ten samples
/// beyond it in a sample of `n`.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // Per-mille integers: `100 × (1 − 0.9)` is 9.99… in floating point.
    [999usize, 990, 900, 500]
        .into_iter()
        .find(|pm| n * (1000 - pm) / 1000 >= 10)
        .map_or(0.5, |pm| pm as f64 / 1000.0)
}

/// Percentile `p` of each window; windows with fewer than `min`
/// samples are left out (reported by the caller as a shortfall).
pub fn windowed_percentile(windows: &[Vec<f64>], p: f64, min: usize) -> Vec<f64> {
    windows
        .iter()
        .filter(|w| w.len() >= min)
        .map(|w| percentile(&sorted_copy(w), p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// The values Python prints for
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` and for
    /// `statistics.quantiles([10, 20, 40], n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
    }

    #[test]
    fn windowed_p99_is_the_per_window_p99() {
        let a: Vec<f64> = (1..=1000).map(f64::from).collect();
        let b: Vec<f64> = (1..=1000).map(|x| f64::from(x) * 2.0).collect();
        let short = vec![1.0; 5];
        let per_window = windowed_percentile(&[a, b, short], 0.99, 1000);
        assert_eq!(per_window, vec![990.0, 1980.0]);
        assert_eq!(median(&per_window), 1485.0);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(15), 0.5);
        assert_eq!(highest_supported_percentile(100), 0.9);
        assert_eq!(highest_supported_percentile(999), 0.9);
        assert_eq!(highest_supported_percentile(1000), 0.99);
        assert_eq!(highest_supported_percentile(10_000), 0.999);
    }
}
