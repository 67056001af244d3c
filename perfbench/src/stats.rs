//! Order statistics and the least-squares line fit the ledger reports.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the benchmark driver
//! applies to the numbers this crate prints.

/// Median of `values` (mean of the middle pair for an even count).
/// Returns 0.0 for an empty slice so an unexercised layer reads as zero.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartile, `statistics.quantiles(values, n=4)` style.
/// Needs two samples; with fewer both quartiles collapse onto the median.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    if values.len() < 2 {
        let m = median(values);
        return (m, m);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        // Exclusive method: position i·(n+1)/4 on a 1-based axis.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median (the driver's
/// steadiness measure). 0.0 when the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Nearest-rank percentile `q` in `[0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // The small slack keeps 0.9 × 100 = 90.000000000000014 at rank 90.
    let rank = ((q * v.len() as f64 - 1e-9).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond its nearest-rank position; 0.5 when even p90 is
/// unsupported (n < 100).
pub fn tail_quantile(n: usize) -> f64 {
    [(999, 1000), (99, 100), (95, 100), (90, 100)]
        .into_iter()
        .find(|&(num, den)| n - (n * num).div_ceil(den) >= 10)
        .map_or(0.5, |(num, den)| num as f64 / den as f64)
}

/// Mean of the lowest (`low = true`) or highest tenth of the samples —
/// the "fast decile" / "slow decile" of a step-time series.
pub fn decile_mean(values: &[f64], low: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = (v.len() / 10).max(1);
    let part = if low { &v[..k] } else { &v[v.len() - k..] };
    part.iter().sum::<f64>() / k as f64
}

/// Ordinary least squares `y = a + b·x`; returns `(a, b)`.
/// With fewer than two distinct abscissae the slope is 0 and `a` the mean.
pub fn linear_fit(x: &[f64], y: &[f64]) -> (f64, f64) {
    assert_eq!(x.len(), y.len(), "fit needs paired samples");
    let n = x.len() as f64;
    if x.is_empty() {
        return (0.0, 0.0);
    }
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxx: f64 = x.iter().map(|v| (v - mx) * (v - mx)).sum();
    if sxx == 0.0 {
        return (my, 0.0);
    }
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let b = sxy / sxx;
    (my - b * mx, b)
}

/// `num / den`, or 0.0 when the denominator is 0 (an unexercised layer).
pub fn ratio(num: f64, den: f64) -> f64 {
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
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12, "{q1} {q3}");
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(50), 0.5);
        assert_eq!(tail_quantile(100), 0.90);
        assert_eq!(tail_quantile(199), 0.90);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(10_000), 0.999);
    }

    #[test]
    fn deciles_average_the_extremes() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(decile_mean(&v, true), 1.5);
        assert_eq!(decile_mean(&v, false), 19.5);
    }

    #[test]
    fn linear_fit_recovers_alpha_beta() {
        // t = alpha + bytes / bandwidth, alpha = 5 us, 2 GB/s.
        let sizes = [64.0, 1024.0, 16_384.0, 262_144.0, 1_048_576.0];
        let t: Vec<f64> = sizes.iter().map(|b| 5e-6 + b / 2e9).collect();
        let (a, b) = linear_fit(&sizes, &t);
        assert!((a - 5e-6).abs() < 1e-12, "alpha {a}");
        assert!((1.0 / b - 2e9).abs() / 2e9 < 1e-9, "beta {b}");
        assert_eq!(linear_fit(&[2.0, 2.0], &[1.0, 3.0]), (2.0, 0.0));
    }
}
