//! Summary statistics the benchmark reports: median, quartiles, the
//! tail percentile with at least ten samples beyond it, and the
//! geometric mean.

/// Samples sorted ascending (NaN-free input is a caller invariant).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile by the "exclusive" method (the default of
/// Python's `statistics.quantiles(data, n=4)`); `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The highest whole percentile `p` that still has at least ten samples
/// strictly beyond its nearest-rank position, with that sample's value:
/// `(p, value)`. `None` below eleven samples.
pub fn tail_percentile(samples: &[f64]) -> Option<(u32, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 11 {
        return None;
    }
    // Nearest rank of p is ceil(p·n/100); p ≤ 100·(n−10)/n keeps that
    // rank ≤ n−10, so at least ten samples sit behind it.
    let p = (100 * (n - 10) / n) as u32;
    let rank = (p as usize * n).div_ceil(100).max(1);
    Some((p, v[rank - 1]))
}

/// Nearest-rank quantile (`q` in (0, 1]); 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Geometric mean of positive values; `None` when empty or when any
/// value is not positive and finite.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&x| !(x.is_finite() && x > 0.0)) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|x| x.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// One line describing a timing sample set: median, quartiles, tail
/// percentile (when there are enough samples) and the sample count.
pub fn describe(samples: &[f64]) -> String {
    let med = median(samples).map_or("-".to_string(), |m| format!("{m:.6}"));
    let quart = quartiles(samples).map_or(String::new(), |(a, b)| format!("  q1 {a:.6} q3 {b:.6}"));
    let tail = tail_percentile(samples)
        .map_or("  (fewer than 11 samples)".to_string(), |(p, v)| {
            format!("  p{p} {v:.6}")
        });
    format!("p50 {med}{quart}{tail}  n={}", samples.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // 20 samples: p50, nearest rank 10, value 10, ten samples beyond.
        assert_eq!(tail_percentile(&v), Some((50, 10.0)));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((90, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, x) = tail_percentile(&v).unwrap();
        assert_eq!((p, x), (99, 990.0));
        assert!(v.iter().filter(|&&s| s > x).count() >= 10);
        // 11 samples: p9 is the highest percentile whose rank (1) keeps
        // ten samples beyond it.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((9, 1.0)));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 10.0);
        assert_eq!(quantile(&v, 0.95), 19.0);
        assert_eq!(quantile(&v, 1.0), 20.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        let g = geomean(&[0.5, 2.0]).unwrap();
        assert!((g - 1.0).abs() < 1e-12);
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
    }
}
