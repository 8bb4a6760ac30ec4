//! The statistics of the reports: exact quantiles and medians, and quartiles
//! and spread the way the driver takes them — Python's
//! `statistics.quantiles(values, n=4)` (the exclusive method), and the
//! distance between the first and third quartile as a share of the median.

/// `(q1, median, q3)` of `values`; at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    assert!(len >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, median, q3) = quartiles(values);
    if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    }
}

/// The `q`-quantile of ascending `sorted` as an exact order statistic (the
/// smallest value with at least `q` of the sample at or below it); 0 when
/// empty.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 1, 7, 3, 4], n=4)
        assert_eq!(quartiles(&[10.0, 1.0, 7.0, 3.0, 4.0]), (2.0, 4.0, 8.5));
        // statistics.quantiles([5, 9], n=4): extrapolates past both ends
        assert_eq!(quartiles(&[5.0, 9.0]), (4.0, 7.0, 10.0));
        assert_eq!(spread(&ten), 1.0);
    }

    #[test]
    fn quantile_and_median_are_order_statistics() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sample, 0.50), 50.0);
        assert_eq!(quantile(&sample, 0.95), 95.0);
        assert_eq!(quantile(&sample, 0.999), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
