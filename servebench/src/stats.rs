//! Exact order statistics and the small arithmetic helpers every metric
//! goes through.

/// Exact quantile of raw samples: the nearest-rank value, i.e. the
/// smallest sample with at least `q * n` samples at or below it.
/// `sorted` must be ascending. Returns `None` on an empty slice.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// One reported quantile: its value, the sample count it was read from
/// and how many samples lie strictly beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub value: u64,
    pub samples: usize,
    pub beyond: usize,
}

/// [`quantile`] plus its sample count and tail size.
pub fn quantile_with_tail(sorted: &[u64], q: f64) -> Option<Quantile> {
    let value = quantile(sorted, q)?;
    let at_or_below = sorted.partition_point(|&x| x <= value);
    Some(Quantile {
        value,
        samples: sorted.len(),
        beyond: sorted.len() - at_or_below,
    })
}

/// `num / den`, or 0 when the denominator is zero (a layer that did no
/// work reports a zero ratio, never NaN or infinity).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median and quartiles the way Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method) computes them, so the noise
/// audit reads exactly like an external check of the same values.
/// Returns `(q1, median, q3)`; needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Python's exclusive method, integer arithmetic included: j is
    // clamped to 1..=n-1 and delta is taken against the clamped j, so the
    // outer quartiles of tiny samples extrapolate exactly as Python does.
    let cut = |i: i64| {
        let (n, m) = (n as i64, n as i64 + 1);
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Median of a non-empty slice (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Host steal share, above that of the calmest sample of the same kind,
/// at which a sample (a second of the window, a set-up, an ingest ack, a
/// recovery) counts as interfered with: the hypervisor ran something
/// else on this machine's CPUs, and the sample timed that as much as the
/// program. Measured from the calmest sample because the program's own
/// disk writes raise steal a little (the virtual disk's work runs beside
/// the guest's CPUs).
pub const STEAL_LIMIT: f64 = 0.03;

/// The samples a figure is taken over, given each sample's host steal
/// share: every sample within `STEAL_LIMIT` of the least steal, and at
/// least the third of them with the least steal. Ascending indices.
pub fn calm(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let floor = order.first().map_or(0.0, |&i| steal[i]);
    let below = steal.iter().filter(|&&s| s < floor + STEAL_LIMIT).count();
    order.truncate(below.max(steal.len().div_ceil(3)));
    order.sort_unstable();
    order
}

/// Median of the calm samples (see [`calm`]).
pub fn calm_median(values: &[f64], steal: &[f64]) -> f64 {
    let picked: Vec<f64> = calm(steal).into_iter().map(|i| values[i]).collect();
    median(&picked)
}

/// Mean of the middle half of the calm samples (see [`calm`]): the
/// quarter above and the quarter below are dropped. Unlike the median it
/// moves smoothly when the samples fall into two modes and the share in
/// each changes from run to run.
pub fn calm_iq_mean(values: &[f64], steal: &[f64]) -> f64 {
    let mut picked: Vec<f64> = calm(steal).into_iter().map(|i| values[i]).collect();
    picked.sort_by(f64::total_cmp);
    let cut = picked.len() / 4;
    let mid = &picked[cut..picked.len() - cut];
    ratio(mid.iter().sum(), mid.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quantiles_on_a_known_vector() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.50), Some(50));
        assert_eq!(quantile(&v, 0.90), Some(90));
        assert_eq!(quantile(&v, 0.99), Some(99));
        assert_eq!(quantile(&v, 0.999), Some(100));
        assert_eq!(quantile(&v, 1.0), Some(100));
        assert_eq!(quantile(&v, 0.0), Some(1));
        assert_eq!(quantile(&[], 0.5), None);
        let q = quantile_with_tail(&v, 0.9).unwrap();
        assert_eq!((q.value, q.samples, q.beyond), (90, 100, 10));
    }

    #[test]
    fn tail_counts_skip_ties_at_the_quantile() {
        let v = [1, 2, 2, 2, 2, 3];
        let q = quantile_with_tail(&v, 0.5).unwrap();
        assert_eq!((q.value, q.beyond), (2, 1));
    }

    #[test]
    fn ratio_with_a_zero_denominator_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn calm_keeps_quiet_samples_and_at_least_a_third() {
        // One quiet sample of six: the calmest third (two) is kept.
        assert_eq!(calm(&[0.2, 0.0, 0.1, 0.04, 0.3, 0.05]), vec![1, 3]);
        // Every quiet sample is kept, however many.
        assert_eq!(calm(&[0.0, 0.02, 0.5, 0.0]), vec![0, 1, 3]);
        // Quiet is measured from the calmest sample, not from zero.
        assert_eq!(calm(&[0.05, 0.03, 0.09, 0.04]), vec![0, 1, 3]);
        // All far apart: still the calmest third, never nothing.
        assert_eq!(calm(&[0.4, 0.2, 0.3]), vec![1]);
        assert!(calm(&[]).is_empty());
        assert_eq!(
            calm_median(&[10.0, 1.0, 2.0, 3.0], &[0.5, 0.0, 0.0, 0.0]),
            2.0
        );
        // Eight calm samples: the two lowest and two highest are dropped.
        let v = [9.0, 1.0, 4.0, 2.0, 5.0, 3.0, 8.0, 6.0, 100.0];
        let st = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.9];
        assert_eq!(calm_iq_mean(&v, &st), 4.5);
        assert_eq!(calm_iq_mean(&[], &[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([5, 1, 9, 2, 7], n=4) == [1.5, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 2.0, 7.0]), Some((1.5, 5.0, 8.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
