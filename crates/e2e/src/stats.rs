//! Order statistics with an honest sample-count rule.
//!
//! A percentile is only a measurement when enough samples lie beyond
//! it: [`percentile`] refuses (returns `None`) unless at least
//! [`MIN_BEYOND`] samples are strictly above the reported rank, so a
//! `p99` over 300 samples (3 beyond) is never printed as if it meant
//! something. Every timing the benchmark reports travels with its
//! sample count.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of an ascending-sorted slice by the
/// nearest-rank rule, or `None` when fewer than [`MIN_BEYOND`] samples
/// lie beyond that rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Plain median of a small set of repeats (set-up times, spreads) —
/// no sample-count rule, the caller states `n`. Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Run-to-run spread of a metric's repeats: the distance between the
/// first and third quartile as a share of the median, quartiles as
/// Python's `statistics.quantiles(values, n=4)` gives them (the
/// benchmark driver's rule). `None` below four values, where those
/// quartiles would be extrapolations.
pub fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let mut v = values.to_vec();
    let mid = median(&mut v);
    let quartile = |k: usize| {
        // 1-based position (n + 1)·k/4, linearly interpolated.
        let pos = (v.len() + 1) as f64 * k as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        v[lo - 1] + (pos - lo as f64) * (v[lo] - v[lo - 1])
    };
    Some((quartile(3) - quartile(1)) / mid)
}

/// Sorts latency samples ascending (NaN-free by construction).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000: rank 990, 10 beyond — just enough.
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // p99 of 999: rank 990, 9 beyond — refused.
        assert_eq!(percentile(&v[..999], 0.99), None);
        // The median needs 20 samples.
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_spread_of_repeats() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(spread(&[1.0, 2.0, 3.0]), None);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45].
        assert_eq!(spread(&[50.0, 10.0, 30.0, 20.0, 40.0]), Some(1.0));
        // quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75].
        assert_eq!(spread(&[1.0, 2.0, 3.0, 4.0]), Some(1.0));
    }
}
