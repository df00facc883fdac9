//! Order statistics the harness reports: medians, MAD, percentiles and the
//! guide's rule for which tail percentile a sample count can support.

/// Tail percentiles a report may quote, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples a percentile must leave beyond it before it is worth quoting.
pub const MIN_BEYOND: f64 = 10.0;

/// The `p`-th percentile (0..=100) by linear interpolation between closest
/// ranks — the same definition as numpy's default, so README numbers can be
/// re-derived from the printed samples.
///
/// # Panics
///
/// Panics on an empty sample: every caller measures at least one op.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `p`-th percentile of each of `windows` equal consecutive stretches of
/// `xs` (samples in the order they were taken), and the lower quartile of
/// those: the tail the program shows in the quiet stretches of a run. A
/// neighbour on the host only ever adds time, in bursts as long and as many
/// as it likes; a whole-run tail percentile moves with every one of them,
/// this one only once three windows in four are hit. Slow samples spread
/// evenly over the run are in every window and are kept. One window is the
/// plain percentile.
///
/// # Panics
///
/// Panics on an empty sample or zero windows.
pub fn quiet_percentile(xs: &[f64], p: f64, windows: usize) -> f64 {
    assert!(windows >= 1, "no windows");
    let windows = windows.min(xs.len().max(1));
    let tails: Vec<f64> = (0..windows)
        .map(|i| percentile(&xs[i * xs.len() / windows..(i + 1) * xs.len() / windows], p))
        .collect();
    percentile(&tails, 25.0)
}

/// Median absolute deviation around the median: the probe set's noise figure.
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// How many of `n` samples lie beyond the `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> f64 {
    n as f64 * (100.0 - p) / 100.0
}

/// The highest tail percentile that still has [`MIN_BEYOND`] samples beyond
/// it, or `None` when even p75 does not (fewer than 40 samples).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // The slack absorbs binary rounding: 10 000 x 0.1 % is 9.999999999999432.
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| beyond(n, p) + 1e-9 >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        // 120 requests support p90 (12 beyond) but not p95 (6 beyond).
        assert_eq!(highest_supported_percentile(120), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(315), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(8000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentiles_interpolate_and_ignore_input_order() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 75.0), 4.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quiet_percentile_ignores_bursts_but_not_evenly_spread_slow_samples() {
        let mut xs = vec![10.0; 120];
        assert_eq!(quiet_percentile(&xs, 90.0, 1), percentile(&xs, 90.0));
        // Bursts over half the run, in two places.
        xs[10..40].fill(50.0);
        xs[70..100].fill(50.0);
        assert_eq!(percentile(&xs, 90.0), 50.0);
        assert_eq!(quiet_percentile(&xs, 90.0, 12), 10.0);
        // One slow sample in five all through the run is the program's.
        let even: Vec<f64> = (0..120)
            .map(|i| if i % 5 == 0 { 50.0 } else { 10.0 })
            .collect();
        assert_eq!(quiet_percentile(&even, 90.0, 12), 50.0);
        // More windows than samples: one sample a window.
        assert_eq!(quiet_percentile(&[1.0, 2.0, 3.0], 90.0, 12), 1.5);
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        assert_eq!(mad(&[10.0, 11.0, 9.0, 10.0, 1000.0]), 1.0);
    }
}
