//! Tolerable-gap thresholds: the paper's 60 %-of-Myrinet bar read off a
//! grid of predicted or simulated speedups.

/// The paper's "tolerable gap" bar: an application tolerates a WAN setting
/// when the 4-cluster machine still reaches this percentage of the
/// single-Myrinet speedup.
pub const TOLERABLE_SPEEDUP_PCT: f64 = 60.0;

/// The tolerable-gap thresholds read off one sensitivity curve.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GapThresholds {
    /// Largest grid WAN latency (ms, at the best grid bandwidth) still above
    /// the 60 % bar; `None` when even the best point is below it.
    pub latency_ms: Option<f64>,
    /// Smallest grid WAN bandwidth (MByte/s, at the best grid latency) still
    /// above the 60 % bar.
    pub bandwidth_mbs: Option<f64>,
}

/// Reads the tolerable-gap thresholds off one curve.
///
/// `pct` must be indexed `[lat_idx][bw_idx]` over the given grids. Public
/// because `numagap predict` and `numagap serve` apply the same 60 %-bar
/// logic to speedup grids they derive from replays or analytic bounds.
///
/// # Panics
///
/// Panics on an empty latency or bandwidth grid.
pub fn gap_thresholds(lats: &[f64], bws: &[f64], pct: &[Vec<f64>]) -> GapThresholds {
    // Best bandwidth = largest; best latency = smallest. The paper grids are
    // ordered best-first, but don't rely on that.
    let best_bw = (0..bws.len())
        .max_by(|&a, &b| bws[a].total_cmp(&bws[b]))
        .expect("nonempty grid");
    let best_lat = (0..lats.len())
        .min_by(|&a, &b| lats[a].total_cmp(&lats[b]))
        .expect("nonempty grid");
    let latency_ms = (0..lats.len())
        .filter(|&i| pct[i][best_bw] >= TOLERABLE_SPEEDUP_PCT)
        .max_by(|&a, &b| lats[a].total_cmp(&lats[b]))
        .map(|i| lats[i]);
    let bandwidth_mbs = (0..bws.len())
        .filter(|&j| pct[best_lat][j] >= TOLERABLE_SPEEDUP_PCT)
        .min_by(|&a, &b| bws[a].total_cmp(&bws[b]))
        .map(|j| bws[j]);
    GapThresholds {
        latency_ms,
        bandwidth_mbs,
    }
}
