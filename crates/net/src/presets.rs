//! Paper-calibrated presets: the DAS machine and the HPCA'99 parameter grid.

use crate::link::LinkParams;
use crate::model::TwoLayerSpec;
use crate::topology::Topology;

/// The inter-cluster bandwidths (MByte/s per link) swept in Figure 3.
pub const PAPER_BANDWIDTHS_MBS: [f64; 6] = [6.3, 2.6, 0.95, 0.3, 0.1, 0.03];

/// The one-way inter-cluster latencies (ms) swept in Figure 3.
pub const PAPER_LATENCIES_MS: [f64; 7] = [0.5, 1.3, 3.3, 10.0, 30.0, 100.0, 300.0];

/// Figure 1 / default multi-cluster operating point: 0.5 ms, 6.0 MByte/s.
pub const FIG1_LATENCY_MS: f64 = 0.5;
/// Figure 1 / default multi-cluster operating point bandwidth.
pub const FIG1_BANDWIDTH_MBS: f64 = 6.0;

/// Figure 4 (left) fixes latency at 3.3 ms while sweeping bandwidth.
pub const FIG4_FIXED_LATENCY_MS: f64 = 3.3;
/// Figure 4 (right) fixes bandwidth at 0.9 MByte/s while sweeping latency.
pub const FIG4_FIXED_BANDWIDTH_MBS: f64 = 0.9;

/// The DAS experimentation machine: `clusters` × `procs_per_cluster` Pentium
/// Pro nodes, Myrinet inside clusters, and a fully-connected WAN with the
/// given per-link latency and bandwidth.
///
/// # Examples
///
/// ```
/// use numagap_net::das_spec;
///
/// let spec = das_spec(4, 8, 10.0, 1.0);
/// assert_eq!(spec.topology.label(), "4x8");
/// ```
pub fn das_spec(
    clusters: usize,
    procs_per_cluster: usize,
    wan_latency_ms: f64,
    wan_bandwidth_mbs: f64,
) -> TwoLayerSpec {
    TwoLayerSpec::new(Topology::symmetric(clusters, procs_per_cluster))
        .inter(LinkParams::wide_area(wan_latency_ms, wan_bandwidth_mbs))
}

/// A single all-Myrinet cluster of `nprocs` processors — the uniform-access
/// upper-bound machine speedups are reported relative to.
pub fn uniform_spec(nprocs: usize) -> TwoLayerSpec {
    TwoLayerSpec::new(Topology::uniform(nprocs))
}

/// The intra-cluster gap reference: how many times slower each WAN setting is
/// than Myrinet, `(latency_gap, bandwidth_gap)`.
pub fn numa_gap(spec: &TwoLayerSpec) -> (f64, f64) {
    let lat_gap = spec.inter.latency.as_secs_f64() / spec.intra.latency.as_secs_f64();
    let bw_gap = spec.intra.mbytes_per_sec() / spec.inter.mbytes_per_sec();
    (lat_gap, bw_gap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn das_4x8_shape() {
        let spec = das_spec(4, 8, 0.5, 6.0);
        assert_eq!(spec.topology.nprocs(), 32);
        assert_eq!(spec.topology.nclusters(), 4);
        assert!((spec.inter.mbytes_per_sec() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_has_no_wan() {
        let spec = uniform_spec(32);
        assert_eq!(spec.topology.nclusters(), 1);
    }

    #[test]
    fn gap_is_relative_to_myrinet() {
        // 20 us vs 300 ms latency is a gap of 15000; 50 vs 0.03 MB/s is ~1667.
        let spec = das_spec(4, 8, 300.0, 0.03);
        let (lat_gap, bw_gap) = numa_gap(&spec);
        assert!((lat_gap - 15_000.0).abs() < 1.0);
        assert!((bw_gap - 1666.7).abs() < 1.0);
    }

    #[test]
    fn paper_grid_dimensions() {
        assert_eq!(PAPER_BANDWIDTHS_MBS.len(), 6);
        assert_eq!(PAPER_LATENCIES_MS.len(), 7);
    }
}
