//! Collective-based application kernels (the paper's §6 claim that MagPIe
//! speeds *application kernels* up by up to 4×, not just isolated
//! operations).
//!
//! The kernel here is distributed **power iteration**: the dominant
//! eigenvalue of a dense matrix, computed as repeated matrix-vector products
//! with an `allgatherv` (to rebuild the full iterate) and an `allreduce`
//! (for the norm) per iteration — a typical collective-bound inner loop.
//! Running it with [`Algo::Flat`] vs [`Algo::ClusterAware`] collectives
//! isolates exactly what MagPIe buys a whole program.

use rand::Rng;

use numagap_rt::coll::{Algo, Coll};
use numagap_rt::Ctx;

use crate::common::{block_range, seeded_rng, RankOutput};

/// Power-iteration kernel configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerConfig {
    /// Matrix dimension.
    pub n: usize,
    /// Iterations.
    pub iterations: usize,
    /// Workload seed.
    pub seed: u64,
    /// Virtual nanoseconds per multiply-accumulate.
    pub mac_ns: f64,
}

impl PowerConfig {
    /// Test-scale instance.
    pub fn small() -> Self {
        PowerConfig {
            n: 128,
            iterations: 4,
            seed: 31,
            mac_ns: 20.0,
        }
    }

    /// Bench-scale instance.
    pub fn medium() -> Self {
        PowerConfig {
            n: 2048,
            iterations: 8,
            seed: 31,
            mac_ns: 20.0,
        }
    }

    /// Deterministic symmetric positive matrix (entries in (0, 1), boosted
    /// diagonal so the dominant eigenvalue is well separated).
    pub fn generate(&self) -> Vec<Vec<f64>> {
        let mut rng = seeded_rng(self.seed ^ 0x9072E);
        let n = self.n;
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in i..n {
                let v = rng.gen_range(0.0..1.0);
                a[i][j] = v;
                a[j][i] = v;
            }
            a[i][i] += n as f64 / 8.0;
        }
        a
    }
}

/// Serial reference: the same power iteration on one processor.
pub fn serial_power(cfg: &PowerConfig) -> f64 {
    let a = cfg.generate();
    let n = cfg.n;
    let mut x = vec![1.0f64; n];
    let mut eigen = 0.0;
    for _ in 0..cfg.iterations {
        let y: Vec<f64> = a
            .iter()
            .map(|row| row.iter().zip(&x).map(|(r, v)| r * v).sum())
            .collect();
        let norm: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        eigen = norm;
        x = y.into_iter().map(|v| v / norm).collect();
    }
    eigen
}

/// Runs the distributed kernel on one rank with the given collectives
/// algorithm. The checksum (on rank 0) is the dominant-eigenvalue estimate.
pub fn power_rank(ctx: &mut Ctx<'_>, cfg: &PowerConfig, algo: Algo) -> RankOutput {
    let n = cfg.n;
    let p = ctx.nprocs();
    let me = ctx.rank();
    let (lo, hi) = block_range(n, p, me);
    let a = cfg.generate();
    let my_rows = &a[lo..hi];
    let mut coll = Coll::new(13, algo);
    let mut x = vec![1.0f64; n];
    let mut eigen = 0.0;
    let mut macs: u64 = 0;

    for _ in 0..cfg.iterations {
        // Local slice of y = A x.
        let local: Vec<f64> = my_rows
            .iter()
            .map(|row| row.iter().zip(&x).map(|(r, v)| r * v).sum())
            .collect();
        macs += (my_rows.len() * n) as u64;
        ctx.compute_ns((my_rows.len() * n) as f64 * cfg.mac_ns);
        // Norm via allreduce of the local squared sum.
        let sq: f64 = local.iter().map(|v| v * v).sum();
        let norm = coll.allreduce(ctx, sq, |a, b| a + b).sqrt();
        eigen = norm;
        // Rebuild the full normalized iterate via allgatherv.
        let normalized: Vec<f64> = local.iter().map(|v| v / norm).collect();
        let slices = coll.allgatherv(ctx, normalized);
        x = slices.into_iter().flatten().collect();
        debug_assert_eq!(x.len(), n);
    }

    RankOutput::new(if me == 0 { eigen } else { 0.0 }, macs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::rel_err;
    use numagap_net::{das_spec, uniform_spec};
    use numagap_rt::Machine;

    #[test]
    fn serial_power_converges_to_dominant_eigenvalue() {
        // The boosted diagonal guarantees a dominant eigenvalue near
        // n/8 + sum of a row; just check monotone stabilization.
        let short = serial_power(&PowerConfig {
            iterations: 6,
            ..PowerConfig::small()
        });
        let long = serial_power(&PowerConfig {
            iterations: 12,
            ..PowerConfig::small()
        });
        assert!(rel_err(short, long) < 1e-6, "{short} vs {long}");
    }

    #[test]
    fn parallel_matches_serial_for_both_algorithms() {
        let cfg = PowerConfig::small();
        let expected = serial_power(&cfg);
        for algo in [Algo::Flat, Algo::ClusterAware] {
            for machine in [
                Machine::new(uniform_spec(4)),
                Machine::new(das_spec(2, 3, 2.0, 1.0)),
            ] {
                let cfg2 = cfg.clone();
                let report = machine
                    .run(move |ctx| power_rank(ctx, &cfg2, algo))
                    .unwrap();
                let got = report.results[0].checksum;
                assert!(
                    rel_err(got, expected) < 1e-9,
                    "{algo:?}: {got} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn cluster_aware_collectives_speed_the_kernel_up() {
        let cfg = PowerConfig::small();
        let run = |algo| {
            let cfg = cfg.clone();
            Machine::new(das_spec(4, 2, 10.0, 1.0))
                .run(move |ctx| power_rank(ctx, &cfg, algo))
                .unwrap()
        };
        let flat = run(Algo::Flat);
        let aware = run(Algo::ClusterAware);
        assert!(
            aware.elapsed < flat.elapsed,
            "aware {} vs flat {}",
            aware.elapsed,
            flat.elapsed
        );
    }
}
