//! Shared application scaffolding: variants, results, deterministic RNG.

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which version of an application to run.
///
/// `Unoptimized` is the program as written for a uniform interconnect;
/// `Optimized` restructures the communication pattern to fit the two-layer
/// machine (the paper's Section 3.2 changes). FFT has no optimized variant —
/// the paper found none — so for FFT the two variants behave identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Uniform-network program: communication ignores the cluster structure.
    Unoptimized,
    /// Cluster-aware program: traffic over slow links is reduced or batched.
    Optimized,
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Variant::Unoptimized => write!(f, "unoptimized"),
            Variant::Optimized => write!(f, "optimized"),
        }
    }
}

/// What every application returns from each rank.
#[derive(Debug, Clone, PartialEq)]
pub struct RankOutput {
    /// Application-defined partial checksum; summing over ranks gives the
    /// run checksum, which must match the serial reference.
    pub checksum: f64,
    /// Application-defined work counter (nodes searched, interactions
    /// computed, ...) for sanity checks and load-balance reporting.
    pub work: u64,
}

impl RankOutput {
    /// A rank output with zero work.
    pub fn new(checksum: f64, work: u64) -> Self {
        RankOutput { checksum, work }
    }
}

/// Sums rank checksums into the run checksum.
pub fn total_checksum(outputs: &[RankOutput]) -> f64 {
    outputs.iter().map(|o| o.checksum).sum()
}

/// Total work across ranks.
pub fn total_work(outputs: &[RankOutput]) -> u64 {
    outputs.iter().map(|o| o.work).sum()
}

/// The deterministic RNG used for all workload generation.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A tiny deterministic 64-bit mix hash (splitmix64 finalizer); used to
/// derive state-dependent pseudo-random structure without carrying an RNG.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Relative difference between two floats, tolerant of zero.
pub fn rel_err(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(b.abs()).max(1e-30);
    (a - b).abs() / denom
}

/// Splits `n` items into `p` contiguous blocks; returns the `(start, end)` of
/// block `i` (end exclusive). Blocks differ in size by at most one.
pub fn block_range(n: usize, p: usize, i: usize) -> (usize, usize) {
    assert!(i < p, "block index out of range");
    let base = n / p;
    let extra = n % p;
    let start = i * base + i.min(extra);
    let len = base + usize::from(i < extra);
    (start, start + len)
}

/// Inverse of [`block_range`]: which block owns item `k`.
pub fn block_owner(n: usize, p: usize, k: usize) -> usize {
    assert!(k < n, "item index out of range");
    let base = n / p;
    let extra = n % p;
    let big = (base + 1) * extra; // items covered by the larger blocks
    if k < big {
        k / (base + 1)
    } else {
        extra + (k - big) / base.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_partition_is_consistent() {
        for n in [1usize, 5, 16, 31, 32, 100] {
            for p in [1usize, 2, 3, 7, 8, 32] {
                let mut seen = 0;
                for i in 0..p {
                    let (s, e) = block_range(n, p, i);
                    assert!(s <= e && e <= n);
                    for k in s..e {
                        assert_eq!(block_owner(n, p, k), i, "n={n} p={p} k={k}");
                        seen += 1;
                    }
                }
                assert_eq!(seen, n, "blocks must cover exactly once (n={n} p={p})");
            }
        }
    }

    #[test]
    fn block_sizes_balanced() {
        let sizes: Vec<usize> = (0..7)
            .map(|i| {
                let (s, e) = block_range(20, 7, i);
                e - s
            })
            .collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn mix64_spreads_bits() {
        // Not a statistical test, just a sanity check for distinctness.
        let vals: Vec<u64> = (0..100).map(mix64).collect();
        let mut dedup = vals.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 100);
    }

    #[test]
    fn rel_err_handles_zero() {
        assert_eq!(rel_err(0.0, 0.0), 0.0);
        assert!(rel_err(1.0, 1.01) < 0.011);
    }

    #[test]
    fn rng_is_deterministic() {
        use rand::Rng;
        let a: u64 = seeded_rng(7).gen();
        let b: u64 = seeded_rng(7).gen();
        assert_eq!(a, b);
    }

    #[test]
    fn variant_display() {
        assert_eq!(Variant::Unoptimized.to_string(), "unoptimized");
        assert_eq!(Variant::Optimized.to_string(), "optimized");
    }
}
