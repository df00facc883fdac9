//! Processor-to-cluster layout of a two-layer machine.

use numagap_sim::ProcId;

/// Which ranks live in which cluster.
///
/// Ranks are assigned to clusters contiguously: cluster 0 holds ranks
/// `0..s0`, cluster 1 holds `s0..s0+s1`, and so on — matching how the DAS
/// testbed numbered its nodes.
///
/// # Examples
///
/// ```
/// use numagap_net::Topology;
///
/// let topo = Topology::symmetric(4, 8);
/// assert_eq!(topo.nprocs(), 32);
/// assert_eq!(topo.cluster_of_rank(9), 1);
/// assert!(topo.is_inter(0, 31));
/// assert!(!topo.is_inter(8, 15));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    cluster_sizes: Vec<usize>,
    cluster_of: Vec<usize>,
    members: Vec<Vec<usize>>,
}

impl Topology {
    /// Builds a topology from explicit cluster sizes.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` is empty or any cluster is empty.
    pub fn new(sizes: &[usize]) -> Self {
        assert!(!sizes.is_empty(), "topology needs at least one cluster");
        assert!(
            sizes.iter().all(|&s| s > 0),
            "every cluster needs at least one processor"
        );
        let mut cluster_of = Vec::new();
        let mut members = Vec::with_capacity(sizes.len());
        let mut rank = 0;
        for (c, &size) in sizes.iter().enumerate() {
            let mut m = Vec::with_capacity(size);
            for _ in 0..size {
                cluster_of.push(c);
                m.push(rank);
                rank += 1;
            }
            members.push(m);
        }
        Topology {
            cluster_sizes: sizes.to_vec(),
            cluster_of,
            members,
        }
    }

    /// `clusters` clusters of `procs_per_cluster` processors each.
    pub fn symmetric(clusters: usize, procs_per_cluster: usize) -> Self {
        Topology::new(&vec![procs_per_cluster; clusters])
    }

    /// A single uniform cluster (the all-Myrinet baseline).
    pub fn uniform(nprocs: usize) -> Self {
        Topology::new(&[nprocs])
    }

    /// Total number of processors.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.cluster_of.len()
    }

    /// Number of clusters.
    #[inline]
    pub fn nclusters(&self) -> usize {
        self.cluster_sizes.len()
    }

    /// Cluster index of a rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[inline]
    pub fn cluster_of_rank(&self, rank: usize) -> usize {
        self.cluster_of[rank]
    }

    /// Cluster index of a process.
    #[inline]
    pub fn cluster_of(&self, p: ProcId) -> usize {
        self.cluster_of_rank(p.0)
    }

    /// Ranks belonging to a cluster, in ascending order.
    pub fn members(&self, cluster: usize) -> &[usize] {
        &self.members[cluster]
    }

    /// The designated first rank of a cluster (used as coordinator/gateway
    /// process by cluster-aware algorithms).
    pub fn cluster_root(&self, cluster: usize) -> usize {
        self.members[cluster][0]
    }

    /// Whether two ranks are in different clusters.
    pub fn is_inter(&self, a: usize, b: usize) -> bool {
        self.cluster_of[a] != self.cluster_of[b]
    }

    /// Size of each cluster.
    pub fn cluster_sizes(&self) -> &[usize] {
        &self.cluster_sizes
    }

    /// A compact `CxP` label like `4x8` when symmetric, or the explicit
    /// sizes joined with `+` (`8+8+4+2`) when asymmetric.
    pub fn label(&self) -> String {
        let first = self.cluster_sizes[0];
        if self.cluster_sizes.iter().all(|&s| s == first) {
            format!("{}x{}", self.nclusters(), first)
        } else {
            self.cluster_sizes
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join("+")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_layout() {
        let t = Topology::symmetric(4, 8);
        assert_eq!(t.nprocs(), 32);
        assert_eq!(t.nclusters(), 4);
        assert_eq!(t.cluster_of_rank(0), 0);
        assert_eq!(t.cluster_of_rank(7), 0);
        assert_eq!(t.cluster_of_rank(8), 1);
        assert_eq!(t.cluster_of_rank(31), 3);
        assert_eq!(t.members(2), &[16, 17, 18, 19, 20, 21, 22, 23]);
        assert_eq!(t.cluster_root(3), 24);
        assert_eq!(t.label(), "4x8");
    }

    #[test]
    fn asymmetric_layout() {
        let t = Topology::new(&[2, 3]);
        assert_eq!(t.nprocs(), 5);
        assert_eq!(t.members(1), &[2, 3, 4]);
        assert!(t.is_inter(1, 2));
        assert!(!t.is_inter(3, 4));
        assert_eq!(t.label(), "2+3");
    }

    #[test]
    fn uniform_is_single_cluster() {
        let t = Topology::uniform(16);
        assert_eq!(t.nclusters(), 1);
        assert!(!t.is_inter(0, 15));
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn rejects_empty() {
        let _ = Topology::new(&[]);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn rejects_empty_cluster() {
        let _ = Topology::new(&[4, 0]);
    }
}
