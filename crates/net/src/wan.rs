//! Wide-area topology variants and deterministic route computation.
//!
//! The DAS wide-area network was fully connected, which the paper notes is
//! why more/smaller clusters *gained* bisection bandwidth: "In a larger
//! system it is likely that the topology is less perfect. This effect will
//! then diminish, and disappear in star, ring, or bus topologies." This
//! module provides those less-perfect topologies so that claim can be
//! tested: inter-cluster messages are routed over one or more wide-area
//! hops, passing through every intermediate gateway or switch.
//!
//! # Routing nodes
//!
//! Routes are sequences of *node* ids. Nodes `0..nclusters` are the cluster
//! gateways; the fat tree additionally introduces virtual switch nodes with
//! ids `nclusters..nnodes` (edge switches first, then core switches). Every
//! node on a route charges its store-and-forward CPU, and every directed
//! node pair traversed is an independent FIFO wide-area link.
//!
//! # Determinism
//!
//! Route computation is a pure function of `(shape, src, dst, nclusters)`:
//! * torus shapes use dimension-ordered routing (X, then Y, then Z), each
//!   dimension taking the shorter way around and breaking exact ties toward
//!   the neighbour with the smaller node id (the smaller directed link id);
//! * the fat tree uses up/down routing with the core switch chosen by
//!   destination (`dst % pod`), the deterministic stand-in for ECMP hashing;
//! * the dragonfly takes the minimal group path through the two designated
//!   gateway members of the global link between the groups.
//!
//! No topology ever revisits a node, so routes are cycle-free by
//! construction (asserted in tests across every shape and pair).

/// How the clusters' gateways are wired together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WanTopology {
    /// Every cluster pair has a dedicated link (the DAS; the default).
    #[default]
    FullMesh,
    /// All traffic passes through a hub cluster's gateway (a star). Links
    /// exist only between the hub and each other cluster.
    Star {
        /// The hub cluster index.
        hub: usize,
    },
    /// Clusters form a ring; messages travel the shorter way around.
    Ring,
    /// Clusters form a line (a ring with the wrap link cut); messages walk
    /// monotonically toward the destination.
    Line,
    /// A 2D torus (`x * y == nclusters`), dimension-ordered routing.
    Torus2d {
        /// Extent of the X dimension.
        x: usize,
        /// Extent of the Y dimension.
        y: usize,
    },
    /// A 3D torus à la APENet (`x * y * z == nclusters`), dimension-ordered
    /// routing.
    Torus3d {
        /// Extent of the X dimension.
        x: usize,
        /// Extent of the Y dimension.
        y: usize,
        /// Extent of the Z dimension.
        z: usize,
    },
    /// A two-level fat tree: clusters are grouped into pods of `pod` leaves
    /// under one virtual edge switch each, and `pod` virtual core switches
    /// join the pods (as many uplinks per edge switch as downlinks — full
    /// bisection, hence *fat*). Same-pod traffic bounces off the edge
    /// switch; cross-pod traffic goes leaf → edge → core → edge → leaf,
    /// with the core chosen by `dst % pod`.
    FatTree {
        /// Leaves (clusters) per pod; also the number of core switches.
        pod: usize,
    },
    /// A dragonfly: clusters are divided into `groups` equal groups, fully
    /// connected inside a group, with one global link between each group
    /// pair landing on designated gateway members (`dst_group % group_size`
    /// on the source side and vice versa). Minimal routing: at most
    /// local → global → local.
    Dragonfly {
        /// Number of groups (`nclusters % groups == 0`).
        groups: usize,
    },
}

/// Steps `from` one position toward `to` on a cyclic dimension of extent
/// `s`, the shorter way around; an exact tie (antipodal on an even extent)
/// goes toward the neighbour with the smaller coordinate. Returns the next
/// coordinate.
fn torus_step(from: usize, to: usize, s: usize) -> usize {
    debug_assert!(from != to);
    let fwd = (to + s - from) % s;
    let bwd = s - fwd;
    let next_fwd = (from + 1) % s;
    let next_bwd = (from + s - 1) % s;
    if fwd < bwd || (fwd == bwd && next_fwd < next_bwd) {
        next_fwd
    } else {
        next_bwd
    }
}

impl WanTopology {
    /// The sequence of nodes a message from cluster `src` to cluster `dst`
    /// visits, inclusive of both endpoints. Intermediate entries are
    /// cluster gateways, or virtual switch ids `>= nclusters` for the fat
    /// tree. `src != dst`.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`, either index is out of range, or the shape
    /// fails [`WanTopology::validate`] for `nclusters`.
    pub fn route(&self, src: usize, dst: usize, nclusters: usize) -> Vec<usize> {
        assert!(src != dst, "route requires distinct clusters");
        assert!(
            src < nclusters && dst < nclusters,
            "cluster index out of range"
        );
        if let Err(e) = self.validate(nclusters) {
            panic!("invalid wan topology: {e}");
        }
        match *self {
            WanTopology::FullMesh => vec![src, dst],
            WanTopology::Star { hub } => {
                if src == hub || dst == hub {
                    vec![src, dst]
                } else {
                    vec![src, hub, dst]
                }
            }
            WanTopology::Ring => {
                let mut path = vec![src];
                let mut at = src;
                while at != dst {
                    at = torus_step(at, dst, nclusters);
                    path.push(at);
                }
                path
            }
            WanTopology::Line => {
                let mut path = vec![src];
                let mut at = src;
                while at != dst {
                    at = if dst > at { at + 1 } else { at - 1 };
                    path.push(at);
                }
                path
            }
            WanTopology::Torus2d { x, .. } => {
                let mut path = vec![src];
                let (mut cx, mut cy) = (src % x, src / x);
                let (dx, dy) = (dst % x, dst / x);
                while cx != dx {
                    cx = torus_step(cx, dx, x);
                    path.push(cy * x + cx);
                }
                let y_ext = nclusters / x;
                while cy != dy {
                    cy = torus_step(cy, dy, y_ext);
                    path.push(cy * x + cx);
                }
                path
            }
            WanTopology::Torus3d { x, y, .. } => {
                let mut path = vec![src];
                let (mut cx, mut cy, mut cz) = (src % x, (src / x) % y, src / (x * y));
                let (dx, dy, dz) = (dst % x, (dst / x) % y, dst / (x * y));
                let z_ext = nclusters / (x * y);
                while cx != dx {
                    cx = torus_step(cx, dx, x);
                    path.push(cz * x * y + cy * x + cx);
                }
                while cy != dy {
                    cy = torus_step(cy, dy, y);
                    path.push(cz * x * y + cy * x + cx);
                }
                while cz != dz {
                    cz = torus_step(cz, dz, z_ext);
                    path.push(cz * x * y + cy * x + cx);
                }
                path
            }
            WanTopology::FatTree { pod } => {
                let npods = nclusters.div_ceil(pod);
                let edge = |leaf: usize| nclusters + leaf / pod;
                let core = |leaf: usize| nclusters + npods + leaf % pod;
                if src / pod == dst / pod {
                    vec![src, edge(src), dst]
                } else {
                    vec![src, edge(src), core(dst), edge(dst), dst]
                }
            }
            WanTopology::Dragonfly { groups } => {
                let gsize = nclusters / groups;
                let (g, h) = (src / gsize, dst / gsize);
                if g == h {
                    return vec![src, dst];
                }
                // The global link g<->h lands on member (h % gsize) of
                // group g and member (g % gsize) of group h.
                let a = g * gsize + h % gsize;
                let b = h * gsize + g % gsize;
                let mut path = vec![src];
                if a != src {
                    path.push(a);
                }
                path.push(b);
                if b != dst {
                    path.push(dst);
                }
                path
            }
        }
    }

    /// Number of wide-area hops between two clusters.
    pub fn hops(&self, src: usize, dst: usize, nclusters: usize) -> usize {
        self.route(src, dst, nclusters).len() - 1
    }

    /// Total routing nodes: the cluster gateways plus, for the fat tree,
    /// its virtual edge and core switches. Every per-node WAN resource
    /// (switch CPUs, directed links) is sized by this.
    pub fn nnodes(&self, nclusters: usize) -> usize {
        match *self {
            WanTopology::FatTree { pod } => nclusters + nclusters.div_ceil(pod) + pod,
            _ => nclusters,
        }
    }

    /// Checks the shape against a cluster count. `Ok` means every
    /// [`WanTopology::route`] call over those clusters is well-defined.
    ///
    /// # Errors
    ///
    /// A human-readable description of the mismatch (hub out of range,
    /// torus extents not matching the cluster count, ...).
    pub fn validate(&self, nclusters: usize) -> Result<(), String> {
        match *self {
            WanTopology::FullMesh | WanTopology::Ring | WanTopology::Line => Ok(()),
            WanTopology::Star { hub } => {
                if hub < nclusters {
                    Ok(())
                } else {
                    Err(format!(
                        "star hub {hub} out of range ({nclusters} clusters)"
                    ))
                }
            }
            WanTopology::Torus2d { x, y } => {
                if x < 2 || y < 2 {
                    Err(format!("torus extents must be at least 2, got {x}x{y}"))
                } else if x * y != nclusters {
                    Err(format!(
                        "torus {x}x{y} needs {} clusters, machine has {nclusters}",
                        x * y
                    ))
                } else {
                    Ok(())
                }
            }
            WanTopology::Torus3d { x, y, z } => {
                if x < 2 || y < 2 || z < 2 {
                    Err(format!("torus extents must be at least 2, got {x}x{y}x{z}"))
                } else if x * y * z != nclusters {
                    Err(format!(
                        "torus {x}x{y}x{z} needs {} clusters, machine has {nclusters}",
                        x * y * z
                    ))
                } else {
                    Ok(())
                }
            }
            WanTopology::FatTree { pod } => {
                if pod < 2 {
                    Err(format!("fat-tree pod size must be at least 2, got {pod}"))
                } else if pod > nclusters {
                    Err(format!(
                        "fat-tree pod size {pod} exceeds the {nclusters} clusters"
                    ))
                } else {
                    Ok(())
                }
            }
            WanTopology::Dragonfly { groups } => {
                if groups < 2 {
                    Err(format!("dragonfly needs at least 2 groups, got {groups}"))
                } else if !nclusters.is_multiple_of(groups) {
                    Err(format!(
                        "dragonfly group count {groups} must divide the \
                         {nclusters} clusters evenly"
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Parses the CLI form: `mesh` (also `full`, `full-mesh`), `star[:H]`,
    /// `ring`, `line`, `torus:XxY`, `torus:XxYxZ`, `fattree[:P]` (also
    /// `fat-tree`), `dragonfly[:G]`.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed shape string. Shape
    /// *fit* against a machine is checked separately by
    /// [`WanTopology::validate`].
    pub fn parse(s: &str) -> Result<WanTopology, String> {
        let lower = s.to_ascii_lowercase();
        let (name, arg) = match lower.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (lower.as_str(), None),
        };
        let num = |what: &str, v: &str| -> Result<usize, String> {
            v.parse::<usize>()
                .map_err(|_| format!("{what} must be a number, got '{v}'"))
        };
        let no_arg = |shape: &str| -> Result<(), String> {
            match arg {
                None => Ok(()),
                Some(a) => Err(format!("{shape} takes no ':{a}' argument")),
            }
        };
        match name {
            "mesh" | "full" | "full-mesh" | "fullmesh" => {
                no_arg(name)?;
                Ok(WanTopology::FullMesh)
            }
            "ring" => {
                no_arg("ring")?;
                Ok(WanTopology::Ring)
            }
            "line" => {
                no_arg("line")?;
                Ok(WanTopology::Line)
            }
            "star" => Ok(WanTopology::Star {
                hub: match arg {
                    Some(a) => num("star hub", a)?,
                    None => 0,
                },
            }),
            "torus" => {
                let a = arg.ok_or_else(|| {
                    "torus needs extents like torus:2x2 or torus:2x2x2".to_string()
                })?;
                let dims = a
                    .split('x')
                    .map(|d| num("torus extent", d))
                    .collect::<Result<Vec<usize>, String>>()?;
                match dims[..] {
                    [x, y] => Ok(WanTopology::Torus2d { x, y }),
                    [x, y, z] => Ok(WanTopology::Torus3d { x, y, z }),
                    _ => Err(format!(
                        "torus takes 2 or 3 extents (torus:XxY or torus:XxYxZ), got '{a}'"
                    )),
                }
            }
            "fattree" | "fat-tree" => Ok(WanTopology::FatTree {
                pod: match arg {
                    Some(a) => num("fat-tree pod size", a)?,
                    None => 2,
                },
            }),
            "dragonfly" => Ok(WanTopology::Dragonfly {
                groups: match arg {
                    Some(a) => num("dragonfly group count", a)?,
                    None => 2,
                },
            }),
            other => Err(format!(
                "unknown topology '{other}' (expected mesh, star[:H], ring, line, \
                 torus:XxY, torus:XxYxZ, fattree[:P], dragonfly[:G])"
            )),
        }
    }

    /// The canonical CLI flag value reproducing this shape through
    /// [`WanTopology::parse`].
    pub fn flag(&self) -> String {
        match *self {
            WanTopology::FullMesh => "mesh".to_string(),
            WanTopology::Star { hub } => format!("star:{hub}"),
            WanTopology::Ring => "ring".to_string(),
            WanTopology::Line => "line".to_string(),
            WanTopology::Torus2d { x, y } => format!("torus:{x}x{y}"),
            WanTopology::Torus3d { x, y, z } => format!("torus:{x}x{y}x{z}"),
            WanTopology::FatTree { pod } => format!("fattree:{pod}"),
            WanTopology::Dragonfly { groups } => format!("dragonfly:{groups}"),
        }
    }

    /// Human-readable name.
    pub fn label(&self) -> String {
        match *self {
            WanTopology::FullMesh => "full-mesh".to_string(),
            WanTopology::Star { hub } => format!("star(hub={hub})"),
            WanTopology::Ring => "ring".to_string(),
            WanTopology::Line => "line".to_string(),
            WanTopology::Torus2d { x, y } => format!("torus({x}x{y})"),
            WanTopology::Torus3d { x, y, z } => format!("torus({x}x{y}x{z})"),
            WanTopology::FatTree { pod } => format!("fat-tree(pod={pod})"),
            WanTopology::Dragonfly { groups } => format!("dragonfly(groups={groups})"),
        }
    }
}

/// The position of an in-flight message along its wide-area route.
///
/// The network books a multi-hop transfer by advancing a cursor over the
/// route's directed links in order — each `advance` yields the next
/// `(from, to)` node pair to charge (switch CPU, then the link's FIFO
/// interval list). Because the kernel flushes every same-instant send in
/// canonical `(departure, rank, send index)` order, the sequence of cursor
/// advances — and therefore every per-hop booking — is a pure function of
/// application behavior.
///
/// # Examples
///
/// ```
/// use numagap_net::{RouteCursor, WanTopology};
///
/// let route = WanTopology::Ring.route(0, 2, 4);
/// let mut cursor = RouteCursor::new(&route);
/// assert_eq!(cursor.hops_remaining(), 2);
/// assert_eq!(cursor.advance(), Some((0, 1)));
/// assert_eq!(cursor.at(), 1);
/// assert_eq!(cursor.advance(), Some((1, 2)));
/// assert_eq!(cursor.advance(), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteCursor<'a> {
    route: &'a [usize],
    pos: usize,
}

impl<'a> RouteCursor<'a> {
    /// Wraps a route (as produced by [`WanTopology::route`]). The cursor
    /// borrows it: the network resolves each cluster pair's route once and
    /// every message of the pair walks that same slice.
    ///
    /// # Panics
    ///
    /// Panics on an empty route.
    pub fn new(route: &'a [usize]) -> Self {
        assert!(!route.is_empty(), "a route visits at least one node");
        RouteCursor { route, pos: 0 }
    }

    /// The node the message currently sits at.
    pub fn at(&self) -> usize {
        self.route[self.pos]
    }

    /// Directed links still to traverse.
    pub fn hops_remaining(&self) -> usize {
        self.route.len() - 1 - self.pos
    }

    /// Moves over the next directed link, returning `(from, to)`, or `None`
    /// once the message has reached the final node.
    pub fn advance(&mut self) -> Option<(usize, usize)> {
        if self.pos + 1 >= self.route.len() {
            return None;
        }
        let link = (self.route[self.pos], self.route[self.pos + 1]);
        self.pos += 1;
        Some(link)
    }

    /// The full route the cursor walks.
    pub fn route(&self) -> &'a [usize] {
        self.route
    }
}

/// Every route a network has needed so far, resolved once per ordered
/// cluster pair into one flat arena.
///
/// Filled on first use, not up front: a 64-cluster machine has 4 032
/// ordered pairs and a short run touches few of them, so building the
/// network stays O(pairs) in zeroed memory and O(1) in allocations. A
/// route is a pure function of `(shape, src, dst, nclusters)`; the table is
/// bound to one shape and cluster count, neither of which a
/// [`reset`](crate::TwoLayerNetwork::reset) changes, so it outlives every
/// run on the machine.
#[derive(Debug)]
pub(crate) struct RouteTable {
    shape: WanTopology,
    nclusters: usize,
    /// `(offset, len)` into `nodes`, indexed `src * nclusters + dst`;
    /// `len == 0` until the pair is first routed.
    spans: Vec<(u32, u32)>,
    nodes: Vec<usize>,
}

impl RouteTable {
    pub(crate) fn new(shape: WanTopology, nclusters: usize) -> Self {
        RouteTable {
            shape,
            nclusters,
            spans: vec![(0, 0); nclusters * nclusters],
            nodes: Vec::new(),
        }
    }

    /// The route from cluster `src` to cluster `dst`, as
    /// [`WanTopology::route`] computes it (and with its panics, on the
    /// pair's first use).
    pub(crate) fn resolve(&mut self, src: usize, dst: usize) -> &[usize] {
        let span = &mut self.spans[src * self.nclusters + dst];
        if span.1 == 0 {
            let route = self.shape.route(src, dst, self.nclusters);
            let at = |n: usize| u32::try_from(n).expect("route arena fits u32 offsets");
            *span = (at(self.nodes.len()), at(route.len()));
            self.nodes.extend_from_slice(&route);
        }
        let (offset, len) = *span;
        &self.nodes[offset as usize..][..len as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mesh_is_single_hop() {
        let t = WanTopology::FullMesh;
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    assert_eq!(t.route(a, b, 4), vec![a, b]);
                    assert_eq!(t.hops(a, b, 4), 1);
                }
            }
        }
    }

    #[test]
    fn star_routes_via_hub() {
        let t = WanTopology::Star { hub: 0 };
        assert_eq!(t.route(1, 3, 4), vec![1, 0, 3]);
        assert_eq!(t.route(0, 2, 4), vec![0, 2]);
        assert_eq!(t.route(2, 0, 4), vec![2, 0]);
        assert_eq!(t.hops(1, 2, 4), 2);
    }

    #[test]
    fn ring_takes_the_short_way() {
        let t = WanTopology::Ring;
        assert_eq!(t.route(0, 1, 6), vec![0, 1]);
        assert_eq!(t.route(0, 5, 6), vec![0, 5], "backward is shorter");
        assert_eq!(t.route(0, 2, 6), vec![0, 1, 2]);
        assert_eq!(t.route(4, 0, 6), vec![4, 5, 0]);
        assert_eq!(t.hops(0, 3, 6), 3, "antipodal distance");
    }

    #[test]
    fn ring_of_two_is_direct() {
        let t = WanTopology::Ring;
        assert_eq!(t.route(0, 1, 2), vec![0, 1]);
        assert_eq!(t.route(1, 0, 2), vec![1, 0]);
    }

    #[test]
    fn ring_antipodal_tie_goes_toward_the_smaller_neighbour() {
        // On a 4-ring, 1 -> 3 is two hops either way; the tie goes through
        // node 0 (smaller than node 2).
        assert_eq!(WanTopology::Ring.route(1, 3, 4), vec![1, 0, 3]);
        assert_eq!(WanTopology::Ring.route(3, 1, 4), vec![3, 0, 1]);
    }

    #[test]
    fn line_walks_monotonically() {
        let t = WanTopology::Line;
        assert_eq!(t.route(0, 3, 4), vec![0, 1, 2, 3]);
        assert_eq!(t.route(3, 1, 4), vec![3, 2, 1]);
        assert_eq!(t.hops(0, 3, 4), 3, "no wrap link on a line");
    }

    #[test]
    fn torus2d_routes_dimension_ordered() {
        // 3x2: ids 0..2 on row 0, 3..5 on row 1.
        let t = WanTopology::Torus2d { x: 3, y: 2 };
        assert_eq!(t.route(0, 4, 6), vec![0, 1, 4], "X first, then Y");
        assert_eq!(t.route(0, 2, 6), vec![0, 2], "wraps the short way in X");
        assert_eq!(t.route(5, 0, 6), vec![5, 3, 0]);
    }

    #[test]
    fn torus3d_routes_dimension_ordered() {
        // 2x2x2: bit 0 = X, bit 1 = Y, bit 2 = Z.
        let t = WanTopology::Torus3d { x: 2, y: 2, z: 2 };
        assert_eq!(t.route(0, 7, 8), vec![0, 1, 3, 7]);
        assert_eq!(t.route(7, 0, 8), vec![7, 6, 4, 0]);
        assert_eq!(t.hops(0, 7, 8), 3, "one hop per differing dimension");
        assert_eq!(t.route(2, 3, 8), vec![2, 3]);
    }

    #[test]
    fn fat_tree_routes_up_down_through_virtual_switches() {
        // 4 clusters, pod 2: edges 4 (pod 0) and 5 (pod 1), cores 6 and 7.
        let t = WanTopology::FatTree { pod: 2 };
        assert_eq!(t.nnodes(4), 8);
        assert_eq!(
            t.route(0, 1, 4),
            vec![0, 4, 1],
            "same pod bounces off the edge"
        );
        assert_eq!(t.route(0, 2, 4), vec![0, 4, 6, 5, 2], "core dst%pod = 6");
        assert_eq!(t.route(0, 3, 4), vec![0, 4, 7, 5, 3], "core dst%pod = 7");
        assert_eq!(t.route(3, 0, 4), vec![3, 5, 6, 4, 0]);
        assert_eq!(t.hops(0, 2, 4), 4);
    }

    #[test]
    fn dragonfly_routes_through_group_gateways() {
        // 6 clusters, 2 groups of 3: the 0<->1 global link lands on member
        // 1%3=1 of group 0 (node 1) and member 0%3=0 of group 1 (node 3).
        let t = WanTopology::Dragonfly { groups: 2 };
        assert_eq!(t.route(0, 4, 6), vec![0, 1, 3, 4]);
        assert_eq!(t.route(1, 3, 6), vec![1, 3], "gateway to gateway is direct");
        assert_eq!(t.route(0, 2, 6), vec![0, 2], "groups are fully connected");
        assert_eq!(t.route(2, 3, 6), vec![2, 1, 3], "local leg, then global");
    }

    #[test]
    fn routes_are_cycle_free_and_deterministic_for_every_shape() {
        let shapes: Vec<(WanTopology, usize)> = vec![
            (WanTopology::FullMesh, 8),
            (WanTopology::Star { hub: 3 }, 8),
            (WanTopology::Ring, 8),
            (WanTopology::Line, 8),
            (WanTopology::Torus2d { x: 4, y: 2 }, 8),
            (WanTopology::Torus3d { x: 2, y: 2, z: 2 }, 8),
            (WanTopology::FatTree { pod: 3 }, 8),
            (WanTopology::Dragonfly { groups: 4 }, 8),
        ];
        for (shape, n) in shapes {
            shape.validate(n).expect("shape fits");
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    let route = shape.route(a, b, n);
                    assert_eq!(route, shape.route(a, b, n), "{shape:?} {a}->{b}");
                    assert_eq!(route.first(), Some(&a));
                    assert_eq!(route.last(), Some(&b));
                    let mut seen = route.clone();
                    seen.sort_unstable();
                    seen.dedup();
                    assert_eq!(
                        seen.len(),
                        route.len(),
                        "{shape:?} {a}->{b} revisits a node"
                    );
                    for &node in &route {
                        assert!(node < shape.nnodes(n), "{shape:?} node {node} out of range");
                    }
                }
            }
        }
    }

    #[test]
    fn validate_catches_shape_mismatches() {
        assert!(WanTopology::Star { hub: 4 }.validate(4).is_err());
        assert!(WanTopology::Torus2d { x: 3, y: 2 }.validate(4).is_err());
        assert!(WanTopology::Torus2d { x: 1, y: 4 }.validate(4).is_err());
        assert!(WanTopology::Torus2d { x: 2, y: 2 }.validate(4).is_ok());
        assert!(WanTopology::Torus3d { x: 2, y: 2, z: 2 }
            .validate(8)
            .is_ok());
        assert!(WanTopology::Torus3d { x: 2, y: 2, z: 2 }
            .validate(4)
            .is_err());
        assert!(WanTopology::FatTree { pod: 1 }.validate(4).is_err());
        assert!(WanTopology::FatTree { pod: 8 }.validate(4).is_err());
        assert!(WanTopology::Dragonfly { groups: 3 }.validate(4).is_err());
        assert!(WanTopology::Dragonfly { groups: 2 }.validate(4).is_ok());
        assert!(WanTopology::Ring.validate(1).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid wan topology")]
    fn route_panics_on_invalid_shape() {
        let _ = WanTopology::Torus2d { x: 3, y: 3 }.route(0, 1, 4);
    }

    #[test]
    fn parse_round_trips_through_flag() {
        let shapes = [
            WanTopology::FullMesh,
            WanTopology::Star { hub: 2 },
            WanTopology::Ring,
            WanTopology::Line,
            WanTopology::Torus2d { x: 2, y: 2 },
            WanTopology::Torus3d { x: 2, y: 2, z: 2 },
            WanTopology::FatTree { pod: 4 },
            WanTopology::Dragonfly { groups: 2 },
        ];
        for shape in shapes {
            assert_eq!(WanTopology::parse(&shape.flag()), Ok(shape));
        }
    }

    #[test]
    fn parse_accepts_aliases_and_defaults() {
        assert_eq!(WanTopology::parse("full-mesh"), Ok(WanTopology::FullMesh));
        assert_eq!(WanTopology::parse("FULL"), Ok(WanTopology::FullMesh));
        assert_eq!(WanTopology::parse("star"), Ok(WanTopology::Star { hub: 0 }));
        assert_eq!(
            WanTopology::parse("fat-tree:3"),
            Ok(WanTopology::FatTree { pod: 3 })
        );
        assert_eq!(
            WanTopology::parse("dragonfly"),
            Ok(WanTopology::Dragonfly { groups: 2 })
        );
        assert_eq!(
            WanTopology::parse("torus:4x2"),
            Ok(WanTopology::Torus2d { x: 4, y: 2 })
        );
    }

    #[test]
    fn parse_rejects_malformed_shapes() {
        assert!(WanTopology::parse("bus").is_err());
        assert!(WanTopology::parse("torus").is_err());
        assert!(WanTopology::parse("torus:4").is_err());
        assert!(WanTopology::parse("torus:2x2x2x2").is_err());
        assert!(WanTopology::parse("star:x").is_err());
        assert!(WanTopology::parse("ring:3").is_err());
        assert!(WanTopology::parse("fattree:q").is_err());
    }

    #[test]
    #[should_panic(expected = "distinct clusters")]
    fn route_rejects_self() {
        let _ = WanTopology::FullMesh.route(1, 1, 4);
    }

    #[test]
    fn labels() {
        assert_eq!(WanTopology::FullMesh.label(), "full-mesh");
        assert_eq!(WanTopology::Star { hub: 2 }.label(), "star(hub=2)");
        assert_eq!(WanTopology::Ring.label(), "ring");
        assert_eq!(WanTopology::Line.label(), "line");
        assert_eq!(WanTopology::Torus2d { x: 4, y: 2 }.label(), "torus(4x2)");
        assert_eq!(
            WanTopology::Torus3d { x: 2, y: 2, z: 2 }.label(),
            "torus(2x2x2)"
        );
        assert_eq!(WanTopology::FatTree { pod: 2 }.label(), "fat-tree(pod=2)");
        assert_eq!(
            WanTopology::Dragonfly { groups: 2 }.label(),
            "dragonfly(groups=2)"
        );
    }

    #[test]
    fn cursor_walks_the_route() {
        let mut c = RouteCursor::new(&[2, 5, 0, 3]);
        assert_eq!(c.at(), 2);
        assert_eq!(c.hops_remaining(), 3);
        assert_eq!(c.advance(), Some((2, 5)));
        assert_eq!(c.advance(), Some((5, 0)));
        assert_eq!(c.at(), 0);
        assert_eq!(c.hops_remaining(), 1);
        assert_eq!(c.advance(), Some((0, 3)));
        assert_eq!(c.advance(), None);
        assert_eq!(c.route(), &[2, 5, 0, 3]);
    }

    #[test]
    fn route_table_resolves_each_pair_once_to_the_computed_route() {
        for (shape, n) in [
            (WanTopology::FullMesh, 4),
            (WanTopology::Ring, 6),
            (WanTopology::FatTree { pod: 2 }, 4),
            (WanTopology::Dragonfly { groups: 2 }, 6),
        ] {
            let mut table = RouteTable::new(shape, n);
            // Twice over, in an order that interleaves the pairs' arena
            // spans: the second pass must read, not append.
            for pass in 0..2 {
                for a in (0..n).rev() {
                    for b in (0..n).filter(|&b| b != a) {
                        assert_eq!(table.resolve(a, b), shape.route(a, b, n));
                    }
                }
                let filled: usize = table.spans.iter().map(|s| s.1 as usize).sum();
                assert_eq!(table.nodes.len(), filled, "{shape:?} pass {pass}");
            }
        }
    }

    #[test]
    fn single_node_cursor_is_immediately_done() {
        let mut c = RouteCursor::new(&[7]);
        assert_eq!(c.at(), 7);
        assert_eq!(c.hops_remaining(), 0);
        assert_eq!(c.advance(), None);
    }
}
