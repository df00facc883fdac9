//! Barnes-Hut — O(n log n) N-body simulation (Blackston/Suel BSP style).
//!
//! Bodies are partitioned across processors by Morton order. Each iteration
//! is a BSP superstep: processors exchange region bounding boxes, *precompute*
//! which parts of their local octree every other processor will need (the
//! "locally essential" nodes under the opening criterion), exchange those
//! pseudo-bodies in one collective phase, then compute forces purely locally
//! — eliminating mid-computation stalls, exactly as the paper's rewritten
//! code does.
//!
//! * **Unoptimized**: per-recipient message combining only (all efficient BSP
//!   implementations do this) and a *strict barrier* between supersteps.
//! * **Optimized** (paper §3.2): messages to the same remote *cluster* are
//!   additionally combined into one wide-area message, dispatched by the
//!   receiving cluster's gateway processor; the strict barrier is relaxed
//!   into per-superstep sequence tags.

use std::sync::Arc;

use rand::Rng;

use numagap_rt::{Barrier, Ctx};
use numagap_sim::{Filter, Payload, Tag};

use crate::common::{block_range, seeded_rng, RankOutput, Variant};

/// A simulated body.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Body {
    /// Position.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
    /// Mass.
    pub mass: f64,
}

/// A point mass as shipped between processors: either a real body or the
/// center of mass of a pruned subtree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PseudoBody {
    /// Position (body position or subtree center of mass).
    pub pos: [f64; 3],
    /// Mass (body mass or subtree total).
    pub mass: f64,
}

const PSEUDO_BODY_BYTES: u64 = 32;
/// Gravitational softening (squared) keeping the toy integrator stable.
/// A force scales by `1 / t^1.5` with `t = d2 + SOFTENING_SQ`, computed as
/// `t * t.sqrt()`: `sqrt` is correctly rounded on every IEEE 754 host,
/// where libm's `pow` is neither exact nor fast.
const SOFTENING_SQ: f64 = 0.0025;

/// Barnes-Hut problem configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BarnesConfig {
    /// Number of bodies.
    pub n: usize,
    /// Iterations (supersteps).
    pub steps: usize,
    /// Opening criterion θ.
    pub theta: f64,
    /// Workload seed.
    pub seed: u64,
    /// Integrator timestep.
    pub dt: f64,
    /// Virtual nanoseconds per body-node interaction.
    pub interact_ns: f64,
    /// Virtual nanoseconds per tree node visited while building/walking.
    pub node_ns: f64,
    /// Ablation knob: keep the strict BSP barrier even in the optimized
    /// variant, isolating the message-combining optimization from the
    /// barrier-relaxation optimization.
    pub force_barrier: bool,
}

impl BarnesConfig {
    /// Test-scale instance.
    pub fn small() -> Self {
        BarnesConfig {
            n: 512,
            steps: 2,
            theta: 0.6,
            seed: 23,
            dt: 0.01,
            interact_ns: 150.0,
            node_ns: 200.0,
            force_barrier: false,
        }
    }

    /// Bench-scale instance (grain calibrated toward the paper's 64K-body
    /// run: ~0.15 s of force evaluation per superstep per processor).
    pub fn medium() -> Self {
        BarnesConfig {
            n: 4096,
            steps: 2,
            theta: 0.6,
            seed: 23,
            dt: 0.01,
            interact_ns: 4000.0,
            node_ns: 1000.0,
            force_barrier: false,
        }
    }

    /// The paper's problem size (64K bodies).
    pub fn paper() -> Self {
        BarnesConfig {
            n: 65_536,
            steps: 2,
            theta: 0.6,
            seed: 23,
            dt: 0.01,
            interact_ns: 150.0,
            node_ns: 200.0,
            force_barrier: false,
        }
    }

    /// Deterministic initial bodies, sorted into Morton order (the static
    /// partition the paper's code precomputes).
    pub fn generate(&self) -> Vec<Body> {
        let mut rng = seeded_rng(self.seed ^ 0xBA12E5);
        let mut bodies: Vec<Body> = (0..self.n)
            .map(|_| Body {
                pos: [
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                ],
                vel: [0.0; 3],
                mass: rng.gen_range(0.5..2.0),
            })
            .collect();
        // Stable like `sort_by_key`, one key per body instead of one per
        // comparison: bodies that share a key keep generation order.
        bodies.sort_by_cached_key(|b| morton_key(&b.pos, &[0.0; 3], 100.0));
        bodies
    }
}

/// 30-bit Morton (Z-order) key of a position within a cube.
pub fn morton_key(pos: &[f64; 3], origin: &[f64; 3], side: f64) -> u64 {
    let mut key = 0u64;
    let scale = 1024.0 / side;
    let q: [u64; 3] =
        std::array::from_fn(|k| (((pos[k] - origin[k]) * scale) as i64).clamp(0, 1023) as u64);
    for bit in 0..10 {
        for (k, qk) in q.iter().enumerate() {
            key |= ((qk >> bit) & 1) << (3 * bit + k);
        }
    }
    key
}

/// An axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bbox {
    /// Minimum corner.
    pub min: [f64; 3],
    /// Maximum corner.
    pub max: [f64; 3],
}

impl Bbox {
    /// The empty box (inverted bounds).
    pub fn empty() -> Self {
        Bbox {
            min: [f64::INFINITY; 3],
            max: [f64::NEG_INFINITY; 3],
        }
    }

    /// Expands to include a point.
    pub fn include(&mut self, p: &[f64; 3]) {
        for k in 0..3 {
            self.min[k] = self.min[k].min(p[k]);
            self.max[k] = self.max[k].max(p[k]);
        }
    }

    /// Union of two boxes.
    pub fn union(&self, o: &Bbox) -> Bbox {
        Bbox {
            min: [
                self.min[0].min(o.min[0]),
                self.min[1].min(o.min[1]),
                self.min[2].min(o.min[2]),
            ],
            max: [
                self.max[0].max(o.max[0]),
                self.max[1].max(o.max[1]),
                self.max[2].max(o.max[2]),
            ],
        }
    }

    /// Minimum distance from this box to a cubic cell `center ± half`.
    pub fn min_dist_to_cell(&self, center: &[f64; 3], half: f64) -> f64 {
        let mut d2 = 0.0;
        for k in 0..3 {
            let cell_lo = center[k] - half;
            let cell_hi = center[k] + half;
            let gap = if self.min[k] > cell_hi {
                self.min[k] - cell_hi
            } else if self.max[k] < cell_lo {
                cell_lo - self.max[k]
            } else {
                0.0
            };
            d2 += gap * gap;
        }
        d2.sqrt()
    }
}

/// One tree node. Nodes sit in depth-first pre-order, children in octant
/// order, so a node's subtree is the run of nodes from it up to `end`.
#[derive(Clone, Copy)]
struct OctNode {
    /// A leaf's body (merged at [`MAX_DEPTH`]); on an internal node the
    /// subtree's total mass and center of mass.
    com: [f64; 3],
    mass: f64,
    half: f64,
    /// The index just past this node's subtree: one past its own on a leaf.
    end: u32,
    center: [f64; 3],
}

const MAX_DEPTH: usize = 48;

impl OctNode {
    /// A leaf at index `at` holding `b`.
    fn leaf(center: [f64; 3], half: f64, b: &PseudoBody, at: usize) -> OctNode {
        OctNode {
            com: b.pos,
            mass: b.mass,
            half,
            end: u32::try_from(at + 1).expect("octree node count fits u32"),
            center,
        }
    }
}

fn octant(center: &[f64; 3], p: &[f64; 3]) -> usize {
    usize::from(p[0] > center[0])
        | usize::from(p[1] > center[1]) << 1
        | usize::from(p[2] > center[2]) << 2
}

fn child_center(center: &[f64; 3], half: f64, oct: usize) -> [f64; 3] {
    let h = half / 2.0;
    [
        center[0] + if oct & 1 != 0 { h } else { -h },
        center[1] + if oct & 2 != 0 { h } else { -h },
        center[2] + if oct & 4 != 0 { h } else { -h },
    ]
}

/// A Barnes-Hut octree over a set of point masses.
///
/// The tree is one array in depth-first order: each node is followed by
/// its children's subtrees in octant order and records where its own
/// subtree ends. A walk is then a loop over that one slice that steps to
/// `i + 1` to open a node and jumps to its `end` to skip it, visiting nodes
/// in exactly the order a recursive walk would, with no call stack and no
/// pointer chasing: every step moves forward through the one array.
///
/// The tree has the shape that inserting the points one at a time gives:
/// a cell holding one point is a leaf, a cell holding more is split, and
/// at the depth limit the points of a cell merge into one leaf in input
/// order. [`Octree::build`] gets that shape by a stable partition of the
/// points into octants, cell by cell.
pub struct Octree {
    /// The root first; empty for a tree over no points.
    tree: Vec<OctNode>,
    /// Number of tree nodes (for cost accounting).
    pub nodes: usize,
}

impl std::fmt::Debug for Octree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Octree")
            .field("nodes", &self.nodes)
            .finish()
    }
}

impl Octree {
    /// Builds a tree covering `bounds` from point masses.
    pub fn build(points: &[PseudoBody], bounds: &Bbox) -> Octree {
        let mut center = [0.0; 3];
        let mut half: f64 = 0.5;
        for k in 0..3 {
            center[k] = (bounds.min[k] + bounds.max[k]) / 2.0;
            half = half.max((bounds.max[k] - bounds.min[k]) / 2.0 + 1e-9);
        }
        let mut tree = Vec::with_capacity(2 * points.len());
        match points {
            [] => {}
            [b] => tree.push(OctNode::leaf(center, half, b, 0)),
            _ => {
                // The points, and as much room again for partitioning them.
                let mut buf = [points, points].concat();
                let (points, spare) = buf.split_at_mut(points.len());
                Self::split(&mut tree, points, spare, center, half, 0);
            }
        }
        let nodes = tree.len();
        Octree { tree, nodes }
    }

    /// Appends the subtree of the cell `center ± half` at `depth` that
    /// holds `points` (two or more, in input order), partitioning them by
    /// octant into `spare`, which its children then use the other way.
    fn split(
        tree: &mut Vec<OctNode>,
        points: &mut [PseudoBody],
        spare: &mut [PseudoBody],
        center: [f64; 3],
        half: f64,
        depth: usize,
    ) {
        // Pushed as a leaf of the first point: a merged leaf grows from it,
        // and a split node gets its sums and its end below.
        let at = tree.len();
        tree.push(OctNode::leaf(center, half, &points[0], at));
        if depth >= MAX_DEPTH {
            // Coincident points: merge masses (mass-weighted COM).
            let node = &mut tree[at];
            for b in &points[1..] {
                let total = node.mass + b.mass;
                for k in 0..3 {
                    node.com[k] = (node.com[k] * node.mass + b.pos[k] * b.mass) / total;
                }
                node.mass = total;
            }
            return;
        }
        // A stable counting sort by octant.
        let mut counts = [0usize; 8];
        for b in points.iter() {
            counts[octant(&center, &b.pos)] += 1;
        }
        let mut fill = [0usize; 8];
        for oct in 1..8 {
            fill[oct] = fill[oct - 1] + counts[oct - 1];
        }
        for b in points.iter() {
            let oct = octant(&center, &b.pos);
            spare[fill[oct]] = *b;
            fill[oct] += 1;
        }
        // The children in octant order, each summed into this node's mass
        // and center of mass once it is complete.
        let (mut mass, mut com) = (0.0, [0.0; 3]);
        let (mut points, mut spare) = (points, spare);
        for (oct, n) in counts.into_iter().enumerate() {
            if n == 0 {
                continue;
            }
            let (these, rest) = std::mem::take(&mut spare).split_at_mut(n);
            let (room, rest_room) = std::mem::take(&mut points).split_at_mut(n);
            (spare, points) = (rest, rest_room);
            let child = tree.len();
            let c = child_center(&center, half, oct);
            if n == 1 {
                tree.push(OctNode::leaf(c, half / 2.0, &these[0], child));
            } else {
                Self::split(tree, these, room, c, half / 2.0, depth + 1);
            }
            let child = &tree[child];
            mass += child.mass;
            for k in 0..3 {
                com[k] += child.com[k] * child.mass;
            }
        }
        for x in &mut com {
            *x /= mass;
        }
        let end = u32::try_from(tree.len()).expect("octree node count fits u32");
        let node = &mut tree[at];
        node.mass = mass;
        node.com = com;
        node.end = end;
    }

    /// Total mass in the tree.
    pub fn total_mass(&self) -> f64 {
        self.tree.first().map_or(0.0, |r| r.mass)
    }

    /// Gravitational force on a unit test point at `pos` (multiplied by the
    /// target's mass by the caller), using opening criterion `theta`.
    /// Returns `(force, interactions)`.
    pub fn force_at(&self, pos: &[f64; 3], theta: f64) -> ([f64; 3], u64) {
        let mut f = [0.0; 3];
        let mut count = 0;
        let mut at = 0;
        while let Some(node) = self.tree.get(at) {
            let dx = node.com[0] - pos[0];
            let dy = node.com[1] - pos[1];
            let dz = node.com[2] - pos[2];
            let d2 = dx * dx + dy * dy + dz * dz;
            // A leaf is a body; an internal node stands in for its subtree
            // once it is far enough away for its size.
            let s = 2.0 * node.half;
            let far_enough = s * s < theta * theta * d2;
            if node.end as usize != at + 1 && !far_enough {
                at += 1;
                continue;
            }
            at = node.end as usize;
            if d2 < 1e-18 {
                // The test point itself.
                continue;
            }
            count += 1;
            let t = d2 + SOFTENING_SQ;
            let inv = 1.0 / (t * t.sqrt());
            f[0] += node.mass * dx * inv;
            f[1] += node.mass * dy * inv;
            f[2] += node.mass * dz * inv;
        }
        (f, count)
    }

    /// Collects the *locally essential* pseudo-bodies this tree must export
    /// to a processor whose bodies lie in `region`: subtrees that the
    /// receiver could never open (by the conservative cell-distance MAC)
    /// are summarized by their center of mass; everything else descends to
    /// real bodies. Returns the visited-node count for cost accounting.
    pub fn essential_for(&self, region: &Bbox, theta: f64, out: &mut Vec<PseudoBody>) -> u64 {
        let mut visited = 0;
        let mut at = 0;
        while let Some(node) = self.tree.get(at) {
            visited += 1;
            let leaf = node.end as usize == at + 1;
            if !leaf {
                let d = region.min_dist_to_cell(&node.center, node.half);
                let s = 2.0 * node.half;
                let never_opened = d > 0.0 && s < theta * d;
                if !never_opened {
                    at += 1;
                    continue;
                }
            }
            out.push(PseudoBody {
                pos: node.com,
                mass: node.mass,
            });
            at = node.end as usize;
        }
        visited
    }
}

/// Direct O(n²) force summation — the accuracy oracle.
pub fn direct_forces(bodies: &[Body]) -> Vec<[f64; 3]> {
    let n = bodies.len();
    let mut forces = vec![[0.0; 3]; n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let dx = bodies[j].pos[0] - bodies[i].pos[0];
            let dy = bodies[j].pos[1] - bodies[i].pos[1];
            let dz = bodies[j].pos[2] - bodies[i].pos[2];
            let d2 = dx * dx + dy * dy + dz * dz;
            let t = d2 + SOFTENING_SQ;
            let inv = 1.0 / (t * t.sqrt());
            forces[i][0] += bodies[j].mass * dx * inv;
            forces[i][1] += bodies[j].mass * dy * inv;
            forces[i][2] += bodies[j].mass * dz * inv;
        }
    }
    forces
}

fn integrate(bodies: &mut [Body], forces: &[[f64; 3]], dt: f64) {
    for (b, f) in bodies.iter_mut().zip(forces) {
        for k in 0..3 {
            b.vel[k] += f[k] * dt; // force here is acceleration per unit mass times m_j; m_i cancels
            b.pos[k] += b.vel[k] * dt;
        }
    }
}

/// Serial direct-sum reference simulation (checksum after all steps).
pub fn serial_direct(cfg: &BarnesConfig) -> f64 {
    let mut bodies = cfg.generate();
    for _ in 0..cfg.steps {
        let forces = direct_forces(&bodies);
        integrate(&mut bodies, &forces, cfg.dt);
    }
    bodies_checksum(&bodies)
}

/// Serial Barnes-Hut reference (full tree, no partitioning).
pub fn serial_barnes(cfg: &BarnesConfig) -> f64 {
    let mut bodies = cfg.generate();
    for _ in 0..cfg.steps {
        let mut bounds = Bbox::empty();
        for b in &bodies {
            bounds.include(&b.pos);
        }
        let points: Vec<PseudoBody> = bodies
            .iter()
            .map(|b| PseudoBody {
                pos: b.pos,
                mass: b.mass,
            })
            .collect();
        let tree = Octree::build(&points, &bounds);
        let forces: Vec<[f64; 3]> = bodies
            .iter()
            .map(|b| tree.force_at(&b.pos, cfg.theta).0)
            .collect();
        integrate(&mut bodies, &forces, cfg.dt);
    }
    bodies_checksum(&bodies)
}

/// Position/velocity checksum.
pub fn bodies_checksum(bodies: &[Body]) -> f64 {
    bodies
        .iter()
        .map(|b| b.pos.iter().sum::<f64>() + b.vel.iter().sum::<f64>())
        .sum()
}

fn bbox_tag(step: usize) -> Tag {
    Tag::app(0x4000 + 0x10 * step as u32)
}
fn data_tag(step: usize) -> Tag {
    Tag::app(0x4001 + 0x10 * step as u32)
}
fn relay_tag(step: usize) -> Tag {
    Tag::app(0x4002 + 0x10 * step as u32)
}

/// One rank's essential sets for one step: a batch of pseudo-bodies for each
/// other rank, all in one buffer. Every message that carries a batch, sent
/// or relayed, shares the whole; its recipient reads its own range.
struct Exports {
    sender: u32,
    bodies: Vec<PseudoBody>,
    /// `ends[q]` is where rank `q`'s batch ends in `bodies`; it starts where
    /// rank `q - 1`'s ends. The sender's own batch is empty.
    ends: Vec<usize>,
}

impl Exports {
    fn batch(&self, q: usize) -> &[PseudoBody] {
        let start = if q == 0 { 0 } else { self.ends[q - 1] };
        &self.bodies[start..self.ends[q]]
    }

    /// The wire size of rank `q`'s batch.
    fn bytes(&self, q: usize) -> u64 {
        self.batch(q).len() as u64 * PSEUDO_BODY_BYTES
    }
}

/// Runs Barnes-Hut on one rank. `bodies` is the run's one
/// [`BarnesConfig::generate`]d input; a rank copies only its block of it.
pub fn barnes_rank(
    ctx: &mut Ctx<'_>,
    cfg: &BarnesConfig,
    bodies: &[Body],
    variant: Variant,
) -> RankOutput {
    let p = ctx.nprocs();
    let me = ctx.rank();
    let (lo, hi) = block_range(cfg.n, p, me);
    let mut mine: Vec<Body> = bodies[lo..hi].to_vec();
    let mut barrier = Barrier::new(7);
    let mut interactions: u64 = 0;

    for step in 0..cfg.steps {
        // ---- Superstep part 1: exchange region bounding boxes ----
        let mut region = Bbox::empty();
        for b in &mine {
            region.include(&b.pos);
        }
        let my_region: Payload = Arc::new((me as u32, region));
        for q in 0..p {
            if q != me {
                ctx.send_payload(q, bbox_tag(step), Arc::clone(&my_region), 48);
            }
        }
        let mut regions: Vec<Option<Bbox>> = vec![None; p];
        regions[me] = Some(region);
        for _ in 0..p - 1 {
            let msg = ctx.recv_tag(bbox_tag(step));
            let (src, bb) = *msg.expect_ref::<(u32, Bbox)>();
            regions[src as usize] = Some(bb);
        }
        let global = regions
            .iter()
            .map(|r| r.expect("all regions exchanged"))
            .fold(Bbox::empty(), |a, b| a.union(&b));

        // ---- Part 2: build local tree ----
        let points: Vec<PseudoBody> = mine
            .iter()
            .map(|b| PseudoBody {
                pos: b.pos,
                mass: b.mass,
            })
            .collect();
        // A rank suspended in a charge or a receive holds no tree: 32
        // of them are live at once, and a tree is the largest thing a rank
        // owns. So walk before charging and keep only the node count.
        let tree = Octree::build(&points, &global);
        let tree_nodes = tree.nodes;

        // ---- Part 3: precompute and ship essential sets ----
        let mut exports = Exports {
            sender: me as u32,
            bodies: Vec::new(),
            ends: Vec::with_capacity(p),
        };
        let mut walk_nodes = 0u64;
        for (q, reg) in regions.iter().enumerate() {
            if q != me {
                walk_nodes += tree.essential_for(
                    &reg.expect("exchange delivered every remote region"),
                    cfg.theta,
                    &mut exports.bodies,
                );
            }
            exports.ends.push(exports.bodies.len());
        }
        // The buffer outlives this step's sends until its last recipient has
        // read its range: keep no doubling slack in it.
        exports.bodies.shrink_to_fit();
        drop(tree);
        ctx.compute_ns(tree_nodes as f64 * cfg.node_ns);
        ctx.compute_ns(walk_nodes as f64 * cfg.node_ns);
        let exports = Arc::new(exports);
        let my_cluster = ctx.cluster();
        for q in (0..p).filter(|&q| q != me) {
            let direct =
                variant == Variant::Unoptimized || ctx.topology().cluster_of_rank(q) == my_cluster;
            if direct {
                ctx.send_payload(q, data_tag(step), exports.clone(), exports.bytes(q));
            }
        }
        if variant == Variant::Optimized {
            // One message per remote cluster, to its root, which relays each
            // member its batch.
            for c in (0..ctx.nclusters()).filter(|&c| c != my_cluster) {
                let members = ctx.topology().members(c);
                let bytes: u64 = members.iter().map(|&q| 8 + exports.bytes(q)).sum();
                let root = ctx.topology().cluster_root(c);
                ctx.send_payload(root, relay_tag(step), exports.clone(), bytes);
            }
        }
        drop(exports);

        // ---- Part 4: receive essential sets (serving relay duty) ----
        let csize = ctx.cluster_members().len();
        let relays_expected = match variant {
            Variant::Unoptimized => 0,
            Variant::Optimized => {
                if me == ctx.cluster_root() {
                    p - csize
                } else {
                    0
                }
            }
        };
        let mut imports: Vec<Arc<Exports>> = Vec::with_capacity(p - 1);
        let mut relays_left = relays_expected;
        let mut data_left = p - 1;
        while data_left > 0 || relays_left > 0 {
            let msg = ctx.recv(Filter::one_of(&[data_tag(step), relay_tag(step)]));
            let relayed = msg.tag == relay_tag(step);
            let sets = msg.expect_shared::<Exports>();
            if relayed {
                // A relay brings a batch for every rank of this cluster:
                // pass each on, and keep mine.
                relays_left -= 1;
                for i in 0..csize {
                    let dst = ctx.cluster_members()[i];
                    if dst != me {
                        ctx.send_payload(dst, data_tag(step), sets.clone(), sets.bytes(dst));
                    }
                }
            }
            imports.push(sets);
            data_left -= 1;
        }
        // Deterministic assembly order: identical trees in both variants.
        imports.sort_by_key(|sets| sets.sender);

        // ---- Part 5: build the locally essential tree and compute forces ----
        let mut let_points = points;
        let_points.reserve(imports.iter().map(|sets| sets.batch(me).len()).sum());
        for sets in imports {
            let_points.extend_from_slice(sets.batch(me));
        }
        let let_tree = Octree::build(&let_points, &global);
        drop(let_points);
        let let_nodes = let_tree.nodes;
        let mut forces = Vec::with_capacity(mine.len());
        let mut step_interactions = 0u64;
        for b in &mine {
            let (f, c) = let_tree.force_at(&b.pos, cfg.theta);
            step_interactions += c;
            forces.push(f);
        }
        // Gone before the charges, like the local tree.
        drop(let_tree);
        interactions += step_interactions;
        ctx.compute_ns((let_nodes.saturating_sub(tree_nodes)) as f64 * cfg.node_ns);
        ctx.compute_ns(step_interactions as f64 * cfg.interact_ns);

        // ---- Part 6: integrate; synchronize supersteps ----
        integrate(&mut mine, &forces, cfg.dt);
        ctx.compute_ns(mine.len() as f64 * 50.0);
        if variant == Variant::Unoptimized || cfg.force_barrier {
            // Strict BSP barrier. The optimized program relies on the
            // per-superstep tags instead ("relaxed by sequence numbers"),
            // unless the ablation knob forces the barrier back on.
            barrier.wait(ctx);
        }
    }

    RankOutput::new(bodies_checksum(&mine), interactions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{rel_err, total_checksum};
    use numagap_net::{das_spec, uniform_spec};
    use numagap_rt::Machine;

    #[test]
    fn octree_conserves_mass() {
        let cfg = BarnesConfig::small();
        let bodies = cfg.generate();
        let total: f64 = bodies.iter().map(|b| b.mass).sum();
        let mut bounds = Bbox::empty();
        for b in &bodies {
            bounds.include(&b.pos);
        }
        let points: Vec<PseudoBody> = bodies
            .iter()
            .map(|b| PseudoBody {
                pos: b.pos,
                mass: b.mass,
            })
            .collect();
        let tree = Octree::build(&points, &bounds);
        assert!(rel_err(tree.total_mass(), total) < 1e-12);
        assert!(tree.nodes >= bodies.len());
    }

    #[test]
    fn bh_force_approximates_direct_sum() {
        let cfg = BarnesConfig {
            n: 256,
            ..BarnesConfig::small()
        };
        let bodies = cfg.generate();
        let direct = direct_forces(&bodies);
        let mut bounds = Bbox::empty();
        for b in &bodies {
            bounds.include(&b.pos);
        }
        let points: Vec<PseudoBody> = bodies
            .iter()
            .map(|b| PseudoBody {
                pos: b.pos,
                mass: b.mass,
            })
            .collect();
        let tree = Octree::build(&points, &bounds);
        let mut err_sum = 0.0;
        for (b, df) in bodies.iter().zip(&direct) {
            let (f, _) = tree.force_at(&b.pos, cfg.theta);
            let mag: f64 = df.iter().map(|x| x * x).sum::<f64>().sqrt();
            let diff: f64 = f
                .iter()
                .zip(df)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            err_sum += diff / mag.max(1e-12);
        }
        let mean_err = err_sum / bodies.len() as f64;
        assert!(mean_err < 0.05, "mean relative force error {mean_err}");
    }

    #[test]
    fn smaller_theta_is_more_accurate() {
        let cfg = BarnesConfig {
            n: 256,
            ..BarnesConfig::small()
        };
        let bodies = cfg.generate();
        let direct = direct_forces(&bodies);
        let mut bounds = Bbox::empty();
        for b in &bodies {
            bounds.include(&b.pos);
        }
        let points: Vec<PseudoBody> = bodies
            .iter()
            .map(|b| PseudoBody {
                pos: b.pos,
                mass: b.mass,
            })
            .collect();
        let tree = Octree::build(&points, &bounds);
        let err = |theta: f64| {
            bodies
                .iter()
                .zip(&direct)
                .map(|(b, df)| {
                    let (f, _) = tree.force_at(&b.pos, theta);
                    f.iter()
                        .zip(df)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt()
                })
                .sum::<f64>()
        };
        assert!(err(0.3) < err(0.9));
    }

    #[test]
    fn single_proc_matches_serial_barnes_exactly() {
        let cfg = BarnesConfig::small();
        let expected = serial_barnes(&cfg);
        let cfg2 = cfg.clone();
        let bodies = cfg2.generate();
        let report = Machine::new(uniform_spec(1))
            .run(move |ctx| barnes_rank(ctx, &cfg2, &bodies, Variant::Unoptimized))
            .unwrap();
        assert_eq!(report.results[0].checksum, expected);
    }

    #[test]
    fn parallel_approximates_direct_sum() {
        let cfg = BarnesConfig::small();
        let oracle = serial_direct(&cfg);
        let cfg2 = cfg.clone();
        let bodies = cfg2.generate();
        let report = Machine::new(das_spec(4, 2, 5.0, 1.0))
            .run(move |ctx| barnes_rank(ctx, &cfg2, &bodies, Variant::Unoptimized))
            .unwrap();
        let got = total_checksum(&report.results);
        assert!(
            rel_err(got, oracle) < 1e-2,
            "parallel BH {got} vs direct {oracle}"
        );
    }

    #[test]
    fn variants_are_bit_identical() {
        let cfg = BarnesConfig::small();
        let run = |variant| {
            let cfg = cfg.clone();
            let bodies = cfg.generate();
            Machine::new(das_spec(4, 2, 5.0, 1.0))
                .run(move |ctx| barnes_rank(ctx, &cfg, &bodies, variant))
                .unwrap()
        };
        let unopt = run(Variant::Unoptimized);
        let opt = run(Variant::Optimized);
        // The optimization only reroutes messages; the computed physics is
        // identical to the last bit.
        assert_eq!(total_checksum(&unopt.results), total_checksum(&opt.results));
        assert!(opt.net_stats.inter_msgs < unopt.net_stats.inter_msgs);
    }

    #[test]
    fn morton_order_is_spatial() {
        // Nearby points get nearby keys more often than far ones (sanity).
        let a = morton_key(&[1.0, 1.0, 1.0], &[0.0; 3], 100.0);
        let b = morton_key(&[1.5, 1.2, 0.8], &[0.0; 3], 100.0);
        let c = morton_key(&[99.0, 98.0, 97.0], &[0.0; 3], 100.0);
        assert!(a.abs_diff(b) < a.abs_diff(c));
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use crate::common::total_checksum;
    use numagap_net::das_spec;
    use numagap_rt::Machine;

    #[test]
    fn forced_barrier_changes_timing_not_physics() {
        let run = |force_barrier: bool| {
            let cfg = BarnesConfig {
                force_barrier,
                ..BarnesConfig::small()
            };
            let bodies = cfg.generate();
            Machine::new(das_spec(4, 2, 10.0, 1.0))
                .run(move |ctx| barnes_rank(ctx, &cfg, &bodies, Variant::Optimized))
                .unwrap()
        };
        let strict = run(true);
        let relaxed = run(false);
        assert_eq!(
            total_checksum(&strict.results),
            total_checksum(&relaxed.results),
            "the barrier must not change the computed forces"
        );
        assert!(
            relaxed.elapsed <= strict.elapsed,
            "relaxing the barrier must not slow the program down"
        );
        assert!(strict.kernel_stats.messages > relaxed.kernel_stats.messages);
    }
}
