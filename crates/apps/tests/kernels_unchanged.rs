//! The rewritten kernels are the old ones.
//!
//! Three host-side rewrites took the Figure 3 pass from 1.05 s to 0.52 s
//! without moving a virtual nanosecond: the Morton key builds an array
//! where it collected a `Vec`, the input sort caches its keys, and the
//! octree keeps its nodes in one arena where every internal node boxed
//! eight optional children. A fourth halved what a TSP search node costs:
//! the distance matrix is one flat block where it was a vector of rows, and
//! a node is `(city, visited set)` where it was a path vector. The goldens
//! hash what these produce, so each has to be *the same function* as
//! before, not a close one. The versions they replaced are kept here
//! verbatim as the references.

#![allow(clippy::needless_range_loop)] // the references stay as they were written

use numagap_apps::barnes::{morton_key, BarnesConfig, Bbox, Body, Octree, PseudoBody};
use numagap_apps::common::{block_range, seeded_rng};
use numagap_apps::tsp::{generate_jobs, nn_tour_length, Job, Searcher, TspConfig};
use numagap_net::uniform_spec;
use numagap_rt::{Ctx, Machine};
use rand::Rng;

// ---------------------------------------------------------------------
// References: the parent's code, unchanged.
// ---------------------------------------------------------------------

/// The parent's `morton_key`.
fn morton_key_reference(pos: &[f64; 3], origin: &[f64; 3], side: f64) -> u64 {
    let mut key = 0u64;
    let scale = 1024.0 / side;
    let q: Vec<u64> = (0..3)
        .map(|k| (((pos[k] - origin[k]) * scale) as i64).clamp(0, 1023) as u64)
        .collect();
    for bit in 0..10 {
        for (k, qk) in q.iter().enumerate() {
            key |= ((qk >> bit) & 1) << (3 * bit + k);
        }
    }
    key
}

/// The parent's `BarnesConfig::generate`: the same draws, then std's stable
/// sort by the reference key. (The parent called the key from inside
/// `sort_by_key`, once per comparison; computing it once per body first is
/// the same stable sort over the same keys, in test time.)
fn generate_reference(cfg: &BarnesConfig) -> Vec<Body> {
    let mut rng = seeded_rng(cfg.seed ^ 0xBA12E5);
    let mut keyed: Vec<(u64, Body)> = (0..cfg.n)
        .map(|_| Body {
            pos: [
                rng.gen_range(0.0..100.0),
                rng.gen_range(0.0..100.0),
                rng.gen_range(0.0..100.0),
            ],
            vel: [0.0; 3],
            mass: rng.gen_range(0.5..2.0),
        })
        .map(|b| (morton_key_reference(&b.pos, &[0.0; 3], 100.0), b))
        .collect();
    keyed.sort_by_key(|&(key, _)| key);
    keyed.into_iter().map(|(_, b)| b).collect()
}

const SOFTENING_SQ: f64 = 0.0025;

/// The parent's octree: every internal node boxes eight optional children.
enum NodeKind {
    Leaf(PseudoBody),
    Internal(Box<[Option<OctNode>; 8]>),
}

struct OctNode {
    center: [f64; 3],
    half: f64,
    mass: f64,
    com: [f64; 3],
    kind: NodeKind,
}

const MAX_DEPTH: usize = 48;

impl OctNode {
    fn octant(&self, p: &[f64; 3]) -> usize {
        usize::from(p[0] > self.center[0])
            | usize::from(p[1] > self.center[1]) << 1
            | usize::from(p[2] > self.center[2]) << 2
    }

    fn child_center(&self, oct: usize) -> [f64; 3] {
        let h = self.half / 2.0;
        [
            self.center[0] + if oct & 1 != 0 { h } else { -h },
            self.center[1] + if oct & 2 != 0 { h } else { -h },
            self.center[2] + if oct & 4 != 0 { h } else { -h },
        ]
    }

    fn insert(&mut self, b: PseudoBody, depth: usize) {
        match &mut self.kind {
            NodeKind::Leaf(existing) => {
                if depth >= MAX_DEPTH {
                    // Coincident points: merge masses (mass-weighted COM).
                    let total = existing.mass + b.mass;
                    for k in 0..3 {
                        existing.pos[k] =
                            (existing.pos[k] * existing.mass + b.pos[k] * b.mass) / total;
                    }
                    existing.mass = total;
                    return;
                }
                let old = *existing;
                self.kind = NodeKind::Internal(Box::new(std::array::from_fn(|_| None)));
                self.insert_into_child(old, depth);
                self.insert_into_child(b, depth);
            }
            NodeKind::Internal(_) => self.insert_into_child(b, depth),
        }
    }

    fn insert_into_child(&mut self, b: PseudoBody, depth: usize) {
        let oct = self.octant(&b.pos);
        let center = self.child_center(oct);
        let half = self.half / 2.0;
        let NodeKind::Internal(children) = &mut self.kind else {
            unreachable!("insert_into_child on a leaf");
        };
        match &mut children[oct] {
            Some(child) => child.insert(b, depth + 1),
            None => {
                children[oct] = Some(OctNode {
                    center,
                    half,
                    mass: b.mass,
                    com: b.pos,
                    kind: NodeKind::Leaf(b),
                });
            }
        }
    }

    fn finalize(&mut self) -> usize {
        match &mut self.kind {
            NodeKind::Leaf(b) => {
                self.mass = b.mass;
                self.com = b.pos;
                1
            }
            NodeKind::Internal(children) => {
                let mut mass = 0.0;
                let mut com = [0.0; 3];
                let mut nodes = 1;
                for child in children.iter_mut().flatten() {
                    nodes += child.finalize();
                    mass += child.mass;
                    for k in 0..3 {
                        com[k] += child.com[k] * child.mass;
                    }
                }
                for c in &mut com {
                    *c /= mass;
                }
                self.mass = mass;
                self.com = com;
                nodes
            }
        }
    }
}

struct BoxedOctree {
    root: Option<OctNode>,
    nodes: usize,
}

impl BoxedOctree {
    /// Builds a tree covering `bounds` from point masses.
    fn build(points: &[PseudoBody], bounds: &Bbox) -> BoxedOctree {
        let mut center = [0.0; 3];
        let mut half: f64 = 0.5;
        for k in 0..3 {
            center[k] = (bounds.min[k] + bounds.max[k]) / 2.0;
            half = half.max((bounds.max[k] - bounds.min[k]) / 2.0 + 1e-9);
        }
        let mut root: Option<OctNode> = None;
        for &b in points {
            match &mut root {
                None => {
                    root = Some(OctNode {
                        center,
                        half,
                        mass: b.mass,
                        com: b.pos,
                        kind: NodeKind::Leaf(b),
                    })
                }
                Some(r) => r.insert(b, 0),
            }
        }
        let nodes = root.as_mut().map_or(0, |r| r.finalize());
        BoxedOctree { root, nodes }
    }

    fn total_mass(&self) -> f64 {
        self.root.as_ref().map_or(0.0, |r| r.mass)
    }

    /// Gravitational force on a unit test point at `pos` (multiplied by the
    /// target's mass by the caller), using opening criterion `theta`.
    /// Returns `(force, interactions)`.
    fn force_at(&self, pos: &[f64; 3], theta: f64) -> ([f64; 3], u64) {
        let mut f = [0.0; 3];
        let mut count = 0;
        if let Some(root) = &self.root {
            Self::force_rec(root, pos, theta, &mut f, &mut count);
        }
        (f, count)
    }

    fn force_rec(node: &OctNode, pos: &[f64; 3], theta: f64, f: &mut [f64; 3], count: &mut u64) {
        let dx = node.com[0] - pos[0];
        let dy = node.com[1] - pos[1];
        let dz = node.com[2] - pos[2];
        let d2 = dx * dx + dy * dy + dz * dz;
        let use_node = match &node.kind {
            NodeKind::Leaf(_) => true,
            NodeKind::Internal(_) => {
                let s = 2.0 * node.half;
                s * s < theta * theta * d2
            }
        };
        if use_node {
            if d2 < 1e-18 {
                // The test point itself.
                return;
            }
            *count += 1;
            let inv = 1.0 / (d2 + SOFTENING_SQ).powf(1.5);
            f[0] += node.mass * dx * inv;
            f[1] += node.mass * dy * inv;
            f[2] += node.mass * dz * inv;
        } else {
            let NodeKind::Internal(children) = &node.kind else {
                unreachable!();
            };
            for child in children.iter().flatten() {
                Self::force_rec(child, pos, theta, f, count);
            }
        }
    }

    /// Collects the *locally essential* pseudo-bodies this tree must export
    /// to a processor whose bodies lie in `region`: subtrees that the
    /// receiver could never open (by the conservative cell-distance MAC)
    /// are summarized by their center of mass; everything else descends to
    /// real bodies. Returns the visited-node count for cost accounting.
    fn essential_for(&self, region: &Bbox, theta: f64, out: &mut Vec<PseudoBody>) -> u64 {
        let mut visited = 0;
        if let Some(root) = &self.root {
            Self::essential_rec(root, region, theta, out, &mut visited);
        }
        visited
    }

    fn essential_rec(
        node: &OctNode,
        region: &Bbox,
        theta: f64,
        out: &mut Vec<PseudoBody>,
        visited: &mut u64,
    ) {
        *visited += 1;
        match &node.kind {
            NodeKind::Leaf(b) => out.push(*b),
            NodeKind::Internal(children) => {
                let d = region.min_dist_to_cell(&node.center, node.half);
                let s = 2.0 * node.half;
                if d > 0.0 && s < theta * d {
                    out.push(PseudoBody {
                        pos: node.com,
                        mass: node.mass,
                    });
                } else {
                    for child in children.iter().flatten() {
                        Self::essential_rec(child, region, theta, out, visited);
                    }
                }
            }
        }
    }
}

/// The parent's TSP searcher: rows behind a `Vec<Vec<u32>>`, the tour so
/// far in a `path` vector, one bit test per city.
struct PathSearcher<'d> {
    dist: &'d [Vec<u32>],
    min_edge: Vec<u32>,
    cutoff: u32,
    node_ns: f64,
    poll_chunk: u64,
    pending_nodes: u64,
    nodes: u64,
    best: u32,
}

impl<'d> PathSearcher<'d> {
    fn new(dist: &'d [Vec<u32>], cutoff: u32, node_ns: f64, poll_chunk: u64) -> Self {
        let n = dist.len();
        let min_edge = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| dist[i][j])
                    .min()
                    .unwrap_or(0)
            })
            .collect();
        PathSearcher {
            dist,
            min_edge,
            cutoff,
            node_ns,
            poll_chunk,
            pending_nodes: 0,
            nodes: 0,
            best: u32::MAX,
        }
    }

    fn charge_node(&mut self, ctx: &mut Ctx<'_>, poll: &mut dyn FnMut(&mut Ctx<'_>)) {
        self.nodes += 1;
        self.pending_nodes += 1;
        if self.pending_nodes >= self.poll_chunk {
            ctx.compute_ns(self.pending_nodes as f64 * self.node_ns);
            self.pending_nodes = 0;
            poll(ctx);
        }
    }

    fn flush_charge(&mut self, ctx: &mut Ctx<'_>) {
        if self.pending_nodes > 0 {
            ctx.compute_ns(self.pending_nodes as f64 * self.node_ns);
            self.pending_nodes = 0;
        }
    }

    fn run_job(&mut self, ctx: &mut Ctx<'_>, job: &Job, poll: &mut dyn FnMut(&mut Ctx<'_>)) {
        let n = self.dist.len();
        let mut visited = 0u32;
        for &c in &job.path {
            visited |= 1 << c;
        }
        let rest = (0..n)
            .filter(|&c| visited & (1 << c) == 0)
            .map(|c| self.min_edge[c])
            .sum();
        let mut path = job.path.clone();
        self.dfs(ctx, &mut path, visited, job.len, rest, poll);
        self.flush_charge(ctx);
    }

    fn dfs(
        &mut self,
        ctx: &mut Ctx<'_>,
        path: &mut Vec<u8>,
        visited: u32,
        len: u32,
        rest: u32,
        poll: &mut dyn FnMut(&mut Ctx<'_>),
    ) {
        self.charge_node(ctx, poll);
        let n = self.dist.len();
        let at = *path.last().expect("path never empty") as usize;
        if path.len() == n {
            let total = len + self.dist[at][0];
            if total < self.best {
                self.best = total;
            }
            return;
        }
        // Lower bound: every remaining city (and the current one) must be
        // left over at least its cheapest edge.
        if len + self.min_edge[at] + rest >= self.cutoff {
            return;
        }
        for c in 0..n as u8 {
            if visited & (1 << c) == 0 {
                let step = self.dist[at][c as usize];
                if len + step >= self.cutoff {
                    continue;
                }
                let rest = rest - self.min_edge[c as usize];
                path.push(c);
                self.dfs(ctx, path, visited | (1 << c), len + step, rest, poll);
                path.pop();
            }
        }
    }
}

// ---------------------------------------------------------------------
// The checks.
// ---------------------------------------------------------------------

const SMALL_DIGEST: u64 = 0x6d98_faa2_acf1_5d52;
const MEDIUM_DIGEST: u64 = 0xf534_d717_af62_a745;

/// FNV-1a over the bit patterns of every body, in order.
fn digest(bodies: &[Body]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bodies {
        for x in b.pos.iter().chain(&b.vel).chain([&b.mass]) {
            for byte in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn morton_key_is_the_allocating_one() {
    let mut rng = seeded_rng(0x5EED);
    for i in 0..10_000 {
        // One position in five lies outside the cube on some axis, beyond
        // either face: those clamp.
        let mut pos = [0.0; 3];
        for x in &mut pos {
            *x = if rng.gen_range(0..5) == 0 {
                rng.gen_range(-250.0..350.0)
            } else {
                rng.gen_range(0.0..100.0)
            };
        }
        let (origin, side) = if i % 2 == 0 {
            ([0.0; 3], 100.0)
        } else {
            ([rng.gen_range(-10.0..10.0); 3], rng.gen_range(1.0..200.0))
        };
        assert_eq!(
            morton_key(&pos, &origin, side),
            morton_key_reference(&pos, &origin, side),
            "position {pos:?} in the cube at {origin:?} of side {side}"
        );
    }
    // The faces themselves, and a NaN (which casts to cell 0).
    for pos in [
        [0.0; 3],
        [100.0; 3],
        [-0.0, 100.0, 1e300],
        [f64::NAN, 50.0, -1e300],
    ] {
        assert_eq!(
            morton_key(&pos, &[0.0; 3], 100.0),
            morton_key_reference(&pos, &[0.0; 3], 100.0)
        );
    }
}

#[test]
fn generated_bodies_keep_their_order() {
    // Pinned: the order every Barnes-Hut golden was recorded with.
    let small = BarnesConfig::small().generate();
    let medium = BarnesConfig::medium().generate();
    assert_eq!(digest(&small), SMALL_DIGEST, "small() body order");
    assert_eq!(digest(&medium), MEDIUM_DIGEST, "medium() body order");
    assert_eq!(small, generate_reference(&BarnesConfig::small()));
    assert_eq!(medium, generate_reference(&BarnesConfig::medium()));

    // Stability is what makes the cached-key sort a drop-in: bodies that
    // share a key stay in generation order. A quarter of a million draws
    // into 2^30 cells put a few dozen pairs of bodies in one cell, and
    // there the two sorts agree body for body.
    let crowded = BarnesConfig {
        n: 262_144,
        ..BarnesConfig::paper()
    };
    let bodies = crowded.generate();
    let key = |b: &Body| morton_key(&b.pos, &[0.0; 3], 100.0);
    let ties = bodies
        .windows(2)
        .filter(|w| key(&w[0]) == key(&w[1]))
        .count();
    assert!(ties >= 10, "only {ties} pairs of bodies share a cell");
    assert_eq!(bodies, generate_reference(&crowded));
}

#[test]
fn the_arena_tree_is_the_boxed_tree() {
    let cfg = BarnesConfig::small();
    let bodies = cfg.generate();
    let points: Vec<PseudoBody> = bodies
        .iter()
        .map(|b| PseudoBody {
            pos: b.pos,
            mass: b.mass,
        })
        .collect();
    let mut bounds = Bbox::empty();
    for b in &bodies {
        bounds.include(&b.pos);
    }
    // The whole input, each rank's block of a 32-rank run (the trees
    // `barnes_rank` builds), one body, none, and coincident bodies that
    // merge at the depth limit.
    let mut inputs: Vec<Vec<PseudoBody>> = vec![points.clone(), points[..1].to_vec(), Vec::new()];
    for rank in 0..32 {
        let (lo, hi) = block_range(points.len(), 32, rank);
        inputs.push(points[lo..hi].to_vec());
    }
    let mut coincident = points[..40].to_vec();
    for i in 0..40 {
        coincident.push(PseudoBody {
            pos: points[i % 3].pos,
            mass: 0.25 + i as f64,
        });
    }
    inputs.push(coincident);

    let regions: Vec<Bbox> = (0..32)
        .map(|rank| {
            let (lo, hi) = block_range(bodies.len(), 32, rank);
            let mut region = Bbox::empty();
            for b in &bodies[lo..hi] {
                region.include(&b.pos);
            }
            region
        })
        .collect();

    for (n, input) in inputs.iter().enumerate() {
        let arena = Octree::build(input, &bounds);
        let boxed = BoxedOctree::build(input, &bounds);
        assert_eq!(arena.nodes, boxed.nodes, "input {n}: node count");
        assert_eq!(
            arena.total_mass().to_bits(),
            boxed.total_mass().to_bits(),
            "input {n}: total mass"
        );
        for theta in [0.0, 0.6, 1.5] {
            for b in &bodies {
                let (fa, ca) = arena.force_at(&b.pos, theta);
                let (fb, cb) = boxed.force_at(&b.pos, theta);
                assert_eq!(ca, cb, "input {n} theta {theta}: interactions");
                assert_eq!(
                    fa.map(f64::to_bits),
                    fb.map(f64::to_bits),
                    "input {n} theta {theta}: force at {:?}",
                    b.pos
                );
            }
            for region in &regions {
                let (mut ea, mut eb) = (Vec::new(), Vec::new());
                let va = arena.essential_for(region, theta, &mut ea);
                let vb = boxed.essential_for(region, theta, &mut eb);
                assert_eq!(va, vb, "input {n} theta {theta}: nodes visited");
                assert_eq!(ea.len(), eb.len(), "input {n} theta {theta}: export size");
                for (a, b) in ea.iter().zip(&eb) {
                    assert_eq!(a.pos.map(f64::to_bits), b.pos.map(f64::to_bits));
                    assert_eq!(a.mass.to_bits(), b.mass.to_bits());
                }
            }
        }
    }
}

/// What a searcher did with a job list: nodes explored, best tour, and the
/// index of the node at which each `poll` fired, in order.
#[derive(Debug, PartialEq)]
struct SearchLog {
    nodes: u64,
    best: u32,
    polled_at: Vec<u64>,
}

/// Runs `search` on the one rank of a one-rank machine, logging its polls.
/// Callers charge one virtual nanosecond a node and nothing else advances
/// the clock, so the time of a poll *is* the index of the node that fired
/// it (a poll is handed the context, not the searcher).
fn logged(
    search: impl Fn(&mut Ctx<'_>, &mut dyn FnMut(&mut Ctx<'_>)) -> (u64, u32) + Send + Sync + 'static,
) -> SearchLog {
    let report = Machine::new(uniform_spec(1))
        .run(move |ctx| {
            let mut polled_at = Vec::new();
            let (nodes, best) = search(ctx, &mut |c| polled_at.push(c.now().as_nanos()));
            assert_eq!(ctx.now().as_nanos(), nodes, "every node charged once");
            SearchLog {
                nodes,
                best,
                polled_at,
            }
        })
        .expect("a one-rank run cannot fail");
    report.results.into_iter().next().expect("one rank")
}

#[test]
fn the_flat_search_is_the_path_search() {
    let mut cfgs = vec![TspConfig::small(), TspConfig::medium()];
    for seed in [5u64, 13, 99] {
        for n_cities in [8usize, 10, 12] {
            cfgs.push(TspConfig {
                n_cities,
                seed,
                ..TspConfig::small()
            });
        }
    }
    for cfg in cfgs {
        let dist = cfg.generate();
        let cutoff = nn_tour_length(&dist) + 1;
        let jobs = generate_jobs(&dist, cfg.prefix_depth);
        // The queues the two variants start from: the unoptimized one holds
        // every job, the optimized one deals them round-robin over the four
        // clusters. A searcher carries its pending charge and its best tour
        // from job to job, so each list puts the polls somewhere else.
        let mut queues = vec![jobs.clone()];
        for cluster in 0..4 {
            queues.push(jobs.iter().skip(cluster).step_by(4).cloned().collect());
        }
        for (q, queue) in queues.into_iter().enumerate() {
            let what = format!(
                "seed {}, {} cities, poll every {}, queue {q}",
                cfg.seed, cfg.n_cities, cfg.poll_chunk
            );
            let poll_chunk = cfg.poll_chunk;
            let (d, jobs) = (dist.clone(), queue.clone());
            let flat = logged(move |ctx, poll| {
                let mut s = Searcher::new(&d, cutoff, 1.0, poll_chunk);
                for job in &jobs {
                    s.run_job(ctx, job, poll);
                }
                (s.nodes(), s.best())
            });
            let (d, jobs) = (dist.clone(), queue);
            let path = logged(move |ctx, poll| {
                let mut s = PathSearcher::new(&d, cutoff, 1.0, poll_chunk);
                for job in &jobs {
                    s.run_job(ctx, job, poll);
                }
                (s.nodes, s.best)
            });
            assert!(path.nodes > 0 && !path.polled_at.is_empty(), "{what}");
            assert_eq!(flat, path, "{what}");
        }
    }
}
