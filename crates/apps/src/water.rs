//! Water — n-squared molecular dynamics (distributed-memory Splash Water).
//!
//! Each processor owns a block of molecules. Per timestep the O(n²)
//! intermolecular forces are computed owner-wise: every processor fetches the
//! positions of *half* the other processors' blocks ("all-to-half"), computes
//! the pair forces it is responsible for, and sends force contributions back
//! to the owners — two reduction-like exchanges per step.
//!
//! * **Unoptimized**: positions and force updates travel directly between
//!   every processor pair; with 4 clusters 75 % of those messages cross the
//!   wide area, and the same block of positions crosses the same WAN link
//!   many times.
//! * **Optimized** (paper §3.2): per remote source, one processor in each
//!   cluster acts as *coordinator*: positions cross each WAN link once and
//!   are forwarded/cached locally; force contributions are *reduced* (summed)
//!   at the local coordinator and cross the WAN as a single message.

use rand::Rng;

use numagap_rt::Ctx;
use numagap_sim::{Filter, Tag};

use crate::common::{block_range, seeded_rng, RankOutput, Variant};

/// A molecule's state (a point mass with simplified Lennard-Jones forces).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Molecule {
    /// Position.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
}

/// Water problem configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct WaterConfig {
    /// Number of molecules.
    pub n: usize,
    /// Timesteps to simulate.
    pub steps: usize,
    /// Workload seed.
    pub seed: u64,
    /// Virtual nanoseconds charged per pair interaction.
    pub pair_ns: f64,
    /// Timestep length (simulation physics, not virtual time).
    pub dt: f64,
}

impl WaterConfig {
    /// Test-scale instance.
    pub fn small() -> Self {
        WaterConfig {
            n: 64,
            steps: 2,
            seed: 7,
            pair_ns: 2000.0,
            dt: 1e-3,
        }
    }

    /// Bench-scale instance (grain calibrated to the paper's 1500-molecule
    /// medium input: ~0.3 s of force evaluation per step per processor).
    pub fn medium() -> Self {
        WaterConfig {
            n: 768,
            steps: 3,
            seed: 7,
            pair_ns: 30_000.0,
            dt: 1e-3,
        }
    }

    /// The paper's problem size.
    pub fn paper() -> Self {
        WaterConfig {
            n: 1500,
            steps: 3,
            seed: 7,
            pair_ns: 2000.0,
            dt: 1e-3,
        }
    }

    /// Deterministic initial molecule state.
    pub fn generate(&self) -> Vec<Molecule> {
        let mut rng = seeded_rng(self.seed ^ 0x57A7E);
        (0..self.n)
            .map(|_| Molecule {
                pos: [
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                ],
                vel: [0.0; 3],
            })
            .collect()
    }
}

/// Capped Lennard-Jones-like pair force of `b` on `a` (equal and opposite on
/// `b`). The r² floor keeps the toy integrator stable for any seed.
pub fn pair_force(a: &[f64; 3], b: &[f64; 3]) -> [f64; 3] {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    let r2 = (dx * dx + dy * dy + dz * dz).max(0.25);
    let inv2 = 1.0 / r2;
    let inv6 = inv2 * inv2 * inv2;
    // f(r)/r so multiplying by the displacement gives the vector force.
    let scalar = 24.0 * inv6 * (2.0 * inv6 - 1.0) * inv2;
    [scalar * dx, scalar * dy, scalar * dz]
}

/// The "all-to-half" source set: which processors' blocks `i` fetches and
/// computes against. Every unordered processor pair appears exactly once
/// across all `needs` sets.
pub fn needs(i: usize, p: usize) -> Vec<usize> {
    if p <= 1 {
        return Vec::new();
    }
    let mut out = Vec::new();
    let half = p / 2;
    if p.is_multiple_of(2) {
        for d in 1..half {
            out.push((i + d) % p);
        }
        if i < half {
            out.push(i + half);
        }
    } else {
        for d in 1..=half {
            out.push((i + d) % p);
        }
    }
    out
}

/// Whether `needs(q, p)` contains `t`, without building the set: `t` is
/// fetched by `q` when it lies `d` places ahead of it around the ring of
/// `p` processors, for the same `d` that [`needs`] enumerates.
pub fn needs_has(q: usize, p: usize, t: usize) -> bool {
    if p <= 1 || q >= p || t >= p {
        return false;
    }
    let d = (t + p - q) % p;
    let half = p / 2;
    if p.is_multiple_of(2) {
        (1..half).contains(&d) || (d == half && q < half)
    } else {
        (1..=half).contains(&d)
    }
}

/// Inverse of [`needs`]: who fetches `i`'s block.
pub fn needed_by(i: usize, p: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(p / 2);
    out.extend((0..p).filter(|&q| needs_has(q, p, i)));
    out
}

/// One full force evaluation + integration step on an arbitrary molecule
/// slice (the serial reference). Pair order: all `(i, j)` with `i < j`.
pub fn serial_step(mols: &mut [Molecule], dt: f64) {
    let n = mols.len();
    let mut forces = vec![[0.0f64; 3]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let f = pair_force(&mols[i].pos, &mols[j].pos);
            for k in 0..3 {
                forces[i][k] += f[k];
                forces[j][k] -= f[k];
            }
        }
    }
    integrate(mols, &forces, dt);
}

fn integrate(mols: &mut [Molecule], forces: &[[f64; 3]], dt: f64) {
    for (m, f) in mols.iter_mut().zip(forces) {
        for k in 0..3 {
            m.vel[k] += f[k] * dt;
            m.pos[k] += m.vel[k] * dt;
        }
    }
}

/// Serial reference: runs the full simulation and returns the checksum.
pub fn serial_water(cfg: &WaterConfig) -> f64 {
    let mut mols = cfg.generate();
    for _ in 0..cfg.steps {
        serial_step(&mut mols, cfg.dt);
    }
    state_checksum(&mols)
}

/// Position/velocity checksum of a molecule set.
pub fn state_checksum(mols: &[Molecule]) -> f64 {
    mols.iter()
        .map(|m| m.pos.iter().sum::<f64>() + m.vel.iter().sum::<f64>())
        .sum()
}

const POS: Tag = Tag::app(0x1000);
const POS_RELAY: Tag = Tag::app(0x1001);
const FORCE: Tag = Tag::app(0x1002);
const FORCE_ACC: Tag = Tag::app(0x1003);

fn step_tag(base: Tag, step: usize) -> Tag {
    Tag::app(base.raw() + 0x10 * step as u32)
}

type Positions = Vec<[f64; 3]>;
/// `(source/target rank, data)` as carried inside relayed messages.
type Addressed = (u32, Vec<[f64; 3]>);

/// The coordinator in cluster `cluster` for remote processor `s`.
fn coordinator(ctx: &Ctx<'_>, cluster: usize, s: usize) -> usize {
    let members = ctx.topology().members(cluster);
    members[s % members.len()]
}

/// Runs Water on one rank. `molecules` is the run's one
/// [`WaterConfig::generate`]d input; a rank copies only its block of it.
pub fn water_rank(
    ctx: &mut Ctx<'_>,
    cfg: &WaterConfig,
    molecules: &[Molecule],
    variant: Variant,
) -> RankOutput {
    let p = ctx.nprocs();
    let me = ctx.rank();
    let (lo, hi) = block_range(cfg.n, p, me);
    let mut mine: Vec<Molecule> = molecules[lo..hi].to_vec();
    let b = mine.len();
    let my_needs = needs(me, p);
    let my_needed_by = needed_by(me, p);
    let my_cluster = ctx.cluster();
    let mut pair_count: u64 = 0;

    for step in 0..cfg.steps {
        let pos_tag = step_tag(POS, step);
        let pos_relay_tag = step_tag(POS_RELAY, step);
        let force_tag = step_tag(FORCE, step);
        let force_acc_tag = step_tag(FORCE_ACC, step);

        // ---- Phase 1: distribute positions ("all-to-half", first half) ----
        let my_positions: Positions = mine.iter().map(|m| m.pos).collect();
        let pos_bytes = (b * 24) as u64;
        match variant {
            Variant::Unoptimized => {
                for &q in &my_needed_by {
                    ctx.send(q, pos_tag, (me as u32, my_positions.clone()), pos_bytes);
                }
            }
            Variant::Optimized => {
                // Same-cluster consumers directly; each remote cluster once.
                let mut remote_clusters: Vec<usize> = Vec::new();
                for &q in &my_needed_by {
                    let qc = ctx.topology().cluster_of_rank(q);
                    if qc == my_cluster {
                        ctx.send(q, pos_tag, (me as u32, my_positions.clone()), pos_bytes);
                    } else if !remote_clusters.contains(&qc) {
                        remote_clusters.push(qc);
                    }
                }
                for qc in remote_clusters {
                    let coord = coordinator(ctx, qc, me);
                    ctx.send(
                        coord,
                        pos_relay_tag,
                        (me as u32, my_positions.clone()),
                        pos_bytes,
                    );
                }
            }
        }

        // How many POS messages I expect, and my coordinator duties.
        let mut relay_sources: Vec<usize> = Vec::new();
        if variant == Variant::Optimized {
            for s in 0..p {
                if ctx.topology().cluster_of_rank(s) != my_cluster
                    && coordinator(ctx, my_cluster, s) == me
                {
                    // s is a remote source whose positions enter my cluster
                    // through me, if anyone here needs them.
                    let consumers: Vec<usize> = needed_by(s, p)
                        .into_iter()
                        .filter(|&q| ctx.topology().cluster_of_rank(q) == my_cluster)
                        .collect();
                    if !consumers.is_empty() {
                        relay_sources.push(s);
                    }
                }
            }
        }
        let mut expected_pos = my_needs.len();
        if variant == Variant::Optimized {
            // If I need a remote source and I am its coordinator, its data
            // arrives as a relay message instead of a POS message.
            for &s in &my_needs {
                if ctx.topology().cluster_of_rank(s) != my_cluster
                    && coordinator(ctx, my_cluster, s) == me
                {
                    expected_pos -= 1;
                }
            }
        }

        // ---- Phase 2: collect positions, serving coordinator duty ----
        let mut blocks: Vec<(usize, Positions)> = Vec::new();
        let mut relays_left = relay_sources.len();
        let mut pos_left = expected_pos;
        while pos_left > 0 || relays_left > 0 {
            let msg = ctx.recv(Filter::one_of(&[pos_tag, pos_relay_tag]));
            let (src, positions) = {
                let (s, ps) = msg.expect_ref::<Addressed>();
                (*s as usize, ps.clone())
            };
            if msg.tag == pos_relay_tag {
                relays_left -= 1;
                // Forward to every local consumer; keep a copy if I need it.
                let consumers: Vec<usize> = needed_by(src, p)
                    .into_iter()
                    .filter(|&q| ctx.topology().cluster_of_rank(q) == my_cluster)
                    .collect();
                let bytes = (positions.len() * 24) as u64;
                for q in consumers {
                    if q == me {
                        // My own copy was excluded from expected_pos.
                        blocks.push((src, positions.clone()));
                    } else {
                        ctx.send(q, pos_tag, (src as u32, positions.clone()), bytes);
                    }
                }
            } else {
                blocks.push((src, positions));
                pos_left -= 1;
            }
        }
        // Deterministic order regardless of arrival interleaving.
        blocks.sort_by_key(|(src, _)| *src);

        // ---- Phase 3: compute forces (own-own and own-remote) ----
        let mut my_forces = vec![[0.0f64; 3]; b];
        for i in 0..b {
            for j in (i + 1)..b {
                let f = pair_force(&mine[i].pos, &mine[j].pos);
                for k in 0..3 {
                    my_forces[i][k] += f[k];
                    my_forces[j][k] -= f[k];
                }
            }
        }
        pair_count += (b * b.saturating_sub(1) / 2) as u64;
        let mut remote_forces: Vec<(usize, Vec<[f64; 3]>)> = Vec::new();
        for (src, positions) in &blocks {
            let mut theirs = vec![[0.0f64; 3]; positions.len()];
            for (i, m) in mine.iter().enumerate() {
                for (j, q) in positions.iter().enumerate() {
                    let f = pair_force(&m.pos, q);
                    for k in 0..3 {
                        my_forces[i][k] += f[k];
                        theirs[j][k] -= f[k];
                    }
                }
            }
            pair_count += (b * positions.len()) as u64;
            remote_forces.push((*src, theirs));
        }
        ctx.compute_ns(pair_count_since(&blocks, b) * cfg.pair_ns);

        // ---- Phase 4: return force contributions to owners ----
        match variant {
            Variant::Unoptimized => {
                for (target, forces) in remote_forces {
                    let bytes = (forces.len() * 24) as u64;
                    ctx.send(target, force_tag, (target as u32, forces), bytes);
                }
            }
            Variant::Optimized => {
                for (target, forces) in remote_forces {
                    let bytes = (forces.len() * 24) as u64;
                    if ctx.topology().cluster_of_rank(target) == my_cluster {
                        ctx.send(target, force_tag, (target as u32, forces), bytes);
                    } else {
                        // Local reduction at the coordinator before the WAN.
                        let coord = coordinator(ctx, my_cluster, target);
                        ctx.send(coord, force_acc_tag, (target as u32, forces), bytes);
                    }
                }
            }
        }

        // Expected incoming force messages and accumulator duties.
        let mut acc_duty: Vec<(usize, usize)> = Vec::new(); // (target, contributions)
        if variant == Variant::Optimized {
            for target in 0..p {
                if ctx.topology().cluster_of_rank(target) != my_cluster
                    && coordinator(ctx, my_cluster, target) == me
                {
                    let contributors =
                        needs_contributors(target, p, ctx.topology().members(my_cluster));
                    if contributors > 0 {
                        acc_duty.push((target, contributors));
                    }
                }
            }
        }
        let expected_force = match variant {
            Variant::Unoptimized => my_needed_by.len(),
            Variant::Optimized => {
                // Same-cluster contributors arrive directly; each remote
                // cluster with contributors sends one summed message.
                let mut direct = 0;
                let mut clusters: Vec<usize> = Vec::new();
                for &q in &my_needed_by {
                    let qc = ctx.topology().cluster_of_rank(q);
                    if qc == my_cluster {
                        direct += 1;
                    } else if !clusters.contains(&qc) {
                        clusters.push(qc);
                    }
                }
                direct + clusters.len()
            }
        };

        // ---- Phase 5: gather forces, serving accumulator duty ----
        let mut acc: Vec<(usize, Vec<[f64; 3]>, usize)> = acc_duty
            .iter()
            .map(|&(t, c)| (t, vec![[0.0f64; 3]; block_len(cfg.n, p, t)], c))
            .collect();
        let mut incoming: Vec<(usize, Vec<[f64; 3]>)> = Vec::new();
        let mut force_left = expected_force;
        let mut acc_left: usize = acc.iter().map(|(_, _, c)| *c).sum();
        while force_left > 0 || acc_left > 0 {
            let msg = ctx.recv(Filter::one_of(&[force_tag, force_acc_tag]));
            let (target, forces) = {
                let (t, fs) = msg.expect_ref::<Addressed>();
                (*t as usize, fs.clone())
            };
            if msg.tag == force_acc_tag {
                acc_left -= 1;
                let slot = acc
                    .iter_mut()
                    .find(|(t, _, _)| *t == target)
                    .expect("accumulation for unexpected target");
                for (a, f) in slot.1.iter_mut().zip(&forces) {
                    for k in 0..3 {
                        a[k] += f[k];
                    }
                }
                slot.2 -= 1;
                if slot.2 == 0 {
                    let bytes = (slot.1.len() * 24) as u64;
                    let summed = std::mem::take(&mut slot.1);
                    ctx.send(target, force_tag, (target as u32, summed), bytes);
                }
            } else {
                incoming.push((msg.src.0, forces));
                force_left -= 1;
            }
        }
        incoming.sort_by_key(|(src, _)| *src);
        for (_, forces) in incoming {
            for (a, f) in my_forces.iter_mut().zip(&forces) {
                for k in 0..3 {
                    a[k] += f[k];
                }
            }
        }

        // ---- Phase 6: integrate ----
        integrate(&mut mine, &my_forces, cfg.dt);
        ctx.compute_ns(b as f64 * 100.0);
    }

    RankOutput::new(state_checksum(&mine), pair_count)
}

fn block_len(n: usize, p: usize, i: usize) -> usize {
    let (lo, hi) = block_range(n, p, i);
    hi - lo
}

/// Number of procs among `members` whose `needs` set contains `target`.
pub fn needs_contributors(target: usize, p: usize, members: &[usize]) -> usize {
    members.iter().filter(|&&q| needs_has(q, p, target)).count()
}

/// Pairs computed this step (for the compute-cost charge).
fn pair_count_since(blocks: &[(usize, Positions)], b: usize) -> f64 {
    let own = (b * b.saturating_sub(1) / 2) as f64;
    let remote: f64 = blocks.iter().map(|(_, ps)| (b * ps.len()) as f64).sum();
    own + remote
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{rel_err, total_checksum};
    use numagap_net::{das_spec, uniform_spec};
    use numagap_rt::Machine;

    #[test]
    fn needs_covers_every_pair_once() {
        for p in [1usize, 2, 3, 4, 5, 8, 9, 16, 32] {
            let mut count = vec![vec![0usize; p]; p];
            for i in 0..p {
                for j in needs(i, p) {
                    assert_ne!(i, j);
                    let (a, b) = (i.min(j), i.max(j));
                    count[a][b] += 1;
                }
            }
            for a in 0..p {
                for b in (a + 1)..p {
                    assert_eq!(count[a][b], 1, "pair ({a},{b}) at p={p}");
                }
            }
        }
    }

    #[test]
    fn needed_by_is_inverse() {
        for p in [2usize, 5, 8] {
            for i in 0..p {
                for j in needs(i, p) {
                    assert!(needed_by(j, p).contains(&i));
                }
            }
        }
    }

    #[test]
    fn needs_has_is_membership_in_needs() {
        for p in 0..=33usize {
            for q in 0..p {
                let set = needs(q, p);
                // One past the last rank too: never a member.
                for t in 0..=p {
                    assert_eq!(
                        needs_has(q, p, t),
                        set.contains(&t),
                        "needs({q}, {p}) = {set:?}, t = {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn pair_force_is_antisymmetric_and_finite() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.5, 2.5, 2.0];
        let fab = pair_force(&a, &b);
        let fba = pair_force(&b, &a);
        for k in 0..3 {
            assert!((fab[k] + fba[k]).abs() < 1e-12);
            assert!(fab[k].is_finite());
        }
        // Coincident points must not blow up (capped r²).
        let f = pair_force(&a, &a);
        assert_eq!(f, [0.0; 3]);
    }

    fn parallel_checksum(cfg: WaterConfig, variant: Variant, machine: Machine) -> f64 {
        let molecules = cfg.generate();
        let report = machine
            .run(move |ctx| water_rank(ctx, &cfg, &molecules, variant))
            .unwrap();
        total_checksum(&report.results)
    }

    #[test]
    fn parallel_matches_serial_uniform() {
        let cfg = WaterConfig::small();
        let expected = serial_water(&cfg);
        for p in [1usize, 2, 4, 8] {
            let got = parallel_checksum(
                cfg.clone(),
                Variant::Unoptimized,
                Machine::new(uniform_spec(p)),
            );
            assert!(rel_err(got, expected) < 1e-9, "p={p}: {got} vs {expected}");
        }
    }

    #[test]
    fn both_variants_match_serial_on_clusters() {
        let cfg = WaterConfig::small();
        let expected = serial_water(&cfg);
        for variant in [Variant::Unoptimized, Variant::Optimized] {
            let got =
                parallel_checksum(cfg.clone(), variant, Machine::new(das_spec(4, 2, 5.0, 1.0)));
            assert!(
                rel_err(got, expected) < 1e-9,
                "{variant}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn optimized_cuts_wan_traffic() {
        // At scarce WAN bandwidth the cluster cache + reduction tree must
        // win; at generous bandwidth the paper itself observed the
        // unoptimized program can be faster, so only assert the slow case.
        let cfg = WaterConfig::small();
        let stats = |variant| {
            let cfg = cfg.clone();
            let molecules = cfg.generate();
            Machine::new(das_spec(4, 2, 10.0, 0.05))
                .run(move |ctx| water_rank(ctx, &cfg, &molecules, variant))
                .unwrap()
        };
        let unopt = stats(Variant::Unoptimized);
        let opt = stats(Variant::Optimized);
        assert!(
            opt.net_stats.inter_msgs < unopt.net_stats.inter_msgs,
            "opt {} vs unopt {}",
            opt.net_stats.inter_msgs,
            unopt.net_stats.inter_msgs
        );
        assert!(
            opt.net_stats.inter_payload_bytes < unopt.net_stats.inter_payload_bytes,
            "opt must move fewer bytes over the WAN"
        );
        assert!(
            opt.elapsed < unopt.elapsed,
            "opt {} vs unopt {}",
            opt.elapsed,
            unopt.elapsed
        );
    }

    #[test]
    fn odd_proc_counts_work() {
        let cfg = WaterConfig::small();
        let expected = serial_water(&cfg);
        let got = parallel_checksum(
            cfg,
            Variant::Optimized,
            Machine::new(das_spec(3, 3, 2.0, 1.0)),
        );
        assert!(rel_err(got, expected) < 1e-9);
    }
}
