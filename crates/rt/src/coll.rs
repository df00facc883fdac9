//! Collective communication: MagPIe-style MPI collectives and the binomial
//! trees under them.
//!
//! Section 6 of the HPCA'99 paper previews *MagPIe*: implementations of
//! MPI's fourteen collective operations that exploit the two-level structure
//! of a wide-area machine, sending each data item over the slow links at
//! most once and completing in about one wide-area latency. [`Coll`]
//! provides those fourteen operations in two interchangeable variants:
//!
//! * [`Algo::Flat`] — topology-oblivious algorithms in the spirit of MPICH
//!   (binomial trees over ranks, linear gathers, recursive doubling), which
//!   cross wide-area links many times;
//! * [`Algo::ClusterAware`] — MagPIe-like two-level algorithms: local
//!   operations inside each cluster over the fast links, and one wide-area
//!   exchange per cluster.
//!
//! All ranks must call the same sequence of operations on a [`Coll`] handle
//! constructed with the same id — the handle manages tag generations.
//!
//! ```
//! use numagap_net::das_spec;
//! use numagap_rt::coll::{Algo, Coll};
//! use numagap_rt::Machine;
//!
//! let machine = Machine::new(das_spec(2, 2, 5.0, 1.0));
//! let report = machine.run(|ctx| {
//!     let mut coll = Coll::new(0, Algo::ClusterAware);
//!     let sum = coll.allreduce(ctx, ctx.rank() as u64, |a, b| a + b);
//!     coll.barrier(ctx);
//!     sum
//! }).unwrap();
//! assert_eq!(report.results, vec![6, 6, 6, 6]);
//! ```
//!
//! Barrier, bcast and reduce are binomial trees over rank groups, composed
//! flat (one tree over all ranks) or cluster-aware (the root crosses each
//! wide-area link once, then each cluster fans out locally). The
//! applications call the flat pair directly, with their own tags and wire
//! sizes: [`bcast_flat`] and [`reduce_flat`], re-exported at the crate root.

use std::any::Any;
use std::sync::Arc;

use numagap_sim::{Filter, Payload, Tag};

use crate::ctx::Ctx;
use crate::tags::coll_tag;

/// Sized payloads: anything a collective ships needs a wire size.
pub trait Wire: Clone + Send + Sync + 'static {
    /// Bytes this value occupies on the wire.
    fn wire_bytes(&self) -> u64;
}

macro_rules! scalar_wire {
    ($($t:ty => $n:expr),* $(,)?) => {
        $(impl Wire for $t {
            fn wire_bytes(&self) -> u64 {
                $n
            }
        })*
    };
}

scalar_wire!(u8 => 1, u16 => 2, u32 => 4, u64 => 8, i32 => 4, i64 => 8, f32 => 4, f64 => 8, bool => 1, () => 0);

impl<T: Wire> Wire for Vec<T> {
    fn wire_bytes(&self) -> u64 {
        self.iter().map(Wire::wire_bytes).sum()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn wire_bytes(&self) -> u64 {
        self.as_ref().map_or(0, Wire::wire_bytes)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn wire_bytes(&self) -> u64 {
        self.0.wire_bytes() + self.1.wire_bytes()
    }
}

/// Which algorithm family to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Topology-oblivious (MPICH-like) algorithms.
    Flat,
    /// Two-level wide-area-optimal (MagPIe-like) algorithms.
    ClusterAware,
}

impl std::fmt::Display for Algo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algo::Flat => write!(f, "flat"),
            Algo::ClusterAware => write!(f, "cluster-aware"),
        }
    }
}

/// A collectives handle: dispatches each of the fourteen MPI collective
/// operations to the flat or cluster-aware implementation and manages the
/// tag space. Construct with the same `id` on every rank and issue the same
/// operation sequence everywhere.
#[derive(Debug)]
pub struct Coll {
    algo: Algo,
    base: u32,
    gen: u32,
}

/// Tags reserved per `Coll` id.
const ID_STRIDE: u32 = 1 << 18;
/// Maximum number of distinct `Coll` ids.
const MAX_IDS: u32 = 1 << 6;

impl Coll {
    /// Creates a handle for collective id `id` (`< 64`).
    ///
    /// # Panics
    ///
    /// Panics if `id >= 64`.
    pub fn new(id: u32, algo: Algo) -> Self {
        assert!(id < MAX_IDS, "collective id {id} out of range");
        Coll {
            algo,
            base: id * ID_STRIDE,
            gen: 0,
        }
    }

    /// The algorithm family of this handle.
    pub fn algo(&self) -> Algo {
        self.algo
    }

    fn next_tag(&mut self) -> Tag {
        let tag = coll_tag(self.base + (self.gen % ID_STRIDE));
        self.gen += 1;
        tag
    }

    // ------------------------------------------------------------------
    // 1. barrier
    // ------------------------------------------------------------------

    /// MPI_Barrier: returns only after every rank has entered.
    pub fn barrier(&mut self, ctx: &mut Ctx<'_>) {
        let t1 = self.next_tag();
        let t2 = self.next_tag();
        match self.algo {
            Algo::Flat => {
                reduce_flat(ctx, 0, t1, (), |_, _| (), 1);
                bcast_flat(ctx, 0, t2, Some(()), 1);
            }
            Algo::ClusterAware => {
                reduce_aware(ctx, 0, t1, (), |_, _| (), 1);
                bcast_aware(ctx, 0, t2, Some(()), 1);
            }
        }
    }

    // ------------------------------------------------------------------
    // 2. bcast
    // ------------------------------------------------------------------

    /// MPI_Bcast: the root's value reaches every rank.
    ///
    /// # Panics
    ///
    /// Panics if the root passes `None` or a non-root passes `Some`.
    pub fn bcast<T: Wire>(&mut self, ctx: &mut Ctx<'_>, root: usize, data: Option<T>) -> T {
        if ctx.rank() == root {
            assert!(data.is_some(), "bcast root must supply data");
        } else {
            assert!(data.is_none(), "non-root must not supply bcast data");
        }
        let bytes = data.as_ref().map(Wire::wire_bytes).unwrap_or(0);
        let tag = self.next_tag();
        match self.algo {
            Algo::Flat => bcast_flat(ctx, root, tag, data, bytes),
            Algo::ClusterAware => bcast_aware(ctx, root, tag, data, bytes),
        }
    }

    // ------------------------------------------------------------------
    // 3. reduce
    // ------------------------------------------------------------------

    /// MPI_Reduce with a commutative-associative operator. Returns
    /// `Some(total)` at the root.
    pub fn reduce<T: Wire, F: Fn(&T, &T) -> T>(
        &mut self,
        ctx: &mut Ctx<'_>,
        root: usize,
        contrib: T,
        op: F,
    ) -> Option<T> {
        let bytes = contrib.wire_bytes();
        let tag = self.next_tag();
        match self.algo {
            Algo::Flat => reduce_flat(ctx, root, tag, contrib, op, bytes),
            Algo::ClusterAware => reduce_aware(ctx, root, tag, contrib, op, bytes),
        }
    }

    // ------------------------------------------------------------------
    // 4. allreduce
    // ------------------------------------------------------------------

    /// MPI_Allreduce: everyone gets the reduction result.
    pub fn allreduce<T: Wire, F: Fn(&T, &T) -> T>(
        &mut self,
        ctx: &mut Ctx<'_>,
        contrib: T,
        op: F,
    ) -> T {
        let total = self.reduce(ctx, 0, contrib, op);
        self.bcast(ctx, 0, total)
    }

    // ------------------------------------------------------------------
    // 5./6. gather, gatherv
    // ------------------------------------------------------------------

    /// MPI_Gather: the root receives every rank's value, in rank order.
    pub fn gather<T: Wire>(
        &mut self,
        ctx: &mut Ctx<'_>,
        root: usize,
        contrib: T,
    ) -> Option<Vec<T>> {
        self.gatherv(ctx, root, vec![contrib])
            .map(|vs| vs.into_iter().map(|mut v| v.remove(0)).collect())
    }

    /// MPI_Gatherv: like gather with per-rank variable-length vectors.
    pub fn gatherv<T: Wire>(
        &mut self,
        ctx: &mut Ctx<'_>,
        root: usize,
        contrib: Vec<T>,
    ) -> Option<Vec<Vec<T>>> {
        let tag = self.next_tag();
        let me = ctx.rank();
        let p = ctx.nprocs();
        match self.algo {
            Algo::Flat => {
                // Binomial-tree gather (as MPICH does): each node aggregates
                // its subtree and forwards once — topology-oblivious, so
                // subtree bundles cross the wide area repeatedly.
                let rel = (me + p - root) % p;
                let mut subtree: Vec<(u32, Vec<T>)> = vec![(me as u32, contrib)];
                let mut mask = 1usize;
                loop {
                    if rel & mask != 0 || mask >= p {
                        break;
                    }
                    let child_rel = rel | mask;
                    if child_rel < p {
                        let child = (child_rel + root) % p;
                        let msg = ctx.recv_from(child, tag);
                        subtree.extend(msg.expect_ref::<Vec<(u32, Vec<T>)>>().clone());
                    }
                    mask <<= 1;
                }
                if rel != 0 {
                    let parent = ((rel ^ mask) + root) % p;
                    let bytes: u64 = subtree.iter().map(|(_, v)| 4 + v.wire_bytes()).sum();
                    ctx.send(parent, tag, subtree, bytes);
                    None
                } else {
                    subtree.sort_by_key(|(r, _)| *r);
                    Some(subtree.into_iter().map(|(_, v)| v).collect())
                }
            }
            Algo::ClusterAware => {
                // Local gather to the cluster entry; one combined message
                // per cluster crosses the wide area.
                let topo = ctx.topology().clone();
                let my_cluster = ctx.cluster();
                let root_cluster = topo.cluster_of_rank(root);
                let entry = if my_cluster == root_cluster {
                    root
                } else {
                    topo.cluster_root(my_cluster)
                };
                if me != entry {
                    let bytes = contrib.wire_bytes();
                    ctx.send(entry, tag, contrib, bytes);
                    return None;
                }
                let members = topo.members(my_cluster).to_vec();
                let mut cluster_out: Vec<(u32, Vec<T>)> = vec![(me as u32, contrib)];
                for &m in &members {
                    if m != me {
                        let msg = ctx.recv_from(m, tag);
                        cluster_out.push((m as u32, msg.expect_ref::<Vec<T>>().clone()));
                    }
                }
                if me == root {
                    let mut all = cluster_out;
                    for c in 0..topo.nclusters() {
                        if c != root_cluster {
                            let msg = ctx.recv_from(topo.cluster_root(c), tag);
                            all.extend(msg.expect_ref::<Vec<(u32, Vec<T>)>>().clone());
                        }
                    }
                    all.sort_by_key(|(r, _)| *r);
                    Some(all.into_iter().map(|(_, v)| v).collect())
                } else {
                    let bytes: u64 = cluster_out.iter().map(|(_, v)| 4 + v.wire_bytes()).sum();
                    ctx.send(root, tag, cluster_out, bytes);
                    None
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // 7./8. scatter, scatterv
    // ------------------------------------------------------------------

    /// MPI_Scatter: the root distributes one value per rank.
    pub fn scatter<T: Wire>(&mut self, ctx: &mut Ctx<'_>, root: usize, data: Option<Vec<T>>) -> T {
        let wrapped = data.map(|vs| vs.into_iter().map(|v| vec![v]).collect());
        let mut v = self.scatterv(ctx, root, wrapped);
        v.remove(0)
    }

    /// MPI_Scatterv: per-rank variable-length pieces.
    ///
    /// # Panics
    ///
    /// Panics if the root's vector does not have one entry per rank.
    pub fn scatterv<T: Wire>(
        &mut self,
        ctx: &mut Ctx<'_>,
        root: usize,
        data: Option<Vec<Vec<T>>>,
    ) -> Vec<T> {
        let tag = self.next_tag();
        let me = ctx.rank();
        let p = ctx.nprocs();
        if me == root {
            let data = data.expect("scatter root must supply data");
            assert_eq!(data.len(), p, "scatter needs one piece per rank");
            match self.algo {
                Algo::Flat => {
                    // Binomial-tree scatter (as MPICH does): the root sends
                    // each child its whole subtree's bundle.
                    let bundle: Vec<(u32, Vec<T>)> = data
                        .into_iter()
                        .enumerate()
                        .map(|(q, v)| (q as u32, v))
                        .collect();
                    let mut mask = 1usize;
                    while mask < p {
                        mask <<= 1;
                    }
                    scatter_down(ctx, root, tag, 0, mask, p, bundle)
                }
                Algo::ClusterAware => {
                    let topo = ctx.topology().clone();
                    let my_cluster = ctx.cluster();
                    let mut pieces: Vec<Option<Vec<T>>> = data.into_iter().map(Some).collect();
                    for c in 0..topo.nclusters() {
                        if c == my_cluster {
                            continue;
                        }
                        let bundle: Vec<(u32, Vec<T>)> = topo
                            .members(c)
                            .iter()
                            .map(|&q| (q as u32, pieces[q].take().expect("piece")))
                            .collect();
                        let bytes: u64 = bundle.iter().map(|(_, v)| 4 + v.wire_bytes()).sum();
                        ctx.send(topo.cluster_root(c), tag, bundle, bytes);
                    }
                    for &q in topo.members(my_cluster) {
                        if q != me {
                            let piece = pieces[q].take().expect("piece");
                            let bytes = piece.wire_bytes();
                            ctx.send(q, tag, piece, bytes);
                        }
                    }
                    pieces[me].take().expect("root keeps its own piece")
                }
            }
        } else {
            assert!(data.is_none(), "non-root must not supply scatter data");
            match self.algo {
                Algo::Flat => {
                    // Receive my subtree's bundle from the binomial parent
                    // and forward the children's shares.
                    let rel = (me + p - root) % p;
                    let mask = lowest_set_bit(rel);
                    let parent = ((rel ^ mask) + root) % p;
                    let bundle = ctx
                        .recv_from(parent, tag)
                        .expect_ref::<Vec<(u32, Vec<T>)>>()
                        .clone();
                    scatter_down(ctx, root, tag, rel, mask, p, bundle)
                }
                Algo::ClusterAware => {
                    let topo = ctx.topology().clone();
                    let my_cluster = ctx.cluster();
                    if topo.cluster_of_rank(root) == my_cluster {
                        return ctx.recv_from(root, tag).expect_clone::<Vec<T>>();
                    }
                    if me == topo.cluster_root(my_cluster) {
                        // Unpack the cluster bundle and forward locally.
                        let msg = ctx.recv_from(root, tag);
                        let bundle = msg.expect_ref::<Vec<(u32, Vec<T>)>>().clone();
                        let mut my_piece = None;
                        for (q, piece) in bundle {
                            if q as usize == me {
                                my_piece = Some(piece);
                            } else {
                                let bytes = piece.wire_bytes();
                                ctx.send(q as usize, tag, piece, bytes);
                            }
                        }
                        my_piece.expect("bundle contains the relay's piece")
                    } else {
                        ctx.recv_from(topo.cluster_root(my_cluster), tag)
                            .expect_clone::<Vec<T>>()
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // 9./10. allgather, allgatherv
    // ------------------------------------------------------------------

    /// MPI_Allgather: everyone receives every rank's value, in rank order.
    pub fn allgather<T: Wire>(&mut self, ctx: &mut Ctx<'_>, contrib: T) -> Vec<T> {
        let gathered = self.gather(ctx, 0, contrib);
        self.bcast(ctx, 0, gathered)
    }

    /// MPI_Allgatherv: variable-length allgather.
    pub fn allgatherv<T: Wire>(&mut self, ctx: &mut Ctx<'_>, contrib: Vec<T>) -> Vec<Vec<T>> {
        let gathered = self.gatherv(ctx, 0, contrib);
        self.bcast(ctx, 0, gathered)
    }

    // ------------------------------------------------------------------
    // 11./12. alltoall, alltoallv
    // ------------------------------------------------------------------

    /// MPI_Alltoall: rank `i` sends `data[j]` to rank `j`; returns the
    /// received vector indexed by source.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != nprocs`.
    pub fn alltoall<T: Wire>(&mut self, ctx: &mut Ctx<'_>, data: Vec<T>) -> Vec<T> {
        let wrapped = data.into_iter().map(|v| vec![v]).collect();
        self.alltoallv(ctx, wrapped)
            .into_iter()
            .map(|mut v| v.remove(0))
            .collect()
    }

    /// MPI_Alltoallv: variable-length personalized all-to-all.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != nprocs`.
    pub fn alltoallv<T: Wire>(&mut self, ctx: &mut Ctx<'_>, data: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let tag = self.next_tag();
        let relay_tag = self.next_tag();
        let me = ctx.rank();
        let p = ctx.nprocs();
        assert_eq!(data.len(), p, "alltoall needs one piece per rank");
        let mut out: Vec<Option<Vec<T>>> = vec![None; p];
        match self.algo {
            Algo::Flat => {
                for (q, piece) in data.into_iter().enumerate() {
                    if q == me {
                        out[me] = Some(piece);
                    } else {
                        let bytes = piece.wire_bytes();
                        ctx.send(q, tag, (me as u32, piece), 4 + bytes);
                    }
                }
                for _ in 0..p - 1 {
                    let msg = ctx.recv_tag(tag);
                    let (src, piece) = msg.expect_ref::<(u32, Vec<T>)>().clone();
                    out[src as usize] = Some(piece);
                }
            }
            Algo::ClusterAware => {
                let topo = ctx.topology().clone();
                let my_cluster = ctx.cluster();
                let mut bundles: Vec<Vec<(u32, u32, Vec<T>)>> = vec![Vec::new(); topo.nclusters()];
                for (q, piece) in data.into_iter().enumerate() {
                    if q == me {
                        out[me] = Some(piece);
                        continue;
                    }
                    let qc = topo.cluster_of_rank(q);
                    if qc == my_cluster {
                        let bytes = piece.wire_bytes();
                        ctx.send(q, tag, (me as u32, piece), 4 + bytes);
                    } else {
                        bundles[qc].push((q as u32, me as u32, piece));
                    }
                }
                for (c, bundle) in bundles.into_iter().enumerate() {
                    if bundle.is_empty() {
                        continue;
                    }
                    let bytes: u64 = bundle.iter().map(|(_, _, v)| 8 + v.wire_bytes()).sum();
                    ctx.send(topo.cluster_root(c), relay_tag, bundle, bytes);
                }
                let csize = topo.members(my_cluster).len();
                let mut relays_left = if me == topo.cluster_root(my_cluster) {
                    p - csize
                } else {
                    0
                };
                let mut data_left = p - 1;
                while data_left > 0 || relays_left > 0 {
                    let msg = ctx.recv(Filter::one_of(&[tag, relay_tag]));
                    if msg.tag == relay_tag {
                        relays_left -= 1;
                        let bundle = msg.expect_ref::<Vec<(u32, u32, Vec<T>)>>().clone();
                        for (dst, src, piece) in bundle {
                            if dst as usize == me {
                                out[src as usize] = Some(piece);
                                data_left -= 1;
                            } else {
                                let bytes = piece.wire_bytes();
                                ctx.send(dst as usize, tag, (src, piece), 4 + bytes);
                            }
                        }
                    } else {
                        let (src, piece) = msg.expect_ref::<(u32, Vec<T>)>().clone();
                        out[src as usize] = Some(piece);
                        data_left -= 1;
                    }
                }
            }
        }
        out.into_iter()
            .map(|v| v.expect("alltoall slot must be filled"))
            .collect()
    }

    // ------------------------------------------------------------------
    // 13. scan
    // ------------------------------------------------------------------

    /// MPI_Scan: inclusive prefix reduction — rank `i` receives
    /// `op(x_0, ..., x_i)`.
    pub fn scan<T: Wire, F: Fn(&T, &T) -> T>(&mut self, ctx: &mut Ctx<'_>, contrib: T, op: F) -> T {
        let me = ctx.rank();
        let p = ctx.nprocs();
        match self.algo {
            Algo::Flat => {
                // Recursive doubling (Hillis-Steele): log2(p) rounds, each
                // potentially crossing the wide area.
                let mut val = contrib;
                let mut dist = 1usize;
                while dist < p {
                    let round_tag = self.next_tag();
                    if me + dist < p {
                        let bytes = val.wire_bytes();
                        ctx.send(me + dist, round_tag, val.clone(), bytes);
                    }
                    if me >= dist {
                        let msg = ctx.recv_from(me - dist, round_tag);
                        val = op(msg.expect_ref::<T>(), &val);
                    }
                    dist <<= 1;
                }
                val
            }
            Algo::ClusterAware => {
                // Linear scan inside the cluster, cluster totals chained
                // across clusters (one WAN hop each), per-cluster offset
                // broadcast locally.
                let chain_tag = self.next_tag();
                let offset_tag = self.next_tag();
                let topo = ctx.topology().clone();
                let my_cluster = ctx.cluster();
                let members = topo.members(my_cluster).to_vec();
                let my_pos = members
                    .iter()
                    .position(|&r| r == me)
                    .expect("caller rank is a member of its own cluster");
                let acc = if my_pos == 0 {
                    contrib.clone()
                } else {
                    let msg = ctx.recv_from(members[my_pos - 1], chain_tag);
                    op(msg.expect_ref::<T>(), &contrib)
                };
                if my_pos + 1 < members.len() {
                    let bytes = acc.wire_bytes();
                    ctx.send(members[my_pos + 1], chain_tag, acc.clone(), bytes);
                }
                let last = *members.last().expect("clusters are never empty");
                let mut offset: Option<T> = None;
                if me == last {
                    // MagPIe-style: every cluster's *total* goes directly to
                    // all later clusters in parallel, so the wide-area part
                    // completes in one latency (not a chain).
                    for c in (my_cluster + 1)..topo.nclusters() {
                        let their_last = *topo.members(c).last().expect("clusters are never empty");
                        let bytes = acc.wire_bytes();
                        ctx.send(their_last, chain_tag, acc.clone(), bytes);
                    }
                    let mut incoming: Option<T> = None;
                    for c in 0..my_cluster {
                        let their_last = *topo.members(c).last().expect("clusters are never empty");
                        let total = ctx.recv_from(their_last, chain_tag);
                        let total = total.expect_ref::<T>();
                        incoming = Some(match &incoming {
                            Some(prev) => op(prev, total),
                            None => total.clone(),
                        });
                    }
                    offset = incoming;
                }
                if my_cluster > 0 {
                    let last_pos = members.len() - 1;
                    let offset =
                        (me == last).then(|| offset.expect("non-first cluster has an offset"));
                    // Only the broadcasting rank's size counts; receivers
                    // forward with the size they received.
                    let bytes = offset.wire_bytes();
                    let off = bcast_group(ctx, &members, last_pos, offset_tag, offset, bytes);
                    op(&off, &acc)
                } else {
                    acc
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // 14. reduce_scatter
    // ------------------------------------------------------------------

    /// MPI_Reduce_scatter: element-wise reduction of per-rank vectors, then
    /// rank `i` receives element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `contrib.len() != nprocs`.
    pub fn reduce_scatter<T: Wire, F: Fn(&T, &T) -> T>(
        &mut self,
        ctx: &mut Ctx<'_>,
        contrib: Vec<T>,
        op: F,
    ) -> T {
        assert_eq!(contrib.len(), ctx.nprocs(), "one element per rank");
        let total = self.reduce(ctx, 0, contrib, |a, b| {
            a.iter().zip(b.iter()).map(|(x, y)| op(x, y)).collect()
        });
        self.scatter(ctx, 0, total)
    }
}

/// Lowest set bit of `x` (`x > 0`).
fn lowest_set_bit(x: usize) -> usize {
    x & x.wrapping_neg()
}

/// Forwards a binomial-scatter bundle to the children of relative rank
/// `rel` (whose receive bit was `mask`) and returns the caller's own piece.
/// The child at relative rank `rel + m` owns relative ranks
/// `[rel + m, rel + 2m)`.
fn scatter_down<T: Wire>(
    ctx: &mut Ctx<'_>,
    root: usize,
    tag: Tag,
    rel: usize,
    mask: usize,
    p: usize,
    mut bundle: Vec<(u32, Vec<T>)>,
) -> Vec<T> {
    let me = ctx.rank();
    let mut m = mask >> 1;
    while m > 0 {
        if rel + m < p {
            let lo = rel + m;
            let hi = (rel + 2 * m).min(p);
            let (child_bundle, rest): (Vec<_>, Vec<_>) = bundle.into_iter().partition(|(a, _)| {
                let r = (*a as usize + p - root) % p;
                r >= lo && r < hi
            });
            bundle = rest;
            let child = (lo + root) % p;
            let bytes: u64 = child_bundle.iter().map(|(_, v)| 4 + v.wire_bytes()).sum();
            ctx.send(child, tag, child_bundle, bytes);
        }
        m >>= 1;
    }
    bundle
        .into_iter()
        .find(|(a, _)| *a as usize == me)
        .expect("own piece must be in the bundle")
        .1
}

/// Payload-level binomial broadcast over `group` (a list of ranks), rooted at
/// position `root_pos`. Root passes `Some(payload)`, everyone else `None`.
/// Returns the payload at every member.
///
/// # Panics
///
/// Panics if the caller is not in `group`, or if the root does not supply a
/// payload.
fn bcast_group_payload(
    ctx: &mut Ctx<'_>,
    group: &[usize],
    root_pos: usize,
    tag: Tag,
    payload: Option<Payload>,
    wire_bytes: u64,
) -> Payload {
    let p = group.len();
    assert!(root_pos < p, "root position {root_pos} out of group");
    let me_pos = group
        .iter()
        .position(|&r| r == ctx.rank())
        .expect("bcast caller must be a member of the group");
    let rel = (me_pos + p - root_pos) % p;
    let mut mask = 1usize;
    // Interior nodes forward with the wire size the message actually had,
    // not the (root-only) caller-declared size.
    let mut forward_bytes = wire_bytes;
    let payload = if rel == 0 {
        let payload = payload.expect("broadcast root must supply a payload");
        while mask < p {
            mask <<= 1;
        }
        payload
    } else {
        loop {
            if rel & mask != 0 {
                let parent_rel = rel ^ mask;
                let parent = group[(parent_rel + root_pos) % p];
                let msg = ctx.recv_from(parent, tag);
                forward_bytes = msg.wire_bytes;
                break msg.payload;
            }
            mask <<= 1;
        }
    };
    let mut m = mask >> 1;
    while m > 0 {
        if rel + m < p {
            let child = group[(rel + m + root_pos) % p];
            ctx.send_payload(child, tag, Arc::clone(&payload), forward_bytes);
        }
        m >>= 1;
    }
    payload
}

/// Typed binomial broadcast over a rank group. See [`bcast_group_payload`].
/// Every member shares the root's one allocation in flight and deep-copies
/// the value out once at the end.
fn bcast_group<T: Any + Send + Sync + Clone>(
    ctx: &mut Ctx<'_>,
    group: &[usize],
    root_pos: usize,
    tag: Tag,
    data: Option<T>,
    wire_bytes: u64,
) -> T {
    let payload = bcast_group_payload(
        ctx,
        group,
        root_pos,
        tag,
        data.map(|d| Arc::new(d) as Payload),
        wire_bytes,
    );
    payload
        .downcast::<T>()
        .unwrap_or_else(|_| panic!("broadcast payload type mismatch"))
        .as_ref()
        .clone()
}

/// Binomial reduce over a rank group with a commutative-associative `op`.
/// Returns `Some(total)` at the root position, `None` elsewhere.
///
/// # Panics
///
/// Panics if the caller is not in `group`.
fn reduce_group<T, F>(
    ctx: &mut Ctx<'_>,
    group: &[usize],
    root_pos: usize,
    tag: Tag,
    contrib: T,
    op: F,
    wire_bytes: u64,
) -> Option<T>
where
    T: Any + Send + Sync + Clone,
    F: Fn(&T, &T) -> T,
{
    let p = group.len();
    assert!(root_pos < p, "root position {root_pos} out of group");
    let me_pos = group
        .iter()
        .position(|&r| r == ctx.rank())
        .expect("reduce caller must be a member of the group");
    let rel = (me_pos + p - root_pos) % p;
    let mut acc = contrib;
    let mut mask = 1usize;
    while mask < p {
        if rel & mask == 0 {
            let src_rel = rel | mask;
            if src_rel < p {
                let src = group[(src_rel + root_pos) % p];
                let m = ctx.recv_from(src, tag);
                acc = op(&acc, m.expect_ref::<T>());
            }
        } else {
            let dst_rel = rel ^ mask;
            let dst = group[(dst_rel + root_pos) % p];
            ctx.send(dst, tag, acc, wire_bytes);
            return None;
        }
        mask <<= 1;
    }
    Some(acc)
}

/// Flat (topology-oblivious) broadcast over all ranks, rooted at rank `root`.
/// This is what a runtime written for a uniform interconnect does; on a
/// two-layer machine the binomial tree crosses wide-area links many times.
pub fn bcast_flat<T: Any + Send + Sync + Clone>(
    ctx: &mut Ctx<'_>,
    root: usize,
    tag: Tag,
    data: Option<T>,
    wire_bytes: u64,
) -> T {
    let group: Vec<usize> = (0..ctx.nprocs()).collect();
    bcast_group(ctx, &group, root, tag, data, wire_bytes)
}

/// Flat reduce over all ranks to rank `root`.
pub fn reduce_flat<T, F>(
    ctx: &mut Ctx<'_>,
    root: usize,
    tag: Tag,
    contrib: T,
    op: F,
    wire_bytes: u64,
) -> Option<T>
where
    T: Any + Send + Sync + Clone,
    F: Fn(&T, &T) -> T,
{
    let group: Vec<usize> = (0..ctx.nprocs()).collect();
    reduce_group(ctx, &group, root, tag, contrib, op, wire_bytes)
}

/// Cluster-aware broadcast: the root sends once to each remote cluster's
/// entry rank over the wide area, and each cluster fans out over its fast
/// local links — every WAN link carries the payload exactly once, and every
/// rank on the machine shares the root's single allocation in flight.
fn bcast_aware<T: Any + Send + Sync + Clone>(
    ctx: &mut Ctx<'_>,
    root: usize,
    tag: Tag,
    data: Option<T>,
    wire_bytes: u64,
) -> T {
    let topo = ctx.topology().clone();
    let my_cluster = ctx.cluster();
    let root_cluster = topo.cluster_of_rank(root);
    let entry = if my_cluster == root_cluster {
        root
    } else {
        topo.cluster_root(my_cluster)
    };
    let me = ctx.rank();
    let mut forward_bytes = wire_bytes;
    let payload: Option<Payload> = if me == root {
        let payload: Payload = Arc::new(data.expect("broadcast root must supply data"));
        for c in 0..topo.nclusters() {
            if c != root_cluster {
                ctx.send_payload(topo.cluster_root(c), tag, Arc::clone(&payload), wire_bytes);
            }
        }
        Some(payload)
    } else if me == entry {
        let msg = ctx.recv_from(root, tag);
        forward_bytes = msg.wire_bytes;
        Some(msg.payload)
    } else {
        None
    };
    let members = topo.members(my_cluster).to_vec();
    let root_pos = members
        .iter()
        .position(|&r| r == entry)
        .expect("cluster entry must be a member");
    let payload = bcast_group_payload(ctx, &members, root_pos, tag, payload, forward_bytes);
    payload
        .downcast::<T>()
        .unwrap_or_else(|_| panic!("broadcast payload type mismatch"))
        .as_ref()
        .clone()
}

/// Cluster-aware reduce: each cluster reduces locally to its entry rank, and
/// the entries' partial results cross the wide area once each.
fn reduce_aware<T, F>(
    ctx: &mut Ctx<'_>,
    root: usize,
    tag: Tag,
    contrib: T,
    op: F,
    wire_bytes: u64,
) -> Option<T>
where
    T: Any + Send + Sync + Clone,
    F: Fn(&T, &T) -> T,
{
    let topo = ctx.topology().clone();
    let my_cluster = ctx.cluster();
    let root_cluster = topo.cluster_of_rank(root);
    let entry = if my_cluster == root_cluster {
        root
    } else {
        topo.cluster_root(my_cluster)
    };
    let members = topo.members(my_cluster).to_vec();
    let root_pos = members
        .iter()
        .position(|&r| r == entry)
        .expect("cluster entry must be a member");
    let partial = reduce_group(ctx, &members, root_pos, tag, contrib, &op, wire_bytes);
    let me = ctx.rank();
    if me == root {
        let mut acc = partial.expect("root holds its cluster's partial");
        for c in 0..topo.nclusters() {
            if c != root_cluster {
                let m = ctx.recv_from(topo.cluster_root(c), tag);
                acc = op(&acc, m.expect_ref::<T>());
            }
        }
        Some(acc)
    } else if me == entry {
        let partial = partial.expect("cluster entry holds the partial");
        ctx.send(root, tag, partial, wire_bytes);
        None
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;
    use numagap_net::{das_spec, uniform_spec};

    fn sum(a: &u64, b: &u64) -> u64 {
        a + b
    }

    #[test]
    fn flat_bcast_reaches_everyone() {
        for p in [1usize, 2, 3, 5, 8] {
            let machine = Machine::new(uniform_spec(p));
            let report = machine
                .run(|ctx| {
                    let data = if ctx.rank() == 0 { Some(7u64) } else { None };
                    bcast_flat(ctx, 0, coll_tag(0), data, 8)
                })
                .unwrap();
            assert_eq!(report.results, vec![7u64; p]);
        }
    }

    #[test]
    fn flat_bcast_nonzero_root() {
        let machine = Machine::new(uniform_spec(6));
        let report = machine
            .run(|ctx| {
                let data = if ctx.rank() == 4 { Some(11u64) } else { None };
                bcast_flat(ctx, 4, coll_tag(1), data, 8)
            })
            .unwrap();
        assert_eq!(report.results, vec![11u64; 6]);
    }

    #[test]
    fn flat_reduce_sums() {
        for p in [1usize, 2, 4, 7] {
            let machine = Machine::new(uniform_spec(p));
            let report = machine
                .run(|ctx| reduce_flat(ctx, 0, coll_tag(2), ctx.rank() as u64, sum, 8))
                .unwrap();
            let expected: u64 = (0..p as u64).sum();
            assert_eq!(report.results[0], Some(expected));
            for r in &report.results[1..] {
                assert!(r.is_none());
            }
        }
    }

    #[test]
    fn aware_bcast_crosses_each_wan_link_once() {
        let machine = Machine::new(das_spec(4, 4, 1.0, 1.0));
        let report = machine
            .run(|ctx| {
                let data = if ctx.rank() == 0 {
                    Some(vec![1u8; 100])
                } else {
                    None
                };
                bcast_aware(ctx, 0, coll_tag(3), data, 100)
            })
            .unwrap();
        for r in &report.results {
            assert_eq!(r.len(), 100);
        }
        // Exactly 3 inter-cluster messages: one per remote cluster.
        assert_eq!(report.net_stats.inter_msgs, 3);
    }

    #[test]
    fn flat_bcast_crosses_wan_more_often() {
        // Note: on power-of-two machines with contiguous clusters a binomial
        // tree is accidentally near-hierarchical, so use 4 clusters of 3.
        let run = |aware: bool| {
            let machine = Machine::new(das_spec(4, 3, 1.0, 1.0));
            machine
                .run(move |ctx| {
                    let data = if ctx.rank() == 0 { Some(0u64) } else { None };
                    if aware {
                        bcast_aware(ctx, 0, coll_tag(4), data, 8)
                    } else {
                        bcast_flat(ctx, 0, coll_tag(4), data, 8)
                    }
                })
                .unwrap()
        };
        let flat = run(false);
        let aware = run(true);
        assert_eq!(
            aware.net_stats.inter_msgs, 3,
            "one WAN message per remote cluster"
        );
        assert!(
            flat.net_stats.inter_msgs > aware.net_stats.inter_msgs,
            "flat {} vs aware {}",
            flat.net_stats.inter_msgs,
            aware.net_stats.inter_msgs
        );
        // The flat tree also chains WAN hops (deeper critical path).
        assert!(flat.elapsed > aware.elapsed);
    }

    #[test]
    fn aware_reduce_matches_flat() {
        let expected: u64 = (0..12u64).map(|r| r * r).sum();
        for aware in [false, true] {
            let machine = Machine::new(das_spec(3, 4, 1.0, 1.0));
            let report = machine
                .run(move |ctx| {
                    let contrib = (ctx.rank() * ctx.rank()) as u64;
                    if aware {
                        reduce_aware(ctx, 0, coll_tag(5), contrib, sum, 8)
                    } else {
                        reduce_flat(ctx, 0, coll_tag(5), contrib, sum, 8)
                    }
                })
                .unwrap();
            assert_eq!(report.results[0], Some(expected));
        }
    }

    #[test]
    fn aware_reduce_sends_one_partial_per_cluster() {
        let machine = Machine::new(das_spec(4, 8, 1.0, 1.0));
        let report = machine
            .run(|ctx| reduce_aware(ctx, 0, coll_tag(6), 1u64, sum, 8))
            .unwrap();
        assert_eq!(report.results[0], Some(32));
        assert_eq!(report.net_stats.inter_msgs, 3);
    }

    #[test]
    fn group_bcast_on_subset() {
        let machine = Machine::new(uniform_spec(6));
        let report = machine
            .run(|ctx| {
                let group = [1usize, 3, 5];
                if group.contains(&ctx.rank()) {
                    let data = if ctx.rank() == 3 { Some(9u8) } else { None };
                    Some(bcast_group(ctx, &group, 1, coll_tag(7), data, 1))
                } else {
                    None
                }
            })
            .unwrap();
        assert_eq!(
            report.results,
            vec![None, Some(9), None, Some(9), None, Some(9)]
        );
    }

    #[test]
    fn reduce_with_nonzero_root() {
        let machine = Machine::new(das_spec(2, 3, 1.0, 1.0));
        let report = machine
            .run(|ctx| reduce_aware(ctx, 4, coll_tag(8), 2u64, sum, 8))
            .unwrap();
        assert_eq!(report.results[4], Some(12));
    }
}
