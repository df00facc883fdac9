//! # numagap-dsm — a miniature distributed shared memory
//!
//! The DAS could be programmed through software DSMs (TreadMarks, CRL) as
//! well as message passing; this crate provides a small, deterministic
//! DSM-flavoured abstraction over the simulated machine so that programming
//! model can be explored too: a [`Replicated<T, U>`] object is replicated on
//! every rank, *reads are local*, and writes are typed update operations
//! that become visible at the next [`Replicated::fence`] — release
//! consistency, in the spirit of TreadMarks.
//!
//! At a fence every rank's pending updates are exchanged (point-to-point on
//! a uniform machine, or combined per cluster and unpacked by gateway-rank
//! relays on a two-layer machine — the same cluster-aware structure as the
//! paper's application optimizations), then applied everywhere in one
//! deterministic global order `(writer rank, issue index)`. Replicas
//! therefore stay bit-for-bit identical across ranks, regardless of the
//! interconnect.
//!
//! ```
//! use numagap_dsm::{Replicated, Update};
//! use numagap_net::das_spec;
//! use numagap_rt::Machine;
//!
//! #[derive(Clone)]
//! struct Add(u64);
//! impl Update<u64> for Add {
//!     fn apply(&self, state: &mut u64) {
//!         *state += self.0;
//!     }
//!     fn wire_bytes(&self) -> u64 {
//!         8
//!     }
//! }
//!
//! let machine = Machine::new(das_spec(2, 2, 5.0, 1.0));
//! let report = machine.run(|ctx| {
//!     let mut counter = Replicated::new(0, 0u64);
//!     counter.write(Add(ctx.rank() as u64 + 1));
//!     counter.fence(ctx);
//!     *counter.read()
//! }).unwrap();
//! // 1 + 2 + 3 + 4 on every rank.
//! assert_eq!(report.results, vec![10, 10, 10, 10]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::any::Any;
use std::collections::BTreeMap;

use numagap_rt::tags::service_tag;
use numagap_rt::{Barrier, Ctx};
use numagap_sim::{Filter, Tag};

/// A typed update operation on a replicated object.
///
/// Updates must be deterministic pure functions of `(self, state)`: they are
/// re-executed independently on every replica.
pub trait Update<T>: Clone + Send + Sync + 'static {
    /// Applies the update to a replica.
    fn apply(&self, state: &mut T);

    /// Bytes this update occupies on the wire (default 16).
    fn wire_bytes(&self) -> u64 {
        16
    }
}

/// One update in flight: `(writer rank, writer-local issue index, op)`.
type Stamped<U> = (u32, u64, U);

const DSM_TAG_BASE: u32 = 0x2000;
const MAX_OBJECTS: u32 = 256;

/// A replicated shared object with release consistency.
///
/// Every rank must construct the object with the same `id` and initial
/// state, and call [`Replicated::fence`] the same number of times.
/// See the crate docs for the consistency model.
pub struct Replicated<T, U> {
    id: u32,
    state: T,
    issued: u64,
    epoch: u64,
    pending: Vec<U>,
    barrier: Barrier,
}

impl<T: std::fmt::Debug, U> std::fmt::Debug for Replicated<T, U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replicated")
            .field("id", &self.id)
            .field("state", &self.state)
            .field("issued", &self.issued)
            .field("epoch", &self.epoch)
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl<T, U> Replicated<T, U>
where
    T: Send + Sync + 'static,
    U: Update<T> + Any,
{
    /// Creates replica `id` (`< 256`) with the given initial state. All
    /// ranks must use identical arguments.
    ///
    /// # Panics
    ///
    /// Panics if `id >= 256`.
    pub fn new(id: u32, initial: T) -> Self {
        assert!(id < MAX_OBJECTS, "object id {id} out of range");
        Replicated {
            id,
            state: initial,
            issued: 0,
            epoch: 0,
            pending: Vec::new(),
            barrier: Barrier::new(256 + id),
        }
    }

    /// Reads the local replica. Free of communication; sees exactly the
    /// updates made visible by fences (plus none of the writes buffered
    /// since, including this rank's own).
    pub fn read(&self) -> &T {
        &self.state
    }

    /// Issues an update. Buffered locally until the next [`Replicated::fence`].
    pub fn write(&mut self, update: U) {
        self.pending.push(update);
        self.issued += 1;
    }

    /// Number of updates buffered locally (not yet exchanged).
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    fn data_tag(&self) -> Tag {
        // Epoch folded in so consecutive fences never cross-talk.
        service_tag(DSM_TAG_BASE + self.id * 0x2000 + (self.epoch % 0x1000) as u32 * 2)
    }

    fn relay_tag(&self) -> Tag {
        service_tag(DSM_TAG_BASE + self.id * 0x2000 + (self.epoch % 0x1000) as u32 * 2 + 1)
    }

    /// The release fence: exchanges all ranks' buffered updates and applies
    /// them everywhere in the deterministic global order
    /// `(writer rank, issue index)`. Acts as a global synchronization point.
    ///
    /// On a multi-cluster machine, updates bound for a remote cluster are
    /// combined into one wide-area message and fanned out by that cluster's
    /// gateway rank (cluster-aware, like the paper's optimizations).
    pub fn fence(&mut self, ctx: &mut Ctx<'_>) {
        let p = ctx.nprocs();
        let me = ctx.rank();
        let data_tag = self.data_tag();
        let relay_tag = self.relay_tag();
        let base = self.issued - self.pending.len() as u64;
        let stamped: Vec<Stamped<U>> = self
            .pending
            .drain(..)
            .enumerate()
            .map(|(i, u)| (me as u32, base + i as u64, u))
            .collect();
        let bytes: u64 = stamped.iter().map(|(_, _, u)| 12 + u.wire_bytes()).sum();

        // Ship my batch: direct to my cluster, once per remote cluster.
        let topo = ctx.topology().clone();
        let my_cluster = ctx.cluster();
        for &q in topo.members(my_cluster) {
            if q != me {
                ctx.send(q, data_tag, stamped.clone(), bytes);
            }
        }
        for c in 0..topo.nclusters() {
            if c != my_cluster {
                ctx.send(topo.cluster_root(c), relay_tag, stamped.clone(), bytes);
            }
        }

        // Collect everyone else's batches; gateway ranks also fan incoming
        // relay bundles out to their cluster.
        let csize = topo.members(my_cluster).len();
        let i_am_relay = me == topo.cluster_root(my_cluster);
        let mut relays_left = if i_am_relay { p - csize } else { 0 };
        let mut batches_left = p - 1;
        let mut all: Vec<Stamped<U>> = stamped;
        while batches_left > 0 || relays_left > 0 {
            let msg = ctx.recv(Filter::one_of(&[data_tag, relay_tag]));
            let batch = msg.expect_ref::<Vec<Stamped<U>>>().clone();
            if msg.tag == relay_tag {
                relays_left -= 1;
                let bytes: u64 = batch.iter().map(|(_, _, u)| 12 + u.wire_bytes()).sum();
                for &q in topo.members(my_cluster) {
                    if q != me {
                        ctx.send(q, data_tag, batch.clone(), bytes);
                    }
                }
                batches_left -= 1;
                all.extend(batch);
            } else {
                batches_left -= 1;
                all.extend(batch);
            }
        }

        // Deterministic global order.
        all.sort_by_key(|(w, i, _)| (*w, *i));
        for (_, _, u) in &all {
            u.apply(&mut self.state);
        }
        self.epoch += 1;
        // Leave no stragglers behind: the fence is also a barrier, so the
        // next epoch's messages can never overtake this epoch's processing.
        self.barrier.wait(ctx);
    }

    /// Completed fences so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// A convenience update for counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddU64(pub u64);

impl Update<u64> for AddU64 {
    fn apply(&self, state: &mut u64) {
        *state += self.0;
    }
    fn wire_bytes(&self) -> u64 {
        8
    }
}

/// A convenience update for replicated maps: insert/overwrite a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapPut<K, V> {
    /// Key to write.
    pub key: K,
    /// Value to store.
    pub value: V,
}

impl<K, V> Update<BTreeMap<K, V>> for MapPut<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn apply(&self, state: &mut BTreeMap<K, V>) {
        state.insert(self.key.clone(), self.value.clone());
    }
    fn wire_bytes(&self) -> u64 {
        24
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numagap_net::{das_spec, uniform_spec, Topology, TwoLayerSpec};
    use numagap_rt::Machine;

    #[test]
    fn counter_converges_everywhere() {
        for machine in [
            Machine::new(uniform_spec(4)),
            Machine::new(das_spec(2, 3, 5.0, 1.0)),
            Machine::new(TwoLayerSpec::new(Topology::new(&[1, 3, 2]))),
        ] {
            let p = machine.spec().topology.nprocs();
            let report = machine
                .run(|ctx| {
                    let mut c = Replicated::new(0, 0u64);
                    c.write(AddU64(ctx.rank() as u64 + 1));
                    c.fence(ctx);
                    *c.read()
                })
                .unwrap();
            let expected: u64 = (1..=p as u64).sum();
            assert_eq!(report.results, vec![expected; p]);
        }
    }

    #[test]
    fn reads_are_stale_until_the_fence() {
        let machine = Machine::new(das_spec(2, 2, 5.0, 1.0));
        machine
            .run(|ctx| {
                let mut c = Replicated::new(0, 0u64);
                c.write(AddU64(5));
                // Release consistency: even the local write is invisible
                // before the fence.
                assert_eq!(*c.read(), 0);
                assert_eq!(c.buffered(), 1);
                c.fence(ctx);
                assert_eq!(*c.read(), 5 * ctx.nprocs() as u64);
                assert_eq!(c.buffered(), 0);
            })
            .unwrap();
    }

    #[test]
    fn replicas_are_bit_identical_across_epochs() {
        let machine = Machine::new(das_spec(4, 2, 2.0, 0.5));
        let report = machine
            .run(|ctx| {
                let mut map = Replicated::new(1, BTreeMap::<u32, u64>::new());
                for round in 0..5u64 {
                    map.write(MapPut {
                        key: (ctx.rank() as u32) * 100 + round as u32,
                        value: round * 7,
                    });
                    // Conflicting key written by everyone: the global order
                    // must resolve it identically everywhere.
                    map.write(MapPut {
                        key: 9999,
                        value: ctx.rank() as u64 + round,
                    });
                    map.fence(ctx);
                }
                map.read().clone()
            })
            .unwrap();
        let first = &report.results[0];
        assert_eq!(first.len(), 8 * 5 + 1);
        for replica in &report.results[1..] {
            assert_eq!(replica, first);
        }
        // Conflict resolution: the highest (writer, issue) pair wins — the
        // last writer in global order is rank 7 at round 4.
        assert_eq!(first[&9999], 7 + 4);
    }

    #[test]
    fn multiple_objects_coexist() {
        let machine = Machine::new(das_spec(2, 2, 1.0, 1.0));
        machine
            .run(|ctx| {
                let mut a = Replicated::new(2, 0u64);
                let mut b = Replicated::new(3, 100u64);
                a.write(AddU64(1));
                b.write(AddU64(2));
                a.fence(ctx);
                b.fence(ctx);
                assert_eq!(*a.read(), ctx.nprocs() as u64);
                assert_eq!(*b.read(), 100 + 2 * ctx.nprocs() as u64);
                assert_eq!(a.epoch(), 1);
            })
            .unwrap();
    }

    #[test]
    fn updates_cross_each_wan_link_once_per_writer() {
        let machine = Machine::new(das_spec(4, 4, 5.0, 1.0));
        let report = machine
            .run(|ctx| {
                let mut c = Replicated::new(0, 0u64);
                c.write(AddU64(1));
                c.fence(ctx);
                *c.read()
            })
            .unwrap();
        assert_eq!(report.results[0], 16);
        // Each of 16 writers ships one bundle to each of 3 remote clusters;
        // the dissemination barrier adds a few more.
        let expected_update_msgs = 16 * 3;
        assert!(
            report.net_stats.inter_msgs >= expected_update_msgs
                && report.net_stats.inter_msgs <= expected_update_msgs + 64,
            "inter msgs {}",
            report.net_stats.inter_msgs
        );
    }

    #[test]
    fn empty_fences_are_fine() {
        let machine = Machine::new(das_spec(2, 2, 1.0, 1.0));
        machine
            .run(|ctx| {
                let mut c = Replicated::<u64, AddU64>::new(0, 0u64);
                c.fence(ctx);
                c.fence(ctx);
                assert_eq!(*c.read(), 0);
                assert_eq!(c.epoch(), 2);
            })
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn object_id_bounds() {
        let _ = Replicated::<u64, AddU64>::new(256, 0);
    }
}
