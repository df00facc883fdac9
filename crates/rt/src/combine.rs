//! Message combining: batching many small messages into few large ones.
//!
//! One-level combining (per destination processor) is what the paper's
//! original Awari and Barnes-Hut codes already did; the *cluster-aware*
//! second level (per destination cluster, unpacked by a relay processor on
//! the far side) is the optimization that masks the high per-message cost of
//! the wide-area links.

use std::any::Any;
use std::collections::BTreeMap;

use numagap_sim::{Message, Tag};

use crate::ctx::Ctx;

/// One-level combining buffer: batches items per destination rank and sends
/// each batch as a single `Vec<T>` message under `data_tag`.
///
/// # Examples
///
/// ```
/// use numagap_rt::{Machine, Combiner};
/// use numagap_net::uniform_spec;
/// use numagap_sim::Tag;
///
/// let machine = Machine::new(uniform_spec(2));
/// machine.run(|ctx| {
///     if ctx.rank() == 0 {
///         let mut comb = Combiner::new(Tag::app(1), 8, 4);
///         for i in 0..10u64 {
///             comb.add(ctx, 1, i);
///         }
///         comb.flush(ctx);
///     } else {
///         let mut got = 0;
///         while got < 10 {
///             let batch: Vec<u64> = ctx.recv_tag(Tag::app(1)).expect_clone();
///             got += batch.len();
///         }
///     }
/// }).unwrap();
/// ```
#[derive(Debug)]
pub struct Combiner<T> {
    data_tag: Tag,
    item_bytes: u64,
    max_items: usize,
    buf: BTreeMap<usize, Vec<T>>,
}

impl<T: Any + Send + Sync> Combiner<T> {
    /// Creates a combiner sending batches under `data_tag`, charging
    /// `item_bytes` of wire per item, flushing a destination's buffer when it
    /// reaches `max_items`.
    ///
    /// # Panics
    ///
    /// Panics if `max_items` is zero.
    pub fn new(data_tag: Tag, item_bytes: u64, max_items: usize) -> Self {
        assert!(max_items > 0, "max_items must be positive");
        Combiner {
            data_tag,
            item_bytes,
            max_items,
            buf: BTreeMap::new(),
        }
    }

    /// Number of currently buffered items (all destinations).
    pub fn buffered(&self) -> usize {
        self.buf.values().map(Vec::len).sum()
    }

    /// Adds an item for `dst`, flushing that destination's batch if full.
    pub fn add(&mut self, ctx: &mut Ctx<'_>, dst: usize, item: T) {
        let v = self.buf.entry(dst).or_default();
        v.push(item);
        if v.len() >= self.max_items {
            let batch = std::mem::take(v);
            self.send_batch(ctx, dst, batch);
        }
    }

    /// Flushes all buffered batches (in ascending destination order).
    pub fn flush(&mut self, ctx: &mut Ctx<'_>) {
        let buf = std::mem::take(&mut self.buf);
        for (dst, batch) in buf {
            if !batch.is_empty() {
                self.send_batch(ctx, dst, batch);
            }
        }
    }

    fn send_batch(&self, ctx: &mut Ctx<'_>, dst: usize, batch: Vec<T>) {
        let bytes = batch.len() as u64 * self.item_bytes;
        ctx.send(dst, self.data_tag, batch, bytes);
    }
}

impl<T> Drop for Combiner<T> {
    fn drop(&mut self) {
        let buffered: usize = self.buf.values().map(Vec::len).sum();
        if buffered > 0 && !std::thread::panicking() {
            crate::lint::report(crate::lint::LintRecord::UnflushedCombiner {
                data_tag: self.data_tag,
                buffered,
            });
        }
    }
}

/// An addressed item as shipped to a relay: `(final destination rank, item)`.
pub type Addressed<T> = (u32, T);

/// How many times `max_items` a per-remote-cluster batch holds before it is
/// flushed: a cluster aggregates traffic for many destinations, so its
/// batches should be proportionally bigger — that is the entire point of
/// the second combining level.
const REMOTE_BATCH_FACTOR: usize = 8;

/// Two-level (cluster-aware) combining buffer.
///
/// Same-cluster items are batched per destination rank exactly like
/// [`Combiner`]. Items for a *remote* cluster are batched per cluster, up to
/// eight times as many, and shipped once over the wide-area link to that
/// cluster's relay rank, which unpacks and forwards them locally (see
/// [`ClusterCombiner::handle_relay`]). Receivers see ordinary `Vec<T>`
/// batches under `data_tag` either way.
#[derive(Debug)]
pub struct ClusterCombiner<T> {
    data_tag: Tag,
    relay_tag: Tag,
    item_bytes: u64,
    max_items: usize,
    local: BTreeMap<usize, Vec<T>>,
    remote: BTreeMap<usize, Vec<Addressed<T>>>,
}

impl<T: Any + Send + Sync + Clone> ClusterCombiner<T> {
    /// Creates a two-level combiner. `relay_tag` must be distinct from
    /// `data_tag`; relay ranks must pass messages received under `relay_tag`
    /// to [`ClusterCombiner::handle_relay`].
    ///
    /// # Panics
    ///
    /// Panics if the tags are equal or `max_items` is zero.
    pub fn new(data_tag: Tag, relay_tag: Tag, item_bytes: u64, max_items: usize) -> Self {
        assert_ne!(data_tag, relay_tag, "data and relay tags must differ");
        assert!(max_items > 0, "max_items must be positive");
        ClusterCombiner {
            data_tag,
            relay_tag,
            item_bytes,
            max_items,
            local: BTreeMap::new(),
            remote: BTreeMap::new(),
        }
    }

    /// Number of currently buffered items (all destinations).
    pub fn buffered(&self) -> usize {
        self.local.values().map(Vec::len).sum::<usize>()
            + self.remote.values().map(Vec::len).sum::<usize>()
    }

    /// Adds an item for final destination `dst`.
    pub fn add(&mut self, ctx: &mut Ctx<'_>, dst: usize, item: T) {
        let my_cluster = ctx.cluster();
        let dst_cluster = ctx.topology().cluster_of_rank(dst);
        if dst_cluster == my_cluster {
            let v = self.local.entry(dst).or_default();
            v.push(item);
            if v.len() >= self.max_items {
                let batch = std::mem::take(v);
                self.send_local(ctx, dst, batch);
            }
        } else {
            let v = self.remote.entry(dst_cluster).or_default();
            v.push((dst as u32, item));
            if v.len() >= self.max_items * REMOTE_BATCH_FACTOR {
                let batch = std::mem::take(v);
                self.send_remote(ctx, dst_cluster, batch);
            }
        }
    }

    /// Flushes all buffered batches.
    pub fn flush(&mut self, ctx: &mut Ctx<'_>) {
        let local = std::mem::take(&mut self.local);
        for (dst, batch) in local {
            if !batch.is_empty() {
                self.send_local(ctx, dst, batch);
            }
        }
        let remote = std::mem::take(&mut self.remote);
        for (cluster, batch) in remote {
            if !batch.is_empty() {
                self.send_remote(ctx, cluster, batch);
            }
        }
    }

    fn send_local(&self, ctx: &mut Ctx<'_>, dst: usize, batch: Vec<T>) {
        let bytes = batch.len() as u64 * self.item_bytes;
        ctx.send(dst, self.data_tag, batch, bytes);
    }

    fn send_remote(&self, ctx: &mut Ctx<'_>, cluster: usize, batch: Vec<Addressed<T>>) {
        let relay = ctx.topology().cluster_root(cluster);
        // 4 bytes of addressing per item on the wire.
        let bytes = batch.len() as u64 * (self.item_bytes + 4);
        ctx.send(relay, self.relay_tag, batch, bytes);
    }

    /// Relay-side handler: unpacks a message received under `relay_tag` and
    /// forwards its items as per-destination `Vec<T>` batches under
    /// `data_tag`, in ascending destination order, over the fast local links
    /// (including to the relay itself via loopback). Consumes the message
    /// and, when it holds the last reference to the batch (the common case —
    /// a relay batch has exactly one addressee), *moves* the items into
    /// their per-destination batches instead of cloning them.
    pub fn handle_relay(&self, ctx: &mut Ctx<'_>, msg: Message) {
        debug_assert_eq!(msg.tag, self.relay_tag, "not a relay message");
        let shared = msg.expect_shared::<Vec<Addressed<T>>>();
        let mut per_dst: BTreeMap<usize, Vec<T>> = BTreeMap::new();
        match std::sync::Arc::try_unwrap(shared) {
            Ok(items) => {
                for (dst, item) in items {
                    per_dst.entry(dst as usize).or_default().push(item);
                }
            }
            Err(shared) => {
                // Still referenced elsewhere (duplicated by fault injection
                // and not yet deduplicated): fall back to cloning.
                for (dst, item) in shared.iter() {
                    per_dst.entry(*dst as usize).or_default().push(item.clone());
                }
            }
        }
        self.forward(ctx, per_dst);
    }

    fn forward(&self, ctx: &mut Ctx<'_>, per_dst: BTreeMap<usize, Vec<T>>) {
        for (dst, batch) in per_dst {
            let bytes = batch.len() as u64 * self.item_bytes;
            ctx.send(dst, self.data_tag, batch, bytes);
        }
    }

    /// The tag relays must listen on.
    pub fn relay_tag(&self) -> Tag {
        self.relay_tag
    }

    /// The tag final batches are delivered under.
    pub fn data_tag(&self) -> Tag {
        self.data_tag
    }
}

impl<T> Drop for ClusterCombiner<T> {
    fn drop(&mut self) {
        let buffered: usize = self.local.values().map(Vec::len).sum::<usize>()
            + self.remote.values().map(Vec::len).sum::<usize>();
        if buffered > 0 && !std::thread::panicking() {
            crate::lint::report(crate::lint::LintRecord::UnflushedCombiner {
                data_tag: self.data_tag,
                buffered,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;
    use numagap_net::{das_spec, uniform_spec};
    use numagap_sim::{Filter, SimDuration};

    #[test]
    fn combiner_flushes_on_threshold() {
        let machine = Machine::new(uniform_spec(2));
        let report = machine
            .run(|ctx| {
                if ctx.rank() == 0 {
                    let mut comb = Combiner::new(Tag::app(1), 16, 3);
                    for i in 0..7u64 {
                        comb.add(ctx, 1, i);
                    }
                    assert_eq!(comb.buffered(), 1);
                    comb.flush(ctx);
                    assert_eq!(comb.buffered(), 0);
                    vec![]
                } else {
                    let mut batches = Vec::new();
                    let mut got = 0;
                    while got < 7 {
                        let b: Vec<u64> = ctx.recv_tag(Tag::app(1)).expect_clone();
                        got += b.len();
                        batches.push(b.len());
                    }
                    batches
                }
            })
            .unwrap();
        // Two full batches of 3 and a final flush of 1.
        assert_eq!(report.results[1], vec![3, 3, 1]);
    }

    #[test]
    fn combiner_reduces_message_count() {
        let count_msgs = |max_items: usize| {
            let machine = Machine::new(uniform_spec(2));
            machine
                .run(move |ctx| {
                    if ctx.rank() == 0 {
                        let mut comb = Combiner::new(Tag::app(1), 8, max_items);
                        for i in 0..100u64 {
                            comb.add(ctx, 1, i);
                        }
                        comb.flush(ctx);
                    } else {
                        let mut got = 0;
                        while got < 100 {
                            got += ctx.recv_tag(Tag::app(1)).expect_ref::<Vec<u64>>().len();
                        }
                    }
                })
                .unwrap()
                .kernel_stats
                .messages
        };
        assert_eq!(count_msgs(1), 100);
        assert_eq!(count_msgs(25), 4);
    }

    #[test]
    fn cluster_combiner_routes_via_relay() {
        // 2 clusters of 2; rank 1 sends items to everyone. Remote items must
        // travel as ONE wan message to the relay (rank 2), then fan out: the
        // relay holds the only reference to its batch and moves the items
        // into per-destination batches. Every rank's batches, the WAN
        // message count and the virtual makespan are pinned.
        let machine = Machine::new(das_spec(2, 2, 1.0, 1.0));
        let report = machine
            .run(|ctx| {
                let mut comb: ClusterCombiner<u64> =
                    ClusterCombiner::new(Tag::app(1), Tag::app(2), 8, 64);
                let mut received: Vec<u64> = Vec::new();
                if ctx.rank() == 1 {
                    for i in 0..12u64 {
                        // round-robin items to ranks 0,2,3
                        let dst = [0usize, 2, 3][(i % 3) as usize];
                        comb.add(ctx, dst, i);
                    }
                    comb.flush(ctx);
                }
                // Everyone except the sender expects 4 items; the relay also
                // serves one relay message.
                if ctx.rank() == 2 {
                    // Relay: first handle the relay batch, then collect own.
                    let m = ctx.recv_tag(Tag::app(2));
                    comb.handle_relay(ctx, m);
                }
                if ctx.rank() != 1 {
                    while received.len() < 4 {
                        let m = ctx.recv(Filter::tag(Tag::app(1)));
                        received.extend(m.expect_ref::<Vec<u64>>());
                    }
                    received.sort_unstable();
                }
                received
            })
            .unwrap();
        assert_eq!(report.results[0], vec![0, 3, 6, 9]);
        assert_eq!(report.results[2], vec![1, 4, 7, 10]);
        assert_eq!(report.results[3], vec![2, 5, 8, 11]);
        // Exactly one WAN message: the combined relay batch.
        assert_eq!(report.net_stats.inter_msgs, 1);
        assert_eq!(report.elapsed, SimDuration::from_nanos(1_378_320));
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn cluster_combiner_rejects_equal_tags() {
        let _ = ClusterCombiner::<u8>::new(Tag::app(1), Tag::app(1), 1, 1);
    }
}
