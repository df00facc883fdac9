//! Per-process mailboxes with a tag index.
//!
//! The original mailbox was a `VecDeque<Message>` and every `recv(filter)`
//! linearly scanned it from the front. A rank serving several protocols at
//! once (a sequencer owner also waiting for data, a combiner relay, the
//! reliable transport's ack stream) parks messages it is not currently
//! asking for, and every one of them was re-inspected on every receive.
//!
//! This mailbox keeps messages keyed by a monotonically increasing
//! *arrival slot* (a `BTreeMap`, so arrival order is always recoverable)
//! plus, per tag, a queue of arrival slots. A `recv` for one tag walks only
//! that tag's queue; a `recv` over a tag set takes the minimum arrival slot
//! across the named queues; only wildcard-tag receives walk the global
//! arrival order. The match returned is always *exactly* the one the linear
//! scan would have picked — the oldest message the filter accepts — which
//! the in-module equivalence tests check against a reference scan over
//! randomized workloads.
//!
//! Index maintenance is lazy: a message removed through the wildcard path
//! leaves its slot id behind in its tag queue, and tag-path walks discard
//! ids whose message is gone. Both removal orders are deterministic, so the
//! scan-work counters fed into [`crate::HotProfile`] are too.

use std::collections::{BTreeMap, VecDeque};

use crate::message::{Filter, Message, TagFilter};

/// Counters of mailbox matching work, folded into [`crate::HotProfile`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MailboxCounters {
    /// Candidate entries examined while matching receives (tag-queue ids,
    /// including lazily discarded stale ones, plus wildcard-path messages).
    pub scanned: u64,
    /// Messages taken through the tag index without a wildcard walk.
    pub indexed_takes: u64,
}

#[derive(Default)]
pub(crate) struct Mailbox {
    /// Arrival slot → message; iteration order is arrival order.
    msgs: BTreeMap<u64, Message>,
    /// Tag → arrival slots of that tag's parked messages, oldest first.
    /// May contain stale ids (lazily discarded). A `BTreeMap` so that even
    /// an (accidental) future iteration over the index would see a defined
    /// order — `HashMap` order leaking into simulation state is exactly the
    /// hazard class `numagap audit` rule ND001 exists to catch.
    by_tag: BTreeMap<u32, VecDeque<u64>>,
    next_slot: u64,
}

impl Mailbox {
    /// Parks a delivered message.
    pub(crate) fn push(&mut self, msg: Message) {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.by_tag
            .entry(msg.tag.raw())
            .or_default()
            .push_back(slot);
        self.msgs.insert(slot, msg);
    }

    /// Removes and returns the oldest parked message matching `filter` —
    /// bit-for-bit the message a front-to-back linear scan would return.
    pub(crate) fn take(
        &mut self,
        filter: &Filter,
        counters: &mut MailboxCounters,
    ) -> Option<Message> {
        let slot = match &filter.tag {
            TagFilter::Any => self.scan_wildcard(filter, counters)?,
            TagFilter::One(t) => {
                let slot = self.scan_tag(t.raw(), filter, counters)?;
                counters.indexed_takes += 1;
                slot
            }
            TagFilter::Set(ts) => {
                // Oldest match overall = minimum arrival slot among each
                // tag's oldest match. Tags are examined in the filter's own
                // (deterministic) order.
                let mut best: Option<u64> = None;
                for t in ts.as_slice() {
                    if let Some(slot) = self.peek_tag(t.raw(), filter, counters) {
                        best = Some(best.map_or(slot, |b| b.min(slot)));
                    }
                }
                let slot = best?;
                counters.indexed_takes += 1;
                slot
            }
        };
        let msg = self.msgs.remove(&slot).expect("matched slot must exist");
        // Drop the id from its tag queue if it is still the front; deeper
        // ids are left for lazy discard.
        if let Some(q) = self.by_tag.get_mut(&msg.tag.raw()) {
            if q.front() == Some(&slot) {
                q.pop_front();
            } else if let Some(i) = q.iter().position(|&s| s == slot) {
                q.remove(i);
            }
        }
        Some(msg)
    }

    /// Oldest message accepted by a wildcard-tag filter: walk arrival order.
    fn scan_wildcard(&self, filter: &Filter, counters: &mut MailboxCounters) -> Option<u64> {
        for (&slot, msg) in &self.msgs {
            counters.scanned += 1;
            if filter.src.is_none_or(|s| s == msg.src) {
                return Some(slot);
            }
        }
        None
    }

    /// Oldest live slot in `tag`'s queue whose message passes the src
    /// filter, discarding stale front ids along the way.
    fn scan_tag(
        &mut self,
        tag: u32,
        filter: &Filter,
        counters: &mut MailboxCounters,
    ) -> Option<u64> {
        let msgs = &self.msgs;
        let q = self.by_tag.get_mut(&tag)?;
        // Discard stale ids at the front eagerly; they cost a scan each.
        while let Some(&slot) = q.front() {
            if msgs.contains_key(&slot) {
                break;
            }
            counters.scanned += 1;
            q.pop_front();
        }
        for &slot in q.iter() {
            counters.scanned += 1;
            let Some(msg) = msgs.get(&slot) else {
                continue; // stale mid-queue id, discarded when it surfaces
            };
            if filter.src.is_none_or(|s| s == msg.src) {
                return Some(slot);
            }
        }
        None
    }

    /// Non-destructive variant of [`Mailbox::scan_tag`] for set filters
    /// (`scan_tag` removes nothing but stale ids, so it doubles as a peek).
    fn peek_tag(
        &mut self,
        tag: u32,
        filter: &Filter,
        counters: &mut MailboxCounters,
    ) -> Option<u64> {
        self.scan_tag(tag, filter, counters)
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Parked messages in arrival order (diagnostics: deadlock snapshots).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Message> {
        self.msgs.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Tag, TagSet};
    use crate::time::SimTime;
    use crate::ProcId;
    use std::sync::Arc;

    fn msg(seq: u64, src: usize, tag: Tag) -> Message {
        Message {
            seq,
            src: ProcId(src),
            tag,
            wire_bytes: 8,
            sent_at: SimTime::ZERO,
            arrived_at: SimTime::ZERO,
            payload: Arc::new(seq),
        }
    }

    /// The original implementation, kept as the semantic reference.
    #[derive(Default)]
    struct LinearMailbox(VecDeque<Message>);
    impl LinearMailbox {
        fn push(&mut self, m: Message) {
            self.0.push_back(m);
        }
        fn take(&mut self, filter: &Filter) -> Option<Message> {
            let idx = self.0.iter().position(|m| filter.matches(m))?;
            self.0.remove(idx)
        }
    }

    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    fn random_filter(rng: &mut Rng, tags: &[Tag], nprocs: usize) -> Filter {
        let tag = match rng.next() % 4 {
            0 => TagFilter::Any,
            1 | 2 => TagFilter::One(tags[(rng.next() as usize) % tags.len()]),
            _ => {
                let a = tags[(rng.next() as usize) % tags.len()];
                let b = tags[(rng.next() as usize) % tags.len()];
                TagFilter::Set(TagSet::new(&[a, b]))
            }
        };
        let src = rng
            .next()
            .is_multiple_of(3)
            .then(|| ProcId((rng.next() as usize) % nprocs));
        Filter { src, tag }
    }

    #[test]
    fn indexed_take_matches_linear_scan_on_random_workloads() {
        // App tags, a reserved internal block, and a tag shared by many
        // senders — out-of-order arrivals relative to every receive order.
        let tags = [
            Tag::app(0),
            Tag::app(1),
            Tag::app(7),
            Tag::internal(0),
            Tag::internal(3),
        ];
        for seed in 1..=8u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let mut indexed = Mailbox::default();
            let mut linear = LinearMailbox::default();
            let mut counters = MailboxCounters::default();
            let mut seq = 0u64;
            for _ in 0..3_000 {
                if rng.next().is_multiple_of(2) {
                    let m = msg(
                        seq,
                        (rng.next() as usize) % 4,
                        tags[(rng.next() as usize) % tags.len()],
                    );
                    seq += 1;
                    indexed.push(m.clone());
                    linear.push(m);
                } else {
                    let f = random_filter(&mut rng, &tags, 4);
                    let a = indexed.take(&f, &mut counters);
                    let b = linear.take(&f);
                    assert_eq!(
                        a.as_ref().map(|m| m.seq),
                        b.as_ref().map(|m| m.seq),
                        "filter {f:?} diverged from linear scan (seed {seed})"
                    );
                }
            }
            // Drain both; leftovers must agree in arrival order.
            let rest_a: Vec<u64> = indexed.iter().map(|m| m.seq).collect();
            let rest_b: Vec<u64> = linear.0.iter().map(|m| m.seq).collect();
            assert_eq!(rest_a, rest_b, "seed {seed}");
        }
    }

    #[test]
    fn tag_take_returns_oldest_of_that_tag_not_oldest_overall() {
        let mut mb = Mailbox::default();
        let mut c = MailboxCounters::default();
        mb.push(msg(0, 0, Tag::app(5))); // older, different tag
        mb.push(msg(1, 0, Tag::app(9)));
        mb.push(msg(2, 0, Tag::app(9)));
        let got = mb.take(&Filter::tag(Tag::app(9)), &mut c).unwrap();
        assert_eq!(got.seq, 1, "oldest app(9), skipping the parked app(5)");
        // The skipped app(5) message is untouched and still oldest overall.
        let got = mb.take(&Filter::any(), &mut c).unwrap();
        assert_eq!(got.seq, 0);
    }

    #[test]
    fn reserved_internal_tags_do_not_collide_with_app_tags() {
        let mut mb = Mailbox::default();
        let mut c = MailboxCounters::default();
        mb.push(msg(0, 0, Tag::internal(2)));
        mb.push(msg(1, 0, Tag::app(2)));
        assert!(mb.take(&Filter::tag(Tag::app(2)), &mut c).is_some());
        assert!(mb.take(&Filter::tag(Tag::app(2)), &mut c).is_none());
        assert!(mb.take(&Filter::tag(Tag::internal(2)), &mut c).is_some());
    }

    #[test]
    fn set_filter_takes_global_oldest_across_tags() {
        let mut mb = Mailbox::default();
        let mut c = MailboxCounters::default();
        mb.push(msg(0, 1, Tag::app(3)));
        mb.push(msg(1, 1, Tag::app(1)));
        mb.push(msg(2, 1, Tag::app(2)));
        let f = Filter::one_of(&[Tag::app(1), Tag::app(2), Tag::app(3)]);
        let order: Vec<u64> = std::iter::from_fn(|| mb.take(&f, &mut c).map(|m| m.seq)).collect();
        assert_eq!(order, vec![0, 1, 2], "arrival order, not set order");
    }

    #[test]
    fn src_filter_skips_other_senders_within_a_tag() {
        let mut mb = Mailbox::default();
        let mut c = MailboxCounters::default();
        mb.push(msg(0, 0, Tag::app(4)));
        mb.push(msg(1, 1, Tag::app(4)));
        let f = Filter::tag(Tag::app(4)).from(ProcId(1));
        assert_eq!(mb.take(&f, &mut c).unwrap().seq, 1);
        assert_eq!(mb.take(&Filter::any(), &mut c).unwrap().seq, 0);
    }

    #[test]
    fn stale_ids_from_wildcard_takes_are_discarded_lazily() {
        let mut mb = Mailbox::default();
        let mut c = MailboxCounters::default();
        mb.push(msg(0, 0, Tag::app(1)));
        mb.push(msg(1, 0, Tag::app(1)));
        // Wildcard take removes seq 0 but leaves its id in app(1)'s queue.
        assert_eq!(mb.take(&Filter::any(), &mut c).unwrap().seq, 0);
        // The tag path must skip the stale id and return seq 1.
        assert_eq!(mb.take(&Filter::tag(Tag::app(1)), &mut c).unwrap().seq, 1);
        assert!(mb.is_empty());
    }
}
