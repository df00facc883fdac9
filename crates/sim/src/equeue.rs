//! The kernel's event queue: a binary heap fronted by a one-slot buffer.
//!
//! Events pop in strict `(time, tie, seq)` order. Under the default
//! [`TieBreak::Fifo`] policy `tie == seq`, so this is the kernel's native
//! `(time, creation order)` total order. The adversarial policies remap
//! `tie` to reorder *only* events that share a timestamp — the detector
//! behind `numagap check --perturb` uses them to prove that observed
//! determinism is structural (invariant under scheduler choice), not an
//! accident of creation order.
//!
//! Most of the time the event a kernel step schedules is also the next one
//! to run (a compute wake at the current instant, the only in-flight
//! delivery of a rendezvous), so pushing it through the heap just to pop it
//! right back costs two rounds of sift-up/sift-down and moves the
//! `EventEntry` (which carries a whole [`Message`] on delivery events)
//! around the heap array for nothing.
//!
//! The `front` slot holds the current minimum outside the heap: a push
//! either lands there (displacing a later entry into the heap at most once)
//! and a pop takes the smaller of `front` and the heap top. Pop order is
//! exactly the total `(time, tie, seq)` order either way — the slot is a
//! transparent buffer, not a scheduling heuristic — which the in-module
//! property test checks against randomized insertions.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::message::Message;
use crate::time::SimTime;
use crate::ProcId;

/// Policy for ordering kernel events that share a timestamp.
///
/// The kernel's event order is the total order `(time, tie, seq)` where
/// `seq` is event creation order and `tie` is derived from `seq` by this
/// policy. [`TieBreak::Fifo`] (the default, `tie = seq`) is the native
/// order every golden makespan is pinned against. The other policies are
/// *adversarial*: they permute events within each equal-timestamp group
/// while leaving cross-timestamp order untouched, so a program whose
/// virtual time or results move under them depends on scheduler tiebreak
/// choice — accidental, not structural, determinism. `numagap check
/// --perturb` sweeps these policies over the application suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Creation order among equal timestamps (the kernel's native order).
    #[default]
    Fifo,
    /// Reverse creation order among equal timestamps: the newest scheduled
    /// event at an instant runs first.
    Reversed,
    /// Seeded pseudo-random permutation of equal-timestamp events
    /// (splitmix64 over the creation sequence number). Deterministic for a
    /// given seed; different seeds give different adversarial orders.
    Shuffled(u64),
}

impl TieBreak {
    /// Maps an event's creation sequence number to its tiebreak key. The
    /// map is injective for `Fifo`/`Reversed`; `Shuffled` collisions are
    /// broken by `seq` in the full `(time, tie, seq)` key.
    pub(crate) fn tie(self, seq: u64) -> u64 {
        match self {
            TieBreak::Fifo => seq,
            TieBreak::Reversed => !seq,
            TieBreak::Shuffled(seed) => splitmix64(seed ^ seq),
        }
    }
}

impl std::fmt::Display for TieBreak {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TieBreak::Fifo => write!(f, "fifo"),
            TieBreak::Reversed => write!(f, "reversed"),
            TieBreak::Shuffled(seed) => write!(f, "shuffled({seed})"),
        }
    }
}

/// The finalizer of splitmix64: a well-mixed bijection on `u64`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub(crate) enum EventKind {
    Wake(ProcId),
    Deliver(ProcId, Message),
}

pub(crate) struct EventEntry {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    /// Tiebreak key among equal timestamps; `seq` under [`TieBreak::Fifo`].
    pub(crate) tie: u64,
    pub(crate) kind: EventKind,
}

impl EventEntry {
    fn key(&self) -> (SimTime, u64, u64) {
        (self.time, self.tie, self.seq)
    }
}

impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for EventEntry {}
impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other.key().cmp(&self.key())
    }
}

/// Counters of event-queue work, folded into [`crate::HotProfile`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct QueueCounters {
    /// Entries that entered the binary heap proper.
    pub heap_pushes: u64,
    /// Entries that left through the binary heap proper.
    pub heap_pops: u64,
    /// Events that bypassed the heap through the front slot.
    pub front_pops: u64,
    /// Peak number of queued events.
    pub peak_len: u64,
}

#[derive(Default)]
pub(crate) struct EventQueue {
    /// The queue minimum, held outside the heap. Invariant: when `front` is
    /// `Some`, its key is strictly smaller than every key in `heap`.
    front: Option<EventEntry>,
    heap: BinaryHeap<EventEntry>,
    pub(crate) counters: QueueCounters,
}

impl EventQueue {
    pub(crate) fn push(&mut self, entry: EventEntry) {
        match &self.front {
            None => {
                // The front slot may be empty while the heap is not (a pop
                // just consumed it); only entries beating the heap top may
                // claim it.
                if self.heap.peek().is_some_and(|top| top.key() < entry.key()) {
                    self.counters.heap_pushes += 1;
                    self.heap.push(entry);
                } else {
                    self.front = Some(entry);
                }
            }
            Some(f) if entry.key() < f.key() => {
                let displaced = self.front.replace(entry).expect("front checked Some");
                self.counters.heap_pushes += 1;
                self.heap.push(displaced);
            }
            Some(_) => {
                self.counters.heap_pushes += 1;
                self.heap.push(entry);
            }
        }
        let len = self.len() as u64;
        if len > self.counters.peak_len {
            self.counters.peak_len = len;
        }
    }

    pub(crate) fn pop(&mut self) -> Option<EventEntry> {
        match (&self.front, self.heap.peek()) {
            (Some(f), Some(top)) if top.key() < f.key() => {
                // Unreachable under the invariant, but harmless to honor.
                debug_assert!(false, "front slot invariant violated");
                self.counters.heap_pops += 1;
                self.heap.pop()
            }
            (Some(_), _) => {
                self.counters.front_pops += 1;
                self.front.take()
            }
            (None, Some(_)) => {
                self.counters.heap_pops += 1;
                self.heap.pop()
            }
            (None, None) => None,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len() + usize::from(self.front.is_some())
    }

    /// Virtual time of the earliest queued event, without popping it. The
    /// kernel uses this to detect timestamp boundaries (the point where it
    /// must flush deferred transfer bookings before time advances).
    pub(crate) fn next_time(&self) -> Option<SimTime> {
        match (&self.front, self.heap.peek()) {
            (Some(f), Some(top)) => Some(f.time.min(top.time)),
            (Some(f), None) => Some(f.time),
            (None, Some(top)) => Some(top.time),
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(time: u64, seq: u64) -> EventEntry {
        EventEntry {
            time: SimTime::from_nanos(time),
            seq,
            tie: TieBreak::Fifo.tie(seq),
            kind: EventKind::Wake(ProcId(0)),
        }
    }

    /// Deterministic xorshift generator — no wall-clock nondeterminism.
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

    #[test]
    fn random_insertions_pop_in_total_order() {
        for seed in 1..=5u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut q = EventQueue::default();
            let mut reference = Vec::new();
            let mut seq = 0u64;
            // Interleave pushes and pops so the front slot sees every
            // displacement pattern, not just push-all/pop-all.
            let mut popped = Vec::new();
            for _ in 0..2_000 {
                if !rng.next().is_multiple_of(3) || q.len() == 0 {
                    let t = rng.next() % 64;
                    reference.push((SimTime::from_nanos(t), seq, seq));
                    q.push(entry(t, seq));
                    seq += 1;
                } else {
                    let e = q.pop().expect("non-empty");
                    popped.push(e.key());
                }
            }
            while let Some(e) = q.pop() {
                popped.push(e.key());
            }
            assert_eq!(popped.len(), reference.len(), "seed {seed}");
            // Every pop must return the minimum of what was queued at that
            // moment; over a full drain that implies each prefix is sorted
            // w.r.t. what had been inserted. Cheap global check: the final
            // drain is totally ordered, and the multiset matches.
            let mut sorted = reference.clone();
            sorted.sort_unstable();
            let mut popped_sorted = popped.clone();
            popped_sorted.sort_unstable();
            assert_eq!(popped_sorted, sorted, "multiset mismatch, seed {seed}");
        }
    }

    #[test]
    fn pop_always_returns_current_minimum() {
        // Stronger per-step check on a smaller run: track the pending set
        // and assert each pop is its exact minimum (time, seq).
        let mut rng = Rng(0xDEAD_BEEF_CAFE_F00D);
        let mut q = EventQueue::default();
        let mut pending: Vec<(SimTime, u64, u64)> = Vec::new();
        let mut seq = 0u64;
        for _ in 0..1_000 {
            if rng.next().is_multiple_of(2) || pending.is_empty() {
                let t = rng.next() % 16;
                pending.push((SimTime::from_nanos(t), seq, seq));
                q.push(entry(t, seq));
                seq += 1;
            } else {
                let min = *pending.iter().min().unwrap();
                let got = q.pop().expect("non-empty").key();
                assert_eq!(got, min);
                pending.retain(|&k| k != min);
            }
        }
    }

    #[test]
    fn rendezvous_pattern_stays_out_of_the_heap() {
        // push→pop→push→pop (the ping-pong shape) must be served entirely
        // by the front slot.
        let mut q = EventQueue::default();
        for i in 0..100u64 {
            q.push(entry(i, i));
            assert_eq!(q.pop().unwrap().key(), (SimTime::from_nanos(i), i, i));
        }
        assert_eq!(q.counters.front_pops, 100);
        assert_eq!(q.counters.heap_pushes, 0);
        assert_eq!(q.counters.heap_pops, 0);
        assert_eq!(q.counters.peak_len, 1);
    }

    /// Drains a queue loaded with `(time, seq)` pairs under one policy.
    fn drain_under(policy: TieBreak, events: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let mut q = EventQueue::default();
        for &(t, seq) in events {
            q.push(EventEntry {
                time: SimTime::from_nanos(t),
                seq,
                tie: policy.tie(seq),
                kind: EventKind::Wake(ProcId(0)),
            });
        }
        std::iter::from_fn(|| q.pop().map(|e| (e.time.as_nanos(), e.seq))).collect()
    }

    #[test]
    fn adversarial_policies_permute_only_within_a_timestamp() {
        // Two timestamp groups; every policy must keep the groups in time
        // order and emit each group as a permutation of its members.
        let events: Vec<(u64, u64)> = vec![(5, 0), (5, 1), (5, 2), (9, 3), (9, 4)];
        for policy in [
            TieBreak::Fifo,
            TieBreak::Reversed,
            TieBreak::Shuffled(7),
            TieBreak::Shuffled(0xDEAD_BEEF),
        ] {
            let order = drain_under(policy, &events);
            let times: Vec<u64> = order.iter().map(|&(t, _)| t).collect();
            assert_eq!(times, vec![5, 5, 5, 9, 9], "{policy}: time order broken");
            let mut g1: Vec<u64> = order[..3].iter().map(|&(_, s)| s).collect();
            let mut g2: Vec<u64> = order[3..].iter().map(|&(_, s)| s).collect();
            g1.sort_unstable();
            g2.sort_unstable();
            assert_eq!(g1, vec![0, 1, 2], "{policy}: group 1 not a permutation");
            assert_eq!(g2, vec![3, 4], "{policy}: group 2 not a permutation");
        }
    }

    #[test]
    fn reversed_is_lifo_within_a_timestamp() {
        let events: Vec<(u64, u64)> = vec![(5, 0), (5, 1), (5, 2)];
        let order = drain_under(TieBreak::Reversed, &events);
        assert_eq!(order, vec![(5, 2), (5, 1), (5, 0)]);
    }

    #[test]
    fn shuffled_actually_reorders_and_replays_from_its_seed() {
        let events: Vec<(u64, u64)> = (0..16).map(|s| (1, s)).collect();
        let fifo = drain_under(TieBreak::Fifo, &events);
        let a = drain_under(TieBreak::Shuffled(42), &events);
        let b = drain_under(TieBreak::Shuffled(42), &events);
        let c = drain_under(TieBreak::Shuffled(43), &events);
        assert_eq!(a, b, "same seed, same order");
        assert_ne!(a, fifo, "16 equal-time events must not shuffle to FIFO");
        assert_ne!(a, c, "different seeds give different adversarial orders");
    }
}
