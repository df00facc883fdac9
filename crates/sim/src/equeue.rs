//! The event core: the one statement of the scheduling rules that both
//! event loops of the workspace drive — the kernel's ([`crate::Sim`]) and
//! the what-if replayer's (`numagap_model::Replayer`). The drivers keep
//! only their per-event work; the core owns three rules:
//!
//! 1. **Event order.** Events run in strict `(time, tie, seq)` order, and
//!    the ranks' initial wakes take seq `0..n`. Under the default
//!    [`TieBreak::Fifo`] policy `tie == seq`, so this is the native
//!    `(time, creation order)` total order. The adversarial policies remap
//!    `tie` to reorder *only* events that share a timestamp — the detector
//!    behind `numagap check --perturb` uses them to prove that observed
//!    determinism is structural (invariant under scheduler choice), not an
//!    accident of creation order.
//! 2. **Deferred sends.** A send's network booking is held until its
//!    timestamp ends — the next event is later than `now`, or none is left —
//!    and the held sends are then handed back in canonical `(departure,
//!    rank, per-rank send index)` order, a pure function of application
//!    behaviour. Booking immediately would serialize same-instant transfers
//!    through the network's FIFO resources in *event* order, letting the
//!    tiebreak policy leak into arrival times.
//! 3. **Sequence numbers.** Every scheduled event takes one, in the order
//!    events are scheduled. [`EventCore::reserve`] and
//!    [`EventCore::schedule_reserved`] split that in two, so a driver can
//!    give an event its number and enqueue it later, or never.
//!
//! The queue itself is a plain binary heap over `(time, tie, seq)`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

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
    fn tie(self, seq: u64) -> u64 {
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

/// An event's position in the total order: `(time, tie, seq)`.
type Key = (SimTime, u64, u64);

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    /// Tiebreak key among equal timestamps; `seq` under [`TieBreak::Fifo`].
    tie: u64,
    seq: u64,
    kind: E,
}

impl<E> Entry<E> {
    fn key(&self) -> Key {
        (self.time, self.tie, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest key pops first.
        other.key().cmp(&self.key())
    }
}

/// Counters of event-queue work, folded into [`crate::HotProfile`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct QueueCounters {
    /// Entries pushed onto the heap.
    pub heap_pushes: u64,
    /// Entries popped off the heap.
    pub heap_pops: u64,
    /// Peak number of queued events.
    pub peak_len: u64,
}

/// The event order, the deferred-send rule and the sequence rule of a
/// deterministic event loop, over events of kind `E` and held sends of
/// kind `S` (see the module docs for the three rules).
///
/// A driver pops events with [`EventCore::pop`], which hands every held
/// send back to its `book` callback first whenever the timestamp has ended;
/// the callback books the send and schedules what it causes through the
/// core it is given.
///
/// # Examples
///
/// Rank 0 sends at time 0 to rank 1, which wakes when the message arrives
/// 5 ns later; the booking happens once the timestamp of the send is over.
///
/// ```
/// use numagap_sim::{EventCore, SimDuration, SimTime, TieBreak};
///
/// let mut core: EventCore<usize, usize> = EventCore::new(TieBreak::Fifo);
/// core.reset(2, |rank| rank);
/// let mut woken = Vec::new();
/// let book = |core: &mut EventCore<usize, usize>, at: SimTime, _src: usize, dst: usize| {
///     core.schedule(at + SimDuration::from_nanos(5), dst);
/// };
/// while let Some(rank) = core.pop(book) {
///     woken.push((rank, core.now().as_nanos()));
///     if rank == 0 && core.now() == SimTime::ZERO {
///         core.defer(SimTime::ZERO, 0, 1);
///     }
/// }
/// assert_eq!(woken, [(0, 0), (1, 0), (1, 5)]);
/// ```
#[derive(Debug)]
pub struct EventCore<E, S> {
    heap: BinaryHeap<Entry<E>>,
    pub(crate) counters: QueueCounters,
    tie_break: TieBreak,
    /// The next sequence number.
    seq: u64,
    /// Key of the event popped last; its time is `now`.
    current: Key,
    /// Sends held to the end of the timestamp, as `(departure, rank,
    /// position, send)`. A batch holds each rank's sends in the order the
    /// rank issued them, so the position orders them as the per-rank send
    /// index would.
    held: Vec<(SimTime, usize, usize, S)>,
}

impl<E, S> EventCore<E, S> {
    /// An empty core ordering same-instant events by `tie_break`.
    pub fn new(tie_break: TieBreak) -> Self {
        EventCore {
            heap: BinaryHeap::new(),
            counters: QueueCounters::default(),
            tie_break,
            seq: 0,
            current: (SimTime::ZERO, 0, 0),
            held: Vec::new(),
        }
    }

    /// Empties the core, keeping its allocations, and schedules the initial
    /// wake `wake(rank)` of each of `ranks` ranks at time zero, with
    /// sequence numbers `0..ranks`.
    pub fn reset(&mut self, ranks: usize, mut wake: impl FnMut(usize) -> E) {
        self.heap.clear();
        self.counters = QueueCounters::default();
        self.held.clear();
        self.seq = 0;
        self.current = (SimTime::ZERO, 0, 0);
        // One allocation for the initial wakes instead of a doubling series
        // whose freed blocks the ranks' own allocations then land in:
        // without it a 512-rank kernel run measured about 10 % slower (on a
        // 2-vCPU x86-64 Linux VM).
        self.heap.reserve(ranks);
        for rank in 0..ranks {
            self.schedule(SimTime::ZERO, wake(rank));
        }
    }

    /// The time of the event popped last (zero before the first).
    pub fn now(&self) -> SimTime {
        self.current.0
    }

    /// Takes the next sequence number without scheduling anything.
    pub fn reserve(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    /// Schedules `event` at `time` under a number [`EventCore::reserve`]
    /// handed out.
    #[inline]
    pub fn schedule_reserved(&mut self, time: SimTime, seq: u64, event: E) {
        let tie = self.tie_break.tie(seq);
        self.push(Entry {
            time,
            tie,
            seq,
            kind: event,
        });
    }

    /// Schedules `event` at `time` under the next sequence number.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.reserve();
        self.schedule_reserved(time, seq, event);
    }

    /// Whether an event at `time` with sequence number `seq` is ordered no
    /// later than the event popped last: it has run, or it is that event.
    pub fn has_run(&self, time: SimTime, seq: u64) -> bool {
        (time, self.tie_break.tie(seq), seq) <= self.current
    }

    /// Holds `send`, issued by `rank` at `at`, until the timestamp ends.
    pub fn defer(&mut self, at: SimTime, rank: usize, send: S) {
        self.held.push((at, rank, self.held.len(), send));
    }

    /// Pops the next event, making its time `now`. If the timestamp has
    /// ended — no event is left, or the next one is later than `now` — the
    /// held sends are flushed through `book` first, so the events their
    /// bookings schedule take part in the choice. `None` once the queue and
    /// the held sends are both empty.
    #[inline]
    pub fn pop(&mut self, book: impl FnMut(&mut Self, SimTime, usize, S)) -> Option<E> {
        if !self.held.is_empty() && self.next_time().is_none_or(|t| t > self.current.0) {
            self.flush(book);
        }
        let entry = self.pop_entry()?;
        self.current = entry.key();
        Some(entry.kind)
    }

    /// The earliest queued event, without popping it: what the next
    /// [`EventCore::pop`] returns when no send is held. It is only a hint.
    /// When sends are held and the timestamp ends, `pop` books them first,
    /// and it may then return a delivery one of those bookings scheduled.
    /// An event scheduled before the next `pop` can come first as well.
    ///
    /// # Examples
    ///
    /// ```
    /// use numagap_sim::{EventCore, SimTime, TieBreak};
    ///
    /// let mut core: EventCore<&str, ()> = EventCore::new(TieBreak::Fifo);
    /// core.schedule(SimTime::from_nanos(9), "late");
    /// core.schedule(SimTime::from_nanos(4), "early");
    /// assert_eq!(core.peek(), Some(&"early"));
    /// let no_sends = |_: &mut EventCore<&str, ()>, _, _, _| unreachable!();
    /// assert_eq!(core.pop(no_sends), Some("early"));
    /// assert_eq!(core.peek(), Some(&"late"));
    /// ```
    #[inline]
    pub fn peek(&self) -> Option<&E> {
        self.heap.peek().map(|top| &top.kind)
    }

    /// Hands every held send to `book` as `(core, departure, rank, send)`,
    /// in canonical `(departure, rank, per-rank send index)` order, without
    /// popping anything. [`EventCore::pop`] calls it at each timestamp
    /// boundary; a driver that stops early calls it to book what is left.
    pub fn flush(&mut self, mut book: impl FnMut(&mut Self, SimTime, usize, S)) {
        // Taken and put back, so the next batch reuses the buffer.
        let mut held = std::mem::take(&mut self.held);
        held.sort_unstable_by_key(|h| (h.0, h.1, h.2));
        for (at, rank, _, send) in held.drain(..) {
            book(self, at, rank, send);
        }
        debug_assert!(self.held.is_empty(), "a booking deferred a send");
        self.held = held;
    }

    fn push(&mut self, entry: Entry<E>) {
        self.counters.heap_pushes += 1;
        self.heap.push(entry);
        let len = self.len() as u64;
        if len > self.counters.peak_len {
            self.counters.peak_len = len;
        }
    }

    fn pop_entry(&mut self) -> Option<Entry<E>> {
        let entry = self.heap.pop()?;
        self.counters.heap_pops += 1;
        Some(entry)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    /// Virtual time of the earliest queued event, without popping it.
    fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|top| top.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A FIFO core whose events and held sends carry nothing: the queue
    /// tests push `(time, seq)` keys straight in.
    fn queue() -> EventCore<(), ()> {
        EventCore::new(TieBreak::Fifo)
    }

    fn push(q: &mut EventCore<(), ()>, time: u64, seq: u64) {
        q.schedule_reserved(SimTime::from_nanos(time), seq, ());
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
            let mut q = queue();
            let mut reference = Vec::new();
            let mut seq = 0u64;
            // Interleave pushes and pops, not just push-all/pop-all.
            let mut popped = Vec::new();
            for _ in 0..2_000 {
                if !rng.next().is_multiple_of(3) || q.len() == 0 {
                    let t = rng.next() % 64;
                    reference.push((SimTime::from_nanos(t), seq, seq));
                    push(&mut q, t, seq);
                    seq += 1;
                } else {
                    let e = q.pop_entry().expect("non-empty");
                    popped.push(e.key());
                }
            }
            while let Some(e) = q.pop_entry() {
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
        let mut q = queue();
        let mut pending: Vec<Key> = Vec::new();
        let mut seq = 0u64;
        for _ in 0..1_000 {
            if rng.next().is_multiple_of(2) || pending.is_empty() {
                let t = rng.next() % 16;
                pending.push((SimTime::from_nanos(t), seq, seq));
                push(&mut q, t, seq);
                seq += 1;
            } else {
                let min = *pending.iter().min().unwrap();
                let got = q.pop_entry().expect("non-empty").key();
                assert_eq!(got, min);
                pending.retain(|&k| k != min);
            }
        }
    }

    /// Drains a core loaded with `(time, seq)` pairs under one policy.
    fn drain_under(policy: TieBreak, events: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let mut core: EventCore<u64, ()> = EventCore::new(policy);
        for &(t, seq) in events {
            assert_eq!(core.reserve(), seq);
            core.schedule_reserved(SimTime::from_nanos(t), seq, seq);
        }
        let no_sends = |_: &mut EventCore<u64, ()>, _, _, _| unreachable!();
        std::iter::from_fn(|| core.pop(no_sends).map(|seq| (core.now().as_nanos(), seq))).collect()
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

    /// Books a held send by scheduling a delivery of its payload `10 +
    /// send` ns after departure, and logs the booking order.
    fn book_into(
        log: &mut Vec<(u64, usize, u32)>,
    ) -> impl FnMut(&mut EventCore<u32, u32>, SimTime, usize, u32) + '_ {
        |core, at, rank, send| {
            log.push((at.as_nanos(), rank, send));
            let flight = crate::SimDuration::from_nanos(10 + u64::from(send));
            core.schedule(at + flight, 100 + send);
        }
    }

    #[test]
    fn held_sends_wait_for_the_boundary_and_book_in_canonical_order() {
        for policy in [TieBreak::Fifo, TieBreak::Reversed, TieBreak::Shuffled(3)] {
            let mut core: EventCore<u32, u32> = EventCore::new(policy);
            core.reset(3, |rank| rank as u32);
            let mut log = Vec::new();
            // The first wake at time 0 defers sends out of rank order and
            // two from one rank at one instant; none is booked while the
            // other wakes at time 0 are still queued.
            let first = core.pop(book_into(&mut log)).unwrap();
            core.defer(SimTime::from_nanos(2), 2, 20);
            core.defer(SimTime::from_nanos(1), 1, 10);
            core.defer(SimTime::from_nanos(1), 1, 11);
            core.defer(SimTime::from_nanos(1), 0, 0);
            let mut popped = vec![first];
            for _ in 0..2 {
                popped.push(core.pop(book_into(&mut log)).unwrap());
                assert!(log.is_empty(), "{policy}: booked inside the timestamp");
            }
            popped.sort_unstable();
            assert_eq!(popped, [0, 1, 2], "{policy}");
            // Popping past time 0 books all four, in canonical order.
            assert_eq!(core.pop(book_into(&mut log)), Some(100), "{policy}");
            assert_eq!(log, [(1, 0, 0), (1, 1, 10), (1, 1, 11), (2, 2, 20)]);
            // The deliveries took seq 3.. in booking order.
            assert!(core.has_run(SimTime::from_nanos(11), 3), "{policy}");
            assert!(!core.has_run(SimTime::from_nanos(21), 4), "{policy}");
        }
    }

    #[test]
    fn peek_names_the_next_pop_unless_held_sends_book_first() {
        for policy in [TieBreak::Fifo, TieBreak::Reversed, TieBreak::Shuffled(5)] {
            // With nothing held, every peek is exactly the next pop.
            let mut core: EventCore<u32, u32> = EventCore::new(policy);
            core.reset(4, |rank| rank as u32);
            core.schedule(SimTime::from_nanos(3), 40);
            core.schedule(SimTime::from_nanos(1), 41);
            let mut log = Vec::new();
            loop {
                let peeked = core.peek().copied();
                assert_eq!(peeked, core.pop(book_into(&mut log)), "{policy}");
                if peeked.is_none() {
                    break;
                }
            }
            assert!(log.is_empty());

            // A send held at time 0 is booked when `pop` passes time 0, and
            // its delivery at 10 ns comes before the event peek named.
            let mut core: EventCore<u32, u32> = EventCore::new(policy);
            core.reset(1, |_| 0);
            core.schedule(SimTime::from_nanos(50), 7);
            assert_eq!(core.pop(book_into(&mut log)), Some(0), "{policy}");
            core.defer(SimTime::ZERO, 0, 0);
            assert_eq!(core.peek(), Some(&7), "{policy}");
            assert_eq!(core.pop(book_into(&mut log)), Some(100), "{policy}");
            assert_eq!(log, [(0, 0, 0)], "{policy}");
            assert_eq!(core.peek(), Some(&7), "{policy}");
            log.clear();
        }
    }

    #[test]
    fn flush_books_without_popping() {
        let mut core: EventCore<u32, u32> = EventCore::new(TieBreak::Fifo);
        core.reset(1, |_| 0);
        let mut log = Vec::new();
        assert_eq!(core.pop(book_into(&mut log)), Some(0));
        core.defer(SimTime::ZERO, 0, 7);
        core.flush(book_into(&mut log));
        assert_eq!(log, [(0, 0, 7)]);
        assert_eq!(core.now(), SimTime::ZERO, "flush pops nothing");
        assert_eq!(core.len(), 1, "the delivery stays queued");
    }

    #[test]
    fn a_reserved_number_orders_its_event_when_it_is_finally_scheduled() {
        let mut core: EventCore<u32, ()> = EventCore::new(TieBreak::Fifo);
        core.reset(0, |_| 0);
        let early = core.reserve();
        core.schedule(SimTime::from_nanos(4), 1);
        core.schedule_reserved(SimTime::from_nanos(4), early, 0);
        let no_sends = |_: &mut EventCore<u32, ()>, _, _, _| unreachable!();
        assert_eq!(core.pop(no_sends), Some(0));
        assert_eq!(core.pop(no_sends), Some(1));
        assert_eq!(core.pop(no_sends), None);
        // A reset starts the numbering over and keeps nothing queued.
        core.schedule(SimTime::from_nanos(1), 9);
        core.reset(2, |rank| rank as u32);
        assert_eq!(core.reserve(), 2);
        assert_eq!(core.pop(no_sends), Some(0));
    }
}
