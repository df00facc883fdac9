//! Link parameterization and FIFO occupancy state.

use numagap_sim::{SimDuration, SimTime};

/// Latency/bandwidth parameters of one link class.
///
/// Bandwidth is expressed in MByte/s (decimal megabytes, as in the paper's
/// axes) and converted internally to nanoseconds per byte.
///
/// # Examples
///
/// ```
/// use numagap_net::LinkParams;
/// use numagap_sim::SimDuration;
///
/// let myrinet = LinkParams::myrinet();
/// assert_eq!(myrinet.latency, SimDuration::from_micros(20));
/// // 50 MByte/s => 20 ns per byte
/// assert_eq!(myrinet.tx_time(1_000_000), SimDuration::from_millis(20));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// One-way link latency.
    pub latency: SimDuration,
    /// Nanoseconds of serialization per byte (1000 / bandwidth-in-MByte/s).
    pub ns_per_byte: f64,
}

impl LinkParams {
    /// Creates link parameters from a one-way latency and a bandwidth in
    /// MByte/s (1 MByte = 10^6 bytes, as in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `mbytes_per_sec` is not strictly positive and finite.
    pub fn new(latency: SimDuration, mbytes_per_sec: f64) -> Self {
        assert!(
            mbytes_per_sec.is_finite() && mbytes_per_sec > 0.0,
            "bandwidth must be positive and finite, got {mbytes_per_sec}"
        );
        LinkParams {
            latency,
            ns_per_byte: 1000.0 / mbytes_per_sec,
        }
    }

    /// The paper's intra-cluster Myrinet: 20 µs application-level one-way
    /// latency, 50 MByte/s application-level bandwidth.
    pub fn myrinet() -> Self {
        LinkParams::new(SimDuration::from_micros(20), 50.0)
    }

    /// A WAN/ATM-like link with latency in milliseconds and bandwidth in
    /// MByte/s — the two quantities the paper sweeps.
    pub fn wide_area(latency_ms: f64, mbytes_per_sec: f64) -> Self {
        LinkParams::new(SimDuration::from_millis_f64(latency_ms), mbytes_per_sec)
    }

    /// Serialization time of `bytes` on this link.
    #[inline]
    pub fn tx_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos((bytes as f64 * self.ns_per_byte).round() as u64)
    }

    /// Bandwidth in MByte/s (for reporting).
    pub fn mbytes_per_sec(&self) -> f64 {
        1000.0 / self.ns_per_byte
    }
}

/// Occupancy state of one simulated resource (a NIC, a gateway CPU, or a
/// WAN link): a single server that serves each transmission for its
/// serialization time, as early as possible at or after the instant the
/// transmission is ready.
///
/// The state is a sorted list of disjoint busy intervals rather than a
/// single high-water mark, so a transmission ready at `t` slots into the
/// earliest idle *gap* after `t` that fits it. A high-water-mark resource
/// (`start = max(ready, free_at)`) is only equivalent when acquisitions
/// arrive in ready-time order; the kernel books whole transfer chains at
/// once (a message's downstream gateway is reserved ~one WAN latency ahead
/// of its neighbours' outgoing traffic), and under a high-water mark those
/// far-future reservations force every later-booked, earlier-ready message
/// to queue behind idle air. Gap filling keeps the outcome close to a true
/// ready-order FIFO regardless of booking order — which is what lets the
/// kernel book in canonical `(sent_at, rank, index)` order and makes
/// virtual time invariant under event-tiebreak perturbation.
#[derive(Debug, Clone, Default)]
pub struct LinkState {
    /// Disjoint, coalesced busy intervals `[start, end)`, sorted by start.
    intervals: Vec<(SimTime, SimTime)>,
    /// Total busy time accumulated (for utilization reporting).
    pub busy: SimDuration,
    /// Total bytes serialized through this resource.
    pub bytes: u64,
    /// Total transmissions.
    pub msgs: u64,
}

impl LinkState {
    /// Occupies the resource for `tx` starting no earlier than `ready`;
    /// returns the time at which serialization starts — the beginning of
    /// the earliest idle gap at or after `ready` wide enough for `tx`.
    #[inline]
    pub fn acquire(&mut self, ready: SimTime, tx: SimDuration, bytes: u64) -> SimTime {
        self.busy += tx;
        self.bytes += bytes;
        self.msgs += 1;
        // Fast path: ready at or beyond the frontier — append.
        if self.intervals.last().is_none_or(|&(_, e)| e <= ready) {
            self.insert_at(self.intervals.len(), ready, ready + tx);
            return ready;
        }
        // Intervals are disjoint and sorted, so their ends are sorted too:
        // skip everything that finishes before we could start.
        let mut start = ready;
        let first = self.intervals.partition_point(|&(_, e)| e <= ready);
        let mut idx = self.intervals.len();
        for (i, &(s, e)) in self.intervals.iter().enumerate().skip(first) {
            if s >= start + tx {
                // The gap before interval `i` fits the transmission.
                idx = i;
                break;
            }
            start = e;
        }
        self.insert_at(idx, start, start + tx);
        start
    }

    /// Back to the state of `LinkState::default()`, keeping the interval
    /// list's allocation.
    pub fn clear(&mut self) {
        // Exhaustive: a field added later does not compile until it is
        // restored here.
        let LinkState {
            intervals,
            busy,
            bytes,
            msgs,
        } = self;
        intervals.clear();
        *busy = SimDuration::ZERO;
        *bytes = 0;
        *msgs = 0;
    }

    /// Inserts busy interval `[s, e)` at position `idx`, coalescing with
    /// abutting neighbours so the list stays short under convoy traffic.
    fn insert_at(&mut self, idx: usize, s: SimTime, e: SimTime) {
        let merge_prev = idx > 0 && self.intervals[idx - 1].1 == s;
        let merge_next = idx < self.intervals.len() && self.intervals[idx].0 == e;
        match (merge_prev, merge_next) {
            (true, true) => {
                self.intervals[idx - 1].1 = self.intervals[idx].1;
                self.intervals.remove(idx);
            }
            (true, false) => self.intervals[idx - 1].1 = e,
            (false, true) => self.intervals[idx].0 = s,
            (false, false) => self.intervals.insert(idx, (s, e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_scales_with_bandwidth() {
        let fast = LinkParams::new(SimDuration::ZERO, 10.0);
        let slow = LinkParams::new(SimDuration::ZERO, 1.0);
        assert_eq!(
            fast.tx_time(1000).as_nanos() * 10,
            slow.tx_time(1000).as_nanos()
        );
        // 1 MB at 1 MB/s takes one second.
        assert_eq!(slow.tx_time(1_000_000), SimDuration::from_secs(1));
    }

    #[test]
    fn mbytes_per_sec_roundtrips() {
        let p = LinkParams::new(SimDuration::ZERO, 0.55);
        assert!((p.mbytes_per_sec() - 0.55).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_zero_bandwidth() {
        let _ = LinkParams::new(SimDuration::ZERO, 0.0);
    }

    #[test]
    fn fifo_acquire_queues() {
        let mut l = LinkState::default();
        let tx = SimDuration::from_micros(10);
        let s1 = l.acquire(SimTime::ZERO, tx, 100);
        assert_eq!(s1, SimTime::ZERO);
        // Second transfer ready at t=0 must wait for the first.
        let s2 = l.acquire(SimTime::ZERO, tx, 100);
        assert_eq!(s2, SimTime::ZERO + tx);
        // A transfer ready after the frontier starts when ready.
        let late = SimTime::ZERO + SimDuration::from_millis(1);
        let s3 = l.acquire(late, tx, 100);
        assert_eq!(s3, late);
        assert_eq!(l.msgs, 3);
        assert_eq!(l.bytes, 300);
        assert_eq!(l.busy, tx * 3);
    }

    #[test]
    fn early_ready_transmission_fills_the_gap_left_by_a_future_booking() {
        let mut l = LinkState::default();
        let tx = SimDuration::from_micros(10);
        // A chain booked ahead of time reserves [1ms, 1ms+10us).
        let far = SimTime::ZERO + SimDuration::from_millis(1);
        assert_eq!(l.acquire(far, tx, 1), far);
        // A transmission ready at t=0 must not queue behind idle air: the
        // resource is free for a full millisecond before the reservation.
        assert_eq!(l.acquire(SimTime::ZERO, tx, 1), SimTime::ZERO);
        // A gap too narrow for the transmission is skipped over.
        let near = far - SimDuration::from_micros(5);
        assert_eq!(l.acquire(near, tx, 1), far + tx);
    }

    #[test]
    fn gap_filling_coalesces_abutting_intervals() {
        let mut l = LinkState::default();
        let tx = SimDuration::from_micros(10);
        // Book [0,10), [20,30), then fill [10,20): all three coalesce, so a
        // fourth transmission ready at zero starts at the frontier.
        assert_eq!(l.acquire(SimTime::ZERO, tx, 1), SimTime::ZERO);
        let t20 = SimTime::ZERO + tx + tx;
        assert_eq!(l.acquire(t20, tx, 1), t20);
        assert_eq!(l.acquire(SimTime::ZERO, tx, 1), SimTime::ZERO + tx);
        assert_eq!(l.acquire(SimTime::ZERO, tx, 1), t20 + tx);
    }

    #[test]
    fn wide_area_constructor() {
        let p = LinkParams::wide_area(3.3, 0.95);
        assert_eq!(p.latency, SimDuration::from_nanos(3_300_000));
        assert!((p.mbytes_per_sec() - 0.95).abs() < 1e-9);
    }
}
