//! The network abstraction the kernel charges message transfers against.
//!
//! The kernel is generic over [`Network`] so the cost model is pluggable:
//! `numagap-net` provides the two-layer cluster/WAN model, and this module
//! provides [`IdealNetwork`], a trivial constant-delay model used in unit
//! tests and as the "perfectly uniform" baseline.
//!
//! The trait answers each question about a message once. What a message
//! would cost on an idle machine, term by term, is not a kernel question:
//! the two-layer model answers it in one method of its own
//! (`TwoLayerNetwork::idle_cost`), which the critical-path split and the
//! analytic bound read.

use crate::time::{SimDuration, SimTime};
use crate::ProcId;

/// A pluggable message cost model.
///
/// Each question about a message has one answer here: what its sender pays
/// ([`Network::send_overhead`]), when it arrives ([`Network::transfer`])
/// and what its receiver pays ([`Network::recv_overhead`]).
///
/// Implementations are stateful: they track per-link occupancy so concurrent
/// transfers contend for bandwidth. `transfer` is called in deterministic
/// event order by the kernel.
pub trait Network: Send + 'static {
    /// Charges a `wire_bytes`-byte message from `src` to `dst` departing at
    /// `now`, updating internal link state, and returns when the message
    /// lands in the receiver's mailbox.
    fn transfer(&mut self, src: ProcId, dst: ProcId, wire_bytes: u64, now: SimTime) -> SimTime;

    /// The sender-side software cost of handing a message to the network:
    /// a message departing at `now` leaves its sender's CPU free at `now +
    /// send_overhead()`, and [`Network::transfer`] starts its first hop no
    /// earlier. A constant of the network: the kernel reads it once, when a
    /// run starts, and a rank pays it on its own clock without suspending,
    /// while the link booking waits for the end of the timestamp, where
    /// bookings are replayed in canonical `(departure, rank, send index)`
    /// order so contention arbitration cannot observe event tiebreak order.
    /// Defaults to zero.
    fn send_overhead(&self) -> SimDuration {
        SimDuration::ZERO
    }

    /// Number of processor endpoints this network connects.
    fn num_procs(&self) -> usize;

    /// Receiver-side software overhead charged when the application actually
    /// receives a message. Defaults to zero.
    fn recv_overhead(&self) -> SimDuration {
        SimDuration::ZERO
    }
}

/// A uniform network with constant per-message latency, infinite bandwidth
/// and zero sender overhead. Deliveries never contend.
///
/// # Examples
///
/// ```
/// use numagap_sim::{IdealNetwork, Network, ProcId, SimDuration, SimTime};
///
/// let mut net = IdealNetwork::new(4, SimDuration::from_micros(1));
/// let arrival = net.transfer(ProcId(0), ProcId(1), 1024, SimTime::ZERO);
/// assert_eq!(arrival, SimTime::ZERO + SimDuration::from_micros(1));
/// assert_eq!(net.send_overhead(), SimDuration::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct IdealNetwork {
    procs: usize,
    latency: SimDuration,
}

impl IdealNetwork {
    /// Creates an ideal network over `procs` endpoints with fixed `latency`.
    pub fn new(procs: usize, latency: SimDuration) -> Self {
        IdealNetwork { procs, latency }
    }

    /// Creates a zero-latency network (messages arrive "instantly", but still
    /// in deterministic event order).
    pub fn instantaneous(procs: usize) -> Self {
        Self::new(procs, SimDuration::ZERO)
    }
}

impl Network for IdealNetwork {
    fn transfer(&mut self, _src: ProcId, _dst: ProcId, _wire_bytes: u64, now: SimTime) -> SimTime {
        now + self.latency
    }

    fn num_procs(&self) -> usize {
        self.procs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_network_is_stateless() {
        let mut net = IdealNetwork::new(2, SimDuration::from_nanos(10));
        let a = net.transfer(ProcId(0), ProcId(1), 1, SimTime::ZERO);
        let b = net.transfer(ProcId(0), ProcId(1), 1_000_000, SimTime::ZERO);
        assert_eq!(a, b, "size must not affect an infinite-bandwidth network");
    }

    #[test]
    fn instantaneous_delivers_at_now() {
        let mut net = IdealNetwork::instantaneous(2);
        let arrival = net.transfer(ProcId(1), ProcId(0), 64, SimTime::from_nanos(5));
        assert_eq!(arrival, SimTime::from_nanos(5));
    }

    #[test]
    fn num_procs_reported() {
        assert_eq!(IdealNetwork::instantaneous(7).num_procs(), 7);
    }
}
