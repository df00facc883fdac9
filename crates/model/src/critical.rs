//! Critical-path extraction and decomposition.
//!
//! Walks backward from the last rank to finish, following whichever
//! dependency actually bound each step: the rank's own previous op, or —
//! when a receive waited on the network — the message's flight back to its
//! producer. The resulting chain of segments tiles the interval
//! `[0, elapsed]` exactly, so the decomposition's terms always sum to the
//! makespan (integer-nanosecond accounting, no residual drift).
//!
//! A message flight on the path is split by the one itemization of what a
//! message costs, [`TwoLayerNetwork::idle_cost`], asked of a network built
//! from the spec the replay ran under: its idle terms in path order, then
//! the excess as queueing.

use numagap_net::{IdleCost, TwoLayerNetwork, TwoLayerSpec};
use numagap_sim::SimDuration;

use crate::dag::{CommDag, Op};
use crate::replay::Replay;

/// Where the critical path spends its time, in integer nanoseconds.
///
/// `compute + send_overhead + recv_overhead + intra + inter_latency +
/// inter_bandwidth + gateway + queueing == total` by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PathBreakdown {
    /// The whole makespan the path spans.
    pub total: SimDuration,
    /// Local computation segments.
    pub compute: SimDuration,
    /// Sender-side software overhead (on-path sends, plus the send leg of
    /// every message the path rode).
    pub send_overhead: SimDuration,
    /// Receiver-side software overhead of on-path receives.
    pub recv_overhead: SimDuration,
    /// Intra-cluster wire time: Myrinet latency plus serialization, both
    /// for cluster-local messages and the LAN legs of inter-cluster ones.
    pub intra: SimDuration,
    /// Wide-area propagation latency of on-path inter-cluster messages.
    pub inter_latency: SimDuration,
    /// Wide-area serialization (bandwidth) time of on-path inter-cluster
    /// messages.
    pub inter_bandwidth: SimDuration,
    /// Gateway store-and-forward occupancy of on-path inter-cluster
    /// messages.
    pub gateway: SimDuration,
    /// Contention residual: time messages on the path spent queued behind
    /// other traffic for links or gateway CPUs (plus WAN jitter, if any).
    pub queueing: SimDuration,
    /// Messages whose flight lies on the path.
    pub path_msgs: u64,
    /// How many of those crossed a cluster boundary.
    pub path_inter_msgs: u64,
}

impl PathBreakdown {
    /// Everything attributable to the inter-cluster network.
    pub fn inter_total(&self) -> SimDuration {
        self.inter_latency + self.inter_bandwidth + self.gateway
    }

    /// Sum of all component terms (equals `total` for a well-formed walk).
    pub fn component_sum(&self) -> SimDuration {
        self.compute
            + self.send_overhead
            + self.recv_overhead
            + self.intra
            + self.inter_latency
            + self.inter_bandwidth
            + self.gateway
            + self.queueing
    }
}

/// Splits one on-path message's flight interval `[sent_at, arrival]` into
/// the terms of its idle cost, in the order the message incurs them
/// (send overhead first: the first hop starts once the sender has paid
/// `send_overhead`);
/// whatever the flight took beyond them is queueing.
fn charge_message(cost: &IdleCost, flight: SimDuration, out: &mut PathBreakdown) {
    out.path_msgs += 1;
    if cost.wan_hops > 0 {
        out.path_inter_msgs += 1;
    }
    let mut budget = flight;
    let mut take = |amount: SimDuration| -> SimDuration {
        let got = amount.min(budget);
        budget = budget.saturating_sub(got);
        got
    };
    out.send_overhead += take(cost.send_overhead);
    out.intra += take(cost.lan);
    out.gateway += take(cost.gateway);
    out.inter_bandwidth += take(cost.wan_tx);
    out.inter_latency += take(cost.wan_latency);
    // Whatever the flight cost beyond the idle terms is contention (FIFO
    // queueing on NICs, gateways, or WAN links) or jitter.
    out.queueing += budget;
}

/// Extracts and decomposes the critical path of a replayed run.
///
/// `spec` must be the same spec `replay` was produced under.
pub fn critical_path(dag: &CommDag, spec: &TwoLayerSpec, replay: &Replay) -> PathBreakdown {
    let mut out = PathBreakdown {
        total: replay.elapsed,
        ..PathBreakdown::default()
    };
    let n = dag.nprocs();
    if n == 0 {
        return out;
    }
    let mut net = TwoLayerNetwork::new(spec.clone());
    // Producer location of every message: (rank, op index of its Send).
    let mut send_site = vec![(0usize, 0usize); dag.msgs.len()];
    for (p, ops) in dag.ops.iter().enumerate() {
        for (i, op) in ops.iter().enumerate() {
            if let Op::Send { seq } = *op {
                send_site[seq as usize] = (p, i);
            }
        }
    }

    // Start at the rank that finished last; walk its ops backward,
    // jumping through messages whenever a receive was network-bound.
    let mut p = (0..n)
        .max_by_key(|&p| (replay.finish[p], p))
        .expect("nonempty machine");
    let mut i = dag.ops[p].len();
    loop {
        if i == 0 {
            // Reached virtual time zero on this chain: the path is complete.
            break;
        }
        let op = dag.ops[p][i - 1];
        let end = replay.op_end[p][i - 1];
        let start = if i >= 2 {
            replay.op_end[p][i - 2]
        } else {
            numagap_sim::SimTime::ZERO
        };
        match op {
            Op::Compute(_) => {
                out.compute += end.since(start);
                i -= 1;
            }
            Op::Send { .. } => {
                // On-path send: the sender's own overhead segment.
                out.send_overhead += end.since(start);
                i -= 1;
            }
            Op::Recv { seq } => {
                let arrival = replay.arrival[seq as usize];
                if arrival > start {
                    // Network-bound: the receive overhead ran [arrival, end],
                    // the message flight covered [sent_at, arrival]; continue
                    // on the producer just before its send.
                    out.recv_overhead += end.since(arrival);
                    let m = &dag.msgs[seq as usize];
                    let cost = net.idle_cost(m.src, m.dst, m.wire_bytes);
                    let sent = replay.sent_at[seq as usize];
                    charge_message(&cost, arrival.since(sent), &mut out);
                    let (q, send_idx) = send_site[seq as usize];
                    p = q;
                    i = send_idx;
                } else {
                    // The message was already waiting: pure overhead.
                    out.recv_overhead += end.since(start);
                    i -= 1;
                }
            }
        }
    }
    out
}
