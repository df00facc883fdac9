//! The analytic fast path: makespan **lower bounds** in microseconds per
//! query point, via a longest-path formulation parameterized in the WAN
//! latency `L` and bandwidth `B`.
//!
//! ## Formulation
//!
//! Replay walks the frozen DAG through the real network model, re-deriving
//! link contention, gateway occupancy and per-pair FIFO floors — milliseconds
//! per grid point. This module compiles the same DAG **once** into a small
//! *envelope* that can then be evaluated in `O(K)` per point (`K` ≤
//! [`MAX_CANDIDATES`]).
//!
//! Every mechanism replay models beyond the contention-free forward pass —
//! link-slot booking ([`acquire`] never returns earlier than `ready`),
//! gateway CPU FIFO, the per-pair +1 ns delivery floor, and deliver-sequence
//! gating on receives — can only *delay* events. So a forward pass that
//! charges each message its idle cost ([`TwoLayerNetwork::idle_cost`], the
//! network's own itemization of the path it books) is a valid lower bound
//! of the replayed makespan; `numagap-net`'s `link_properties` tests check
//! that premise, arrival ≥ departure + idle cost, on every wide-area
//! topology. Under that relaxation every event time is an affine function
//! of the query point:
//!
//! ```text
//! t(L, B) = α + β·L + γ·(1000 / B) − δ/2      (nanoseconds)
//! ```
//!
//! where `α` accumulates compute, software overheads, and each message's
//! LAN legs and gateway occupancies; `β` counts WAN latency terms (the
//! idle cost's `wan_hops`); `γ` counts WAN-serialized bytes (`wan_hops` ×
//! `wire_size`, header included); and `δ` counts the WAN serialization
//! terms whose nanosecond cost the simulator *rounds* (`tx_time` uses
//! `.round()`, which can round down by up to 0.5 ns each) — the `−δ/2`
//! keeps the bound sound against that rounding.
//!
//! A `max` over incomparable affine functions is not affine, so each DAG
//! node carries a **candidate set** of `(α, β, γ, δ)` tuples whose pointwise
//! maximum bounds the node's start time from below. Receives merge the
//! producer's set with the consumer's; dominated candidates (everywhere ≤
//! another) are pruned exactly, and sets overflowing [`MAX_CANDIDATES`] are
//! trimmed by scoring at fixed probe points — dropping candidates only
//! lowers the maximum, so the result stays a valid lower bound.
//!
//! The error model is one-sided by construction: `bound ≤ replay`, with the
//! gap equal to whatever contention and serialization queueing the relaxed
//! pass ignored (plus sub-ns rounding slack). Tests cross-check the
//! inequality against [`crate::replay()`] across the fig3 grid for
//! every app/variant.
//!
//! [`acquire`]: numagap_net::LinkParams

use crate::dag::{CommDag, Op};
use numagap_net::{LinkParams, TwoLayerNetwork};
use numagap_sim::{Network, SimDuration};

/// Cap on the per-node candidate-set size. 16 keeps compilation near-linear
/// in the op count while in practice losing nothing: paper DAGs rarely
/// carry more than a handful of incomparable path classes.
pub const MAX_CANDIDATES: usize = 16;

/// One affine lower-bound candidate: `α + β·L + γ·npb − δ/2` nanoseconds,
/// with `npb` the WAN nanoseconds-per-byte (`1000 / B`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cand {
    /// Fixed nanoseconds: compute, overheads, gateway occupancy, LAN legs.
    alpha_ns: u64,
    /// WAN latency terms (route hops crossed).
    beta: u64,
    /// WAN-serialized bytes (route hops × wire size incl. header).
    gamma: u64,
    /// Rounded WAN serialization terms (for the `−δ/2` soundness slack).
    delta: u64,
}

impl Cand {
    const ZERO: Cand = Cand {
        alpha_ns: 0,
        beta: 0,
        gamma: 0,
        delta: 0,
    };

    /// Whether `self`'s bound is ≥ `other`'s at every `(L ≥ 0, B > 0)`.
    fn dominates(&self, other: &Cand) -> bool {
        // The fixed part is (2α − δ)/2; compare it in integer half-ns.
        let a = 2 * i128::from(self.alpha_ns) - i128::from(self.delta);
        let b = 2 * i128::from(other.alpha_ns) - i128::from(other.delta);
        a >= b && self.beta >= other.beta && self.gamma >= other.gamma
    }

    fn eval_ns(&self, lat_ns: f64, ns_per_byte: f64) -> f64 {
        self.alpha_ns as f64 + self.beta as f64 * lat_ns + self.gamma as f64 * ns_per_byte
            - 0.5 * self.delta as f64
    }
}

/// Probe points used to rank candidates when a set overflows
/// [`MAX_CANDIDATES`]: the corners and center of the paper's fig3 operating
/// range, as `(latency ms, bandwidth MByte/s)`.
const PROBES: [(f64, f64); 5] = [
    (0.5, 6.3),
    (0.5, 0.03),
    (300.0, 6.3),
    (300.0, 0.03),
    (10.0, 0.3),
];

/// A compiled analytic envelope for one frozen DAG.
///
/// Compile once with [`AnalyticModel::compile`] (one pass over the DAG),
/// then evaluate any `(L, B)` point with [`AnalyticModel::bound`] in
/// `O(K)`.
#[derive(Debug, Clone)]
pub struct AnalyticModel {
    /// Pareto-pruned union of every rank's finish-time candidates.
    cands: Vec<Cand>,
}

fn add_const(set: &mut [Cand], ns: u64) {
    for c in set {
        c.alpha_ns += ns;
    }
}

/// Exact Pareto prune, then probe-point trim past the size cap.
fn prune(set: Vec<Cand>, probes: &[(f64, f64)]) -> Vec<Cand> {
    let mut keep: Vec<Cand> = Vec::with_capacity(set.len().min(MAX_CANDIDATES));
    'next: for c in set {
        for k in &keep {
            if k.dominates(&c) {
                continue 'next;
            }
        }
        keep.retain(|k| !c.dominates(k));
        keep.push(c);
    }
    if keep.len() > MAX_CANDIDATES {
        // Rank by the candidate's best showing across the probe points;
        // ties break on the exact integer fields so the trim — and with it
        // every served bound — is deterministic.
        let score = |c: &Cand| {
            probes
                .iter()
                .map(|&(lat, bw)| {
                    let p = LinkParams::wide_area(lat, bw);
                    c.eval_ns(p.latency.as_nanos() as f64, p.ns_per_byte)
                })
                .fold(f64::NEG_INFINITY, f64::max)
        };
        keep.sort_by(|a, b| {
            score(b).total_cmp(&score(a)).then_with(|| {
                (b.alpha_ns, b.beta, b.gamma, b.delta).cmp(&(a.alpha_ns, a.beta, a.gamma, a.delta))
            })
        });
        keep.truncate(MAX_CANDIDATES);
    }
    keep
}

impl AnalyticModel {
    /// Compiles the envelope from a frozen DAG.
    ///
    /// Each message's fixed terms (software overheads, LAN legs, gateway
    /// occupancy, WAN hop count and wire size) are its idle cost on the
    /// network of the DAG's recorded `base_spec`; only the WAN
    /// latency/bandwidth vary at query time, mirroring how the what-if
    /// pipeline rebuilds specs via `das_spec` around the same constants.
    ///
    /// # Panics
    ///
    /// Panics if the DAG is malformed (a recorded receive whose producer
    /// never sends), which a complete recording cannot produce.
    pub fn compile(dag: &CommDag) -> AnalyticModel {
        let mut net = TwoLayerNetwork::new(dag.base_spec.clone());
        let recv_o = net.recv_overhead().as_nanos();
        let n = dag.nprocs();

        let mut rank_sets: Vec<Vec<Cand>> = vec![vec![Cand::ZERO]; n];
        let mut msg_sets: Vec<Option<Vec<Cand>>> = vec![None; dag.msgs.len()];
        let mut pc = vec![0usize; n];
        // Round-robin forward pass: advance each rank until it blocks on a
        // not-yet-sent message; the recorded DAG is acyclic, so every sweep
        // that does not finish must make progress.
        loop {
            let mut progress = false;
            let mut done = true;
            for p in 0..n {
                while let Some(&op) = dag.ops[p].get(pc[p]) {
                    match op {
                        Op::Compute(d) => {
                            add_const(&mut rank_sets[p], d.as_nanos());
                        }
                        Op::Send { seq } => {
                            // The fixed terms go to α; each WAN hop adds one
                            // L, one serialization of the wire size, and one
                            // rounded tx term.
                            let m = &dag.msgs[seq as usize];
                            let cost = net.idle_cost(m.src, m.dst, m.wire_bytes);
                            let fixed = cost.send_overhead + cost.lan + cost.gateway;
                            let mut arr = rank_sets[p].clone();
                            for c in &mut arr {
                                c.alpha_ns += fixed.as_nanos();
                                c.beta += cost.wan_hops;
                                c.gamma += cost.wan_hops * cost.wire_size;
                                c.delta += cost.wan_hops;
                            }
                            msg_sets[seq as usize] = Some(prune(arr, &PROBES));
                            add_const(&mut rank_sets[p], cost.send_overhead.as_nanos());
                        }
                        Op::Recv { seq } => {
                            let Some(arr) = msg_sets[seq as usize].take() else {
                                break; // producer not compiled yet
                            };
                            let mut merged = std::mem::take(&mut rank_sets[p]);
                            merged.extend(arr);
                            let mut merged = prune(merged, &PROBES);
                            add_const(&mut merged, recv_o);
                            rank_sets[p] = merged;
                        }
                    }
                    pc[p] += 1;
                    progress = true;
                }
                if pc[p] < dag.ops[p].len() {
                    done = false;
                }
            }
            if done {
                break;
            }
            assert!(progress, "recorded DAG has a receive with no producer");
        }

        let all: Vec<Cand> = rank_sets.into_iter().flatten().collect();
        AnalyticModel {
            cands: prune(all, &PROBES),
        }
    }

    /// The makespan lower bound at one `(latency ms, bandwidth MByte/s)`
    /// point, floored to whole nanoseconds (flooring keeps the bound
    /// sound).
    pub fn bound(&self, latency_ms: f64, bandwidth_mbs: f64) -> SimDuration {
        let p = LinkParams::wide_area(latency_ms, bandwidth_mbs);
        let lat_ns = p.latency.as_nanos() as f64;
        let best = self
            .cands
            .iter()
            .map(|c| c.eval_ns(lat_ns, p.ns_per_byte))
            .fold(0.0f64, f64::max);
        // Inside `LinkParams`' WAN limits a bound is far below 2^64 ns; a
        // saturated `u64::MAX` would be an answer no run can give.
        assert!(best < u64::MAX as f64, "a bound of {best} ns overflows");
        SimDuration::from_nanos(best as u64)
    }

    /// Number of candidates the envelope retains (diagnostics).
    pub fn ncandidates(&self) -> usize {
        self.cands.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{record_app, replay};
    use numagap_apps::{AppId, SuiteConfig, Variant};
    use numagap_net::{das_spec, WanTopology};
    use numagap_rt::Machine;

    fn record(app: AppId, variant: Variant) -> CommDag {
        let cfg = SuiteConfig::at(numagap_apps::Scale::Small);
        let machine = Machine::new(das_spec(4, 8, 10.0, 0.3));
        record_app(app, &cfg, variant, &machine).expect("record").1
    }

    #[test]
    fn bound_never_exceeds_replay_on_spot_checks() {
        let dag = record(AppId::Asp, Variant::Optimized);
        let model = AnalyticModel::compile(&dag);
        for &(lat, bw) in &[(0.5, 6.3), (10.0, 0.3), (300.0, 0.03), (1.0, 1.0)] {
            let spec = das_spec(4, 8, lat, bw);
            let actual = replay(&dag, &spec).elapsed;
            let bound = model.bound(lat, bw);
            assert!(
                bound <= actual,
                "lat {lat} bw {bw}: bound {bound} > replay {actual}"
            );
            // The bound must be meaningful, not vacuous: within the ballpark
            // of the true makespan (compute + uncontended comm dominate).
            assert!(
                bound.as_secs_f64() >= 0.2 * actual.as_secs_f64(),
                "lat {lat} bw {bw}: bound {bound} vacuously small vs {actual}"
            );
        }
    }

    #[test]
    fn bound_holds_on_multi_hop_topologies() {
        let cfg = SuiteConfig::at(numagap_apps::Scale::Small);
        let machine = Machine::new(das_spec(4, 8, 10.0, 0.3).wan_topology(WanTopology::Ring));
        let dag = record_app(AppId::Fft, &cfg, Variant::Unoptimized, &machine)
            .expect("record")
            .1;
        let model = AnalyticModel::compile(&dag);
        for &(lat, bw) in &[(0.5, 6.3), (300.0, 0.03)] {
            let spec = das_spec(4, 8, lat, bw).wan_topology(WanTopology::Ring);
            let actual = replay(&dag, &spec).elapsed;
            let bound = model.bound(lat, bw);
            assert!(
                bound <= actual,
                "ring lat {lat} bw {bw}: bound {bound} > replay {actual}"
            );
        }
    }

    #[test]
    fn bound_is_monotone_in_latency_and_inverse_bandwidth() {
        let dag = record(AppId::Water, Variant::Unoptimized);
        let model = AnalyticModel::compile(&dag);
        let b1 = model.bound(1.0, 1.0);
        assert!(model.bound(10.0, 1.0) >= b1, "worse latency, smaller bound");
        assert!(
            model.bound(1.0, 0.1) >= b1,
            "worse bandwidth, smaller bound"
        );
    }

    #[test]
    fn envelope_is_compact() {
        let dag = record(AppId::Barnes, Variant::Optimized);
        let model = AnalyticModel::compile(&dag);
        assert!(model.ncandidates() >= 1);
        assert!(model.ncandidates() <= MAX_CANDIDATES);
    }

    #[test]
    fn dominance_prunes_exactly() {
        let a = Cand {
            alpha_ns: 100,
            beta: 2,
            gamma: 50,
            delta: 2,
        };
        let b = Cand {
            alpha_ns: 90,
            beta: 2,
            gamma: 50,
            delta: 2,
        };
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        // Incomparable: higher fixed cost vs higher latency sensitivity.
        let c = Cand {
            alpha_ns: 10,
            beta: 5,
            gamma: 0,
            delta: 0,
        };
        assert!(!a.dominates(&c) && !c.dominates(&a));
        let pruned = prune(vec![a, b, c], &PROBES);
        assert_eq!(pruned.len(), 2);
    }
}
