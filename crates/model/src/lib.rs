//! # numagap-model — critical-path performance model
//!
//! Answers the paper's central question *analytically*: how far can
//! inter-cluster latency and bandwidth degrade before an application's
//! speedup collapses — without simulating every grid point.
//!
//! One recording, then queries on it:
//!
//! 1. **Record** ([`dag`]): one observed run freezes each rank's behaviour
//!    into a communication dependency DAG — compute segments, send/recv
//!    edges with message sizes and link classes (intra-Myrinet vs
//!    inter-ATM), all in exact virtual nanoseconds.
//! 2. **Replay** ([`mod@replay`]): a second driver of the kernel's own
//!    [`numagap_sim::EventCore`] re-costs the recorded DAG under an
//!    arbitrary `(latency, bandwidth)` pair using the real network cost
//!    model, so contention and gateway occupancy are re-derived, not
//!    scaled. A sweep keeps one [`Replayer`] per worker and resets its
//!    network and core per point rather than building them.
//! 3. **Bound** ([`analytic`]): the DAG compiled once into an envelope of
//!    affine candidates whose maximum is a sound lower bound on the replayed
//!    makespan at any `(latency, bandwidth)` — microseconds per point.
//! 4. **Explain & threshold** ([`critical`], [`whatif`]): the critical path
//!    is decomposed into compute / overhead / intra / inter-latency /
//!    inter-bandwidth / gateway / queueing terms that sum exactly to the
//!    makespan, and a grid of predicted speedups yields the tolerable-gap
//!    thresholds (the paper's 60 %-of-Myrinet bar).
//!
//! Sweeping these queries over the fig3 grid and validating them against
//! the simulator is the experiment pipeline's job (`numagap_bench::predict`);
//! serving them over HTTP is `numagap-serve`'s. This crate depends on
//! neither.
//!
//! Control flow is frozen at the recording point: apps whose *decisions*
//! depend on timing (TSP work stealing, Awari polling) replay the recorded
//! schedule, which is the model's main source of prediction error.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analytic;
pub mod critical;
pub mod dag;
pub mod replay;
pub mod whatif;

pub use analytic::{AnalyticModel, MAX_CANDIDATES};
pub use critical::{critical_path, PathBreakdown};
pub use dag::{record_app, CommDag, DagRecorder, MsgMeta, Op};
pub use replay::{replay, Replay, Replayer};
pub use whatif::{gap_thresholds, GapThresholds, TOLERABLE_SPEEDUP_PCT};

#[cfg(test)]
mod tests {
    use super::*;
    use numagap_net::{das_spec, uniform_spec, LinkParams, TwoLayerSpec};
    use numagap_rt::Machine;
    use numagap_sim::{SimDuration, Tag};

    /// A deterministic ping-pong + compute program over 2 clusters x 2
    /// procs: rank 0 sends to every other rank, everyone computes, then
    /// replies. Contention-free enough that replay must be *exact*.
    fn run_recorded(spec: TwoLayerSpec) -> CommDag {
        let machine = Machine::new(spec);
        let mut recorder = DagRecorder::new(machine.spec().topology.nprocs());
        let report = machine
            .run_observed(
                |ctx| {
                    let me = ctx.rank();
                    let n = ctx.nprocs();
                    let t = Tag::app(7);
                    if me == 0 {
                        for dst in 1..n {
                            ctx.send(dst, t, (), 512 * dst as u64);
                        }
                        ctx.compute(SimDuration::from_micros(50));
                        // Fixed-order receives keep the recorded matching
                        // independent of the WAN parameters, so cross-spec
                        // replay is exact.
                        for src in 1..n {
                            let _ = ctx.recv_from(src, t);
                        }
                    } else {
                        let _ = ctx.recv_tag(t);
                        ctx.compute(SimDuration::from_micros(100 * me as u64));
                        ctx.send(0, t, (), 64);
                    }
                    me
                },
                &mut recorder,
            )
            .expect("pingpong runs");
        recorder.finish(machine.spec().clone(), report.elapsed)
    }

    #[test]
    fn recorded_dag_has_expected_shape() {
        let dag = run_recorded(das_spec(2, 2, 1.0, 2.0));
        assert_eq!(dag.nprocs(), 4);
        // 3 outbound + 3 replies.
        assert_eq!(dag.msgs.len(), 6);
        let sends: usize = dag
            .ops
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Send { .. }))
            .count();
        let recvs: usize = dag
            .ops
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Recv { .. }))
            .count();
        assert_eq!(sends, 6);
        assert_eq!(recvs, 6);
        // Ranks 2 and 3 are in the other cluster.
        assert!(dag.is_inter(1));
        assert!(!dag.is_inter(0));
    }

    #[test]
    fn replay_at_recording_spec_is_exact() {
        for spec in [
            das_spec(2, 2, 1.0, 2.0),
            das_spec(2, 2, 100.0, 0.05),
            uniform_spec(4),
        ] {
            let dag = run_recorded(spec);
            let rep = replay(&dag, &dag.base_spec);
            assert_eq!(
                rep.elapsed, dag.base_elapsed,
                "identity replay must reproduce the simulated makespan"
            );
        }
    }

    #[test]
    fn replay_cost_is_monotone_in_wan_latency() {
        let dag = run_recorded(das_spec(2, 2, 1.0, 2.0));
        let mut last = SimDuration::ZERO;
        for lat in [0.1, 1.0, 10.0, 100.0] {
            let spec = das_spec(2, 2, lat, 2.0);
            let e = Replayer::new(&spec).makespan(&dag, spec.inter);
            assert!(e >= last, "elapsed must not shrink as latency grows");
            last = e;
        }
    }

    #[test]
    fn replay_predicts_cross_spec() {
        // Record under a slow WAN, replay at a fast one: the prediction
        // must match an actual recording at the fast point exactly (the
        // program's control flow is data-independent).
        let slow = run_recorded(das_spec(2, 2, 50.0, 0.1));
        let fast = run_recorded(das_spec(2, 2, 0.5, 6.3));
        let predicted = Replayer::new(&fast.base_spec).makespan(&slow, fast.base_spec.inter);
        assert_eq!(predicted, fast.base_elapsed);
    }

    #[test]
    fn critical_path_components_sum_to_total() {
        for spec in [das_spec(2, 2, 10.0, 0.3), uniform_spec(4)] {
            let dag = run_recorded(spec);
            let rep = replay(&dag, &dag.base_spec);
            let path = critical_path(&dag, &dag.base_spec, &rep);
            assert_eq!(path.total, rep.elapsed);
            assert_eq!(
                path.component_sum(),
                path.total,
                "decomposition must tile the makespan exactly: {path:?}"
            );
            assert!(path.path_msgs >= 1);
        }
    }

    #[test]
    fn critical_path_sees_the_wan() {
        let dag = run_recorded(das_spec(2, 2, 10.0, 0.3));
        let rep = replay(&dag, &dag.base_spec);
        let path = critical_path(&dag, &dag.base_spec, &rep);
        assert!(path.path_inter_msgs >= 1, "{path:?}");
        // 10 ms WAN latency dominates this tiny program's makespan.
        assert!(
            path.inter_latency >= SimDuration::from_millis(10),
            "{path:?}"
        );
        assert!(!path.compute.is_zero());
    }

    #[test]
    fn whatif_spec_edit_keeps_machine_shape() {
        let dag = run_recorded(das_spec(2, 2, 1.0, 2.0));
        let mut spec = dag.base_spec.clone();
        spec.inter = LinkParams::wide_area(25.0, 0.5);
        let rep = replay(&dag, &spec);
        assert!(rep.elapsed > dag.base_elapsed);
        // Every message got timed.
        assert_eq!(rep.arrival.len(), dag.msgs.len());
        for (seq, &a) in rep.arrival.iter().enumerate() {
            assert!(a >= rep.sent_at[seq]);
        }
    }
}
