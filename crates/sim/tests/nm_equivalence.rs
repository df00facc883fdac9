//! Fibers-vs-legacy scheduler differential suite.
//!
//! By default every rank is a fiber the kernel resumes inline on its own
//! thread; the legacy mode gives each rank an OS thread. Virtual time must
//! not be able to tell them apart: this suite runs all 11 app/variant
//! combinations on three machines (the paper's full mesh, a ring-wired WAN,
//! and the hostile storm preset) under the legacy oracle and under fibers,
//! asserting the makespan, the whole-run kernel accounting and the checksum
//! are bit-identical.
//!
//! A second group locks down the scheduler's own observables: runnable-rank
//! dispatch order is a pure function of the canonical event order (equal in
//! both modes and across reruns), a mid-run panic fails only the owning
//! rank, and payload-clone accounting survives ranks sharing one thread.
//!
//! A third group covers what running ranks inline on the caller's thread
//! must not break: an aborted run still drops everything on every rank's
//! stack, a run nested inside a rank body and runs on concurrent host
//! threads do not disturb each other, and the default mode creates no thread.

use numagap_apps::{run_app, AppId, AppRun, Scale, SuiteConfig, Variant};
use numagap_net::{
    das_spec, CrossTrafficPlan, HeteroPreset, LinkParams, LinkSchedule, Topology, TwoLayerSpec,
    WanTopology,
};
use numagap_rt::Machine;
use numagap_sim::{
    Filter, IdealNetwork, ProcId, SchedMode, Sim, SimDuration, SimError, SimTime, Tag,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

const BOTH_MODES: [SchedMode; 2] = [SchedMode::Fibers, SchedMode::LegacyThreads];

const CLUSTERS: usize = 4;
const PROCS_PER_CLUSTER: usize = 8;

/// All 11 app/variant combinations in Table 1 order.
fn combos() -> Vec<(AppId, Variant)> {
    let mut v = Vec::new();
    for app in AppId::ALL {
        v.push((app, Variant::Unoptimized));
        if app.has_optimized() {
            v.push((app, Variant::Optimized));
        }
    }
    assert_eq!(v.len(), 11);
    v
}

/// The hostile-storm machine: slow-home heterogeneous clusters, seeded
/// cross-traffic and a diurnal WAN schedule — the same shape the golden
/// makespan suite pins, so a drift here names the scheduler, not the model.
fn storm_spec() -> TwoLayerSpec {
    let topo = HeteroPreset::SlowHome.apply(Topology::symmetric(CLUSTERS, PROCS_PER_CLUSTER));
    TwoLayerSpec::new(topo)
        .inter(LinkParams::wide_area(10.0, 1.0))
        .cross_traffic(CrossTrafficPlan::new(7).intensity(0.5))
        .link_schedule(
            LinkSchedule::diurnal(7, SimDuration::from_millis(500))
                .latency_factor(3.0)
                .bandwidth_factor(0.33),
        )
}

/// Everything virtual a run exposes, collapsed for exact comparison.
fn fingerprint(run: &AppRun) -> (u64, u64, u64, u64, u64, u64) {
    (
        run.elapsed.as_nanos(),
        run.kernel.messages,
        run.kernel.events,
        run.kernel.bytes,
        run.net.inter_msgs,
        run.checksum.to_bits(),
    )
}

fn assert_equivalent_on(name: &str, spec: &TwoLayerSpec) {
    let cfg = SuiteConfig::at(Scale::Small);
    for (app, variant) in combos() {
        let oracle = Machine::new(spec.clone()).with_sched_mode(SchedMode::LegacyThreads);
        let oracle_run = run_app(app, &cfg, variant, &oracle)
            .unwrap_or_else(|e| panic!("{app}/{variant} on {name} (legacy): {e}"));
        let fibers = Machine::new(spec.clone()).with_sched_mode(SchedMode::Fibers);
        let fiber_run = run_app(app, &cfg, variant, &fibers)
            .unwrap_or_else(|e| panic!("{app}/{variant} on {name} (fibers): {e}"));
        assert_eq!(
            fingerprint(&oracle_run),
            fingerprint(&fiber_run),
            "{app}/{variant} on {name}: fibers diverged from the 1:1 oracle"
        );
    }
}

#[test]
fn nm_matches_legacy_on_the_paper_mesh() {
    assert_equivalent_on("mesh", &das_spec(CLUSTERS, PROCS_PER_CLUSTER, 10.0, 1.0));
}

#[test]
fn nm_matches_legacy_on_a_ring_wan() {
    let spec = das_spec(CLUSTERS, PROCS_PER_CLUSTER, 10.0, 1.0).wan_topology(WanTopology::Ring);
    assert_equivalent_on("ring", &spec);
}

#[test]
fn nm_matches_legacy_under_the_hostile_storm() {
    assert_equivalent_on("hostile-storm", &storm_spec());
}

/// A deterministic multi-rank workload on the raw kernel: a token ring
/// where every hop recomputes, so ranks suspend and resume continually.
fn ring_sim(mode: SchedMode, record: bool) -> Sim<IdealNetwork> {
    let mut sim = default_ring_sim(record);
    sim.sched_mode(mode);
    sim
}

/// [`ring_sim`] in whatever mode the simulator picks when nobody chooses.
fn default_ring_sim(record: bool) -> Sim<IdealNetwork> {
    const N: usize = 6;
    const ROUNDS: u32 = 5;
    let mut sim = Sim::new(IdealNetwork::new(N, SimDuration::from_micros(20)));
    if record {
        sim.record_dispatch();
    }
    for me in 0..N {
        sim.spawn(move |ctx| {
            let mut token = me as u64;
            for round in 0..ROUNDS {
                ctx.compute(SimDuration::from_micros(10 + me as u64));
                ctx.send(ProcId((me + 1) % N), Tag::app(round), token, 8);
                let m = ctx.recv(Filter::tag(Tag::app(round)));
                token = token.wrapping_add(m.expect_clone::<u64>());
            }
            token
        });
    }
    sim
}

/// Satellite invariant: runnable-rank dispatch order (the kernel's grant
/// sequence) is a pure function of the canonical event order — not of the
/// scheduler mode, and not of host scheduling.
/// (With strict rendezvous at most one rank is runnable per instant, so
/// the grant sequence *is* the dispatch order.)
#[test]
fn dispatch_order_is_a_pure_function_of_the_event_order() {
    let baseline = ring_sim(SchedMode::LegacyThreads, true)
        .run()
        .expect("ring runs");
    let baseline_log = baseline.dispatch.expect("dispatch recorded");
    assert!(!baseline_log.is_empty());
    for rerun in 0..2 {
        let out = ring_sim(SchedMode::Fibers, true).run().expect("ring runs");
        assert_eq!(out.elapsed, baseline.elapsed, "rerun={rerun}");
        assert_eq!(
            out.dispatch.expect("dispatch recorded"),
            baseline_log,
            "dispatch order moved under fibers, rerun={rerun}"
        );
    }
}

/// Dispatch recording is opt-in: the default run leaves the outcome's log
/// empty so production sweeps pay nothing for it.
#[test]
fn dispatch_log_is_absent_unless_requested() {
    let out = ring_sim(SchedMode::Fibers, false).run().expect("ring runs");
    assert!(out.dispatch.is_none());
}

/// Satellite regression: a mid-run panic must fail only the owning rank in
/// both modes — under fibers the panic unwinds the rank's fiber, not the
/// thread it shares with the kernel and every other rank, so the others
/// still finish and report. What the dying rank had cloned out of a message
/// is still charged to the run, whichever thread it died on.
#[test]
fn a_mid_run_panic_fails_only_the_owning_rank() {
    let cloned = BOTH_MODES.map(panic_fails_only_the_owning_rank);
    assert_eq!(cloned, [64; 2], "clone bytes lost with the panicking rank");
}

/// Returns the run's `profile.bytes_cloned`.
fn panic_fails_only_the_owning_rank(mode: SchedMode) -> u64 {
    let mut sim = Sim::new(IdealNetwork::new(4, SimDuration::from_micros(20)));
    sim.sched_mode(mode);
    for me in 0..4usize {
        sim.spawn(move |ctx| {
            ctx.compute(SimDuration::from_micros(10));
            if me == 2 {
                ctx.send(ProcId(2), Tag::app(9), [5u8; 64], 64);
                let m = ctx.recv(Filter::tag(Tag::app(9)));
                assert_eq!(m.expect_clone::<[u8; 64]>(), [5u8; 64]);
                panic!("rank 2 exploded mid-run");
            }
            ctx.compute(SimDuration::from_micros(10));
            me as u64
        });
    }
    let out = sim
        .run()
        .expect("a rank panic is a per-rank failure, not a kernel error");
    for (rank, result) in out.results.iter().enumerate() {
        match result {
            Ok(v) if rank != 2 => {
                assert_eq!(*v.downcast_ref::<u64>().expect("u64 result"), rank as u64);
            }
            Err(failure) if rank == 2 => {
                assert_eq!(failure.rank, 2);
                assert!(
                    failure.message.contains("rank 2 exploded"),
                    "diagnostic lost: {}",
                    failure.message
                );
            }
            other => panic!("rank {rank}: unexpected outcome {other:?}"),
        }
    }
    out.profile.bytes_cloned
}

/// Satellite regression: `HotProfile::bytes_cloned` is charged to the run
/// whether its ranks share the kernel's thread or each have their own, is
/// identical across scheduler modes, and does not leak into the next run on
/// the same thread.
#[test]
fn clone_accounting_survives_rank_multiplexing() {
    let run = |mode: SchedMode| {
        let mut sim = Sim::new(IdealNetwork::new(3, SimDuration::from_micros(20)));
        sim.sched_mode(mode);
        sim.spawn(|ctx| {
            // A cloned (non-shared) payload: 4096 wire bytes cloned once
            // per receive.
            ctx.send(ProcId(1), Tag::app(0), vec![7u8; 4096], 4096);
            ctx.send(ProcId(2), Tag::app(0), vec![9u8; 2048], 2048);
        });
        for _ in 1..3 {
            sim.spawn(|ctx| {
                let m = ctx.recv(Filter::tag(Tag::app(0)));
                m.expect_clone::<Vec<u8>>().len() as u64
            });
        }
        let out = sim.run().expect("clone workload runs");
        out.profile.bytes_cloned
    };
    let legacy = run(SchedMode::LegacyThreads);
    assert!(legacy > 0, "workload clones payload bytes");
    for rerun in 0..2 {
        assert_eq!(
            run(SchedMode::Fibers),
            legacy,
            "bytes_cloned drifted under fibers, rerun={rerun}"
        );
    }
}

/// Counts its own drops: stands for any value a rank body keeps on its stack.
struct CountDrop(Arc<AtomicUsize>);

impl Drop for CountDrop {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// An aborted run unwinds every rank that is suspended mid-body — in fiber
/// mode by resuming it one last time with the abort grant — so by the time
/// `Sim::run` returns its error, every destructor on every rank's stack has
/// run. `stuck` is the rank body's way of never finishing.
fn aborted_run_drops_rank_stacks(
    mode: SchedMode,
    limit: Option<SimTime>,
    stuck: fn(&mut numagap_sim::ProcCtx),
) -> SimError {
    const RANKS: usize = 3;
    let drops = Arc::new(AtomicUsize::new(0));
    let mut sim = Sim::new(IdealNetwork::new(RANKS, SimDuration::from_micros(20)));
    sim.sched_mode(mode);
    if let Some(limit) = limit {
        sim.time_limit(limit);
    }
    for _ in 0..RANKS {
        let captured = CountDrop(Arc::clone(&drops));
        let drops = Arc::clone(&drops);
        sim.spawn(move |ctx| {
            let _captured = captured;
            let _boxed = Box::new(CountDrop(Arc::clone(&drops)));
            ctx.compute(SimDuration::from_micros(5));
            let _late = CountDrop(drops);
            stuck(ctx);
        });
    }
    let err = sim.run().expect_err("the run cannot finish");
    assert_eq!(
        drops.load(Ordering::SeqCst),
        3 * RANKS,
        "{mode:?}: values left alive on an aborted rank's stack"
    );
    err
}

#[test]
fn a_deadlocked_run_drops_everything_on_every_rank_stack() {
    for mode in BOTH_MODES {
        let err = aborted_run_drops_rank_stacks(mode, None, |ctx| {
            let _ = ctx.recv(Filter::tag(Tag::app(9)));
        });
        assert!(matches!(err, SimError::Deadlock { .. }), "{mode:?}: {err}");
    }
}

#[test]
fn a_time_limited_run_drops_everything_on_every_rank_stack() {
    for mode in BOTH_MODES {
        let limit = SimTime::from_nanos(1_000_000);
        let err = aborted_run_drops_rank_stacks(mode, Some(limit), |ctx| loop {
            ctx.compute(SimDuration::from_micros(50));
        });
        assert!(matches!(err, SimError::TimeLimit { .. }), "{mode:?}: {err}");
    }
}

/// Elapsed time, dispatch log and clone count of one ring run.
fn ring_observables(sim: Sim<IdealNetwork>) -> (SimDuration, Vec<u32>, u64) {
    let out = sim.run().expect("ring runs");
    (
        out.elapsed,
        out.dispatch.expect("dispatch recorded"),
        out.profile.bytes_cloned,
    )
}

/// A whole `Sim::run` started inside a rank body (on that rank's fiber, in
/// fiber mode) completes, and the outer run cannot tell: same results, same
/// dispatch order, and none of the inner run's payload clones on its bill.
#[test]
fn a_run_nested_inside_a_rank_body_leaves_the_outer_run_unchanged() {
    let alone = ring_observables(ring_sim(SchedMode::Fibers, true));
    for outer_mode in BOTH_MODES {
        let outer = |nested: bool| {
            let mut sim = Sim::new(IdealNetwork::new(2, SimDuration::from_micros(20)));
            sim.sched_mode(outer_mode).record_dispatch();
            sim.spawn(move |ctx| {
                ctx.send(ProcId(1), Tag::app(0), vec![1u8; 100], 100);
                let inner = nested.then(|| ring_observables(ring_sim(SchedMode::Fibers, true)));
                let m = ctx.recv(Filter::tag(Tag::app(1)));
                (m.expect_clone::<u64>(), inner)
            });
            sim.spawn(|ctx| {
                let m = ctx.recv(Filter::tag(Tag::app(0)));
                let len = m.expect_clone::<Vec<u8>>().len() as u64;
                ctx.send(ProcId(0), Tag::app(1), len, 8);
            });
            let out = sim.run().expect("outer run completes");
            let (echoed, inner) = out.results[0]
                .as_ref()
                .expect("rank 0 finished")
                .downcast_ref::<(u64, Option<(SimDuration, Vec<u32>, u64)>)>()
                .expect("rank 0 result type");
            assert_eq!(*echoed, 100);
            let observed = (
                out.elapsed,
                out.dispatch.expect("dispatch recorded"),
                out.profile.bytes_cloned,
            );
            (observed, inner.clone())
        };
        let (plain, _) = outer(false);
        let (with_nested, inner) = outer(true);
        assert_eq!(inner.as_ref(), Some(&alone), "outer {outer_mode:?}");
        assert_eq!(with_nested, plain, "outer {outer_mode:?}");
        assert_eq!(plain.2, 108, "outer {outer_mode:?}");
    }
}

/// Two host threads each driving a `Sim` of their own at the same time —
/// what `engine::run_cells --jobs 2` does — get the single-thread results:
/// everything a run shares with its ranks is per-thread or per-run.
#[test]
fn concurrent_host_threads_each_get_the_single_thread_results() {
    let alone = ring_observables(ring_sim(SchedMode::Fibers, true));
    let start = Arc::new(Barrier::new(2));
    let hosts: Vec<_> = (0..2)
        .map(|_| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                (0..20)
                    .map(|_| ring_observables(ring_sim(SchedMode::Fibers, true)))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for host in hosts {
        for run in host.join().expect("host thread") {
            assert_eq!(run, alone);
        }
    }
}

/// The mode nobody chose resumes every rank on the caller's thread: the run
/// creates no OS thread and wakes none.
#[test]
fn the_default_mode_runs_every_rank_on_the_callers_thread() {
    let out = default_ring_sim(false).run().expect("ring runs");
    if cfg!(target_arch = "x86_64") {
        assert_eq!(out.sim_threads, 1);
        assert_eq!(out.profile.park_wakes, 0);
    } else {
        assert_eq!(out.sim_threads, out.results.len());
    }
}

/// A panic in the kernel's own code (here: an observer callback) unwinds
/// `Sim::run` with ranks suspended mid-body; they are still unwound, on the
/// way out, rather than leaked — suspended fibers or parked threads alike.
#[test]
fn a_kernel_panic_still_unwinds_every_suspended_rank() {
    struct Bomb;
    impl numagap_sim::Observer for Bomb {
        fn on_send(&mut self, _dst: ProcId, _msg: &numagap_sim::Message) {
            panic!("observer exploded");
        }
    }
    for mode in BOTH_MODES {
        let drops = Arc::new(AtomicUsize::new(0));
        let mut sim = Sim::new(IdealNetwork::new(2, SimDuration::from_micros(20)));
        sim.sched_mode(mode).set_observer(Box::new(Bomb));
        for me in 0..2usize {
            let drops = Arc::clone(&drops);
            sim.spawn(move |ctx| {
                let _held = CountDrop(drops);
                ctx.compute(SimDuration::from_micros(5));
                ctx.send(ProcId(1 - me), Tag::app(0), (), 1);
                let _ = ctx.recv(Filter::any());
            });
        }
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
        assert!(
            unwound.is_err(),
            "{mode:?}: the observer's panic propagates"
        );
        assert_eq!(drops.load(Ordering::SeqCst), 2, "{mode:?}");
    }
}
