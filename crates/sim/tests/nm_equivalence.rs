//! The rank scheduler's own observables, on the raw kernel.
//!
//! Every rank is a fiber the kernel resumes inline on its own thread (a
//! thread of its own on hosts without fibers). One group locks down what
//! that scheduling must keep: runnable-rank dispatch order is a pure
//! function of the canonical event order (equal across reruns), a mid-run
//! panic fails only the owning rank, and payload-clone accounting survives
//! ranks sharing one thread.
//!
//! A second group covers what running ranks inline on the caller's thread
//! must not break: an aborted run still drops everything on every rank's
//! stack, a run nested inside a rank body and runs on concurrent host
//! threads do not disturb each other, and a run creates no thread.
//!
//! That a scheduled run's virtual time equals a recording replayed through
//! the kernel is `crates/model/tests/identity.rs`'s to check.

use numagap_sim::{
    Filter, IdealNetwork, Observer, ProcId, RunOutcome, Sim, SimDuration, SimError, SimTime, Tag,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

/// A deterministic multi-rank workload on the raw kernel: a token ring
/// where every hop recomputes, so ranks suspend and resume continually.
fn ring_sim() -> Sim<'static, IdealNetwork> {
    const N: usize = 6;
    const ROUNDS: u32 = 5;
    let mut sim = Sim::new(IdealNetwork::new(N, SimDuration::from_micros(20)));
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

/// The kernel's grant sequence, one rank per context switch into a rank.
/// Each resume hands back exactly one request, and each request fires
/// exactly one of the four callbacks below, so pushing the rank there
/// records the grants in the order the kernel issued them.
struct Grants(Vec<u32>);

impl Observer for Grants {
    fn on_compute(&mut self, p: ProcId, _start: SimTime, _end: SimTime) {
        self.0.push(p.0 as u32);
    }
    fn on_send_posted(&mut self, src: ProcId, _dst: ProcId, _bytes: u64, _now: SimTime) {
        self.0.push(src.0 as u32);
    }
    fn on_recv_posted(&mut self, p: ProcId, _filter: &Filter, _blocking: bool, _now: SimTime) {
        self.0.push(p.0 as u32);
    }
    fn on_exit(&mut self, p: ProcId, _now: SimTime) {
        self.0.push(p.0 as u32);
    }
}

/// Satellite invariant: runnable-rank dispatch order (the kernel's grant
/// sequence) is a pure function of the canonical event order — not of host
/// scheduling.
/// (With strict rendezvous at most one rank is runnable per instant, so
/// the grant sequence *is* the dispatch order.)
#[test]
fn dispatch_order_is_a_pure_function_of_the_event_order() {
    let baseline = ring_observables(ring_sim());
    assert!(!baseline.1.is_empty());
    for rerun in 0..2 {
        let out = ring_observables(ring_sim());
        assert_eq!(out.0, baseline.0, "rerun={rerun}");
        assert_eq!(out.1, baseline.1, "dispatch order moved, rerun={rerun}");
    }
}

/// Satellite regression: a mid-run panic must fail only the owning rank —
/// the panic unwinds the rank's fiber, not the thread it shares with the
/// kernel and every other rank, so the others still finish and report.
/// What the dying rank had cloned out of a message is still charged to the
/// run.
#[test]
fn a_mid_run_panic_fails_only_the_owning_rank() {
    let mut sim = Sim::new(IdealNetwork::new(4, SimDuration::from_micros(20)));
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
    assert_eq!(
        out.profile.bytes_cloned, 64,
        "clone bytes lost with the panicking rank"
    );
}

/// Satellite regression: `HotProfile::bytes_cloned` is charged to the run
/// whose ranks share the kernel's thread, and does not leak into the next
/// run on the same thread.
#[test]
fn clone_accounting_survives_rank_multiplexing() {
    let run = || {
        let mut sim = Sim::new(IdealNetwork::new(3, SimDuration::from_micros(20)));
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
    for rerun in 0..3 {
        assert_eq!(run(), 4096 + 2048, "bytes_cloned drifted, rerun={rerun}");
    }
}

/// Counts its own drops: stands for any value a rank body keeps on its stack.
struct CountDrop(Arc<AtomicUsize>);

impl Drop for CountDrop {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// An aborted run unwinds every rank that is suspended mid-body — by
/// resuming it one last time with the abort grant — so by the time
/// `Sim::run` returns its error, every destructor on every rank's stack has
/// run. `stuck` is the rank body's way of never finishing.
fn aborted_run_drops_rank_stacks(
    limit: Option<SimTime>,
    stuck: fn(&mut numagap_sim::ProcCtx),
) -> SimError {
    const RANKS: usize = 3;
    let drops = Arc::new(AtomicUsize::new(0));
    let mut sim = Sim::new(IdealNetwork::new(RANKS, SimDuration::from_micros(20)));
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
        "values left alive on an aborted rank's stack"
    );
    err
}

#[test]
fn a_deadlocked_run_drops_everything_on_every_rank_stack() {
    let err = aborted_run_drops_rank_stacks(None, |ctx| {
        let _ = ctx.recv(Filter::tag(Tag::app(9)));
    });
    assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
}

#[test]
fn a_time_limited_run_drops_everything_on_every_rank_stack() {
    let limit = SimTime::from_nanos(1_000_000);
    let err = aborted_run_drops_rank_stacks(Some(limit), |ctx| loop {
        ctx.compute(SimDuration::from_micros(50));
    });
    assert!(matches!(err, SimError::TimeLimit { .. }), "{err}");
}

/// Runs `sim` to completion, recording its grant sequence.
fn run_with_grants(sim: Sim<'_, IdealNetwork>) -> (RunOutcome<IdealNetwork>, Vec<u32>) {
    let mut grants = Grants(Vec::new());
    let mut sim = sim;
    sim.set_observer(Box::new(&mut grants));
    let out = sim.run().expect("run completes");
    (out, grants.0)
}

/// Elapsed time, grant sequence and clone count of one run.
fn ring_observables(sim: Sim<'_, IdealNetwork>) -> (SimDuration, Vec<u32>, u64) {
    let (out, grants) = run_with_grants(sim);
    (out.elapsed, grants, out.profile.bytes_cloned)
}

/// A whole `Sim::run` started inside a rank body (on that rank's fiber)
/// completes, and the outer run cannot tell: same results, same dispatch
/// order, and none of the inner run's payload clones on its bill.
#[test]
fn a_run_nested_inside_a_rank_body_leaves_the_outer_run_unchanged() {
    let alone = ring_observables(ring_sim());
    let outer = |nested: bool| {
        let mut sim = Sim::new(IdealNetwork::new(2, SimDuration::from_micros(20)));
        sim.spawn(move |ctx| {
            ctx.send(ProcId(1), Tag::app(0), vec![1u8; 100], 100);
            let inner = nested.then(|| ring_observables(ring_sim()));
            let m = ctx.recv(Filter::tag(Tag::app(1)));
            (m.expect_clone::<u64>(), inner)
        });
        sim.spawn(|ctx| {
            let m = ctx.recv(Filter::tag(Tag::app(0)));
            let len = m.expect_clone::<Vec<u8>>().len() as u64;
            ctx.send(ProcId(0), Tag::app(1), len, 8);
        });
        let (out, grants) = run_with_grants(sim);
        let (echoed, inner) = out.results[0]
            .as_ref()
            .expect("rank 0 finished")
            .downcast_ref::<(u64, Option<(SimDuration, Vec<u32>, u64)>)>()
            .expect("rank 0 result type");
        assert_eq!(*echoed, 100);
        let observed = (out.elapsed, grants, out.profile.bytes_cloned);
        (observed, inner.clone())
    };
    let (plain, _) = outer(false);
    let (with_nested, inner) = outer(true);
    assert_eq!(inner.as_ref(), Some(&alone));
    assert_eq!(with_nested, plain);
    assert_eq!(plain.2, 108);
}

/// Two host threads each driving a `Sim` of their own at the same time —
/// what `engine::run_cells --jobs 2` does — get the single-thread results:
/// everything a run shares with its ranks is per-thread or per-run.
#[test]
fn concurrent_host_threads_each_get_the_single_thread_results() {
    let alone = ring_observables(ring_sim());
    let start = Arc::new(Barrier::new(2));
    let hosts: Vec<_> = (0..2)
        .map(|_| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                (0..20)
                    .map(|_| ring_observables(ring_sim()))
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

/// Where the build has fibers, every rank is resumed on the caller's
/// thread: the run creates no OS thread and wakes none.
#[test]
fn the_default_mode_runs_every_rank_on_the_callers_thread() {
    let out = ring_sim().run().expect("ring runs");
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
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
    let drops = Arc::new(AtomicUsize::new(0));
    let mut sim = Sim::new(IdealNetwork::new(2, SimDuration::from_micros(20)));
    sim.set_observer(Box::new(Bomb));
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
    assert!(unwound.is_err(), "the observer's panic propagates");
    assert_eq!(drops.load(Ordering::SeqCst), 2);
}
