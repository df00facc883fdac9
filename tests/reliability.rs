//! End-to-end tests of WAN fault injection and the reliable transport.
//!
//! The tentpole claim: with the reliable transport enabled, programs
//! complete with the *same results* under any fault plan — drops,
//! duplicates, reordering, scheduled outages — degraded only in simulated
//! time, and the whole faulty execution replays bit-for-bit from its seed.

use twolayer::analysis::{Analysis, DiagnosticKind};
use twolayer::net::{das_spec, FaultPlan};
use twolayer::rt::{Ctx, Machine, TransportConfig};
use twolayer::sim::{Filter, SimDuration, SimTime, Tag};

/// An all-to-all exchange whose result (a commutative sum) is independent
/// of wildcard arrival order, but which still asserts per-sender FIFO —
/// exactly the invariant reordering faults attack.
fn exchange(ctx: &mut Ctx<'_>) -> u64 {
    const ROUNDS: u64 = 6;
    let n = ctx.nprocs();
    let me = ctx.rank();
    for k in 0..ROUNDS {
        for d in 0..n {
            if d != me {
                ctx.send(d, Tag::app(1), (me as u64) * 1000 + k, 256);
            }
        }
    }
    let mut acc = 0u64;
    let mut next = vec![0u64; n];
    for _ in 0..(n as u64 - 1) * ROUNDS {
        let (src, v): (usize, u64) = ctx.recv_typed(Tag::app(1));
        let k = v % 1000;
        assert_eq!(k, next[src], "per-sender FIFO violated from rank {src}");
        next[src] = k + 1;
        acc += v;
        ctx.compute(SimDuration::from_micros(20));
    }
    acc
}

fn faulty_machine(plan: FaultPlan) -> Machine {
    let spec = das_spec(2, 2, 5.0, 1.0).fault_plan(plan);
    let cfg = TransportConfig::for_spec(&spec);
    Machine::new(spec)
        .with_reliable_transport(cfg)
        .time_limit(SimDuration::from_secs(600))
}

/// A zero-probability fault plan must not perturb timing: the fault branch
/// in the kernel has to be a no-op, not merely rare.
#[test]
fn zero_probability_plan_is_timing_neutral() {
    let clean = Machine::new(das_spec(2, 2, 5.0, 1.0))
        .run(exchange)
        .unwrap();
    let planned = Machine::new(das_spec(2, 2, 5.0, 1.0).fault_plan(FaultPlan::new(1)))
        .run(exchange)
        .unwrap();
    assert_eq!(clean.elapsed, planned.elapsed);
    assert_eq!(clean.results, planned.results);
    assert_eq!(planned.kernel_stats.faults_dropped, 0);
    assert_eq!(planned.effective_seed(), Some(1));
    assert_eq!(clean.effective_seed(), None);
}

/// Heavy drops plus a mid-run gateway outage: the transport recovers every
/// loss and the program finishes with the fault-free results.
#[test]
fn drops_and_outage_are_recovered() {
    let clean = Machine::new(das_spec(2, 2, 5.0, 1.0))
        .run(exchange)
        .unwrap();
    // Park the outage squarely inside the fault-free makespan.
    let t = clean.elapsed.as_nanos();
    let plan = FaultPlan::new(42)
        .drop_prob(0.15)
        .duplicate_prob(0.05)
        .reorder_prob(0.05)
        .gateway_outage(
            1,
            SimTime::from_nanos(t * 3 / 10),
            SimTime::from_nanos(t * 6 / 10),
        );
    let faulty = faulty_machine(plan).run(exchange).unwrap();
    assert_eq!(
        faulty.results, clean.results,
        "results must be identical under faults"
    );
    assert!(
        faulty.elapsed > clean.elapsed,
        "faults cost only simulated time: {:?} vs {:?}",
        faulty.elapsed,
        clean.elapsed
    );
    assert!(faulty.kernel_stats.faults_dropped > 0, "plan never fired");
    let totals = faulty.transport_totals().expect("transport was enabled");
    assert!(totals.retransmits > 0, "drops must force retransmissions");
    assert!(totals.goodput() < 1.0);
    assert_eq!(clean.transport_totals(), None);
}

/// The same seed replays the same execution: identical virtual time,
/// identical fault counters, identical transport traffic.
#[test]
fn seed_replays_identical_fault_schedule() {
    let plan = FaultPlan::new(7).drop_prob(0.2).reorder_prob(0.1);
    let a = faulty_machine(plan.clone()).run(exchange).unwrap();
    let b = faulty_machine(plan).run(exchange).unwrap();
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.results, b.results);
    assert_eq!(a.kernel_stats.faults_dropped, b.kernel_stats.faults_dropped);
    assert_eq!(a.kernel_stats.faults_delayed, b.kernel_stats.faults_delayed);
    assert_eq!(a.transport_totals(), b.transport_totals());

    let other = faulty_machine(FaultPlan::new(8).drop_prob(0.2).reorder_prob(0.1))
        .run(exchange)
        .unwrap();
    assert_ne!(
        a.elapsed, other.elapsed,
        "different seeds should fault differently"
    );
}

/// Every WAN message duplicated: wildcard receives still see each payload
/// exactly once, in send order — the dedup layer makes wildcard receive
/// deterministic again (the `try_recv`/`recv` filter edge case).
#[test]
fn duplicates_are_suppressed_for_wildcard_receives() {
    const N: u64 = 12;
    let report = faulty_machine(FaultPlan::new(3).duplicate_prob(1.0))
        .run(|ctx| {
            if ctx.rank() == 0 {
                for k in 0..N {
                    ctx.send(2, Tag::app(9), k, 64);
                }
                Vec::new()
            } else if ctx.rank() == 2 {
                // Poll with a wildcard filter: duplicates and early copies
                // must never surface twice or out of order.
                let mut got = Vec::new();
                while (got.len() as u64) < N {
                    match ctx.try_recv(Filter::any()) {
                        Some(m) => got.push(m.expect_clone::<u64>()),
                        None => ctx.compute(SimDuration::from_micros(50)),
                    }
                }
                // Stay alive past the duplicates' delayed arrivals: every
                // late copy must be absorbed by the dedup layer, never
                // surfacing to the application.
                for _ in 0..40 {
                    ctx.compute(SimDuration::from_millis(10));
                    assert!(
                        ctx.try_recv(Filter::any()).is_none(),
                        "a duplicate leaked through the transport"
                    );
                }
                got
            } else {
                Vec::new()
            }
        })
        .unwrap();
    assert_eq!(report.results[2], (0..N).collect::<Vec<u64>>());
    assert!(report.kernel_stats.faults_duplicated > 0);
    let totals = report.transport_totals().unwrap();
    assert!(totals.duplicates_suppressed > 0);
}

/// Half of all WAN messages delayed enough to overtake: the transport's
/// reorder stash must release each sender's stream strictly in order.
#[test]
fn reordered_streams_are_released_in_order() {
    const N: u64 = 24;
    let report = faulty_machine(FaultPlan::new(11).reorder_prob(0.5))
        .run(|ctx| {
            if ctx.rank() == 1 {
                for k in 0..N {
                    ctx.send(3, Tag::app(2), k, 64);
                }
                0
            } else if ctx.rank() == 3 {
                let mut prev = None;
                for _ in 0..N {
                    let (_, v): (usize, u64) = ctx.recv_typed(Tag::app(2));
                    if let Some(p) = prev {
                        assert!(v > p, "delivery reordered: {v} after {p}");
                    }
                    prev = Some(v);
                }
                prev.unwrap()
            } else {
                0
            }
        })
        .unwrap();
    assert_eq!(report.results[3], N - 1);
    assert!(
        report.kernel_stats.faults_delayed > 0,
        "no delay ever fired"
    );
}

/// Without the transport, a plan-injected drop is charged to the fault
/// plan: the sanitizer reports no lost message, and the fault shows up in
/// its attribution counters instead.
#[test]
fn sanitizer_attributes_injected_drops() {
    let spec = das_spec(2, 1, 5.0, 1.0).fault_plan(FaultPlan::new(5).drop_prob(1.0));
    let machine = Machine::new(spec);
    let mut analysis = Analysis::new(2);
    machine
        .run_observed(
            |ctx| {
                // Fire-and-forget across the WAN; the plan eats it.
                if ctx.rank() == 0 {
                    ctx.send(1, Tag::app(4), 1u8, 32);
                }
            },
            &mut analysis,
        )
        .unwrap();
    let counts = analysis.fault_counts();
    assert_eq!(counts.dropped, 1);
    assert_eq!(counts.attributed_leftovers, 1);
    assert_eq!(
        analysis.diagnostics(),
        Vec::new(),
        "an injected drop is not a lost-message defect"
    );
}

/// Transport + faults + sanitizer all together: retransmissions, acks and
/// duplicate copies must not trip any diagnostic.
#[test]
fn sanitizer_is_clean_under_transport_and_faults() {
    let spec = das_spec(2, 2, 5.0, 1.0).fault_plan(
        FaultPlan::new(21)
            .drop_prob(0.15)
            .duplicate_prob(0.1)
            .reorder_prob(0.1),
    );
    let cfg = TransportConfig::for_spec(&spec);
    let nprocs = spec.topology.nprocs();
    let machine = Machine::new(spec)
        .with_reliable_transport(cfg)
        .time_limit(SimDuration::from_secs(600));
    let mut analysis = Analysis::new(nprocs);
    let report = machine
        .run_observed(
            |ctx| {
                // A ring relay with source-specific receives: every message
                // matters and no wildcard races exist by construction.
                let n = ctx.nprocs();
                let me = ctx.rank();
                let prev = (me + n - 1) % n;
                let mut token = me as u64;
                for _ in 0..8 {
                    ctx.send((me + 1) % n, Tag::app(6), token, 128);
                    let m = ctx.recv_from(prev, Tag::app(6));
                    token = m.expect_clone::<u64>() + 1;
                }
                token
            },
            &mut analysis,
        )
        .unwrap();
    assert!(report.kernel_stats.faults_dropped > 0);
    let diags = analysis.diagnostics();
    assert!(
        !diags
            .iter()
            .any(|d| matches!(d.kind, DiagnosticKind::LostMessage)),
        "transport traffic misattributed: {diags:#?}"
    );
    assert_eq!(diags, Vec::new(), "unexpected diagnostics: {diags:#?}");
    let counts = analysis.fault_counts();
    assert!(counts.dropped + counts.duplicated + counts.delayed > 0);
}
