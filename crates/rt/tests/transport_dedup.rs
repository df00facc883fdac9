//! End-to-end dedup semantics of the reliable transport over a
//! duplicate-heavy WAN.
//!
//! The kernel's mailbox returns the oldest parked message a filter accepts
//! (unit tests inside the kernel); this suite closes the loop one layer
//! up: when arrivals flow through the reliable
//! transport — which acknowledges, deduplicates, and releases messages in
//! stream order before the application's tag filters ever see them — a
//! tag-filtered receive must still deliver every payload exactly once and
//! in per-tag send order, no matter how aggressively the WAN drops,
//! duplicates, and reorders.

use numagap_net::{das_spec, FaultPlan};
use numagap_rt::{Machine, TransportConfig};
use numagap_sim::{SimDuration, Tag};

const MSGS_PER_TAG: u64 = 40;
const TAG_A: Tag = Tag::app(1);
const TAG_B: Tag = Tag::app(2);

/// 2 clusters x 2 ranks; rank 0 and rank 2 sit in different clusters, so
/// all test traffic crosses the faulty WAN.
fn machine(plan: FaultPlan) -> Machine {
    let spec = das_spec(2, 2, 1.0, 8.0).fault_plan(plan);
    // A timeout far above the worst queueing delay of this traffic burst
    // (the gateway CPUs serialize every message at 60 us each): every
    // retransmission and suppressed duplicate in these tests is then
    // attributable to an *injected* fault, never to congestion.
    let cfg = TransportConfig {
        retransmit_timeout: SimDuration::from_millis(100),
        ..TransportConfig::for_spec(&spec)
    };
    Machine::new(spec)
        .with_reliable_transport(cfg)
        .time_limit(SimDuration::from_secs(600))
}

/// Per-rank entry: rank 0 interleaves numbered sends on two tags; rank 2
/// receives tag B *first* and tag A second (the reverse of the interleaved
/// send order), forcing every tag-A message to wait in the transport's
/// delivery buffer while tag-B filters skip past it.
fn entry(ctx: &mut numagap_rt::Ctx<'_>) -> Vec<u64> {
    match ctx.rank() {
        0 => {
            for i in 0..MSGS_PER_TAG {
                ctx.send(2, TAG_A, i, 16);
                ctx.send(2, TAG_B, 1000 + i, 16);
            }
            // Wait for the receiver's summary so the sender cannot exit
            // (and start its flush) before delivery is complete.
            let (_, done) = ctx.recv_typed::<u64>(Tag::app(9));
            vec![done]
        }
        2 => {
            let mut got = Vec::with_capacity(2 * MSGS_PER_TAG as usize);
            for _ in 0..MSGS_PER_TAG {
                let (_, v) = ctx.recv_typed::<u64>(TAG_B);
                got.push(v);
            }
            for _ in 0..MSGS_PER_TAG {
                let (_, v) = ctx.recv_typed::<u64>(TAG_A);
                got.push(v);
            }
            ctx.send(0, Tag::app(9), got.len() as u64, 8);
            got
        }
        _ => Vec::new(),
    }
}

fn check_delivery(got: &[u64]) {
    assert_eq!(got.len(), 2 * MSGS_PER_TAG as usize);
    let (b, a) = got.split_at(MSGS_PER_TAG as usize);
    // Exactly once, in per-tag send order: the dedup window suppressed
    // every duplicate copy and the stream reassembly undid every reorder.
    let expect_b: Vec<u64> = (0..MSGS_PER_TAG).map(|i| 1000 + i).collect();
    let expect_a: Vec<u64> = (0..MSGS_PER_TAG).collect();
    assert_eq!(b, expect_b.as_slice(), "tag-B stream corrupted");
    assert_eq!(a, expect_a.as_slice(), "tag-A stream corrupted");
}

#[test]
fn duplicate_heavy_wan_delivers_each_tagged_message_exactly_once_in_order() {
    let plan = FaultPlan::new(11)
        .drop_prob(0.1)
        .duplicate_prob(0.3)
        .reorder_prob(0.2);
    let report = machine(plan).run(entry).expect("run completes");
    check_delivery(&report.results[2]);
    let totals = report.transport_totals().expect("transport enabled");
    assert!(
        totals.duplicates_suppressed > 0,
        "a 30% duplicate plan must exercise the dedup path, stats: {totals:?}"
    );
    assert!(
        totals.retransmits > 0,
        "a 10% drop plan must force retransmissions, stats: {totals:?}"
    );
    // Every application message was eventually delivered exactly once:
    // 2 tags x MSGS_PER_TAG messages + the final summary message.
    assert_eq!(totals.delivered, 2 * MSGS_PER_TAG + 1);
}

#[test]
fn dedup_under_faults_is_deterministic() {
    let run = || {
        let plan = FaultPlan::new(23)
            .drop_prob(0.15)
            .duplicate_prob(0.25)
            .reorder_prob(0.15);
        let report = machine(plan).run(entry).expect("run completes");
        check_delivery(&report.results[2]);
        let totals = report.transport_totals();
        (
            report.elapsed.as_nanos(),
            report.kernel_stats,
            report.results,
            totals,
        )
    };
    let (e1, k1, r1, t1) = run();
    let (e2, k2, r2, t2) = run();
    assert_eq!(e1, e2, "virtual time must be bit-identical across runs");
    assert_eq!(k1, k2);
    assert_eq!(r1, r2);
    assert_eq!(format!("{t1:?}"), format!("{t2:?}"));
}

#[test]
fn fault_free_transport_suppresses_nothing() {
    // Same program, no fault plan: the dedup window must stay cold and the
    // delivered payloads identical to the faulty runs' (the transport is
    // semantically transparent).
    let spec = das_spec(2, 2, 1.0, 8.0);
    let cfg = TransportConfig {
        retransmit_timeout: SimDuration::from_millis(100),
        ..TransportConfig::for_spec(&spec)
    };
    let report = Machine::new(spec)
        .with_reliable_transport(cfg)
        .time_limit(SimDuration::from_secs(600))
        .run(entry)
        .expect("run completes");
    check_delivery(&report.results[2]);
    let totals = report.transport_totals().expect("transport enabled");
    assert_eq!(totals.duplicates_suppressed, 0);
    assert_eq!(totals.retransmits, 0);
    assert_eq!(totals.delivered, 2 * MSGS_PER_TAG + 1);
}
