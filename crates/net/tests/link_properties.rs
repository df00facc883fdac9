//! Property tests for the link layer's ordering guarantees.
//!
//! The simulator's determinism story leans on two properties of the cost
//! model:
//!
//! 1. **Per-pair FIFO**: traffic between a fixed processor pair arrives
//!    in send order no matter how sizes, gaps, contention, or
//!    deterministic latency jitter vary. Each resource ([`LinkState`]) is
//!    a gap-filling single server — when bookings arrive in ready-time
//!    order it behaves exactly like a FIFO queue, and when the kernel's
//!    canonical replay books chains out of ready order, the model's
//!    per-pair arrival floor restores send-order delivery.
//! 2. **Contention only delays**: a booked message arrives exactly at its
//!    itemized idle cost ([`TwoLayerNetwork::idle_cost`]) when nothing is in
//!    its way, and never earlier when something is — the premise of the
//!    analytic lower bound.
//!
//! All randomness is a seeded xorshift64* stream — runs are reproducible
//! and the failure message names the seed.

use numagap_net::{
    CrossTrafficPlan, LinkParams, LinkSchedule, LinkState, Topology, TwoLayerNetwork, TwoLayerSpec,
    WanTopology,
};
use numagap_sim::{Network, ProcId, SimDuration, SimTime};

/// Deterministic xorshift64* — the same generator the kernel's own property
/// tests use; no wall-clock seeding anywhere.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn wan_spec(jitter: f64) -> TwoLayerSpec {
    let spec = TwoLayerSpec::new(Topology::symmetric(4, 8)).inter(LinkParams::wide_area(2.0, 1.5));
    if jitter > 0.0 {
        spec.wan_latency_jitter(jitter)
    } else {
        spec
    }
}

/// Raw `LinkState` occupancy: under any acquisition sequence with
/// non-decreasing ready times, gap filling degenerates to a plain FIFO
/// queue (every idle gap ends at or before the newest ready time, so
/// nothing can slot in early): starts are non-decreasing, never precede
/// readiness, and transmissions never overlap.
#[test]
fn link_occupancy_is_fifo_and_overlap_free() {
    for seed in 1..=16u64 {
        let mut rng = Rng::new(seed);
        let mut link = LinkState::default();
        let mut now = SimTime::ZERO;
        let mut prev_start = SimTime::ZERO;
        let mut prev_end = SimTime::ZERO;
        let mut total_busy = SimDuration::ZERO;
        for i in 0..500 {
            now += SimDuration::from_nanos(rng.below(5_000));
            let tx = SimDuration::from_nanos(rng.below(10_000));
            let start = link.acquire(now, tx, 1);
            assert!(start >= now, "seed {seed} op {i}: started before ready");
            assert!(
                start >= prev_start,
                "seed {seed} op {i}: FIFO violated ({start} < {prev_start})"
            );
            assert!(
                start >= prev_end,
                "seed {seed} op {i}: transmissions overlap ({start} < {prev_end})"
            );
            prev_start = start;
            prev_end = start + tx;
            total_busy += tx;
        }
        assert_eq!(link.busy, total_busy, "seed {seed}");
        assert_eq!(link.msgs, 500, "seed {seed}");
    }
}

/// Raw `LinkState` occupancy under *arbitrary* (out-of-order) ready times,
/// as produced by the kernel's canonical replay booking whole transfer
/// chains ahead of time: transmissions never precede their ready time,
/// never overlap any other booking, and never do worse than a high-water
/// FIFO would (gap filling is work-conserving).
#[test]
fn out_of_order_occupancy_is_overlap_free_and_work_conserving() {
    for seed in 1..=16u64 {
        let mut rng = Rng::new(seed ^ 0x6A9F);
        let mut link = LinkState::default();
        let mut booked: Vec<(SimTime, SimTime)> = Vec::new();
        let mut frontier = SimTime::ZERO;
        for i in 0..300 {
            let ready = SimTime::ZERO + SimDuration::from_nanos(rng.below(2_000_000));
            let tx = SimDuration::from_nanos(1 + rng.below(10_000));
            let start = link.acquire(ready, tx, 1);
            let end = start + tx;
            assert!(start >= ready, "seed {seed} op {i}: started before ready");
            assert!(
                start <= frontier.max(ready),
                "seed {seed} op {i}: worse than high-water FIFO \
                 ({start} > max({frontier}, {ready}))"
            );
            for &(s, e) in &booked {
                assert!(
                    end <= s || start >= e,
                    "seed {seed} op {i}: [{start}, {end}) overlaps [{s}, {e})"
                );
            }
            booked.push((start, end));
            frontier = frontier.max(end);
        }
        assert_eq!(link.msgs, 300, "seed {seed}");
    }
}

/// End-to-end per-pair FIFO: randomized traffic between fixed processor
/// pairs (random sizes and send gaps, with unrelated cross traffic
/// contending for the same WAN link, with and without latency jitter)
/// arrives in send order.
#[test]
fn same_pair_wan_traffic_arrives_in_send_order() {
    for &jitter in &[0.0, 0.4] {
        for seed in 1..=8u64 {
            let mut rng = Rng::new(seed ^ 0xABCD);
            let mut net = wan_spec(jitter).build();
            // Watched pairs: two inter-cluster, one intra-cluster.
            let pairs = [
                (ProcId(0), ProcId(8)),
                (ProcId(1), ProcId(9)),
                (ProcId(2), ProcId(3)),
            ];
            let mut last_arrival = [SimTime::ZERO; 3];
            let mut now = SimTime::ZERO;
            for i in 0..400 {
                now += SimDuration::from_micros(rng.below(200));
                let which = rng.below(4) as usize;
                if which < 3 {
                    let (src, dst) = pairs[which];
                    let bytes = rng.below(20_000);
                    let arrival = net.transfer(src, dst, bytes, now);
                    assert!(arrival >= now, "jitter {jitter} seed {seed} op {i}");
                    assert!(
                        arrival >= last_arrival[which],
                        "jitter {jitter} seed {seed} op {i}: pair {which} reordered \
                         ({} < {})",
                        arrival,
                        last_arrival[which]
                    );
                    last_arrival[which] = arrival;
                } else {
                    // Cross traffic from another sender over the same
                    // cluster-0 -> cluster-1 WAN link.
                    let _ = net.transfer(ProcId(3 + rng.below(4) as usize), ProcId(10), 5_000, now);
                }
            }
        }
    }
}

/// The three hostile schedule shapes, each with seeded cross-traffic at
/// half intensity and aggressive (but legal) degradation factors. The
/// short diurnal period and step/drift horizons sit inside the virtual
/// window the tests sweep, so every curve segment is exercised.
fn hostile_specs(seed: u64) -> [TwoLayerSpec; 3] {
    let schedules = [
        LinkSchedule::diurnal(seed, SimDuration::from_millis(2)),
        LinkSchedule::step(seed, SimTime::from_nanos(5_000_000)),
        LinkSchedule::drift(seed, SimTime::from_nanos(20_000_000)),
    ];
    schedules.map(|s| {
        wan_spec(0.0)
            .cross_traffic(CrossTrafficPlan::new(seed).intensity(0.5))
            .link_schedule(s.latency_factor(3.0).bandwidth_factor(0.25))
    })
}

/// Per-pair FIFO survives the full hostile stack: background cross-traffic
/// competing for the WAN links plus a time-varying quality schedule of any
/// shape never reorder a fixed pair's traffic.
#[test]
fn same_pair_traffic_stays_fifo_under_cross_traffic_and_schedules() {
    for seed in 1..=6u64 {
        for (shape, spec) in hostile_specs(seed).into_iter().enumerate() {
            let mut rng = Rng::new(seed ^ 0xC0DE ^ (shape as u64) << 8);
            let mut net = spec.build();
            let pairs = [
                (ProcId(0), ProcId(8)),
                (ProcId(1), ProcId(9)),
                (ProcId(2), ProcId(3)),
            ];
            let mut last_arrival = [SimTime::ZERO; 3];
            let mut now = SimTime::ZERO;
            for i in 0..400 {
                now += SimDuration::from_micros(rng.below(200));
                let which = rng.below(3) as usize;
                let (src, dst) = pairs[which];
                let bytes = rng.below(20_000);
                let arrival = net.transfer(src, dst, bytes, now);
                assert!(
                    arrival >= last_arrival[which],
                    "shape {shape} seed {seed} op {i}: pair {which} reordered \
                     ({} < {})",
                    arrival,
                    last_arrival[which]
                );
                last_arrival[which] = arrival;
            }
            assert!(
                net.stats().cross_msgs > 0,
                "shape {shape} seed {seed}: no background traffic was injected, \
                 the hostile path was not exercised"
            );
        }
    }
}

/// A hostile network never speeds a message up: from an idle network, any
/// single transfer under cross-traffic and a degradation schedule arrives
/// at or after its clean-network arrival. (Under *contention history* the
/// pairwise claim is deliberately not made: the gap-filling link server
/// may leave idle an interval the clean network had occupied, so a later
/// message can legitimately slot in earlier.)
#[test]
fn hostile_transfers_from_idle_never_beat_the_clean_network() {
    for seed in 1..=6u64 {
        for (shape, spec) in hostile_specs(seed).into_iter().enumerate() {
            let mut rng = Rng::new(seed ^ 0xBAD ^ (shape as u64) << 8);
            for i in 0..60 {
                let now = SimTime::from_nanos(rng.below(30_000_000));
                let src = ProcId(rng.below(32) as usize);
                let dst = ProcId(rng.below(32) as usize);
                let bytes = rng.below(20_000);
                let c = wan_spec(0.0).build().transfer(src, dst, bytes, now);
                let h = spec.clone().build().transfer(src, dst, bytes, now);
                assert!(
                    h >= c,
                    "shape {shape} seed {seed} op {i}: hostile arrival {h} beats \
                     clean arrival {c}"
                );
            }
            // The step schedule past its step point degrades every WAN
            // message strictly: 3x latency cannot round away.
            let late = SimTime::from_nanos(10_000_000);
            let c = wan_spec(0.0)
                .build()
                .transfer(ProcId(0), ProcId(8), 100, late);
            let h = spec
                .clone()
                .build()
                .transfer(ProcId(0), ProcId(8), 100, late);
            if shape == 1 {
                assert!(
                    h > c,
                    "shape {shape} seed {seed}: fully degraded WAN must be \
                     strictly slower"
                );
            }
        }
    }
}

/// The hostile stack is a pure function of the seed: identical seeds
/// replay transfer timings and cross-traffic counters bit-identically,
/// different seeds genuinely differ.
#[test]
fn hostile_plans_replay_exactly_from_the_seed() {
    let run = |seed: u64| {
        hostile_specs(seed).map(|spec| {
            let mut net = spec.build();
            let mut out = Vec::new();
            for i in 0..300u64 {
                let now = SimTime::from_nanos(i * 50_000);
                let src = ProcId((i % 8) as usize);
                let dst = ProcId(8 + (i % 24) as usize);
                out.push(net.transfer(src, dst, 1000 + i, now).as_nanos());
            }
            (out, net.stats().cross_msgs, net.stats().cross_bytes)
        })
    };
    assert_eq!(run(7), run(7), "same seed must replay bit-identically");
    assert_ne!(run(7), run(8), "different seeds must differ");
}

/// Every shape that fits a drawn cluster count yields routes that are
/// deterministic (recomputation is bit-identical) and cycle-free (no
/// routing node appears twice), with endpoints anchored at the gateways.
#[test]
fn wan_routes_are_deterministic_and_cycle_free() {
    for seed in 1..=24u64 {
        let mut rng = Rng::new(seed ^ 0x70_B0);
        let n = 2 + rng.below(10) as usize;
        let shapes = [
            WanTopology::FullMesh,
            WanTopology::Star {
                hub: rng.below(n as u64) as usize,
            },
            WanTopology::Ring,
            WanTopology::Line,
            WanTopology::Torus2d { x: 2, y: n / 2 },
            WanTopology::Torus3d {
                x: 2,
                y: 2,
                z: n / 4,
            },
            WanTopology::FatTree {
                pod: 2 + rng.below((n - 1) as u64) as usize,
            },
            WanTopology::Dragonfly {
                groups: (2..=n).find(|&g| n.is_multiple_of(g)).unwrap_or(n),
            },
        ];
        for shape in shapes {
            if shape.validate(n).is_err() {
                continue;
            }
            let nnodes = shape.nnodes(n);
            for src in 0..n {
                for dst in 0..n {
                    if src == dst {
                        continue;
                    }
                    let route = shape.route(src, dst, n);
                    assert_eq!(
                        route,
                        shape.route(src, dst, n),
                        "{}: recomputed route differs",
                        shape.label()
                    );
                    assert_eq!(route[0], src, "{}", shape.label());
                    assert_eq!(*route.last().unwrap(), dst, "{}", shape.label());
                    assert!(
                        route.iter().all(|&c| c < nnodes),
                        "{}: node out of range in {route:?}",
                        shape.label()
                    );
                    let mut seen = route.clone();
                    seen.sort_unstable();
                    seen.dedup();
                    assert_eq!(
                        seen.len(),
                        route.len(),
                        "{}: route {route:?} revisits a node",
                        shape.label()
                    );
                }
            }
        }
    }
}

/// Per-pair FIFO survives multi-hop store-and-forward: randomized traffic
/// between fixed processor pairs over a ring (every cluster-0 -> cluster-2
/// message relays through cluster 1, contending with direct 0 -> 1 and
/// 1 -> 2 traffic on the shared directed links) still arrives in send
/// order, and the relay's directed links are the ones that got busy.
#[test]
fn same_pair_traffic_stays_fifo_under_multi_hop_contention() {
    for seed in 1..=8u64 {
        let mut rng = Rng::new(seed ^ 0x217);
        let mut net = wan_spec(0.0).wan_topology(WanTopology::Ring).build();
        // Both watched pairs cross cluster boundaries; the 0 -> 16 pair
        // needs two WAN hops (0 -> 1 -> 2 on the 4-ring).
        let pairs = [(ProcId(0), ProcId(16)), (ProcId(1), ProcId(9))];
        let mut last_arrival = [SimTime::ZERO; 2];
        let mut now = SimTime::ZERO;
        for i in 0..400 {
            now += SimDuration::from_micros(rng.below(200));
            let which = rng.below(3) as usize;
            if which < 2 {
                let (src, dst) = pairs[which];
                let bytes = rng.below(20_000);
                let arrival = net.transfer(src, dst, bytes, now);
                assert!(
                    arrival >= last_arrival[which],
                    "seed {seed} op {i}: pair {which} reordered ({} < {})",
                    arrival,
                    last_arrival[which]
                );
                last_arrival[which] = arrival;
            } else {
                // Contending traffic on the relay's second hop (1 -> 2).
                let _ = net.transfer(ProcId(8 + rng.below(8) as usize), ProcId(17), 5_000, now);
            }
        }
        let busy: Vec<(usize, usize)> = net
            .stats()
            .wan_busy
            .iter()
            .map(|&(a, b, _)| (a, b))
            .collect();
        assert!(
            busy.contains(&(0, 1)) && busy.contains(&(1, 2)),
            "seed {seed}: relayed traffic must book both ring hops, got {busy:?}"
        );
        assert!(
            !busy.contains(&(0, 2)),
            "seed {seed}: the ring has no direct 0 -> 2 link, got {busy:?}"
        );
    }
}

/// The fully connected default reproduces the legacy single-hop timings
/// bit-for-bit: a spec that never mentions `WanTopology` and one that sets
/// `FullMesh` explicitly time identical randomized workloads identically,
/// and on two clusters — where ring, line, and mesh all degenerate to the
/// same single link — every shape agrees with the mesh exactly.
#[test]
fn full_mesh_reproduces_single_hop_timings_bit_for_bit() {
    let workload = |spec: TwoLayerSpec, nprocs: u64, seed: u64| {
        let mut net = spec.build();
        let mut rng = Rng::new(seed ^ 0xFACE);
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..500 {
            now += SimDuration::from_micros(rng.below(150));
            let src = ProcId(rng.below(nprocs) as usize);
            let dst = ProcId(rng.below(nprocs) as usize);
            out.push(net.transfer(src, dst, rng.below(30_000), now).as_nanos());
        }
        out
    };
    for seed in 1..=6u64 {
        assert_eq!(
            workload(wan_spec(0.3), 32, seed),
            workload(wan_spec(0.3).wan_topology(WanTopology::FullMesh), 32, seed),
            "seed {seed}: explicit FullMesh must be bit-identical to the default"
        );
        let two =
            || TwoLayerSpec::new(Topology::symmetric(2, 4)).inter(LinkParams::wide_area(2.0, 1.5));
        let mesh = workload(two(), 8, seed);
        for shape in [
            WanTopology::Ring,
            WanTopology::Line,
            WanTopology::Star { hub: 0 },
        ] {
            assert_eq!(
                workload(two().wan_topology(shape), 8, seed),
                mesh,
                "seed {seed}: {} on 2 clusters must match the mesh exactly",
                shape.label()
            );
        }
    }
}

/// Schedule curves respect their own bounds at every instant and shape:
/// the latency multiplier stays within `[1, peak]`, the bandwidth
/// multiplier within `[floor, 1]`, the diurnal wave is exactly periodic,
/// and drift degradation is monotone until its horizon.
#[test]
fn schedule_factors_stay_bounded_periodic_and_monotone() {
    let period = SimDuration::from_millis(2);
    let diurnal = LinkSchedule::diurnal(11, period)
        .latency_factor(5.0)
        .bandwidth_factor(0.1);
    let drift = LinkSchedule::drift(11, SimTime::from_nanos(20_000_000)).latency_factor(2.5);
    let mut rng = Rng::new(0x5C4E);
    for _ in 0..2_000 {
        let a = rng.below(32) as usize;
        let b = rng.below(32) as usize;
        let at = SimTime::from_nanos(rng.below(50_000_000));
        for s in [&diurnal, &drift] {
            let (lat, bw) = s.factors_permille(a, b, at);
            assert!(
                (1000..=s.peak_latency_permille).contains(&lat),
                "latency factor {lat} outside [1000, {}]",
                s.peak_latency_permille
            );
            assert!(
                (s.floor_bandwidth_permille..=1000).contains(&bw),
                "bandwidth factor {bw} outside [{}, 1000]",
                s.floor_bandwidth_permille
            );
        }
        assert_eq!(
            diurnal.factors_permille(a, b, at),
            diurnal.factors_permille(a, b, at + period),
            "diurnal wave must repeat exactly every period"
        );
        let later = at + SimDuration::from_nanos(1 + rng.below(1_000_000));
        assert!(
            drift.degradation_permille(a, b, later) >= drift.degradation_permille(a, b, at),
            "drift degradation must be monotone"
        );
    }
}

/// Every wide-area wiring that fits four clusters, parameters up to 4.
fn shapes_at_four_clusters() -> Vec<WanTopology> {
    let mut shapes = vec![WanTopology::FullMesh, WanTopology::Ring, WanTopology::Line];
    for k in 1..=4 {
        shapes.push(WanTopology::Star { hub: k - 1 });
        shapes.push(WanTopology::FatTree { pod: k });
        shapes.push(WanTopology::Dragonfly { groups: k });
        for j in 1..=4 {
            shapes.push(WanTopology::Torus2d { x: k, y: j });
            for z in 1..=4 {
                shapes.push(WanTopology::Torus3d { x: k, y: j, z });
            }
        }
    }
    shapes.retain(|shape| shape.validate(4).is_ok());
    shapes
}

/// The itemization is what `transfer` charges an idle machine: on a fresh
/// network, for every ordered rank pair of a 4x2 machine on every wiring
/// that fits it, the arrival is the sender's free instant plus the LAN legs,
/// the gateways, and one latency and one serialization per WAN hop of the
/// pair's route.
#[test]
fn an_idle_transfer_costs_exactly_its_itemization() {
    let shapes = shapes_at_four_clusters();
    assert_eq!(shapes.len(), 13, "{shapes:?}");
    let now = SimTime::from_nanos(1_234_567);
    for shape in shapes {
        let spec = TwoLayerSpec::new(Topology::symmetric(4, 2))
            .inter(LinkParams::wide_area(2.0, 1.5))
            .wan_topology(shape);
        for (src, dst) in (0..8).flat_map(|s| (0..8).map(move |d| (ProcId(s), ProcId(d)))) {
            for bytes in [0, 936, 70_000] {
                let mut net = TwoLayerNetwork::new(spec.clone());
                let cost = net.idle_cost(src, dst, bytes);
                let arrival = net.transfer(src, dst, bytes, now);
                let (cs, cd) = (src.0 / 2, dst.0 / 2);
                let hops = if cs == cd {
                    0
                } else {
                    shape.hops(cs, cd, 4) as u64
                };
                let wan = (spec.inter.latency + spec.inter.tx_time(cost.wire_size)) * hops;
                let at = format!("{} {src:?} -> {dst:?}, {bytes} bytes", shape.label());
                assert_eq!(cost.wan_hops, hops, "{at}");
                assert_eq!(cost.wan_latency + cost.wan_tx, wan, "{at}");
                assert_eq!(net.send_overhead(), cost.send_overhead, "{at}");
                assert_eq!(
                    arrival,
                    now + net.send_overhead() + cost.lan + cost.gateway + wan,
                    "{at}"
                );
                assert_eq!(arrival, now + cost.total(), "{at}");
            }
        }
    }
}

/// Contention only delays: seeded booking streams, with departures drawn in
/// any order (the kernel books in departure order, a special case), never
/// deliver a message before its departure plus its idle cost, on any wiring
/// that fits four clusters. No jitter (which may shorten a hop's latency),
/// cross-traffic or schedule is installed.
#[test]
fn contention_never_beats_the_idle_cost() {
    for shape in shapes_at_four_clusters() {
        for seed in 1..=4u64 {
            let mut rng = Rng::new(seed ^ 0x1D1E);
            let mut net = wan_spec(0.0).wan_topology(shape).build();
            let mut delayed = 0;
            for i in 0..300 {
                let now = SimTime::from_nanos(rng.below(40_000_000));
                let src = ProcId(rng.below(32) as usize);
                let dst = ProcId(rng.below(32) as usize);
                let bytes = rng.below(20_000);
                let idle = net.idle_cost(src, dst, bytes).total();
                let arrival = net.transfer(src, dst, bytes, now);
                assert!(
                    arrival >= now + idle,
                    "{} seed {seed} op {i}: arrival {arrival} beats departure {now} + idle {idle}",
                    shape.label()
                );
                delayed += usize::from(arrival > now + idle);
            }
            assert!(
                delayed > 0,
                "{} seed {seed}: nothing contended",
                shape.label()
            );
        }
    }
}
