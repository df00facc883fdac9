//! Property-based tests (proptest) over the simulation substrate and the
//! application kernels.

use proptest::prelude::*;

use twolayer::net::{das_spec, LinkParams, Topology, TwoLayerSpec};
use twolayer::rt::Machine;
use twolayer::sim::{Network, ProcId, SimDuration, SimTime, Tag};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Transfers never go backwards in time: the sender is free no earlier
    /// than departure, and the message arrives no earlier than that.
    #[test]
    fn transfer_times_are_causal(
        srcs in prop::collection::vec(0usize..12, 1..40),
        dsts in prop::collection::vec(0usize..12, 1..40),
        sizes in prop::collection::vec(1u64..100_000, 1..40),
        gaps in prop::collection::vec(0u64..10_000_000, 1..40),
    ) {
        let spec = das_spec(3, 4, 5.0, 0.5);
        let mut net = twolayer::net::TwoLayerNetwork::new(spec);
        let mut now = SimTime::ZERO;
        let n = srcs.len().min(dsts.len()).min(sizes.len()).min(gaps.len());
        for i in 0..n {
            now += SimDuration::from_nanos(gaps[i]);
            let sender_free = now + net.send_overhead();
            let arrival = net.transfer(ProcId(srcs[i]), ProcId(dsts[i]), sizes[i], now);
            prop_assert!(sender_free >= now);
            prop_assert!(arrival >= sender_free);
        }
    }

    /// Per (src, dst) pair the network is FIFO: a later send never arrives
    /// before an earlier one.
    #[test]
    fn same_pair_delivery_is_fifo(
        sizes in prop::collection::vec(1u64..50_000, 2..30),
        gaps in prop::collection::vec(0u64..5_000_000, 2..30),
    ) {
        let spec = das_spec(2, 2, 10.0, 0.2);
        let mut net = twolayer::net::TwoLayerNetwork::new(spec);
        let mut now = SimTime::ZERO;
        let mut last_arrival = SimTime::ZERO;
        let n = sizes.len().min(gaps.len());
        for i in 0..n {
            now += SimDuration::from_nanos(gaps[i]);
            let arrival = net.transfer(ProcId(0), ProcId(3), sizes[i], now);
            prop_assert!(
                arrival >= last_arrival,
                "message {i} overtook its predecessor"
            );
            last_arrival = arrival;
        }
    }

    /// Bigger messages never arrive earlier, all else equal.
    #[test]
    fn arrival_is_monotone_in_size(size in 1u64..1_000_000, extra in 1u64..1_000_000) {
        let mk = || twolayer::net::TwoLayerNetwork::new(das_spec(2, 2, 3.0, 1.0));
        let a = mk().transfer(ProcId(0), ProcId(2), size, SimTime::ZERO);
        let b = mk().transfer(ProcId(0), ProcId(2), size + extra, SimTime::ZERO);
        prop_assert!(b >= a);
    }

    /// A slower WAN link never makes an inter-cluster message arrive sooner.
    #[test]
    fn arrival_is_monotone_in_bandwidth(bw_num in 1u32..100, size in 1u64..200_000) {
        let bw_fast = bw_num as f64 / 10.0 + 0.05;
        let bw_slow = bw_fast / 2.0;
        let mk = |bw: f64| {
            TwoLayerSpec::new(Topology::symmetric(2, 2))
                .inter(LinkParams::wide_area(5.0, bw))
                .build()
        };
        let fast = mk(bw_fast).transfer(ProcId(0), ProcId(2), size, SimTime::ZERO);
        let slow = mk(bw_slow).transfer(ProcId(0), ProcId(2), size, SimTime::ZERO);
        prop_assert!(slow >= fast);
    }

    /// Messages between arbitrary rank pairs are delivered with intact
    /// payloads and the declared wire size, whatever the topology.
    #[test]
    fn random_topology_point_to_point(
        sizes in prop::collection::vec(1usize..5, 1..5),
        payload in prop::collection::vec(any::<u64>(), 1..20),
    ) {
        let topo = Topology::new(&sizes);
        let p = topo.nprocs();
        let machine = Machine::new(TwoLayerSpec::new(topo));
        let expected = payload.clone();
        let report = machine.run(move |ctx| {
            let tag = Tag::app(9);
            if ctx.rank() == 0 && p > 1 {
                ctx.send(p - 1, tag, payload.clone(), payload.len() as u64 * 8);
            }
            if ctx.rank() == p - 1 && p > 1 {
                return ctx.recv_tag(tag).expect_clone::<Vec<u64>>();
            }
            Vec::new()
        }).unwrap();
        if p > 1 {
            prop_assert_eq!(&report.results[p - 1], &expected);
        }
    }

    /// Floyd-Warshall equals Bellman-Ford per source on random graphs.
    #[test]
    fn asp_matches_bellman_ford(seed in any::<u64>(), n in 4usize..14) {
        use twolayer::apps::asp::{serial_asp, AspConfig, INF};
        let cfg = AspConfig { n, seed, edge_prob: 0.4, cell_ns: 1.0, skip_sequencer: false };
        let adj = cfg.generate();
        let fw = serial_asp(&cfg);
        for s in 0..n {
            let mut dist = vec![INF; n];
            dist[s] = 0;
            for _ in 0..n {
                for u in 0..n {
                    if dist[u] >= INF { continue; }
                    for v in 0..n {
                        if adj[u][v] < INF && dist[u] + adj[u][v] < dist[v] {
                            dist[v] = dist[u] + adj[u][v];
                        }
                    }
                }
            }
            for v in 0..n {
                prop_assert_eq!(fw[s][v].min(INF), dist[v].min(INF));
            }
        }
    }

    /// The distributed FFT's serial kernel inverts: FFT then inverse-DFT
    /// recovers the signal.
    #[test]
    fn fft_round_trips(seed in any::<u64>()) {
        use twolayer::apps::fft::{fft_in_place, Cpx};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 64usize;
        let x: Vec<Cpx> = (0..n).map(|_| Cpx::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect();
        let mut f = x.clone();
        fft_in_place(&mut f);
        // Inverse via conjugate trick.
        let mut g: Vec<Cpx> = f.iter().map(|c| Cpx::new(c.re, -c.im)).collect();
        fft_in_place(&mut g);
        for (orig, back) in x.iter().zip(&g) {
            let re = back.re / n as f64;
            let im = -back.im / n as f64;
            prop_assert!((re - orig.re).abs() < 1e-9);
            prop_assert!((im - orig.im).abs() < 1e-9);
        }
    }

    /// TSP branch-and-bound with the NN cutoff finds the brute-force
    /// optimum on random instances.
    #[test]
    fn tsp_finds_optimum(seed in any::<u64>()) {
        use twolayer::apps::tsp::{serial_tsp, TspConfig};
        let cfg = TspConfig { n_cities: 7, seed, prefix_depth: 3, node_ns: 1.0, poll_chunk: 64 };
        let dist = cfg.generate();
        let (best, _) = serial_tsp(&cfg);
        // brute force
        let n = dist.len();
        let mut perm: Vec<u8> = (1..n as u8).collect();
        let mut optimal = u32::MAX;
        permute(&mut perm, 0, &mut |p| {
            let mut len = 0;
            let mut at = 0usize;
            for &c in p {
                len += dist[at][c as usize];
                at = c as usize;
            }
            len += dist[at][0];
            optimal = optimal.min(len);
        });
        prop_assert_eq!(best, optimal);
    }

    /// Awari's distributed fixpoint equals serial backward induction for
    /// arbitrary seeds and machine shapes.
    #[test]
    fn awari_fixpoint_matches_serial(seed in any::<u64>(), clusters in 1usize..4) {
        use twolayer::apps::awari::{awari_rank, serial_awari, AwariConfig};
        use twolayer::apps::{total_checksum, Variant};
        let cfg = AwariConfig {
            levels: 3,
            states_per_level: 40,
            seed,
            state_ns: 100.0,
            edge_ns: 10.0,
            combine: 4,
        };
        let expected = serial_awari(&cfg);
        let machine = Machine::new(das_spec(clusters, 2, 1.0, 1.0));
        let cfg2 = cfg.clone();
        let report = machine.run(move |ctx| awari_rank(ctx, &cfg2, Variant::Optimized)).unwrap();
        let got = total_checksum(&report.results);
        prop_assert!((got - expected).abs() < 1e-9);
    }
}

fn permute(v: &mut Vec<u8>, k: usize, f: &mut impl FnMut(&[u8])) {
    if k == v.len() {
        f(v);
        return;
    }
    for i in k..v.len() {
        v.swap(k, i);
        permute(v, k + 1, f);
        v.swap(k, i);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `WanTopology::route`/`hops` over every topology family and cluster
    /// count: routes connect the endpoints, visit no node twice
    /// (cycle-free), stay in range, and hop counts are symmetric and within
    /// each family's diameter.
    #[test]
    fn wan_routes_are_sound(
        kind in 0usize..7,
        nclusters in 2usize..10,
        hub_raw in 0usize..64,
        a_raw in 0usize..64,
        b_raw in 0usize..64,
    ) {
        use twolayer::net::WanTopology;
        let hub = hub_raw % nclusters;
        // Shapes with a size constraint fall back to Ring when the drawn
        // cluster count cannot satisfy it.
        let topo = match kind {
            0 => WanTopology::FullMesh,
            1 => WanTopology::Star { hub },
            2 => WanTopology::Line,
            3 => WanTopology::FatTree { pod: 2 + hub_raw % (nclusters - 1).max(1) },
            4 => {
                let groups = (2..=nclusters).find(|g| nclusters % g == 0);
                match groups {
                    Some(g) => WanTopology::Dragonfly { groups: g },
                    None => WanTopology::Ring,
                }
            }
            5 if nclusters % 2 == 0 && nclusters >= 4 => {
                WanTopology::Torus2d { x: 2, y: nclusters / 2 }
            }
            _ => WanTopology::Ring,
        };
        prop_assert!(topo.validate(nclusters).is_ok(), "generator must yield valid shapes");
        let a = a_raw % nclusters;
        let b = b_raw % nclusters;
        if a != b {
            let nnodes = topo.nnodes(nclusters);
            let route = topo.route(a, b, nclusters);
            prop_assert_eq!(route[0], a, "route must start at the source");
            prop_assert_eq!(*route.last().unwrap(), b, "route must end at the destination");
            prop_assert!(route.iter().all(|&c| c < nnodes), "routing node out of range");
            let mut seen = route.clone();
            seen.sort_unstable();
            seen.dedup();
            prop_assert_eq!(seen.len(), route.len(), "route revisits a node: {:?}", route);
            prop_assert_eq!(topo.hops(a, b, nclusters), route.len() - 1);
            prop_assert_eq!(
                topo.hops(a, b, nclusters),
                topo.hops(b, a, nclusters),
                "hop counts must be symmetric"
            );
            let diameter = match topo {
                WanTopology::FullMesh => 1,
                WanTopology::Star { .. } => 2,
                WanTopology::Ring => nclusters / 2,
                WanTopology::Line => nclusters - 1,
                WanTopology::Torus2d { x, y } => x / 2 + y / 2,
                WanTopology::Torus3d { x, y, z } => x / 2 + y / 2 + z / 2,
                WanTopology::FatTree { .. } => 4,
                WanTopology::Dragonfly { .. } => 3,
            };
            prop_assert!(route.len() > 1, "distinct clusters need at least one hop");
            prop_assert!(
                route.len() - 1 <= diameter,
                "{}-cluster {} route {:?} exceeds diameter {}",
                nclusters, topo.label(), route, diameter
            );
        }
    }
}

/// Exhaustive companion to `wan_routes_are_sound` on small machines: every
/// mesh, star and ring route from 2 to 7 clusters is anchored at its
/// endpoints, revisits no cluster, and a ring takes the shorter way round.
#[test]
fn wan_routes_are_well_formed() {
    use twolayer::net::WanTopology;
    for n in 2..8usize {
        for topology in [
            WanTopology::FullMesh,
            WanTopology::Star { hub: n / 2 },
            WanTopology::Ring,
        ] {
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    let route = topology.route(a, b, n);
                    assert_eq!(route.first(), Some(&a));
                    assert_eq!(route.last(), Some(&b));
                    assert!(route.len() >= 2);
                    // No repeated clusters on the path.
                    let mut dedup = route.clone();
                    dedup.sort_unstable();
                    dedup.dedup();
                    assert_eq!(dedup.len(), route.len(), "{topology:?} {a}->{b}");
                    // Ring routes take the shorter way: at most n/2 hops.
                    if topology == WanTopology::Ring {
                        assert!(route.len() - 1 <= n / 2 + n % 2);
                    }
                }
            }
        }
    }
}
