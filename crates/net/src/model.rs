//! The two-layer interconnect cost model.
//!
//! Intra-cluster messages traverse the sender's NIC and the receiver's NIC
//! (Myrinet-class parameters); inter-cluster messages additionally pass
//! through the local gateway, the FIFO wide-area links of the route (one
//! dedicated link per cluster pair on the default full mesh, as in the
//! DAS), every gateway or switch the route relays through, and the remote
//! gateway — store-and-forward, exactly the structure whose cost the paper
//! varies.
//!
//! This is the one place that says what a message costs.
//! [`TwoLayerNetwork::transfer`] books it against the links' current
//! occupancy; [`TwoLayerNetwork::idle_cost`] itemizes what the same path
//! costs on an idle machine — the terms the critical-path split and the
//! analytic bound read, so neither derives the path again.

use numagap_sim::{Network, ProcId, SimDuration, SimTime};

use crate::floor::PairFloors;
use crate::link::{LinkParams, LinkState};
use crate::topology::Topology;
use crate::wan::{RouteTable, WanTopology};

/// Full parameterization of a two-layer machine.
///
/// # Examples
///
/// ```
/// use numagap_net::{TwoLayerSpec, Topology, LinkParams};
///
/// let spec = TwoLayerSpec::new(Topology::symmetric(4, 8))
///     .inter(LinkParams::wide_area(10.0, 1.0));
/// assert_eq!(spec.topology.nprocs(), 32);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TwoLayerSpec {
    /// Cluster layout.
    pub topology: Topology,
    /// Intra-cluster link class (default: Myrinet, 20 µs / 50 MByte/s).
    pub intra: LinkParams,
    /// Inter-cluster link class (default: local ATM ceiling, 0.28 ms /
    /// 14 MByte/s — the fastest setting the paper's OC3 hardware allowed).
    pub inter: LinkParams,
    /// Per-message header/framing bytes added to every declared wire size.
    pub header_bytes: u64,
    /// Sender-side software overhead per message.
    pub send_overhead: SimDuration,
    /// Receiver-side software overhead per message.
    pub recv_overhead: SimDuration,
    /// Store-and-forward processing at each gateway an inter-cluster message
    /// crosses (two per message). This is *occupancy*, not just latency: each
    /// gateway's CPU is a FIFO resource, so it caps the per-cluster wide-area
    /// message rate — the DAS gateways' TCP stacks behaved exactly this way,
    /// and it is why message combining pays off.
    pub gateway_overhead: SimDuration,
    /// Deterministic per-message wide-area latency variation, as a fraction
    /// in `[0, 1)`: each inter-cluster message's WAN latency is scaled by a
    /// pseudo-random factor in `[1 - jitter, 1 + jitter]` derived from a
    /// message counter. `0.0` (the default) reproduces the paper's fixed
    /// delay loops; non-zero values explore the paper's "further research"
    /// question about the impact of latency variation on wide-area links.
    pub wan_latency_jitter: f64,
    /// How the cluster gateways are wired (default: the DAS's full mesh).
    /// Every other shape — star, ring, line, torus, fat tree, dragonfly —
    /// routes messages over multiple wide-area hops through intermediate
    /// gateways or switches — the paper's "less perfect" future topologies.
    pub wan_topology: WanTopology,
}

impl TwoLayerSpec {
    /// A spec with paper-calibrated defaults for everything but the topology.
    pub fn new(topology: Topology) -> Self {
        TwoLayerSpec {
            topology,
            intra: LinkParams::myrinet(),
            inter: LinkParams::wide_area(0.28, 14.0),
            header_bytes: 64,
            send_overhead: SimDuration::from_micros(5),
            recv_overhead: SimDuration::from_micros(5),
            gateway_overhead: SimDuration::from_micros(60),
            wan_latency_jitter: 0.0,
            wan_topology: WanTopology::FullMesh,
        }
    }

    /// Sets the wide-area wiring (see [`WanTopology`] for the shapes).
    pub fn wan_topology(mut self, topology: WanTopology) -> Self {
        self.wan_topology = topology;
        self
    }

    /// Sets the deterministic wide-area latency jitter fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= jitter < 1.0`.
    pub fn wan_latency_jitter(mut self, jitter: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&jitter),
            "jitter fraction must be in [0, 1), got {jitter}"
        );
        self.wan_latency_jitter = jitter;
        self
    }

    /// Sets the inter-cluster link class.
    pub fn inter(mut self, params: LinkParams) -> Self {
        self.inter = params;
        self
    }

    /// Builds the stateful network model.
    pub fn build(self) -> TwoLayerNetwork {
        TwoLayerNetwork::new(self)
    }
}

/// Aggregate traffic statistics of a finished run.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Intra-cluster messages.
    pub intra_msgs: u64,
    /// Intra-cluster payload bytes (sender-declared, headers excluded).
    pub intra_payload_bytes: u64,
    /// Inter-cluster messages.
    pub inter_msgs: u64,
    /// Inter-cluster payload bytes.
    pub inter_payload_bytes: u64,
    /// Inter-cluster wire bytes (headers included).
    pub inter_wire_bytes: u64,
    /// Outgoing inter-cluster messages per source cluster.
    pub inter_msgs_out: Vec<u64>,
    /// Outgoing inter-cluster payload bytes per source cluster.
    pub inter_bytes_out: Vec<u64>,
    /// Busy time per ordered WAN link `(from_node, to_node, busy)`. Nodes
    /// are cluster gateways, or virtual switch ids `>= nclusters` on a fat
    /// tree.
    pub wan_busy: Vec<(usize, usize, SimDuration)>,
}

impl NetStats {
    /// Total payload bytes on any layer.
    pub fn total_payload_bytes(&self) -> u64 {
        self.intra_payload_bytes + self.inter_payload_bytes
    }

    /// Total messages on any layer.
    pub fn total_msgs(&self) -> u64 {
        self.intra_msgs + self.inter_msgs
    }
}

/// What one message costs on an idle machine, term by term: the fixed
/// two-layer path LAN, gateway, WAN hop(s), gateway, LAN, with no other
/// traffic on any link or gateway. Built by [`TwoLayerNetwork::idle_cost`].
///
/// Without latency jitter, a message that finds every resource free
/// arrives at its departure plus [`IdleCost::total`], and contention only
/// ever delays it beyond that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdleCost {
    /// Sender-side software overhead.
    pub send_overhead: SimDuration,
    /// LAN legs, latency plus serialization each: none for a loopback
    /// message, one within a cluster, two across clusters (sender to its
    /// gateway, destination gateway to receiver).
    pub lan: SimDuration,
    /// Store-and-forward occupancy of every gateway and switch crossed:
    /// `wan_hops + 1` of them across clusters, none within one.
    pub gateway: SimDuration,
    /// Wide-area propagation latency, `wan_hops` times the link's.
    pub wan_latency: SimDuration,
    /// Wide-area serialization of `wire_size` bytes, `wan_hops` times.
    pub wan_tx: SimDuration,
    /// Wide-area links on the route (zero within a cluster).
    pub wan_hops: u64,
    /// Bytes on the wire: the declared size plus the header.
    pub wire_size: u64,
}

impl IdleCost {
    /// The whole idle cost, departure to arrival.
    pub fn total(&self) -> SimDuration {
        self.send_overhead + self.lan + self.gateway + self.wan_latency + self.wan_tx
    }
}

/// Stateful two-layer network; implements [`Network`].
///
/// The spec, the routing-node count and the route table describe the
/// machine; everything a run books or counts is in one `RunState`, which
/// [`TwoLayerNetwork::reset`] puts back as [`TwoLayerNetwork::new`] left it.
#[derive(Debug)]
pub struct TwoLayerNetwork {
    spec: TwoLayerSpec,
    /// Routing nodes, `spec.wan_topology.nnodes(nclusters)`: the stride of
    /// every vector indexed by ordered node pair.
    nnodes: usize,
    routes: RouteTable,
    run: RunState,
}

/// What a run mutates: link occupancy, ordering floors, the jitter counter
/// and traffic statistics.
#[derive(Debug, Default)]
struct RunState {
    out_nic: Vec<LinkState>,
    in_nic: Vec<LinkState>,
    gw_lan_in: Vec<LinkState>,
    gw_lan_out: Vec<LinkState>,
    /// Per-routing-node store-and-forward CPU (processes every message
    /// crossing it, both ways). Nodes `0..nclusters` are the cluster
    /// gateways; a fat tree appends its virtual switches.
    gw_cpu: Vec<LinkState>,
    /// One independent FIFO link per directed node pair the topology can
    /// route over, indexed `from_node * nnodes + to_node`; diagonal unused.
    wan: Vec<LinkState>,
    /// Last arrival per ordered `(src, dst)` pair that has communicated:
    /// the per-pair FIFO delivery rule.
    pair_floor: PairFloors,
    /// Counter feeding the deterministic latency-jitter hash.
    jitter_seq: u64,
    stats: NetStats,
}

/// `v` as `len` copies of `zero`, in the allocation it already has.
fn refill<T: Clone>(v: &mut Vec<T>, len: usize, zero: T) {
    v.clear();
    v.resize(len, zero);
}

impl RunState {
    /// The state of a machine of `nprocs` ranks, `nclusters` clusters and
    /// `nnodes` routing nodes on which nothing has happened yet, written
    /// into whatever allocations `self` holds. Building a network runs this
    /// on an empty state and resetting one runs it on a used state, so the
    /// two cannot come to disagree.
    fn clear(&mut self, nprocs: usize, nclusters: usize, nnodes: usize) {
        // Exhaustive: a field added later does not compile until it is
        // given its initial value here.
        let RunState {
            out_nic,
            in_nic,
            gw_lan_in,
            gw_lan_out,
            gw_cpu,
            wan,
            pair_floor,
            jitter_seq,
            stats,
        } = self;
        // Each link keeps its interval list's capacity, which `refill`
        // would drop along with the link.
        for (links, len) in [
            (out_nic, nprocs),
            (in_nic, nprocs),
            (gw_lan_in, nclusters),
            (gw_lan_out, nclusters),
            (gw_cpu, nnodes),
            (wan, nnodes * nnodes),
        ] {
            links.iter_mut().for_each(LinkState::clear);
            links.resize_with(len, LinkState::default);
        }
        pair_floor.reset(nprocs);
        *jitter_seq = 0;
        // Every counter back to zero; the two per-cluster vectors keep
        // their allocations.
        *stats = NetStats {
            inter_msgs_out: std::mem::take(&mut stats.inter_msgs_out),
            inter_bytes_out: std::mem::take(&mut stats.inter_bytes_out),
            ..NetStats::default()
        };
        refill(&mut stats.inter_msgs_out, nclusters, 0);
        refill(&mut stats.inter_bytes_out, nclusters, 0);
    }
}

/// splitmix64 finalizer — the deterministic jitter hash.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// One LAN hop: serialize out of `out` for `tx` (the intra-cluster link's
/// serialization time of `size` bytes), traverse `latency`, then occupy
/// `in_`. Returns delivery completion time. Uncontended cost: `tx + latency`.
fn lan_hop(
    out: &mut LinkState,
    in_: &mut LinkState,
    (latency, tx): (SimDuration, SimDuration),
    size: u64,
    ready: SimTime,
) -> SimTime {
    let start = out.acquire(ready, tx, size);
    let rcv_start = in_.acquire(start + latency, tx, size);
    rcv_start + tx
}

impl TwoLayerNetwork {
    /// Builds the network from a spec.
    ///
    /// # Panics
    ///
    /// Panics when the wide-area topology does not fit the cluster count
    /// (see [`WanTopology::validate`]).
    pub fn new(spec: TwoLayerSpec) -> Self {
        let n = spec.topology.nprocs();
        let c = spec.topology.nclusters();
        if let Err(e) = spec.wan_topology.validate(c) {
            panic!("invalid wan topology: {e}");
        }
        // Routing nodes: the cluster gateways plus any virtual switches the
        // topology introduces. On the default full mesh nn == c, so every
        // resource vector is sized exactly as before.
        let nnodes = spec.wan_topology.nnodes(c);
        let mut run = RunState::default();
        run.clear(n, c, nnodes);
        TwoLayerNetwork {
            routes: RouteTable::new(spec.wan_topology, c),
            nnodes,
            run,
            spec,
        }
    }

    /// The spec this network was built from.
    pub fn spec(&self) -> &TwoLayerSpec {
        &self.spec
    }

    /// Makes this the network `TwoLayerNetwork::new` would build from the
    /// same spec with `inter` as its inter-cluster link class, without
    /// building it: every booking, floor, the jitter counter and every
    /// statistic are back at their initial values, in the allocations already
    /// held (interval lists keep their capacity). Routes stay resolved — the
    /// wiring and the cluster count, which are all a route depends on, do
    /// not change.
    ///
    /// This is how a what-if sweep re-costs one machine at many
    /// `(latency, bandwidth)` points: only the wide-area link class varies
    /// from point to point, so only it is a parameter.
    pub fn reset(&mut self, inter: LinkParams) {
        // Exhaustive: a field added later has to be sorted into "describes
        // the machine" or "restored by `RunState::clear`" to compile.
        let TwoLayerNetwork {
            spec,
            nnodes,
            routes: _,
            run,
        } = self;
        spec.inter = inter;
        run.clear(spec.topology.nprocs(), spec.topology.nclusters(), *nnodes);
    }

    /// A snapshot of the traffic statistics (WAN busy times included).
    pub fn stats(&self) -> NetStats {
        let mut s = self.run.stats.clone();
        let nn = self.nnodes;
        for a in 0..nn {
            for b in 0..nn {
                let link = &self.run.wan[a * nn + b];
                if a != b && link.msgs > 0 {
                    s.wan_busy.push((a, b, link.busy));
                }
            }
        }
        s
    }

    /// What a `wire_bytes`-byte message from `src` to `dst` costs on this
    /// machine when no other traffic is in its way (see [`IdleCost`]). The
    /// wide-area hops are those of the route [`TwoLayerNetwork::transfer`]
    /// books, resolved through the same table (on the pair's first use,
    /// hence `&mut`); no link state is touched.
    pub fn idle_cost(&mut self, src: ProcId, dst: ProcId, wire_bytes: u64) -> IdleCost {
        let spec = &self.spec;
        let wire_size = wire_bytes + spec.header_bytes;
        let cs = spec.topology.cluster_of(src);
        let cd = spec.topology.cluster_of(dst);
        let (lan_legs, wan_hops, gateways) = if src == dst {
            (0, 0, 0)
        } else if cs == cd {
            (1, 0, 0)
        } else {
            let hops = (self.routes.resolve(cs, cd).len() - 1) as u64;
            (2, hops, hops + 1)
        };
        IdleCost {
            send_overhead: spec.send_overhead,
            lan: (spec.intra.latency + spec.intra.tx_time(wire_size)) * lan_legs,
            gateway: spec.gateway_overhead * gateways,
            wan_latency: spec.inter.latency * wan_hops,
            wan_tx: spec.inter.tx_time(wire_size) * wan_hops,
            wan_hops,
            wire_size,
        }
    }
}

impl Network for TwoLayerNetwork {
    fn send_overhead(&self) -> SimDuration {
        self.spec.send_overhead
    }

    fn transfer(&mut self, src: ProcId, dst: ProcId, wire_bytes: u64, now: SimTime) -> SimTime {
        let ready = now + self.spec.send_overhead;
        let spec = &self.spec;
        let run = &mut self.run;
        let size = wire_bytes + spec.header_bytes;
        let cs = spec.topology.cluster_of(src);
        let cd = spec.topology.cluster_of(dst);
        let arrival = if cs == cd {
            run.stats.intra_msgs += 1;
            run.stats.intra_payload_bytes += wire_bytes;
            if src == dst {
                // Loopback: no NIC traversal, just the software overheads.
                ready
            } else {
                let lan = (spec.intra.latency, spec.intra.tx_time(size));
                lan_hop(
                    &mut run.out_nic[src.0],
                    &mut run.in_nic[dst.0],
                    lan,
                    size,
                    ready,
                )
            }
        } else {
            run.stats.inter_msgs += 1;
            run.stats.inter_payload_bytes += wire_bytes;
            run.stats.inter_wire_bytes += size;
            run.stats.inter_msgs_out[cs] += 1;
            run.stats.inter_bytes_out[cs] += wire_bytes;
            // Both LAN hops serialize the same bytes on the same link class.
            let lan = (spec.intra.latency, spec.intra.tx_time(size));
            // Hop 1: sender to local gateway over the LAN.
            let mut at = lan_hop(
                &mut run.out_nic[src.0],
                &mut run.gw_lan_in[cs],
                lan,
                size,
                ready,
            );
            // Traverse the wide-area route (one hop on the full mesh, more
            // through a star hub, around a ring/torus, or up and down a fat
            // tree), one directed link at a time, in order: every node the
            // message touches charges its store-and-forward CPU (FIFO
            // resource: this throttles each cluster's wide-area message
            // rate), and every hop pays the link's serialization and
            // latency. Because the kernel flushes same-instant sends in
            // canonical order, each hop's booking is schedule-invariant.
            let occ = spec.gateway_overhead;
            let tx_wan = spec.inter.tx_time(size);
            for hop in self.routes.resolve(cs, cd).windows(2) {
                let (a, b) = (hop[0], hop[1]);
                let link = a * self.nnodes + b;
                let wan_ready = run.gw_cpu[a].acquire(at, occ, size) + occ;
                let wan_start = run.wan[link].acquire(wan_ready, tx_wan, size);
                let latency = if spec.wan_latency_jitter > 0.0 {
                    run.jitter_seq += 1;
                    let u = mix64(run.jitter_seq) as f64 / u64::MAX as f64; // [0, 1]
                    let factor = 1.0 + spec.wan_latency_jitter * (2.0 * u - 1.0);
                    SimDuration::from_nanos(
                        (spec.inter.latency.as_nanos() as f64 * factor).round() as u64
                    )
                } else {
                    spec.inter.latency
                };
                at = wan_start + tx_wan + latency;
            }
            // The destination gateway's CPU, then the receiver's LAN.
            let ready3 = run.gw_cpu[cd].acquire(at, occ, size) + occ;
            lan_hop(
                &mut run.gw_lan_out[cd],
                &mut run.in_nic[dst.0],
                lan,
                size,
                ready3,
            )
        };
        // Per-pair FIFO: never deliver before (or at the same instant as) an
        // earlier message of the same ordered pair.
        run.pair_floor.admit(src.0, dst.0, arrival)
    }

    #[inline]
    fn num_procs(&self) -> usize {
        self.spec.topology.nprocs()
    }

    #[inline]
    fn recv_overhead(&self) -> SimDuration {
        self.spec.recv_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_4x8() -> TwoLayerSpec {
        TwoLayerSpec::new(Topology::symmetric(4, 8)).inter(LinkParams::wide_area(10.0, 1.0))
    }

    #[test]
    fn intra_message_cost_is_latency_plus_tx() {
        let mut net = spec_4x8().build();
        let t = net.transfer(ProcId(0), ProcId(1), 936, SimTime::ZERO);
        // size = 936 + 64 = 1000 bytes at 50 MB/s = 20 us tx; + 20 us latency
        // + 5 us send overhead.
        let expected = SimDuration::from_micros(5 + 20 + 20);
        assert_eq!(t, SimTime::ZERO + expected);
        assert_eq!(net.send_overhead(), SimDuration::from_micros(5));
    }

    #[test]
    fn inter_message_pays_wan_latency_and_gateways() {
        let mut net = spec_4x8().build();
        let t = net.transfer(ProcId(0), ProcId(8), 936, SimTime::ZERO);
        // send overhead 5us
        // LAN hop: 20us tx + 20us lat = 40us
        // gateway CPU 60us, WAN: 1000 bytes at 1 MB/s = 1000us tx + 10ms lat
        // gateway CPU 60us, LAN hop 40us
        let expected_us = 5 + 40 + 60 + 1000 + 10_000 + 60 + 40;
        assert_eq!(t, SimTime::ZERO + SimDuration::from_micros(expected_us));
    }

    #[test]
    fn wan_link_contention_serializes() {
        let mut net = spec_4x8().build();
        let a = net.transfer(ProcId(0), ProcId(8), 10_000, SimTime::ZERO);
        let b = net.transfer(ProcId(1), ProcId(9), 10_000, SimTime::ZERO);
        // Both go over the same cluster0->cluster1 WAN link; the second one's
        // WAN serialization starts after the first finishes.
        assert!(b > a);
        let gap = b.since(a);
        // Roughly one WAN serialization time (10064 bytes at 1 MB/s ~ 10 ms).
        assert!(gap >= SimDuration::from_millis(9), "gap was {gap}");
    }

    #[test]
    fn distinct_wan_links_do_not_contend() {
        let mut net = spec_4x8().build();
        let a = net.transfer(ProcId(0), ProcId(8), 100_000, SimTime::ZERO);
        // Different destination cluster: separate link, near-identical timing
        // (only the shared sender NIC and gateway-in differ).
        let b = net.transfer(ProcId(1), ProcId(16), 100_000, SimTime::ZERO);
        let gap = b.saturating_since(a);
        assert!(
            gap < SimDuration::from_millis(5),
            "independent WAN links should not serialize each other, gap {gap}"
        );
    }

    #[test]
    fn sender_nic_contention_serializes_sends() {
        let mut net = TwoLayerSpec::new(Topology::uniform(4)).build();
        let a = net.transfer(ProcId(0), ProcId(1), 1_000_000, SimTime::ZERO);
        let b = net.transfer(ProcId(0), ProcId(2), 1_000_000, SimTime::ZERO);
        // 1 MB at 50 MB/s = 20 ms serialization each, shared out-NIC.
        assert!(b.since(a) >= SimDuration::from_millis(19));
    }

    #[test]
    fn loopback_is_cheap() {
        let mut net = spec_4x8().build();
        let t = net.transfer(ProcId(3), ProcId(3), 1_000_000, SimTime::ZERO);
        assert_eq!(t, SimTime::ZERO + SimDuration::from_micros(5));
    }

    #[test]
    fn stats_classify_layers() {
        let mut net = spec_4x8().build();
        net.transfer(ProcId(0), ProcId(1), 100, SimTime::ZERO);
        net.transfer(ProcId(0), ProcId(8), 200, SimTime::ZERO);
        net.transfer(ProcId(9), ProcId(0), 300, SimTime::ZERO);
        let s = net.stats();
        assert_eq!(s.intra_msgs, 1);
        assert_eq!(s.intra_payload_bytes, 100);
        assert_eq!(s.inter_msgs, 2);
        assert_eq!(s.inter_payload_bytes, 500);
        assert_eq!(s.inter_msgs_out, vec![1, 1, 0, 0]);
        assert_eq!(s.inter_bytes_out, vec![200, 300, 0, 0]);
        assert_eq!(s.wan_busy.len(), 2);
        assert_eq!(s.total_msgs(), 3);
        assert_eq!(s.total_payload_bytes(), 600);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let spec = || {
            TwoLayerSpec::new(Topology::symmetric(2, 2))
                .inter(LinkParams::wide_area(10.0, 100.0))
                .wan_latency_jitter(0.5)
        };
        let run = || {
            let mut net = spec().build();
            (0..50)
                .map(|i| {
                    net.transfer(ProcId(0), ProcId(2), 8, SimTime::from_nanos(i * 1_000_000))
                        .as_nanos()
                })
                .collect::<Vec<u64>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "jitter must be deterministic");
        // Latencies vary but stay within +-50% of 10ms (plus small fixed costs).
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() > 40, "jitter should actually vary");
    }

    #[test]
    fn zero_jitter_matches_fixed_latency() {
        let base = TwoLayerSpec::new(Topology::symmetric(2, 2));
        let jittered = base.clone().wan_latency_jitter(0.0);
        let a = base
            .build()
            .transfer(ProcId(0), ProcId(2), 100, SimTime::ZERO);
        let b = jittered
            .build()
            .transfer(ProcId(0), ProcId(2), 100, SimTime::ZERO);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "jitter fraction")]
    fn jitter_bounds_are_checked() {
        let _ = TwoLayerSpec::new(Topology::symmetric(2, 2)).wan_latency_jitter(1.5);
    }

    #[test]
    fn a_reset_network_is_the_network_new_would_build() {
        // Between them the specs move every piece of state a run mutates:
        // multi-hop routes through real and virtual nodes and the jitter
        // counter.
        let specs = [
            spec_4x8(),
            spec_4x8()
                .wan_topology(WanTopology::Ring)
                .wan_latency_jitter(0.3),
            spec_4x8().wan_topology(WanTopology::FatTree { pod: 2 }),
        ];
        // Sixty messages, most of them inter-cluster, several per pair. The
        // outcome is every arrival plus the network's whole state
        // afterwards, as `Debug` prints it.
        let drive = |net: &mut TwoLayerNetwork| {
            let mut seen = String::new();
            for i in 0..60u64 {
                let (src, dst) = (
                    ProcId((i * 5 % 32) as usize),
                    ProcId((i * 11 % 32) as usize),
                );
                let now = SimTime::from_nanos(i * 1_500_000);
                let t = net.transfer(src, dst, 200 + i * 997, now);
                seen.push_str(&format!("{t:?}\n"));
            }
            format!("{seen}{net:?}")
        };
        for spec in specs {
            let elsewhere = LinkParams::wide_area(3.0, 0.7);
            let mut fresh = TwoLayerNetwork::new(spec.clone().inter(elsewhere));
            let mut reused = TwoLayerNetwork::new(spec);
            drive(&mut reused);
            reused.reset(elsewhere);
            assert_eq!(drive(&mut reused), drive(&mut fresh));
        }
    }

    #[test]
    fn arrival_never_precedes_departure() {
        let mut net = spec_4x8().build();
        for i in 0..32 {
            let t = net.transfer(
                ProcId(i % 32),
                ProcId((i * 7 + 3) % 32),
                (i as u64 + 1) * 123,
                SimTime::from_nanos(i as u64 * 1000),
            );
            assert!(t >= SimTime::from_nanos(i as u64 * 1000));
        }
    }
}

#[cfg(test)]
mod wan_topology_tests {
    use super::*;
    use crate::wan::WanTopology;

    fn spec(topology: WanTopology) -> TwoLayerSpec {
        TwoLayerSpec::new(Topology::symmetric(4, 2))
            .inter(LinkParams::wide_area(10.0, 1.0))
            .wan_topology(topology)
    }

    #[test]
    fn star_pays_two_hops_between_spokes() {
        let mut mesh = spec(WanTopology::FullMesh).build();
        let mut star = spec(WanTopology::Star { hub: 0 }).build();
        // Cluster 1 (rank 2) to cluster 3 (rank 6): spoke to spoke.
        let direct = mesh.transfer(ProcId(2), ProcId(6), 1000, SimTime::ZERO);
        let via_hub = star.transfer(ProcId(2), ProcId(6), 1000, SimTime::ZERO);
        let gap = via_hub.since(direct);
        // One extra WAN hop: >= one extra latency (10 ms).
        assert!(gap >= SimDuration::from_millis(10), "gap {gap}");
    }

    #[test]
    fn star_hub_reaches_spokes_directly() {
        let mut mesh = spec(WanTopology::FullMesh).build();
        let mut star = spec(WanTopology::Star { hub: 0 }).build();
        let a = mesh.transfer(ProcId(0), ProcId(6), 500, SimTime::ZERO);
        let b = star.transfer(ProcId(0), ProcId(6), 500, SimTime::ZERO);
        assert_eq!(a, b);
    }

    #[test]
    fn ring_cost_grows_with_cluster_distance() {
        let mut ring = spec(WanTopology::Ring).build();
        let near = ring.transfer(ProcId(0), ProcId(2), 100, SimTime::ZERO); // cluster 1
        let far = ring.transfer(ProcId(0), ProcId(4), 100, SimTime::ZERO); // cluster 2 (2 hops)
        assert!(far.since(SimTime::ZERO) > near.since(SimTime::ZERO));
    }

    #[test]
    fn fat_tree_books_virtual_switch_hops() {
        // 4 clusters, pod 2: cross-pod messages pay leaf -> edge -> core ->
        // edge -> leaf (4 WAN hops) through virtual switch nodes.
        let mut mesh = spec(WanTopology::FullMesh).build();
        let mut tree = spec(WanTopology::FatTree { pod: 2 }).build();
        let direct = mesh.transfer(ProcId(0), ProcId(4), 1000, SimTime::ZERO);
        let routed = tree.transfer(ProcId(0), ProcId(4), 1000, SimTime::ZERO);
        // Three extra WAN hops: at least 30 ms more latency.
        let gap = routed.since(direct);
        assert!(gap >= SimDuration::from_millis(30), "gap {gap}");
        // The busy links include virtual switch nodes (ids >= 4).
        let s = tree.stats();
        assert!(
            s.wan_busy.iter().any(|&(a, b, _)| a >= 4 || b >= 4),
            "fat-tree traffic must occupy virtual switch links: {:?}",
            s.wan_busy
        );
    }

    #[test]
    fn fat_tree_cores_split_by_destination() {
        // Destinations 2 and 3 hash to different core switches (dst % pod),
        // so two cross-pod streams from cluster 0 share only the up-link to
        // the edge switch, not the core.
        let mut tree = spec(WanTopology::FatTree { pod: 2 }).build();
        tree.transfer(ProcId(0), ProcId(4), 1000, SimTime::ZERO);
        tree.transfer(ProcId(1), ProcId(6), 1000, SimTime::ZERO);
        let s = tree.stats();
        // Edge switch for pod 0 is node 4; cores are nodes 6 and 7.
        assert!(s.wan_busy.iter().any(|&(a, b, _)| (a, b) == (4, 6)));
        assert!(s.wan_busy.iter().any(|&(a, b, _)| (a, b) == (4, 7)));
    }

    #[test]
    fn dragonfly_global_link_is_shared_per_group_pair() {
        // All traffic between two dragonfly groups funnels over the single
        // global link; on the mesh every cluster pair has its own.
        let run = |topology: WanTopology| {
            let mut net = spec(topology).build();
            let mut last = SimTime::ZERO;
            for i in 0..12u64 {
                // Clusters 0/1 (group 0) to clusters 2/3 (group 1).
                let src = ProcId((i % 4) as usize); // ranks 0..3 = clusters 0, 1
                let dst = ProcId(4 + (i % 4) as usize); // clusters 2, 3
                let t = net.transfer(src, dst, 50_000, SimTime::ZERO);
                last = last.max(t);
            }
            last
        };
        let mesh_last = run(WanTopology::FullMesh);
        let fly_last = run(WanTopology::Dragonfly { groups: 2 });
        assert!(fly_last > mesh_last, "{fly_last} vs {mesh_last}");
    }

    #[test]
    #[should_panic(expected = "invalid wan topology")]
    fn build_rejects_a_misfit_topology() {
        let _ = spec(WanTopology::Torus2d { x: 3, y: 2 }).build();
    }

    #[test]
    fn star_hub_gateway_is_the_bottleneck() {
        // Many spoke-to-spoke messages: on the star they all serialize on
        // the hub's gateway CPU; on the mesh they use disjoint links.
        let run = |topology: WanTopology| {
            let mut net = spec(topology).build();
            let mut last = SimTime::ZERO;
            for i in 0..20u64 {
                // cluster 1 -> cluster 3 and cluster 2 -> cluster 3 etc.
                let src = ProcId(2 + (i % 2) as usize * 2); // ranks 2 or 4
                let t = net.transfer(src, ProcId(6), 100, SimTime::ZERO);
                last = last.max(t);
            }
            last
        };
        let mesh_last = run(WanTopology::FullMesh);
        let star_last = run(WanTopology::Star { hub: 0 });
        assert!(star_last > mesh_last, "{star_last} vs {mesh_last}");
    }
}

#[cfg(test)]
mod validation_tests {
    use super::*;

    /// The paper: "the bandwidth limit in this case is 18 MByte/s per
    /// cluster, since with 4 clusters there are 3 links of 6 MByte/s out of
    /// each cluster". Blast traffic from cluster 0 to all three remote
    /// clusters and check the aggregate throughput approaches that cap.
    #[test]
    fn aggregate_cluster_egress_is_links_times_bandwidth() {
        let spec =
            TwoLayerSpec::new(Topology::symmetric(4, 8)).inter(LinkParams::wide_area(0.5, 6.0));
        let mut net = spec.build();
        // 8 senders x 30 messages x 100 KB, round-robin over remote ranks.
        let msg_bytes: u64 = 100_000;
        let mut last_arrival = SimTime::ZERO;
        let mut total: u64 = 0;
        for round in 0..30u64 {
            for src in 0..8usize {
                let dst = 8 + ((src + round as usize) % 24);
                let t = net.transfer(ProcId(src), ProcId(dst), msg_bytes, SimTime::ZERO);
                last_arrival = last_arrival.max(t);
                total += msg_bytes;
            }
        }
        let secs = last_arrival.as_secs_f64();
        let mbs = total as f64 / 1e6 / secs;
        assert!(
            mbs > 18.0 * 0.75 && mbs < 18.0 * 1.05,
            "aggregate egress {mbs:.1} MB/s should approach the 18 MB/s cap"
        );
    }

    /// A single WAN link never exceeds its configured bandwidth.
    #[test]
    fn single_link_respects_bandwidth() {
        let spec =
            TwoLayerSpec::new(Topology::symmetric(2, 4)).inter(LinkParams::wide_area(0.5, 2.0));
        let mut net = spec.build();
        let msg_bytes: u64 = 50_000;
        let mut last = SimTime::ZERO;
        let mut total = 0u64;
        for i in 0..40u64 {
            let t = net.transfer(
                ProcId((i % 4) as usize),
                ProcId(4 + (i % 4) as usize),
                msg_bytes,
                SimTime::ZERO,
            );
            last = last.max(t);
            total += msg_bytes;
        }
        let mbs = total as f64 / 1e6 / last.as_secs_f64();
        assert!(mbs < 2.05, "link throughput {mbs:.2} exceeds 2 MB/s");
        assert!(mbs > 1.5, "link should be near saturation, got {mbs:.2}");
    }
}
