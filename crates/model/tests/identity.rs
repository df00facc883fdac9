//! Identity replay on real suite applications: replaying a recorded DAG at
//! the spec it was recorded under must reproduce the simulated makespan
//! bit for bit. This is the model's ground-truth anchor — the kernel and
//! the replayer drive one event core, and any divergence here means the
//! replayer's per-event work no longer matches the kernel's, and
//! cross-spec predictions inherit the drift.
//!
//! Away from the recording's spec the reference is the kernel itself: a
//! *scripted* run spawns one rank per recorded op list, and each rank does
//! exactly what its list says — no application code, but the kernel's own
//! mailboxes, event order and network model. That run must equal the live
//! run it was recorded from, and the replayer at every quick Figure 3 point,
//! whatever the event-core tie-break policy.

use std::sync::{Arc, OnceLock};

use numagap_apps::{pairs, variants, AppId, Scale, SuiteConfig, Variant};
use numagap_model::{record_app, replay, CommDag, Op, Replayer};
use numagap_net::{das_spec, uniform_spec, LinkParams, TwoLayerNetwork, TwoLayerSpec, WanTopology};
use numagap_rt::Machine;
use numagap_sim::{Filter, Sim, SimDuration, Tag, TieBreak};

/// Fig3's quick grid, (latency ms, MB/s): every latency at every bandwidth.
const QUICK_LATENCIES: [f64; 3] = [0.5, 10.0, 300.0];
const QUICK_BANDWIDTHS: [f64; 3] = [6.3, 0.3, 0.03];

/// The grid's friendliest and most hostile corners, (latency ms, MB/s).
const CORNERS: [(f64, f64); 2] = [(0.5, 6.3), (300.0, 0.03)];

/// Runs `dag` through the kernel on `spec`: one rank per op list, each
/// computing, sending and receiving exactly what it recorded. Each message
/// has a tag of its own (its sequence number), so a receive matches exactly
/// its recorded message at any spec.
fn scripted(dag: &CommDag, spec: &TwoLayerSpec, tie_break: TieBreak) -> SimDuration {
    assert!(
        dag.msgs.len() < Tag::INTERNAL_BASE as usize,
        "more recorded messages than application tags"
    );
    let msgs = Arc::new(dag.msgs.clone());
    let mut sim = Sim::new(TwoLayerNetwork::new(spec.clone()));
    sim.tie_break(tie_break);
    for ops in &dag.ops {
        let (ops, msgs) = (ops.clone(), Arc::clone(&msgs));
        sim.spawn(move |ctx| {
            for op in ops {
                match op {
                    Op::Compute(d) => ctx.compute(d),
                    Op::Send { seq } => {
                        let m = msgs[seq as usize];
                        ctx.send(m.dst, Tag::app(seq as u32), (), m.wire_bytes);
                    }
                    Op::Recv { seq } => {
                        let m = msgs[seq as usize];
                        let _ = ctx.recv(Filter {
                            src: Some(m.src),
                            ..Filter::tag(Tag::app(seq as u32))
                        });
                    }
                }
            }
        });
    }
    sim.run()
        .expect("a recording runs through the kernel")
        .elapsed
}

/// Each of the 11 pairs' recording, by name.
type Recorded = Vec<(String, CommDag)>;

/// Records every pair on `spec` at small scale, checking on the way that
/// the scripted run of each recording equals the live run it came from.
fn record_all(spec: &TwoLayerSpec) -> Recorded {
    let cfg = SuiteConfig::at(Scale::Small);
    let machine = Machine::new(spec.clone());
    let recorded: Recorded = pairs(&[], None)
        .into_iter()
        .map(|(app, variant)| {
            let (run, dag) = record_app(app, &cfg, variant, &machine).expect("app runs");
            let name = format!("{app}/{variant}");
            assert_eq!(
                scripted(&dag, spec, TieBreak::Fifo),
                run.elapsed,
                "{name}: the scripted run diverged from the live run"
            );
            (name, dag)
        })
        .collect();
    assert_eq!(recorded.len(), 11, "the suite's app/variant pairs");
    recorded
}

/// The ring's recordings, shared by the tests that read them. Its routed
/// hops share links, so relayed traffic contends.
fn ring() -> &'static Recorded {
    static RING: OnceLock<Recorded> = OnceLock::new();
    RING.get_or_init(|| record_all(&das_spec(4, 8, 10.0, 1.0).wan_topology(WanTopology::Ring)))
}

/// At every quick fig3 point, the scripted run of each recording equals
/// the replayer's makespan.
fn scripted_matches_the_replayer_on_the_quick_grid(wiring: &str, recorded: &Recorded) {
    for (name, dag) in recorded {
        let mut replayer = Replayer::new(&dag.base_spec);
        for lat in QUICK_LATENCIES {
            for bw in QUICK_BANDWIDTHS {
                let inter = LinkParams::wide_area(lat, bw);
                assert_eq!(
                    scripted(dag, &dag.base_spec.clone().inter(inter), TieBreak::Fifo),
                    replayer.makespan(dag, inter),
                    "{name} on the {wiring} at ({lat} ms, {bw} MB/s)"
                );
            }
        }
    }
}

#[test]
fn scripted_ranks_match_the_live_run_and_the_replayer_on_the_paper_mesh() {
    let recorded = record_all(&das_spec(4, 8, 10.0, 1.0));
    scripted_matches_the_replayer_on_the_quick_grid("mesh", &recorded);
}

#[test]
fn scripted_ranks_match_the_live_run_and_the_replayer_on_a_ring_wan() {
    scripted_matches_the_replayer_on_the_quick_grid("ring", ring());
}

/// The replayer implements only the kernel's native `Fifo` order. That is
/// enough because a recording's makespan does not depend on the order of
/// equal-timestamp events: on the ring, at both corners, every adversarial
/// policy gives the `Fifo` run.
#[test]
fn replay_does_not_depend_on_the_tie_break_policy() {
    for (name, dag) in ring() {
        for (lat, bw) in CORNERS {
            let spec = dag.base_spec.clone().inter(LinkParams::wide_area(lat, bw));
            let fifo = scripted(dag, &spec, TieBreak::Fifo);
            for policy in [
                TieBreak::Reversed,
                TieBreak::Shuffled(3),
                TieBreak::Shuffled(11),
            ] {
                assert_eq!(
                    scripted(dag, &spec, policy),
                    fifo,
                    "{name} at ({lat} ms, {bw} MB/s) under {policy:?}"
                );
            }
        }
    }
}

#[test]
fn identity_replay_is_exact_for_real_apps() {
    let cfg = SuiteConfig::at(Scale::Small);
    // Water/optimized regression-tests the subtlest rule: a message is
    // receivable only once its delivery *event* has fired — ordered by
    // (arrival, delivery seq) — not once the consumer's clock passes the
    // arrival instant. A rank running ahead inline can be past the arrival
    // time and must still block, yielding to earlier events whose transfers
    // claim WAN FIFO slots first. The ring routes inter-cluster messages
    // over several hops, so relayed traffic contends too.
    let mesh = das_spec(4, 8, 10.0, 0.3);
    for (wiring, spec) in [
        ("mesh", mesh.clone()),
        ("ring", mesh.wan_topology(WanTopology::Ring)),
    ] {
        let machine = Machine::new(spec);
        let mut pairs = 0;
        for app in AppId::ALL {
            for &variant in variants(app) {
                let (run, dag) = record_app(app, &cfg, variant, &machine).expect("app runs");
                let rep = replay(&dag, &dag.base_spec);
                assert_eq!(
                    rep.elapsed, run.elapsed,
                    "{app}/{variant} on the {wiring}: identity replay diverged from the simulator"
                );
                pairs += 1;
            }
        }
        assert_eq!(pairs, 11, "the suite's app/variant pairs");
    }
}

#[test]
fn identity_replay_is_exact_on_the_uniform_baseline() {
    let cfg = SuiteConfig::at(Scale::Small);
    let machine = Machine::new(uniform_spec(32));
    let (run, dag) =
        record_app(AppId::Water, &cfg, Variant::Unoptimized, &machine).expect("app runs");
    assert_eq!(replay(&dag, &dag.base_spec).elapsed, run.elapsed);
}
