//! Identity replay on real suite applications: replaying a recorded DAG at
//! the spec it was recorded under must reproduce the simulated makespan
//! bit for bit. This is the model's ground-truth anchor — the kernel and
//! the replayer drive one event core, and any divergence here means the
//! replayer's per-event work no longer matches the kernel's, and
//! cross-spec predictions inherit the drift.

use numagap_apps::{AppId, Scale, SuiteConfig, Variant};
use numagap_bench::{targets::variants, wan_machine_with};
use numagap_model::{record_app, replay};
use numagap_net::WanTopology;

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
    for (wiring, topology) in [("mesh", None), ("ring", Some(WanTopology::Ring))] {
        let machine = wan_machine_with(10.0, 0.3, topology);
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
    let machine = numagap_bench::baseline_machine();
    let (run, dag) =
        record_app(AppId::Water, &cfg, Variant::Unoptimized, &machine).expect("app runs");
    assert_eq!(replay(&dag, &dag.base_spec).elapsed, run.elapsed);
}
