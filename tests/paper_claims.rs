//! Coarse assertions of the paper's §5.1 and §6 findings, checked on every
//! run of the test suite (small problem sizes, so thresholds are generous).
//! Table 1's, Table 2's and Figure 3's verdicts are claims over the
//! committed medium baselines, in `crates/bench/tests/claims.rs`.

use twolayer::apps::{run_app, AppId, Scale, SuiteConfig, Variant};
use twolayer::net::das_spec;
use twolayer::rt::Machine;
use twolayer::sim::SimDuration;

fn elapsed(app: AppId, cfg: &SuiteConfig, variant: Variant, machine: &Machine) -> SimDuration {
    run_app(app, cfg, variant, machine).unwrap().elapsed
}

#[test]
fn more_smaller_clusters_win_when_bandwidth_bound() {
    // §5.1: on a fully connected WAN, bisection bandwidth grows with the
    // cluster count, so 8x4 beats 2x16 for a bandwidth-hungry app.
    let cfg = SuiteConfig::at(Scale::Small);
    let fat = elapsed(
        AppId::Water,
        &cfg,
        Variant::Optimized,
        &Machine::new(das_spec(2, 16, 1.0, 0.1)),
    );
    let thin = elapsed(
        AppId::Water,
        &cfg,
        Variant::Optimized,
        &Machine::new(das_spec(8, 4, 1.0, 0.1)),
    );
    assert!(
        thin < fat,
        "8x4 ({thin}) should beat 2x16 ({fat}) at scarce bandwidth"
    );
}

#[test]
fn cluster_aware_collectives_beat_flat_at_wide_area() {
    use twolayer::rt::coll::{Algo, Coll};
    let run = |algo| {
        Machine::new(das_spec(4, 7, 10.0, 1.0))
            .run(move |ctx| {
                let mut coll = Coll::new(0, algo);
                for _ in 0..3 {
                    let v = vec![1.0f64; 1024];
                    coll.allreduce(ctx, v, |a, b| {
                        a.iter().zip(b).map(|(x, y)| x + y).collect::<Vec<f64>>()
                    });
                }
            })
            .unwrap()
            .elapsed
    };
    let flat = run(Algo::Flat);
    let aware = run(Algo::ClusterAware);
    assert!(
        aware.as_secs_f64() * 1.5 < flat.as_secs_f64(),
        "cluster-aware allreduce should win clearly: {aware} vs {flat}"
    );
}
