//! Calibration guard: the bench-scale (medium) configurations must keep the
//! Table 1 regime of healthy single-cluster speedups. The committed medium
//! baseline has no 1-rank runs, so this one runs whole medium-size
//! simulations; Table 1's traffic order is claim `table1.traffic-order` over
//! that baseline, in `crates/bench/tests/claims.rs`.

use twolayer::apps::{run_app, AppId, Scale, SuiteConfig, Variant};
use twolayer::net::uniform_spec;
use twolayer::rt::Machine;

#[test]
fn medium_scale_single_cluster_speedups_hold() {
    let cfg = SuiteConfig::at(Scale::Medium);
    // ASP is omitted here: its serial Floyd-Warshall is ~134M updates and
    // too slow for a debug-profile test run (the bench covers it).
    for (app, bar) in [(AppId::Water, 25.0), (AppId::Fft, 20.0)] {
        let t1 = run_app(
            app,
            &cfg,
            Variant::Unoptimized,
            &Machine::new(uniform_spec(1)),
        )
        .unwrap()
        .elapsed;
        let t32 = run_app(
            app,
            &cfg,
            Variant::Unoptimized,
            &Machine::new(uniform_spec(32)),
        )
        .unwrap()
        .elapsed;
        let speedup = t1.as_secs_f64() / t32.as_secs_f64();
        assert!(
            speedup > bar,
            "{app}: medium-scale 32p speedup {speedup:.1} fell below {bar}"
        );
    }
}
