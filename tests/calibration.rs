//! Calibration guards: the bench-scale (medium) configurations must keep the
//! Table 1 regime — healthy single-cluster speedups and the paper's traffic
//! ordering. These run whole medium-size simulations (~10 s total), so they
//! are few and targeted; the full table comes from `numagap bench`.

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

#[test]
fn medium_scale_traffic_ordering_matches_table1() {
    // Table 1: FFT is by far the most traffic-intensive; TSP the least.
    let cfg = SuiteConfig::at(Scale::Medium);
    let machine = Machine::new(uniform_spec(32));
    let fft = run_app(AppId::Fft, &cfg, Variant::Unoptimized, &machine).unwrap();
    let tsp = run_app(AppId::Tsp, &cfg, Variant::Unoptimized, &machine).unwrap();
    let water = run_app(AppId::Water, &cfg, Variant::Unoptimized, &machine).unwrap();
    assert!(
        fft.total_mbs > 10.0 * water.total_mbs,
        "FFT ({:.1} MB/s) must dominate Water ({:.1} MB/s)",
        fft.total_mbs,
        water.total_mbs
    );
    assert!(
        tsp.total_mbs < water.total_mbs,
        "TSP ({:.3} MB/s) must be the least traffic-intensive",
        tsp.total_mbs
    );
}
