//! Soundness of the analytic lower bound across the suite: for every
//! app/variant pair, the compiled envelope never exceeds the replayed
//! makespan anywhere on the fig3 quick grid, nor at the wide-area limits
//! `LinkParams` accepts.

use numagap_apps::{variants, AppId, Scale, SuiteConfig, Variant};
use numagap_model::{record_app, replay, AnalyticModel};
use numagap_net::{das_spec, LinkParams};
use numagap_rt::Machine;

/// The fig3 quick grid, as `numagap_bench::targets::paper_grid(true)` gives
/// it: WAN latencies in ms and bandwidths in MByte/s.
const QUICK_LATENCIES_MS: [f64; 3] = [0.5, 10.0, 300.0];
const QUICK_BANDWIDTHS_MBS: [f64; 3] = [6.3, 0.3, 0.03];

#[test]
fn analytic_bound_never_exceeds_replay_across_the_suite() {
    let cfg = SuiteConfig::at(Scale::Small);
    let machine = Machine::new(das_spec(4, 8, 10.0, 0.3));
    let mut pairs = 0;
    for app in AppId::ALL {
        for &variant in variants(app) {
            pairs += 1;
            let (_, dag) = record_app(app, &cfg, variant, &machine)
                .unwrap_or_else(|e| panic!("{app}/{variant}: recording failed: {e}"));
            let model = AnalyticModel::compile(&dag);
            for lat in QUICK_LATENCIES_MS {
                for bw in QUICK_BANDWIDTHS_MBS {
                    let spec = das_spec(4, 8, lat, bw);
                    let exact = replay(&dag, &spec).elapsed;
                    let bound = model.bound(lat, bw);
                    assert!(
                        bound <= exact,
                        "{app}/{variant} at ({lat} ms, {bw} MB/s): \
                         analytic bound {bound} exceeds replay {exact}"
                    );
                }
            }
        }
    }
    assert_eq!(pairs, 11, "the suite has 11 app/variant pairs");
}

#[test]
fn every_pair_records_replays_and_bounds_at_the_wan_limits() {
    let (lat, bw) = (
        LinkParams::MAX_WAN_LATENCY_MS,
        LinkParams::MIN_WAN_BANDWIDTH_MBS,
    );
    let cfg = SuiteConfig::at(Scale::Small);
    let machine = Machine::new(das_spec(4, 8, lat, bw));
    for app in AppId::ALL {
        for variant in [Variant::Unoptimized, Variant::Optimized] {
            // Virtual time panics on overflow, so getting through is the test.
            let (_, dag) = record_app(app, &cfg, variant, &machine)
                .unwrap_or_else(|e| panic!("{app}/{variant}: recording failed: {e}"));
            let exact = replay(&dag, &das_spec(4, 8, lat, bw)).elapsed;
            let bound = AnalyticModel::compile(&dag).bound(lat, bw);
            assert!(
                bound <= exact,
                "{app}/{variant}: bound {bound}, replay {exact}"
            );
        }
    }
}
