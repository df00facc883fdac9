//! Degenerate-shape edge cases: more processors than work items, single
//! processors, two-rank machines — the places distribution logic usually
//! breaks.

use twolayer::apps::asp::{asp_rank, matrix_checksum, serial_asp, AspConfig};
use twolayer::apps::awari::{awari_rank, serial_awari, AwariConfig};
use twolayer::apps::common::rel_err;
use twolayer::apps::fft::{fft_rank, serial_fft, spectrum_checksum, FftConfig};
use twolayer::apps::tsp::{serial_tsp, tsp_rank, TspConfig};
use twolayer::apps::water::{serial_water, water_rank, WaterConfig};
use twolayer::apps::{total_checksum, Variant};
use twolayer::net::das_spec;
use twolayer::rt::Machine;

#[test]
fn water_with_fewer_molecules_than_processors() {
    // 4 molecules on 8 processors: half the ranks own nothing but still
    // participate in the all-to-half exchanges.
    let cfg = WaterConfig {
        n: 4,
        steps: 2,
        seed: 3,
        pair_ns: 100.0,
        dt: 1e-3,
    };
    let expected = serial_water(&cfg);
    for variant in [Variant::Unoptimized, Variant::Optimized] {
        let cfg = cfg.clone();
        let molecules = cfg.generate();
        let report = Machine::new(das_spec(4, 2, 1.0, 1.0))
            .run(move |ctx| water_rank(ctx, &cfg, &molecules, variant))
            .unwrap();
        assert!(rel_err(total_checksum(&report.results), expected) < 1e-9);
    }
}

#[test]
fn asp_with_fewer_rows_than_processors() {
    let cfg = AspConfig {
        n: 5,
        seed: 1,
        edge_prob: 0.6,
        cell_ns: 10.0,
        skip_sequencer: false,
    };
    let expected = matrix_checksum(&serial_asp(&cfg));
    for variant in [Variant::Unoptimized, Variant::Optimized] {
        let cfg = cfg.clone();
        let matrix = cfg.generate();
        let report = Machine::new(das_spec(4, 2, 1.0, 1.0))
            .run(move |ctx| asp_rank(ctx, &cfg, &matrix, variant))
            .unwrap();
        assert!(
            rel_err(total_checksum(&report.results), expected) < 1e-9,
            "{variant}"
        );
    }
}

#[test]
fn awari_with_fewer_states_than_processors() {
    let cfg = AwariConfig {
        levels: 2,
        states_per_level: 3,
        seed: 5,
        state_ns: 100.0,
        edge_ns: 10.0,
        combine: 2,
    };
    let expected = serial_awari(&cfg);
    for variant in [Variant::Unoptimized, Variant::Optimized] {
        let cfg = cfg.clone();
        let report = Machine::new(das_spec(4, 2, 1.0, 1.0))
            .run(move |ctx| awari_rank(ctx, &cfg, variant))
            .unwrap();
        assert!(
            rel_err(total_checksum(&report.results), expected) < 1e-12,
            "{variant}"
        );
    }
}

#[test]
fn tsp_with_fewer_jobs_than_workers() {
    // depth-2 prefixes of a 5-city problem: 4 jobs for 8 workers; most
    // workers get None immediately and must still terminate cleanly.
    let cfg = TspConfig {
        n_cities: 5,
        seed: 2,
        prefix_depth: 2,
        node_ns: 100.0,
        poll_chunk: 4,
    };
    let (expected, _) = serial_tsp(&cfg);
    for variant in [Variant::Unoptimized, Variant::Optimized] {
        let cfg = cfg.clone();
        let dist = cfg.generate();
        let report = Machine::new(das_spec(4, 2, 1.0, 1.0))
            .run(move |ctx| tsp_rank(ctx, &cfg, &dist, variant))
            .unwrap();
        assert_eq!(report.results[0].checksum, expected as f64, "{variant}");
    }
}

#[test]
fn fft_with_exactly_one_row_per_processor() {
    // N = 2^6 => 8x8 matrix on 8 processors: every rank owns one row.
    let cfg = FftConfig {
        log2_n: 6,
        seed: 4,
        butterfly_ns: 10.0,
        element_ns: 5.0,
    };
    let expected = spectrum_checksum(&serial_fft(&cfg));
    let signal = cfg.generate();
    let report = Machine::new(das_spec(4, 2, 1.0, 1.0))
        .run(move |ctx| fft_rank(ctx, &cfg, &signal, Variant::Unoptimized))
        .unwrap();
    assert!(rel_err(total_checksum(&report.results), expected) < 1e-9);
}

#[test]
fn two_rank_machines_work_for_every_app() {
    use twolayer::apps::{checksum_ok, run_app, serial_checksum, AppId, Scale, SuiteConfig};
    let cfg = SuiteConfig::at(Scale::Small);
    let machine = Machine::new(das_spec(2, 1, 5.0, 1.0));
    for app in AppId::ALL {
        let expected = serial_checksum(app, &cfg);
        let run = run_app(app, &cfg, Variant::Optimized, &machine).unwrap();
        assert!(checksum_ok(app, run.checksum, expected), "{app} on 2x1");
    }
}
