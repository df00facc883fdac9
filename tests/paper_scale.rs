//! Paper-scale smoke tests: selected applications at the paper's original
//! problem sizes. Three seconds in a release build, which is how CI runs
//! them (`cargo test --release --test paper_scale -- --ignored`); close to a
//! minute in a debug build, so a plain `cargo test` skips them.

use twolayer::apps::asp::{asp_rank, AspConfig};
use twolayer::apps::fft::{fft_rank, FftConfig};
use twolayer::apps::water::{water_rank, WaterConfig};
use twolayer::apps::{total_checksum, Variant};
use twolayer::net::{das_spec, uniform_spec};
use twolayer::rt::Machine;

#[test]
#[ignore = "paper-scale: ~1 min in a debug build; CI runs it in release (3 s)"]
fn water_paper_scale_runs_and_verifies() {
    let cfg = WaterConfig::paper(); // 1500 molecules
    let expected = twolayer::apps::water::serial_water(&cfg);
    let molecules = cfg.generate();
    let report = Machine::new(das_spec(4, 8, 10.0, 1.0))
        .run(move |ctx| water_rank(ctx, &cfg, &molecules, Variant::Optimized))
        .unwrap();
    let got = total_checksum(&report.results);
    let err = (got - expected).abs() / expected.abs().max(1.0);
    assert!(err < 1e-9, "{got} vs {expected}");
}

#[test]
#[ignore = "paper-scale: ~1 min in a debug build; CI runs it in release (3 s)"]
fn fft_paper_scale_runs() {
    let cfg = FftConfig::paper(); // 2^20 points
    let signal = cfg.generate();
    let report = Machine::new(uniform_spec(32))
        .run(move |ctx| fft_rank(ctx, &cfg, &signal, Variant::Unoptimized))
        .unwrap();
    assert!(report.elapsed.as_secs_f64() > 0.0);
    assert!(report.results.iter().map(|r| r.checksum).sum::<f64>() > 0.0);
}

#[test]
#[ignore = "paper-scale: ~1 min in a debug build; CI runs it in release (3 s)"]
fn asp_paper_scale_multicluster() {
    let cfg = AspConfig::paper(); // 1500 vertices
    let matrix = cfg.generate();
    let report = Machine::new(das_spec(4, 8, 10.0, 1.0))
        .run(move |ctx| asp_rank(ctx, &cfg, &matrix, Variant::Optimized))
        .unwrap();
    assert!(report.elapsed.as_secs_f64() > 0.0);
}
