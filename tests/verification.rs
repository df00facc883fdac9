//! End-to-end answer verification: every application, on several machine
//! shapes and both variants, must reproduce its serial reference checksum.

use twolayer::apps::{checksum_ok, run_app, serial_checksum, AppId, Scale, SuiteConfig, Variant};
use twolayer::net::{das_spec, uniform_spec, Topology, TwoLayerSpec};
use twolayer::rt::Machine;

fn verify_on(machine: &Machine, cfg: &SuiteConfig) {
    for app in AppId::ALL {
        let expected = serial_checksum(app, cfg);
        for variant in [Variant::Unoptimized, Variant::Optimized] {
            let run = run_app(app, cfg, variant, machine).unwrap();
            assert!(
                checksum_ok(app, run.checksum, expected),
                "{app}/{variant} on {}: {} vs {expected}",
                machine.spec().topology.label(),
                run.checksum
            );
        }
    }
}

#[test]
fn suite_verifies_on_uniform_machines() {
    let cfg = SuiteConfig::at(Scale::Small);
    for p in [1usize, 4, 8] {
        verify_on(&Machine::new(uniform_spec(p)), &cfg);
    }
}

#[test]
fn suite_verifies_on_cluster_machines() {
    let cfg = SuiteConfig::at(Scale::Small);
    verify_on(&Machine::new(das_spec(2, 4, 1.0, 2.0)), &cfg);
    verify_on(&Machine::new(das_spec(4, 2, 10.0, 0.5)), &cfg);
}

#[test]
fn suite_verifies_on_asymmetric_clusters() {
    let cfg = SuiteConfig::at(Scale::Small);
    let spec = TwoLayerSpec::new(Topology::new(&[3, 2, 3]));
    verify_on(&Machine::new(spec), &cfg);
}

#[test]
fn suite_verifies_at_extreme_gap() {
    // 300 ms / 0.03 MB/s: four orders of magnitude of latency gap. Slow in
    // virtual time, still exact in answers.
    let cfg = SuiteConfig::at(Scale::Small);
    let machine = Machine::new(das_spec(2, 2, 300.0, 0.03));
    for app in [AppId::Asp, AppId::Tsp, AppId::Awari] {
        let expected = serial_checksum(app, &cfg);
        let run = run_app(app, &cfg, Variant::Optimized, &machine).unwrap();
        assert!(
            checksum_ok(app, run.checksum, expected),
            "{app} at extreme gap"
        );
    }
}
