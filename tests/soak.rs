//! Soak test: the whole application suite survives an unreliable WAN.
//!
//! Every app, in both variants, runs under ≥10% inter-cluster drops plus
//! duplication, reordering, and a gateway crash-restart window parked
//! mid-run (placed from a fault-free timing probe). The reliable transport
//! must recover everything: checksums stay at their serial reference, and
//! re-running with the same seed replays the identical fault schedule and
//! final virtual time.
//!
//! The optimized variants matter here: ASP's migrating sequencer once
//! deadlocked when WAN reordering released its MIGRATE hand-off ahead of
//! row broadcasts still in flight on other streams — a protocol bug no
//! fault-free run could reach.

use twolayer::apps::{checksum_ok, run_app, serial_checksum, AppId, Scale, SuiteConfig, Variant};
use twolayer::net::{das_spec, FaultPlan};
use twolayer::rt::{Machine, TransportConfig};
use twolayer::sim::{SimDuration, SimTime};

fn soak_app(app: AppId, variant: Variant) {
    let cfg = SuiteConfig::at(Scale::Small);
    let clean_spec = das_spec(2, 4, 5.0, 1.0);
    // Fault-free probe: fixes the expected result and tells us where
    // "mid-run" is so the outage window actually bites.
    let clean = run_app(app, &cfg, variant, &Machine::new(clean_spec.clone()))
        .unwrap_or_else(|e| panic!("{app}/{variant}: clean probe failed: {e}"));
    let t = clean.elapsed.as_nanos();
    let plan = FaultPlan::new(42)
        .drop_prob(0.12)
        .duplicate_prob(0.06)
        .reorder_prob(0.06)
        .gateway_outage(
            1,
            SimTime::from_nanos(t * 3 / 10),
            SimTime::from_nanos(t * 5 / 10),
        );
    let spec = clean_spec.clone().fault_plan(plan);
    let transport = TransportConfig::for_spec(&spec);
    let machine = Machine::new(spec)
        .with_reliable_transport(transport)
        .time_limit(SimDuration::from_secs(3600));

    let faulty = run_app(app, &cfg, variant, &machine)
        .unwrap_or_else(|e| panic!("{app}/{variant}: faulty run failed (seed 42): {e}"));

    let expected = serial_checksum(app, &cfg);
    assert!(
        checksum_ok(app, faulty.checksum, expected),
        "{app}/{variant}: checksum {} drifted from serial {} under faults",
        faulty.checksum,
        expected
    );
    assert!(
        faulty.faults_injected > 0,
        "{app}/{variant}: the fault plan never fired"
    );
    assert!(
        faulty.elapsed >= clean.elapsed,
        "{app}/{variant}: faults must not speed the run up"
    );
    assert_eq!(faulty.seed, Some(42));
    let stats = faulty.transport.expect("transport was enabled");
    assert!(
        stats.retransmits > 0,
        "{app}/{variant}: ≥10% drops must force retransmissions"
    );

    // Same seed → identical fault schedule, virtual time, and traffic.
    let replay = run_app(app, &cfg, variant, &machine)
        .unwrap_or_else(|e| panic!("{app}/{variant}: replay failed (seed 42): {e}"));
    assert_eq!(
        replay.elapsed, faulty.elapsed,
        "{app}/{variant}: seed 42 did not reproduce the virtual makespan"
    );
    assert_eq!(
        replay.checksum, faulty.checksum,
        "{app}/{variant}: replay diverged"
    );
    assert_eq!(
        replay.faults_injected, faulty.faults_injected,
        "{app}/{variant}: fault schedule not reproduced"
    );
    assert_eq!(replay.transport, faulty.transport);
}

#[test]
fn suite_completes_correctly_under_wan_faults() {
    for app in AppId::ALL {
        soak_app(app, Variant::Unoptimized);
    }
}

#[test]
fn optimized_suite_completes_correctly_under_wan_faults() {
    for app in AppId::ALL {
        soak_app(app, Variant::Optimized);
    }
}
