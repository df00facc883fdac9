//! The default scheduler (ranks as fibers resumed inline on the caller's
//! thread) against the thread-per-rank oracle, where tier-1 runs it: all 11
//! app/variant pairs on the paper's 4x8 mesh must produce bit-identical
//! virtual results in both modes. The full three-machine differential suite
//! lives in `crates/sim/tests/nm_equivalence.rs`.

use twolayer::apps::{run_app, AppId, AppRun, Scale, SuiteConfig, Variant};
use twolayer::net::das_spec;
use twolayer::rt::Machine;
use twolayer::sim::SchedMode;

/// Everything virtual a run exposes, collapsed for exact comparison (the
/// fingerprint `nm_equivalence` uses).
fn fingerprint(run: &AppRun) -> (u64, u64, u64, u64, u64, u64) {
    (
        run.elapsed.as_nanos(),
        run.kernel.messages,
        run.kernel.events,
        run.kernel.bytes,
        run.net.inter_msgs,
        run.checksum.to_bits(),
    )
}

#[test]
fn fibers_match_legacy_threads_on_the_paper_mesh() {
    let cfg = SuiteConfig::at(Scale::Small);
    let spec = das_spec(4, 8, 10.0, 1.0);
    let mut pairs = 0;
    for app in AppId::ALL {
        for variant in [Variant::Unoptimized, Variant::Optimized] {
            if variant == Variant::Optimized && !app.has_optimized() {
                continue;
            }
            let run = |mode| {
                let machine = Machine::new(spec.clone()).with_sched_mode(mode);
                run_app(app, &cfg, variant, &machine)
                    .unwrap_or_else(|e| panic!("{app}/{variant} ({mode:?}): {e}"))
            };
            assert_eq!(
                fingerprint(&run(SchedMode::Fibers)),
                fingerprint(&run(SchedMode::LegacyThreads)),
                "{app}/{variant}: fibers diverged from the 1:1 oracle"
            );
            pairs += 1;
        }
    }
    assert_eq!(pairs, 11);
}
