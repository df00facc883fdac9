//! Golden Chrome traces.
//!
//! A trace is what a user loads into `chrome://tracing` or Perfetto to see
//! where a run's time went, so its bytes are pinned like the makespans:
//! for each cell, the length, the event count and a 64-bit FNV-1a digest
//! of `TraceLog::to_chrome_json` go to `tests/golden/traces.txt`. The
//! cells cover a clean full mesh, a routed ring, and a hostile schedule
//! with cross-traffic; that TSP cell is the one whose ranks also poll
//! with `try_recv`.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p numagap-sim --test golden_trace
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use numagap_apps::{run_app_report, AppId, Scale, SuiteConfig, Variant};
use numagap_net::{das_spec, CrossTrafficPlan, LinkSchedule, WanTopology};
use numagap_rt::Machine;
use numagap_sim::{SimDuration, Tracer};

const TRACES: &str = "traces.txt";

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(TRACES)
}

/// The traced cells: `(name, app, variant, machine)`, every one on the
/// paper's 4x8 machine.
fn cells() -> Vec<(&'static str, AppId, Variant, Machine)> {
    let slow = || das_spec(4, 8, 10.0, 1.0);
    let hostile = slow()
        .cross_traffic(CrossTrafficPlan::new(5).intensity(0.4))
        .link_schedule(
            LinkSchedule::diurnal(5, SimDuration::from_millis(500))
                .latency_factor(2.0)
                .bandwidth_factor(0.5),
        );
    vec![
        (
            "mesh",
            AppId::Water,
            Variant::Unoptimized,
            Machine::new(slow()),
        ),
        (
            "mesh-fast",
            AppId::Barnes,
            Variant::Optimized,
            Machine::new(das_spec(4, 8, 0.5, 6.3)),
        ),
        (
            "mesh",
            AppId::Fft,
            Variant::Unoptimized,
            Machine::new(slow()),
        ),
        (
            "ring",
            AppId::Asp,
            Variant::Optimized,
            Machine::new(slow().wan_topology(WanTopology::Ring)),
        ),
        (
            "hostile",
            AppId::Tsp,
            Variant::Unoptimized,
            Machine::new(hostile),
        ),
    ]
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line per cell: `cell app variant bytes events digest`.
fn render() -> String {
    let cfg = SuiteConfig::at(Scale::Small);
    let mut out = "# cell app variant bytes events fnv1a64\n".to_string();
    for (cell, app, variant, machine) in cells() {
        let mut tracer = Tracer::new(machine.spec().topology.nprocs());
        run_app_report(app, &cfg, variant, &machine, Some(&mut tracer))
            .unwrap_or_else(|e| panic!("{app}/{variant} on {cell}: {e}"));
        let trace = tracer.finish();
        let json = trace.to_chrome_json();
        writeln!(
            out,
            "{cell} {app} {variant} {} {} {:016x}",
            json.len(),
            trace.len(),
            fnv1a(json.as_bytes())
        )
        .unwrap();
    }
    out
}

#[test]
fn traces_match_golden() {
    let actual = render();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&path, &actual).expect("write golden file");
        println!("golden file regenerated at {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {}: {e}\n\
             run `UPDATE_GOLDEN=1 cargo test -p numagap-sim --test golden_trace` \
             to (re)generate it",
            path.display()
        )
    });
    assert_eq!(
        actual, golden,
        "Chrome traces drifted from {TRACES}; if the change is intentional, \
         regenerate with `UPDATE_GOLDEN=1 cargo test -p numagap-sim --test golden_trace` \
         and commit the diff"
    );
}
