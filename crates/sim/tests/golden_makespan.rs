//! Golden virtual-time regression suite.
//!
//! Every hot-path change to the kernel (scheduler handoff, mailbox layout,
//! event-queue buffering) must leave virtual time **bit-identical** — that
//! is the contract every committed benchmark baseline depends on. This
//! suite pins the exact makespan (nanoseconds), kernel message count, and
//! run checksum of all 11 app/variant combinations at two wide-area
//! presets against a committed golden file.
//!
//! The golden file lives at `tests/golden/makespans.txt` and is read at
//! runtime (not `include_str!`), so a regen and a re-check in the same
//! build agree. To regenerate after an *intentional* timing-model change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p numagap-sim --test golden_makespan
//! ```
//!
//! and commit the diff — the diff itself is the review artifact showing
//! exactly which cells moved.

use std::fmt::Write as _;
use std::path::PathBuf;

use numagap_apps::{run_app, AppId, Scale, SuiteConfig, Variant};
use numagap_net::{
    das_spec, CrossTrafficPlan, HeteroPreset, LinkParams, LinkSchedule, Topology, TwoLayerSpec,
};
use numagap_rt::Machine;
use numagap_sim::{SchedMode, SimDuration};

/// The two wide-area presets pinned by the suite: the paper's local-ATM
/// ceiling territory (fast WAN) and a slow long-haul setting. Both exercise
/// every layer of the cost model; their makespans diverge enough that a
/// preset mixup cannot silently pass.
const PRESETS: [(&str, f64, f64); 2] = [
    ("wan-fast", 0.5, 6.3),  // 0.5 ms, 6.3 MByte/s
    ("wan-slow", 10.0, 1.0), // 10 ms, 1 MByte/s
];

const CLUSTERS: usize = 4;
const PROCS_PER_CLUSTER: usize = 8;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("makespans.txt")
}

/// All 11 combos in a fixed order: Table 1 app order, unoptimized first;
/// FFT has no optimized variant.
fn combos() -> Vec<(AppId, Variant)> {
    let mut v = Vec::new();
    for app in AppId::ALL {
        v.push((app, Variant::Unoptimized));
        if app.has_optimized() {
            v.push((app, Variant::Optimized));
        }
    }
    assert_eq!(v.len(), 11);
    v
}

/// The hostile-network preset: slow-home heterogeneous clusters on the
/// slow WAN with seeded cross-traffic and a diurnal degradation schedule.
/// Pins the whole hostile machinery — plan injection, schedule scaling,
/// and compute-speed scaling — bit-for-bit alongside the clean presets.
fn hostile_spec() -> TwoLayerSpec {
    let topo = HeteroPreset::SlowHome.apply(Topology::symmetric(CLUSTERS, PROCS_PER_CLUSTER));
    TwoLayerSpec::new(topo)
        .inter(LinkParams::wide_area(10.0, 1.0))
        .cross_traffic(CrossTrafficPlan::new(7).intensity(0.5))
        .link_schedule(
            LinkSchedule::diurnal(7, SimDuration::from_millis(500))
                .latency_factor(3.0)
                .bandwidth_factor(0.33),
        )
}

/// One line per cell: `preset app variant elapsed_ns messages checksum`.
/// The checksum uses Rust's shortest-roundtrip `{}` float formatting, so
/// equality of the formatted string is equality of the f64 bit pattern
/// (modulo NaN, which no app produces).
fn render() -> String {
    let mut out = String::new();
    out.push_str("# preset app variant elapsed_ns messages checksum\n");
    let mut machines = paper_machines();
    machines.push(("wan-hostile", Machine::new(hostile_spec())));
    // The scale regime: a 16x16 (256-rank) machine, an order of magnitude
    // past the paper presets, pinned exact under the default scheduler mode.
    // FFT is excluded — its Small matrix has 64 rows, fewer than one per
    // rank.
    machines.push(("wan-16x16", Machine::new(das_spec(16, 16, 10.0, 1.0))));
    render_cells(&mut out, machines);
    out
}

/// The paper's 4x8 machine at the two [`PRESETS`].
fn paper_machines() -> Vec<(&'static str, Machine)> {
    PRESETS
        .into_iter()
        .map(|(preset, lat_ms, bw_mbs)| {
            let spec = das_spec(CLUSTERS, PROCS_PER_CLUSTER, lat_ms, bw_mbs);
            (preset, Machine::new(spec))
        })
        .collect()
}

fn render_cells(out: &mut String, machines: Vec<(&'static str, Machine)>) {
    let cfg = SuiteConfig::at(Scale::Small);
    for (preset, machine) in machines {
        for (app, variant) in combos() {
            if preset == "wan-16x16" && app == AppId::Fft {
                continue;
            }
            let run = run_app(app, &cfg, variant, &machine)
                .unwrap_or_else(|e| panic!("{app}/{variant} on {preset}: {e}"));
            writeln!(
                out,
                "{preset} {app} {variant} {} {} {}",
                run.elapsed.as_nanos(),
                run.kernel.messages,
                run.checksum
            )
            .unwrap();
        }
    }
}

#[test]
fn makespans_match_golden() {
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
             run `UPDATE_GOLDEN=1 cargo test -p numagap-sim --test golden_makespan` \
             to (re)generate it",
            path.display()
        )
    });
    if golden == actual {
        return;
    }
    // Diff line-by-line so a failure names the exact cells that moved
    // instead of dumping two 23-line blobs.
    let mut drift = String::new();
    for (g, a) in golden.lines().zip(actual.lines()) {
        if g != a {
            let _ = writeln!(drift, "  golden: {g}\n  actual: {a}");
        }
    }
    if golden.lines().count() != actual.lines().count() {
        let _ = writeln!(
            drift,
            "  line count changed: golden {} vs actual {}",
            golden.lines().count(),
            actual.lines().count()
        );
    }
    panic!(
        "virtual time drifted from the golden baseline:\n{drift}\
         If this change to the timing model is intentional, regenerate with \
         `UPDATE_GOLDEN=1 cargo test -p numagap-sim --test golden_makespan` \
         and commit the diff."
    );
}

/// The thread-per-rank scheduler is what hosts without fiber support run
/// everything on, so it is pinned to the same goldens rather than left to a
/// `cfg` nobody exercises: the two 4x8 presets under
/// [`SchedMode::LegacyThreads`] must reproduce their committed lines.
#[test]
fn legacy_threads_reproduce_the_paper_machine_goldens() {
    let mut actual = String::new();
    let machines = paper_machines()
        .into_iter()
        .map(|(preset, m)| (preset, m.with_sched_mode(SchedMode::LegacyThreads)))
        .collect();
    render_cells(&mut actual, machines);
    let golden = std::fs::read_to_string(golden_path()).expect("read golden file");
    let pinned: String = golden
        .lines()
        .filter(|l| PRESETS.iter().any(|(preset, ..)| l.starts_with(preset)))
        .flat_map(|l| [l, "\n"])
        .collect();
    assert_eq!(
        actual, pinned,
        "legacy 1:1 threads drifted from the goldens"
    );
}

/// The golden run must also be independent of *when* it runs relative to
/// other cells: rebuilding the machine and re-running a single combo
/// reproduces its line exactly (no cross-cell state leaks through the
/// kernel or the network model).
#[test]
fn single_cell_rerun_is_bit_identical() {
    let cfg = SuiteConfig::at(Scale::Small);
    let cell = || {
        let machine = Machine::new(das_spec(CLUSTERS, PROCS_PER_CLUSTER, 0.5, 6.3));
        let run = run_app(AppId::Asp, &cfg, Variant::Optimized, &machine).expect("asp runs");
        (
            run.elapsed.as_nanos(),
            run.kernel.messages,
            run.checksum.to_bits(),
        )
    };
    assert_eq!(cell(), cell());
}
