//! Golden virtual-time regression suite.
//!
//! Every hot-path change to the kernel (scheduler handoff, mailbox layout,
//! event-queue buffering) must leave virtual time **bit-identical** — that
//! is the contract every committed benchmark baseline depends on. This
//! suite pins the exact makespan (nanoseconds), kernel message count, and
//! run checksum of all 11 app/variant combinations on four wide-area
//! machines against a committed golden file, `tests/golden/makespans.txt`.
//!
//! The same runs also pin what the kernel *did* to get there: every
//! [`HotProfile`] counter except the constant `park_wakes` (context
//! switches, event-queue traffic, mailbox scan work, bytes cloned) goes to
//! `tests/golden/counts.txt`. A hot-path change that keeps virtual time but
//! changes the work behind it (a mailbox walk that bypasses the tag index,
//! an event queue that stops using its front slot) moves only that file.
//!
//! Both files are read at runtime (not `include_str!`), so a regen and a
//! re-check in the same build agree. To regenerate both after an
//! *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p numagap-sim --test golden_makespan
//! ```
//!
//! and commit the diff — the diff itself is the review artifact showing
//! exactly which cells moved.

use std::fmt::Write as _;
use std::path::PathBuf;

use numagap_apps::{run_app, run_app_report, total_checksum, AppId, Scale, SuiteConfig, Variant};
use numagap_net::{
    das_spec, CrossTrafficPlan, HeteroPreset, LinkParams, LinkSchedule, Topology, TwoLayerSpec,
};
use numagap_rt::Machine;
use numagap_sim::{HotProfile, SchedMode, SimDuration};

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

const MAKESPANS: &str = "makespans.txt";
const COUNTS: &str = "counts.txt";

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(file)
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

/// The two golden files' contents, rendered from one run per cell.
#[derive(Default)]
struct Rendered {
    makespans: String,
    counts: String,
}

/// Every golden cell, each run once, with both files' header lines.
fn render() -> Rendered {
    let mut out = Rendered {
        makespans: "# preset app variant elapsed_ns messages checksum\n".to_string(),
        counts: "# preset app variant switches requests heap_pushes heap_pops front_pops \
                 queue_peak mailbox_scanned mailbox_indexed mailbox_fast bytes_cloned\n"
            .to_string(),
    };
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

/// Appends one line per cell to each file. A makespan line is `preset app
/// variant elapsed_ns messages checksum`; the checksum uses Rust's
/// shortest-roundtrip `{}` float formatting, so equality of the formatted
/// string is equality of the f64 bit pattern (modulo NaN, which no app
/// produces). A counts line is `preset app variant` and the [`HotProfile`]
/// counters in the header's order.
fn render_cells(out: &mut Rendered, machines: Vec<(&'static str, Machine)>) {
    let cfg = SuiteConfig::at(Scale::Small);
    for (preset, machine) in machines {
        for (app, variant) in combos() {
            if preset == "wan-16x16" && app == AppId::Fft {
                continue;
            }
            let run = run_app_report(app, &cfg, variant, &machine, None)
                .unwrap_or_else(|e| panic!("{app}/{variant} on {preset}: {e}"));
            writeln!(
                out.makespans,
                "{preset} {app} {variant} {} {} {}",
                run.elapsed.as_nanos(),
                run.kernel_stats.messages,
                total_checksum(&run.results)
            )
            .unwrap();
            let HotProfile {
                switches,
                requests,
                park_wakes: _,
                heap_pushes,
                heap_pops,
                front_pops,
                queue_peak,
                mailbox_scanned,
                mailbox_indexed,
                mailbox_fast,
                bytes_cloned,
            } = run.profile;
            writeln!(
                out.counts,
                "{preset} {app} {variant} {switches} {requests} {heap_pushes} {heap_pops} \
                 {front_pops} {queue_peak} {mailbox_scanned} {mailbox_indexed} {mailbox_fast} \
                 {bytes_cloned}"
            )
            .unwrap();
        }
    }
}

/// The drift of `actual` from the committed golden `file`, one
/// `golden:`/`actual:` pair per moved cell; empty when they are equal.
fn drift(file: &str, actual: &str) -> String {
    let path = golden_path(file);
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {}: {e}\n\
             run `UPDATE_GOLDEN=1 cargo test -p numagap-sim --test golden_makespan` \
             to (re)generate it",
            path.display()
        )
    });
    if golden == actual {
        return String::new();
    }
    let mut drift = String::new();
    // Diff line-by-line so a failure names the exact cells that moved
    // instead of dumping two 44-line blobs.
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
    format!("{file} drifted from the golden baseline:\n{drift}")
}

#[test]
fn makespans_match_golden() {
    let actual = render();
    let files = [(MAKESPANS, &actual.makespans), (COUNTS, &actual.counts)];
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        for (file, text) in files {
            let path = golden_path(file);
            std::fs::write(&path, text).expect("write golden file");
            println!("golden file regenerated at {}", path.display());
        }
        return;
    }
    let drift: String = files.iter().map(|(file, text)| drift(file, text)).collect();
    assert!(
        drift.is_empty(),
        "{drift}If this change to the timing model or the kernel's hot path is \
         intentional, regenerate with \
         `UPDATE_GOLDEN=1 cargo test -p numagap-sim --test golden_makespan` \
         and commit the diff."
    );
}

/// The thread-per-rank scheduler is what hosts without fiber support run
/// everything on, so it is pinned to the same goldens rather than left to a
/// `cfg` nobody exercises: the two 4x8 presets under
/// [`SchedMode::LegacyThreads`] must reproduce their committed lines, the
/// hot-path counts included ([`HotProfile`] does not depend on the mode).
#[test]
fn legacy_threads_reproduce_the_paper_machine_goldens() {
    let mut actual = Rendered::default();
    let machines = paper_machines()
        .into_iter()
        .map(|(preset, m)| (preset, m.with_sched_mode(SchedMode::LegacyThreads)))
        .collect();
    render_cells(&mut actual, machines);
    for (file, text) in [(MAKESPANS, actual.makespans), (COUNTS, actual.counts)] {
        let golden = std::fs::read_to_string(golden_path(file)).expect("read golden file");
        let pinned: String = golden
            .lines()
            .filter(|l| PRESETS.iter().any(|(preset, ..)| l.starts_with(preset)))
            .flat_map(|l| [l, "\n"])
            .collect();
        assert_eq!(text, pinned, "legacy 1:1 threads drifted from {file}");
    }
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
