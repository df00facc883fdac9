//! The `hostile` target: a fixed matrix of hostile network scenarios and
//! the robustness scorecard it produces.
//!
//! The paper's sweeps vary only the WAN link parameters of an otherwise
//! pristine, homogeneous machine. Real multi-site deployments are messier:
//! clusters differ in compute speed and size, wide-area links carry other
//! people's traffic, and their quality drifts over the day. This target
//! re-runs every application (both variants) under five named scenarios —
//! all sharing the paper's 10 ms / 1 MByte/s operating point — and asks
//! whether each paper optimization *still wins* when the network turns
//! hostile:
//!
//! | Scenario | Machine |
//! |---|---|
//! | `clean` | the paper's 4x8, no interference |
//! | `slow-home` | 4x8, cluster 0 (sequencers/masters) at 0.4x compute |
//! | `cross` | 4x8, seeded cross-traffic occupying 50% of each WAN link |
//! | `wave` | 4x8, diurnal WAN quality: latency x3, bandwidth x0.33 |
//! | `storm` | 16+8+4+4 tiered clusters + 30% cross-traffic + diurnal WAN |
//!
//! Every scenario is a pure function of the fixed [`HOSTILE_SEED`], so the
//! committed `BENCH_hostile.json` baseline is compared exactly in CI
//! (`numagap bench --compare ... --virtual-only`), like the paper targets.

use numagap_apps::{run_app, AppId, SuiteConfig, Variant};
use numagap_net::{
    CrossTrafficPlan, HeteroPreset, LinkParams, LinkSchedule, Topology, TwoLayerSpec, WanTopology,
};
use numagap_rt::Machine;
use numagap_sim::SimDuration;

use crate::record::{BenchSummary, RunRecord};
use crate::targets::{sweep, variants, write_summary, SweepOpts};
use crate::{write_csv, BenchError};

/// WAN latency (ms) shared by every scenario — the paper's mid-grid point.
pub const HOSTILE_LATENCY_MS: f64 = 10.0;
/// WAN bandwidth (MByte/s) shared by every scenario.
pub const HOSTILE_BANDWIDTH_MBS: f64 = 1.0;
/// The seed every scenario's cross-traffic and schedule streams draw from.
pub const HOSTILE_SEED: u64 = 1;

/// One named hostile scenario.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    name: &'static str,
    what: &'static str,
    /// Explicit cluster sizes (equal sizes render as the symmetric label).
    sizes: &'static [usize],
    hetero: HeteroPreset,
    /// Cross-traffic intensity (0 disables the plan).
    cross: f64,
    /// Whether the diurnal WAN-quality wave is on.
    wave: bool,
}

/// The canonical scenario order (the committed baseline pins it).
const SCENARIOS: [Scenario; 5] = [
    Scenario {
        name: "clean",
        what: "4x8 homogeneous, no interference (the paper's machine)",
        sizes: &[8, 8, 8, 8],
        hetero: HeteroPreset::Uniform,
        cross: 0.0,
        wave: false,
    },
    Scenario {
        name: "slow-home",
        what: "4x8, home cluster (sequencers/masters) at 0.4x compute",
        sizes: &[8, 8, 8, 8],
        hetero: HeteroPreset::SlowHome,
        cross: 0.0,
        wave: false,
    },
    Scenario {
        name: "cross",
        what: "4x8, seeded cross-traffic occupying 50% of each WAN link",
        sizes: &[8, 8, 8, 8],
        hetero: HeteroPreset::Uniform,
        cross: 0.5,
        wave: false,
    },
    Scenario {
        name: "wave",
        what: "4x8, diurnal WAN: latency x3, bandwidth x0.33, 500 ms period",
        sizes: &[8, 8, 8, 8],
        hetero: HeteroPreset::Uniform,
        cross: 0.0,
        wave: true,
    },
    Scenario {
        name: "storm",
        what: "16+8+4+4 tiered clusters + 30% cross-traffic + diurnal WAN",
        sizes: &[16, 8, 4, 4],
        hetero: HeteroPreset::Tiered,
        cross: 0.3,
        wave: true,
    },
];

/// The interconnect spec of one scenario — a pure function of the scenario,
/// [`HOSTILE_SEED`], and the optional wide-area wiring override (`None`
/// keeps the full mesh, bit-identical to the committed baseline).
fn scenario_spec(s: &Scenario, wan: Option<WanTopology>) -> TwoLayerSpec {
    let topo = s.hetero.apply(Topology::new(s.sizes));
    let mut spec = TwoLayerSpec::new(topo).inter(LinkParams::wide_area(
        HOSTILE_LATENCY_MS,
        HOSTILE_BANDWIDTH_MBS,
    ));
    if let Some(t) = wan {
        spec = spec.wan_topology(t);
    }
    if s.cross > 0.0 {
        spec = spec.cross_traffic(CrossTrafficPlan::new(HOSTILE_SEED).intensity(s.cross));
    }
    if s.wave {
        spec = spec.link_schedule(
            LinkSchedule::diurnal(HOSTILE_SEED, SimDuration::from_millis(500))
                .latency_factor(3.0)
                .bandwidth_factor(0.33),
        );
    }
    spec
}

/// The optimization's win in a scenario: how much of the unoptimized
/// makespan the optimized variant saves, as a percentage (negative means
/// the optimization *hurts* there).
fn win_pct(unopt: f64, opt: f64) -> f64 {
    100.0 * (unopt - opt) / unopt
}

/// Runs the hostile target: the scenario x app x variant matrix through the
/// worker pool, a stdout robustness scorecard, `hostile.csv`, and
/// `BENCH_hostile.json`.
///
/// # Errors
///
/// Simulator failures in any cell and artifact I/O.
pub fn run_hostile(opts: &SweepOpts) -> Result<BenchSummary, BenchError> {
    let cfg = SuiteConfig::at(opts.scale);
    // Every scenario machine has 4 clusters, so one validation covers all.
    let wan = opts.checked_topology()?;
    let mut cells: Vec<(usize, AppId, Variant)> = Vec::new();
    for (si, _) in SCENARIOS.iter().enumerate() {
        for app in AppId::ALL {
            for &variant in variants(app) {
                cells.push((si, app, variant));
            }
        }
    }
    println!(
        "== hostile: robustness scorecard at {HOSTILE_LATENCY_MS} ms / \
         {HOSTILE_BANDWIDTH_MBS} MB/s (scale={:?}, jobs={}, {} cells) ==",
        opts.scale,
        opts.jobs,
        cells.len()
    );
    for s in &SCENARIOS {
        println!("   {:<10} {}", s.name, s.what);
    }
    let (outs, wall_s) = sweep(&cells, opts.jobs, "hostile", |&(si, app, variant)| {
        let machine = Machine::new(scenario_spec(&SCENARIOS[si], wan));
        let result = run_app(app, &cfg, variant, &machine).map_err(|e| e.to_string());
        let what = format!("{app}/{variant} under '{}'", SCENARIOS[si].name);
        (what, result)
    })?;
    let mut summary = BenchSummary::new("hostile", opts.scale.name(), opts.quick, opts.jobs);
    summary.wall_s = wall_s;
    let mut rows = Vec::new();
    // (scenario index, app, variant) -> makespan seconds, canonical order.
    let mut elapsed: Vec<(usize, AppId, Variant, f64)> = Vec::new();
    for (&(si, app, variant), (run, wall)) in cells.iter().zip(&outs) {
        let s = &SCENARIOS[si];
        elapsed.push((si, app, variant, run.elapsed.as_secs_f64()));
        rows.push(format!(
            "{app},{variant},{},{:.6},{},{}",
            s.name,
            run.elapsed.as_secs_f64(),
            run.net.inter_msgs,
            run.net.cross_msgs
        ));
        summary.records.push(RunRecord::from_run(
            format!("{app}/{variant}/{}", s.name),
            *wall,
            run,
        ));
    }
    let time_of = |si: usize, app: AppId, variant: Variant| {
        elapsed
            .iter()
            .find(|&&(s, a, v, _)| s == si && a == app && v == variant)
            .map(|&(_, _, _, t)| t)
            .expect("cell enumerated")
    };

    // The scorecard: does each paper optimization still win per scenario?
    println!(
        "\noptimization win per scenario (unoptimized -> optimized makespan \
         reduction, % of unoptimized; negative = the optimization hurts):"
    );
    print!("{:<12}", "Program");
    for s in &SCENARIOS {
        print!(" {:>10}", s.name);
    }
    println!();
    for app in AppId::ALL {
        if !app.has_optimized() {
            continue;
        }
        print!("{:<12}", app.to_string());
        for si in 0..SCENARIOS.len() {
            let w = win_pct(
                time_of(si, app, Variant::Unoptimized),
                time_of(si, app, Variant::Optimized),
            );
            print!(" {w:>9.1}%");
        }
        println!();
    }
    println!("  (fft has no optimized variant and is excluded from the scorecard)");

    // The headline question: ASP's sequencer migration moves the sequencer
    // off the home cluster — does it still win when that cluster is slow?
    let asp_clean = win_pct(
        time_of(0, AppId::Asp, Variant::Unoptimized),
        time_of(0, AppId::Asp, Variant::Optimized),
    );
    let slow_si = SCENARIOS
        .iter()
        .position(|s| s.name == "slow-home")
        .expect("scenario listed");
    let asp_slow = win_pct(
        time_of(slow_si, AppId::Asp, Variant::Unoptimized),
        time_of(slow_si, AppId::Asp, Variant::Optimized),
    );
    println!(
        "\n  asp sequencer migration: {asp_clean:.1}% win on the clean machine, \
         {asp_slow:.1}% with a slow home cluster -> {}",
        if asp_slow > 0.0 {
            "still wins"
        } else {
            "no longer wins"
        }
    );

    write_csv(
        &opts.out,
        "hostile.csv",
        "app,variant,scenario,elapsed_s,inter_msgs,cross_msgs",
        &rows,
    )?;
    write_summary(&summary, opts)?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{compare, CompareOpts};
    use numagap_apps::Scale;

    fn opts(dir: &std::path::Path) -> SweepOpts {
        SweepOpts {
            scale: Scale::Small,
            quick: false,
            jobs: 4,
            out: dir.to_path_buf(),
            topology: None,
        }
    }

    #[test]
    fn scenario_specs_are_valid_and_storm_is_asymmetric() {
        for s in &SCENARIOS {
            let spec = scenario_spec(s, None);
            assert_eq!(spec.topology.nclusters(), 4, "{}", s.name);
            assert_eq!(spec.topology.nprocs(), 32, "{}", s.name);
        }
        let storm = scenario_spec(&SCENARIOS[4], None);
        assert_eq!(storm.topology.label(), "16+8+4+4");
        assert!(storm.topology.is_heterogeneous());
        assert!(storm.cross_traffic.is_some());
        assert!(storm.link_schedule.is_some());
        let clean = scenario_spec(&SCENARIOS[0], None);
        assert_eq!(clean.topology.label(), "4x8");
        assert!(clean.cross_traffic.is_none() && clean.link_schedule.is_none());
    }

    #[test]
    fn scenario_specs_compose_with_routed_links() {
        // PR 7's hostile plans (cross-traffic, diurnal schedule, tiered
        // asymmetric clusters) must compose with a routed wide-area layer.
        let storm = scenario_spec(&SCENARIOS[4], Some(WanTopology::Ring));
        assert_eq!(storm.wan_topology, WanTopology::Ring);
        assert!(storm.cross_traffic.is_some() && storm.link_schedule.is_some());
        let clean = scenario_spec(&SCENARIOS[0], Some(WanTopology::FatTree { pod: 2 }));
        assert_eq!(clean.wan_topology, WanTopology::FatTree { pod: 2 });
        // Building the machine exercises the virtual-switch sizing.
        let _ = Machine::new(clean);
    }

    #[test]
    fn hostile_sweep_is_deterministic_and_scores_every_pair() {
        let dir = std::env::temp_dir().join("numagap-hostile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = run_hostile(&opts(&dir)).unwrap();
        let b = run_hostile(&opts(&dir)).unwrap();
        // 5 scenarios x (5 apps x 2 variants + fft) cells.
        assert_eq!(a.records.len(), SCENARIOS.len() * 11);
        let rep = compare(
            &a,
            &b,
            &CompareOpts {
                wall_clock: false,
                ..CompareOpts::default()
            },
        );
        assert!(rep.is_clean(), "{:?}", rep.findings);
        let loaded = BenchSummary::load(&dir.join("BENCH_hostile.json")).unwrap();
        assert_eq!(loaded, b);
        // Hostile scenarios are strictly slower than clean for every pair.
        for app in AppId::ALL {
            for &variant in variants(app) {
                let t = |name: &str| {
                    a.records
                        .iter()
                        .find(|r| r.key == format!("{app}/{variant}/{name}"))
                        .unwrap()
                        .virtual_s
                };
                assert!(
                    t("storm") > t("clean"),
                    "{app}/{variant}: storm {} !> clean {}",
                    t("storm"),
                    t("clean")
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
