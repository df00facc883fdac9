//! The `topo` target: the fig3 sensitivity grid re-run per wide-area
//! topology, answering the ROADMAP question — which cluster-aware
//! optimizations survive multi-hop contention?
//!
//! The paper's wide-area layer is a fully connected mesh, so every
//! inter-cluster message has a private link and the sensitivity results in
//! fig1/fig3 never see shared intermediate hops. This target re-runs the
//! fig3 latency × bandwidth grid on the paper's 4×8 machine under each
//! shape of the canonical list below, recording both the fig3 metric
//! (relative speedup vs the all-Myrinet cluster) and the fig1 traffic
//! metrics per cell, then prints a scorecard at the 10 ms / 0.3 MB/s
//! operating point: how much of the unoptimized makespan each paper
//! optimization still saves per topology.
//!
//! Every cell is a pure deterministic simulation, so `topo.csv` and
//! `BENCH_topo.json` are byte-identical for any `--jobs` value and the
//! committed quick baseline is compared exactly in CI
//! (`numagap bench --compare ... --virtual-only`).

use numagap_apps::{pairs, AppId, SuiteConfig, Variant};
use numagap_net::WanTopology;

use crate::record::{BenchSummary, RunRecord};
use crate::targets::{paper_grid, run_fig3_cells, write_summary, SweepOpts};
use crate::{relative_speedup_pct, write_csv, BenchError};

/// WAN latency (ms) of the scorecard's operating point — present in both
/// the quick and the full fig3 grid.
pub const TOPO_SCORE_LATENCY_MS: f64 = 10.0;
/// WAN bandwidth (MByte/s) of the scorecard's operating point.
pub const TOPO_SCORE_BANDWIDTH_MBS: f64 = 0.3;

/// The canonical shape list for the paper's 4-cluster machine, in sweep
/// order (the committed baseline pins it). The 3D torus needs 8 clusters
/// and is reachable via `--topology torus:2x2x2 --clusters 8` instead.
pub fn canonical_shapes() -> Vec<WanTopology> {
    vec![
        WanTopology::FullMesh,
        WanTopology::Star { hub: 0 },
        WanTopology::Ring,
        WanTopology::Line,
        WanTopology::Torus2d { x: 2, y: 2 },
        WanTopology::FatTree { pod: 2 },
        WanTopology::Dragonfly { groups: 2 },
    ]
}

/// Runs the topo target: baselines plus the shapes × apps × variants ×
/// grid matrix through the worker pool, a per-topology fig3 table and the
/// hop-contention scorecard on stdout, `topo.csv`, and `BENCH_topo.json`.
/// With `--topology` the sweep restricts to that single shape.
///
/// # Errors
///
/// An invalid `--topology` for the 4-cluster machine, simulator failures
/// in any cell, and artifact I/O.
pub fn run_topo(opts: &SweepOpts) -> Result<BenchSummary, BenchError> {
    let cfg = SuiteConfig::at(opts.scale);
    let shapes = match opts.checked_topology()? {
        Some(t) => vec![t],
        None => canonical_shapes(),
    };
    let pairs = pairs(&AppId::ALL, None);
    let (lats, bws) = paper_grid(opts.quick);
    println!("== topo: fig3 sensitivity per wide-area topology ==");
    println!(
        "   scale={:?} quick={} jobs={} machine=4x8, grid {}x{}, {} shapes, {} cells",
        opts.scale,
        opts.quick,
        opts.jobs,
        lats.len(),
        bws.len(),
        shapes.len(),
        AppId::ALL.len() + shapes.len() * pairs.len() * lats.len() * bws.len()
    );
    for t in &shapes {
        println!("   {}", t.label());
    }
    let wirings: Vec<_> = shapes.iter().copied().map(Some).collect();
    let runs = run_fig3_cells(&cfg, &pairs, &wirings, opts.quick, opts.jobs, "topo")?;
    let mut summary = BenchSummary::new("topo", opts.scale.name(), opts.quick, opts.jobs);
    summary.wall_s = runs.wall_s;
    summary.records.extend(runs.baseline_records());

    let mut rows = Vec::new();
    // (shape index, app, variant) -> makespan seconds at the scorecard
    // point, canonical order.
    let mut score: Vec<(usize, AppId, Variant, f64)> = Vec::new();
    for g in &runs.grid {
        let (run, lat, bw) = (&g.run, g.latency_ms, g.bandwidth_mbs);
        let shape = shapes[g.wiring].flag();
        let pct = relative_speedup_pct(runs.baseline(run.app), run.elapsed);
        rows.push(format!(
            "{shape},{},{},{lat},{bw},{pct:.2},{:.6},{:.4},{}",
            run.app,
            run.variant,
            run.elapsed.as_secs_f64(),
            run.inter_mbs_per_cluster,
            run.net.inter_msgs
        ));
        summary.records.push(RunRecord::from_run(
            format!("{shape}/{}", g.key()),
            g.wall_s,
            run,
        ));
        if lat == TOPO_SCORE_LATENCY_MS && bw == TOPO_SCORE_BANDWIDTH_MBS {
            score.push((g.wiring, run.app, run.variant, run.elapsed.as_secs_f64()));
        }
    }
    let time_of = |ti: usize, app: AppId, variant: Variant| {
        score
            .iter()
            .find(|&&(t, a, v, _)| t == ti && a == app && v == variant)
            .map(|&(_, _, _, s)| s)
            .expect("scorecard point is on every grid")
    };

    // Per-topology fig3 view at the scorecard point: relative speedup of
    // the surviving variant, per shape.
    println!(
        "\nrelative speedup at {TOPO_SCORE_LATENCY_MS} ms / \
         {TOPO_SCORE_BANDWIDTH_MBS} MB/s (optimized where available, % of \
         the all-Myrinet runtime; higher is better):"
    );
    print!("{:<12}", "Program");
    for t in &shapes {
        print!(" {:>11}", t.flag());
    }
    println!();
    for app in AppId::ALL {
        let variant = if app.has_optimized() {
            Variant::Optimized
        } else {
            Variant::Unoptimized
        };
        print!("{:<12}", app.to_string());
        for ti in 0..shapes.len() {
            let tl = runs.baseline(app).as_secs_f64();
            let pct = 100.0 * tl / time_of(ti, app, variant);
            print!(" {pct:>10.1}%");
        }
        println!();
    }

    // The scorecard: does each paper optimization survive hop contention?
    println!(
        "\noptimization win per topology (unoptimized -> optimized makespan \
         reduction, % of unoptimized; negative = the optimization hurts):"
    );
    print!("{:<12}", "Program");
    for t in &shapes {
        print!(" {:>11}", t.flag());
    }
    println!();
    for app in AppId::ALL {
        if !app.has_optimized() {
            continue;
        }
        print!("{:<12}", app.to_string());
        for ti in 0..shapes.len() {
            let unopt = time_of(ti, app, Variant::Unoptimized);
            let opt = time_of(ti, app, Variant::Optimized);
            let w = 100.0 * (unopt - opt) / unopt;
            print!(" {w:>10.1}%");
        }
        println!();
    }
    println!("  (fft has no optimized variant and is excluded from the scorecard)");

    write_csv(
        &opts.out,
        "topo.csv",
        "topology,app,variant,latency_ms,bandwidth_mbs,rel_speedup_pct,elapsed_s,\
         inter_mbs_per_cluster,inter_msgs",
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

    fn opts(dir: &std::path::Path, topology: Option<WanTopology>) -> SweepOpts {
        SweepOpts {
            scale: Scale::Small,
            quick: true,
            jobs: 4,
            out: dir.to_path_buf(),
            topology,
        }
    }

    #[test]
    fn canonical_shapes_fit_the_paper_machine() {
        for shape in canonical_shapes() {
            shape
                .validate(crate::CLUSTERS)
                .expect("shape fits 4 clusters");
        }
        // The scorecard point is on both grids.
        for quick in [false, true] {
            let (lats, bws) = paper_grid(quick);
            assert!(lats.contains(&TOPO_SCORE_LATENCY_MS));
            assert!(bws.contains(&TOPO_SCORE_BANDWIDTH_MBS));
        }
    }

    #[test]
    fn misfit_topology_is_a_sim_error() {
        let dir = std::env::temp_dir().join("numagap-topo-err-test");
        std::fs::create_dir_all(&dir).unwrap();
        let err = run_topo(&opts(&dir, Some(WanTopology::Torus2d { x: 3, y: 2 })));
        match err {
            Err(BenchError::Sim(msg)) => assert!(msg.contains("--topology"), "{msg}"),
            other => panic!("expected a Sim error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn topo_sweep_is_deterministic_over_a_single_shape() {
        let dir = std::env::temp_dir().join("numagap-topo-test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = run_topo(&opts(&dir, Some(WanTopology::Ring))).unwrap();
        let b = run_topo(&opts(&dir, Some(WanTopology::Ring))).unwrap();
        // 6 baselines + 11 app/variants x 3x3 quick grid x 1 shape.
        assert_eq!(a.records.len(), 6 + 11 * 9);
        let rep = compare(
            &a,
            &b,
            &CompareOpts {
                wall_clock: false,
                ..CompareOpts::default()
            },
        );
        assert!(rep.is_clean(), "{:?}", rep.findings);
        let loaded = BenchSummary::load(&dir.join("BENCH_topo.json")).unwrap();
        assert_eq!(loaded, b);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
