//! The experiment table ([`TARGETS`]) and the sweeps behind Table 1 and
//! Figures 1/3/4. `numagap bench --target <name|all>` is the only way to
//! run an experiment; DESIGN.md §6 maps every paper claim to its target.
//!
//! Each target enumerates its cells in a fixed canonical order, fans them
//! across the [`crate::engine`] worker pool, then renders stdout tables,
//! the CSV artifact and the versioned `BENCH_<target>.json` summary from
//! the collected results — so every artifact is byte-identical no matter
//! how many workers ran the sweep (wall-clock fields in the JSON excepted).

use std::path::PathBuf;
use std::time::Instant;

use numagap_apps::{run_app, AppId, AppRun, Scale, SuiteConfig, Variant};
use numagap_net::{
    uniform_spec, WanTopology, FIG1_BANDWIDTH_MBS, FIG1_LATENCY_MS, FIG4_FIXED_BANDWIDTH_MBS,
    FIG4_FIXED_LATENCY_MS, PAPER_BANDWIDTHS_MBS, PAPER_LATENCIES_MS,
};
use numagap_rt::Machine;

use crate::record::{BenchSummary, RunRecord};
use crate::{
    baseline_machine, comm_time_pct, engine, print_grid, relative_speedup_pct, wan_machine_with,
    write_csv, BenchError,
};

/// One experiment: a named sweep that prints its tables and writes its CSV
/// and `BENCH_<name>.json` artifacts into [`SweepOpts::out`].
#[derive(Debug)]
pub struct Target {
    /// The `--target` spelling, also the stem of the artifact names.
    pub name: &'static str,
    /// One line for the usage text: what the target regenerates.
    pub about: &'static str,
    /// Runs the sweep.
    pub run: fn(&SweepOpts) -> Result<BenchSummary, BenchError>,
}

/// Every experiment this crate can name, in the order `--target all` runs
/// them. (The CLI appends `serve`, which lives downstream of this crate.)
pub static TARGETS: [Target; 11] = [
    Target {
        name: "table1",
        about: "Table 1 single-cluster speedups, traffic and runtime (+ Table 2)",
        run: run_table1,
    },
    Target {
        name: "fig1",
        about: "Figure 1 inter-cluster volume vs message rate",
        run: run_fig1,
    },
    Target {
        name: "fig3",
        about: "Figure 3 relative speedup over the bandwidth x latency grid",
        run: run_fig3,
    },
    Target {
        name: "fig4",
        about: "Figure 4 communication-time share vs bandwidth / latency",
        run: run_fig4,
    },
    Target {
        name: "hostile",
        about: "robustness scorecard: slow clusters, cross-traffic, diurnal WAN",
        run: crate::hostile::run_hostile,
    },
    Target {
        name: "topo",
        about: "fig3 grid per wide-area topology (--topology restricts to one)",
        run: crate::topo::run_topo,
    },
    Target {
        name: "scale",
        about: "simulator scaling sweep 4x8 -> 64x64 (32 -> 4096 ranks)",
        run: crate::scale::run_scale,
    },
    Target {
        name: "magpie",
        about: "section 6: 14 collectives flat vs cluster-aware, scan ladder, kernel",
        run: crate::magpie::run_magpie,
    },
    Target {
        name: "structure",
        about: "section 5.1: cluster shapes 2x16 .. 16x2 and mesh/star/ring at 8x4",
        run: crate::structure::run_structure,
    },
    Target {
        name: "ablations",
        about: "six design-choice studies (combining, gateway cost, sequencer, ...)",
        run: crate::ablations::run_ablations,
    },
    Target {
        name: "selfperf",
        about: "simulator hot-path profile (HotProfile counters per synthetic cell)",
        run: crate::selfperf::run_selfperf,
    },
];

/// Options for one engine-backed sweep.
#[derive(Debug, Clone)]
pub struct SweepOpts {
    /// Problem scale.
    pub scale: Scale,
    /// Use the coarse quick grid.
    pub quick: bool,
    /// Worker threads.
    pub jobs: usize,
    /// Output directory for CSV + JSON artifacts.
    pub out: PathBuf,
    /// Maintain a progress line on stderr.
    pub progress: bool,
    /// Wide-area wiring override (`--topology`). `None` keeps each target's
    /// default: the paper targets run the DAS full mesh bit-identically to
    /// builds without this field, and the `topo` target sweeps its whole
    /// canonical shape list. `Some` re-wires the paper/hostile sweep
    /// machines, and restricts `topo` to that single shape.
    pub topology: Option<WanTopology>,
}

impl SweepOpts {
    /// Validates the topology override against the paper machine's cluster
    /// count and returns it.
    ///
    /// # Errors
    ///
    /// [`BenchError::Sim`] (exit code 2 at the CLI) when the requested
    /// shape does not fit [`crate::CLUSTERS`] clusters.
    pub fn checked_topology(&self) -> Result<Option<WanTopology>, BenchError> {
        if let Some(t) = self.topology {
            t.validate(crate::CLUSTERS)
                .map_err(|e| BenchError::Sim(format!("--topology: {e}")))?;
        }
        Ok(self.topology)
    }

    pub(crate) fn scale_name(&self) -> String {
        format!("{:?}", self.scale).to_ascii_lowercase()
    }

    pub(crate) fn label<'a>(&self, name: &'a str) -> Option<&'a str> {
        if self.progress {
            Some(name)
        } else {
            None
        }
    }
}

/// The variants the paper reports for an app (FFT has no optimized one).
pub fn variants(app: AppId) -> &'static [Variant] {
    if app.has_optimized() {
        &[Variant::Unoptimized, Variant::Optimized]
    } else {
        &[Variant::Unoptimized]
    }
}

/// The variant Figure 4 measures: the surviving (optimized where found) one.
pub(crate) fn surviving_variant(app: AppId) -> Variant {
    if app.has_optimized() {
        Variant::Optimized
    } else {
        Variant::Unoptimized
    }
}

/// The Figure 3/4 grid: the paper's full 7x6, or the coarse quick one.
/// Shared with `numagap-model`'s predict sweep so predicted and simulated
/// curves cover identical (latency, bandwidth) points.
pub fn paper_grid(quick: bool) -> (Vec<f64>, Vec<f64>) {
    if quick {
        (vec![0.5, 10.0, 300.0], vec![6.3, 0.3, 0.03])
    } else {
        (PAPER_LATENCIES_MS.to_vec(), PAPER_BANDWIDTHS_MBS.to_vec())
    }
}

/// Runs every cell through the engine; the first failing cell (in cell
/// order) aborts the sweep with the name its closure gave it — before the
/// caller has rendered or written anything. Each result carries its
/// wall-clock seconds, and the whole sweep's come back beside them: the
/// stopwatch lives here, so a target built on `sweep` never reads the clock.
pub(crate) fn sweep<C: Sync, R: Send>(
    cells: &[C],
    opts: &SweepOpts,
    label: &str,
    run: impl Fn(&C) -> (String, Result<R, String>) + Sync,
) -> Result<(Vec<(R, f64)>, f64), BenchError> {
    let t0 = Instant::now();
    let outs = engine::run_cells(cells, opts.jobs, opts.label(label), |_, cell| {
        let start = Instant::now();
        let (what, result) = run(cell);
        (what, result, start.elapsed().as_secs_f64())
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let outs: Result<Vec<_>, _> = outs
        .into_iter()
        .map(|(what, result, wall)| match result {
            Ok(run) => Ok((run, wall)),
            Err(e) => Err(BenchError::Sim(format!("{what} failed: {e}"))),
        })
        .collect();
    Ok((outs?, wall_s))
}

pub(crate) fn app_cell(
    app: AppId,
    cfg: &SuiteConfig,
    variant: Variant,
    machine: &Machine,
) -> (String, Result<AppRun, String>) {
    (
        format!("{app}/{variant}"),
        run_app(app, cfg, variant, machine).map_err(|e| e.to_string()),
    )
}

/// Figure 3: 12 panels of relative speedup across the bandwidth × latency
/// grid, all (baseline + grid) cells fanned across the worker pool.
pub fn run_fig3(opts: &SweepOpts) -> Result<BenchSummary, BenchError> {
    enum Cell {
        Base(AppId),
        Grid(AppId, Variant, f64, f64),
    }
    let cfg = SuiteConfig::at(opts.scale);
    let topology = opts.checked_topology()?;
    let (lats, bws) = paper_grid(opts.quick);
    let mut cells = Vec::new();
    for app in AppId::ALL {
        cells.push(Cell::Base(app));
    }
    for app in AppId::ALL {
        for &variant in variants(app) {
            for &lat in &lats {
                for &bw in &bws {
                    cells.push(Cell::Grid(app, variant, lat, bw));
                }
            }
        }
    }
    println!("== Figure 3: speedup relative to an all-Myrinet cluster ==");
    println!(
        "   scale={:?} quick={} jobs={} machine=4x8, grid {}x{}, {} cells",
        opts.scale,
        opts.quick,
        opts.jobs,
        lats.len(),
        bws.len(),
        cells.len()
    );
    let (outs, wall_s) = sweep(&cells, opts, "fig3", |cell| match *cell {
        Cell::Base(app) => app_cell(app, &cfg, Variant::Unoptimized, &baseline_machine()),
        Cell::Grid(app, variant, lat, bw) => {
            app_cell(app, &cfg, variant, &wan_machine_with(lat, bw, topology))
        }
    })?;
    let mut summary = BenchSummary::new("fig3", opts.scale_name(), opts.quick, opts.jobs);
    summary.wall_s = wall_s;

    // Baselines land first (enumeration order).
    let mut base = Vec::new();
    for (cell, (run, wall)) in cells.iter().zip(&outs) {
        if let Cell::Base(app) = cell {
            base.push((*app, run.elapsed));
            summary
                .records
                .push(RunRecord::from_run(format!("baseline/{app}"), *wall, run));
        }
    }
    let baseline_of = |app: AppId| {
        base.iter()
            .find(|(a, _)| *a == app)
            .expect("baseline ran")
            .1
    };

    // Render panels and rows in canonical cell order.
    let mut rows = Vec::new();
    let mut grid_cells: Vec<Vec<f64>> = Vec::new();
    let mut grid_row: Vec<f64> = Vec::new();
    for (cell, (run, wall)) in cells.iter().zip(&outs) {
        let Cell::Grid(app, variant, lat, bw) = cell else {
            continue;
        };
        let tl = baseline_of(*app);
        if *variant == Variant::Unoptimized
            && grid_cells.is_empty()
            && grid_row.is_empty()
            && *lat == lats[0]
            && *bw == bws[0]
        {
            println!("\n{app}: all-Myrinet 32p runtime {:.3}s", tl.as_secs_f64());
        }
        let pct = relative_speedup_pct(tl, run.elapsed);
        rows.push(format!(
            "{app},{variant},{lat},{bw},{pct:.2},{:.6}",
            run.elapsed.as_secs_f64()
        ));
        summary.records.push(RunRecord::from_run(
            format!("{app}/{variant}/lat{lat}/bw{bw}"),
            *wall,
            run,
        ));
        grid_row.push(pct);
        if grid_row.len() == bws.len() {
            grid_cells.push(std::mem::take(&mut grid_row));
            if grid_cells.len() == lats.len() {
                print_grid(
                    &format!("{app}, {variant}, 32 processors, 4 clusters"),
                    &lats,
                    &bws,
                    &grid_cells,
                )?;
                grid_cells.clear();
            }
        }
    }
    write_csv(
        &opts.out,
        "fig3.csv",
        "app,variant,latency_ms,bandwidth_mbs,rel_speedup_pct,elapsed_s",
        &rows,
    )?;
    write_summary(&summary, opts)?;
    Ok(summary)
}

/// Figure 4: communication-time share — bandwidth sweep at a fixed latency
/// and latency sweep at a fixed bandwidth, surviving variants.
pub fn run_fig4(opts: &SweepOpts) -> Result<BenchSummary, BenchError> {
    enum Cell {
        Base(AppId),
        Bw(AppId, f64),
        Lat(AppId, f64),
    }
    let cfg = SuiteConfig::at(opts.scale);
    let topology = opts.checked_topology()?;
    let (lats, bws) = paper_grid(opts.quick);
    let mut cells = Vec::new();
    for app in AppId::ALL {
        cells.push(Cell::Base(app));
    }
    for app in AppId::ALL {
        for &bw in &bws {
            cells.push(Cell::Bw(app, bw));
        }
    }
    for app in AppId::ALL {
        for &lat in &lats {
            cells.push(Cell::Lat(app, lat));
        }
    }
    println!(
        "== Figure 4: inter-cluster communication time (scale={:?}, jobs={}) ==",
        opts.scale, opts.jobs
    );
    let (outs, wall_s) = sweep(&cells, opts, "fig4", |cell| match *cell {
        Cell::Base(app) => app_cell(app, &cfg, Variant::Unoptimized, &baseline_machine()),
        Cell::Bw(app, bw) => app_cell(
            app,
            &cfg,
            surviving_variant(app),
            &wan_machine_with(FIG4_FIXED_LATENCY_MS, bw, topology),
        ),
        Cell::Lat(app, lat) => app_cell(
            app,
            &cfg,
            surviving_variant(app),
            &wan_machine_with(lat, FIG4_FIXED_BANDWIDTH_MBS, topology),
        ),
    })?;
    let mut summary = BenchSummary::new("fig4", opts.scale_name(), opts.quick, opts.jobs);
    summary.wall_s = wall_s;
    let mut base = Vec::new();
    for (cell, (run, wall)) in cells.iter().zip(&outs) {
        if let Cell::Base(app) = cell {
            base.push((*app, run.elapsed));
            summary
                .records
                .push(RunRecord::from_run(format!("baseline/{app}"), *wall, run));
        }
    }
    let baseline_of = |app: AppId| {
        base.iter()
            .find(|(a, _)| *a == app)
            .expect("baseline ran")
            .1
    };

    let mut rows = Vec::new();
    println!("\n-- left: sweep bandwidth at {FIG4_FIXED_LATENCY_MS} ms latency --");
    println!("{:<12} comm% per bandwidth (descending MB/s)", "Program");
    let mut current: Option<AppId> = None;
    for (cell, (run, wall)) in cells.iter().zip(&outs) {
        let Cell::Bw(app, bw) = cell else { continue };
        if current != Some(*app) {
            if current.is_some() {
                println!();
            }
            print!("{:<12}", app.to_string());
            current = Some(*app);
        }
        let pct = comm_time_pct(baseline_of(*app), run.elapsed);
        print!(" {pct:>6.1}%");
        rows.push(format!(
            "{app},bandwidth_sweep,{FIG4_FIXED_LATENCY_MS},{bw},{pct:.2}"
        ));
        summary.records.push(RunRecord::from_run(
            format!("{app}/bw{bw}@lat{FIG4_FIXED_LATENCY_MS}"),
            *wall,
            run,
        ));
    }
    println!();
    println!("\n-- right: sweep latency at {FIG4_FIXED_BANDWIDTH_MBS} MB/s --");
    println!("{:<12} comm% per latency (ascending ms)", "Program");
    let mut current: Option<AppId> = None;
    for (cell, (run, wall)) in cells.iter().zip(&outs) {
        let Cell::Lat(app, lat) = cell else { continue };
        if current != Some(*app) {
            if current.is_some() {
                println!();
            }
            print!("{:<12}", app.to_string());
            current = Some(*app);
        }
        let pct = comm_time_pct(baseline_of(*app), run.elapsed);
        print!(" {pct:>6.1}%");
        rows.push(format!(
            "{app},latency_sweep,{lat},{FIG4_FIXED_BANDWIDTH_MBS},{pct:.2}"
        ));
        summary.records.push(RunRecord::from_run(
            format!("{app}/lat{lat}@bw{FIG4_FIXED_BANDWIDTH_MBS}"),
            *wall,
            run,
        ));
    }
    println!();
    write_csv(
        &opts.out,
        "fig4.csv",
        "app,sweep,latency_ms,bandwidth_mbs,comm_time_pct",
        &rows,
    )?;
    write_summary(&summary, opts)?;
    Ok(summary)
}

/// Table 1: single-cluster speedups (1, 8, 32 processors) per app, plus the
/// static Table 2 listing.
pub fn run_table1(opts: &SweepOpts) -> Result<BenchSummary, BenchError> {
    let cfg = SuiteConfig::at(opts.scale);
    let procs = [1usize, 8, 32];
    let mut cells = Vec::new();
    for app in AppId::ALL {
        for &p in &procs {
            cells.push((app, p));
        }
    }
    println!(
        "== Table 1: single-cluster performance (scale={:?}, jobs={}) ==\n",
        opts.scale, opts.jobs
    );
    let (outs, wall_s) = sweep(&cells, opts, "table1", |&(app, p)| {
        app_cell(
            app,
            &cfg,
            Variant::Unoptimized,
            &Machine::new(uniform_spec(p)),
        )
    })?;
    let mut summary = BenchSummary::new("table1", opts.scale_name(), opts.quick, opts.jobs);
    summary.wall_s = wall_s;
    for (&(app, p), (run, wall)) in cells.iter().zip(&outs) {
        summary
            .records
            .push(RunRecord::from_run(format!("{app}/p{p}"), *wall, run));
    }
    let run_of = |app: AppId, p: usize| {
        let idx = cells
            .iter()
            .position(|&c| c == (app, p))
            .expect("cell enumerated");
        &outs[idx].0
    };
    println!(
        "{:<12} {:>12} {:>12} {:>16} {:>14}",
        "Program", "Speedup 32p", "Speedup 8p", "Traffic MB/s@32", "Runtime 32p(s)"
    );
    let mut rows = Vec::new();
    for app in AppId::ALL {
        let serial = run_of(app, 1);
        let p8 = run_of(app, 8);
        let p32 = run_of(app, 32);
        let s8 = serial.elapsed.as_secs_f64() / p8.elapsed.as_secs_f64();
        let s32 = serial.elapsed.as_secs_f64() / p32.elapsed.as_secs_f64();
        println!(
            "{:<12} {:>12.1} {:>12.1} {:>16.2} {:>14.3}",
            app.to_string(),
            s32,
            s8,
            p32.total_mbs,
            p32.elapsed.as_secs_f64()
        );
        rows.push(format!(
            "{app},{s32:.2},{s8:.2},{:.3},{:.6},{:.6}",
            p32.total_mbs,
            p32.elapsed.as_secs_f64(),
            serial.elapsed.as_secs_f64()
        ));
    }
    write_csv(
        &opts.out,
        "table1.csv",
        "app,speedup32,speedup8,traffic_mbs_32,runtime32_s,runtime1_s",
        &rows,
    )?;
    println!("\n== Table 2: communication patterns and optimizations ==\n");
    println!(
        "{:<12} {:<28} {:<30}",
        "Program", "Communication", "Optimization"
    );
    for app in AppId::ALL {
        println!(
            "{:<12} {:<28} {:<30}",
            app.to_string(),
            app.pattern(),
            app.optimization()
        );
    }
    write_summary(&summary, opts)?;
    Ok(summary)
}

/// Figure 1: inter-cluster volume vs message rate for the original
/// programs at the 0.5 ms / 6 MB/s operating point.
pub fn run_fig1(opts: &SweepOpts) -> Result<BenchSummary, BenchError> {
    let cfg = SuiteConfig::at(opts.scale);
    let topology = opts.checked_topology()?;
    let cells = AppId::ALL.to_vec();
    println!(
        "== Figure 1: inter-cluster traffic, 4 clusters x 8, link {} ms / {} MB/s \
         (scale={:?}, jobs={}) ==\n",
        FIG1_LATENCY_MS, FIG1_BANDWIDTH_MBS, opts.scale, opts.jobs
    );
    let (outs, wall_s) = sweep(&cells, opts, "fig1", |&app| {
        app_cell(
            app,
            &cfg,
            Variant::Unoptimized,
            &wan_machine_with(FIG1_LATENCY_MS, FIG1_BANDWIDTH_MBS, topology),
        )
    })?;
    let mut summary = BenchSummary::new("fig1", opts.scale_name(), opts.quick, opts.jobs);
    summary.wall_s = wall_s;
    println!(
        "{:<12} {:>16} {:>16} {:>12}",
        "Program", "Volume MB/s/clus", "Messages/s/clus", "Runtime (s)"
    );
    let mut rows = Vec::new();
    for (app, (run, wall)) in cells.iter().zip(&outs) {
        println!(
            "{:<12} {:>16.3} {:>16.0} {:>12.3}",
            app.to_string(),
            run.inter_mbs_per_cluster,
            run.inter_msgs_per_cluster,
            run.elapsed.as_secs_f64()
        );
        rows.push(format!(
            "{app},{:.4},{:.1},{:.6}",
            run.inter_mbs_per_cluster,
            run.inter_msgs_per_cluster,
            run.elapsed.as_secs_f64()
        ));
        summary.records.push(RunRecord::from_run(
            format!("{app}/unoptimized"),
            *wall,
            run,
        ));
    }
    write_csv(
        &opts.out,
        "fig1.csv",
        "app,inter_mbs_per_cluster,inter_msgs_per_sec_per_cluster,elapsed_s",
        &rows,
    )?;
    write_summary(&summary, opts)?;
    Ok(summary)
}

pub(crate) fn write_summary(summary: &BenchSummary, opts: &SweepOpts) -> Result<(), BenchError> {
    let path = opts.out.join(format!("BENCH_{}.json", summary.target));
    summary.write(&path)?;
    println!("  [wrote {}]", path.display());
    Ok(())
}
