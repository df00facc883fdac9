//! The `structure` target (§5.1): with a fully connected wide-area network,
//! more and smaller clusters *increase* bisection bandwidth, so a setup of 8
//! clusters of 4 outperforms 4 clusters of 8 (and so on) despite replacing
//! fast links with slow ones — and the paper's caveat that the advantage
//! "will diminish, and disappear in star, ring, or bus topologies", checked
//! by re-running the 8x4 shape under each wiring.
//!
//! The sweep sets both the cluster shape and the wiring itself, so it
//! ignores `--topology`; `--quick` is recorded but the grid is fixed.

use numagap_apps::{run_app, AppId, SuiteConfig};
use numagap_net::{das_spec, TwoLayerSpec, WanTopology};
use numagap_rt::Machine;

use crate::record::{BenchSummary, RunRecord};
use crate::targets::{surviving_variant, sweep, write_summary, SweepOpts};
use crate::{write_csv, BenchError};

/// A bandwidth-limited operating point, where the effect lives.
const LATENCY_MS: f64 = 1.0;
/// Wide-area bandwidth of every cell, MByte/s.
const BANDWIDTH_MBS: f64 = 0.3;

/// One table and CSV: every app on each of a few 32-processor machines.
struct Panel {
    title: &'static str,
    /// What varies across the panel's machines; part of the record keys.
    varies: &'static str,
    csv: &'static str,
    header: &'static str,
    /// Rows end with the run's inter-cluster message count.
    msgs: bool,
    /// `(table label, CSV columns, machine)` per column.
    machines: Vec<(String, String, TwoLayerSpec)>,
}

fn panels() -> [Panel; 2] {
    let spec = |c, per| das_spec(c, per, LATENCY_MS, BANDWIDTH_MBS);
    let shapes = [(2usize, 16usize), (4, 8), (8, 4), (16, 2)];
    let wirings = [
        WanTopology::FullMesh,
        WanTopology::Star { hub: 0 },
        WanTopology::Ring,
    ];
    [
        Panel {
            title: "cluster shape, full mesh",
            varies: "shape",
            csv: "cluster_structure.csv",
            header: "app,clusters,procs_per_cluster,elapsed_s,inter_msgs",
            msgs: true,
            machines: (shapes.iter())
                .map(|&(c, per)| (format!("{c}x{per}"), format!("{c},{per}"), spec(c, per)))
                .collect(),
        },
        Panel {
            title: "WAN wiring at 8 clusters x 4",
            varies: "wiring",
            csv: "wan_topology.csv",
            header: "app,wan_topology,elapsed_s",
            msgs: false,
            machines: (wirings.iter())
                .map(|&t| (t.label(), t.label(), spec(8, 4).wan_topology(t)))
                .collect(),
        },
    ]
}

/// Runs the `structure` target.
///
/// # Errors
///
/// A failed cell ([`BenchError::Sim`], naming it) and artifact I/O.
pub fn run_structure(opts: &SweepOpts) -> Result<BenchSummary, BenchError> {
    let cfg = SuiteConfig::at(opts.scale);
    let panels = panels();
    // Panel by panel, app by app, machine by machine: the rendering order.
    let mut cells = Vec::new();
    for panel in &panels {
        for app in AppId::ALL {
            for (label, _, spec) in &panel.machines {
                cells.push((format!("{app}/{}/{label}", panel.varies), app, spec));
            }
        }
    }
    println!(
        "== Cluster structure: 32 processors, WAN {LATENCY_MS} ms / {BANDWIDTH_MBS} MB/s \
         (scale={:?}, jobs={}, {} cells) ==",
        opts.scale,
        opts.jobs,
        cells.len()
    );
    let (outs, wall_s) = sweep(&cells, opts.jobs, "structure", |(key, app, spec)| {
        let machine = Machine::new((*spec).clone());
        let run = run_app(*app, &cfg, surviving_variant(*app), &machine);
        (format!("structure/{key}"), run.map_err(|e| e.to_string()))
    })?;
    let mut summary = BenchSummary::new("structure", opts.scale.name(), opts.quick, opts.jobs);
    summary.wall_s = wall_s;
    for ((key, ..), (run, wall)) in cells.iter().zip(&outs) {
        summary
            .records
            .push(RunRecord::from_run(key.clone(), *wall, run));
    }
    let mut runs = outs.iter().map(|(run, _)| run);
    let mut csvs = Vec::new();
    for panel in &panels {
        print!("\n-- {}: runtime (s) --\n{:<12}", panel.title, "Program");
        for (label, ..) in &panel.machines {
            print!(" {label:>12}");
        }
        let mut rows = Vec::new();
        for app in AppId::ALL {
            print!("\n{:<12}", app.to_string());
            for (_, columns, _) in &panel.machines {
                let run = runs.next().expect("one run per enumerated cell");
                let secs = run.elapsed.as_secs_f64();
                print!(" {secs:>12.3}");
                rows.push(match panel.msgs {
                    true => format!("{app},{columns},{secs:.6},{}", run.net.inter_msgs),
                    false => format!("{app},{columns},{secs:.6}"),
                });
            }
        }
        println!();
        csvs.push((panel, rows));
    }
    for (panel, rows) in &csvs {
        write_csv(&opts.out, panel.csv, panel.header, rows)?;
    }
    write_summary(&summary, opts)?;
    Ok(summary)
}
