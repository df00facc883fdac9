//! The `ablations` target: the design choices DESIGN.md calls out, each
//! isolated on the paper's 4x8 machine (EXPERIMENTS.md reads the results).
//!
//! 1. Awari combining threshold — the paper's "too much message combining
//!    results in load imbalance" tradeoff.
//! 2. Gateway per-message CPU cost — the mechanism that makes combining
//!    profitable at all.
//! 3. Barnes-Hut: message combining vs barrier relaxation, isolated.
//! 4. ASP: fixed sequencer vs migrating sequencer vs no sequencer (the
//!    paper's "drop the sequencer altogether" suggestion).
//! 5. Wide-area latency *variation* (the paper's further-work question).
//! 6. A real Awari endgame-database build vs wide-area latency: its
//!    round-synchronous structure makes it the most latency-sensitive
//!    workload in the repository.
//!
//! Problem sizes follow `--scale`; the grids are fixed (`--quick` is
//! recorded only). One CSV per study, one `BENCH_ablations.json` for all.

use std::fmt::Write as _;

use numagap_apps::asp::{asp_rank, AspConfig};
use numagap_apps::awari::{awari_rank, AwariConfig};
use numagap_apps::awari_real::{awari_real_rank, AwariRealConfig};
use numagap_apps::barnes::{barnes_rank, BarnesConfig};
use numagap_apps::water::{water_rank, WaterConfig};
use numagap_apps::{total_checksum, Scale, SuiteConfig, Variant};
use numagap_net::{das_spec, TwoLayerSpec};
use numagap_rt::Machine;
use numagap_sim::SimDuration;

use crate::record::{BenchSummary, RunRecord};
use crate::targets::{sweep, write_summary, SweepOpts};
use crate::{write_csv, BenchError, CLUSTERS, PROCS_PER_CLUSTER};

/// The rank program of one cell.
#[derive(Debug, Clone)]
enum Job {
    Awari(AwariConfig, Variant),
    Barnes(BarnesConfig, Variant),
    Asp(AspConfig, Variant),
    Water(WaterConfig, Variant),
    RealAwari(AwariRealConfig),
}

/// One simulation: a column of one study row.
struct Cell {
    /// Column name within the row; empty when the row has one cell.
    col: &'static str,
    spec: TwoLayerSpec,
    job: Job,
}

/// One study: a CSV whose every row is `x`, then the runtime of each of the
/// row's cells.
struct Study {
    title: &'static str,
    /// Artifact stem: `ablation_<stem>.csv`, and the prefix of record keys.
    stem: &'static str,
    header: &'static str,
    /// Also append the row's (first cell's) inter-cluster message count.
    msgs: bool,
    /// Also append the first cell's runtime over the second's.
    gain: bool,
    rows: Vec<(String, Vec<Cell>)>,
}

fn paper_spec(latency_ms: f64, bandwidth_mbs: f64) -> TwoLayerSpec {
    das_spec(CLUSTERS, PROCS_PER_CLUSTER, latency_ms, bandwidth_mbs)
}

fn cell(col: &'static str, spec: TwoLayerSpec, job: Job) -> Cell {
    Cell { col, spec, job }
}

fn studies(scale: Scale) -> Vec<Study> {
    let cfg = SuiteConfig::at(scale);
    let (unopt, opt) = (Variant::Unoptimized, Variant::Optimized);
    let awari = |combine| AwariConfig {
        combine,
        ..cfg.awari.clone()
    };
    let gateway = |us, col, variant| {
        let mut spec = paper_spec(0.5, 6.3);
        spec.gateway_overhead = SimDuration::from_micros(us);
        cell(col, spec, Job::Awari(cfg.awari.clone(), variant))
    };
    let barnes = |variant, force_barrier| {
        let barnes = BarnesConfig {
            force_barrier,
            ..cfg.barnes.clone()
        };
        vec![cell(
            "",
            paper_spec(10.0, 1.0),
            Job::Barnes(barnes, variant),
        )]
    };
    let asp = |col, lat, variant, skip_sequencer| {
        let asp = AspConfig {
            skip_sequencer,
            ..cfg.asp.clone()
        };
        cell(col, paper_spec(lat, 1.0), Job::Asp(asp, variant))
    };
    let real_awari = AwariRealConfig {
        max_stones: match scale {
            Scale::Small => 4,
            Scale::Medium => 5,
            Scale::Paper => 6,
        },
        ..AwariRealConfig::small()
    };
    vec![
        Study {
            title: "Awari combining threshold (optimized, 3.3 ms / 1 MB/s)",
            stem: "awari_combine",
            header: "combine,elapsed_s,inter_msgs",
            msgs: true,
            gain: false,
            rows: ([1usize, 4, 16, 64, 256].into_iter())
                .map(|c| {
                    let job = Job::Awari(awari(c), opt);
                    (c.to_string(), vec![cell("", paper_spec(3.3, 1.0), job)])
                })
                .collect(),
        },
        Study {
            title: "gateway per-message CPU cost (Awari, 0.5 ms / 6.3 MB/s)",
            stem: "gateway",
            header: "gateway_us,unopt_s,opt_s,gain",
            msgs: false,
            gain: true,
            rows: ([0u64, 30, 60, 120, 240].into_iter())
                .map(|us| {
                    let pair = vec![gateway(us, "unopt", unopt), gateway(us, "opt", opt)];
                    (us.to_string(), pair)
                })
                .collect(),
        },
        Study {
            title: "Barnes-Hut optimization split (10 ms / 1 MB/s)",
            stem: "barnes",
            header: "config,elapsed_s",
            msgs: false,
            gain: false,
            rows: vec![
                ("unoptimized".to_string(), barnes(unopt, false)),
                ("cluster_combining_only".to_string(), barnes(opt, true)),
                ("full_optimized".to_string(), barnes(opt, false)),
            ],
        },
        Study {
            title: "ASP ordering modes (bandwidth 1 MB/s)",
            stem: "asp_sequencer",
            header: "latency_ms,fixed_s,migrating_s,none_s",
            msgs: false,
            gain: false,
            rows: ([0.5, 10.0, 100.0].into_iter())
                .map(|lat| {
                    let modes = vec![
                        asp("fixed", lat, unopt, false),
                        asp("migrating", lat, opt, false),
                        asp("none", lat, opt, true),
                    ];
                    (lat.to_string(), modes)
                })
                .collect(),
        },
        Study {
            title: "wide-area latency variation (Water opt, 30 ms mean / 1 MB/s)",
            stem: "jitter",
            header: "jitter,elapsed_s",
            msgs: false,
            gain: false,
            rows: ([0.0, 0.25, 0.5, 0.9].into_iter())
                .map(|jitter: f64| {
                    let spec = paper_spec(30.0, 1.0).wan_latency_jitter(jitter);
                    let job = Job::Water(cfg.water.clone(), opt);
                    (jitter.to_string(), vec![cell("", spec, job)])
                })
                .collect(),
        },
        Study {
            title: "real Awari database build (1 MB/s)",
            stem: "real_awari",
            header: "latency_ms,elapsed_s,inter_msgs",
            msgs: true,
            gain: false,
            rows: ([0.5, 3.3, 10.0, 30.0].into_iter())
                .map(|lat: f64| {
                    let job = Job::RealAwari(real_awari.clone());
                    (lat.to_string(), vec![cell("", paper_spec(lat, 1.0), job)])
                })
                .collect(),
        },
    ]
}

/// Runs the `ablations` target.
///
/// # Errors
///
/// A failed cell ([`BenchError::Sim`], naming it) and artifact I/O.
pub fn run_ablations(opts: &SweepOpts) -> Result<BenchSummary, BenchError> {
    let studies = studies(opts.scale);
    // Every study's cells, keyed `<stem>/<x>[/<col>]`, in rendering order.
    let mut cells = Vec::new();
    for study in &studies {
        for (x, row) in &study.rows {
            for cell in row {
                let col = if cell.col.is_empty() { "" } else { "/" };
                cells.push((format!("{}/{x}{col}{}", study.stem, cell.col), cell));
            }
        }
    }
    println!(
        "== Ablations: {} design-choice studies on the 4x8 machine \
         (scale={:?}, jobs={}, {} cells) ==",
        studies.len(),
        opts.scale,
        opts.jobs,
        cells.len()
    );
    let (outs, wall_s) = sweep(&cells, opts, "ablations", |(key, cell)| {
        let machine = Machine::new(cell.spec.clone());
        // An input is generated once a cell, outside the ranks.
        let run = match cell.job.clone() {
            Job::Awari(cfg, variant) => machine.run(move |ctx| awari_rank(ctx, &cfg, variant)),
            Job::Barnes(cfg, variant) => {
                let bodies = cfg.generate();
                machine.run(move |ctx| barnes_rank(ctx, &cfg, &bodies, variant))
            }
            Job::Asp(cfg, variant) => {
                let matrix = cfg.generate();
                machine.run(move |ctx| asp_rank(ctx, &cfg, &matrix, variant))
            }
            Job::Water(cfg, variant) => {
                let molecules = cfg.generate();
                machine.run(move |ctx| water_rank(ctx, &cfg, &molecules, variant))
            }
            Job::RealAwari(cfg) => machine.run(move |ctx| awari_real_rank(ctx, &cfg)),
        }
        .map_err(|e| e.to_string());
        (format!("ablations/{key}"), run)
    })?;
    let mut summary = BenchSummary::new("ablations", opts.scale_name(), opts.quick, opts.jobs);
    summary.wall_s = wall_s;
    for ((key, _), (report, wall)) in cells.iter().zip(&outs) {
        let checksum = total_checksum(&report.results);
        summary
            .records
            .push(RunRecord::from_report(key.clone(), *wall, checksum, report));
    }
    // The studies consume the records in cell order.
    let mut records = summary.records.iter();
    let mut csvs = Vec::new();
    for study in &studies {
        println!("\n-- {} --\n{}", study.title, study.header);
        let mut rows = Vec::new();
        for (x, cells) in &study.rows {
            let recs: Vec<&RunRecord> = records.by_ref().take(cells.len()).collect();
            let mut row = x.clone();
            for r in &recs {
                let _ = write!(row, ",{:.6}", r.virtual_s);
            }
            if study.msgs {
                let _ = write!(row, ",{}", recs[0].inter_msgs);
            }
            if study.gain {
                let _ = write!(row, ",{:.3}", recs[0].virtual_s / recs[1].virtual_s);
            }
            println!("{row}");
            rows.push(row);
        }
        csvs.push((format!("ablation_{}.csv", study.stem), study.header, rows));
    }
    for (name, header, rows) in &csvs {
        write_csv(&opts.out, name, header, rows)?;
    }
    write_summary(&summary, opts)?;
    Ok(summary)
}
