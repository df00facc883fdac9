//! The predict pipeline: predicted fig3-style sensitivity sweeps, and
//! validation against the real simulator.
//!
//! One *recording* run per (app, variant) at a reference WAN point freezes
//! the communication DAG; every other grid point is then an analytic replay
//! — milliseconds instead of a full simulation. `--validate` re-simulates
//! the same grid through the cell runner the `fig3` target uses, so each
//! validated cell's simulated time is the one `BENCH_fig3.json` records
//! under the same key, and reports the model's relative error.

use std::fmt::Write as _;
use std::path::Path;

use numagap_apps::{pairs, AppId, SuiteConfig, Variant};
use numagap_model::{
    critical_path, gap_thresholds, record_app, replay, CommDag, GapThresholds, PathBreakdown,
    Replayer,
};
use numagap_net::{LinkParams, WanTopology};
use numagap_sim::SimDuration;

use crate::json;
use crate::targets::{grid_key, paper_grid, run_fig3_cells};
use crate::{engine, relative_speedup_pct, wan_machine_with, BenchError, CLUSTERS};

/// Version stamped into every `PREDICT_*.json`; bump on schema changes.
pub const PREDICT_SCHEMA_VERSION: u64 = 1;

/// Options for one predict run.
#[derive(Debug, Clone)]
pub struct PredictOpts {
    /// Applications to model (empty = the full suite).
    pub apps: Vec<AppId>,
    /// Restrict to one variant (default: the paper's variants per app).
    pub variant: Option<Variant>,
    /// Problem scale.
    pub scale: numagap_apps::Scale,
    /// Use the coarse quick grid.
    pub quick: bool,
    /// Worker threads for recording/validation cells.
    pub jobs: usize,
    /// WAN latency (ms) of the reference recording point.
    pub ref_latency_ms: f64,
    /// WAN bandwidth (MByte/s) of the reference recording point.
    pub ref_bandwidth_mbs: f64,
    /// Re-simulate every grid point and report model error.
    pub validate: bool,
    /// Mean relative error (percent, per app/variant) above which validation
    /// reports a finding.
    pub max_error_pct: f64,
    /// Wide-area wiring override for the recording machine and every
    /// replayed/validated grid point; `None` keeps the full mesh the paper
    /// baselines use. The analytic replay charges each transfer per route
    /// hop, so predictions stay aligned with the simulator under multi-hop
    /// shapes.
    pub wan_topology: Option<WanTopology>,
}

/// One grid point of one app/variant curve.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Canonical fig3-style cell key (`Water/optimized/lat10/bw0.3`).
    pub key: String,
    /// WAN latency of this point, ms.
    pub latency_ms: f64,
    /// WAN bandwidth of this point, MByte/s.
    pub bandwidth_mbs: f64,
    /// Model-predicted virtual makespan.
    pub predicted: SimDuration,
    /// Predicted relative speedup (percent of the single-Myrinet baseline).
    pub predicted_pct: f64,
    /// Simulated makespan (validation mode only).
    pub simulated: Option<SimDuration>,
    /// Simulated relative speedup (validation mode only).
    pub simulated_pct: Option<f64>,
    /// `|predicted - simulated| / simulated`, percent (validation only).
    pub rel_err_pct: Option<f64>,
}

/// Everything modelled for one (app, variant).
#[derive(Debug, Clone)]
pub struct AppOutcome {
    /// Application.
    pub app: AppId,
    /// Variant.
    pub variant: Variant,
    /// Simulated single-Myrinet baseline makespan (speedup denominator's
    /// counterpart; one real run).
    pub baseline: SimDuration,
    /// The reference recording run's simulated makespan.
    pub recorded: SimDuration,
    /// The replay of the recorded DAG under the recording spec itself — the
    /// model's identity check, ideally equal to `recorded`.
    pub replay_identity: SimDuration,
    /// Critical-path decomposition at the reference point.
    pub path: PathBreakdown,
    /// Thresholds read off the predicted curve.
    pub predicted_gap: GapThresholds,
    /// Thresholds read off the simulated curve (validation mode only).
    pub simulated_gap: Option<GapThresholds>,
    /// Mean relative error across the grid (validation mode only).
    pub mean_rel_err_pct: Option<f64>,
    /// Worst single-cell relative error (validation mode only).
    pub max_rel_err_pct: Option<f64>,
}

/// The full outcome of a predict run.
#[derive(Debug, Clone)]
pub struct PredictReport {
    /// Scale name (`small` / `medium` / `paper`).
    pub scale: String,
    /// Whether the coarse quick grid was used.
    pub quick: bool,
    /// Reference recording latency, ms.
    pub ref_latency_ms: f64,
    /// Reference recording bandwidth, MByte/s.
    pub ref_bandwidth_mbs: f64,
    /// Whether the grid was re-simulated.
    pub validated: bool,
    /// The validation error bar findings are judged against.
    pub max_error_pct: f64,
    /// Grid latencies, ms.
    pub latencies_ms: Vec<f64>,
    /// Grid bandwidths, MByte/s.
    pub bandwidths_mbs: Vec<f64>,
    /// Per-app/variant outcomes, in suite order.
    pub apps: Vec<AppOutcome>,
    /// Per-grid-point outcomes, in (app, variant, latency, bandwidth) order.
    pub cells: Vec<CellOutcome>,
    /// Accuracy findings (error above the bar, threshold disagreements).
    /// Non-empty maps to exit code 1 at the CLI.
    pub findings: Vec<String>,
}

/// Runs the full predict pipeline: record, replay the grid, optionally
/// validate against the simulator, and aggregate findings.
///
/// # Errors
///
/// Any recording or validation cell that fails to simulate (deadlock, time
/// limit, panic) aborts the run with [`BenchError::Sim`].
pub fn run_predict(opts: &PredictOpts) -> Result<PredictReport, BenchError> {
    let cfg = SuiteConfig::at(opts.scale);
    let pairs = pairs(&opts.apps, opts.variant);
    if pairs.is_empty() {
        return Err(BenchError::Sim(
            "no (app, variant) pair matches the selection".to_string(),
        ));
    }
    if let Some(t) = opts.wan_topology {
        t.validate(CLUSTERS)
            .map_err(|e| BenchError::Sim(format!("--topology: {e}")))?;
    }
    let (lats, bws) = paper_grid(opts.quick);

    // 1. One recording run per pair at the reference point, then the
    //    Figure 3 cells: one single-Myrinet baseline run per app (the
    //    speedup denominator) and, under `--validate`, every pair at every
    //    grid point on the recording's wiring.
    let ref_machine = wan_machine_with(
        opts.ref_latency_ms,
        opts.ref_bandwidth_mbs,
        opts.wan_topology,
    );
    let recordings = engine::run_cells(&pairs, opts.jobs, Some("record"), |_, &(app, v)| {
        record_app(app, &cfg, v, &ref_machine).map_err(|e| format!("{app}/{v}: {e}"))
    });
    let mut dags: Vec<CommDag> = Vec::with_capacity(pairs.len());
    let mut recorded: Vec<SimDuration> = Vec::with_capacity(pairs.len());
    for r in recordings {
        let (run, dag) = r.map_err(BenchError::Sim)?;
        recorded.push(run.elapsed);
        dags.push(dag);
    }
    let wirings: &[Option<WanTopology>] = if opts.validate {
        &[opts.wan_topology]
    } else {
        &[]
    };
    let sims = run_fig3_cells(&cfg, &pairs, wirings, opts.quick, opts.jobs, "simulate")?;

    // 2. Replay every grid point analytically (cheap, but embarrassingly
    //    parallel all the same). Every recording was made on the reference
    //    machine, so each worker keeps one replayer for that machine and
    //    asks it for whichever recording and point its next cell names.
    let mut grid_cells: Vec<(usize, f64, f64)> = Vec::new();
    for pi in 0..pairs.len() {
        for &lat in &lats {
            for &bw in &bws {
                grid_cells.push((pi, lat, bw));
            }
        }
    }
    let predicted = engine::run_cells_with(
        &grid_cells,
        opts.jobs,
        Some("predict"),
        || Replayer::new(ref_machine.spec()),
        |replayer, _, &(pi, lat, bw)| replayer.makespan(&dags[pi], LinkParams::wide_area(lat, bw)),
    );

    // 3. Identity replay + critical path at the reference point.
    let identity: Vec<_> = dags
        .iter()
        .map(|dag| {
            let rep = replay(dag, &dag.base_spec);
            let path = critical_path(dag, &dag.base_spec, &rep);
            (rep.elapsed, path)
        })
        .collect();

    // 4. Aggregate per cell and per pair; under `--validate` the grid
    //    runs line up with the replayed cells one for one.
    let mut report = PredictReport {
        scale: opts.scale.name().to_string(),
        quick: opts.quick,
        ref_latency_ms: opts.ref_latency_ms,
        ref_bandwidth_mbs: opts.ref_bandwidth_mbs,
        validated: opts.validate,
        max_error_pct: opts.max_error_pct,
        latencies_ms: lats.clone(),
        bandwidths_mbs: bws.clone(),
        apps: Vec::new(),
        cells: Vec::new(),
        findings: Vec::new(),
    };
    for (pi, &(app, v)) in pairs.iter().enumerate() {
        let baseline = sims.baseline(app);
        let mut pred_pct: Vec<Vec<f64>> = Vec::new();
        let mut sim_pct: Vec<Vec<f64>> = Vec::new();
        let mut err_sum = 0.0;
        let mut err_max = 0.0f64;
        let mut err_n = 0u32;
        for (li, &lat) in lats.iter().enumerate() {
            let mut pred_row = Vec::new();
            let mut sim_row = Vec::new();
            for (bi, &bw) in bws.iter().enumerate() {
                let idx = (pi * lats.len() + li) * bws.len() + bi;
                let predicted_d = predicted[idx];
                let predicted_pct = relative_speedup_pct(baseline, predicted_d);
                pred_row.push(predicted_pct);
                let mut cell = CellOutcome {
                    key: grid_key(app, v, lat, bw),
                    latency_ms: lat,
                    bandwidth_mbs: bw,
                    predicted: predicted_d,
                    predicted_pct,
                    simulated: None,
                    simulated_pct: None,
                    rel_err_pct: None,
                };
                if let Some(sim) = sims.grid.get(idx) {
                    let sim_d = sim.run.elapsed;
                    let simulated_pct = relative_speedup_pct(baseline, sim_d);
                    let err = 100.0 * (predicted_d.as_secs_f64() - sim_d.as_secs_f64()).abs()
                        / sim_d.as_secs_f64();
                    sim_row.push(simulated_pct);
                    err_sum += err;
                    err_max = err_max.max(err);
                    err_n += 1;
                    cell.simulated = Some(sim_d);
                    cell.simulated_pct = Some(simulated_pct);
                    cell.rel_err_pct = Some(err);
                }
                report.cells.push(cell);
            }
            pred_pct.push(pred_row);
            if !sim_row.is_empty() {
                sim_pct.push(sim_row);
            }
        }
        let predicted_gap = gap_thresholds(&lats, &bws, &pred_pct);
        let simulated_gap = (!sim_pct.is_empty()).then(|| gap_thresholds(&lats, &bws, &sim_pct));
        let mean_rel_err_pct = (err_n > 0).then(|| err_sum / f64::from(err_n));
        let (replay_identity, path) = identity[pi];
        if let Some(mean) = mean_rel_err_pct {
            if mean > opts.max_error_pct {
                report.findings.push(format!(
                    "{app}/{v}: mean relative error {mean:.2}% exceeds the {:.2}% bar",
                    opts.max_error_pct
                ));
            }
        }
        if let Some(sg) = simulated_gap {
            if sg != predicted_gap {
                let show = |x: Option<f64>| x.map_or_else(|| "none".to_string(), |v| v.to_string());
                report.findings.push(format!(
                    "{app}/{v}: tolerable-gap disagreement (predicted lat {} ms / bw {} MB/s, \
                     simulated lat {} ms / bw {} MB/s)",
                    show(predicted_gap.latency_ms),
                    show(predicted_gap.bandwidth_mbs),
                    show(sg.latency_ms),
                    show(sg.bandwidth_mbs)
                ));
            }
        }
        report.apps.push(AppOutcome {
            app,
            variant: v,
            baseline,
            recorded: recorded[pi],
            replay_identity,
            path,
            predicted_gap,
            simulated_gap,
            mean_rel_err_pct,
            max_rel_err_pct: (err_n > 0).then_some(err_max),
        });
    }
    Ok(report)
}

fn push_opt_f64(out: &mut String, key: &str, v: Option<f64>) {
    match v {
        Some(x) => {
            let _ = write!(out, "\"{key}\": {x}");
        }
        None => {
            let _ = write!(out, "\"{key}\": null");
        }
    }
}

impl PredictReport {
    /// Serializes to deterministic JSON: no wall-clock or worker-count
    /// fields, so repeated runs at any `--jobs` are byte-identical.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n\"schema\": {PREDICT_SCHEMA_VERSION},\n\"kind\": \"predict\",\n\
             \"target\": \"fig3\",\n\"scale\": \"{}\",\n\"quick\": {},\n\
             \"ref_latency_ms\": {},\n\"ref_bandwidth_mbs\": {},\n\
             \"validated\": {},\n\"max_error_pct\": {},\n",
            self.scale,
            self.quick,
            self.ref_latency_ms,
            self.ref_bandwidth_mbs,
            self.validated,
            self.max_error_pct
        );
        let join = |xs: &[f64]| xs.iter().map(f64::to_string).collect::<Vec<_>>().join(", ");
        let _ = write!(
            out,
            "\"latencies_ms\": [{}],\n\"bandwidths_mbs\": [{}],\n\"apps\": [\n",
            join(&self.latencies_ms),
            join(&self.bandwidths_mbs)
        );
        for (i, a) in self.apps.iter().enumerate() {
            let p = &a.path;
            let _ = write!(
                out,
                "{{\"app\": \"{}\", \"variant\": \"{}\", \"baseline_s\": {}, \
                 \"recorded_s\": {}, \"replay_identity_s\": {}, ",
                json::escape(&a.app.to_string()),
                a.variant,
                a.baseline.as_secs_f64(),
                a.recorded.as_secs_f64(),
                a.replay_identity.as_secs_f64()
            );
            let _ = write!(
                out,
                "\"critical_path\": {{\"total_s\": {}, \"compute_s\": {}, \
                 \"send_overhead_s\": {}, \"recv_overhead_s\": {}, \"intra_s\": {}, \
                 \"inter_latency_s\": {}, \"inter_bandwidth_s\": {}, \"gateway_s\": {}, \
                 \"queueing_s\": {}, \"path_msgs\": {}, \"path_inter_msgs\": {}}}, ",
                p.total.as_secs_f64(),
                p.compute.as_secs_f64(),
                p.send_overhead.as_secs_f64(),
                p.recv_overhead.as_secs_f64(),
                p.intra.as_secs_f64(),
                p.inter_latency.as_secs_f64(),
                p.inter_bandwidth.as_secs_f64(),
                p.gateway.as_secs_f64(),
                p.queueing.as_secs_f64(),
                p.path_msgs,
                p.path_inter_msgs
            );
            push_opt_f64(
                &mut out,
                "predicted_tolerable_latency_ms",
                a.predicted_gap.latency_ms,
            );
            out.push_str(", ");
            push_opt_f64(
                &mut out,
                "predicted_tolerable_bandwidth_mbs",
                a.predicted_gap.bandwidth_mbs,
            );
            out.push_str(", ");
            push_opt_f64(
                &mut out,
                "simulated_tolerable_latency_ms",
                a.simulated_gap.and_then(|g| g.latency_ms),
            );
            out.push_str(", ");
            push_opt_f64(
                &mut out,
                "simulated_tolerable_bandwidth_mbs",
                a.simulated_gap.and_then(|g| g.bandwidth_mbs),
            );
            out.push_str(", ");
            push_opt_f64(&mut out, "mean_rel_err_pct", a.mean_rel_err_pct);
            out.push_str(", ");
            push_opt_f64(&mut out, "max_rel_err_pct", a.max_rel_err_pct);
            out.push_str(if i + 1 == self.apps.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        out.push_str("],\n\"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"key\": \"{}\", \"latency_ms\": {}, \"bandwidth_mbs\": {}, \
                 \"predicted_ns\": {}, \"predicted_s\": {}, \"predicted_pct\": {}, ",
                json::escape(&c.key),
                c.latency_ms,
                c.bandwidth_mbs,
                c.predicted.as_nanos(),
                c.predicted.as_secs_f64(),
                c.predicted_pct
            );
            match c.simulated {
                Some(d) => {
                    let _ = write!(
                        out,
                        "\"simulated_ns\": {}, \"simulated_s\": {}, ",
                        d.as_nanos(),
                        d.as_secs_f64()
                    );
                }
                None => out.push_str("\"simulated_ns\": null, \"simulated_s\": null, "),
            }
            push_opt_f64(&mut out, "simulated_pct", c.simulated_pct);
            out.push_str(", ");
            push_opt_f64(&mut out, "rel_err_pct", c.rel_err_pct);
            out.push_str(if i + 1 == self.cells.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        out.push_str("],\n\"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", json::escape(f));
        }
        out.push_str("]\n}\n");
        out
    }

    /// Writes the deterministic predict artifact.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}
