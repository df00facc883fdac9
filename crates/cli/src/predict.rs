//! The `predict` command: fig3 sensitivity from one recorded run per app.

use numagap_apps::Scale;
use numagap_bench::engine;
use numagap_bench::predict::{run_predict, PredictOpts};

use crate::bench::out_dir;
use crate::flags::Values;
use crate::{EXIT_ERROR, EXIT_FINDINGS};

/// Formats an optional tolerable-gap threshold for the summary table.
fn show_gap(v: Option<f64>) -> String {
    v.map_or_else(|| "none".to_string(), |x| format!("{x}"))
}

/// Executes the `predict` command: records one observed run per app/variant
/// at the reference point, re-costs the recorded DAG across the fig3 grid,
/// and writes `PREDICT_fig3.json`.
pub(crate) fn execute_predict(args: &Values) -> i32 {
    let out = match out_dir("predict", args.out.as_deref()) {
        Ok(path) => path,
        Err(code) => return code,
    };
    let opts = PredictOpts {
        apps: args.apps.clone(),
        variant: args.variant,
        scale: args.scale.unwrap_or(Scale::Medium),
        quick: args.quick,
        jobs: args.jobs.unwrap_or_else(engine::default_jobs),
        ref_latency_ms: args.ref_latency,
        ref_bandwidth_mbs: args.ref_bandwidth,
        validate: args.validate,
        max_error_pct: args.max_error,
        wan_topology: args.topology,
    };
    let report = match run_predict(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("predict: {e}");
            return EXIT_ERROR;
        }
    };
    println!(
        "predicted fig3 sensitivity from one recorded run per app at \
         {} ms / {} MB/s ({} grid, {} scale)",
        report.ref_latency_ms,
        report.ref_bandwidth_mbs,
        if report.quick { "quick" } else { "full" },
        report.scale,
    );
    for a in &report.apps {
        let pct = |d: numagap_sim::SimDuration| {
            if a.path.total.is_zero() {
                0.0
            } else {
                100.0 * d.as_secs_f64() / a.path.total.as_secs_f64()
            }
        };
        println!(
            "  {}/{}: recorded {}, critical path {:.0}% compute, {:.0}% wide-area \
             ({} inter-cluster msgs)",
            a.app,
            a.variant,
            a.recorded,
            pct(a.path.compute),
            pct(a.path.inter_total()),
            a.path.path_inter_msgs,
        );
        print!(
            "    tolerable gap (predicted): latency <= {} ms, bandwidth >= {} MB/s",
            show_gap(a.predicted_gap.latency_ms),
            show_gap(a.predicted_gap.bandwidth_mbs),
        );
        match (a.mean_rel_err_pct, a.max_rel_err_pct) {
            (Some(mean), Some(max)) => {
                println!("; model error mean {mean:.2}% max {max:.2}%");
            }
            _ => println!(),
        }
    }
    let path = out.join("PREDICT_fig3.json");
    if let Err(e) = report.write(&path) {
        eprintln!("predict: cannot write {}: {e}", path.display());
        return EXIT_ERROR;
    }
    println!("wrote {}", path.display());
    if report.findings.is_empty() {
        println!("predict: clean");
        0
    } else {
        for finding in &report.findings {
            println!("  FINDING: {finding}");
        }
        println!("predict: {} finding(s)", report.findings.len());
        EXIT_FINDINGS
    }
}
