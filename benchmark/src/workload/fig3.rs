//! `fig3_sweep`: the paper's own experiment at the paper's own scale — the
//! quick/small Figure 3 sweep on the 4x8 machine, 105 cells and 434 363
//! kernel events per pass, run in-process through the CLI's `parse` +
//! `execute` exactly as `numagap bench` would. The kernel handoff, the
//! runtime and the applications' real compute do almost all of the work;
//! the model and the service do none.

use std::path::Path;
use std::time::Instant;

use numagap_apps::{run_app_report, total_checksum, AppId, Scale, SuiteConfig, Variant};
use numagap_bench::record::{BenchSummary, RunRecord};
use numagap_bench::targets::{paper_grid, variants};
use numagap_bench::{baseline_machine, wan_machine_with};

use super::{Budget, Opts};
use crate::probes::Probes;
use crate::report::Report;
use crate::trace::Tracer;
use crate::{oracle, stats};

pub const NAME: &str = "fig3_sweep";

/// 105 cells a pass support p90 (10.5 samples beyond) from the first pass.
const TAIL_PERCENTILE: f64 = 90.0;

/// The sweep, as a user would type it after `numagap`; `--out` is appended.
pub const SWEEP_ARGS: [&str; 8] = [
    "bench", "--target", "fig3", "--scale", "small", "--quick", "--jobs", "1",
];
const SETUP_ARGS: [&str; 8] = [
    "bench", "--target", "table1", "--scale", "small", "--quick", "--jobs", "1",
];

/// A smoke run drives every sixth cell: 18 of 105, every app among them.
const SMOKE_STRIDE: usize = 6;

/// Ranks of the paper's 4x8 machine; every cell spawns this many.
const RANKS_PER_CELL: f64 = 32.0;

/// Runs one `numagap` command line in-process; host seconds, or why not.
fn cli(args: &[&str], out: &Path) -> Result<f64, String> {
    let out = out.to_str().ok_or("output path is not UTF-8")?;
    let mut argv = args.to_vec();
    argv.extend(["--out", out]);
    let start = Instant::now();
    let command = numagap_cli::parse(&argv).map_err(|e| format!("parse {argv:?}: {}", e.0))?;
    match numagap_cli::execute(command) {
        0 => Ok(start.elapsed().as_secs_f64()),
        code => Err(format!("{argv:?} exited with {code}")),
    }
}

fn setup_once(out: &Path, report: &mut Report) -> f64 {
    let start = Instant::now();
    report.op(cli(&SETUP_ARGS, out).map(|_| ()));
    start.elapsed().as_secs_f64()
}

/// One pass through the CLI. Checks every cell of the written
/// `BENCH_fig3.json` against the oracle; returns the pass's host seconds
/// and its records.
fn cli_pass(
    out: &Path,
    expected: &[oracle::Expected],
    report: &mut Report,
) -> (f64, Vec<RunRecord>) {
    let start = Instant::now();
    let ran = cli(&SWEEP_ARGS, out);
    let wall = start.elapsed().as_secs_f64();
    let records = ran
        .and_then(|_| BenchSummary::load(&out.join("BENCH_fig3.json")))
        .map(|summary| summary.records);
    match records {
        Ok(records) => {
            for outcome in oracle::check_fig3(expected, &records) {
                report.op(outcome);
            }
            (wall, records)
        }
        Err(why) => {
            report.op(Err(format!("fig3 pass produced no summary: {why}")));
            (wall, Vec::new())
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Cell {
    Base(AppId),
    Grid(AppId, Variant, f64, f64),
}

/// The sweep's cells in the order `numagap_bench::targets::run_fig3`
/// enumerates them; the oracle's key check catches any drift.
fn cells() -> Vec<Cell> {
    let (lats, bws) = paper_grid(true);
    let mut cells: Vec<Cell> = AppId::ALL.into_iter().map(Cell::Base).collect();
    for app in AppId::ALL {
        for &variant in variants(app) {
            for &lat in &lats {
                for &bw in &bws {
                    cells.push(Cell::Grid(app, variant, lat, bw));
                }
            }
        }
    }
    cells
}

/// What a driven pass hands back: its host seconds, the records it wrote,
/// and the counts the budget needs, summed over the driven cells.
#[derive(Debug, Default)]
struct Driven {
    wall_s: f64,
    records: Vec<RunRecord>,
    switches: u64,
    messages: u64,
    inter_msgs: u64,
}

/// Drives every `stride`-th cell of the sweep from the benchmark's own code
/// — span per cell, with `machine_build` (net spec + `Machine::new`),
/// `run_app` (apps -> rt -> sim) and `record` inside, then `summary_emit` —
/// and checks each driven cell against the oracle.
fn driven_pass(
    stride: usize,
    out: &Path,
    expected: &[oracle::Expected],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Driven {
    let cfg = SuiteConfig::at(Scale::Small);
    let mut summary = BenchSummary::new("fig3", "small".to_string(), true, 1);
    let mut counts = Driven::default();
    // Trace track 0 is the pass; cell `i` of the sweep is track `i + 1`.
    let pass = tracer.begin("pass", 0, None);
    for (i, cell) in cells().into_iter().enumerate().step_by(stride) {
        let op = i + 1;
        let span = tracer.begin("cell", op, Some(pass));
        let (key, app, variant, machine) = tracer.scope("machine_build", op, span, || match cell {
            Cell::Base(app) => (
                format!("baseline/{app}"),
                app,
                Variant::Unoptimized,
                baseline_machine(),
            ),
            Cell::Grid(app, variant, lat, bw) => (
                format!("{app}/{variant}/lat{lat}/bw{bw}"),
                app,
                variant,
                wan_machine_with(lat, bw, None),
            ),
        });
        let run_span = tracer.begin("run_app", op, Some(span));
        let outcome = run_app_report(app, &cfg, variant, &machine, None);
        tracer.end(run_span);
        let wall_s = tracer.spans()[run_span].dur_ns() as f64 / 1e9;
        let checked = match outcome {
            Ok(run) => {
                counts.switches += run.profile.switches;
                counts.messages += run.kernel_stats.messages;
                counts.inter_msgs += run.net_stats.inter_msgs;
                // What `RunRecord::from_run` builds from an `AppRun`; taken
                // from the full report here because only the report carries
                // the `HotProfile` the budget counts switches from.
                let record = tracer.scope("record", op, span, || RunRecord {
                    key,
                    wall_s,
                    virtual_s: run.elapsed.as_secs_f64(),
                    checksum: total_checksum(&run.results),
                    kernel: run.kernel_stats,
                    intra_msgs: run.net_stats.intra_msgs,
                    intra_bytes: run.net_stats.intra_payload_bytes,
                    inter_msgs: run.net_stats.inter_msgs,
                    inter_bytes: run.net_stats.inter_payload_bytes,
                    seed: run.effective_seed(),
                    profile: None,
                    sim_threads: None,
                });
                let checked = expected[i].check_record(&record);
                summary.records.push(record);
                checked
            }
            Err(e) => Err(format!("cell {key}: {e}")),
        };
        tracer.end(span);
        report.op(checked);
    }
    let written = tracer.scope("summary_emit", 0, pass, || {
        summary.write(&out.join("BENCH_fig3_driven.json"))
    });
    tracer.end(pass);
    report.op(written.map_err(|e| format!("writing the driven summary: {e}")));
    Driven {
        wall_s: tracer.spans()[pass].dur_ns() as f64 / 1e9,
        records: summary.records,
        ..counts
    }
}

pub fn run(opts: &Opts, report: &mut Report) {
    report.note("fixed grid: --seed is not used by this workload");
    let out = opts.out_dir.join(NAME);
    let expected = oracle::fig3_cells();
    let setups: Vec<f64> = (0..opts.setup_reps())
        .map(|_| setup_once(&out, report))
        .collect();
    report.metric(
        "setup_s",
        stats::median(&setups),
        &format!("untimed table1 sweep, n={}", setups.len()),
    );

    let timed = Instant::now();
    let mut passes = Vec::new();
    let mut records: Vec<Vec<RunRecord>> = Vec::new();
    if opts.smoke {
        // A full pass does not fit a smoke run: every 6th cell, same checks.
        let driven = driven_pass(SMOKE_STRIDE, &out, &expected, &mut Tracer::new(), report);
        passes.push(driven.wall_s);
        records.push(driven.records);
    }
    // A pass is never cut short. Another one starts while at least half of
    // it still fits the time asked for.
    while !opts.smoke
        && (passes.is_empty()
            || timed.elapsed().as_secs_f64() + 0.5 * stats::median(&passes) <= opts.seconds)
    {
        let (wall, pass_records) = cli_pass(&out, &expected, report);
        report.info("pass_s", wall, "s", &format!("pass {}", passes.len() + 1));
        passes.push(wall);
        records.push(pass_records);
    }
    let events: u64 = records.iter().flatten().map(|r| r.kernel.events).sum();
    // The tail is about which *cells* are slow (Awari and TSP are), not
    // about which moments of the host were: each cell counts once, at its
    // best time over the passes.
    let cells = records.iter().map(Vec::len).min().unwrap_or(0);
    let mut cell_ms: Vec<f64> = (0..cells)
        .map(|i| {
            records
                .iter()
                .map(|pass| pass[i].wall_s * 1e3)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    if cell_ms.is_empty() {
        // Already counted as a failed op; keep the report well-formed.
        cell_ms.push(f64::NAN);
    }
    report.timings(
        &passes,
        "pass of 105 cells",
        &cell_ms,
        TAIL_PERCENTILE,
        1,
        "cell, best of its passes",
    );
    report.info(
        "cell_ms_p50",
        stats::median(&cell_ms),
        "ms",
        "median cell; the cells differ by app, so it moves in steps",
    );
    report.metric(
        "work_per_s",
        events as f64 / passes.iter().sum::<f64>(),
        &format!(
            "kernel events per host second over {} pass(es)",
            passes.len()
        ),
    );
}

/// The traced run: one pass through the CLI untraced, one driven pass under
/// spans, their difference, and the estimated budget of the traced pass.
pub fn run_traced(opts: &Opts, report: &mut Report, probes: &Probes) -> Tracer {
    let out = opts.out_dir.join(NAME);
    let expected = oracle::fig3_cells();
    setup_once(&out, report);
    let stride = if opts.smoke { SMOKE_STRIDE } else { 1 };
    let mut tracer = Tracer::new();

    let plain_s = if opts.smoke {
        driven_pass(stride, &out, &expected, &mut Tracer::new(), report).wall_s
    } else {
        cli_pass(&out, &expected, report).0
    };
    let counts = driven_pass(stride, &out, &expected, &mut tracer, report);
    let traced_s = counts.wall_s;
    report.metric(
        "trace.overhead_pct",
        100.0 * (traced_s - plain_s) / plain_s,
        &format!("driven pass under spans {traced_s:.3} s vs pass through the CLI {plain_s:.3} s"),
    );

    let mut budget = Budget::default();
    budget.row(
        format!("{} switches x sim.switch_ns", counts.switches),
        counts.switches as f64 * probes.get("sim.switch_ns") / 1e9,
    );
    budget.row(
        format!("{} messages x rt.msg_ns", counts.messages),
        counts.messages as f64 * probes.get("rt.msg_ns") / 1e9,
    );
    budget.row(
        format!(
            "{} inter-cluster messages x (net.book_ns.mesh - net.book_ns.intra)",
            counts.inter_msgs
        ),
        counts.inter_msgs as f64
            * (probes.get("net.book_ns.mesh") - probes.get("net.book_ns.intra"))
            / 1e9,
    );
    budget.row(
        format!(
            "{} cells x 32 ranks x sim.spawn_us_per_rank",
            counts.records.len()
        ),
        counts.records.len() as f64 * RANKS_PER_CELL * probes.get("sim.spawn_us_per_rank") / 1e6,
    );
    for name in ["machine_build", "record", "summary_emit"] {
        budget.row(format!("{name} spans (measured)"), tracer.total_s(name));
    }
    budget.print(
        report,
        "the traced pass; unexplained is mostly the applications' own host compute",
        traced_s,
    );
    report.note(&format!(
        "span self time: cell {:.6} s, pass {:.6} s",
        tracer.total_self_s("cell"),
        tracer.total_self_s("pass")
    ));
    tracer
}
