//! `numagap-perf`: the benchmark every later performance claim in this
//! repository is measured with. One invocation runs one workload in this
//! process and prints its metrics; `benchmark/run.sh` builds, records the
//! host, and runs each workload in a process of its own.
//!
//! ```text
//! numagap-perf --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!              [--smoke] [--out DIR]
//! ```
//!
//! Untraced (`--trace 0`), the workload's end-to-end metrics are measured
//! and printed. Traced (`--trace 1`), the per-layer probe set runs, then the
//! workload once under spans recorded by this program's own code; the spans
//! go to `<out>/trace_<workload>.json` (Chrome trace format) and an
//! estimated budget of the traced pass is printed. Everything measured is
//! host time; every simulated ("virtual") result is checked against
//! `benchmark/expected/` and must never move.

use std::path::PathBuf;
use std::process::ExitCode;

mod host;
mod inputs;
mod oracle;
mod probes;
mod report;
mod stats;
mod trace;
mod workload;

use report::Report;
use workload::{Opts, Workload};

const USAGE: &str =
    "usage: numagap-perf --workload <fig3_sweep|scale_4096|whatif_replay_1k|whatif_analytic_10k> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]";

struct Args {
    name: String,
    workload: Workload,
    opts: Opts,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 0,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("target/benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a non-negative integer")?;
            }
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--smoke" => opts.smoke = true,
            "--out" => opts.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let name: String = workload.ok_or("--workload is required")?;
    let workload = Workload::by_name(&name).ok_or(format!("unknown workload '{name}'"))?;
    Ok(Args {
        name,
        workload,
        opts,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        name,
        workload,
        opts,
    } = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("numagap-perf: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!(
            "numagap-perf: cannot create {}: {e}",
            opts.out_dir.display()
        );
        return ExitCode::from(2);
    }

    let mut report = Report::new(&name, opts.trace);
    report.note(&format!(
        "workload {name} seed {} seconds {} trace {} smoke {} nproc {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.smoke,
        host::nproc()
    ));
    let calib_before = host::calib_ms();

    if opts.trace {
        let probes = probes::run_all(opts.seed, &mut report);
        let tracer = workload.run_traced(&opts, &mut report, &probes);
        let path = opts.out_dir.join(format!("trace_{name}.json"));
        match std::fs::write(&path, tracer.to_chrome_json()) {
            Ok(()) => report.note(&format!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => report.op(Err(format!("writing {}: {e}", path.display()))),
        }
    } else {
        workload.run(&opts, &mut report);
        // `scale_4096` reports its own, taken after its first run.
        if !matches!(workload, Workload::Scale) {
            report.metric(
                "peak_rss_mb",
                host::peak_rss_kb() as f64 / 1024.0,
                "VmHWM of this process at the end of the workload",
            );
        }
    }

    // Not a gate: a host figure printed beside every result, so that a noisy
    // neighbour or a frequency change during the run is visible.
    let calib_after = host::calib_ms();
    report.info(
        "host.calib_ms",
        calib_after,
        "ms",
        &format!("fixed spin kernel after the run; {calib_before:.3} ms before it"),
    );
    ExitCode::from(report.finish() as u8)
}
