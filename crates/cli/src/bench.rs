//! The `bench` command: the experiment table behind `--target`, and the
//! summary comparison.

use numagap_apps::Scale;
use numagap_bench::engine;
use numagap_bench::record::{compare, BenchSummary, CompareOpts};
use numagap_bench::targets::{SweepOpts, Target, TARGETS};
use numagap_net::WanTopology;

use crate::{EXIT_ERROR, EXIT_FINDINGS};

/// Flags of the `bench` command.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Which experiment to run: a name from the target table, or `all`.
    pub target: String,
    /// Worker threads (available parallelism when unset).
    pub jobs: Option<usize>,
    /// Problem scale (medium when unset).
    pub scale: Option<Scale>,
    /// Use the coarse quick grids.
    pub quick: bool,
    /// Output directory (`bench_results` when unset).
    pub out: Option<String>,
    /// Compare two `BENCH_*.json` files instead of running a sweep.
    pub compare: Option<(String, String)>,
    /// Wall-clock regression threshold for `--compare`.
    pub threshold: f64,
    /// In `--compare`, check only deterministic fields (for baselines
    /// recorded on different hardware).
    pub virtual_only: bool,
    /// Wide-area wiring override (`--topology`): re-wires the paper
    /// targets' WAN machines and restricts `--target topo` to one shape.
    /// `None` (the default) keeps every target bit-identical to the
    /// committed baselines.
    pub topology: Option<WanTopology>,
}

/// The experiment table: the bench crate's rows, then `serve`, whose sweep
/// lives downstream of that crate.
pub(crate) fn targets() -> impl Iterator<Item = &'static Target> {
    static SERVE: Target = Target {
        name: "serve",
        about: "what-if service: batch x worker grid, cold/warm, analytic vs replay",
        run: numagap_serve::run_serve_bench,
    };
    TARGETS.iter().chain(std::iter::once(&SERVE))
}

/// The rows `--target <target>` runs, in table order: the named one, or
/// every row for `all`.
pub(crate) fn selected(target: &str) -> impl Iterator<Item = &'static Target> + '_ {
    targets().filter(move |t| target == "all" || t.name == target)
}

/// Executes the `bench` command: either fans the selected targets across
/// the worker pool, or (with `--compare`) diffs two `BENCH_*.json` files.
pub fn execute_bench(args: &BenchArgs) -> i32 {
    if let Some((old_path, new_path)) = &args.compare {
        let load = |p: &str| BenchSummary::load(std::path::Path::new(p));
        let (old, new) = match (load(old_path), load(new_path)) {
            (Ok(o), Ok(n)) => (o, n),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("bench --compare: {e}");
                return EXIT_ERROR;
            }
        };
        let rep = compare(
            &old,
            &new,
            &CompareOpts {
                threshold: args.threshold,
                wall_clock: !args.virtual_only,
            },
        );
        println!(
            "comparing {} ({} records) against baseline {}",
            new_path,
            new.records.len(),
            old_path
        );
        for note in &rep.notes {
            println!("  note: {note}");
        }
        for finding in &rep.findings {
            println!("  FINDING: {finding}");
        }
        if rep.is_clean() {
            println!("compare: clean");
            0
        } else {
            println!("compare: {} finding(s)", rep.findings.len());
            EXIT_FINDINGS
        }
    } else {
        let out = match out_dir("bench", args.out.as_deref()) {
            Ok(path) => path,
            Err(code) => return code,
        };
        let opts = SweepOpts {
            scale: args.scale.unwrap_or(Scale::Medium),
            quick: args.quick,
            jobs: args.jobs.unwrap_or_else(engine::default_jobs),
            out,
            progress: true,
            topology: args.topology,
        };
        for (i, target) in selected(&args.target).enumerate() {
            if i > 0 {
                println!();
            }
            if let Err(e) = (target.run)(&opts) {
                eprintln!("bench {}: {e}", target.name);
                return EXIT_ERROR;
            }
        }
        0
    }
}

/// Resolves `--out` (default `bench_results/`) and creates the directory;
/// the error is the exit code, already reported under `cmd`'s name.
pub(crate) fn out_dir(cmd: &str, out: Option<&str>) -> Result<std::path::PathBuf, i32> {
    let dir = out.unwrap_or("bench_results");
    let path = std::path::PathBuf::from(dir);
    match std::fs::create_dir_all(&path) {
        Ok(()) => Ok(path),
        Err(e) => {
            eprintln!("{cmd}: cannot create output directory {dir}: {e}");
            Err(EXIT_ERROR)
        }
    }
}
