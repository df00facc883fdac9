//! # numagap-bench — the experiment harness
//!
//! An experiment is one row of [`targets::TARGETS`]: a name, a one-line
//! description and a sweep function. `numagap bench --target <name|all>` is
//! the only way to run one (DESIGN.md §6 maps every paper claim to its
//! target); the sweep fans its independent simulation cells across the
//! parallel [`engine`], prints its tables, and writes `<name>.csv` plus a
//! versioned `BENCH_<name>.json` summary ([`record`]) into the output
//! directory. `numagap bench --compare` diffs two such summaries for
//! determinism drift and wall-clock regressions; the committed baselines
//! live in `crates/bench/baselines/`.
//!
//! [`predict`] is the pipeline behind `numagap predict`: it records each
//! pair once, sweeps `numagap_model`'s replay over the fig3 grid, and with
//! `--validate` simulates the same grid through [`engine`] and [`record`].

#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

use numagap_net::{das_spec, WanTopology};
use numagap_rt::Machine;
use numagap_sim::SimDuration;

pub mod ablations;
pub mod engine;
pub mod json;
pub mod magpie;
pub mod predict;
pub mod record;
pub mod scale;
pub mod structure;
pub mod targets;
pub mod topo;

/// The machine size used throughout the paper's main experiments.
pub const CLUSTERS: usize = 4;
/// Processors per cluster in the main experiments.
pub const PROCS_PER_CLUSTER: usize = 8;

/// A benchmark-pipeline failure: either artifact I/O or a simulator error
/// inside a sweep cell. Maps to exit code 2 at the CLI.
#[derive(Debug)]
pub enum BenchError {
    /// Filesystem/stdout failure while writing artifacts.
    Io(io::Error),
    /// A simulation cell failed (deadlock, time limit, panic), or the
    /// request itself was invalid (unknown target).
    Sim(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Io(e) => write!(f, "i/o error: {e}"),
            BenchError::Sim(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<io::Error> for BenchError {
    fn from(e: io::Error) -> Self {
        BenchError::Io(e)
    }
}

/// Writes CSV rows (with header) to `dir/name`.
///
/// # Errors
///
/// Propagates file-creation and write failures (disk full, read-only
/// output directory) instead of panicking mid-sweep.
pub(crate) fn write_csv(dir: &Path, name: &str, header: &str, rows: &[String]) -> io::Result<()> {
    let path = dir.join(name);
    let mut f = fs::File::create(&path)?;
    writeln!(f, "{header}")?;
    for row in rows {
        writeln!(f, "{row}")?;
    }
    println!("  [wrote {}]", path.display());
    Ok(())
}

/// The standard multi-cluster machine with the given WAN parameters.
pub fn wan_machine(latency_ms: f64, bandwidth_mbs: f64) -> Machine {
    Machine::new(das_spec(
        CLUSTERS,
        PROCS_PER_CLUSTER,
        latency_ms,
        bandwidth_mbs,
    ))
}

/// [`wan_machine`] with an optional wide-area wiring override. `None` is
/// exactly `wan_machine` (the DAS full mesh), keeping the committed paper
/// baselines bit-identical.
pub fn wan_machine_with(
    latency_ms: f64,
    bandwidth_mbs: f64,
    topology: Option<WanTopology>,
) -> Machine {
    let spec = das_spec(CLUSTERS, PROCS_PER_CLUSTER, latency_ms, bandwidth_mbs);
    match topology {
        Some(t) => Machine::new(spec.wan_topology(t)),
        None => Machine::new(spec),
    }
}

/// The all-Myrinet single-cluster machine with the same processor count.
pub fn baseline_machine() -> Machine {
    Machine::new(numagap_net::uniform_spec(CLUSTERS * PROCS_PER_CLUSTER))
}

/// The paper's relative-speedup metric: `T_singlecluster / T_multicluster`
/// as a percentage (both with the same processor count).
pub fn relative_speedup_pct(baseline: SimDuration, multi: SimDuration) -> f64 {
    100.0 * baseline.as_secs_f64() / multi.as_secs_f64()
}

/// The paper's communication-time metric (Figure 4):
/// `(T_multi - T_single) / T_multi` as a percentage, clamped at 0.
pub fn comm_time_pct(baseline: SimDuration, multi: SimDuration) -> f64 {
    let tm = multi.as_secs_f64();
    let tl = baseline.as_secs_f64();
    (100.0 * (tm - tl) / tm).max(0.0)
}

/// Pretty-prints a latency × bandwidth grid of percentages.
///
/// # Errors
///
/// Propagates stdout write failures (e.g. a closed pipe) instead of
/// panicking.
pub fn print_grid(
    title: &str,
    latencies: &[f64],
    bandwidths: &[f64],
    cells: &[Vec<f64>],
) -> io::Result<()> {
    let stdout = io::stdout();
    let mut out = stdout.lock();
    writeln!(out, "\n  {title}")?;
    write!(out, "    lat\\bw  ")?;
    for bw in bandwidths {
        write!(out, "{bw:>8.2}")?;
    }
    writeln!(out, "  MByte/s")?;
    for (i, lat) in latencies.iter().enumerate() {
        write!(out, "    {lat:>6.1}ms")?;
        for v in &cells[i] {
            write!(out, "{v:>7.1}%")?;
        }
        writeln!(out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_metric() {
        let tl = SimDuration::from_millis(50);
        let tm = SimDuration::from_millis(100);
        assert!((relative_speedup_pct(tl, tm) - 50.0).abs() < 1e-12);
        assert!((comm_time_pct(tl, tm) - 50.0).abs() < 1e-12);
        // Faster-than-baseline multi (possible at tiny gaps) clamps comm to 0.
        assert_eq!(comm_time_pct(tm, tl), 0.0);
    }

    #[test]
    fn write_csv_reports_io_errors() {
        let err = write_csv(Path::new("/nonexistent-dir-for-test"), "x.csv", "h", &[]);
        assert!(err.is_err());
        let bench_err: BenchError = err.unwrap_err().into();
        assert!(bench_err.to_string().contains("i/o error"));
    }
}
