//! The `magpie` target (§6): completion time of the fourteen MPI collective
//! operations, flat (MPICH-like) versus cluster-aware (MagPIe-like), at the
//! paper's operating point of 10 ms wide-area latency and 1 MByte/s — where
//! the paper reports speedups of up to 10x — plus the scan speedup as the
//! latency grows and a collective-bound application kernel.
//!
//! A collective is timed over barrier-separated repetitions, and the cost of
//! the barriers themselves is measured by a run without the operation and
//! subtracted. Those two runs are separate, independent cells (the
//! barriers-only run does not depend on the operation, so one per
//! latency/algorithm serves every operation); the barrier-corrected mean is
//! derived when the tables are rendered.

use numagap_apps::kernels::{power_rank, PowerConfig};
use numagap_apps::Scale;
use numagap_rt::coll::{Algo, Coll};
use numagap_rt::{Ctx, Machine};
use numagap_sim::SimDuration;

use crate::record::{BenchSummary, RunRecord};
use crate::targets::{sweep, write_summary, SweepOpts};
use crate::{wan_machine, write_csv, BenchError};

/// The paper's §6 operating point.
const LATENCY_MS: f64 = 10.0;
/// Wide-area bandwidth of every cell, MByte/s.
const BANDWIDTH_MBS: f64 = 1.0;
/// Latencies of the scan ladder ("the system's advantage increases for
/// higher wide area latencies").
const LADDER_MS: [f64; 5] = [1.0, 3.3, 10.0, 30.0, 100.0];
/// Latencies the application kernel runs at.
const KERNEL_MS: [f64; 3] = [3.3, 10.0, 30.0];
/// Payload elements per collective: 16 KB of `f64`.
const ELEMS: usize = 2048;
/// The pseudo-operation of the cells every other operation's time is
/// corrected by: the separating barriers alone.
const BARRIERS_ONLY: &str = "barriers-only";

const OPS: [&str; 14] = [
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "gather",
    "gatherv",
    "scatter",
    "scatterv",
    "allgather",
    "allgatherv",
    "alltoall",
    "alltoallv",
    "scan",
    "reduce_scatter",
];

/// One simulation, `(latency ms, algorithm, op)`: `op` repeated between
/// barriers, or — `None` — the distributed power-iteration kernel,
/// whole-program time.
type Cell = (f64, Algo, Option<&'static str>);

/// Canonical record key, e.g. `lat10/flat/scan`.
fn key(&(latency_ms, algo, op): &Cell) -> String {
    format!("lat{latency_ms}/{algo}/{}", op.unwrap_or("kernel"))
}

fn cells() -> Vec<Cell> {
    let ladder = LADDER_MS.iter().filter(|&&lat| lat != LATENCY_MS);
    let ops = (LADDER_MS.iter().map(|&lat| (lat, Some(BARRIERS_ONLY))))
        .chain(OPS.iter().map(|&op| (LATENCY_MS, Some(op))))
        .chain(ladder.map(|&lat| (lat, Some("scan"))))
        .chain(KERNEL_MS.iter().map(|&lat| (lat, None)));
    ops.flat_map(|(lat, op)| [Algo::Flat, Algo::ClusterAware].map(|algo| (lat, algo, op)))
        .collect()
}

fn run_one(ctx: &mut Ctx<'_>, coll: &mut Coll, op: &str) {
    let sum = |a: &Vec<f64>, b: &Vec<f64>| a.iter().zip(b).map(|(x, y)| x + y).collect();
    let me = ctx.rank();
    let p = ctx.nprocs();
    let vec = vec![1.0f64; ELEMS];
    let uneven = |q: usize| vec![q as f64; ELEMS / 2 + q % 3];
    match op {
        BARRIERS_ONLY => {}
        "barrier" => coll.barrier(ctx),
        "bcast" => {
            coll.bcast(ctx, 0, (me == 0).then_some(vec));
        }
        "reduce" => {
            coll.reduce(ctx, 0, vec, sum);
        }
        "allreduce" => {
            coll.allreduce(ctx, vec, sum);
        }
        "gather" => {
            coll.gatherv(ctx, 0, vec);
        }
        "gatherv" => {
            coll.gatherv(ctx, 0, uneven(me));
        }
        "scatter" => {
            coll.scatterv(ctx, 0, (me == 0).then(|| vec![vec; p]));
        }
        "scatterv" => {
            coll.scatterv(ctx, 0, (me == 0).then(|| (0..p).map(uneven).collect()));
        }
        "allgather" => {
            coll.allgatherv(ctx, vec);
        }
        "allgatherv" => {
            coll.allgatherv(ctx, uneven(me));
        }
        "alltoall" => {
            coll.alltoallv(ctx, vec![vec![1.0f64; ELEMS / p]; p]);
        }
        "alltoallv" => {
            let blocks = (0..p).map(|q| vec![1.0f64; ELEMS / p + q % 3]);
            coll.alltoallv(ctx, blocks.collect());
        }
        "scan" => {
            coll.scan(ctx, vec, sum);
        }
        "reduce_scatter" => {
            coll.reduce_scatter(ctx, vec![vec![1.0f64; ELEMS / p]; p], sum);
        }
        other => unreachable!("'{other}' is not in OPS"),
    }
}

/// One rank of one cell: the virtual time it measured (zero for kernel
/// cells, which report the whole run) and its checksum share (zero for the
/// collective cells, whose results are discarded).
fn cell_rank(
    ctx: &mut Ctx<'_>,
    &(_, algo, op): &Cell,
    iters: usize,
    power: &PowerConfig,
) -> (SimDuration, f64) {
    let Some(op) = op else {
        let out = power_rank(ctx, power, algo);
        return (SimDuration::ZERO, out.checksum);
    };
    let mut coll = Coll::new(0, algo);
    let mut sync = Coll::new(1, algo);
    // Warm-up barrier so everyone starts together.
    sync.barrier(ctx);
    let start = ctx.now();
    for _ in 0..iters {
        run_one(ctx, &mut coll, op);
        sync.barrier(ctx);
    }
    (ctx.now() - start, 0.0)
}

/// Runs the `magpie` target on the paper's 4x8 machine.
///
/// # Errors
///
/// A failed cell ([`BenchError::Sim`], naming it) and artifact I/O.
pub fn run_magpie(opts: &SweepOpts) -> Result<BenchSummary, BenchError> {
    run_on(opts, |latency_ms| wan_machine(latency_ms, BANDWIDTH_MBS))
}

fn run_on(
    opts: &SweepOpts,
    machine_at: impl Fn(f64) -> Machine + Sync,
) -> Result<BenchSummary, BenchError> {
    let iters = if opts.quick { 2 } else { 5 };
    // The kernel has no paper-size instance; `paper` runs the bench-scale one.
    let power = match opts.scale {
        Scale::Small => PowerConfig::small(),
        Scale::Medium | Scale::Paper => PowerConfig::medium(),
    };
    let cells = cells();
    println!(
        "== MagPIe: flat vs cluster-aware collectives, 4x8, {BANDWIDTH_MBS} MB/s WAN \
         (scale={:?} quick={} jobs={}, {} cells) ==",
        opts.scale,
        opts.quick,
        opts.jobs,
        cells.len()
    );
    let (outs, wall_s) = sweep(&cells, opts.jobs, "magpie", |cell| {
        let (cell, power) = (*cell, power.clone());
        let run = machine_at(cell.0)
            .run(move |ctx| cell_rank(ctx, &cell, iters, &power))
            .map_err(|e| e.to_string());
        (format!("magpie/{}", key(&cell)), run)
    })?;
    let mut summary = BenchSummary::new("magpie", opts.scale.name(), opts.quick, opts.jobs);
    summary.wall_s = wall_s;
    for (cell, (report, wall)) in cells.iter().zip(&outs) {
        let checksum: f64 = report.results.iter().map(|r| r.1).sum();
        summary
            .records
            .push(RunRecord::from_report(key(cell), *wall, checksum, report));
    }
    // What a cell measured: the slowest rank's barrier-to-barrier time, or
    // the whole run for the kernel.
    let of = |latency_ms: f64, algo: Algo, op: Option<&'static str>| {
        let at = cells.iter().position(|c| *c == (latency_ms, algo, op));
        let report = &outs[at.expect("cell enumerated")].0;
        let slowest = report.results.iter().map(|r| r.0).max();
        op.map_or(report.elapsed, |_| slowest.expect("a machine has ranks"))
    };
    // Mean completion time of one operation, barrier cost subtracted; the
    // kernel's is its whole run.
    let time = |latency_ms: f64, algo: Algo, op: Option<&'static str>| match op {
        None => of(latency_ms, algo, None),
        Some(_) => {
            let barriers = of(latency_ms, algo, Some(BARRIERS_ONLY));
            let net = of(latency_ms, algo, op).saturating_sub(barriers);
            SimDuration::from_nanos(net.as_nanos() / iters as u64)
        }
    };
    // One table: a row per `(label, latency, op)`, flat beside cluster-aware.
    let table = |title: &str, rows: Vec<(String, f64, Option<&'static str>)>| {
        println!(
            "\n-- {title} --\n{:<16} {:>12} {:>14} {:>8}",
            "", "flat (ms)", "aware (ms)", "speedup"
        );
        let csv = rows.into_iter().map(|(label, lat, op)| {
            let flat = time(lat, Algo::Flat, op);
            let aware = time(lat, Algo::ClusterAware, op);
            let speedup = flat.as_secs_f64() / aware.as_secs_f64();
            println!(
                "{label:<16} {:>12.3} {:>14.3} {speedup:>7.2}x",
                flat.as_millis_f64(),
                aware.as_millis_f64()
            );
            format!(
                "{label},{:.6},{:.6},{speedup:.3}",
                flat.as_secs_f64(),
                aware.as_secs_f64()
            )
        });
        csv.collect::<Vec<String>>()
    };
    let at = |op| move |&lat: &f64| (lat.to_string(), lat, op);
    let op_rows = table(
        &format!("the fourteen collectives at {LATENCY_MS} ms, 16 KB (paper: up to 10x)"),
        (OPS.iter().map(|&op| (op.to_string(), LATENCY_MS, Some(op)))).collect(),
    );
    let ladder_rows = table(
        "scan vs wide-area latency (ms)",
        LADDER_MS.iter().map(at(Some("scan"))).collect(),
    );
    let kernel_rows = table(
        "power-iteration kernel vs latency (ms) (paper: kernels up to 4x)",
        KERNEL_MS.iter().map(at(None)).collect(),
    );
    let ladder_header = "latency_ms,flat_s,aware_s,speedup";
    write_csv(
        &opts.out,
        "magpie.csv",
        "op,flat_s,aware_s,speedup",
        &op_rows,
    )?;
    write_csv(&opts.out, "magpie_latency.csv", ladder_header, &ladder_rows)?;
    write_csv(&opts.out, "magpie_kernel.csv", ladder_header, &kernel_rows)?;
    write_summary(&summary, opts)?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_cell_is_named_and_leaves_no_artifact() {
        let dir = std::env::temp_dir().join(format!("numagap-magpie-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let opts = SweepOpts {
            scale: Scale::Small,
            quick: true,
            jobs: 2,
            out: dir.clone(),
            topology: None,
        };
        // Every cell outlives a 1 ns budget; the report names the first in
        // cell order.
        let err = run_on(&opts, |lat| {
            wan_machine(lat, BANDWIDTH_MBS).time_limit(SimDuration::from_nanos(1))
        })
        .unwrap_err();
        let first = key(&cells()[0]);
        match err {
            BenchError::Sim(msg) => {
                assert!(
                    msg.starts_with(&format!("magpie/{first} failed: ")),
                    "{msg}"
                )
            }
            other => panic!("expected a Sim error, got {other}"),
        }
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "a failed sweep must not leave partial CSV/JSON behind"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_are_unique() {
        let mut keys: Vec<String> = cells().iter().map(key).collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n);
    }
}
