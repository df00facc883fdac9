//! The `scale` target: cluster-count scaling sweep of the simulator itself.
//!
//! The paper targets all run the fixed 4x8 machine; this target is about
//! the *simulator*, not the paper's applications: it sweeps the cluster
//! count 4 -> 64 (32 -> 4096 ranks) through a synthetic SPMD workload and
//! records, per cell, the virtual makespan, message counts, checksum and
//! the simulator thread count, which must stay 1 wherever ranks are fibers.
//!
//! The workload is three nearest-neighbour ring rounds followed by a
//! binomial-tree reduction to rank 0 and a binomial-tree broadcast back —
//! the communication skeleton the paper's applications share — so cells
//! stress the kernel's resume/suspend path (every rendezvous suspends a
//! rank) without dragging application problem-size knobs into the grid. The
//! summary's `scale` is always `"synthetic"` for that reason.

use std::time::Instant;

use numagap_net::das_spec;
use numagap_rt::{Ctx, Machine};
use numagap_sim::{SimDuration, Tag};

use crate::record::{BenchSummary, RunRecord};
use crate::targets::{write_summary, SweepOpts};
use crate::{engine, write_csv, BenchError};

/// The swept machine sizes, smallest first: `(clusters, procs_per_cluster)`.
/// Rank counts are 32, 128, 512, 2048 and 4096 — all powers of two, which
/// the binomial workload phases rely on.
pub const SCALE_SIZES: [(usize, usize); 5] = [(4, 8), (8, 16), (16, 32), (32, 64), (64, 64)];

/// Per-rank execution-context stack for scale cells. The synthetic workload
/// has a shallow call graph, and 4096 ranks at the default 8 MiB would
/// reserve 32 GiB of address space.
const STACK_SIZE: usize = 256 * 1024;

/// Ring rounds before the reduce/broadcast phases.
const RING_ROUNDS: u32 = 3;

fn ring_tag(round: u32) -> Tag {
    Tag::app(round)
}

const REDUCE_TAG: Tag = Tag::app(100);
const BCAST_TAG: Tag = Tag::app(101);

/// The synthetic SPMD rank: ring rounds, reduce to 0, broadcast back.
/// Returns a per-rank checksum contribution.
fn scale_rank(ctx: &mut Ctx<'_>) -> f64 {
    let n = ctx.nprocs();
    let me = ctx.rank();
    let mut acc = me as f64 + 1.0;
    for round in 0..RING_ROUNDS {
        ctx.compute(SimDuration::from_micros(50));
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        ctx.send(next, ring_tag(round), acc, 64);
        let v: f64 = ctx.recv_from(prev, ring_tag(round)).expect_clone();
        acc = 0.5 * acc + 0.5 * v + 1.0;
    }
    // Binomial-tree reduction: at stage `span`, ranks with that bit set
    // send their partial to the partner `span` below and drop out.
    let mut sum = acc;
    let mut span = 1;
    while span < n {
        if me & span != 0 {
            ctx.send(me - span, REDUCE_TAG, sum, 64);
            break;
        }
        if me + span < n {
            let v: f64 = ctx.recv_from(me + span, REDUCE_TAG).expect_clone();
            sum += v;
        }
        span <<= 1;
    }
    // Binomial-tree broadcast of the total: at stage `span`, holders
    // (ranks below `span`) feed the next block up.
    let mut total = sum;
    let mut span = 1;
    while span < n {
        if me < span {
            if me + span < n {
                ctx.send(me + span, BCAST_TAG, total, 64);
            }
        } else if me < 2 * span {
            total = ctx.recv_from(me - span, BCAST_TAG).expect_clone();
        }
        span <<= 1;
    }
    total + acc * 1e-3
}

/// One sweep cell: a machine size.
#[derive(Debug, Clone, Copy)]
struct Cell {
    clusters: usize,
    procs: usize,
}

impl Cell {
    fn ranks(&self) -> usize {
        self.clusters * self.procs
    }

    /// Canonical record key, e.g. `c4x8`.
    fn key(&self) -> String {
        format!("c{}x{}", self.clusters, self.procs)
    }
}

/// Enumerates the sweep's cells in canonical order, sizes ascending. The
/// quick grid — what the committed `BENCH_scale.json` baseline and CI run —
/// probes three sizes, still reaching the 4096-rank machine.
fn cells(quick: bool) -> Vec<Cell> {
    SCALE_SIZES
        .iter()
        .filter(|&&size| !quick || matches!(size, (4, 8) | (16, 32) | (64, 64)))
        .map(|&(clusters, procs)| Cell { clusters, procs })
        .collect()
}

/// Runs the scale sweep.
///
/// # Errors
///
/// [`BenchError::Sim`] when a cell fails or reports an unexpected thread
/// count; plus artifact I/O failures.
pub fn run_scale(opts: &SweepOpts) -> Result<BenchSummary, BenchError> {
    let cells = cells(opts.quick);
    println!(
        "== scale: simulator cluster-count sweep (quick={}, jobs={}) ==",
        opts.quick, opts.jobs
    );
    println!(
        "   sizes 4x8 -> 64x64 ({} cells), synthetic ring+reduce+broadcast workload",
        cells.len()
    );
    let t0 = Instant::now();
    let outs = engine::run_cells(&cells, opts.jobs, Some("scale"), |_, cell| {
        let start = Instant::now();
        let machine = Machine::new(das_spec(cell.clusters, cell.procs, 10.0, 1.0))
            .with_stack_size(STACK_SIZE);
        let result = machine.run(scale_rank).map_err(|e| e.to_string());
        (start.elapsed().as_secs_f64(), result)
    });
    let mut summary = BenchSummary::new("scale", "synthetic", opts.quick, opts.jobs);
    summary.wall_s = t0.elapsed().as_secs_f64();
    println!(
        "{:>8} {:>6} {:>12} {:>12} {:>10} {:>11}",
        "machine", "ranks", "virtual", "messages", "threads", "wall"
    );
    let mut rows = Vec::new();
    for (cell, (wall, result)) in cells.iter().zip(&outs) {
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                return Err(BenchError::Sim(format!("cell {} failed: {e}", cell.key())));
            }
        };
        // The headline claim of running ranks as fibers: the thread count
        // does not grow with the rank count. Only enforced where fibers
        // run (other hosts give every rank a thread).
        if cfg!(all(target_arch = "x86_64", target_os = "linux")) && report.sim_threads != 1 {
            return Err(BenchError::Sim(format!(
                "cell {}: expected 1 simulator thread, kernel reports {}",
                cell.key(),
                report.sim_threads
            )));
        }
        let checksum: f64 = report.results.iter().sum();
        println!(
            "{:>8} {:>6} {:>12} {:>12} {:>10} {:>10.2}s",
            format!("{}x{}", cell.clusters, cell.procs),
            cell.ranks(),
            report.elapsed.to_string(),
            report.kernel_stats.messages,
            report.sim_threads,
            wall
        );
        rows.push(format!(
            "{},{},{},{},{},{},{:.6}",
            cell.clusters,
            cell.procs,
            cell.ranks(),
            report.sim_threads,
            report.elapsed.as_secs_f64(),
            report.kernel_stats.messages,
            checksum
        ));
        summary.records.push(RunRecord {
            sim_threads: Some(report.sim_threads),
            ..RunRecord::from_report(cell.key(), *wall, checksum, report)
        });
    }
    write_csv(
        &opts.out,
        "scale.csv",
        "clusters,procs,ranks,sim_threads,virtual_s,messages,checksum",
        &rows,
    )?;
    write_summary(&summary, opts)?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_reaches_the_largest_machine() {
        let quick = cells(true);
        assert!(quick.iter().any(|c| c.ranks() == 4096));
        // Quick cells are a subset of the full grid's keys.
        let full: Vec<String> = cells(false).iter().map(Cell::key).collect();
        for c in &quick {
            assert!(full.contains(&c.key()), "{} not in full grid", c.key());
        }
    }

    #[test]
    fn keys_are_unique_and_stable() {
        let all: Vec<String> = cells(false).iter().map(Cell::key).collect();
        assert_eq!(all, ["c4x8", "c8x16", "c16x32", "c32x64", "c64x64"]);
    }
}
