//! The `scale` target: cluster-count scaling sweep of the simulator itself.
//!
//! The paper targets all run the fixed 4x8 machine; this target is about
//! the *simulator*, not the paper's applications: it sweeps the cluster
//! count 4 -> 64 (32 -> 4096 ranks) through a synthetic SPMD workload and
//! records, per cell, the virtual makespan, message counts, checksum and
//! the simulator thread count. Every machine size runs with ranks as
//! fibers and — up to a rank-count ceiling — under the legacy
//! one-thread-per-rank scheduler, and the target itself asserts their
//! virtual times are bit-identical: the sweep doubles as a differential
//! test of the two execution contexts at sizes the unit suites never reach.
//!
//! The workload is three nearest-neighbour ring rounds followed by a
//! binomial-tree reduction to rank 0 and a binomial-tree broadcast back —
//! the communication skeleton the paper's applications share — so cells
//! stress the kernel's resume/suspend path (every rendezvous suspends a
//! rank) without dragging application problem-size knobs into the grid. The
//! summary's `scale` is always `"synthetic"` for that reason, like
//! `selfperf`.

use std::time::Instant;

use numagap_net::das_spec;
use numagap_rt::{Ctx, Machine};
use numagap_sim::{SchedMode, SimDuration, Tag};

use crate::record::{BenchSummary, RunRecord};
use crate::targets::{write_summary, SweepOpts};
use crate::{engine, write_csv, BenchError};

/// The swept machine sizes, smallest first: `(clusters, procs_per_cluster)`.
/// Rank counts are 32, 128, 512, 2048 and 4096 — all powers of two, which
/// the binomial workload phases rely on.
pub const SCALE_SIZES: [(usize, usize); 5] = [(4, 8), (8, 16), (16, 32), (32, 64), (64, 64)];

/// Ranks above this ceiling skip the legacy scheduler cell: one OS thread
/// per rank is exactly the regime fibers exist to avoid, and spawning 4096
/// threads is hostile to CI runners.
pub const LEGACY_MAX_RANKS: usize = 2048;

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

/// One sweep cell: a machine size under one scheduler mode.
#[derive(Debug, Clone, Copy)]
struct Cell {
    clusters: usize,
    procs: usize,
    mode: SchedMode,
}

impl Cell {
    fn ranks(&self) -> usize {
        self.clusters * self.procs
    }

    /// Canonical record key, e.g. `c4x8/fibers` or `c4x8/legacy`.
    fn key(&self) -> String {
        format!("c{}x{}/{}", self.clusters, self.procs, self.mode_name())
    }

    fn mode_name(&self) -> &'static str {
        match self.mode {
            SchedMode::LegacyThreads => "legacy",
            SchedMode::Fibers => "fibers",
        }
    }

    /// The thread count the kernel must report for this cell: the caller's
    /// own thread for fibers, one per rank for legacy.
    fn expected_threads(&self) -> usize {
        match self.mode {
            SchedMode::LegacyThreads => self.ranks(),
            SchedMode::Fibers => 1,
        }
    }
}

/// Enumerates the sweep's cells in canonical order: sizes ascending, fibers
/// before legacy. The quick grid — what the committed `BENCH_scale.json`
/// baseline and CI run — probes three sizes (still reaching the 4096-rank
/// machine) and keeps one legacy cell for the differential assert.
fn cells(quick: bool) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &(clusters, procs) in &SCALE_SIZES {
        let quick_size = matches!((clusters, procs), (4, 8) | (16, 32) | (64, 64));
        if quick && !quick_size {
            continue;
        }
        cells.push(Cell {
            clusters,
            procs,
            mode: SchedMode::Fibers,
        });
        let legacy_in_quick = quick && (clusters, procs) == (4, 8);
        if (legacy_in_quick || !quick) && clusters * procs <= LEGACY_MAX_RANKS {
            cells.push(Cell {
                clusters,
                procs,
                mode: SchedMode::LegacyThreads,
            });
        }
    }
    cells
}

/// Runs the scale sweep.
///
/// # Errors
///
/// [`BenchError::Sim`] when a cell fails, reports an unexpected thread
/// count, or disagrees with another scheduler mode on the same machine
/// size (virtual time, message counts or checksum) — the scheduler
/// determinism contract; plus artifact I/O failures.
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
    let outs = engine::run_cells(&cells, opts.jobs, opts.label("scale"), |_, cell| {
        let start = Instant::now();
        let machine = Machine::new(das_spec(cell.clusters, cell.procs, 10.0, 1.0))
            .with_sched_mode(cell.mode)
            .with_stack_size(STACK_SIZE);
        let result = machine.run(scale_rank).map_err(|e| e.to_string());
        (start.elapsed().as_secs_f64(), result)
    });
    let mut summary = BenchSummary::new("scale", "synthetic".to_string(), opts.quick, opts.jobs);
    summary.wall_s = t0.elapsed().as_secs_f64();
    println!(
        "{:>8} {:>6} {:>9} {:>12} {:>12} {:>10} {:>11}",
        "machine", "ranks", "mode", "virtual", "messages", "threads", "wall"
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
        // actually run (non-x86_64 hosts silently fall back to legacy).
        if cfg!(target_arch = "x86_64") && report.sim_threads != cell.expected_threads() {
            return Err(BenchError::Sim(format!(
                "cell {}: expected {} simulator thread(s), kernel reports {}",
                cell.key(),
                cell.expected_threads(),
                report.sim_threads
            )));
        }
        let checksum: f64 = report.results.iter().sum();
        println!(
            "{:>8} {:>6} {:>9} {:>12} {:>12} {:>10} {:>10.2}s",
            format!("{}x{}", cell.clusters, cell.procs),
            cell.ranks(),
            cell.mode_name(),
            report.elapsed.to_string(),
            report.kernel_stats.messages,
            report.sim_threads,
            wall
        );
        rows.push(format!(
            "{},{},{},{},{},{},{},{:.6}",
            cell.clusters,
            cell.procs,
            cell.ranks(),
            cell.mode_name(),
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
    // Differential gate: every scheduler mode that ran a given machine size
    // must agree bit-for-bit on everything virtual.
    for &(clusters, procs) in &SCALE_SIZES {
        let group: Vec<(&Cell, &RunRecord)> = cells
            .iter()
            .zip(&summary.records)
            .filter(|(c, _)| (c.clusters, c.procs) == (clusters, procs))
            .collect();
        let Some((first_cell, first)) = group.first() else {
            continue;
        };
        for (cell, rec) in &group[1..] {
            if rec.virtual_s != first.virtual_s
                || rec.checksum != first.checksum
                || rec.kernel != first.kernel
                || rec.inter_msgs != first.inter_msgs
                || rec.intra_msgs != first.intra_msgs
            {
                return Err(BenchError::Sim(format!(
                    "scheduler modes disagree on {clusters}x{procs}: {} ran {} s \
                     (checksum {}), {} ran {} s (checksum {})",
                    first_cell.mode_name(),
                    first.virtual_s,
                    first.checksum,
                    cell.mode_name(),
                    rec.virtual_s,
                    rec.checksum
                )));
            }
        }
    }
    println!("  all scheduler modes agree on every machine size");
    write_csv(
        &opts.out,
        "scale.csv",
        "clusters,procs,ranks,mode,sim_threads,virtual_s,messages,checksum",
        &rows,
    )?;
    write_summary(&summary, opts)?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_reaches_the_largest_machine_and_keeps_a_legacy_cell() {
        let quick = cells(true);
        assert!(quick.iter().any(|c| c.ranks() == 4096));
        assert_eq!(
            quick
                .iter()
                .filter(|c| c.mode == SchedMode::LegacyThreads)
                .count(),
            1
        );
        // Quick cells are a subset of the full grid's keys.
        let full: Vec<String> = cells(false).iter().map(Cell::key).collect();
        for c in &quick {
            assert!(full.contains(&c.key()), "{} not in full grid", c.key());
        }
    }

    #[test]
    fn full_grid_never_spawns_legacy_above_the_ceiling() {
        for c in cells(false) {
            if c.mode == SchedMode::LegacyThreads {
                assert!(c.ranks() <= LEGACY_MAX_RANKS, "{}", c.key());
            }
        }
    }

    #[test]
    fn keys_are_unique_and_stable() {
        let all: Vec<String> = cells(false).iter().map(Cell::key).collect();
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        assert!(all.contains(&"c4x8/fibers".to_string()));
        assert!(all.contains(&"c4x8/legacy".to_string()));
    }

    #[test]
    fn smallest_cell_agrees_across_modes_end_to_end() {
        let run = |mode| {
            Machine::new(das_spec(2, 2, 10.0, 1.0))
                .with_sched_mode(mode)
                .with_stack_size(STACK_SIZE)
                .run(scale_rank)
                .expect("scale workload runs")
        };
        let legacy = run(SchedMode::LegacyThreads);
        let fibers = run(SchedMode::Fibers);
        assert_eq!(legacy.elapsed, fibers.elapsed);
        assert_eq!(legacy.kernel_stats, fibers.kernel_stats);
        let s1: f64 = legacy.results.iter().sum();
        let s2: f64 = fibers.results.iter().sum();
        assert_eq!(s1.to_bits(), s2.to_bits());
    }
}
