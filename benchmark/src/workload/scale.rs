//! `scale_4096`: a 64x64 machine (4096 ranks) running a communication
//! skeleton with 9 events per rank and no application compute — the
//! simulator used the opposite way from `fig3_sweep` (few ranks, thousands
//! of events each). Spawning, stacking and tearing down ranks is a real
//! share of a run here, which is where guarded stacks (ROADMAP 5b) could
//! cost while inline fibers (item 1) save.

use std::time::Instant;

use numagap_net::das_spec;
use numagap_rt::{Ctx, Machine, RunReport};
use numagap_sim::{SimDuration, Tag};

use super::{Budget, Opts};
use crate::probes::Probes;
use crate::report::Report;
use crate::trace::Tracer;
use crate::{host, oracle, stats};

pub const NAME: &str = "scale_4096";

/// About 19 runs fit the 20 s a driver run measures, so even p75 has fewer
/// than ten samples beyond it; `Report::timings` says so beside the value.
const TAIL_PERCENTILE: f64 = 75.0;

/// 4096 ranks at the default 8 MiB would reserve 32 GiB of stacks.
const STACK_BYTES: usize = 256 * 1024;

const REDUCE_TAG: Tag = Tag::app(100);
const BCAST_TAG: Tag = Tag::app(101);

/// Restates the rank body of `crates/bench/src/scale.rs` (private there):
/// three nearest-neighbour ring rounds, a binomial-tree reduce to rank 0 and
/// a binomial-tree broadcast back; 64-byte messages, 50 us compute. The
/// oracle pins it to the committed `c64x64` record, so the two cannot drift
/// apart unnoticed.
fn rank(ctx: &mut Ctx<'_>) -> f64 {
    let n = ctx.nprocs();
    let me = ctx.rank();
    let mut acc = me as f64 + 1.0;
    for round in 0..3 {
        ctx.compute(SimDuration::from_micros(50));
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        ctx.send(next, Tag::app(round), acc, 64);
        let v: f64 = ctx.recv_from(prev, Tag::app(round)).expect_clone();
        acc = 0.5 * acc + 0.5 * v + 1.0;
    }
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

pub fn machine(clusters: usize, procs: usize) -> Machine {
    Machine::new(das_spec(clusters, procs, 10.0, 1.0)).with_stack_size(STACK_BYTES)
}

fn check(expected: &oracle::Expected, run: &RunReport<f64>) -> Result<(), String> {
    // Rank order, like the `scale` target's own checksum.
    let checksum = run.results.iter().fold(0.0, |a, &v| a + v);
    expected.check(
        &expected.key,
        run.elapsed.as_secs_f64(),
        checksum,
        run.kernel_stats.events,
        run.kernel_stats.messages,
    )
}

/// One 64x64 run: wall seconds and the report, after the oracle check.
fn one_run(expected: &oracle::Expected, report: &mut Report) -> (f64, Option<RunReport<f64>>) {
    let start = Instant::now();
    let outcome = machine(64, 64).run(rank);
    let wall = start.elapsed().as_secs_f64();
    match outcome {
        Ok(run) => {
            report.op(check(expected, &run));
            (wall, Some(run))
        }
        Err(e) => {
            report.op(Err(format!("4096-rank run failed: {e}")));
            (wall, None)
        }
    }
}

fn setup_once(report: &mut Report) -> f64 {
    let start = Instant::now();
    let warm = machine(16, 32).run(rank);
    report.op(warm
        .map(|_| ())
        .map_err(|e| format!("16x32 warm-up failed: {e}")));
    start.elapsed().as_secs_f64()
}

pub fn run(opts: &Opts, report: &mut Report) {
    report.note("fixed 64x64 machine: --seed is not used by this workload");
    let expected = oracle::scale_c64x64();
    // A 0.13 s set-up is cheap to repeat and too noisy not to.
    let setups: Vec<f64> = (0..7 * opts.setup_reps())
        .map(|_| setup_once(report))
        .collect();
    report.metric(
        "setup_s",
        stats::median(&setups),
        &format!("16x32 warm-up, n={}", setups.len()),
    );

    let min_runs = if opts.smoke { 2 } else { 5 };
    let timed = Instant::now();
    let mut walls = Vec::new();
    let mut events = 0;
    let mut first_run_peak_kb = 0;
    while walls.len() < min_runs || timed.elapsed().as_secs_f64() < opts.timed_seconds() {
        let (wall, run) = one_run(&expected, report);
        if walls.is_empty() {
            first_run_peak_kb = host::peak_rss_kb();
        }
        walls.push(wall);
        events += run.map_or(0, |r| r.kernel_stats.events);
    }
    let total: f64 = walls.iter().sum();
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    report.timings(&walls, "4096-rank run", &ms, TAIL_PERCENTILE, 1, "run");
    report.metric(
        "work_per_s",
        events as f64 / total,
        &format!("kernel events per host second over {} runs", walls.len()),
    );
    // Read after the first run, not at exit: how many generations of freed
    // 256 KiB stacks the allocator still holds after ~19 back-to-back runs
    // is 1, 2 or 3 from one process to the next (190, 330 or 440 MB), which
    // says nothing about what a 4096-rank run needs.
    report.metric(
        "peak_rss_mb",
        first_run_peak_kb as f64 / 1024.0,
        "VmHWM after set-up and the first 4096-rank run",
    );
    report.info(
        "peak_rss_mb_at_exit",
        host::peak_rss_kb() as f64 / 1024.0,
        "MB",
        "after every run; depends on allocator reuse",
    );
}

/// The traced run: untraced and traced runs alternate, each traced one
/// wrapped in spans; then the estimated budget of a run.
pub fn run_traced(opts: &Opts, report: &mut Report, probes: &Probes) -> Tracer {
    let expected = oracle::scale_c64x64();
    setup_once(report);
    let pairs = if opts.smoke { 1 } else { 3 };
    let mut tracer = Tracer::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    for op in 0..pairs {
        plain.push(one_run(&expected, report).0);

        let span = tracer.begin("run", op, None);
        let m = tracer.scope("machine_build", op, span, || machine(64, 64));
        let outcome = tracer.scope("machine_run", op, span, || m.run(rank));
        let checked = tracer.scope("check", op, span, || match &outcome {
            Ok(run) => check(&expected, run),
            Err(e) => Err(format!("4096-rank run failed: {e}")),
        });
        tracer.end(span);
        report.op(checked);
        traced.push(tracer.spans()[span].dur_ns() as f64 / 1e9);
        last = outcome.ok();
    }
    let (plain_s, traced_s) = (stats::median(&plain), stats::median(&traced));
    report.metric(
        "trace.overhead_pct",
        100.0 * (traced_s - plain_s) / plain_s,
        &format!("traced {traced_s:.4} s vs untraced {plain_s:.4} s per run, n={pairs} each"),
    );

    if let Some(run) = last {
        let mut budget = Budget::default();
        let (p, k, n) = (run.profile, run.kernel_stats, run.net_stats);
        budget.row(
            format!("{} switches x sim.switch_ns", p.switches),
            p.switches as f64 * probes.get("sim.switch_ns") / 1e9,
        );
        budget.row(
            "4096 ranks x sim.spawn_us_per_rank",
            4096.0 * probes.get("sim.spawn_us_per_rank") / 1e6,
        );
        budget.row(
            format!("{} messages x rt.msg_ns", k.messages),
            k.messages as f64 * probes.get("rt.msg_ns") / 1e9,
        );
        budget.row(
            format!(
                "{} inter-cluster messages x (net.book_ns.mesh - net.book_ns.intra)",
                n.inter_msgs
            ),
            n.inter_msgs as f64
                * (probes.get("net.book_ns.mesh") - probes.get("net.book_ns.intra"))
                / 1e9,
        );
        budget.print(report, "one 4096-rank run", traced_s);
    }
    tracer
}
