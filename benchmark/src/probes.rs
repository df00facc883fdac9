//! The per-layer probe set: one microbenchmark per layer boundary, measured
//! from outside by timing calls into public functions only. Every probe is
//! one warm-up plus [`REPEATS`] timed repeats; the median is the metric and
//! the MAD is printed beside it.
//!
//! README.md says which end-to-end metric each probe is expected to move.

use std::hint::black_box;
use std::time::Instant;

use numagap_apps::{run_app, run_app_report, AppId, Scale, SuiteConfig, Variant};
use numagap_bench::record::BenchSummary;
use numagap_bench::{engine, json, wan_machine_with};
use numagap_model::{critical_path, record_app, replay, CommDag};
use numagap_net::{das_spec, uniform_spec, LinkState, TwoLayerNetwork, TwoLayerSpec, WanTopology};
use numagap_rt::{bcast_flat, Barrier, Ctx, Machine};
use numagap_serve::{AnalyticModel, CacheEntry, CacheKey, DagCache, ServeOpts, Server, Service};
use numagap_sim::{
    HotProfile, IdealNetwork, KernelStats, Network, Observer, ProcId, Sim, SimDuration, SimTime,
    Tag,
};

use crate::inputs::{booking_stream, points_of, Rng, WhatIfSpec};
use crate::report::Report;
use crate::workload::{scale, whatif};
use crate::{host, stats};

/// Timed repeats per probe, after one discarded warm-up.
pub const REPEATS: usize = 9;

/// The paper's machine: 4 clusters of 8.
const CLUSTERS: usize = 4;
const PROCS: usize = 8;

const FIG3_BASELINE: &str = include_str!("../../crates/bench/baselines/BENCH_fig3.json");

/// The medians of one probe-set run, looked up by metric name when a traced
/// workload builds its estimated budget.
#[derive(Debug, Default)]
pub struct Probes {
    values: Vec<(&'static str, f64)>,
}

impl Probes {
    /// # Panics
    ///
    /// Panics when `name` was never measured: a typo in the harness.
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("probe '{name}' was not measured"))
            .1
    }
}

struct Set<'a> {
    report: &'a mut Report,
    out: Probes,
}

impl Set<'_> {
    fn emit(&mut self, name: &'static str, samples: &[f64]) {
        let median = stats::median(samples);
        let note = format!("mad={:.4}, n={}", stats::mad(samples), samples.len());
        self.report.metric(name, median, &note);
        self.out.values.push((name, median));
    }

    /// Warm-up, then [`REPEATS`] calls of `f`, which returns one figure per
    /// name for that repeat.
    fn sample<const K: usize>(
        &mut self,
        names: [&'static str; K],
        mut f: impl FnMut() -> [f64; K],
    ) {
        f();
        let mut columns = vec![Vec::with_capacity(REPEATS); K];
        for _ in 0..REPEATS {
            for (column, v) in columns.iter_mut().zip(f()) {
                column.push(v);
            }
        }
        for (name, column) in names.into_iter().zip(&columns) {
            self.emit(name, column);
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

struct NoopObserver;
impl Observer for NoopObserver {}

const PINGPONG_ROUNDS: u64 = 250;

/// 2-rank ping-pong straight on the kernel over an ideal network: every
/// simulated event is a context switch and the cost model does nothing.
fn kernel_pingpong(observed: bool) -> (f64, HotProfile, KernelStats) {
    let (wall, out) = timed(|| {
        let mut sim = Sim::new(IdealNetwork::new(2, SimDuration::from_micros(20)));
        if observed {
            sim.set_observer(Box::new(NoopObserver));
        }
        sim.spawn(|ctx| {
            let mut acc = 0u64;
            for i in 0..PINGPONG_ROUNDS {
                ctx.send(ProcId(1), Tag::app(0), i, 8);
                let (_, v): (ProcId, u64) = ctx.recv_typed(Tag::app(1));
                acc = acc.wrapping_add(v);
            }
            acc
        });
        sim.spawn(|ctx| {
            for _ in 0..PINGPONG_ROUNDS {
                let (_, v): (ProcId, u64) = ctx.recv_typed(Tag::app(0));
                ctx.send(ProcId(0), Tag::app(1), v.wrapping_mul(3), 8);
            }
            0u64
        });
        sim.run().expect("kernel ping-pong runs")
    });
    (wall, out.profile, out.kernel_stats)
}

/// The same ping-pong through `Machine`/`Ctx` on the two-layer cost model.
fn machine_pingpong() -> f64 {
    let machine = Machine::new(uniform_spec(2));
    let (wall, _) = timed(|| {
        machine
            .run(|ctx| {
                for i in 0..PINGPONG_ROUNDS {
                    if ctx.rank() == 0 {
                        ctx.send(1, Tag::app(0), i, 8);
                        let _: (usize, u64) = ctx.recv_typed(Tag::app(1));
                    } else {
                        let (_, v): (usize, u64) = ctx.recv_typed(Tag::app(0));
                        ctx.send(0, Tag::app(1), v.wrapping_mul(3), 8);
                    }
                }
            })
            .expect("machine ping-pong runs")
    });
    wall
}

fn sim_handoff(set: &mut Set<'_>) {
    set.sample(
        [
            "sim.switch_ns",
            "sim.park_wakes_per_switch",
            "sim.observer_ns",
            "rt.msg_ns",
        ],
        || {
            let (bare, profile, kernel) = kernel_pingpong(false);
            let (observed, _, _) = kernel_pingpong(true);
            let through_rt = machine_pingpong();
            let switches = profile.switches as f64;
            [
                bare * 1e9 / switches,
                profile.park_wakes as f64 / switches,
                (observed - bare) * 1e9 / kernel.events as f64,
                (through_rt - bare) * 1e9 / kernel.messages as f64,
            ]
        },
    );
}

/// 8-rank all-to-all bursts: the event-queue heap under concurrent
/// deliveries (the `events/fanout` cell of `selfperf`, quick size).
fn sim_fanout(set: &mut Set<'_>) {
    let machine = Machine::new(uniform_spec(8));
    set.sample(["sim.event_ns.fanout"], || {
        let (wall, run) = timed(|| {
            machine
                .run(|ctx| {
                    let (me, n) = (ctx.rank(), ctx.nprocs());
                    for round in 0..12u64 {
                        for d in (0..n).filter(|&d| d != me) {
                            ctx.send(d, Tag::app(2), (round << 8) | me as u64, 128);
                        }
                        for _ in 0..n - 1 {
                            let _: (usize, u64) = ctx.recv_typed(Tag::app(2));
                            ctx.compute(SimDuration::from_micros(5));
                        }
                    }
                })
                .expect("fan-out runs")
        });
        [wall * 1e9 / run.kernel_stats.events as f64]
    });
}

/// 192 differently-tagged messages parked, then drained in reverse order.
fn sim_mailbox(set: &mut Set<'_>) {
    const TAGS: u32 = 192;
    let machine = Machine::new(uniform_spec(2));
    set.sample(["sim.mailbox_ns.tagged"], || {
        let (wall, run) = timed(|| {
            machine
                .run(|ctx| {
                    for round in 0..4u64 {
                        if ctx.rank() == 0 {
                            for t in 0..TAGS {
                                ctx.send(1, Tag::app(t), u64::from(t) + round, 16);
                            }
                            let _: (usize, u64) = ctx.recv_typed(Tag::app(TAGS));
                        } else {
                            for t in (0..TAGS).rev() {
                                let _: (usize, u64) = ctx.recv_typed(Tag::app(t));
                            }
                            ctx.send(0, Tag::app(TAGS), round, 8);
                        }
                    }
                })
                .expect("tagged drain runs")
        });
        [wall * 1e9 / run.kernel_stats.messages as f64]
    });
}

/// An empty-body 4096-rank run: what spawning, stacking and tearing down a
/// rank costs when it does nothing.
fn sim_spawn(set: &mut Set<'_>) {
    let machine = scale::machine(64, 64);
    let ranks = 4096.0;
    set.sample(["sim.spawn_us_per_rank", "sim.rss_kb_per_rank"], || {
        host::reset_peak_rss();
        let before = host::peak_rss_kb();
        let (wall, _) = timed(|| machine.run(|_| 0u8).expect("empty run"));
        let grown = host::peak_rss_kb().saturating_sub(before);
        [wall * 1e6 / ranks, grown as f64 / ranks]
    });
}

fn paper_spec() -> TwoLayerSpec {
    das_spec(CLUSTERS, PROCS, 10.0, 1.0)
}

fn net_booking(set: &mut Set<'_>, seed: u64) {
    const STREAM: usize = 4000;
    let routed = |shape: &str| {
        paper_spec().wan_topology(WanTopology::parse(shape).expect("known WAN shape"))
    };
    let cases = [
        ("net.book_ns.intra", paper_spec(), false),
        ("net.book_ns.mesh", paper_spec(), true),
        ("net.book_ns.fattree", routed("fattree"), true),
        ("net.book_ns.dragonfly", routed("dragonfly"), true),
    ];
    for (name, spec, inter) in cases {
        let stream = booking_stream(seed, STREAM, CLUSTERS, PROCS, inter);
        set.sample([name], || {
            let mut net = TwoLayerNetwork::new(spec.clone());
            let (wall, _) = timed(|| {
                for b in &stream {
                    black_box(net.transfer(
                        ProcId(b.src),
                        ProcId(b.dst),
                        b.wire_bytes,
                        SimTime::from_nanos(b.at_ns),
                    ));
                }
            });
            [wall * 1e9 / STREAM as f64]
        });
    }
}

/// `LinkState::acquire` into a list that already holds `depth` disjoint busy
/// intervals: each acquisition lands in a seeded gap, so it pays the search
/// and the mid-list insert.
fn net_link_acquire(set: &mut Set<'_>, seed: u64) {
    const ACQUIRES: u64 = 256;
    const PITCH_NS: u64 = 100;
    for (name, depth) in [
        ("net.link_acquire_ns.d1", 1u64),
        ("net.link_acquire_ns.d100", 100),
        ("net.link_acquire_ns.d10k", 10_000),
    ] {
        let mut busy = LinkState::default();
        for i in 0..depth {
            busy.acquire(
                SimTime::from_nanos(i * PITCH_NS),
                SimDuration::from_nanos(PITCH_NS / 2),
                64,
            );
        }
        let mut rng = Rng::new(seed, 4);
        let ready: Vec<SimTime> = (0..ACQUIRES)
            .map(|_| SimTime::from_nanos(rng.below(depth * PITCH_NS)))
            .collect();
        set.sample([name], || {
            let mut link = busy.clone();
            let (wall, _) = timed(|| {
                for &at in &ready {
                    black_box(link.acquire(at, SimDuration::from_nanos(5), 8));
                }
            });
            [wall * 1e9 / ACQUIRES as f64]
        });
    }
}

/// Host microseconds per 32-rank collective on the paper's machine: the
/// difference between a run of `MANY` and a run of `FEW`, so spawn and
/// teardown cancel.
fn rt_collectives(set: &mut Set<'_>) {
    const FEW: u32 = 4;
    const MANY: u32 = 24;
    let machine = Machine::new(paper_spec());
    let per_op = |few: f64, many: f64| (many - few) * 1e6 / f64::from(MANY - FEW);

    let barriers = |k: u32| {
        timed(|| {
            machine
                .run(move |ctx: &mut Ctx<'_>| {
                    let mut barrier = Barrier::new(0);
                    for _ in 0..k {
                        barrier.wait(ctx);
                    }
                })
                .expect("barrier run")
        })
        .0
    };
    set.sample(["rt.barrier_us.32"], || {
        [per_op(barriers(FEW), barriers(MANY))]
    });

    let bcasts = |k: u32| {
        timed(|| {
            machine
                .run(move |ctx: &mut Ctx<'_>| {
                    for i in 0..k {
                        let data = (ctx.rank() == 0).then_some(u64::from(i));
                        bcast_flat(ctx, 0, Tag::app(i), data, 64);
                    }
                })
                .expect("broadcast run")
        })
        .0
    };
    set.sample(["rt.bcast_us.32"], || [per_op(bcasts(FEW), bcasts(MANY))]);
}

fn apps_cells(set: &mut Set<'_>) {
    const NAMES: [(AppId, &str, &str); 6] = [
        (
            AppId::Water,
            "apps.cell_ms.water",
            "apps.us_per_event.water",
        ),
        (
            AppId::Barnes,
            "apps.cell_ms.barnes",
            "apps.us_per_event.barnes",
        ),
        (AppId::Tsp, "apps.cell_ms.tsp", "apps.us_per_event.tsp"),
        (AppId::Asp, "apps.cell_ms.asp", "apps.us_per_event.asp"),
        (
            AppId::Awari,
            "apps.cell_ms.awari",
            "apps.us_per_event.awari",
        ),
        (AppId::Fft, "apps.cell_ms.fft", "apps.us_per_event.fft"),
    ];
    let cfg = SuiteConfig::at(Scale::Small);
    let machine = Machine::new(paper_spec());
    for (app, cell_ms, us_per_event) in NAMES {
        let variant = if app.has_optimized() {
            Variant::Optimized
        } else {
            Variant::Unoptimized
        };
        set.sample([cell_ms, us_per_event], || {
            let (wall, run) = timed(|| {
                run_app_report(app, &cfg, variant, &machine, None).expect("app cell runs")
            });
            [wall * 1e3, wall * 1e6 / run.kernel_stats.events as f64]
        });
    }
}

/// Records water/unopt (the what-if replay workload's key) with and without
/// the DAG recorder, then times replaying and explaining the recording.
fn model_probes(set: &mut Set<'_>, seed: u64) -> CommDag {
    const REPLAY_POINTS: usize = 32;
    let cfg = SuiteConfig::at(Scale::Small);
    let machine = wan_machine_with(10.0, 0.3, None);
    let (app, variant) = (AppId::Water, Variant::Unoptimized);

    let mut dag = None;
    set.sample(["model.record_overhead_pct"], || {
        let (plain, _) = timed(|| run_app(app, &cfg, variant, &machine).expect("water runs"));
        let (recorded, out) =
            timed(|| record_app(app, &cfg, variant, &machine).expect("water records"));
        dag = Some(out.1);
        [100.0 * (recorded - plain) / plain]
    });
    let dag = dag.expect("the recording probe ran");
    let ops = dag.total_ops();
    set.emit("model.dag_ops", &[ops as f64]);

    let specs: Vec<TwoLayerSpec> = points_of(&whatif::REPLAY_1K.request.body(seed))
        .into_iter()
        .take(REPLAY_POINTS)
        .map(|(lat, bw)| das_spec(CLUSTERS, PROCS, lat, bw))
        .collect();
    set.sample(
        ["model.replay_us_per_point", "model.replay_ns_per_op"],
        || {
            let (wall, _) = timed(|| {
                for spec in &specs {
                    black_box(replay(&dag, spec).elapsed);
                }
            });
            let per_point = wall / REPLAY_POINTS as f64;
            [per_point * 1e6, per_point * 1e9 / ops as f64]
        },
    );

    let at_base = replay(&dag, &dag.base_spec);
    set.sample(["model.critical_path_us"], || {
        let (wall, path) = timed(|| critical_path(&dag, &dag.base_spec, &at_base));
        black_box(path);
        [wall * 1e6]
    });
    dag
}

fn serve_probes(set: &mut Set<'_>, seed: u64, water_dag: &CommDag) {
    const WORKERS: usize = whatif::SERVER_WORKERS;
    let capacity = numagap_serve::DEFAULT_CACHE_CAPACITY;

    for (name, spec) in [
        (
            "serve.whatif_inproc_ms.replay_1k",
            whatif::REPLAY_1K.request,
        ),
        (
            "serve.whatif_inproc_ms.analytic_10k",
            whatif::ANALYTIC_10K.request,
        ),
    ] {
        let service = Service::new(WORKERS, capacity);
        let body = spec.body(seed);
        set.sample([name], || {
            let (wall, answer) = timed(|| service.whatif(&body).expect("generated body is valid"));
            black_box(answer.body.len());
            [wall * 1e3]
        });
    }

    // One point, so the figure is the cache miss alone: apps -> rt -> sim
    // under the DAG recorder, the baseline run, and the analytic compile.
    let one_point = WhatIfSpec {
        points: 1,
        ..whatif::REPLAY_1K.request
    }
    .body(seed);
    set.sample(["serve.cold_record_ms"], || {
        let service = Service::new(WORKERS, capacity);
        let (wall, answer) = timed(|| service.whatif(&one_point).expect("generated body is valid"));
        assert!(!answer.cache_hit, "a fresh service cannot hit");
        [wall * 1e3]
    });

    const GETS: usize = 50;
    let mut server = Server::start(&ServeOpts {
        port: 0,
        workers: WORKERS,
        ..ServeOpts::default()
    })
    .expect("probe server binds a loopback port");
    let addr = server.addr();
    set.sample(["serve.http_roundtrip_us"], || {
        let (wall, _) = timed(|| {
            for _ in 0..GETS {
                let reply = whatif::http(addr, "GET /v1/health", "").expect("health check");
                assert_eq!(reply.status, 200, "health check failed");
            }
        });
        [wall * 1e6 / GETS as f64]
    });
    server.shutdown();

    // The analytic workload's key: asp/opt at the service's reference point.
    let cfg = SuiteConfig::at(Scale::Small);
    let (_, asp_dag) = record_app(
        AppId::Asp,
        &cfg,
        Variant::Optimized,
        &wan_machine_with(10.0, 0.3, None),
    )
    .expect("asp records");
    let mut model = None;
    set.sample(["serve.analytic_compile_ms"], || {
        let (wall, compiled) = timed(|| AnalyticModel::compile(&asp_dag));
        model = Some(compiled);
        [wall * 1e3]
    });
    let model = model.expect("the compile probe ran");
    let points = points_of(&whatif::ANALYTIC_10K.request.body(seed));
    set.sample(["serve.analytic_bound_ns"], || {
        let (wall, _) = timed(|| {
            for &(lat, bw) in &points {
                black_box(model.bound(lat, bw));
            }
        });
        [wall * 1e9 / points.len() as f64]
    });

    const ENTRIES: u64 = 32;
    const LOOKUPS: usize = 2000;
    let key = |namespace: u64| CacheKey {
        app: AppId::Water,
        variant: Variant::Unoptimized,
        scale: Scale::Small,
        topology: None,
        seed: namespace,
        ref_latency_ms: 10.0,
        ref_bandwidth_mbs: 0.3,
    };
    let mut cache = DagCache::new(ENTRIES as usize);
    for namespace in 0..ENTRIES {
        cache.insert(
            &key(namespace),
            CacheEntry {
                dag: water_dag.clone(),
                analytic: model.clone(),
                recorded: water_dag.base_elapsed,
                baseline: water_dag.base_elapsed,
            },
        );
    }
    let mut rng = Rng::new(seed, 5);
    let wanted: Vec<CacheKey> = (0..LOOKUPS).map(|_| key(rng.below(ENTRIES))).collect();
    set.sample(["serve.cache_lookup_ns"], || {
        let (wall, _) = timed(|| {
            for k in &wanted {
                black_box(cache.lookup(k).expect("every probed key is cached"));
            }
        });
        [wall * 1e9 / LOOKUPS as f64]
    });
}

fn bench_probes(set: &mut Set<'_>, seed: u64) {
    let body = whatif::ANALYTIC_10K.request.body(seed);
    set.sample(["bench.json_parse_mb_per_s"], || {
        let (wall, doc) = timed(|| json::parse(&body).expect("generated body parses"));
        black_box(doc);
        [body.len() as f64 / 1e6 / wall]
    });

    let mut summary = None;
    set.sample(["bench.summary_load_ms"], || {
        let (wall, loaded) =
            timed(|| BenchSummary::from_json(FIG3_BASELINE).expect("committed baseline loads"));
        summary = Some(loaded);
        [wall * 1e3]
    });
    let summary = summary.expect("the load probe ran");
    set.sample(["bench.summary_emit_ms"], || {
        let (wall, text) = timed(|| summary.to_json());
        black_box(text.len());
        [wall * 1e3]
    });

    let cells: Vec<u32> = (0..1000).collect();
    set.sample(["bench.engine_cell_us"], || {
        let (wall, out) = timed(|| engine::run_cells(&cells, 2, None, |_, &c| black_box(c)));
        black_box(out.len());
        [wall * 1e6 / cells.len() as f64]
    });
}

fn cli_parse(set: &mut Set<'_>) {
    const PARSES: usize = 200;
    set.sample(["cli.parse_us"], || {
        let (wall, _) = timed(|| {
            for _ in 0..PARSES {
                black_box(
                    numagap_cli::parse(black_box(&crate::workload::fig3::SWEEP_ARGS))
                        .expect("sweep args parse"),
                );
            }
        });
        [wall * 1e6 / PARSES as f64]
    });
}

/// Runs the whole probe set, emitting every per-layer metric except
/// `trace.overhead_pct` (the traced workload's own).
pub fn run_all(seed: u64, report: &mut Report) -> Probes {
    let mut set = Set {
        report,
        out: Probes::default(),
    };
    set.sample(["host.calib_ms"], || [host::calib_ms()]);
    // First among the simulator probes: it reads the process's memory
    // high-water mark, which only later, larger runs would otherwise own.
    sim_spawn(&mut set);
    sim_handoff(&mut set);
    sim_fanout(&mut set);
    sim_mailbox(&mut set);
    net_booking(&mut set, seed);
    net_link_acquire(&mut set, seed);
    rt_collectives(&mut set);
    apps_cells(&mut set);
    let water_dag = model_probes(&mut set, seed);
    serve_probes(&mut set, seed, &water_dag);
    bench_probes(&mut set, seed);
    cli_parse(&mut set);
    set.out
}
