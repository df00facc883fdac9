//! The simulated parallel machine: spawn-per-rank execution and reporting.

use std::sync::Arc;

use numagap_net::{NetStats, TwoLayerNetwork, TwoLayerSpec};
use numagap_sim::{
    HotProfile, KernelStats, Observer, ProcStats, SchedMode, Sim, SimDuration, SimError, SimTime,
    TieBreak, TraceLog,
};

use crate::ctx::Ctx;
use crate::lint::{self, LintRecord};
use crate::reliable::{TransportConfig, TransportStats};
use crate::tags;

/// A configured two-layer machine on which SPMD programs run.
///
/// # Examples
///
/// ```
/// use numagap_rt::Machine;
/// use numagap_net::das_spec;
///
/// let machine = Machine::new(das_spec(2, 2, 1.0, 1.0));
/// let report = machine.run(|ctx| ctx.rank() * 2).unwrap();
/// assert_eq!(report.results, vec![0, 2, 4, 6]);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    spec: TwoLayerSpec,
    time_limit: Option<SimDuration>,
    tracing: bool,
    transport: Option<TransportConfig>,
    tie_break: TieBreak,
    sched_mode: Option<SchedMode>,
    stack_size: Option<usize>,
}

impl Machine {
    /// Creates a machine from an interconnect spec.
    pub fn new(spec: TwoLayerSpec) -> Self {
        Machine {
            spec,
            time_limit: None,
            tracing: false,
            transport: None,
            tie_break: TieBreak::Fifo,
            sched_mode: None,
            stack_size: None,
        }
    }

    /// Selects what the simulator runs ranks on (see [`SchedMode`]): fibers
    /// resumed inline on the thread that calls [`Machine::run`], or the
    /// legacy 1 rank = 1 OS thread mode kept as fallback and oracle. Virtual
    /// time is bit-identical across the two. Defaults to fibers wherever
    /// the host supports them.
    pub fn with_sched_mode(mut self, mode: SchedMode) -> Self {
        self.sched_mode = Some(mode);
        self
    }

    /// Sets the per-rank stack size in bytes (default 8 MiB). Large rank
    /// counts shrink this so a 4096-rank machine does not reserve tens of
    /// gigabytes of stacks.
    pub fn with_stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = Some(bytes);
        self
    }

    /// Sets the kernel's tiebreak policy for equal-timestamp events
    /// (default [`TieBreak::Fifo`], the native deterministic order).
    ///
    /// The adversarial policies only permute events sharing a virtual
    /// timestamp, so any change in a run's makespan or results under them
    /// exposes dependence on scheduler tiebreak choice. This is the hook
    /// behind `numagap check --perturb`.
    pub fn with_tie_break(mut self, policy: TieBreak) -> Self {
        self.tie_break = policy;
        self
    }

    /// Runs every rank over the reliable transport (see `crate::reliable`),
    /// so applications complete with identical results under any WAN fault
    /// plan — degraded only in simulated time. The transport's ack tag
    /// block is automatically exempted from the spec's fault plan.
    ///
    /// Transport-mode ranks poll instead of blocking, so a protocol
    /// deadlock runs until the [`Machine::time_limit`] — set one.
    pub fn with_reliable_transport(mut self, cfg: TransportConfig) -> Self {
        self.transport = Some(cfg);
        self
    }

    /// Records an execution trace during runs; retrieve it from
    /// [`RunReport::trace`] and render with
    /// [`TraceLog::to_chrome_json`].
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Aborts runs whose virtual time exceeds `limit`.
    pub fn time_limit(mut self, limit: SimDuration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// The interconnect spec of this machine.
    pub fn spec(&self) -> &TwoLayerSpec {
        &self.spec
    }

    /// Runs `entry` as an SPMD program: one process per rank, all executing
    /// the same function.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures: deadlock, virtual time limit, or a
    /// panic inside a simulated process.
    pub fn run<T, F>(&self, entry: F) -> Result<RunReport<T>, SimError>
    where
        F: Fn(&mut Ctx<'_>) -> T + Send + Sync + 'static,
        T: Send + 'static,
    {
        self.run_inner(entry, None)
    }

    /// Like [`Machine::run`], with a kernel [`Observer`] installed for the
    /// duration of the run — this is how the `numagap-analysis` sanitizer
    /// attaches to a machine.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures exactly like [`Machine::run`]. Observer
    /// state shared via `Arc` (as [`numagap_analysis::Analysis`] does)
    /// remains readable on the error path.
    ///
    /// [`numagap_analysis::Analysis`]: https://docs.rs/numagap-analysis
    pub fn run_observed<T, F>(
        &self,
        entry: F,
        observer: Box<dyn Observer>,
    ) -> Result<RunReport<T>, SimError>
    where
        F: Fn(&mut Ctx<'_>) -> T + Send + Sync + 'static,
        T: Send + 'static,
    {
        self.run_inner(entry, Some(observer))
    }

    fn run_inner<T, F>(
        &self,
        entry: F,
        observer: Option<Box<dyn Observer>>,
    ) -> Result<RunReport<T>, SimError>
    where
        F: Fn(&mut Ctx<'_>) -> T + Send + Sync + 'static,
        T: Send + 'static,
    {
        let mut spec = self.spec.clone();
        if self.transport.is_some() {
            if let Some(plan) = spec.fault_plan.as_mut() {
                // The ack control plane is modeled as reliable (see the
                // `crate::reliable` docs); without this every run would face
                // the Two Generals problem at exit.
                plan.exempt_tag_min.get_or_insert(tags::ACK_TAG.raw());
            }
        }
        let net = TwoLayerNetwork::new(spec.clone());
        let mut sim = Sim::new(net);
        sim.tie_break(self.tie_break);
        if let Some(mode) = self.sched_mode {
            sim.sched_mode(mode);
        }
        if let Some(bytes) = self.stack_size {
            sim.stack_size(bytes);
        }
        if let Some(limit) = self.time_limit {
            sim.time_limit(SimTime::ZERO + limit);
        }
        if self.tracing {
            sim.enable_tracing();
        }
        if let Some(observer) = observer {
            sim.set_observer(observer);
        }
        let topo = Arc::new(self.spec.topology.clone());
        let entry = Arc::new(entry);
        for _rank in 0..self.spec.topology.nprocs() {
            let entry = Arc::clone(&entry);
            let topo = Arc::clone(&topo);
            let transport = self.transport.clone();
            sim.spawn(move |pctx| {
                let mut ctx = Ctx::new(pctx, topo);
                if let Some(cfg) = transport {
                    ctx.enable_reliable_transport(cfg);
                }
                // Arm this rank's lint sink so runtime primitives the entry
                // creates (combiners, barriers) can report on drop.
                let lints = lint::arm();
                let result = entry(&mut ctx);
                // Flush before taking lints: the flush itself can report.
                let transport_stats = ctx.finish_transport();
                (result, lints.take(), transport_stats)
            });
        }
        let out = sim.run()?;
        let net_stats = out.network.stats();
        let mut results = Vec::with_capacity(out.results.len());
        let mut rank_lints = Vec::with_capacity(out.results.len());
        let mut transport_stats = Vec::with_capacity(out.results.len());
        for r in out.results {
            // A rank-level panic no longer aborts the kernel; surface the
            // first one here as the machine-level error `Machine::run`
            // documents.
            let r = r.map_err(|f| SimError::ProcessPanicked {
                rank: f.rank,
                message: f.message,
            })?;
            let (result, lints, tstats) = *r
                .downcast::<(T, Vec<LintRecord>, Option<TransportStats>)>()
                .expect("machine entry result type mismatch");
            results.push(result);
            rank_lints.push(lints);
            if let Some(tstats) = tstats {
                transport_stats.push(tstats);
            }
        }
        Ok(RunReport {
            elapsed: out.elapsed,
            results,
            proc_stats: out.proc_stats,
            kernel_stats: out.kernel_stats,
            profile: out.profile,
            net_stats,
            trace: out.trace,
            rank_lints,
            transport_stats,
            spec,
            sim_threads: out.sim_threads,
        })
    }
}

/// Everything measured during one machine run.
#[derive(Debug, Clone)]
pub struct RunReport<T> {
    /// Virtual makespan.
    pub elapsed: SimDuration,
    /// Per-rank results of the entry function.
    pub results: Vec<T>,
    /// Per-rank kernel accounting.
    pub proc_stats: Vec<ProcStats>,
    /// Whole-run kernel accounting.
    pub kernel_stats: KernelStats,
    /// Kernel hot-path self-profile (see [`HotProfile`]).
    pub profile: HotProfile,
    /// Traffic statistics from the network model.
    pub net_stats: NetStats,
    /// The execution trace, when the machine was built
    /// [`Machine::with_tracing`].
    pub trace: Option<TraceLog>,
    /// Runtime lint records collected on each rank (see [`crate::lint`]).
    pub rank_lints: Vec<Vec<LintRecord>>,
    /// Per-rank reliable-transport counters; empty unless the machine was
    /// built [`Machine::with_reliable_transport`].
    pub transport_stats: Vec<TransportStats>,
    /// The spec the machine ran with.
    pub spec: TwoLayerSpec,
    /// Number of OS threads rank code executed on (1 with fibers — the
    /// caller's own thread — or the rank count in legacy mode).
    pub sim_threads: usize,
}

impl<T> RunReport<T> {
    /// The seed of the spec's fault plan, if any — echoed so any faulty run
    /// is reproducible from its report alone.
    pub fn effective_seed(&self) -> Option<u64> {
        self.spec.fault_plan.as_ref().map(|p| p.seed)
    }

    /// Machine-wide reliable-transport counters; `None` unless the machine
    /// ran with the transport enabled.
    pub fn transport_totals(&self) -> Option<TransportStats> {
        if self.transport_stats.is_empty() {
            return None;
        }
        let mut total = TransportStats::default();
        for s in &self.transport_stats {
            total.merge(s);
        }
        Some(total)
    }

    /// Aggregate inter-cluster payload volume in MByte/s averaged over the
    /// run, per cluster (the y-axis of the paper's Figure 1).
    pub fn inter_mbytes_per_sec_per_cluster(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        let clusters = self.spec.topology.nclusters() as f64;
        if secs == 0.0 || clusters == 0.0 {
            return 0.0;
        }
        (self.net_stats.inter_payload_bytes as f64 / 1e6) / secs / clusters
    }

    /// Outgoing inter-cluster messages per second per cluster (the x-axis of
    /// the paper's Figure 1).
    pub fn inter_msgs_per_sec_per_cluster(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        let clusters = self.spec.topology.nclusters() as f64;
        if secs == 0.0 || clusters == 0.0 {
            return 0.0;
        }
        self.net_stats.inter_msgs as f64 / secs / clusters
    }

    /// Total traffic (all layers) in MByte/s across the whole machine — the
    /// "Total Traffic" column of the paper's Table 1.
    pub fn total_mbytes_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.net_stats.total_payload_bytes() as f64 / 1e6 / secs
    }

    /// Per-rank CPU utilization: fraction of the makespan spent computing
    /// (software send/receive overheads count as CPU work).
    pub fn utilization(&self) -> Vec<f64> {
        let total = self.elapsed.as_secs_f64();
        if total == 0.0 {
            return vec![0.0; self.proc_stats.len()];
        }
        self.proc_stats
            .iter()
            .map(|s| (s.compute + s.send_overhead + s.recv_overhead).as_secs_f64() / total)
            .collect()
    }

    /// Busy fraction of each wide-area link over the makespan:
    /// `(src_cluster, dst_cluster, utilization)`.
    pub fn wan_utilization(&self) -> Vec<(usize, usize, f64)> {
        let total = self.elapsed.as_secs_f64();
        self.net_stats
            .wan_busy
            .iter()
            .map(|(a, b, busy)| {
                let u = if total == 0.0 {
                    0.0
                } else {
                    busy.as_secs_f64() / total
                };
                (*a, *b, u)
            })
            .collect()
    }
}

// The benchmark engine (`numagap-bench`) shares one `Machine` across its
// worker threads by reference; this fails to compile if a future field ever
// costs `Machine` (or its reports) thread-safety.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Machine>();
    assert_send_sync::<RunReport<u64>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use numagap_net::{das_spec, uniform_spec};
    use numagap_sim::Tag;

    #[test]
    fn spmd_results_in_rank_order() {
        let machine = Machine::new(uniform_spec(5));
        let report = machine.run(|ctx| ctx.rank() as u64).unwrap();
        assert_eq!(report.results, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn traffic_rates_are_reported() {
        let machine = Machine::new(das_spec(2, 2, 1.0, 1.0));
        let report = machine
            .run(|ctx| {
                if ctx.rank() == 0 {
                    // one intra (to 1) and one inter (to 2) message
                    ctx.send(1, Tag::app(0), (), 1000);
                    ctx.send(2, Tag::app(0), (), 1000);
                }
                if ctx.rank() == 1 || ctx.rank() == 2 {
                    ctx.recv_tag(Tag::app(0));
                }
            })
            .unwrap();
        assert_eq!(report.net_stats.intra_msgs, 1);
        assert_eq!(report.net_stats.inter_msgs, 1);
        assert!(report.inter_mbytes_per_sec_per_cluster() > 0.0);
        assert!(report.inter_msgs_per_sec_per_cluster() > 0.0);
        assert!(report.total_mbytes_per_sec() > 0.0);
    }

    #[test]
    fn utilization_reports() {
        let machine = Machine::new(das_spec(2, 1, 1.0, 1.0));
        let report = machine
            .run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.compute(SimDuration::from_millis(10));
                    ctx.send(1, Tag::app(0), (), 100);
                }
                if ctx.rank() == 1 {
                    ctx.recv_tag(Tag::app(0));
                }
            })
            .unwrap();
        let util = report.utilization();
        assert_eq!(util.len(), 2);
        assert!(util[0] > 0.5, "rank 0 mostly computes: {util:?}");
        assert!(util[1] < 0.5, "rank 1 mostly waits: {util:?}");
        let wan = report.wan_utilization();
        assert_eq!(wan.len(), 1, "one WAN link carried traffic");
        assert!(wan[0].2 > 0.0 && wan[0].2 <= 1.0);
    }

    #[test]
    fn tracing_records_activity() {
        let machine = Machine::new(das_spec(2, 2, 1.0, 1.0)).with_tracing();
        let report = machine
            .run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.compute(SimDuration::from_millis(2));
                    ctx.send(3, Tag::app(0), 7u8, 1);
                }
                if ctx.rank() == 3 {
                    ctx.recv_tag(Tag::app(0));
                }
            })
            .unwrap();
        let trace = report.trace.expect("trace enabled");
        assert_eq!(trace.message_count(), 1);
        assert_eq!(
            trace.compute_time_of(0),
            SimDuration::from_millis(2),
            "trace must reconcile with accounting"
        );
        let json = trace.to_chrome_json();
        assert!(json.contains("\"ph\":\"s\""));
        // Untracked runs carry no trace.
        let untraced = Machine::new(das_spec(2, 2, 1.0, 1.0)).run(|_| ()).unwrap();
        assert!(untraced.trace.is_none());
    }

    #[test]
    fn time_limit_propagates() {
        let machine = Machine::new(uniform_spec(1)).time_limit(SimDuration::from_millis(1));
        let err = machine
            .run(|ctx| loop {
                ctx.compute(SimDuration::from_secs(1));
            })
            .unwrap_err();
        assert!(matches!(err, SimError::TimeLimit { .. }));
    }

    #[test]
    fn determinism_bit_for_bit() {
        let run = || {
            let machine = Machine::new(das_spec(2, 4, 5.0, 0.5));
            machine
                .run(|ctx| {
                    let n = ctx.nprocs();
                    let me = ctx.rank();
                    // Everyone sends to everyone; a little compute in between.
                    for d in 0..n {
                        if d != me {
                            ctx.send(d, Tag::app(1), me as u64, 128);
                        }
                    }
                    let mut acc = 0u64;
                    for _ in 0..n - 1 {
                        let (_, v): (usize, u64) = ctx.recv_typed(Tag::app(1));
                        acc += v;
                        ctx.compute(SimDuration::from_micros(50));
                    }
                    acc
                })
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.results, b.results);
        assert_eq!(a.net_stats.inter_msgs, b.net_stats.inter_msgs);
    }

    #[test]
    fn adversarial_tie_breaks_leave_outcome_bit_identical() {
        // All ranks share Wake events at t=0 (permuted by the adversarial
        // policies), then stagger their sends so no two transfers contend
        // for a shared network resource at the same instant — the paper
        // apps' shape. A structurally deterministic program must produce a
        // bit-identical report under every policy.
        let run = |tb: TieBreak| {
            let machine = Machine::new(das_spec(2, 4, 5.0, 0.5)).with_tie_break(tb);
            machine
                .run(|ctx| {
                    let n = ctx.nprocs();
                    let me = ctx.rank();
                    ctx.compute(SimDuration::from_micros(1 + me as u64));
                    for d in 0..n {
                        if d != me {
                            ctx.send(d, Tag::app(1), me as u64, 64);
                        }
                    }
                    let mut acc = 0u64;
                    for _ in 0..n - 1 {
                        let (_, v): (usize, u64) = ctx.recv_typed(Tag::app(1));
                        acc = acc.wrapping_add(v.wrapping_mul(v ^ 0x9E37));
                        ctx.compute(SimDuration::from_micros(10));
                    }
                    acc
                })
                .unwrap()
        };
        let fifo = run(TieBreak::Fifo);
        for tb in [
            TieBreak::Reversed,
            TieBreak::Shuffled(1),
            TieBreak::Shuffled(0xFEED),
        ] {
            let p = run(tb);
            assert_eq!(fifo.elapsed, p.elapsed, "{tb}: makespan moved");
            assert_eq!(fifo.results, p.results, "{tb}: results moved");
            assert_eq!(
                fifo.kernel_stats, p.kernel_stats,
                "{tb}: kernel accounting moved"
            );
        }
    }

    #[test]
    fn same_instant_link_contention_is_arbitrated_canonically() {
        // The hard case: two ranks sending over the same WAN gateway at the
        // exact same virtual instant. The kernel defers link booking to the
        // timestamp boundary and replays it in canonical (departure, rank,
        // send index) order, so even here — where event order is the ONLY
        // thing an eager booking could arbitrate by — the makespan must not
        // move under adversarial tiebreak policies. One receiver computes
        // after its receive, so whichever message queued second WOULD be
        // visible in the final time if arbitration leaked event order.
        let run = |tb: TieBreak| {
            let machine = Machine::new(das_spec(2, 4, 5.0, 0.5)).with_tie_break(tb);
            machine
                .run(|ctx| {
                    let me = ctx.rank();
                    if me < 2 {
                        // Same-instant inter-cluster sends from two ranks.
                        ctx.send(me + 4, Tag::app(1), me as u64, 4096);
                    } else if me == 4 {
                        // Post-receive compute dominates the makespan, so
                        // whichever queueing order delayed THIS message is
                        // visible in the final time.
                        let (_, v): (usize, u64) = ctx.recv_typed(Tag::app(1));
                        ctx.compute(SimDuration::from_millis(5));
                        return v;
                    } else if me == 5 {
                        let (_, v): (usize, u64) = ctx.recv_typed(Tag::app(1));
                        return v;
                    }
                    0
                })
                .unwrap()
        };
        let fifo = run(TieBreak::Fifo);
        for tb in [TieBreak::Reversed, TieBreak::Shuffled(0xFEED)] {
            let p = run(tb);
            assert_eq!(fifo.results, p.results, "{tb}: tagged payloads moved");
            assert_eq!(
                fifo.elapsed, p.elapsed,
                "{tb}: same-instant contention leaked event order into the makespan"
            );
        }
    }
}
