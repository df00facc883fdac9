//! The simulated parallel machine: spawn-per-rank execution and reporting.

use std::sync::Arc;

use numagap_net::{NetStats, TwoLayerNetwork, TwoLayerSpec};
use numagap_sim::{
    HotProfile, KernelStats, Observer, ProcStats, Sim, SimDuration, SimError, SimTime, TieBreak,
};

use crate::ctx::Ctx;
use crate::lint::{self, LintRecord};

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
    tie_break: TieBreak,
    stack_size: Option<usize>,
}

impl Machine {
    /// Creates a machine from an interconnect spec.
    pub fn new(spec: TwoLayerSpec) -> Self {
        Machine {
            spec,
            time_limit: None,
            tie_break: TieBreak::Fifo,
            stack_size: None,
        }
    }

    /// Sets the per-rank stack size in bytes (default 8 MiB). A rank that
    /// overflows its stack runs into a guard page and kills the process,
    /// fiber or thread alike. Large rank counts shrink this so a
    /// 4096-rank machine does not reserve tens of gigabytes of address
    /// space.
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

    /// Like [`Machine::run`], with a kernel [`Observer`] borrowed for the
    /// duration of the run — this is how the `numagap-analysis` sanitizer
    /// attaches to a machine. The caller keeps the observer and reads it
    /// once the run returns.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures exactly like [`Machine::run`]. The
    /// observer still holds everything it saw before the run aborted.
    pub fn run_observed<T, F>(
        &self,
        entry: F,
        observer: &mut dyn Observer,
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
        observer: Option<&mut dyn Observer>,
    ) -> Result<RunReport<T>, SimError>
    where
        F: Fn(&mut Ctx<'_>) -> T + Send + Sync + 'static,
        T: Send + 'static,
    {
        let net = TwoLayerNetwork::new(self.spec.clone());
        let mut sim = Sim::new(net);
        sim.tie_break(self.tie_break);
        if let Some(bytes) = self.stack_size {
            sim.stack_size(bytes);
        }
        if let Some(limit) = self.time_limit {
            sim.time_limit(SimTime::ZERO + limit);
        }
        if let Some(observer) = observer {
            sim.set_observer(Box::new(observer));
        }
        let topo = Arc::new(self.spec.topology.clone());
        let entry = Arc::new(entry);
        for _rank in 0..self.spec.topology.nprocs() {
            let entry = Arc::clone(&entry);
            let topo = Arc::clone(&topo);
            sim.spawn(move |pctx| {
                let mut ctx = Ctx::new(pctx, topo);
                // Arm this rank's lint sink so runtime primitives the entry
                // creates (combiners, barriers) can report on drop.
                let lints = lint::arm();
                let result = entry(&mut ctx);
                (result, lints.take())
            });
        }
        let out = sim.run()?;
        let net_stats = out.network.stats();
        let mut results = Vec::with_capacity(out.results.len());
        let mut rank_lints = Vec::with_capacity(out.results.len());
        for r in out.results {
            // A rank-level panic no longer aborts the kernel; surface the
            // first one here as the machine-level error `Machine::run`
            // documents.
            let r = r.map_err(|f| SimError::ProcessPanicked {
                rank: f.rank,
                message: f.message,
            })?;
            let (result, lints) = *r
                .downcast::<(T, Vec<LintRecord>)>()
                .expect("machine entry result type mismatch");
            results.push(result);
            rank_lints.push(lints);
        }
        Ok(RunReport {
            elapsed: out.elapsed,
            results,
            proc_stats: out.proc_stats,
            kernel_stats: out.kernel_stats,
            profile: out.profile,
            net_stats,
            rank_lints,
            spec: self.spec.clone(),
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
    /// Runtime lint records collected on each rank (see [`crate::lint`]).
    pub rank_lints: Vec<Vec<LintRecord>>,
    /// The spec the machine ran with.
    pub spec: TwoLayerSpec,
    /// Number of OS threads rank code executed on (see
    /// [`numagap_sim::RunOutcome::sim_threads`]): 1 where ranks are fibers,
    /// the rank count on hosts without them.
    pub sim_threads: usize,
}

impl<T> RunReport<T> {
    /// Always `None`: no run carries a seed that its spec does not already
    /// state. Still a method only because `benchmark/src/workload/fig3.rs`
    /// calls it.
    pub fn effective_seed(&self) -> Option<u64> {
        None
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
    use numagap_sim::{Tag, TraceEvent, Tracer};

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
    fn tracing_records_activity() {
        let machine = Machine::new(das_spec(2, 2, 1.0, 1.0));
        let mut tracer = Tracer::new(4);
        let report = machine
            .run_observed(
                |ctx| {
                    if ctx.rank() == 0 {
                        ctx.compute(SimDuration::from_millis(2));
                        ctx.send(3, Tag::app(0), 7u8, 1);
                    }
                    if ctx.rank() == 3 {
                        ctx.recv_tag(Tag::app(0));
                    }
                },
                &mut tracer,
            )
            .unwrap();
        let trace = tracer.finish();
        assert_eq!(trace.message_count(), 1);
        assert_eq!(
            trace.compute_time_of(0),
            SimDuration::from_millis(2),
            "trace must reconcile with accounting"
        );
        // Rank 3 blocked from its post until the message arrived.
        let blocked = trace.events.iter().find_map(|e| match e {
            TraceEvent::Blocked {
                rank: 3,
                start,
                end,
            } => Some(end.since(*start)),
            _ => None,
        });
        assert_eq!(blocked, Some(report.proc_stats[3].blocked));
        let json = trace.to_chrome_json();
        assert!(json.contains("\"ph\":\"s\""));
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
