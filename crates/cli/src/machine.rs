//! The machine every command but `audit`, `bench`, `predict` and `serve`
//! builds from its flags, and the `info` command that prints it.

use std::fmt;

use numagap_net::{
    numa_gap, CrossTrafficPlan, HeteroPreset, LinkParams, LinkSchedule, Topology, TwoLayerSpec,
    WanTopology,
};
use numagap_rt::Machine;
use numagap_sim::{SimDuration, SimTime};

use crate::flags::Values;

/// The time-varying WAN quality shape selected by `--schedule`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleArg {
    /// Constant link quality (the paper's model).
    None,
    /// A triangle wave with per-link phase: quality degrades to the peak
    /// factors and recovers every `--schedule-period`.
    Diurnal,
    /// Full degradation from `--schedule-period` onward.
    Step,
    /// Linear drift from pristine to fully degraded over
    /// `--schedule-period`.
    Drift,
}

impl ScheduleArg {
    /// Parses a CLI name (`none`, `diurnal`, `step`, `drift`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "none" => Some(ScheduleArg::None),
            "diurnal" => Some(ScheduleArg::Diurnal),
            "step" => Some(ScheduleArg::Step),
            "drift" => Some(ScheduleArg::Drift),
            _ => None,
        }
    }
}

impl fmt::Display for ScheduleArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ScheduleArg::None => "none",
            ScheduleArg::Diurnal => "diurnal",
            ScheduleArg::Step => "step",
            ScheduleArg::Drift => "drift",
        })
    }
}

/// Machine-shape and hostile-network flags shared by the machine commands.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineArgs {
    /// Number of clusters.
    pub clusters: usize,
    /// Processors per cluster.
    pub procs: usize,
    /// Explicit per-cluster sizes (`--clusters 8,8,4,2`); `None` means the
    /// symmetric `clusters x procs` layout. When set, `clusters` mirrors
    /// its length and `procs` is unused.
    pub cluster_sizes: Option<Vec<usize>>,
    /// Per-cluster compute-speed preset (`--hetero`).
    pub hetero: HeteroPreset,
    /// Seeded cross-traffic intensity (`--cross-traffic`): the long-run
    /// fraction of each WAN link's bandwidth occupied by background flows;
    /// 0 disables the plan.
    pub cross_traffic: f64,
    /// Time-varying WAN quality shape (`--schedule`).
    pub schedule: ScheduleArg,
    /// The schedule's time constant in ms: diurnal period, step onset, or
    /// drift horizon.
    pub schedule_period_ms: f64,
    /// Latency multiplier at full degradation (`--degrade-latency`).
    pub degrade_latency: f64,
    /// Bandwidth multiplier at full degradation (`--degrade-bandwidth`).
    pub degrade_bandwidth: f64,
    /// One-way WAN latency in milliseconds.
    pub latency_ms: f64,
    /// WAN bandwidth in MByte/s.
    pub bandwidth_mbs: f64,
    /// WAN latency jitter fraction.
    pub jitter: f64,
    /// Seed of the cross-traffic and the link schedule (`--seed`).
    pub seed: u64,
    /// Wide-area wiring between cluster gateways (`--topology`); the
    /// default full mesh reproduces the paper's machine bit-for-bit.
    pub wan_topology: WanTopology,
}

impl Default for MachineArgs {
    fn default() -> Self {
        MachineArgs {
            clusters: 4,
            procs: 8,
            cluster_sizes: None,
            hetero: HeteroPreset::Uniform,
            cross_traffic: 0.0,
            schedule: ScheduleArg::None,
            schedule_period_ms: 500.0,
            degrade_latency: 2.0,
            degrade_bandwidth: 0.5,
            latency_ms: 10.0,
            bandwidth_mbs: 1.0,
            jitter: 0.0,
            seed: 0,
            wan_topology: WanTopology::FullMesh,
        }
    }
}

impl MachineArgs {
    /// The cluster layout these flags describe, with the hetero preset's
    /// compute speeds applied.
    pub fn topology(&self) -> Topology {
        let topo = match &self.cluster_sizes {
            Some(sizes) => Topology::new(sizes),
            None => Topology::symmetric(self.clusters, self.procs),
        };
        self.hetero.apply(topo)
    }

    /// The time-varying WAN schedule these flags describe, if any: the
    /// shape, with this machine's period and degradation factors.
    pub fn link_schedule(&self) -> Option<LinkSchedule> {
        let period = SimDuration::from_millis_f64(self.schedule_period_ms);
        let at = SimTime::from_nanos(period.as_nanos());
        let schedule = match self.schedule {
            ScheduleArg::None => return None,
            ScheduleArg::Diurnal => LinkSchedule::diurnal(self.seed, period),
            ScheduleArg::Step => LinkSchedule::step(self.seed, at),
            ScheduleArg::Drift => LinkSchedule::drift(self.seed, at),
        };
        Some(
            schedule
                .latency_factor(self.degrade_latency)
                .bandwidth_factor(self.degrade_bandwidth),
        )
    }

    /// Builds the interconnect spec, including any configured hostile
    /// plans (cross-traffic, link schedule).
    pub fn spec(&self) -> TwoLayerSpec {
        let mut spec = TwoLayerSpec::new(self.topology())
            .inter(LinkParams::wide_area(self.latency_ms, self.bandwidth_mbs))
            .wan_topology(self.wan_topology)
            .wan_latency_jitter(self.jitter);
        if self.cross_traffic > 0.0 {
            spec =
                spec.cross_traffic(CrossTrafficPlan::new(self.seed).intensity(self.cross_traffic));
        }
        if let Some(schedule) = self.link_schedule() {
            spec = spec.link_schedule(schedule);
        }
        spec
    }

    /// Builds the machine.
    pub fn machine(&self) -> Machine {
        Machine::new(self.spec())
    }
}

/// Executes the `info` command.
pub(crate) fn execute_info(args: &Values) -> i32 {
    let spec = args.machine.spec();
    let (lat_gap, bw_gap) = numa_gap(&spec);
    println!(
        "machine: {} ({} processors, {} clusters)",
        spec.topology.label(),
        spec.topology.nprocs(),
        spec.topology.nclusters()
    );
    println!(
        "intra:   {} one-way, {:.1} MB/s",
        spec.intra.latency,
        spec.intra.mbytes_per_sec()
    );
    println!(
        "inter:   {} one-way, {:.2} MB/s, jitter {:.0}%",
        spec.inter.latency,
        spec.inter.mbytes_per_sec(),
        spec.wan_latency_jitter * 100.0
    );
    println!(
        "wan:     {} ({} routing node(s))",
        spec.wan_topology.label(),
        spec.wan_topology.nnodes(spec.topology.nclusters())
    );
    println!("NUMA gap: {lat_gap:.0}x latency, {bw_gap:.1}x bandwidth");
    0
}
