//! The machine every command but `audit`, `bench`, `predict` and `serve`
//! builds from its flags, and the `info` command that prints it.

use std::fmt;

use numagap_net::{
    numa_gap, CrossTrafficPlan, FaultPlan, HeteroPreset, LinkParams, LinkSchedule, Topology,
    TwoLayerSpec, WanTopology,
};
use numagap_rt::{Machine, TransportConfig};
use numagap_sim::{SimDuration, SimTime};

use crate::flags::{self, Values};

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

/// Machine-shape and fault-injection flags shared by all commands.
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
    /// Fault-plan seed; `--seed` installs a (possibly zero-probability)
    /// plan so the run's report echoes the seed it executed under.
    pub seed: Option<u64>,
    /// WAN drop probability.
    pub drop: f64,
    /// WAN duplicate probability.
    pub duplicate: f64,
    /// WAN reorder probability.
    pub reorder: f64,
    /// Gateway crash-restart windows: `(cluster, from_ms, until_ms)`.
    pub outages: Vec<(usize, f64, f64)>,
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
            seed: None,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            outages: Vec::new(),
            wan_topology: WanTopology::FullMesh,
        }
    }
}

fn ms_to_simtime(ms: f64) -> SimTime {
    SimTime::from_nanos((ms * 1e6).round() as u64)
}

impl MachineArgs {
    /// The fault plan these flags describe; `None` when no fault flag (and
    /// no `--seed`) was given.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        let configured = self.seed.is_some()
            || self.drop > 0.0
            || self.duplicate > 0.0
            || self.reorder > 0.0
            || !self.outages.is_empty();
        if !configured {
            return None;
        }
        let mut plan = FaultPlan::new(self.seed.unwrap_or(0))
            .drop_prob(self.drop)
            .duplicate_prob(self.duplicate)
            .reorder_prob(self.reorder);
        for &(cluster, from, until) in &self.outages {
            plan = plan.gateway_outage(cluster, ms_to_simtime(from), ms_to_simtime(until));
        }
        Some(plan)
    }

    /// The cluster layout these flags describe, with the hetero preset's
    /// compute speeds applied.
    pub fn topology(&self) -> Topology {
        let topo = match &self.cluster_sizes {
            Some(sizes) => Topology::new(sizes),
            None => Topology::symmetric(self.clusters, self.procs),
        };
        self.hetero.apply(topo)
    }

    /// The `--clusters` value reproducing this layout (a plain count, or
    /// the comma-joined explicit sizes).
    pub fn clusters_flag(&self) -> String {
        match &self.cluster_sizes {
            Some(sizes) => sizes
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(","),
            None => self.clusters.to_string(),
        }
    }

    /// The link schedule for an explicit shape and seed, using this
    /// machine's period and degradation factors. `None` for
    /// [`ScheduleArg::None`].
    pub fn schedule_for(&self, shape: ScheduleArg, seed: u64) -> Option<LinkSchedule> {
        let period = SimDuration::from_millis_f64(self.schedule_period_ms);
        let at = SimTime::from_nanos(period.as_nanos());
        let schedule = match shape {
            ScheduleArg::None => return None,
            ScheduleArg::Diurnal => LinkSchedule::diurnal(seed, period),
            ScheduleArg::Step => LinkSchedule::step(seed, at),
            ScheduleArg::Drift => LinkSchedule::drift(seed, at),
        };
        Some(
            schedule
                .latency_factor(self.degrade_latency)
                .bandwidth_factor(self.degrade_bandwidth),
        )
    }

    /// The time-varying WAN schedule these flags describe, if any.
    pub fn link_schedule(&self) -> Option<LinkSchedule> {
        self.schedule_for(self.schedule, self.seed.unwrap_or(0))
    }

    /// Builds the interconnect spec, including any configured hostile
    /// plans (cross-traffic, link schedule) and fault plan.
    pub fn spec(&self) -> TwoLayerSpec {
        let mut spec = TwoLayerSpec::new(self.topology())
            .inter(LinkParams::wide_area(self.latency_ms, self.bandwidth_mbs))
            .wan_topology(self.wan_topology)
            .wan_latency_jitter(self.jitter);
        if self.cross_traffic > 0.0 {
            spec = spec.cross_traffic(
                CrossTrafficPlan::new(self.seed.unwrap_or(0)).intensity(self.cross_traffic),
            );
        }
        if let Some(schedule) = self.link_schedule() {
            spec = spec.link_schedule(schedule);
        }
        match self.fault_plan() {
            Some(plan) => spec.fault_plan(plan),
            None => spec,
        }
    }

    /// Builds the machine. When the fault plan can actually fire, the
    /// reliable transport is enabled (applications would otherwise hang on
    /// dropped messages) along with a generous virtual time limit so an
    /// unrecoverable schedule aborts instead of spinning forever.
    pub fn machine(&self) -> Machine {
        let spec = self.spec();
        let faulty = spec.fault_plan.as_ref().is_some_and(|p| p.any_faults());
        let machine = Machine::new(spec.clone());
        if faulty {
            machine
                .with_reliable_transport(TransportConfig::for_spec(&spec))
                .time_limit(SimDuration::from_secs(3600))
        } else {
            machine
        }
    }

    /// The flags that spell this machine where it differs from the
    /// default one: `parse` of a machine command plus these flags builds a
    /// machine equal to `self`.
    pub fn to_flags(&self) -> Vec<String> {
        let values = Values {
            machine: self.clone(),
            ..flags::defaults()
        };
        flags::render("run", &values)
    }
}

/// Echoes the seed a faulty machine runs under, so the run can be repeated.
pub(crate) fn print_fault_seed(machine: &Machine) {
    if let Some(plan) = &machine.spec().fault_plan {
        println!(
            "fault seed: {} (reproduce with --seed {})",
            plan.seed, plan.seed
        );
    }
}

/// Executes the `info` command.
pub(crate) fn execute_info(machine: &MachineArgs) -> i32 {
    let spec = machine.spec();
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
    if let Some(plan) = &spec.fault_plan {
        println!(
            "faults:  seed {} drop {:.0}% duplicate {:.0}% reorder {:.0}%, \
                     {} outage window(s)",
            plan.seed,
            plan.drop_prob * 100.0,
            plan.duplicate_prob * 100.0,
            plan.reorder_prob * 100.0,
            plan.link_outages.len() + plan.gateway_outages.len()
        );
    }
    0
}
