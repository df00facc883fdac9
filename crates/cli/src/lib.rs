//! # numagap-cli — command-line front end
//!
//! ```text
//! numagap run --app asp --variant opt --clusters 4 --procs 8 \
//!             --latency 10 --bandwidth 1.0 [--scale medium] [--verify] \
//!             [--jitter 0.2] [--trace out.json]
//! numagap suite [machine flags]          # all six apps, both variants
//! numagap check [--app X] [--perturb] [machine flags]  # communication sanitizer
//! numagap audit [--root DIR] [--rules]   # determinism static analysis
//! numagap soak [--app X ...] [machine flags]  # fault/hostile scenario matrix
//! numagap bench [--target T] [--jobs N]  # run experiments (the only way to)
//! numagap bench --compare OLD NEW        # diff two BENCH_*.json summaries
//! numagap serve [--port P] [--workers N] # batched what-if prediction server
//! numagap info [machine flags]           # print the machine and its gap
//! numagap help
//! ```
//!
//! The argument parser is hand-rolled (the project carries no CLI
//! dependency) and unit-tested; `main` is a thin wrapper.
//!
//! Exit codes are uniform across commands: `0` clean, [`EXIT_FINDINGS`]
//! when the command ran and found failures (sanitizer diagnostics,
//! checksum mismatches, failing soak cells), [`EXIT_ERROR`] for usage or
//! internal errors (bad flags, simulator aborts, I/O failures).

#![warn(missing_docs)]

use std::fmt;

use numagap_analysis::{check_rank_lints, Analysis, Diagnostic, DiagnosticKind};
use numagap_apps::{
    checksum_tolerance, run_app, run_app_report, serial_checksum, AppId, Scale, SuiteConfig,
    Variant,
};
use numagap_bench::engine;
use numagap_bench::record::{compare, BenchSummary, CompareOpts};
use numagap_bench::targets::{SweepOpts, Target, TARGETS};
use numagap_model::{run_predict, PredictOpts};
use numagap_net::{
    numa_gap, CrossTrafficPlan, FaultPlan, HeteroPreset, LinkParams, LinkSchedule, Topology,
    TwoLayerSpec, WanTopology,
};
use numagap_rt::{Machine, TransportConfig};
use numagap_sim::{SimDuration, SimTime, TieBreak};

/// Exit code: the command ran to completion but found failures — sanitizer
/// diagnostics, checksum mismatches, or failing soak cells.
pub const EXIT_FINDINGS: i32 = 1;
/// Exit code: usage or internal error — unparseable flags, a simulator
/// abort outside a soak cell, or an I/O failure.
pub const EXIT_ERROR: i32 = 2;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one application.
    Run(RunArgs),
    /// Run the whole suite.
    Suite(MachineArgs),
    /// Run the communication sanitizer over applications.
    Check(CheckArgs),
    /// Run the determinism static-analysis pass over the workspace sources.
    Audit(AuditArgs),
    /// Sweep applications across fault intensities and seeds.
    Soak(SoakArgs),
    /// Run experiment targets through the parallel engine, or compare two
    /// `BENCH_*.json` summaries.
    Bench(BenchArgs),
    /// Predict fig3-style sensitivity analytically from a recorded
    /// communication DAG, optionally validating against the simulator.
    Predict(PredictArgs),
    /// Serve batched what-if predictions over HTTP: a DAG cache plus
    /// replay/analytic evaluation behind `POST /v1/whatif`.
    Serve(ServeCmdArgs),
    /// Describe the machine.
    Info(MachineArgs),
    /// Build a real Awari endgame database.
    AwariDb {
        /// Largest stone count.
        stones: u32,
        /// Machine shape.
        machine: MachineArgs,
    },
    /// Print usage.
    Help,
}

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
}

/// Flags of the `run` command.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Which application.
    pub app: AppId,
    /// Which variant.
    pub variant: Variant,
    /// Problem scale.
    pub scale: Scale,
    /// Machine shape.
    pub machine: MachineArgs,
    /// Verify the checksum against the serial reference.
    pub verify: bool,
    /// Write a Chrome trace JSON to this path.
    pub trace: Option<String>,
}

/// Flags of the `check` command.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckArgs {
    /// Check only this application (all six when unset).
    pub app: Option<AppId>,
    /// Check only this variant (both when unset).
    pub variant: Option<Variant>,
    /// Problem scale.
    pub scale: Scale,
    /// Machine shape.
    pub machine: MachineArgs,
    /// Re-run every selected app/variant under adversarial event-tiebreak
    /// orders and report any cell whose makespan or checksum moves.
    pub perturb: bool,
}

/// Flags of the `audit` command.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditArgs {
    /// Workspace root to scan (the current directory when unset).
    pub root: Option<String>,
    /// Print the rule catalog instead of scanning.
    pub rules: bool,
}

/// Flags of the `soak` command.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakArgs {
    /// Applications to soak (all six when empty).
    pub apps: Vec<AppId>,
    /// Soak only this variant (both when unset).
    pub variant: Option<Variant>,
    /// Problem scale.
    pub scale: Scale,
    /// Machine shape; its `--seed` is the sweep's base seed and its
    /// drop/duplicate/reorder flags are superseded by `--intensities`.
    pub machine: MachineArgs,
    /// Fault intensities to sweep: each cell runs with `drop = i`,
    /// `duplicate = i/2`, `reorder = i/2`.
    pub intensities: Vec<f64>,
    /// Cross-traffic intensities to sweep (`--cross-traffic 0,0.4`);
    /// `[0.0]` keeps the classic fault-only matrix.
    pub cross_traffic: Vec<f64>,
    /// WAN-quality schedule shapes to sweep (`--schedule none,step`).
    pub schedules: Vec<ScheduleArg>,
    /// Heterogeneity presets to sweep (`--hetero uniform,slow-home`).
    pub hetero: Vec<HeteroPreset>,
    /// Seeds per (app, intensity) cell, counting up from the base seed.
    pub seeds: u64,
    /// Re-run every cell with the same seed and require a bit-identical
    /// replay (schedule, virtual time, transport traffic).
    pub repro: bool,
    /// Virtual-time limit per cell in seconds; a cell that exceeds it is a
    /// hang and fails the soak.
    pub timeout_s: u64,
    /// Skip the mid-run gateway outage that is otherwise planted from each
    /// app's fault-free timing probe.
    pub no_outage: bool,
    /// Worker threads for the sweep's cells (available parallelism when
    /// unset). Cell outputs stay in canonical order.
    pub jobs: Option<usize>,
}

/// Flags of the `bench` command.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Which experiment to run: a name from the target table, or `all`.
    pub target: String,
    /// Worker threads (available parallelism when unset).
    pub jobs: Option<usize>,
    /// Problem scale (medium when unset).
    pub scale: Option<Scale>,
    /// Use the coarse quick grids.
    pub quick: bool,
    /// Output directory (`bench_results` when unset).
    pub out: Option<String>,
    /// Compare two `BENCH_*.json` files instead of running a sweep.
    pub compare: Option<(String, String)>,
    /// Wall-clock regression threshold for `--compare`.
    pub threshold: f64,
    /// In `--compare`, check only deterministic fields (for baselines
    /// recorded on different hardware).
    pub virtual_only: bool,
    /// Wide-area wiring override (`--topology`): re-wires the paper
    /// targets' WAN machines and restricts `--target topo` to one shape.
    /// `None` (the default) keeps every target bit-identical to the
    /// committed baselines.
    pub topology: Option<WanTopology>,
}

/// Flags of the `serve` command.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCmdArgs {
    /// TCP port to bind on 127.0.0.1 (0 picks an ephemeral port).
    pub port: u16,
    /// Connection/compute worker threads (available parallelism when
    /// unset).
    pub workers: Option<usize>,
    /// DAG cache capacity, entries.
    pub cache_capacity: usize,
    /// Per-request wall-clock budget, milliseconds.
    pub deadline_ms: u64,
}

/// Flags of the `predict` command.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictArgs {
    /// Applications to model (the full suite when empty).
    pub apps: Vec<AppId>,
    /// Restrict to one variant (the paper's variants per app when unset).
    pub variant: Option<Variant>,
    /// Problem scale (medium when unset).
    pub scale: Option<Scale>,
    /// Use the coarse quick grid.
    pub quick: bool,
    /// Worker threads (available parallelism when unset).
    pub jobs: Option<usize>,
    /// Output directory (`bench_results` when unset).
    pub out: Option<String>,
    /// WAN latency (ms) of the reference recording point.
    pub ref_latency: f64,
    /// WAN bandwidth (MByte/s) of the reference recording point.
    pub ref_bandwidth: f64,
    /// Re-simulate every grid point and report model error.
    pub validate: bool,
    /// Mean relative error bar (percent, per app/variant) for `--validate`
    /// findings.
    pub max_error: f64,
    /// Wide-area wiring override (`--topology`) for both the recording
    /// machine and every replayed grid point; `None` keeps the full mesh.
    pub topology: Option<WanTopology>,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn parse_app(s: &str) -> Result<AppId, ParseError> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "water" => AppId::Water,
        "barnes" | "barnes-hut" | "barneshut" => AppId::Barnes,
        "tsp" => AppId::Tsp,
        "asp" => AppId::Asp,
        "awari" => AppId::Awari,
        "fft" => AppId::Fft,
        other => return Err(ParseError(format!("unknown app '{other}'"))),
    })
}

fn parse_variant(s: &str) -> Result<Variant, ParseError> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "unopt" | "unoptimized" | "original" => Variant::Unoptimized,
        "opt" | "optimized" => Variant::Optimized,
        other => return Err(ParseError(format!("unknown variant '{other}'"))),
    })
}

fn parse_scale(s: &str) -> Result<Scale, ParseError> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "small" => Scale::Small,
        "medium" => Scale::Medium,
        "paper" => Scale::Paper,
        other => return Err(ParseError(format!("unknown scale '{other}'"))),
    })
}

fn take_value<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<&'a str, ParseError> {
    it.next()
        .ok_or_else(|| ParseError(format!("flag {flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, ParseError> {
    v.parse()
        .map_err(|_| ParseError(format!("invalid value '{v}' for {flag}")))
}

fn parse_prob(flag: &str, v: &str) -> Result<f64, ParseError> {
    let p: f64 = parse_num(flag, v)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(ParseError(format!("{flag} must be in [0, 1], got {p}")));
    }
    Ok(p)
}

/// Parses `cluster:from_ms:until_ms` for `--outage`.
fn parse_outage(v: &str) -> Result<(usize, f64, f64), ParseError> {
    let parts: Vec<&str> = v.split(':').collect();
    let [c, from, until] = parts.as_slice() else {
        return Err(ParseError(format!(
            "--outage expects cluster:from_ms:until_ms, got '{v}'"
        )));
    };
    let cluster = parse_num("--outage cluster", c)?;
    let from: f64 = parse_num("--outage from_ms", from)?;
    let until: f64 = parse_num("--outage until_ms", until)?;
    if from >= until {
        return Err(ParseError(format!(
            "--outage window must be non-empty, got {from}..{until}"
        )));
    }
    Ok((cluster, from, until))
}

/// Parses a full command line (excluding the binary name).
pub fn parse(args: &[&str]) -> Result<Command, ParseError> {
    let mut it = args.iter().copied();
    let cmd = match it.next() {
        None | Some("help") | Some("--help") | Some("-h") => return Ok(Command::Help),
        Some(c) => c,
    };
    let mut apps: Vec<AppId> = Vec::new();
    let mut variant = None;
    let mut scale = None;
    let mut machine = MachineArgs::default();
    let mut verify = false;
    let mut trace = None;
    let mut stones = 4u32;
    let mut intensities = vec![0.05, 0.15];
    let mut cross_list = vec![0.0f64];
    let mut schedule_list = vec![ScheduleArg::None];
    let mut hetero_list = vec![HeteroPreset::Uniform];
    let mut seeds = 3u64;
    let mut repro = false;
    let mut timeout_s = 3600u64;
    let mut no_outage = false;
    let mut jobs = None;
    let mut target = "all".to_string();
    let mut quick = false;
    let mut out = None;
    let mut compare_paths = None;
    let mut threshold = 1.5f64;
    let mut virtual_only = false;
    let mut ref_latency = 10.0f64;
    let mut ref_bandwidth = 0.3f64;
    let mut validate = false;
    let mut max_error = 10.0f64;
    let mut perturb = false;
    let mut audit_root = None;
    let mut rules = false;
    let mut port = 7999u16;
    let mut workers = None;
    let mut cache_capacity = numagap_serve::DEFAULT_CACHE_CAPACITY;
    let mut deadline_ms = 30_000u64;
    // `None` until --topology appears: bench/predict must tell an
    // explicit full mesh apart from the (bit-identical) default.
    let mut wan_topology: Option<WanTopology> = None;
    while let Some(flag) = it.next() {
        match flag {
            "--app" => apps.push(parse_app(take_value(flag, &mut it)?)?),
            "--variant" => variant = Some(parse_variant(take_value(flag, &mut it)?)?),
            "--scale" => scale = Some(parse_scale(take_value(flag, &mut it)?)?),
            "--clusters" => {
                let v = take_value(flag, &mut it)?;
                if v.contains(',') {
                    let sizes = v
                        .split(',')
                        .map(|s| parse_num::<usize>(flag, s))
                        .collect::<Result<Vec<usize>, ParseError>>()?;
                    if sizes.contains(&0) {
                        return Err(ParseError(format!(
                            "--clusters sizes must all be at least 1, got '{v}'"
                        )));
                    }
                    machine.clusters = sizes.len();
                    machine.cluster_sizes = Some(sizes);
                } else {
                    machine.clusters = parse_num(flag, v)?;
                    if machine.clusters == 0 {
                        return Err(ParseError("--clusters must be at least 1".into()));
                    }
                    machine.cluster_sizes = None;
                }
            }
            "--procs" => machine.procs = parse_num(flag, take_value(flag, &mut it)?)?,
            "--latency" => machine.latency_ms = parse_num(flag, take_value(flag, &mut it)?)?,
            "--bandwidth" => machine.bandwidth_mbs = parse_num(flag, take_value(flag, &mut it)?)?,
            "--jitter" => machine.jitter = parse_num(flag, take_value(flag, &mut it)?)?,
            "--seed" => machine.seed = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--drop" => machine.drop = parse_prob(flag, take_value(flag, &mut it)?)?,
            "--duplicate" => machine.duplicate = parse_prob(flag, take_value(flag, &mut it)?)?,
            "--reorder" => machine.reorder = parse_prob(flag, take_value(flag, &mut it)?)?,
            "--outage" => machine
                .outages
                .push(parse_outage(take_value(flag, &mut it)?)?),
            "--topology" => {
                let t = WanTopology::parse(take_value(flag, &mut it)?)
                    .map_err(|e| ParseError(format!("--topology: {e}")))?;
                machine.wan_topology = t;
                wan_topology = Some(t);
            }
            "--verify" => verify = true,
            "--stones" => stones = parse_num(flag, take_value(flag, &mut it)?)?,
            "--trace" => trace = Some(take_value(flag, &mut it)?.to_string()),
            "--intensities" => {
                intensities = take_value(flag, &mut it)?
                    .split(',')
                    .map(|v| {
                        let i: f64 = parse_num(flag, v)?;
                        if !(0.0..=0.5).contains(&i) {
                            return Err(ParseError(format!(
                                "intensity must be in [0, 0.5] (drop + duplicate + \
                                 reorder must stay within 1), got {i}"
                            )));
                        }
                        Ok(i)
                    })
                    .collect::<Result<Vec<f64>, ParseError>>()?;
            }
            "--cross-traffic" => {
                cross_list = take_value(flag, &mut it)?
                    .split(',')
                    .map(|v| {
                        let c: f64 = parse_num(flag, v)?;
                        if !(0.0..=0.9).contains(&c) {
                            return Err(ParseError(format!(
                                "cross-traffic intensity must be in [0, 0.9], got {c}"
                            )));
                        }
                        Ok(c)
                    })
                    .collect::<Result<Vec<f64>, ParseError>>()?;
                machine.cross_traffic = *cross_list.last().expect("split is non-empty");
            }
            "--schedule" => {
                schedule_list = take_value(flag, &mut it)?
                    .split(',')
                    .map(|s| {
                        ScheduleArg::parse(s).ok_or_else(|| {
                            ParseError(format!(
                                "unknown schedule shape '{s}' (expected none, diurnal, \
                                 step, drift)"
                            ))
                        })
                    })
                    .collect::<Result<Vec<ScheduleArg>, ParseError>>()?;
                machine.schedule = *schedule_list.last().expect("split is non-empty");
            }
            "--schedule-period" => {
                let p: f64 = parse_num(flag, take_value(flag, &mut it)?)?;
                if !p.is_finite() || p <= 0.0 {
                    return Err(ParseError(format!(
                        "--schedule-period must be a positive number of ms, got {p}"
                    )));
                }
                machine.schedule_period_ms = p;
            }
            "--degrade-latency" => {
                let f: f64 = parse_num(flag, take_value(flag, &mut it)?)?;
                if !f.is_finite() || !(1.0..=100.0).contains(&f) {
                    return Err(ParseError(format!(
                        "--degrade-latency must be in [1, 100], got {f}"
                    )));
                }
                machine.degrade_latency = f;
            }
            "--degrade-bandwidth" => {
                let f: f64 = parse_num(flag, take_value(flag, &mut it)?)?;
                if !f.is_finite() || !(0.01..=1.0).contains(&f) {
                    return Err(ParseError(format!(
                        "--degrade-bandwidth must be in [0.01, 1], got {f}"
                    )));
                }
                machine.degrade_bandwidth = f;
            }
            "--hetero" => {
                hetero_list = take_value(flag, &mut it)?
                    .split(',')
                    .map(|s| {
                        HeteroPreset::parse(s).ok_or_else(|| {
                            ParseError(format!(
                                "unknown hetero preset '{s}' (expected uniform, \
                                 slow-home, tiered)"
                            ))
                        })
                    })
                    .collect::<Result<Vec<HeteroPreset>, ParseError>>()?;
                machine.hetero = *hetero_list.last().expect("split is non-empty");
            }
            "--seeds" => seeds = parse_num(flag, take_value(flag, &mut it)?)?,
            "--repro" => repro = true,
            "--timeout" => timeout_s = parse_num(flag, take_value(flag, &mut it)?)?,
            "--no-outage" => no_outage = true,
            "--jobs" => {
                let n: usize = parse_num(flag, take_value(flag, &mut it)?)?;
                if n == 0 {
                    return Err(ParseError("--jobs must be at least 1".into()));
                }
                jobs = Some(n);
            }
            "--target" => {
                target = take_value(flag, &mut it)?.to_ascii_lowercase();
                if target != "all" && !targets().any(|t| t.name == target) {
                    let names: Vec<&str> = targets().map(|t| t.name).collect();
                    return Err(ParseError(format!(
                        "unknown bench target '{target}' (expected all, {})",
                        names.join(", ")
                    )));
                }
            }
            "--quick" => quick = true,
            "--out" => out = Some(take_value(flag, &mut it)?.to_string()),
            "--compare" => {
                let old = take_value(flag, &mut it)?.to_string();
                let new = it.next().ok_or_else(|| {
                    ParseError("--compare needs two files: OLD.json NEW.json".into())
                })?;
                compare_paths = Some((old, new.to_string()));
            }
            "--threshold" => {
                threshold = parse_num(flag, take_value(flag, &mut it)?)?;
                if !threshold.is_finite() || threshold <= 1.0 {
                    return Err(ParseError(format!(
                        "--threshold must be greater than 1, got {threshold}"
                    )));
                }
            }
            "--virtual-only" => virtual_only = true,
            "--ref-latency" => {
                ref_latency = parse_num(flag, take_value(flag, &mut it)?)?;
                if !ref_latency.is_finite() || ref_latency < 0.0 {
                    return Err(ParseError(format!(
                        "--ref-latency must be a non-negative number of ms, got {ref_latency}"
                    )));
                }
            }
            "--ref-bandwidth" => {
                ref_bandwidth = parse_num(flag, take_value(flag, &mut it)?)?;
                if !ref_bandwidth.is_finite() || ref_bandwidth <= 0.0 {
                    return Err(ParseError(format!(
                        "--ref-bandwidth must be a positive number of MByte/s, got {ref_bandwidth}"
                    )));
                }
            }
            "--validate" => validate = true,
            "--port" => port = parse_num(flag, take_value(flag, &mut it)?)?,
            "--workers" => {
                let n: usize = parse_num(flag, take_value(flag, &mut it)?)?;
                if n == 0 {
                    return Err(ParseError("--workers must be at least 1".into()));
                }
                workers = Some(n);
            }
            "--cache-capacity" => {
                cache_capacity = parse_num(flag, take_value(flag, &mut it)?)?;
                if cache_capacity == 0 {
                    return Err(ParseError("--cache-capacity must be at least 1".into()));
                }
            }
            "--deadline" => {
                deadline_ms = parse_num(flag, take_value(flag, &mut it)?)?;
                if deadline_ms == 0 {
                    return Err(ParseError("--deadline must be at least 1 ms".into()));
                }
            }
            "--perturb" => perturb = true,
            "--root" => audit_root = Some(take_value(flag, &mut it)?.to_string()),
            "--rules" => rules = true,
            "--max-error" => {
                max_error = parse_num(flag, take_value(flag, &mut it)?)?;
                if !max_error.is_finite() || max_error <= 0.0 {
                    return Err(ParseError(format!(
                        "--max-error must be a positive percentage, got {max_error}"
                    )));
                }
            }
            other => return Err(ParseError(format!("unknown flag '{other}'"))),
        }
    }
    if machine.drop + machine.duplicate + machine.reorder > 1.0 {
        return Err(ParseError(format!(
            "--drop + --duplicate + --reorder must stay within 1, got {}",
            machine.drop + machine.duplicate + machine.reorder
        )));
    }
    for &(cluster, _, _) in &machine.outages {
        if cluster >= machine.clusters {
            return Err(ParseError(format!(
                "--outage cluster {cluster} out of range (machine has {} clusters)",
                machine.clusters
            )));
        }
    }
    // bench/predict run fixed 4-cluster machines regardless of
    // --clusters; validate the shape against the machine they will build.
    let topo_clusters = match cmd {
        "bench" | "predict" => 4,
        _ => machine.clusters,
    };
    machine
        .wan_topology
        .validate(topo_clusters)
        .map_err(|e| ParseError(format!("--topology: {e}")))?;
    let app = apps.last().copied();
    match cmd {
        "run" => {
            let app = app.ok_or_else(|| ParseError("run requires --app".into()))?;
            Ok(Command::Run(RunArgs {
                app,
                variant: variant.unwrap_or(Variant::Optimized),
                scale: scale.unwrap_or(Scale::Medium),
                machine,
                verify,
                trace,
            }))
        }
        "suite" => Ok(Command::Suite(machine)),
        // The sanitizer sweep defaults to the small scale: it visits every
        // app/variant pair, and findings do not depend on problem size.
        "check" => Ok(Command::Check(CheckArgs {
            app,
            variant,
            scale: scale.unwrap_or(Scale::Small),
            machine,
            perturb,
        })),
        "audit" => Ok(Command::Audit(AuditArgs {
            root: audit_root,
            rules,
        })),
        "soak" => Ok(Command::Soak(SoakArgs {
            apps,
            variant,
            scale: scale.unwrap_or(Scale::Small),
            machine,
            intensities,
            cross_traffic: cross_list,
            schedules: schedule_list,
            hetero: hetero_list,
            seeds,
            repro,
            timeout_s,
            no_outage,
            jobs,
        })),
        "bench" => Ok(Command::Bench(BenchArgs {
            target,
            jobs,
            scale,
            quick,
            out,
            compare: compare_paths,
            threshold,
            virtual_only,
            topology: wan_topology,
        })),
        "serve" => Ok(Command::Serve(ServeCmdArgs {
            port,
            workers: workers.or(jobs),
            cache_capacity,
            deadline_ms,
        })),
        "predict" => Ok(Command::Predict(PredictArgs {
            apps,
            variant,
            scale,
            quick,
            jobs,
            out,
            ref_latency,
            ref_bandwidth,
            validate,
            max_error,
            topology: wan_topology,
        })),
        "info" => Ok(Command::Info(machine)),
        "awari-db" => Ok(Command::AwariDb { stones, machine }),
        // An experiment's name is not a subcommand of its own.
        other if targets().any(|t| t.name == other) => Err(ParseError(format!(
            "unknown command '{other}'; experiments run as `numagap bench --target {other}`"
        ))),
        other => Err(ParseError(format!("unknown command '{other}'"))),
    }
}

/// The experiment table: the bench crate's rows, then `serve`, whose sweep
/// lives downstream of that crate.
fn targets() -> impl Iterator<Item = &'static Target> {
    static SERVE: Target = Target {
        name: "serve",
        about: "what-if service: batch x worker grid, cold/warm, analytic vs replay",
        run: numagap_serve::run_serve_bench,
    };
    TARGETS.iter().chain(std::iter::once(&SERVE))
}

/// The rows `--target <target>` runs, in table order: the named one, or
/// every row for `all`.
fn selected(target: &str) -> impl Iterator<Item = &'static Target> + '_ {
    targets().filter(move |t| target == "all" || t.name == target)
}

/// The usage text, with the `--target` list generated from the experiment
/// table.
pub fn usage() -> String {
    let list: String = targets()
        .map(|t| format!("    {:<10} {}\n", t.name, t.about))
        .collect();
    USAGE.replace("{TARGETS}\n", &list)
}

/// Usage text; `{TARGETS}` is filled in by [`usage`].
const USAGE: &str = "\
numagap — simulated two-layer interconnect testbed (HPCA'99 reproduction)

USAGE:
  numagap run --app <water|barnes|tsp|asp|awari|fft> [OPTIONS]
  numagap awari-db [--stones <N>] [MACHINE OPTIONS]
  numagap suite [MACHINE OPTIONS]
  numagap check [--app <name>] [--variant <unopt|opt>] [--perturb] [MACHINE OPTIONS]
  numagap audit [--root <dir>] [--rules]
  numagap soak  [--app <name> ...] [SOAK OPTIONS] [MACHINE OPTIONS]
  numagap bench [--target <name>] [BENCH OPTIONS]
  numagap bench --compare <OLD.json> <NEW.json> [--threshold <F>] [--virtual-only]
  numagap serve [--port <P>] [--workers <N>] [--cache-capacity <N>] [--deadline <ms>]
  numagap predict [--app <name> ...] [--validate] [PREDICT OPTIONS]
  numagap info  [MACHINE OPTIONS]
  numagap help

RUN OPTIONS:
  --variant <unopt|opt>      program variant            [default: opt]
  --scale <small|medium|paper>  problem size            [default: medium]
  --verify                   check against the serial reference
  --trace <file.json>        write a Chrome trace (chrome://tracing)

MACHINE OPTIONS:
  --clusters <N | a,b,..>    number of clusters, or explicit per-cluster
                             sizes like 8,8,4,2 (asymmetric) [default: 4]
  --procs <N>                processors per cluster     [default: 8]
                             (ignored when --clusters lists sizes)
  --latency <ms>             one-way WAN latency        [default: 10]
  --bandwidth <MB/s>         WAN bandwidth per link     [default: 1.0]
  --jitter <0..1>            WAN latency variation      [default: 0]
  --topology <shape>         wide-area wiring between cluster gateways:
                             mesh (fully connected) | star[:hub] | ring |
                             line | torus:XxY[xZ] | fattree[:pod] |
                             dragonfly[:groups]        [default: mesh]
                             Multi-hop shapes store-and-forward at every
                             intermediate gateway/switch; routes are
                             deterministic (dimension-ordered / up-down,
                             ties toward the smaller node id). The shape
                             must fit the cluster count (exit 2 if not);
                             bench/predict validate against their fixed
                             4-cluster machine.

HOSTILE-NETWORK OPTIONS (any command; soak sweeps comma lists of the
first three as matrix dimensions):
  --hetero <preset>          per-cluster compute speeds: uniform |
                             slow-home (cluster 0 at 0.4x) | tiered
                             (descending to 0.4x)      [default: uniform]
  --cross-traffic <0..0.9>   seeded background flows occupying this
                             fraction of each WAN link  [default: 0]
  --schedule <shape>         time-varying WAN quality: none | diurnal |
                             step | drift               [default: none]
  --schedule-period <ms>     diurnal period / step onset / drift horizon
                             [default: 500]
  --degrade-latency <1..100> latency multiplier at full degradation
                             [default: 2]
  --degrade-bandwidth <f>    bandwidth multiplier at full degradation,
                             in [0.01, 1]               [default: 0.5]
  Cross-traffic and schedules are pure functions of --seed and virtual
  time: the same command line replays bit-identically.

FAULT OPTIONS (any command; enabling faults turns on the reliable
transport so applications still complete, degraded only in virtual time):
  --seed <N>                 fault-plan seed, echoed in reports [default: 0]
  --drop <0..1>              WAN message drop probability        [default: 0]
  --duplicate <0..1>         WAN message duplication probability [default: 0]
  --reorder <0..1>           WAN message reorder probability     [default: 0]
  --outage <c:from:until>    gateway crash window (ms), repeatable

SOAK OPTIONS:
  --variant <unopt|opt>      soak only this variant      [default: both]
  --intensities <i,i,..>     fault intensities to sweep  [default: 0.05,0.15]
  --seeds <N>                seeds per cell              [default: 3]
  --seed <N>                 base seed                   [default: 1]
  --repro                    replay each cell; require identical schedule
  --timeout <secs>           virtual-time hang limit     [default: 3600]
  --no-outage                skip the planted mid-run gateway outage
  --jobs <N>                 worker threads for the sweep's cells
                             [default: available cores]
  Each cell runs one app at drop=i, duplicate=i/2, reorder=i/2 plus a
  gateway outage parked mid-run (placed from a fault-free probe), then
  verifies the checksum against the serial reference. Comma lists given
  to --cross-traffic, --schedule and --hetero multiply the matrix with
  hostile-network dimensions. Failing cells print the reproducing seed
  and full command line.

BENCH OPTIONS:
  --target <name>            one experiment, or `all` for every one in this
                             order                      [default: all]
{TARGETS}
  --topology <shape>         re-wire the WAN layer of the paper targets;
                             for --target topo, restrict the sweep to one
                             shape (default: all seven canonical shapes)
  --jobs <N>                 worker threads        [default: available cores]
  --scale <small|medium|paper>  problem size            [default: medium]
  --quick                    coarse grids
  --out <dir>                artifact directory  [default: bench_results/]
  This is the only way to run an experiment: each target fans its
  independent simulation cells across the worker pool, prints its tables
  and writes <target>.csv (some write several CSVs) plus a versioned
  BENCH_<target>.json summary. Artifacts are byte-identical for any --jobs
  value. CI compares every target's --scale small --quick run against
  crates/bench/baselines/BENCH_<target>.json with --compare --virtual-only.
  DESIGN.md section 6 maps each paper claim to its target.
  --compare <OLD> <NEW>      diff two BENCH_*.json files instead of running;
                             determinism drift and wall-clock regressions
                             beyond --threshold [default: 1.5] are findings
  --virtual-only             compare deterministic fields only (baselines
                             recorded on different hardware)

SERVE:
  Binds a std-only HTTP/1.1 server on 127.0.0.1 that answers batched
  what-if queries against a content-addressed cache of frozen
  communication DAGs. POST /v1/whatif with a JSON body like
    {\"app\": \"asp\", \"variant\": \"opt\", \"scale\": \"small\",
     \"mode\": \"replay\" | \"analytic\", \"points\": [[lat_ms, bw_mbs], ...]}
  The first query for a key records the DAG (a miss); later queries replay
  the cached recording (a hit) — response bodies are byte-identical either
  way and for any --workers value (cache status is only in the
  X-Numagap-Cache header). `analytic` evaluates a compiled longest-path
  lower bound instead of a full replay (microseconds per point). Batches
  forming a complete latency x bandwidth grid also report tolerable-gap
  thresholds (the paper's 60% bar). GET /v1/health and /v1/stats probe
  liveness and cache counters; POST /v1/shutdown exits gracefully.
  --port <P>                 TCP port (0 = ephemeral)    [default: 7999]
  --workers <N>              worker threads (--jobs is an alias)
                             [default: available cores]
  --cache-capacity <N>       DAG cache entries           [default: 32]
  --deadline <ms>            per-request wall-clock budget [default: 30000]

PREDICT OPTIONS:
  --app <name>               model only these apps, repeatable [default: all]
  --variant <unopt|opt>      model only this variant  [default: the paper's]
  --scale <small|medium|paper>  problem size           [default: medium]
  --quick                    coarse fig3 grid
  --jobs <N>                 worker threads        [default: available cores]
  --out <dir>                artifact directory  [default: bench_results/]
  --ref-latency <ms>         WAN latency of the one recorded run [default: 10]
  --ref-bandwidth <MB/s>     WAN bandwidth of that run         [default: 0.3]
  --validate                 re-simulate every grid point; report model error
  --max-error <pct>          mean relative error bar per app/variant under
                             --validate [default: 10]
  Records each app's communication DAG once on the fig3 machine (4x8) at
  the reference point, then re-costs it analytically across the fig3
  latency/bandwidth grid. Writes PREDICT_fig3.json (plus, under
  --validate, BENCH_predict-sim.json in the bench summary schema); both
  are byte-identical for any --jobs value. Exceeding --max-error or a
  tolerable-gap disagreement is a finding (exit 1).

CHECK:
  Runs each selected app under the communication sanitizer and reports
  message races, lost messages, deadlock cycles and protocol lints.
  Defaults to all six apps, both variants, small scale.
  --perturb                  additionally re-run each selected app/variant
                             under adversarial event-tiebreak orders
                             (reversed and seeded-shuffled). The kernel books
                             same-instant transfers in canonical order, so
                             makespan and checksum must be bit-identical; any
                             cell that moves is a finding (exit 1).

AUDIT:
  Token-level determinism static analysis over the workspace's library
  sources (crates/*/src): hash-ordered containers in simulation state,
  wall-clock reads, unseeded RNGs, thread::sleep, order-sensitive float
  reductions, narrowing time casts, bare unwraps, raw thread primitives
  bypassing the rank scheduler (rules ND001..ND008;
  --rules prints the catalog with rationale). Comments, strings, and
  #[cfg(test)] blocks never fire. Accepted sites carry an entry in the
  built-in waiver table; unwaived findings and stale waivers exit 1.
  --root <dir>               workspace root to scan    [default: .]
  --rules                    print the rule catalog and exit

EXIT CODES:
  0  clean
  1  findings: unwaived diagnostics, checksum mismatches, failed soak cells
  2  usage or internal error
";

/// Executes a parsed command; returns the process exit code.
pub fn execute(cmd: Command) -> i32 {
    match cmd {
        Command::Help => {
            println!("{}", usage());
            0
        }
        Command::Info(machine) => {
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
        Command::AwariDb { stones, machine } => {
            use numagap_apps::awari_board::{level_size, solve};
            use numagap_apps::awari_real::{awari_real_rank, serial_awari_real, AwariRealConfig};
            let cfg = AwariRealConfig {
                max_stones: stones,
                ..AwariRealConfig::small()
            };
            let db = solve(stones);
            println!("Awari endgame database (last-capture-wins variant), <= {stones} stones");
            println!(
                "{:>7} {:>10} {:>8} {:>8} {:>8}",
                "stones", "positions", "wins", "losses", "draws"
            );
            for s in 0..=stones {
                let (w, l, d) = db.level_counts(s);
                println!("{s:>7} {:>10} {w:>8} {l:>8} {d:>8}", level_size(s));
            }
            let serial = serial_awari_real(&cfg);
            let cfg2 = cfg.clone();
            let report = match machine
                .machine()
                .run(move |ctx| awari_real_rank(ctx, &cfg2))
            {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("simulation failed: {e}");
                    return EXIT_ERROR;
                }
            };
            let parallel: f64 = report.results.iter().map(|r| r.checksum).sum();
            println!("\nparallel build:  {} virtual", report.elapsed);
            println!("wide-area load:  {} messages", report.net_stats.inter_msgs);
            if (parallel - serial).abs() < 1e-9 {
                println!("verification:    parallel database matches the serial solver");
                0
            } else {
                println!("verification:    MISMATCH ({parallel} vs {serial})");
                EXIT_FINDINGS
            }
        }
        Command::Suite(machine) => {
            let cfg = SuiteConfig::at(Scale::Small);
            let m = machine.machine();
            if let Some(plan) = &m.spec().fault_plan {
                println!(
                    "fault seed: {} (reproduce with --seed {})",
                    plan.seed, plan.seed
                );
            }
            println!(
                "{:<12} {:<12} {:>12} {:>12} {:>9}",
                "Program", "variant", "runtime", "WAN msgs", "verified"
            );
            let mut failures = 0;
            for app in AppId::ALL {
                let expected = serial_checksum(app, &cfg);
                for variant in [Variant::Unoptimized, Variant::Optimized] {
                    match run_app(app, &cfg, variant, &m) {
                        Ok(run) => {
                            let tol = checksum_tolerance(app).max(1e-15);
                            let err = (run.checksum - expected).abs()
                                / expected.abs().max(run.checksum.abs()).max(1e-30);
                            let ok = err <= tol;
                            if !ok {
                                failures += 1;
                            }
                            println!(
                                "{:<12} {:<12} {:>12} {:>12} {:>9}",
                                app.to_string(),
                                variant.to_string(),
                                run.elapsed.to_string(),
                                run.net.inter_msgs,
                                if ok { "yes" } else { "NO" }
                            );
                        }
                        Err(e) => {
                            failures += 1;
                            println!("{app}/{variant} failed: {e}");
                        }
                    }
                }
            }
            if failures > 0 {
                EXIT_FINDINGS
            } else {
                0
            }
        }
        Command::Check(args) => {
            let cfg = SuiteConfig::at(args.scale);
            let machine = args.machine.machine();
            if let Some(plan) = &machine.spec().fault_plan {
                println!(
                    "fault seed: {} (reproduce with --seed {})",
                    plan.seed, plan.seed
                );
            }
            let apps: Vec<AppId> = match args.app {
                Some(app) => vec![app],
                None => AppId::ALL.to_vec(),
            };
            let variants: Vec<Variant> = match args.variant {
                Some(v) => vec![v],
                None => vec![Variant::Unoptimized, Variant::Optimized],
            };
            println!(
                "sanitizing {} on {}",
                if apps.len() == 1 {
                    apps[0].to_string()
                } else {
                    format!("{} apps", apps.len())
                },
                machine.spec().topology.label()
            );
            // The detector's adversarial orders: a deterministic worst case
            // (every same-instant tie reversed) and a seeded shuffle. The
            // kernel books same-instant transfers canonically, so results
            // must be bit-identical under every policy.
            let adversarial = [
                ("reversed", TieBreak::Reversed),
                ("shuffled(0x5EED)", TieBreak::Shuffled(0x5EED)),
            ];
            let mut unwaived_total = 0usize;
            let mut moved_total = 0usize;
            for &app in &apps {
                for &variant in &variants {
                    let (diags, run_error) = check_app(app, &cfg, variant, &machine);
                    let mut unwaived = 0usize;
                    let mut waived_count = 0usize;
                    let mut lines = Vec::new();
                    for d in &diags {
                        match waived(app, variant, d.kind) {
                            Some(reason) => {
                                waived_count += 1;
                                lines.push(format!("    {d} (waived: {reason})"));
                            }
                            None => {
                                unwaived += 1;
                                lines.push(format!("    {d}"));
                            }
                        }
                    }
                    let verdict = if unwaived > 0 {
                        format!("{unwaived} finding(s), {waived_count} waived")
                    } else if waived_count > 0 {
                        format!("clean ({waived_count} waived)")
                    } else {
                        "clean".to_string()
                    };
                    println!("  {app:<7} {variant:<12} {verdict}");
                    for line in lines {
                        println!("{line}");
                    }
                    if let Some(e) = &run_error {
                        println!("    run aborted: {e}");
                    }
                    unwaived_total += unwaived;
                    if args.perturb && run_error.is_none() {
                        moved_total += perturb_cell(app, &cfg, variant, &machine, &adversarial);
                    }
                }
            }
            if unwaived_total > 0 || moved_total > 0 {
                let mut parts = Vec::new();
                if unwaived_total > 0 {
                    parts.push(format!("{unwaived_total} unwaived diagnostic(s)"));
                }
                if moved_total > 0 {
                    parts.push(format!(
                        "{moved_total} cell(s) moved under schedule perturbation"
                    ));
                }
                println!("FAILED: {}", parts.join(", "));
                EXIT_FINDINGS
            } else {
                println!("all checks passed");
                0
            }
        }
        Command::Audit(args) => execute_audit(&args),
        Command::Soak(args) => execute_soak(&args),
        Command::Bench(args) => execute_bench(&args),
        Command::Predict(args) => execute_predict(&args),
        Command::Serve(args) => execute_serve(&args),
        Command::Run(args) => {
            let cfg = SuiteConfig::at(args.scale);
            let mut machine = args.machine.machine();
            if args.trace.is_some() {
                machine = machine.with_tracing();
            }
            let run = match run_app(args.app, &cfg, args.variant, &machine) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("simulation failed: {e}");
                    return EXIT_ERROR;
                }
            };
            println!("app:        {} ({})", run.app, run.variant);
            println!("machine:    {}", machine.spec().topology.label());
            if let Some(seed) = run.seed {
                println!("seed:       {seed} (fault plan; reproduce with --seed {seed})");
            }
            println!("runtime:    {}", run.elapsed);
            println!(
                "traffic:    {} intra msgs, {} inter msgs, {} inter bytes",
                run.net.intra_msgs, run.net.inter_msgs, run.net.inter_payload_bytes
            );
            println!("checksum:   {:.6}", run.checksum);
            println!("work units: {}", run.work);
            if run.faults_injected > 0 {
                let t = run.transport.unwrap_or_default();
                println!(
                    "faults:     {} injected; {} retransmit(s), {} duplicate(s) \
                     suppressed, goodput {:.1}%",
                    run.faults_injected,
                    t.retransmits,
                    t.duplicates_suppressed,
                    t.goodput() * 100.0
                );
            }
            if !run.net.wan_busy.is_empty() {
                let max_busy = run
                    .net
                    .wan_busy
                    .iter()
                    .map(|(_, _, b)| b.as_secs_f64())
                    .fold(0.0f64, f64::max);
                println!(
                    "WAN load:   busiest link {:.0}% of the makespan",
                    100.0 * max_busy / run.elapsed.as_secs_f64().max(1e-30)
                );
            }
            let mut code = 0;
            if args.verify {
                let expected = serial_checksum(args.app, &cfg);
                let tol = checksum_tolerance(args.app).max(1e-15);
                let err = (run.checksum - expected).abs()
                    / expected.abs().max(run.checksum.abs()).max(1e-30);
                if err <= tol {
                    println!("verify:     ok (serial reference {expected:.6})");
                } else {
                    println!("verify:     FAILED (serial reference {expected:.6})");
                    code = EXIT_FINDINGS;
                }
            }
            // A trace needs a dedicated traced run through Machine::run —
            // run_app does not thread traces — so rerun the app under
            // tracing when requested.
            if let Some(path) = args.trace {
                match trace_run(args.app, &cfg, args.variant, &machine) {
                    Ok(json) => {
                        if let Err(e) = std::fs::write(&path, json) {
                            eprintln!("failed to write trace {path}: {e}");
                            code = EXIT_ERROR;
                        } else {
                            println!("trace:      {path}");
                        }
                    }
                    Err(e) => {
                        eprintln!("trace run failed: {e}");
                        code = EXIT_ERROR;
                    }
                }
            }
            code
        }
    }
}

/// Executes the `bench` command: either fans the selected targets across
/// the worker pool, or (with `--compare`) diffs two `BENCH_*.json` files.
pub fn execute_bench(args: &BenchArgs) -> i32 {
    if let Some((old_path, new_path)) = &args.compare {
        let load = |p: &str| BenchSummary::load(std::path::Path::new(p));
        let (old, new) = match (load(old_path), load(new_path)) {
            (Ok(o), Ok(n)) => (o, n),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("bench --compare: {e}");
                return EXIT_ERROR;
            }
        };
        let rep = compare(
            &old,
            &new,
            &CompareOpts {
                threshold: args.threshold,
                wall_clock: !args.virtual_only,
            },
        );
        println!(
            "comparing {} ({} records) against baseline {}",
            new_path,
            new.records.len(),
            old_path
        );
        for note in &rep.notes {
            println!("  note: {note}");
        }
        for finding in &rep.findings {
            println!("  FINDING: {finding}");
        }
        if rep.is_clean() {
            println!("compare: clean");
            0
        } else {
            println!("compare: {} finding(s)", rep.findings.len());
            EXIT_FINDINGS
        }
    } else {
        let out = match out_dir("bench", args.out.as_deref()) {
            Ok(path) => path,
            Err(code) => return code,
        };
        let opts = SweepOpts {
            scale: args.scale.unwrap_or(Scale::Medium),
            quick: args.quick,
            jobs: args.jobs.unwrap_or_else(engine::default_jobs),
            out,
            progress: true,
            topology: args.topology,
        };
        for (i, target) in selected(&args.target).enumerate() {
            if i > 0 {
                println!();
            }
            if let Err(e) = (target.run)(&opts) {
                eprintln!("bench {}: {e}", target.name);
                return EXIT_ERROR;
            }
        }
        0
    }
}

/// Resolves `--out` (default `bench_results/`) and creates the directory;
/// the error is the exit code, already reported under `cmd`'s name.
fn out_dir(cmd: &str, out: Option<&str>) -> Result<std::path::PathBuf, i32> {
    let dir = out.unwrap_or("bench_results");
    let path = std::path::PathBuf::from(dir);
    match std::fs::create_dir_all(&path) {
        Ok(()) => Ok(path),
        Err(e) => {
            eprintln!("{cmd}: cannot create output directory {dir}: {e}");
            Err(EXIT_ERROR)
        }
    }
}

/// Executes the `serve` command: binds the what-if prediction server and
/// blocks until a client POSTs `/v1/shutdown` (see [`numagap_serve`]).
pub fn execute_serve(args: &ServeCmdArgs) -> i32 {
    let opts = numagap_serve::ServeOpts {
        port: args.port,
        workers: args.workers.unwrap_or_else(engine::default_jobs),
        cache_capacity: args.cache_capacity,
        deadline_ms: args.deadline_ms,
    };
    let mut server = match numagap_serve::Server::start(&opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot bind 127.0.0.1:{}: {e}", args.port);
            return EXIT_ERROR;
        }
    };
    println!(
        "serve: listening on http://{} (workers {}, cache {} entries, deadline {} ms)",
        server.addr(),
        opts.workers,
        opts.cache_capacity,
        opts.deadline_ms
    );
    println!("serve: endpoints GET /v1/health, GET /v1/stats, POST /v1/whatif, POST /v1/shutdown");
    server.wait();
    println!("serve: shut down");
    0
}

/// One (app, variant, hetero, schedule, cross-traffic, intensity, seed)
/// soak cell, with the fault-free makespan its outage window is derived
/// from.
struct SoakCell {
    app: AppId,
    variant: Variant,
    hetero: HeteroPreset,
    shape: ScheduleArg,
    cross: f64,
    intensity: f64,
    seed: u64,
    clean: SimDuration,
}

/// Runs one soak cell; returns the table line plus any failure records
/// (already formatted with their reproduction command line).
fn run_soak_cell(
    args: &SoakArgs,
    cfg: &SuiteConfig,
    base_spec: &TwoLayerSpec,
    expected: f64,
    cell: &SoakCell,
) -> (String, Vec<String>) {
    let SoakCell {
        app,
        variant,
        hetero,
        shape,
        cross,
        intensity,
        seed,
        clean,
    } = *cell;
    let tol = checksum_tolerance(app).max(1e-15);
    let mut plan = FaultPlan::new(seed)
        .drop_prob(intensity)
        .duplicate_prob(intensity / 2.0)
        .reorder_prob(intensity / 2.0);
    if !args.no_outage && args.machine.clusters > 1 {
        let t = clean.as_nanos();
        plan = plan.gateway_outage(
            1,
            SimTime::from_nanos(t * 3 / 10),
            SimTime::from_nanos(t / 2),
        );
    }
    // The cell's hostile plans share the cell seed, so one `--seed` on the
    // printed command reproduces faults, cross-traffic and schedule alike.
    let mut spec = base_spec.clone();
    if cross > 0.0 {
        spec = spec.cross_traffic(CrossTrafficPlan::new(seed).intensity(cross));
    }
    if let Some(schedule) = args.machine.schedule_for(shape, seed) {
        spec = spec.link_schedule(schedule);
    }
    let spec = spec.fault_plan(plan);
    let machine = Machine::new(spec.clone())
        .with_reliable_transport(TransportConfig::for_spec(&spec))
        .time_limit(SimDuration::from_secs(args.timeout_s));
    let mut repro_cmd = format!(
        "numagap soak --app {app} --variant {variant} --scale {:?} \
         --clusters {} --procs {} --latency {} --bandwidth {} \
         --intensities {intensity} --seeds 1 --seed {seed}{}",
        args.scale,
        args.machine.clusters_flag(),
        args.machine.procs,
        args.machine.latency_ms,
        args.machine.bandwidth_mbs,
        if args.no_outage { " --no-outage" } else { "" }
    )
    .to_ascii_lowercase();
    if hetero != HeteroPreset::Uniform {
        repro_cmd.push_str(&format!(" --hetero {hetero}"));
    }
    if cross > 0.0 {
        repro_cmd.push_str(&format!(" --cross-traffic {cross}"));
    }
    if shape != ScheduleArg::None {
        repro_cmd.push_str(&format!(
            " --schedule {shape} --schedule-period {} \
             --degrade-latency {} --degrade-bandwidth {}",
            args.machine.schedule_period_ms,
            args.machine.degrade_latency,
            args.machine.degrade_bandwidth
        ));
    }
    if args.machine.wan_topology != WanTopology::FullMesh {
        repro_cmd.push_str(&format!(" --topology {}", args.machine.wan_topology.flag()));
    }
    let (app_s, var_s) = (app.to_string(), variant.to_string());
    let (het_s, shape_s) = (hetero.to_string(), shape.to_string());
    let run = match run_app(app, cfg, variant, &machine) {
        Ok(run) => run,
        Err(e) => {
            let line = format!(
                "{app_s:<8} {var_s:<12} {het_s:>9} {shape_s:>8} {cross:>6} \
                 {intensity:>9} {seed:>6} {:>14} {:>7} {:>8} {:>8}  FAILED: {e}",
                "-", "-", "-", "-"
            );
            let failure = format!(
                "{app}/{variant} hetero={hetero} schedule={shape} cross={cross} \
                 intensity={intensity} seed={seed}: {e}\n    reproduce: {repro_cmd}"
            );
            return (line, vec![failure]);
        }
    };
    let err = (run.checksum - expected).abs() / expected.abs().max(run.checksum.abs()).max(1e-30);
    let mut problems: Vec<String> = Vec::new();
    if err > tol {
        problems.push(format!(
            "checksum {} drifted from serial {expected}",
            run.checksum
        ));
    }
    if args.repro {
        match run_app(app, cfg, variant, &machine) {
            Ok(replay) => {
                if replay.elapsed != run.elapsed
                    || replay.checksum != run.checksum
                    || replay.faults_injected != run.faults_injected
                    || replay.transport != run.transport
                {
                    problems.push(format!(
                        "seed {seed} did not replay identically \
                         ({} vs {}, {} vs {} faults)",
                        replay.elapsed, run.elapsed, replay.faults_injected, run.faults_injected
                    ));
                }
            }
            Err(e) => problems.push(format!("replay failed: {e}")),
        }
    }
    let stats = run.transport.unwrap_or_default();
    let verdict = if problems.is_empty() { "ok" } else { "FAILED" };
    let line = format!(
        "{app_s:<8} {var_s:<12} {het_s:>9} {shape_s:>8} {cross:>6} \
         {intensity:>9} {seed:>6} {:>14} {:>7} {:>8} {:>7.1}%  {verdict}",
        run.elapsed.to_string(),
        run.faults_injected,
        stats.retransmits,
        stats.goodput() * 100.0
    );
    let failures = problems
        .into_iter()
        .map(|problem| {
            format!(
                "{app}/{variant} hetero={hetero} schedule={shape} cross={cross} \
                 intensity={intensity} seed={seed}: {problem}\n    reproduce: {repro_cmd}"
            )
        })
        .collect();
    (line, failures)
}

/// Executes the `soak` command: apps x variants x hetero presets x
/// schedule shapes x cross-traffic levels x fault intensities x seeds,
/// each cell verified against the serial reference and (with `--repro`)
/// replayed to prove the seed reproduces the exact hostile schedule.
///
/// Cells are independent deterministic simulations, so they fan across the
/// experiment engine's worker pool (`--jobs`); the table and the failure
/// list are rendered in canonical cell order regardless of worker count.
pub fn execute_soak(args: &SoakArgs) -> i32 {
    let jobs = args.jobs.unwrap_or_else(engine::default_jobs);
    let cfg = SuiteConfig::at(args.scale);
    let apps: Vec<AppId> = if args.apps.is_empty() {
        AppId::ALL.to_vec()
    } else {
        args.apps.clone()
    };
    let base_seed = args.machine.seed.unwrap_or(1);
    // The sweep owns the fault, cross-traffic and schedule plans: strip
    // those flags off the base spec, keeping one hetero-applied,
    // interference-free spec per requested preset.
    let hetero_specs: Vec<(HeteroPreset, TwoLayerSpec)> = args
        .hetero
        .iter()
        .map(|&hetero| {
            let probe_args = MachineArgs {
                seed: None,
                drop: 0.0,
                duplicate: 0.0,
                reorder: 0.0,
                outages: Vec::new(),
                cross_traffic: 0.0,
                schedule: ScheduleArg::None,
                hetero,
                ..args.machine.clone()
            };
            (hetero, probe_args.spec())
        })
        .collect();
    let variants: Vec<Variant> = match args.variant {
        Some(v) => vec![v],
        None => vec![Variant::Unoptimized, Variant::Optimized],
    };
    let mut triples: Vec<(AppId, Variant, HeteroPreset)> = Vec::new();
    for &app in &apps {
        for &variant in &variants {
            for &hetero in &args.hetero {
                triples.push((app, variant, hetero));
            }
        }
    }
    let scenarios_per_triple = args.schedules.len() as u64
        * args.cross_traffic.len() as u64
        * args.intensities.len() as u64;
    let total = triples.len() as u64 * scenarios_per_triple * args.seeds;
    println!(
        "soak: {} app(s) x {} variant(s) x {} hetero x {} schedule(s) x {} cross level(s) \
         x {:?} x {} seed(s) from {} = {} cell(s) on {}, {jobs} worker(s)",
        apps.len(),
        variants.len(),
        args.hetero.len(),
        args.schedules.len(),
        args.cross_traffic.len(),
        args.intensities,
        args.seeds,
        base_seed,
        total,
        hetero_specs[0].1.topology.label()
    );
    println!(
        "{:<8} {:<12} {:>9} {:>8} {:>6} {:>9} {:>6} {:>14} {:>7} {:>8} {:>8}  verdict",
        "app",
        "variant",
        "hetero",
        "schedule",
        "cross",
        "intensity",
        "seed",
        "runtime",
        "faults",
        "retrans",
        "goodput"
    );
    // Serial references (one per app) and interference-free probes (one per
    // triple): independent cells themselves, so they use the pool too. The
    // probe fixes each triple's expected makespan and tells us where mid-run
    // is, so the planted outage window actually bites.
    let expected: Vec<f64> =
        engine::run_cells(&apps, jobs, None, |_, &app| serial_checksum(app, &cfg));
    let spec_of = |hetero: HeteroPreset| -> &TwoLayerSpec {
        &hetero_specs
            .iter()
            .find(|(h, _)| *h == hetero)
            .expect("preset listed")
            .1
    };
    let probes = engine::run_cells(&triples, jobs, None, |_, &(app, variant, hetero)| {
        run_app(app, &cfg, variant, &Machine::new(spec_of(hetero).clone()))
            .map(|run| run.elapsed)
            .map_err(|e| e.to_string())
    });
    // Enumerate the hostile cells in canonical order; triples whose probe
    // failed contribute no cells (their failure is reported below).
    let mut cells: Vec<SoakCell> = Vec::new();
    for (&(app, variant, hetero), probe) in triples.iter().zip(&probes) {
        if let Ok(clean) = probe {
            for &shape in &args.schedules {
                for &cross in &args.cross_traffic {
                    for &intensity in &args.intensities {
                        for k in 0..args.seeds {
                            cells.push(SoakCell {
                                app,
                                variant,
                                hetero,
                                shape,
                                cross,
                                intensity,
                                seed: base_seed + k,
                                clean: *clean,
                            });
                        }
                    }
                }
            }
        }
    }
    let outcomes = engine::run_cells(&cells, jobs, Some("soak"), |_, cell| {
        let idx = apps
            .iter()
            .position(|&a| a == cell.app)
            .expect("app listed");
        run_soak_cell(args, &cfg, spec_of(cell.hetero), expected[idx], cell)
    });
    // Render the table and collect failures in canonical cell order.
    let mut failures: Vec<String> = Vec::new();
    let mut ran = 0u64;
    let per_triple = (scenarios_per_triple * args.seeds) as usize;
    let mut at = 0usize;
    for (&(app, variant, hetero), probe) in triples.iter().zip(&probes) {
        match probe {
            Err(e) => {
                println!(
                    "{:<8} {:<12} {:>9} clean probe failed: {e}",
                    app.to_string(),
                    variant.to_string(),
                    hetero.to_string()
                );
                failures.push(format!(
                    "{app}/{variant} hetero={hetero}: clean probe failed: {e}"
                ));
            }
            Ok(_) => {
                for (line, cell_failures) in &outcomes[at..at + per_triple] {
                    ran += 1;
                    println!("{line}");
                    failures.extend(cell_failures.iter().cloned());
                }
                at += per_triple;
            }
        }
    }
    if failures.is_empty() {
        println!("soak passed: {ran} cell(s) clean");
        0
    } else {
        println!("\nFAILED {} of {ran} cell(s):", failures.len());
        for f in &failures {
            println!("  {f}");
        }
        EXIT_FINDINGS
    }
}

/// Runs one app/variant under the sanitizer; returns every diagnostic
/// (online findings, runtime lints, and — on an aborted run — the deadlock
/// decomposition) plus the run error, if any.
pub fn check_app(
    app: AppId,
    cfg: &SuiteConfig,
    variant: Variant,
    machine: &Machine,
) -> (Vec<Diagnostic>, Option<String>) {
    let analysis = Analysis::new(machine.spec().topology.nprocs());
    let result = run_app_report(app, cfg, variant, machine, Some(analysis.observer()));
    let mut diags = analysis.diagnostics();
    match result {
        Ok(report) => {
            diags.extend(check_rank_lints(&report.rank_lints));
            (diags, None)
        }
        Err(e) => {
            diags.extend(analysis.diagnose_error(&e));
            (diags, Some(e.to_string()))
        }
    }
}

/// Runs one app/variant once per adversarial tiebreak policy and compares
/// makespan and checksum bit-for-bit against the FIFO baseline. Returns the
/// number of orders under which the cell moved (0 = stable). Prints one
/// summary line per cell, plus a detail line per moved order.
fn perturb_cell(
    app: AppId,
    cfg: &SuiteConfig,
    variant: Variant,
    machine: &Machine,
    adversarial: &[(&str, TieBreak)],
) -> usize {
    let base = match run_app(app, cfg, variant, machine) {
        Ok(run) => run,
        Err(e) => {
            println!("    perturb: baseline run failed: {e}");
            return 1;
        }
    };
    let mut moved = 0usize;
    for &(name, tb) in adversarial {
        match run_app(app, cfg, variant, &machine.clone().with_tie_break(tb)) {
            Ok(run) => {
                let identical = run.elapsed == base.elapsed
                    && run.checksum.to_bits() == base.checksum.to_bits();
                if !identical {
                    moved += 1;
                    println!(
                        "    perturb {name}: MOVED makespan {} -> {}, \
                         checksum {:?} -> {:?}",
                        base.elapsed, run.elapsed, base.checksum, run.checksum
                    );
                }
            }
            Err(e) => {
                moved += 1;
                println!("    perturb {name}: run failed: {e}");
            }
        }
    }
    if moved == 0 {
        println!(
            "    perturb: stable under {} adversarial order(s) (makespan {})",
            adversarial.len(),
            base.elapsed
        );
    }
    moved
}

/// Executes the `audit` command: scans `root/crates/*/src` with the
/// determinism rules and reports findings, waived sites, and stale waivers.
pub fn execute_audit(args: &AuditArgs) -> i32 {
    if args.rules {
        for r in numagap_audit::RULES {
            println!(
                "{}  {}{}",
                r.id,
                r.summary,
                if r.sim_state_only {
                    "  [sim-state crates only]"
                } else {
                    ""
                }
            );
            println!("       {}\n", r.rationale);
        }
        return 0;
    }
    let root = std::path::PathBuf::from(args.root.as_deref().unwrap_or("."));
    let report = match numagap_audit::audit_root(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("audit: {e}");
            return EXIT_ERROR;
        }
    };
    let mut unwaived = 0usize;
    let mut waived_count = 0usize;
    for f in &report.findings {
        if f.waived.is_some() {
            waived_count += 1;
        } else {
            unwaived += 1;
        }
        println!("  {f}");
    }
    let stale = report.stale_waivers();
    for w in &stale {
        println!(
            "  stale waiver: {} {} `{}` matched nothing — remove or update it",
            w.rule, w.path_suffix, w.token
        );
    }
    println!(
        "audited {} files: {unwaived} finding(s), {waived_count} waived, {} stale waiver(s)",
        report.files,
        stale.len()
    );
    if unwaived > 0 || !stale.is_empty() {
        EXIT_FINDINGS
    } else {
        0
    }
}

/// The waiver table for `numagap check`: communication patterns the suite's
/// applications use *by design* that the sanitizer rightly reports for
/// unknown programs. Each entry documents why the pattern is benign here.
pub fn waived(app: AppId, variant: Variant, kind: DiagnosticKind) -> Option<&'static str> {
    let _ = variant;
    match (app, kind) {
        // TSP is a master/worker branch-and-bound: workers pull jobs from a
        // central queue with wildcard receives, and which worker gets which
        // job is intentionally timing-dependent. The result is made
        // deterministic by the pruning bound, not by message order.
        (AppId::Tsp, DiagnosticKind::MessageRace) => Some(
            "work-queue nondeterminism is inherent to branch-and-bound; \
                  the pruning bound makes the tour length order-independent",
        ),
        // Awari's distributed retrograde analysis exchanges batched updates
        // between peers with wildcard receives; update application is
        // commutative (min/max over game values), so arrival order is
        // immaterial.
        (AppId::Awari, DiagnosticKind::MessageRace) => Some(
            "retrograde-analysis updates commute (monotone min/max), \
                  so batch arrival order cannot change the fixpoint",
        ),
        // Water gathers position batches and force contributions from all
        // peers under one tag set. Batches are keyed by molecule index and
        // forces are summed — a commutative reduction — so which peer's
        // message matches first cannot change the result.
        (AppId::Water, DiagnosticKind::MessageRace) => Some(
            "position/force batches are keyed by molecule index and \
                  force accumulation is a commutative sum",
        ),
        // Barnes-Hut gathers per-step bounding boxes (a min/max reduction)
        // and body batches that carry their own indices; both are
        // order-insensitive by construction.
        (AppId::Barnes, DiagnosticKind::MessageRace) => Some(
            "bbox gather is a min/max reduction and body batches carry \
                  their own indices; arrival order is immaterial",
        ),
        // ASP receives pivot-row broadcasts under per-row tags (plus the
        // sequencer protocol) and buffers early rows until round k consumes
        // them, so interleaving across rows cannot alter the iteration.
        (AppId::Asp, DiagnosticKind::MessageRace) => Some(
            "pivot rows are keyed by their round tag and buffered until \
                  consumed in round order",
        ),
        // FFT's transpose receives one chunk per peer under a single tag and
        // scatters it by the sender rank the message carries.
        (AppId::Fft, DiagnosticKind::MessageRace) => Some(
            "transpose chunks are placed by sender rank, so match order \
                  is immaterial",
        ),
        _ => None,
    }
}

fn trace_run(
    app: AppId,
    cfg: &SuiteConfig,
    variant: Variant,
    machine: &Machine,
) -> Result<String, numagap_sim::SimError> {
    let machine = machine.clone().with_tracing();
    let report = run_app_report(app, cfg, variant, &machine, None)?;
    Ok(report.trace.expect("tracing was enabled").to_chrome_json())
}

/// Formats an optional tolerable-gap threshold for the summary table.
fn show_gap(v: Option<f64>) -> String {
    v.map_or_else(|| "none".to_string(), |x| format!("{x}"))
}

/// Executes the `predict` command: records one observed run per app/variant
/// at the reference point, re-costs the recorded DAG across the fig3 grid,
/// and writes `PREDICT_fig3.json` (plus the simulated summary under
/// `--validate`).
pub fn execute_predict(args: &PredictArgs) -> i32 {
    let out = match out_dir("predict", args.out.as_deref()) {
        Ok(path) => path,
        Err(code) => return code,
    };
    let opts = PredictOpts {
        apps: args.apps.clone(),
        variant: args.variant,
        scale: args.scale.unwrap_or(Scale::Medium),
        quick: args.quick,
        jobs: args.jobs.unwrap_or_else(engine::default_jobs),
        ref_latency_ms: args.ref_latency,
        ref_bandwidth_mbs: args.ref_bandwidth,
        validate: args.validate,
        max_error_pct: args.max_error,
        progress: true,
        wan_topology: args.topology,
    };
    let report = match run_predict(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("predict: {e}");
            return EXIT_ERROR;
        }
    };
    println!(
        "predicted fig3 sensitivity from one recorded run per app at \
         {} ms / {} MB/s ({} grid, {} scale)",
        report.ref_latency_ms,
        report.ref_bandwidth_mbs,
        if report.quick { "quick" } else { "full" },
        report.scale,
    );
    for a in &report.apps {
        let pct = |d: numagap_sim::SimDuration| {
            if a.path.total.is_zero() {
                0.0
            } else {
                100.0 * d.as_secs_f64() / a.path.total.as_secs_f64()
            }
        };
        println!(
            "  {}/{}: recorded {}, critical path {:.0}% compute, {:.0}% wide-area \
             ({} inter-cluster msgs)",
            a.app,
            a.variant,
            a.recorded,
            pct(a.path.compute),
            pct(a.path.inter_total()),
            a.path.path_inter_msgs,
        );
        print!(
            "    tolerable gap (predicted): latency <= {} ms, bandwidth >= {} MB/s",
            show_gap(a.predicted_gap.latency_ms),
            show_gap(a.predicted_gap.bandwidth_mbs),
        );
        match (a.mean_rel_err_pct, a.max_rel_err_pct) {
            (Some(mean), Some(max)) => {
                println!("; model error mean {mean:.2}% max {max:.2}%");
            }
            _ => println!(),
        }
    }
    let path = out.join("PREDICT_fig3.json");
    if let Err(e) = report.write(&path) {
        eprintln!("predict: cannot write {}: {e}", path.display());
        return EXIT_ERROR;
    }
    println!("wrote {}", path.display());
    if let Some(summary) = report.sim_summary() {
        let sim_path = out.join("BENCH_predict-sim.json");
        if let Err(e) = summary.write(&sim_path) {
            eprintln!("predict: cannot write {}: {e}", sim_path.display());
            return EXIT_ERROR;
        }
        println!("wrote {}", sim_path.display());
    }
    if report.findings.is_empty() {
        println!("predict: clean");
        0
    } else {
        for finding in &report.findings {
            println!("  FINDING: {finding}");
        }
        println!("predict: {} finding(s)", report.findings.len());
        EXIT_FINDINGS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_run() {
        let cmd = parse(&[
            "run",
            "--app",
            "asp",
            "--variant",
            "unopt",
            "--clusters",
            "2",
            "--procs",
            "4",
            "--latency",
            "3.3",
            "--bandwidth",
            "0.5",
            "--scale",
            "small",
            "--verify",
        ])
        .unwrap();
        match cmd {
            Command::Run(args) => {
                assert_eq!(args.app, AppId::Asp);
                assert_eq!(args.variant, Variant::Unoptimized);
                assert_eq!(args.scale, Scale::Small);
                assert_eq!(args.machine.clusters, 2);
                assert_eq!(args.machine.procs, 4);
                assert!((args.machine.latency_ms - 3.3).abs() < 1e-12);
                assert!((args.machine.bandwidth_mbs - 0.5).abs() < 1e-12);
                assert!(args.verify);
                assert!(args.trace.is_none());
            }
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn defaults_are_sensible() {
        let cmd = parse(&["run", "--app", "water"]).unwrap();
        match cmd {
            Command::Run(args) => {
                assert_eq!(args.variant, Variant::Optimized);
                assert_eq!(args.scale, Scale::Medium);
                assert_eq!(args.machine, MachineArgs::default());
            }
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["run"]).is_err(), "run needs --app");
        assert!(parse(&["run", "--app", "chess"]).is_err());
        assert!(parse(&["run", "--app", "asp", "--latency"]).is_err());
        assert!(parse(&["run", "--app", "asp", "--latency", "abc"]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["run", "--app", "asp", "--wat", "1"]).is_err());
    }

    #[test]
    fn parses_check_perturb() {
        match parse(&["check", "--app", "tsp", "--perturb"]).unwrap() {
            Command::Check(args) => {
                assert_eq!(args.app, Some(AppId::Tsp));
                assert!(args.perturb);
                assert_eq!(args.scale, Scale::Small);
            }
            other => panic!("expected check, got {other:?}"),
        }
        match parse(&["check"]).unwrap() {
            Command::Check(args) => assert!(!args.perturb),
            other => panic!("expected check, got {other:?}"),
        }
    }

    #[test]
    fn parses_audit() {
        match parse(&["audit"]).unwrap() {
            Command::Audit(args) => {
                assert_eq!(args.root, None);
                assert!(!args.rules);
            }
            other => panic!("expected audit, got {other:?}"),
        }
        match parse(&["audit", "--root", "/srv/repo", "--rules"]).unwrap() {
            Command::Audit(args) => {
                assert_eq!(args.root.as_deref(), Some("/srv/repo"));
                assert!(args.rules);
            }
            other => panic!("expected audit, got {other:?}"),
        }
        assert!(parse(&["audit", "--root"]).is_err(), "--root needs a value");
    }

    #[test]
    fn parses_bench() {
        match parse(&["bench"]).unwrap() {
            Command::Bench(args) => {
                assert_eq!(args.target, "all");
                assert_eq!(args.jobs, None, "worker count resolved at run time");
                assert_eq!(args.scale, None, "medium, resolved at run time");
                assert!(!args.quick);
                assert!(args.compare.is_none());
                assert!((args.threshold - 1.5).abs() < 1e-12);
                assert!(!args.virtual_only);
            }
            other => panic!("expected bench, got {other:?}"),
        }
        match parse(&[
            "bench", "--target", "fig3", "--jobs", "4", "--scale", "small", "--quick", "--out",
            "/tmp/x",
        ])
        .unwrap()
        {
            Command::Bench(args) => {
                assert_eq!(args.target, "fig3");
                assert_eq!(args.jobs, Some(4));
                assert_eq!(args.scale, Some(Scale::Small));
                assert!(args.quick);
                assert_eq!(args.out.as_deref(), Some("/tmp/x"));
            }
            other => panic!("expected bench, got {other:?}"),
        }
        match parse(&[
            "bench",
            "--compare",
            "old.json",
            "new.json",
            "--threshold",
            "2.0",
            "--virtual-only",
        ])
        .unwrap()
        {
            Command::Bench(args) => {
                assert_eq!(
                    args.compare,
                    Some(("old.json".to_string(), "new.json".to_string()))
                );
                assert!((args.threshold - 2.0).abs() < 1e-12);
                assert!(args.virtual_only);
            }
            other => panic!("expected bench, got {other:?}"),
        }
        assert!(parse(&["bench", "--target", "fig9"]).is_err());
        assert!(parse(&["bench", "--jobs", "0"]).is_err());
        assert!(parse(&["bench", "--threshold", "1.0"]).is_err());
        assert!(parse(&["bench", "--threshold", "nan"]).is_err());
        assert!(parse(&["bench", "--compare", "only-one.json"]).is_err());
    }

    #[test]
    fn the_target_table_is_the_only_list_of_experiments() {
        let names: Vec<&str> = targets().map(|t| t.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate target name");
        // The bench crate's rows in their order, then the downstream one.
        let bench: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
        assert_eq!(names[..bench.len()], bench[..]);
        assert_eq!(names[bench.len()..], ["serve"]);
        // Every name parses as a target and selects its own row; `all`
        // selects the whole table in order; nothing else parses.
        for name in &names {
            match parse(&["bench", "--target", name]).unwrap() {
                Command::Bench(args) => assert_eq!(args.target, *name),
                other => panic!("expected bench, got {other:?}"),
            }
            assert_eq!(selected(name).map(|t| t.name).collect::<Vec<_>>(), [*name]);
        }
        assert_eq!(selected("all").map(|t| t.name).collect::<Vec<_>>(), names);
        let err = parse(&["bench", "--target", "fig9"]).unwrap_err();
        assert!(err.0.contains(&names.join(", ")), "{err:?}");
        // The usage text lists exactly the table, in order, each row with
        // its description, and no experiment as a subcommand.
        let usage = usage();
        assert!(!usage.contains("{TARGETS}"));
        let listed: Vec<&str> = usage
            .lines()
            .skip_while(|l| !l.starts_with("  --target <name>"))
            .skip(2)
            .take_while(|l| l.starts_with("    ") && !l.starts_with("     "))
            .map(|l| l.split_whitespace().next().expect("a target row"))
            .collect();
        assert_eq!(listed, names);
        for t in targets() {
            assert!(
                usage.contains(t.about),
                "{} row lost its description",
                t.name
            );
            assert!(!usage.contains(&format!("numagap {} ", t.name)) || t.name == "serve");
        }
    }

    #[test]
    fn parses_serve() {
        match parse(&["serve"]).unwrap() {
            Command::Serve(args) => {
                assert_eq!(args.port, 7999);
                assert_eq!(args.workers, None, "worker count resolved at run time");
                assert_eq!(args.cache_capacity, numagap_serve::DEFAULT_CACHE_CAPACITY);
                assert_eq!(args.deadline_ms, 30_000);
            }
            other => panic!("expected serve, got {other:?}"),
        }
        match parse(&[
            "serve",
            "--port",
            "0",
            "--workers",
            "8",
            "--cache-capacity",
            "4",
            "--deadline",
            "5000",
        ])
        .unwrap()
        {
            Command::Serve(args) => {
                assert_eq!(args.port, 0);
                assert_eq!(args.workers, Some(8));
                assert_eq!(args.cache_capacity, 4);
                assert_eq!(args.deadline_ms, 5000);
            }
            other => panic!("expected serve, got {other:?}"),
        }
        // --jobs is accepted as an alias for --workers.
        match parse(&["serve", "--jobs", "3"]).unwrap() {
            Command::Serve(args) => assert_eq!(args.workers, Some(3)),
            other => panic!("expected serve, got {other:?}"),
        }
        assert!(parse(&["serve", "--workers", "0"]).is_err());
        assert!(parse(&["serve", "--cache-capacity", "0"]).is_err());
        assert!(parse(&["serve", "--deadline", "0"]).is_err());
        assert!(parse(&["serve", "--port", "notaport"]).is_err());
    }

    #[test]
    fn help_variants() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn awari_db_parses_and_runs() {
        match parse(&[
            "awari-db",
            "--stones",
            "3",
            "--clusters",
            "2",
            "--procs",
            "2",
        ])
        .unwrap()
        {
            Command::AwariDb { stones, machine } => {
                assert_eq!(stones, 3);
                assert_eq!(machine.clusters, 2);
            }
            other => panic!("expected awari-db, got {other:?}"),
        }
        let code = execute(
            parse(&[
                "awari-db",
                "--stones",
                "2",
                "--clusters",
                "2",
                "--procs",
                "2",
            ])
            .unwrap(),
        );
        assert_eq!(code, 0);
    }

    #[test]
    fn info_and_suite_parse_machine_flags() {
        match parse(&["info", "--clusters", "8", "--procs", "2", "--jitter", "0.3"]).unwrap() {
            Command::Info(m) => {
                assert_eq!(m.clusters, 8);
                assert_eq!(m.procs, 2);
                assert!((m.jitter - 0.3).abs() < 1e-12);
            }
            other => panic!("expected info, got {other:?}"),
        }
        assert!(matches!(parse(&["suite"]).unwrap(), Command::Suite(_)));
    }

    #[test]
    fn app_name_aliases() {
        assert_eq!(parse_app("Barnes-Hut").unwrap(), AppId::Barnes);
        assert_eq!(parse_app("FFT").unwrap(), AppId::Fft);
    }

    #[test]
    fn parses_check_with_defaults() {
        match parse(&["check"]).unwrap() {
            Command::Check(args) => {
                assert_eq!(args.app, None, "all apps by default");
                assert_eq!(args.variant, None, "both variants by default");
                assert_eq!(args.scale, Scale::Small);
            }
            other => panic!("expected check, got {other:?}"),
        }
        match parse(&[
            "check",
            "--app",
            "tsp",
            "--variant",
            "opt",
            "--clusters",
            "2",
        ])
        .unwrap()
        {
            Command::Check(args) => {
                assert_eq!(args.app, Some(AppId::Tsp));
                assert_eq!(args.variant, Some(Variant::Optimized));
                assert_eq!(args.machine.clusters, 2);
            }
            other => panic!("expected check, got {other:?}"),
        }
    }

    #[test]
    fn check_executes_clean_on_small_machine() {
        let cmd = parse(&["check", "--app", "fft", "--clusters", "2", "--procs", "2"]).unwrap();
        assert_eq!(execute(cmd), 0);
    }

    #[test]
    fn waivers_only_cover_documented_patterns() {
        assert!(waived(AppId::Tsp, Variant::Optimized, DiagnosticKind::MessageRace).is_some());
        assert!(waived(AppId::Tsp, Variant::Optimized, DiagnosticKind::LostMessage).is_none());
        assert!(waived(AppId::Water, Variant::Unoptimized, DiagnosticKind::Deadlock).is_none());
    }

    #[test]
    fn run_executes_end_to_end() {
        // Smallest possible smoke: run ASP small on a tiny machine.
        let cmd = parse(&[
            "run",
            "--app",
            "asp",
            "--scale",
            "small",
            "--clusters",
            "2",
            "--procs",
            "2",
            "--verify",
        ])
        .unwrap();
        assert_eq!(execute(cmd), 0);
    }

    #[test]
    fn info_executes() {
        assert_eq!(execute(parse(&["info"]).unwrap()), 0);
    }

    #[test]
    fn parses_fault_flags() {
        match parse(&[
            "run",
            "--app",
            "fft",
            "--seed",
            "9",
            "--drop",
            "0.1",
            "--duplicate",
            "0.05",
            "--reorder",
            "0.02",
            "--outage",
            "1:10:20",
            "--clusters",
            "2",
        ])
        .unwrap()
        {
            Command::Run(args) => {
                assert_eq!(args.machine.seed, Some(9));
                assert!((args.machine.drop - 0.1).abs() < 1e-12);
                assert!((args.machine.duplicate - 0.05).abs() < 1e-12);
                assert!((args.machine.reorder - 0.02).abs() < 1e-12);
                assert_eq!(args.machine.outages, vec![(1, 10.0, 20.0)]);
                let plan = args.machine.fault_plan().expect("faults configured");
                assert_eq!(plan.seed, 9);
                assert_eq!(plan.gateway_outages.len(), 1);
            }
            other => panic!("expected run, got {other:?}"),
        }
        // No fault flags: no plan, and the transport stays off.
        match parse(&["run", "--app", "fft"]).unwrap() {
            Command::Run(args) => assert_eq!(args.machine.fault_plan(), None),
            other => panic!("expected run, got {other:?}"),
        }
        // --seed alone installs a (zero-probability) plan so the seed is
        // echoed and replayable.
        match parse(&["run", "--app", "fft", "--seed", "3"]).unwrap() {
            Command::Run(args) => {
                let plan = args.machine.fault_plan().expect("seed installs a plan");
                assert_eq!(plan.seed, 3);
            }
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_fault_flags() {
        assert!(parse(&["run", "--app", "fft", "--drop", "1.5"]).is_err());
        assert!(parse(&["run", "--app", "fft", "--drop", "-0.1"]).is_err());
        assert!(
            parse(&["run", "--app", "fft", "--drop", "0.6", "--duplicate", "0.6"]).is_err(),
            "probabilities must sum within 1"
        );
        assert!(parse(&["run", "--app", "fft", "--outage", "1:20:10"]).is_err());
        assert!(parse(&["run", "--app", "fft", "--outage", "nope"]).is_err());
        assert!(
            parse(&[
                "run",
                "--app",
                "fft",
                "--clusters",
                "2",
                "--outage",
                "7:1:2"
            ])
            .is_err(),
            "outage cluster must exist"
        );
        assert!(parse(&["soak", "--intensities", "0.7"]).is_err());
        assert!(parse(&["soak", "--intensities", "0.05,nan"]).is_err());
    }

    #[test]
    fn parses_soak_flags() {
        match parse(&[
            "soak",
            "--app",
            "asp",
            "--app",
            "fft",
            "--variant",
            "opt",
            "--intensities",
            "0.1,0.2",
            "--seeds",
            "5",
            "--seed",
            "11",
            "--repro",
            "--timeout",
            "60",
            "--no-outage",
        ])
        .unwrap()
        {
            Command::Soak(args) => {
                assert_eq!(args.apps, vec![AppId::Asp, AppId::Fft]);
                assert_eq!(args.variant, Some(Variant::Optimized));
                assert_eq!(args.intensities, vec![0.1, 0.2]);
                assert_eq!(args.seeds, 5);
                assert_eq!(args.machine.seed, Some(11));
                assert!(args.repro);
                assert_eq!(args.timeout_s, 60);
                assert!(args.no_outage);
            }
            other => panic!("expected soak, got {other:?}"),
        }
        match parse(&["soak"]).unwrap() {
            Command::Soak(args) => {
                assert!(args.apps.is_empty(), "all apps by default");
                assert_eq!(args.variant, None, "both variants by default");
                assert_eq!(args.intensities, vec![0.05, 0.15]);
                assert_eq!(args.seeds, 3);
                assert!(!args.repro);
                assert_eq!(args.timeout_s, 3600);
            }
            other => panic!("expected soak, got {other:?}"),
        }
    }

    #[test]
    fn soak_passes_on_tiny_sweep() {
        let cmd = parse(&[
            "soak",
            "--app",
            "fft",
            "--scale",
            "small",
            "--clusters",
            "2",
            "--procs",
            "2",
            "--intensities",
            "0.1",
            "--seeds",
            "1",
            "--seed",
            "5",
            "--repro",
        ])
        .unwrap();
        assert_eq!(execute(cmd), 0);
    }

    #[test]
    fn soak_hang_is_a_finding() {
        // A zero-second virtual time limit makes every cell a "hang": the
        // sweep must fail with the findings exit code, not an error.
        let cmd = parse(&[
            "soak",
            "--app",
            "fft",
            "--scale",
            "small",
            "--clusters",
            "2",
            "--procs",
            "2",
            "--intensities",
            "0.1",
            "--seeds",
            "1",
            "--timeout",
            "0",
        ])
        .unwrap();
        assert_eq!(execute(cmd), EXIT_FINDINGS);
    }

    #[test]
    fn unwritable_trace_path_is_an_error() {
        let cmd = parse(&[
            "run",
            "--app",
            "fft",
            "--scale",
            "small",
            "--clusters",
            "2",
            "--procs",
            "2",
            "--trace",
            "/nonexistent-dir/trace.json",
        ])
        .unwrap();
        assert_eq!(execute(cmd), EXIT_ERROR);
    }

    #[test]
    fn parses_predict() {
        match parse(&["predict"]).unwrap() {
            Command::Predict(args) => {
                assert!(args.apps.is_empty(), "all apps by default");
                assert_eq!(args.variant, None, "both variants by default");
                assert_eq!(args.scale, None, "medium, resolved at run time");
                assert!(!args.quick);
                assert_eq!(args.jobs, None, "worker count resolved at run time");
                assert_eq!(args.out, None);
                assert!((args.ref_latency - 10.0).abs() < 1e-12);
                assert!((args.ref_bandwidth - 0.3).abs() < 1e-12);
                assert!(!args.validate);
                assert!((args.max_error - 10.0).abs() < 1e-12);
            }
            other => panic!("expected predict, got {other:?}"),
        }
        match parse(&[
            "predict",
            "--app",
            "water",
            "--app",
            "tsp",
            "--variant",
            "unopt",
            "--quick",
            "--validate",
            "--ref-latency",
            "0.5",
            "--ref-bandwidth",
            "6.3",
            "--max-error",
            "5",
            "--jobs",
            "2",
            "--out",
            "/tmp/p",
        ])
        .unwrap()
        {
            Command::Predict(args) => {
                assert_eq!(args.apps, vec![AppId::Water, AppId::Tsp]);
                assert_eq!(args.variant, Some(Variant::Unoptimized));
                assert!(args.quick);
                assert!(args.validate);
                assert!((args.ref_latency - 0.5).abs() < 1e-12);
                assert!((args.ref_bandwidth - 6.3).abs() < 1e-12);
                assert!((args.max_error - 5.0).abs() < 1e-12);
                assert_eq!(args.jobs, Some(2));
                assert_eq!(args.out.as_deref(), Some("/tmp/p"));
            }
            other => panic!("expected predict, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_predict_flags() {
        assert!(parse(&["predict", "--app", "chess"]).is_err());
        assert!(parse(&["predict", "--max-error", "0"]).is_err());
        assert!(parse(&["predict", "--max-error", "nan"]).is_err());
        assert!(parse(&["predict", "--ref-bandwidth", "0"]).is_err());
        assert!(parse(&["predict", "--ref-latency", "-1"]).is_err());
        assert!(parse(&["predict", "--jobs", "0"]).is_err());
    }

    #[test]
    fn predict_executes_end_to_end() {
        // FFT's communication is data-independent, so the validated quick
        // grid predicts it exactly and the command must exit clean.
        let out = std::env::temp_dir().join(format!("numagap-predict-test-{}", std::process::id()));
        let cmd = parse(&[
            "predict",
            "--app",
            "fft",
            "--quick",
            "--scale",
            "small",
            "--jobs",
            "2",
            "--validate",
            "--out",
            out.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(execute(cmd), 0);
        assert!(out.join("PREDICT_fig3.json").is_file());
        assert!(out.join("BENCH_predict-sim.json").is_file());
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn faulty_run_executes_clean() {
        let cmd = parse(&[
            "run",
            "--app",
            "asp",
            "--variant",
            "opt",
            "--scale",
            "small",
            "--clusters",
            "2",
            "--procs",
            "2",
            "--seed",
            "42",
            "--drop",
            "0.1",
            "--verify",
        ])
        .unwrap();
        assert_eq!(execute(cmd), 0);
    }

    #[test]
    fn parses_cluster_size_lists() {
        match parse(&["info", "--clusters", "8,8,4,2"]).unwrap() {
            Command::Info(m) => {
                assert_eq!(m.clusters, 4);
                assert_eq!(m.cluster_sizes, Some(vec![8, 8, 4, 2]));
                assert_eq!(m.clusters_flag(), "8,8,4,2");
                assert_eq!(m.topology().label(), "8+8+4+2");
            }
            other => panic!("expected info, got {other:?}"),
        }
        match parse(&["info", "--clusters", "3"]).unwrap() {
            Command::Info(m) => {
                assert_eq!(m.clusters, 3);
                assert_eq!(m.cluster_sizes, None);
                assert_eq!(m.clusters_flag(), "3");
            }
            other => panic!("expected info, got {other:?}"),
        }
        assert!(parse(&["info", "--clusters", "8,0,4"]).is_err());
        assert!(parse(&["info", "--clusters", "0"]).is_err());
        assert!(parse(&["info", "--clusters", "8,x"]).is_err());
    }

    #[test]
    fn parses_hostile_network_flags() {
        match parse(&[
            "run",
            "--app",
            "fft",
            "--seed",
            "9",
            "--hetero",
            "slow-home",
            "--cross-traffic",
            "0.4",
            "--schedule",
            "diurnal",
            "--schedule-period",
            "250",
            "--degrade-latency",
            "3",
            "--degrade-bandwidth",
            "0.33",
        ])
        .unwrap()
        {
            Command::Run(args) => {
                let m = &args.machine;
                assert_eq!(m.hetero, HeteroPreset::SlowHome);
                assert!((m.cross_traffic - 0.4).abs() < 1e-12);
                assert_eq!(m.schedule, ScheduleArg::Diurnal);
                assert!((m.schedule_period_ms - 250.0).abs() < 1e-12);
                let spec = m.spec();
                assert!(spec.topology.is_heterogeneous());
                let plan = spec.cross_traffic.expect("cross-traffic plan installed");
                assert_eq!(plan.seed, 9);
                assert!((plan.intensity - 0.4).abs() < 1e-12);
                let schedule = spec.link_schedule.expect("schedule installed");
                assert_eq!(schedule.seed, 9);
                assert_eq!(schedule.peak_latency_permille, 3000);
                assert_eq!(schedule.floor_bandwidth_permille, 330);
            }
            other => panic!("expected run, got {other:?}"),
        }
        // Defaults leave the spec free of hostile plans — the classic
        // machine, bit-identical to the pre-hostile CLI.
        match parse(&["run", "--app", "fft"]).unwrap() {
            Command::Run(args) => {
                let spec = args.machine.spec();
                assert_eq!(spec.cross_traffic, None);
                assert_eq!(spec.link_schedule, None);
                assert!(!spec.topology.is_heterogeneous());
            }
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_hostile_flags() {
        assert!(parse(&["run", "--app", "fft", "--cross-traffic", "0.95"]).is_err());
        assert!(parse(&["run", "--app", "fft", "--cross-traffic", "-0.1"]).is_err());
        assert!(parse(&["run", "--app", "fft", "--cross-traffic", "nan"]).is_err());
        assert!(parse(&["run", "--app", "fft", "--schedule", "lunar"]).is_err());
        assert!(parse(&["run", "--app", "fft", "--schedule-period", "0"]).is_err());
        assert!(parse(&["run", "--app", "fft", "--degrade-latency", "0.5"]).is_err());
        assert!(parse(&["run", "--app", "fft", "--degrade-latency", "101"]).is_err());
        assert!(parse(&["run", "--app", "fft", "--degrade-bandwidth", "0"]).is_err());
        assert!(parse(&["run", "--app", "fft", "--degrade-bandwidth", "1.5"]).is_err());
        assert!(parse(&["run", "--app", "fft", "--hetero", "bogus"]).is_err());
    }

    #[test]
    fn soak_sweeps_hostile_dimensions_as_comma_lists() {
        match parse(&[
            "soak",
            "--cross-traffic",
            "0,0.4",
            "--schedule",
            "none,step",
            "--hetero",
            "uniform,slow-home",
        ])
        .unwrap()
        {
            Command::Soak(args) => {
                assert_eq!(args.cross_traffic, vec![0.0, 0.4]);
                assert_eq!(args.schedules, vec![ScheduleArg::None, ScheduleArg::Step]);
                assert_eq!(
                    args.hetero,
                    vec![HeteroPreset::Uniform, HeteroPreset::SlowHome]
                );
            }
            other => panic!("expected soak, got {other:?}"),
        }
        // Defaults reproduce the classic fault-only matrix: one clean value
        // per hostile dimension.
        match parse(&["soak"]).unwrap() {
            Command::Soak(args) => {
                assert_eq!(args.cross_traffic, vec![0.0]);
                assert_eq!(args.schedules, vec![ScheduleArg::None]);
                assert_eq!(args.hetero, vec![HeteroPreset::Uniform]);
            }
            other => panic!("expected soak, got {other:?}"),
        }
    }

    #[test]
    fn hostile_soak_passes_on_tiny_sweep() {
        // The full hostile matrix on the smallest machine: asymmetric
        // heterogeneous clusters, cross-traffic, a step schedule, faults,
        // and a replay check — all from one seed.
        let cmd = parse(&[
            "soak",
            "--app",
            "fft",
            "--scale",
            "small",
            "--clusters",
            "2,1",
            "--procs",
            "2",
            "--hetero",
            "slow-home",
            "--cross-traffic",
            "0.3",
            "--schedule",
            "step",
            "--intensities",
            "0.1",
            "--seeds",
            "1",
            "--seed",
            "5",
            "--repro",
        ])
        .unwrap();
        assert_eq!(execute(cmd), 0);
    }

    #[test]
    fn parses_topology_on_run_and_threads_it_into_the_spec() {
        let cmd = parse(&["run", "--app", "asp", "--topology", "ring"]).unwrap();
        match cmd {
            Command::Run(args) => {
                assert_eq!(args.machine.wan_topology, WanTopology::Ring);
                assert_eq!(args.machine.spec().wan_topology, WanTopology::Ring);
            }
            other => panic!("expected run, got {other:?}"),
        }
        // The shape must fit the machine: a 2x2 torus needs 4 clusters.
        let cmd = parse(&[
            "run",
            "--app",
            "asp",
            "--clusters",
            "4",
            "--topology",
            "torus:2x2",
        ])
        .unwrap();
        match cmd {
            Command::Run(args) => {
                assert_eq!(
                    args.machine.wan_topology,
                    WanTopology::Torus2d { x: 2, y: 2 }
                );
            }
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn topology_parses_on_every_subcommand() {
        for argv in [
            vec!["suite", "--topology", "star:1"],
            vec!["check", "--topology", "line"],
            vec!["soak", "--topology", "ring"],
            vec!["info", "--topology", "fattree:2"],
            vec!["awari-db", "--topology", "ring"],
        ] {
            assert!(parse(&argv).is_ok(), "{argv:?}");
        }
        match parse(&["bench", "--target", "topo", "--topology", "dragonfly:2"]).unwrap() {
            Command::Bench(args) => {
                assert_eq!(args.topology, Some(WanTopology::Dragonfly { groups: 2 }));
            }
            other => panic!("expected bench, got {other:?}"),
        }
        match parse(&["predict", "--topology", "torus:2x2"]).unwrap() {
            Command::Predict(args) => {
                assert_eq!(args.topology, Some(WanTopology::Torus2d { x: 2, y: 2 }));
            }
            other => panic!("expected predict, got {other:?}"),
        }
        // Without the flag, bench-family commands see None so their
        // artifacts stay bit-identical to the committed baselines.
        match parse(&["bench", "--target", "fig3"]).unwrap() {
            Command::Bench(args) => assert_eq!(args.topology, None),
            other => panic!("expected bench, got {other:?}"),
        }
    }

    #[test]
    fn bad_topologies_fail_parse_on_every_subcommand() {
        // Unknown shape and malformed sizes are parse errors (exit 2).
        assert!(parse(&["run", "--app", "asp", "--topology", "moebius"]).is_err());
        assert!(parse(&["run", "--app", "asp", "--topology", "torus:2x"]).is_err());
        assert!(parse(&["run", "--app", "asp", "--topology", "ring:3"]).is_err());
        // Shape/machine mismatches: torus extents must multiply out to the
        // cluster count, star hubs must exist, dragonfly groups must divide.
        for argv in [
            vec![
                "run",
                "--app",
                "asp",
                "--clusters",
                "4",
                "--topology",
                "torus:2x3",
            ],
            vec!["suite", "--clusters", "3", "--topology", "star:3"],
            vec!["check", "--clusters", "5", "--topology", "dragonfly:2"],
            vec!["soak", "--clusters", "2,2,2", "--topology", "torus:2x2"],
            vec!["info", "--clusters", "2", "--topology", "fattree:3"],
            // bench/predict validate against their fixed 4-cluster machine
            // no matter what --clusters says.
            vec!["bench", "--target", "topo", "--topology", "torus:3x3"],
            vec!["bench", "--target", "hostile", "--topology", "dragonfly:3"],
            vec!["predict", "--topology", "star:7"],
        ] {
            assert!(parse(&argv).is_err(), "{argv:?} should be rejected");
        }
        // The same misfits at the execute layer exit 2, not 0/1.
        let err = parse(&[
            "run",
            "--app",
            "asp",
            "--clusters",
            "3",
            "--topology",
            "torus:2x2",
        ]);
        let msg = err.unwrap_err().to_string();
        assert!(msg.contains("--topology"), "{msg}");
    }
}
