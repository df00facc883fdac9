//! The flag table: every `--flag` of every command is one row of [`TABLE`]
//! — its name, value syntax, range check, default, help line, whether it
//! may carry several values, and the commands that read it. [`parse`],
//! [`usage`], the per-command [`section`] and every printed `reproduce:`
//! line ([`render`]) walk these rows; no other module knows a flag's name.
//!
//! Adding a flag is adding a row (plus the field of [`Values`] it lands
//! in and the `*Args` field [`build`] copies it to): the row makes it
//! parse on exactly the commands it names, appear in `numagap help` and in
//! those commands' sections, and be a usage error everywhere else.

use std::fmt::{self, Display, Write as _};
use std::str::FromStr;

use numagap_apps::{AppId, Scale, Variant};
use numagap_net::{HeteroPreset, LinkParams, WanTopology};

use crate::bench::{selected, targets};
use crate::{
    AuditArgs, BenchArgs, CheckArgs, Command, MachineArgs, PredictArgs, RunArgs, ScheduleArg,
    ServeCmdArgs, SoakArgs,
};

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Everything the flags can set; [`build`] copies the fields the command
/// reads into its `*Args` value. `Values::default()` is only the blank the
/// table's defaults are applied to: start from [`defaults`].
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Values {
    pub(crate) apps: Vec<AppId>,
    pub(crate) variant: Option<Variant>,
    pub(crate) scale: Option<Scale>,
    pub(crate) machine: MachineArgs,
    /// `None` until `--topology` appears: bench/predict must tell an
    /// explicit full mesh apart from the (bit-identical) default.
    pub(crate) topology: Option<WanTopology>,
    pub(crate) verify: bool,
    pub(crate) trace: Option<String>,
    pub(crate) stones: u32,
    pub(crate) perturb: bool,
    pub(crate) intensities: Vec<f64>,
    pub(crate) cross_traffic: Vec<f64>,
    pub(crate) schedules: Vec<ScheduleArg>,
    pub(crate) hetero: Vec<HeteroPreset>,
    pub(crate) seeds: u64,
    pub(crate) repro: bool,
    pub(crate) timeout_s: u64,
    pub(crate) no_outage: bool,
    pub(crate) jobs: Option<usize>,
    pub(crate) target: String,
    pub(crate) quick: bool,
    pub(crate) out: Option<String>,
    pub(crate) compare: Option<(String, String)>,
    pub(crate) threshold: f64,
    pub(crate) virtual_only: bool,
    pub(crate) ref_latency: f64,
    pub(crate) ref_bandwidth: f64,
    pub(crate) validate: bool,
    pub(crate) max_error: f64,
    pub(crate) port: u16,
    pub(crate) workers: Option<usize>,
    pub(crate) cache_capacity: usize,
    pub(crate) deadline_ms: u64,
    pub(crate) root: Option<String>,
    pub(crate) rules: bool,
}

/// The values of a command line without flags: every row's default, read
/// through the row's own setter.
pub(crate) fn defaults() -> Values {
    let mut values = Values::default();
    for row in rows() {
        if let (Set::Value(set), false) = (&row.set, row.default.is_empty()) {
            let (default, cmd) = ([row.default], row.cmds[0]);
            let args = &mut default.iter();
            set(&mut values, &mut Cursor { args, row, cmd })
                .expect("a row's default passes its own check");
        }
    }
    values
}

/// The argument walk as a row's setter sees it: the arguments after the
/// flag, and the row and command for the error messages.
struct Cursor<'a, 'b> {
    args: &'b mut std::slice::Iter<'a, &'a str>,
    row: &'static Flag,
    cmd: &'a str,
}

impl<'a> Cursor<'a, '_> {
    fn value(&mut self) -> Result<&'a str, ParseError> {
        let next = self.args.next().copied();
        next.ok_or_else(|| ParseError(format!("flag {} needs a value", self.row.name)))
    }

    fn invalid(&self, v: &str, why: &str) -> ParseError {
        ParseError(format!("invalid value '{v}' for {}: {why}", self.row.name))
    }

    /// The next argument through `check`, the row's syntax and range check.
    fn with<T>(&mut self, check: impl Fn(&str) -> Result<T, String>) -> Result<T, ParseError> {
        let v = self.value()?;
        check(v).map_err(|why| self.invalid(v, &why))
    }

    /// The next argument as a comma list, each element through `check`; more
    /// than one element is an error unless the row lists this command.
    fn list<T>(&mut self, check: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, ParseError> {
        let v = self.value()?;
        if v.contains(',') && !self.row.list.contains(&self.cmd) {
            return Err(ParseError(format!(
                "flag {} takes a comma list only on {}, not on '{}'",
                self.row.name,
                self.row.list.join(", "),
                self.cmd
            )));
        }
        v.split(',')
            .map(|piece| check(piece).map_err(|why| self.invalid(piece, &why)))
            .collect()
    }
}

fn number<T: FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| "not a number".to_string())
}

/// A number in `[lo, hi]`.
fn within(lo: f64, hi: f64) -> impl Fn(&str) -> Result<f64, String> {
    move |s| match s.parse::<f64>() {
        Ok(x) if (lo..=hi).contains(&x) => Ok(x),
        _ => Err(format!("expected a number in [{lo}, {hi}]")),
    }
}

/// A finite number above `floor`, or with `or_equal`, from it.
fn above(floor: f64, or_equal: bool) -> impl Fn(&str) -> Result<f64, String> {
    move |s| match s.parse::<f64>() {
        Ok(x) if x.is_finite() && (x > floor || (or_equal && x == floor)) => Ok(x),
        _ if or_equal => Err(format!("expected a number of at least {floor}")),
        _ => Err(format!("expected a number greater than {floor}")),
    }
}

/// A WAN latency, and a WAN bandwidth, inside the limits of `LinkParams`.
fn wan_latency() -> impl Fn(&str) -> Result<f64, String> {
    within(0.0, LinkParams::MAX_WAN_LATENCY_MS)
}

fn wan_bandwidth() -> impl Fn(&str) -> Result<f64, String> {
    above(LinkParams::MIN_WAN_BANDWIDTH_MBS, true)
}

/// A fraction below 1.
fn fraction(s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(x) if (0.0..1.0).contains(&x) => Ok(x),
        _ => Err("expected a number in [0, 1)".to_string()),
    }
}

/// An endgame database's stone count. A level holds C(s + 11, 11) boards,
/// so each stone multiplies the work: 12 already takes tens of seconds.
fn stones(s: &str) -> Result<u32, String> {
    match s.parse::<u32>() {
        Ok(n) if n <= 12 => Ok(n),
        _ => Err("expected a whole number in [0, 12]".to_string()),
    }
}

/// A count of at least one.
fn count<T: FromStr + PartialOrd + From<u8>>(s: &str) -> Result<T, String> {
    match s.parse::<T>() {
        Ok(n) if n >= T::from(1) => Ok(n),
        _ => Err("expected a whole number of at least 1".to_string()),
    }
}

pub(crate) fn parse_app(s: &str) -> Result<AppId, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "water" => AppId::Water,
        "barnes" | "barnes-hut" | "barneshut" => AppId::Barnes,
        "tsp" => AppId::Tsp,
        "asp" => AppId::Asp,
        "awari" => AppId::Awari,
        "fft" => AppId::Fft,
        _ => return Err("unknown app".to_string()),
    })
}

fn parse_variant(s: &str) -> Result<Variant, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "unopt" | "unoptimized" | "original" => Variant::Unoptimized,
        "opt" | "optimized" => Variant::Optimized,
        _ => return Err("unknown variant".to_string()),
    })
}

fn parse_scale(s: &str) -> Result<Scale, String> {
    Scale::from_name(&s.to_ascii_lowercase()).ok_or_else(|| "unknown scale".to_string())
}

/// `N` clusters, or explicit per-cluster sizes `a,b,..`.
fn parse_clusters(s: &str) -> Result<(usize, Option<Vec<usize>>), String> {
    if s.contains(',') {
        let sizes: Vec<usize> = s.split(',').map(count).collect::<Result<_, _>>()?;
        Ok((sizes.len(), Some(sizes)))
    } else {
        Ok((count(s)?, None))
    }
}

/// `cluster:from_ms:until_ms`, the window non-empty.
fn parse_outage(s: &str) -> Result<(usize, f64, f64), String> {
    let parts: Vec<&str> = s.split(':').collect();
    let [cluster, from, until] = parts.as_slice() else {
        return Err("expected cluster:from_ms:until_ms".to_string());
    };
    let (cluster, from, until) = (number(cluster)?, number(from)?, number(until)?);
    if from >= until {
        return Err(format!("the window {from}..{until} is empty"));
    }
    Ok((cluster, from, until))
}

fn parse_target(s: &str) -> Result<String, String> {
    let target = s.to_ascii_lowercase();
    if selected(&target).next().is_some() {
        return Ok(target);
    }
    let names: Vec<&str> = targets().map(|t| t.name).collect();
    Err(format!(
        "unknown bench target (expected all, {})",
        names.join(", ")
    ))
}

type ValueFn = fn(&mut Values, &mut Cursor<'_, '_>) -> Result<(), ParseError>;
type ShowFn = fn(&Values) -> Vec<String>;

/// How a row stores what it read.
enum Set {
    /// A flag without a value.
    Switch(fn(&mut Values)),
    /// A flag whose setter takes its value(s) off the cursor, through the
    /// row's syntax and range check.
    Value(ValueFn),
}

/// One row of the flag table.
pub(crate) struct Flag {
    pub(crate) name: &'static str,
    /// Value syntax as help shows it; empty for a switch.
    pub(crate) value: &'static str,
    /// The default, read by the row's own setter ([`defaults`]); empty when
    /// an absent flag leaves nothing set.
    pub(crate) default: &'static str,
    /// In words, what an absent flag means when there is no `default`.
    pub(crate) unset: &'static str,
    help: &'static str,
    /// The commands that read the flag; on any other it is a usage error.
    pub(crate) cmds: &'static [&'static str],
    /// The commands (of `cmds`) on which it may be given more than once.
    repeat: &'static [&'static str],
    /// The commands (of `cmds`) on which its value may be a comma list.
    list: &'static [&'static str],
    set: Set,
    /// The flag's value(s) in `Values`, as the command line spells them;
    /// set on the rows a printed `reproduce:` line can need.
    show: Option<ShowFn>,
}

/// A row that takes a value.
const fn flag(
    name: &'static str,
    value: &'static str,
    default: &'static str,
    cmds: &'static [&'static str],
) -> Flag {
    Flag {
        name,
        value,
        default,
        unset: "",
        help: "",
        cmds,
        repeat: &[],
        list: &[],
        set: Set::Switch(|_| ()),
        show: None,
    }
}

/// A row that takes none.
const fn switch(name: &'static str, cmds: &'static [&'static str]) -> Flag {
    flag(name, "", "", cmds)
}

impl Flag {
    const fn help(self, help: &'static str) -> Flag {
        Flag { help, ..self }
    }

    const fn unset(self, unset: &'static str) -> Flag {
        Flag { unset, ..self }
    }

    const fn repeat(self, repeat: &'static [&'static str]) -> Flag {
        Flag { repeat, ..self }
    }

    const fn list(self, list: &'static [&'static str]) -> Flag {
        Flag { list, ..self }
    }

    const fn set(self, set: ValueFn) -> Flag {
        Flag {
            set: Set::Value(set),
            ..self
        }
    }

    const fn on(self, set: fn(&mut Values)) -> Flag {
        Flag {
            set: Set::Switch(set),
            ..self
        }
    }

    const fn show(self, show: ShowFn) -> Flag {
        Flag {
            show: Some(show),
            ..self
        }
    }
}

fn one(x: impl Display) -> Vec<String> {
    vec![x.to_string()]
}

fn each<T: Display>(xs: impl IntoIterator<Item = T>) -> Vec<String> {
    xs.into_iter().map(|x| x.to_string()).collect()
}

/// The commands that build a machine, and so read the machine-shape,
/// hostile-network and seed rows.
const MACHINE: &[&str] = &["run", "awari-db", "suite", "check", "soak", "info"];
/// The machine commands whose fault plan comes from the command line; soak
/// generates its own from the intensities and the planted outage.
const FAULTS: &[&str] = &["run", "awari-db", "suite", "check", "info"];
/// These run the paper's fixed machines, of which only the wiring is open.
const EXPERIMENTS: &[&str] = &["bench", "predict"];
/// Every command that simulates can be re-wired.
const WIRED: &[&str] = &[
    "run", "awari-db", "suite", "check", "soak", "info", "bench", "predict",
];
/// The commands that choose among the applications and their variants.
const CHOOSERS: &[&str] = &["run", "check", "soak", "predict"];
const SCALED: &[&str] = &["run", "check", "soak", "bench", "predict"];

/// A titled group of rows in `numagap help`.
struct Group {
    title: &'static str,
    note: &'static str,
    rows: &'static [Flag],
}

/// The flag table.
static TABLE: &[Group] = &[
    Group {
        title: "APPLICATION FLAGS",
        note: "",
        rows: &[
            flag("--app", "<name>", "", CHOOSERS)
                .help(
                    "application: water | barnes | tsp | asp | awari | fft. run requires it; \
                     check, soak and predict cover only the named one(s)",
                )
                .unset("all six")
                .repeat(&["soak", "predict"])
                .set(|v, a| a.with(parse_app).map(|app| v.apps.push(app)))
                .show(|v| each(v.apps.iter().map(|a| a.to_string().to_ascii_lowercase()))),
            flag("--variant", "<unopt|opt>", "", CHOOSERS)
                .help("program variant")
                .unset("run: opt; check, soak: both; predict: the paper's per app")
                .set(|v, a| a.with(parse_variant).map(|x| v.variant = Some(x)))
                .show(|v| each(v.variant)),
            flag("--scale", "<small|medium|paper>", "", SCALED)
                .help("problem size")
                .unset("medium; check, soak: small")
                .set(|v, a| a.with(parse_scale).map(|x| v.scale = Some(x)))
                .show(|v| each(v.scale.map(|s| format!("{s:?}").to_ascii_lowercase()))),
            switch("--verify", &["run"])
                .help("check the result against the serial reference")
                .on(|v| v.verify = true),
            flag("--trace", "<file.json>", "", &["run"])
                .help("write a Chrome trace (chrome://tracing)")
                .set(|v, a| a.value().map(|x| v.trace = Some(x.to_string()))),
            flag("--stones", "<0..12>", "4", &["awari-db"])
                .help("largest stone count of the endgame database")
                .set(|v, a| a.with(stones).map(|x| v.stones = x)),
            switch("--perturb", &["check"])
                .help(
                    "additionally re-run each selected app/variant under adversarial \
                     event-tiebreak orders (reversed and seeded-shuffled). The kernel books \
                     same-instant transfers in canonical order, so makespan and checksum must \
                     be bit-identical; any cell that moves is a finding (exit 1)",
                )
                .on(|v| v.perturb = true),
        ],
    },
    Group {
        title: "MACHINE FLAGS",
        note: "",
        rows: &[
            flag("--clusters", "<N | a,b,..>", "4", MACHINE)
                .help("number of clusters, or explicit per-cluster sizes like 8,8,4,2 (asymmetric)")
                .set(|v, a| {
                    let (n, sizes) = a.with(parse_clusters)?;
                    (v.machine.clusters, v.machine.cluster_sizes) = (n, sizes);
                    Ok(())
                })
                .show(|v| one(v.machine.clusters_flag())),
            flag("--procs", "<N>", "8", MACHINE)
                .help("processors per cluster (ignored when the cluster sizes are listed)")
                .set(|v, a| a.with(count).map(|x| v.machine.procs = x))
                .show(|v| one(v.machine.procs)),
            flag("--latency", "<ms>", "10", MACHINE)
                .help("one-way WAN latency")
                .set(|v, a| a.with(wan_latency()).map(|x| v.machine.latency_ms = x))
                .show(|v| one(v.machine.latency_ms)),
            flag("--bandwidth", "<MB/s>", "1", MACHINE)
                .help("WAN bandwidth per link")
                .set(|v, a| a.with(wan_bandwidth()).map(|x| v.machine.bandwidth_mbs = x))
                .show(|v| one(v.machine.bandwidth_mbs)),
            flag("--jitter", "<0..1>", "0", MACHINE)
                .help("WAN latency variation, a fraction below 1")
                .set(|v, a| a.with(fraction).map(|x| v.machine.jitter = x))
                .show(|v| one(v.machine.jitter)),
            flag("--topology", "<shape>", "", WIRED)
                .help(
                    "wide-area wiring between cluster gateways: mesh (fully connected) | \
                     star[:hub] | ring | line | torus:XxY[xZ] | fattree[:pod] | \
                     dragonfly[:groups]. Multi-hop shapes store-and-forward at every \
                     intermediate gateway/switch; routes are deterministic (dimension-ordered / \
                     up-down, ties toward the smaller node id). The shape must fit the cluster \
                     count (exit 2 if not). bench and predict validate it against their fixed \
                     4-cluster machine: it re-wires the WAN layer of the paper targets, and \
                     restricts the topo target to one shape (default there: all seven \
                     canonical shapes)",
                )
                .unset("mesh")
                .set(|v, a| a.with(WanTopology::parse).map(|t| v.topology = Some(t)))
                .show(|v| one(v.machine.wan_topology.flag())),
        ],
    },
    Group {
        title: "HOSTILE-NETWORK FLAGS",
        note: "Cross-traffic and schedules are pure functions of the seed and virtual time: \
               the same command line replays bit-identically.",
        rows: &[
            flag("--hetero", "<preset>", "uniform", MACHINE)
                .help(
                    "per-cluster compute speeds: uniform | slow-home (cluster 0 at 0.4x) | \
                     tiered (descending to 0.4x)",
                )
                .list(&["soak"])
                .set(|v, a| {
                    let preset = |s: &str| HeteroPreset::parse(s).ok_or("unknown preset".into());
                    a.list(preset).map(|l| v.hetero = l)
                })
                .show(|v| one(v.machine.hetero)),
            flag("--cross-traffic", "<0..0.9>", "0", MACHINE)
                .help("seeded background flows occupying this fraction of each WAN link")
                .list(&["soak"])
                .set(|v, a| a.list(within(0.0, 0.9)).map(|l| v.cross_traffic = l))
                .show(|v| one(v.machine.cross_traffic)),
            flag("--schedule", "<shape>", "none", MACHINE)
                .help("time-varying WAN quality: none | diurnal | step | drift")
                .list(&["soak"])
                .set(|v, a| {
                    let shape = |s: &str| ScheduleArg::parse(s).ok_or("unknown shape".into());
                    a.list(shape).map(|l| v.schedules = l)
                })
                .show(|v| one(v.machine.schedule)),
            flag("--schedule-period", "<ms>", "500", MACHINE)
                .help("diurnal period / step onset / drift horizon")
                .set(|v, a| {
                    a.with(above(0.0, false))
                        .map(|x| v.machine.schedule_period_ms = x)
                })
                .show(|v| one(v.machine.schedule_period_ms)),
            flag("--degrade-latency", "<1..100>", "2", MACHINE)
                .help("latency multiplier at full degradation")
                .set(|v, a| {
                    a.with(within(1.0, 100.0))
                        .map(|x| v.machine.degrade_latency = x)
                })
                .show(|v| one(v.machine.degrade_latency)),
            flag("--degrade-bandwidth", "<0.01..1>", "0.5", MACHINE)
                .help("bandwidth multiplier at full degradation")
                .set(|v, a| {
                    a.with(within(0.01, 1.0))
                        .map(|x| v.machine.degrade_bandwidth = x)
                })
                .show(|v| one(v.machine.degrade_bandwidth)),
        ],
    },
    Group {
        title: "FAULT FLAGS",
        note: "Enabling faults turns on the reliable transport, so applications still \
               complete, degraded only in virtual time.",
        rows: &[
            flag("--seed", "<N>", "", MACHINE)
                .help(
                    "seed of the fault plan, the cross-traffic and the schedule, echoed in \
                     reports; soak counts its cells' seeds up from it",
                )
                .unset("0; soak: 1")
                .set(|v, a| a.with(number).map(|x| v.machine.seed = Some(x)))
                .show(|v| each(v.machine.seed)),
            flag("--drop", "<0..1>", "0", FAULTS)
                .help("WAN message drop probability")
                .set(|v, a| a.with(within(0.0, 1.0)).map(|x| v.machine.drop = x))
                .show(|v| one(v.machine.drop)),
            flag("--duplicate", "<0..1>", "0", FAULTS)
                .help("WAN message duplication probability")
                .set(|v, a| a.with(within(0.0, 1.0)).map(|x| v.machine.duplicate = x))
                .show(|v| one(v.machine.duplicate)),
            flag("--reorder", "<0..1>", "0", FAULTS)
                .help("WAN message reorder probability")
                .set(|v, a| a.with(within(0.0, 1.0)).map(|x| v.machine.reorder = x))
                .show(|v| one(v.machine.reorder)),
            flag("--outage", "<c:from:until>", "", FAULTS)
                .help("gateway crash window of cluster c, in ms")
                .repeat(FAULTS)
                .set(|v, a| a.with(parse_outage).map(|o| v.machine.outages.push(o)))
                .show(|v| {
                    let window = |(c, from, until): &(_, f64, f64)| format!("{c}:{from}:{until}");
                    each(v.machine.outages.iter().map(window))
                }),
        ],
    },
    Group {
        title: "SWEEP FLAGS",
        note: "",
        rows: &[
            flag("--intensities", "<i,i,..>", "0.05,0.15", &["soak"])
                .help(
                    "fault intensities to sweep, each in [0, 0.5] (drop + duplicate + reorder \
                     must stay within 1)",
                )
                .list(&["soak"])
                .set(|v, a| a.list(within(0.0, 0.5)).map(|l| v.intensities = l))
                .show(|v| one(each(&v.intensities).join(","))),
            flag("--seeds", "<N>", "3", &["soak"])
                .help("seeds per cell")
                .set(|v, a| a.with(number).map(|x| v.seeds = x))
                .show(|v| one(v.seeds)),
            switch("--repro", &["soak"])
                .help("replay each cell; require an identical schedule, virtual time and traffic")
                .on(|v| v.repro = true)
                .show(|v| each(v.repro.then_some(""))),
            flag("--timeout", "<secs>", "3600", &["soak"])
                .help("virtual-time limit per cell; a cell beyond it is a hang")
                .set(|v, a| a.with(number).map(|x| v.timeout_s = x))
                .show(|v| one(v.timeout_s)),
            switch("--no-outage", &["soak"])
                .help("skip the planted mid-run gateway outage")
                .on(|v| v.no_outage = true)
                .show(|v| each(v.no_outage.then_some(""))),
            flag("--jobs", "<N>", "", &["soak", "bench", "predict"])
                .help("worker threads for the sweep's cells")
                .unset("available cores")
                .set(|v, a| a.with(count).map(|x| v.jobs = Some(x))),
            flag("--target", "<name>", "all", &["bench"])
                .help("one experiment of the targets listed with bench, or `all` of them")
                .set(|v, a| a.with(parse_target).map(|x| v.target = x)),
            switch("--quick", EXPERIMENTS)
                .help("coarse grids")
                .on(|v| v.quick = true),
            flag("--out", "<dir>", "", EXPERIMENTS)
                .help("artifact directory")
                .unset("bench_results/")
                .set(|v, a| a.value().map(|x| v.out = Some(x.to_string()))),
            flag("--compare", "<OLD.json> <NEW.json>", "", &["bench"])
                .help(
                    "diff two BENCH_*.json files instead of running; determinism drift and \
                     wall-clock regressions beyond the threshold are findings",
                )
                .set(|v, a| {
                    v.compare = Some((a.value()?.to_string(), a.value()?.to_string()));
                    Ok(())
                }),
            flag("--threshold", "<F>", "1.5", &["bench"])
                .help("wall-clock regression factor of a comparison")
                .set(|v, a| a.with(above(1.0, false)).map(|x| v.threshold = x)),
            switch("--virtual-only", &["bench"])
                .help("compare deterministic fields only (baselines from different hardware)")
                .on(|v| v.virtual_only = true),
            flag("--ref-latency", "<ms>", "10", &["predict"])
                .help("WAN latency of the one recorded run")
                .set(|v, a| a.with(wan_latency()).map(|x| v.ref_latency = x)),
            flag("--ref-bandwidth", "<MB/s>", "0.3", &["predict"])
                .help("WAN bandwidth of that run")
                .set(|v, a| a.with(wan_bandwidth()).map(|x| v.ref_bandwidth = x)),
            switch("--validate", &["predict"])
                .help("re-simulate every grid point; report model error")
                .on(|v| v.validate = true),
            flag("--max-error", "<pct>", "10", &["predict"])
                .help("mean relative error bar per app/variant of a validated prediction")
                .set(|v, a| a.with(above(0.0, false)).map(|x| v.max_error = x)),
        ],
    },
    Group {
        title: "SERVICE AND AUDIT FLAGS",
        note: "",
        rows: &[
            flag("--port", "<P>", "7999", &["serve"])
                .help("TCP port on 127.0.0.1 (0 = ephemeral)")
                .set(|v, a| a.with(number).map(|x| v.port = x)),
            flag("--workers", "<N>", "", &["serve"])
                .help("connection/compute worker threads")
                .unset("available cores")
                .set(|v, a| a.with(count).map(|x| v.workers = Some(x))),
            flag("--cache-capacity", "<N>", "32", &["serve"])
                .help("DAG cache entries")
                .set(|v, a| a.with(count).map(|x| v.cache_capacity = x)),
            flag("--deadline", "<ms>", "30000", &["serve"])
                .help("per-request wall-clock budget")
                .set(|v, a| a.with(count).map(|x| v.deadline_ms = x)),
            flag("--root", "<dir>", "", &["audit"])
                .help("workspace root to scan")
                .unset(".")
                .set(|v, a| a.value().map(|x| v.root = Some(x.to_string()))),
            switch("--rules", &["audit"])
                .help("print the rule catalog, with rationale, and exit")
                .on(|v| v.rules = true),
        ],
    },
];

/// A command's name and the prose of its part of the help.
pub(crate) struct CmdSpec {
    pub(crate) name: &'static str,
    about: &'static str,
    notes: &'static str,
}

/// The commands, in help order.
pub(crate) static COMMANDS: &[CmdSpec] = &[
    CmdSpec {
        name: "run",
        about: "run one application on one simulated machine",
        notes: "Prints runtime, traffic, checksum and work units of the one application it \
                requires.",
    },
    CmdSpec {
        name: "awari-db",
        about: "build a real Awari endgame database",
        notes: "Solves the last-capture-wins variant serially and on the machine, and \
                compares the two.",
    },
    CmdSpec {
        name: "suite",
        about: "all six apps, both variants, verified",
        notes: "Runs at the small scale by definition, so it takes no problem size; use run \
                for one application at another.",
    },
    CmdSpec {
        name: "check",
        about: "communication sanitizer",
        notes: "Runs each selected app under the communication sanitizer and reports message \
                races, lost messages, deadlock cycles and protocol lints. Defaults to all six \
                apps, both variants, small scale.",
    },
    CmdSpec {
        name: "audit",
        about: "determinism static analysis",
        notes: "Token-level determinism static analysis over the workspace's library sources \
                (crates/*/src): hash-ordered containers in simulation state, wall-clock \
                reads, unseeded RNGs, thread::sleep, order-sensitive float reductions, \
                narrowing time casts, bare unwraps, raw thread primitives bypassing the rank \
                scheduler (rules ND001..ND008). Comments, strings, and #[cfg(test)] blocks \
                never fire. Accepted sites carry an entry in the built-in waiver table; \
                unwaived findings and stale waivers exit 1.",
    },
    CmdSpec {
        name: "soak",
        about: "fault/hostile scenario matrix",
        notes: "Each cell runs one app at drop=i, duplicate=i/2, reorder=i/2 plus a gateway \
                outage parked mid-run (placed from a fault-free probe), then verifies the \
                checksum against the serial reference. Those plans are the sweep's own, so \
                soak reads no drop, duplicate, reorder or outage flag. Comma lists given to \
                the first three hostile-network flags multiply the matrix with \
                hostile-network dimensions. Failing cells print the seed and the full \
                command line that reproduces the one cell.",
    },
    CmdSpec {
        name: "bench",
        about: "run experiments (the only way to), or compare two summaries",
        notes: "This is the only way to run an experiment: each target fans its independent \
                simulation cells across the worker pool, prints its tables and writes \
                <target>.csv (some write several CSVs) plus a versioned BENCH_<target>.json \
                summary. Artifacts are byte-identical for any worker count. CI compares every \
                target's small, quick run against crates/bench/baselines/BENCH_<target>.json, \
                deterministic fields only. DESIGN.md section 6 maps each paper claim to its \
                target. The targets run the paper's fixed machines, so of the machine flags \
                bench reads only the wide-area wiring.",
    },
    CmdSpec {
        name: "serve",
        about: "batched what-if prediction server",
        notes: "Binds a std-only HTTP/1.1 server on 127.0.0.1 that answers batched what-if \
                queries against a content-addressed cache of frozen communication DAGs. POST \
                /v1/whatif with a JSON body like {\"app\": \"asp\", \"variant\": \"opt\", \
                \"scale\": \"small\", \"mode\": \"replay\" | \"analytic\", \"points\": \
                [[lat_ms, bw_mbs], ...]}. The first query for a key records the DAG (a miss); \
                later queries replay the cached recording (a hit): response bodies are \
                byte-identical either way and for any worker count (cache status is only in \
                the X-Numagap-Cache header). `analytic` evaluates a compiled longest-path \
                lower bound instead of a full replay (microseconds per point). Batches \
                forming a complete latency x bandwidth grid also report tolerable-gap \
                thresholds (the paper's 60% bar). GET /v1/health and /v1/stats probe liveness \
                and cache counters; POST /v1/shutdown exits gracefully.",
    },
    CmdSpec {
        name: "predict",
        about: "fig3 sensitivity from one recorded run per app",
        notes: "Records each app's communication DAG once on the fig3 machine (4x8) at the \
                reference point, then re-costs it analytically across the fig3 \
                latency/bandwidth grid. Writes PREDICT_fig3.json (plus, when validating, \
                BENCH_predict-sim.json in the bench summary schema); both are byte-identical \
                for any worker count. Exceeding the error bar or a tolerable-gap disagreement \
                is a finding (exit 1). Like bench, it reads only the wide-area wiring of the \
                machine flags.",
    },
    CmdSpec {
        name: "info",
        about: "print the machine and its NUMA gap",
        notes: "Prints the machine the flags describe; nothing is run.",
    },
];

pub(crate) fn rows() -> impl Iterator<Item = &'static Flag> {
    TABLE.iter().flat_map(|g| g.rows)
}

fn rows_of(cmd: &str) -> impl Iterator<Item = &'static Flag> + '_ {
    rows().filter(move |r| r.cmds.contains(&cmd))
}

/// Parses a full command line (excluding the binary name).
pub fn parse(args: &[&str]) -> Result<Command, ParseError> {
    let (cmd, rest) = match args.split_first() {
        None | Some((&("help" | "--help" | "-h"), _)) => return Ok(Command::Help),
        Some((&cmd, rest)) => (cmd, rest),
    };
    if !COMMANDS.iter().any(|c| c.name == cmd) {
        // An experiment's name is not a subcommand of its own.
        let hint = match targets().any(|t| t.name == cmd) {
            true => format!("; experiments run as `numagap bench --target {cmd}`"),
            false => String::new(),
        };
        return Err(ParseError(format!("unknown command '{cmd}'{hint}")));
    }
    let mut values = defaults();
    let mut args = rest.iter();
    let mut seen: Vec<&str> = Vec::new();
    while let Some(&arg) = args.next() {
        let row = rows()
            .find(|r| r.name == arg)
            .ok_or_else(|| ParseError(format!("unknown flag '{arg}'")))?;
        if !row.cmds.contains(&cmd) {
            return Err(ParseError(format!(
                "flag {arg} is not read by '{cmd}' (accepted by: {})",
                row.cmds.join(", ")
            )));
        }
        if seen.contains(&arg) && !row.repeat.contains(&cmd) {
            let several = match row.repeat {
                [] => String::new(),
                on => format!("; only {} take several, not '{cmd}'", on.join(", ")),
            };
            return Err(ParseError(format!(
                "flag {arg} is given more than once{several}"
            )));
        }
        seen.push(arg);
        match row.set {
            Set::Switch(set) => set(&mut values),
            Set::Value(set) => {
                let args = &mut args;
                set(&mut values, &mut Cursor { args, row, cmd })?
            }
        }
    }
    settle(cmd, &mut values)?;
    Ok(build(cmd, values))
}

/// What spans flags: the machine takes its wiring and the last element of
/// each hostile dimension (the whole lists are soak's); run needs its
/// application; and the fault plan, the outages and the wiring must fit.
fn settle(cmd: &str, v: &mut Values) -> Result<(), ParseError> {
    let m = &mut v.machine;
    m.wan_topology = v.topology.unwrap_or_default();
    m.hetero = *v.hetero.last().expect("a list has an element");
    m.cross_traffic = *v.cross_traffic.last().expect("a list has an element");
    m.schedule = *v.schedules.last().expect("a list has an element");
    if cmd == "run" && v.apps.is_empty() {
        return Err(ParseError("run requires --app".into()));
    }
    let faults = m.drop + m.duplicate + m.reorder;
    if faults > 1.0 {
        return Err(ParseError(format!(
            "the drop, duplicate and reorder probabilities must stay within 1 together, \
             got {faults}"
        )));
    }
    if let Some((cluster, _, _)) = m.outages.iter().find(|o| o.0 >= m.clusters) {
        return Err(ParseError(format!(
            "outage cluster {cluster} is out of range (the machine has {} clusters)",
            m.clusters
        )));
    }
    // bench/predict run fixed 4-cluster machines; validate the shape
    // against the machine the command will build.
    let clusters = match EXPERIMENTS.contains(&cmd) {
        true => 4,
        false => m.clusters,
    };
    m.wan_topology
        .validate(clusters)
        .map_err(|e| ParseError(format!("the --topology shape does not fit: {e}")))
}

/// The command's `*Args` value from what the flags set.
fn build(cmd: &str, v: Values) -> Command {
    match cmd {
        "run" => Command::Run(RunArgs {
            app: v.apps[0],
            variant: v.variant.unwrap_or(Variant::Optimized),
            scale: v.scale.unwrap_or(Scale::Medium),
            machine: v.machine,
            verify: v.verify,
            trace: v.trace,
        }),
        "awari-db" => Command::AwariDb {
            stones: v.stones,
            machine: v.machine,
        },
        "suite" => Command::Suite(v.machine),
        // The sanitizer sweep defaults to the small scale: it visits every
        // app/variant pair, and findings do not depend on problem size.
        "check" => Command::Check(CheckArgs {
            app: v.apps.first().copied(),
            variant: v.variant,
            scale: v.scale.unwrap_or(Scale::Small),
            machine: v.machine,
            perturb: v.perturb,
        }),
        "audit" => Command::Audit(AuditArgs {
            root: v.root,
            rules: v.rules,
        }),
        "soak" => Command::Soak(SoakArgs {
            apps: v.apps,
            variant: v.variant,
            scale: v.scale.unwrap_or(Scale::Small),
            machine: v.machine,
            intensities: v.intensities,
            cross_traffic: v.cross_traffic,
            schedules: v.schedules,
            hetero: v.hetero,
            seeds: v.seeds,
            repro: v.repro,
            timeout_s: v.timeout_s,
            no_outage: v.no_outage,
            jobs: v.jobs,
        }),
        "bench" => Command::Bench(BenchArgs {
            target: v.target,
            jobs: v.jobs,
            scale: v.scale,
            quick: v.quick,
            out: v.out,
            compare: v.compare,
            threshold: v.threshold,
            virtual_only: v.virtual_only,
            topology: v.topology,
        }),
        "serve" => Command::Serve(ServeCmdArgs {
            port: v.port,
            workers: v.workers,
            cache_capacity: v.cache_capacity,
            deadline_ms: v.deadline_ms,
        }),
        "predict" => Command::Predict(PredictArgs {
            apps: v.apps,
            variant: v.variant,
            scale: v.scale,
            quick: v.quick,
            jobs: v.jobs,
            out: v.out,
            ref_latency: v.ref_latency,
            ref_bandwidth: v.ref_bandwidth,
            validate: v.validate,
            max_error: v.max_error,
            topology: v.topology,
        }),
        "info" => Command::Info(v.machine),
        _ => unreachable!("parse checked the command against COMMANDS"),
    }
}

/// The flags of `cmd` that spell `v` where it differs from the defaults:
/// `parse` of the command plus these flags sets the same values again. Only
/// rows with a `show` take part.
pub(crate) fn render(cmd: &str, v: &Values) -> Vec<String> {
    let defaults = defaults();
    let mut out = Vec::new();
    for row in rows_of(cmd) {
        let Some(show) = row.show else { continue };
        let values = show(v);
        if values != show(&defaults) {
            for value in values {
                out.push(row.name.to_string());
                if !row.value.is_empty() {
                    out.push(value);
                }
            }
        }
    }
    out
}

/// Appends `head` and then `text`, word-wrapped to 80 columns with every
/// line after the first indented to `indent`; a head too long for the
/// indent gets a line of its own. A no-break space in `text` prints as a
/// space the wrap does not break at.
fn wrap(out: &mut String, head: &str, indent: usize, text: &str) {
    let mut line = format!("{head:<indent$}");
    if head.len() >= indent {
        let _ = writeln!(out, "{head}");
        line = " ".repeat(indent);
    }
    for word in text.split(' ').filter(|w| !w.is_empty()) {
        if line.len() > indent && line.len() + 1 + word.len() > 80 {
            let _ = writeln!(out, "{line}");
            line = " ".repeat(indent);
        }
        if line.len() > indent {
            line.push(' ');
        }
        line.push_str(word);
    }
    let _ = writeln!(out, "{}", line.trim_end().replace('\u{a0}', " "));
}

/// A row's help entry: name and value syntax, help, how many values, default.
fn entry(out: &mut String, row: &Flag) {
    let mut text = row.help.to_string();
    if !row.repeat.is_empty() {
        text += &format!("; repeatable on {}", row.repeat.join(", "));
    }
    if !row.list.is_empty() {
        text += &format!("; a comma list on {}", row.list.join(", "));
    }
    if !(row.default.is_empty() && row.unset.is_empty()) {
        text += &format!(" [default:\u{a0}{}{}]", row.default, row.unset);
    }
    wrap(out, &format!("  {} {}", row.name, row.value), 29, &text);
}

/// A command's part of the help: what it is, its notes, and the flags it
/// reads — by name, or with `full`, each one's whole entry.
fn command_part(out: &mut String, spec: &CmdSpec, full: bool) {
    let _ = writeln!(out, "numagap {} — {}", spec.name, spec.about);
    wrap(out, "", 2, spec.notes);
    if spec.name == "bench" {
        out.push_str("  targets, in the order `all` runs them:\n");
        for t in targets() {
            let _ = writeln!(out, "    {:<10} {}", t.name, t.about);
        }
    }
    if full {
        out.push_str("  flags (any other is a usage error):\n");
        rows_of(spec.name).for_each(|row| entry(out, row));
    } else {
        let flags: Vec<&str> = rows_of(spec.name).map(|r| r.name).collect();
        wrap(out, "  flags:", 9, &flags.join(" "));
    }
}

/// What `main` prints under a usage error on `command`: the command's notes
/// and the entry of every flag it reads. `None` when there is no such
/// command.
pub fn section(command: &str) -> Option<String> {
    let mut out = String::new();
    let spec = COMMANDS.iter().find(|c| c.name == command)?;
    command_part(&mut out, spec, true);
    Some(out)
}

/// The usage text: every command with the flags it reads, then every row of
/// the flag table once.
pub fn usage() -> String {
    let mut out = String::from(
        "numagap — simulated two-layer interconnect testbed (HPCA'99 reproduction)\n\n\
         USAGE:\n  numagap <command> [flags]\n  numagap help\n\n\
         COMMANDS (each reads exactly the flags listed with it; any other is exit 2):\n\n",
    );
    for spec in COMMANDS {
        command_part(&mut out, spec, false);
        out.push('\n');
    }
    for group in TABLE {
        let _ = writeln!(out, "{}:", group.title);
        group.rows.iter().for_each(|row| entry(&mut out, row));
        if !group.note.is_empty() {
            wrap(&mut out, "", 2, group.note);
        }
        out.push('\n');
    }
    out.push_str(
        "EXIT CODES:\n  0  clean\n  1  findings: unwaived diagnostics, checksum mismatches, \
         failed soak cells\n  2  usage or internal error\n",
    );
    out
}
