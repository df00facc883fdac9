//! The flag table: every `--flag` of every command is one row of [`TABLE`]
//! — its name, value syntax, range check, default, help line, whether it
//! may be given more than once, and the commands that read it. [`parse`],
//! [`usage`] and the per-command [`section`] walk these rows.
//!
//! Adding a flag is adding a row and the [`Values`] field it sets: the row
//! makes it parse on exactly the commands it names, appear in `numagap
//! help` and in those commands' sections, and be a usage error everywhere
//! else. Adding a command is adding a [`COMMANDS`] row and the function
//! that runs it, which reads the [`Values`] it needs.

use std::fmt::{self, Display, Write as _};
use std::str::FromStr;

use numagap_apps::{pairs, AppId, Scale, Variant};
use numagap_bench::targets::TARGETS;
use numagap_net::{HeteroPreset, LinkParams, WanTopology};

use crate::bench::selected;
use crate::{audit, bench, check, machine, predict, run, serve};
use crate::{Command, MachineArgs, ScheduleArg};

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Everything the flags set, for the command to read: a row's value from
/// the command line, or its default when the line does not give it.
/// `Values::default()` is only the blank [`parse`] fills in.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Values {
    pub(crate) apps: Vec<AppId>,
    pub(crate) variant: Option<Variant>,
    pub(crate) scale: Option<Scale>,
    pub(crate) machine: MachineArgs,
    /// `None` until `--topology` appears: bench/predict must tell an
    /// explicit full mesh apart from the (bit-identical) default.
    pub(crate) topology: Option<WanTopology>,
    pub(crate) verify: bool,
    pub(crate) trace: Option<String>,
    pub(crate) perturb: bool,
    pub(crate) jobs: Option<usize>,
    pub(crate) target: String,
    pub(crate) quick: bool,
    pub(crate) out: Option<String>,
    /// `--compare`'s files, old then new; empty without the flag.
    pub(crate) compare: Vec<String>,
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

/// A switch's setting: it is given.
fn given(_: &str) -> Result<bool, String> {
    Ok(true)
}

/// Any text: a path.
fn text(s: &str) -> Result<String, String> {
    Ok(s.to_string())
}

fn number<T: FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| "not a number".to_string())
}

/// A number in `[lo, hi]`.
fn within(s: &str, lo: f64, hi: f64) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(x) if (lo..=hi).contains(&x) => Ok(x),
        _ => Err(format!("expected a number in [{lo}, {hi}]")),
    }
}

/// A finite number above `floor`, or with `or_equal`, from it.
fn above(s: &str, floor: f64, or_equal: bool) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(x) if x.is_finite() && (x > floor || (or_equal && x == floor)) => Ok(x),
        _ if or_equal => Err(format!("expected a number of at least {floor}")),
        _ => Err(format!("expected a number greater than {floor}")),
    }
}

/// A WAN latency, and a WAN bandwidth, inside the limits of `LinkParams`.
fn wan_latency(s: &str) -> Result<f64, String> {
    within(s, 0.0, LinkParams::MAX_WAN_LATENCY_MS)
}

fn wan_bandwidth(s: &str) -> Result<f64, String> {
    above(s, LinkParams::MIN_WAN_BANDWIDTH_MBS, true)
}

/// A fraction below 1.
fn fraction(s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(x) if (0.0..1.0).contains(&x) => Ok(x),
        _ => Err("expected a number in [0, 1)".to_string()),
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

/// The most ranks a machine may have. Each rank runs on a guarded stack,
/// which is two memory mappings (the stack and its guard page), and Linux
/// lets a process hold `vm.max_map_count` mappings (65 530 by default), so
/// about half that many ranks fit: 32 700 run on a default host, 32 760
/// do not.
const MAX_RANKS: usize = 32_700;

/// `N` clusters, or explicit per-cluster sizes `a,b,..`.
fn parse_clusters(s: &str) -> Result<(usize, Option<Vec<usize>>), String> {
    if s.contains(',') {
        let sizes: Vec<usize> = s.split(',').map(count).collect::<Result<_, _>>()?;
        Ok((sizes.len(), Some(sizes)))
    } else {
        Ok((count(s)?, None))
    }
}

fn parse_target(s: &str) -> Result<String, String> {
    let target = s.to_ascii_lowercase();
    if selected(&target).next().is_some() {
        return Ok(target);
    }
    let names: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
    Err(format!(
        "unknown bench target (expected all, {})",
        names.join(", ")
    ))
}

/// A row's setter: one value's text through the row's syntax and range
/// check into [`Values`], or why it does not pass. A switch's gets `""`.
/// Rows that take several values push each one: [`parse`] sets a default
/// only when the flag is absent, so nothing lands on top of it.
type SetFn = fn(&mut Values, &str) -> Result<(), String>;

/// One row of the flag table.
pub(crate) struct Flag {
    pub(crate) name: &'static str,
    /// Value syntax as help shows it, one `<..>` per argument the flag
    /// takes; empty for a switch.
    pub(crate) value: &'static str,
    /// The default, read by the row's own setter when the flag is absent;
    /// empty when an absent flag leaves nothing set.
    pub(crate) default: &'static str,
    /// In words, what an absent flag means when there is no `default`.
    pub(crate) unset: &'static str,
    help: &'static str,
    /// The commands that read the flag; on any other it is a usage error.
    pub(crate) cmds: &'static [&'static str],
    /// The commands (of `cmds`) on which it may be given more than once.
    repeat: &'static [&'static str],
    set: SetFn,
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
        set: |_, _| Ok(()),
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

    const fn set(self, set: SetFn) -> Flag {
        Flag { set, ..self }
    }
}

/// The commands that build a machine, and so read the machine-shape,
/// hostile-network and seed rows.
const MACHINE: &[&str] = &["run", "suite", "check", "info"];
/// These run the paper's fixed machines, of which only the wiring is open.
const EXPERIMENTS: &[&str] = &["bench", "predict"];
/// Every command that simulates can be re-wired.
const WIRED: &[&str] = &["run", "suite", "check", "info", "bench", "predict"];
/// The commands that choose among the applications and their variants.
const CHOOSERS: &[&str] = &["run", "check", "predict"];
const SCALED: &[&str] = &["run", "check", "bench", "predict"];

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
                     check and predict cover only the named one(s)",
                )
                .unset("all six")
                .repeat(&["predict"])
                .set(|v, s| parse_app(s).map(|app| v.apps.push(app))),
            flag("--variant", "<unopt|opt>", "", CHOOSERS)
                .help("program variant")
                .unset("run: opt; check, predict: the paper's per app")
                .set(|v, s| parse_variant(s).map(|x| v.variant = Some(x))),
            flag("--scale", "<small|medium|paper>", "", SCALED)
                .help("problem size")
                .unset("medium; check: small")
                .set(|v, s| parse_scale(s).map(|x| v.scale = Some(x))),
            switch("--verify", &["run"])
                .help("check the result against the serial reference")
                .set(|v, s| given(s).map(|x| v.verify = x)),
            flag("--trace", "<file.json>", "", &["run"])
                .help("write a Chrome trace (chrome://tracing)")
                .set(|v, s| text(s).map(|x| v.trace = Some(x))),
            switch("--perturb", &["check"])
                .help(
                    "additionally re-run each selected app/variant under adversarial \
                     event-tiebreak orders (reversed and seeded-shuffled). The kernel books \
                     same-instant transfers in canonical order, so makespan and checksum must \
                     be bit-identical; any cell that moves is a finding (exit 1)",
                )
                .set(|v, s| given(s).map(|x| v.perturb = x)),
        ],
    },
    Group {
        title: "MACHINE FLAGS",
        note: "",
        rows: &[
            flag("--clusters", "<N | a,b,..>", "4", MACHINE)
                .help("number of clusters, or explicit per-cluster sizes like 8,8,4,2 (asymmetric)")
                .set(|v, s| {
                    parse_clusters(s).map(|c| (v.machine.clusters, v.machine.cluster_sizes) = c)
                }),
            flag("--procs", "<N>", "8", MACHINE)
                .help("processors per cluster (ignored when the cluster sizes are listed)")
                .set(|v, s| count(s).map(|x| v.machine.procs = x)),
            flag("--latency", "<ms>", "10", MACHINE)
                .help("one-way WAN latency")
                .set(|v, s| wan_latency(s).map(|x| v.machine.latency_ms = x)),
            flag("--bandwidth", "<MB/s>", "1", MACHINE)
                .help("WAN bandwidth per link")
                .set(|v, s| wan_bandwidth(s).map(|x| v.machine.bandwidth_mbs = x)),
            flag("--jitter", "<0..1>", "0", MACHINE)
                .help("WAN latency variation, a fraction below 1")
                .set(|v, s| fraction(s).map(|x| v.machine.jitter = x)),
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
                .set(|v, s| WanTopology::parse(s).map(|t| v.topology = Some(t))),
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
                .set(|v, s| {
                    HeteroPreset::parse(s)
                        .ok_or("unknown preset".into())
                        .map(|x| v.machine.hetero = x)
                }),
            flag("--cross-traffic", "<0..0.9>", "0", MACHINE)
                .help("seeded background flows occupying this fraction of each WAN link")
                .set(|v, s| within(s, 0.0, 0.9).map(|x| v.machine.cross_traffic = x)),
            flag("--schedule", "<shape>", "none", MACHINE)
                .help("time-varying WAN quality: none | diurnal | step | drift")
                .set(|v, s| {
                    ScheduleArg::parse(s)
                        .ok_or("unknown shape".into())
                        .map(|x| v.machine.schedule = x)
                }),
            flag("--schedule-period", "<ms>", "500", MACHINE)
                .help("diurnal period / step onset / drift horizon")
                .set(|v, s| above(s, 0.0, false).map(|x| v.machine.schedule_period_ms = x)),
            flag("--degrade-latency", "<1..100>", "2", MACHINE)
                .help("latency multiplier at full degradation")
                .set(|v, s| within(s, 1.0, 100.0).map(|x| v.machine.degrade_latency = x)),
            flag("--degrade-bandwidth", "<0.01..1>", "0.5", MACHINE)
                .help("bandwidth multiplier at full degradation")
                .set(|v, s| within(s, 0.01, 1.0).map(|x| v.machine.degrade_bandwidth = x)),
            flag("--seed", "<N>", "0", MACHINE)
                .help("seed of the cross-traffic and the schedule")
                .set(|v, s| number(s).map(|x| v.machine.seed = x)),
        ],
    },
    Group {
        title: "SWEEP FLAGS",
        note: "",
        rows: &[
            flag("--jobs", "<N>", "", EXPERIMENTS)
                .help("worker threads for the sweep's cells")
                .unset("available cores")
                .set(|v, s| count(s).map(|x| v.jobs = Some(x))),
            flag("--target", "<name>", "all", &["bench"])
                .help("one experiment of the targets listed with bench, or `all` of them")
                .set(|v, s| parse_target(s).map(|x| v.target = x)),
            switch("--quick", EXPERIMENTS)
                .help("coarse grids")
                .set(|v, s| given(s).map(|x| v.quick = x)),
            flag("--out", "<dir>", "", EXPERIMENTS)
                .help("artifact directory")
                .unset("bench_results/")
                .set(|v, s| text(s).map(|x| v.out = Some(x))),
            flag("--compare", "<OLD.json> <NEW.json>", "", &["bench"])
                .help(
                    "diff two BENCH_*.json files instead of running; determinism drift and \
                     wall-clock regressions beyond the threshold are findings",
                )
                .set(|v, s| text(s).map(|x| v.compare.push(x))),
            flag("--threshold", "<F>", "1.5", &["bench"])
                .help("wall-clock regression factor of a comparison")
                .set(|v, s| above(s, 1.0, false).map(|x| v.threshold = x)),
            switch("--virtual-only", &["bench"])
                .help("compare deterministic fields only (baselines from different hardware)")
                .set(|v, s| given(s).map(|x| v.virtual_only = x)),
            flag("--ref-latency", "<ms>", "10", &["predict"])
                .help("WAN latency of the one recorded run")
                .set(|v, s| wan_latency(s).map(|x| v.ref_latency = x)),
            flag("--ref-bandwidth", "<MB/s>", "0.3", &["predict"])
                .help("WAN bandwidth of that run")
                .set(|v, s| wan_bandwidth(s).map(|x| v.ref_bandwidth = x)),
            switch("--validate", &["predict"])
                .help("re-simulate every grid point; report model error")
                .set(|v, s| given(s).map(|x| v.validate = x)),
            flag("--max-error", "<pct>", "10", &["predict"])
                .help("mean relative error bar per app/variant of a validated prediction")
                .set(|v, s| above(s, 0.0, false).map(|x| v.max_error = x)),
        ],
    },
    Group {
        title: "SERVICE AND AUDIT FLAGS",
        note: "",
        rows: &[
            flag("--port", "<P>", "7999", &["serve"])
                .help("TCP port on 127.0.0.1 (0 = ephemeral)")
                .set(|v, s| number(s).map(|x| v.port = x)),
            flag("--workers", "<N>", "", &["serve"])
                .help("connection/compute worker threads")
                .unset("available cores")
                .set(|v, s| count(s).map(|x| v.workers = Some(x))),
            flag("--cache-capacity", "<N>", "32", &["serve"])
                .help("DAG cache entries")
                .set(|v, s| count(s).map(|x| v.cache_capacity = x)),
            flag("--deadline", "<ms>", "30000", &["serve"])
                .help("per-request wall-clock budget")
                .set(|v, s| count(s).map(|x| v.deadline_ms = x)),
            flag("--root", "<dir>", "", &["audit"])
                .help("workspace root to scan")
                .unset(".")
                .set(|v, s| text(s).map(|x| v.root = Some(x))),
            switch("--rules", &["audit"])
                .help("print the rule catalog, with rationale, and exit")
                .set(|v, s| given(s).map(|x| v.rules = x)),
        ],
    },
];

/// A command: its name, the prose of its part of the help, and what runs
/// it.
#[derive(Debug)]
pub struct CmdSpec {
    pub(crate) name: &'static str,
    about: &'static str,
    notes: &'static str,
    /// Runs the command on what its flags set; returns the exit code.
    pub(crate) execute: fn(&Values) -> i32,
}

/// The commands, in help order.
pub(crate) static COMMANDS: &[CmdSpec] = &[
    CmdSpec {
        name: "run",
        about: "run one application on one simulated machine",
        notes: "Prints runtime, traffic, checksum and work units of the one application it \
                requires.",
        execute: run::execute_run,
    },
    CmdSpec {
        name: "suite",
        about: "all six apps in the paper's variants (eleven pairs), verified",
        notes: "Runs at the small scale by definition, so it takes no problem size; use run \
                for one application at another.",
        execute: run::execute_suite,
    },
    CmdSpec {
        name: "check",
        about: "communication sanitizer",
        notes: "Runs each selected app under the communication sanitizer and reports message \
                races, lost messages, deadlock cycles and protocol lints. Defaults to all six \
                apps in the paper's variants (eleven pairs), small scale.",
        execute: check::execute_check,
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
        execute: audit::execute_audit,
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
        execute: bench::execute_bench,
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
        execute: serve::execute_serve,
    },
    CmdSpec {
        name: "predict",
        about: "fig3 sensitivity from one recorded run per app",
        notes: "Records each app's communication DAG once on the fig3 machine (4x8) at the \
                reference point, then re-costs it analytically across the fig3 \
                latency/bandwidth grid; --validate also simulates every grid point, as the \
                fig3 target does. Writes PREDICT_fig3.json, byte-identical for any worker \
                count. Exceeding the error bar or a tolerable-gap disagreement \
                is a finding (exit 1). Like bench, it reads only the wide-area wiring of the \
                machine flags.",
        execute: predict::execute_predict,
    },
    CmdSpec {
        name: "info",
        about: "print the machine and its NUMA gap",
        notes: "Prints the machine the flags describe; nothing is run.",
        execute: machine::execute_info,
    },
];

pub(crate) fn rows() -> impl Iterator<Item = &'static Flag> {
    TABLE.iter().flat_map(|g| g.rows)
}

fn rows_of(cmd: &str) -> impl Iterator<Item = &'static Flag> + '_ {
    rows().filter(move |r| r.cmds.contains(&cmd))
}

/// How many arguments follow the flag: one per `<..>` of its value syntax.
fn arity(row: &Flag) -> usize {
    row.value.matches('<').count()
}

/// Parses a full command line (excluding the binary name).
pub fn parse(args: &[&str]) -> Result<Command, ParseError> {
    let (cmd, rest) = match args.split_first() {
        None | Some((&("help" | "--help" | "-h"), _)) => return Ok(Command::Help),
        Some((&cmd, rest)) => (cmd, rest),
    };
    let Some(spec) = COMMANDS.iter().find(|c| c.name == cmd) else {
        // An experiment's name is not a subcommand of its own.
        let hint = match TARGETS.iter().any(|t| t.name == cmd) {
            true => format!("; experiments run as `numagap bench --target {cmd}`"),
            false => String::new(),
        };
        return Err(ParseError(format!("unknown command '{cmd}'{hint}")));
    };
    let mut values = Values::default();
    let mut args = rest.iter().copied();
    let mut seen: Vec<&str> = Vec::new();
    while let Some(arg) = args.next() {
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
                on => format!("; repeatable only on {}, not '{cmd}'", on.join(", ")),
            };
            return Err(ParseError(format!(
                "flag {arg} is given more than once{several}"
            )));
        }
        seen.push(arg);
        let texts: Vec<&str> = match arity(row) {
            0 => vec![""],
            n => args.by_ref().take(n).collect(),
        };
        if texts.len() < arity(row) {
            return Err(ParseError(format!("flag {arg} needs a value")));
        }
        for text in texts {
            set(&mut values, row, text)?;
        }
    }
    // An absent flag has its default, read through the row's own setter.
    for row in rows().filter(|r| !(r.default.is_empty() || seen.contains(&r.name))) {
        set(&mut values, row, row.default).expect("a row's default passes its own check");
    }
    settle(cmd, &mut values)?;
    Ok(Command::Execute(spec, Box::new(values)))
}

/// One value's text through `row`'s setter.
fn set(values: &mut Values, row: &Flag, text: &str) -> Result<(), ParseError> {
    (row.set)(values, text)
        .map_err(|why| ParseError(format!("invalid value '{text}' for {}: {why}", row.name)))
}

/// What spans flags: the machine takes its wiring; run needs its
/// application; an application is named once, and the variant must select
/// one of the paper's pairs; and the rank count and the wiring must fit.
fn settle(cmd: &str, v: &mut Values) -> Result<(), ParseError> {
    let m = &mut v.machine;
    m.wan_topology = v.topology.unwrap_or_default();
    if cmd == "run" && v.apps.is_empty() {
        return Err(ParseError("run requires --app".into()));
    }
    if let Some(i) = (1..v.apps.len()).find(|&i| v.apps[..i].contains(&v.apps[i])) {
        let app = v.apps[i].to_string().to_ascii_lowercase();
        return Err(ParseError(format!("--app {app} is given more than once")));
    }
    if cmd != "run" && pairs(&v.apps, v.variant).is_empty() {
        let variant = v
            .variant
            .expect("every application has an unoptimized variant");
        return Err(ParseError(format!(
            "--variant {variant} selects nothing: no named application has an {variant} variant"
        )));
    }
    let (ranks, given, flag) = match &m.cluster_sizes {
        Some(sizes) => (
            sizes.iter().fold(0, |sum: usize, &n| sum.saturating_add(n)),
            sizes
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(","),
            "--clusters",
        ),
        None => (
            m.clusters.saturating_mul(m.procs),
            m.procs.to_string(),
            "--procs",
        ),
    };
    if ranks > MAX_RANKS {
        return Err(ParseError(format!(
            "invalid value '{given}' for {flag}: the machine would have {ranks} ranks, \
             and a process runs at most {MAX_RANKS}"
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
        for t in &TARGETS {
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
        "EXIT CODES:\n  0  clean\n  1  findings: unwaived diagnostics, checksum mismatches\n  \
         2  usage or internal error\n",
    );
    out
}
