use numagap_analysis::DiagnosticKind;
use numagap_apps::{AppId, Scale, Variant};
use numagap_bench::targets::TARGETS;
use numagap_net::{HeteroPreset, WanTopology};

use super::*;
use crate::bench::selected;
use crate::flags::{parse_app, rows, Flag, COMMANDS};

/// What `argv` sets, as the command it names reads it.
fn values(argv: &[&str]) -> Values {
    match parse(argv).unwrap_or_else(|e| panic!("{argv:?}: {e}")) {
        Command::Execute(spec, v) => {
            assert_eq!(spec.name, argv[0]);
            *v
        }
        Command::Help => panic!("{argv:?} parsed as help"),
    }
}

#[test]
fn parses_run() {
    let v = values(&[
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
    ]);
    assert_eq!(v.apps, [AppId::Asp]);
    assert_eq!(v.variant, Some(Variant::Unoptimized));
    assert_eq!(v.scale, Some(Scale::Small));
    assert_eq!(v.machine.clusters, 2);
    assert_eq!(v.machine.procs, 4);
    assert!((v.machine.latency_ms - 3.3).abs() < 1e-12);
    assert!((v.machine.bandwidth_mbs - 0.5).abs() < 1e-12);
    assert!(v.verify);
    assert!(v.trace.is_none());
}

#[test]
fn defaults_are_sensible() {
    // run reads an absent variant as opt and an absent scale as medium.
    let v = values(&["run", "--app", "water"]);
    assert_eq!(v.variant, None);
    assert_eq!(v.scale, None);
    assert_eq!(v.machine, MachineArgs::default());
}

#[test]
fn rejects_bad_input() {
    // What no single row decides; each row's own syntax and range check is
    // driven by `every_row_of_the_flag_table_holds_in_parse_and_usage`.
    assert!(parse(&["run"]).is_err(), "run needs --app");
    assert!(parse(&["run", "--app", "asp", "--latency"]).is_err());
    assert!(parse(&["frobnicate"]).is_err());
    assert!(parse(&["run", "--app", "asp", "--wat", "1"]).is_err());
    let twice = parse(&["run", "--app", "asp", "--latency", "3", "--latency", "5"]);
    assert!(twice
        .unwrap_err()
        .0
        .contains("--latency is given more than once"));
}

#[test]
fn parses_check_perturb() {
    let v = values(&["check", "--app", "tsp", "--perturb"]);
    assert_eq!(v.apps, [AppId::Tsp]);
    assert!(v.perturb);
    assert_eq!(v.scale, None, "small, resolved at run time");
    assert!(!values(&["check"]).perturb);
}

#[test]
fn parses_audit() {
    let v = values(&["audit"]);
    assert_eq!(v.root, None);
    assert!(!v.rules);
    let v = values(&["audit", "--root", "/srv/repo", "--rules"]);
    assert_eq!(v.root.as_deref(), Some("/srv/repo"));
    assert!(v.rules);
    assert!(parse(&["audit", "--root"]).is_err(), "--root needs a value");
}

#[test]
fn parses_bench() {
    let v = values(&["bench"]);
    assert_eq!(v.target, "all");
    assert_eq!(v.jobs, None, "worker count resolved at run time");
    assert_eq!(v.scale, None, "medium, resolved at run time");
    assert!(!v.quick);
    assert!(v.compare.is_empty());
    assert!((v.threshold - 1.5).abs() < 1e-12);
    assert!(!v.virtual_only);
    let v = values(&[
        "bench", "--target", "fig3", "--jobs", "4", "--scale", "small", "--quick", "--out",
        "/tmp/x",
    ]);
    assert_eq!(v.target, "fig3");
    assert_eq!(v.jobs, Some(4));
    assert_eq!(v.scale, Some(Scale::Small));
    assert!(v.quick);
    assert_eq!(v.out.as_deref(), Some("/tmp/x"));
    let v = values(&[
        "bench",
        "--compare",
        "old.json",
        "new.json",
        "--threshold",
        "2.0",
        "--virtual-only",
    ]);
    assert_eq!(v.compare, ["old.json", "new.json"]);
    assert!((v.threshold - 2.0).abs() < 1e-12);
    assert!(v.virtual_only);
    assert!(parse(&["bench", "--target", "fig9"]).is_err());
    assert!(parse(&["bench", "--jobs", "0"]).is_err());
    assert!(parse(&["bench", "--threshold", "1.0"]).is_err());
    assert!(parse(&["bench", "--threshold", "nan"]).is_err());
    assert!(parse(&["bench", "--compare", "only-one.json"]).is_err());
}

#[test]
fn the_target_table_is_the_only_list_of_experiments() {
    let names: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate target name");
    // Every name parses as a target and selects its own row; `all`
    // selects the whole table in order; nothing else parses.
    for name in &names {
        assert_eq!(values(&["bench", "--target", name]).target, *name);
        assert_eq!(selected(name).map(|t| t.name).collect::<Vec<_>>(), [*name]);
    }
    assert_eq!(selected("all").map(|t| t.name).collect::<Vec<_>>(), names);
    let err = parse(&["bench", "--target", "fig9"]).unwrap_err();
    assert!(err.0.contains(&names.join(", ")), "{err:?}");
    // The usage text lists exactly the table, in order, each row with
    // its description, and no experiment as a subcommand.
    let usage = usage();
    let listed: Vec<&str> = usage
        .lines()
        .skip_while(|l| !l.starts_with("  targets, in the order"))
        .skip(1)
        .take_while(|l| l.starts_with("    ") && !l.starts_with("     "))
        .map(|l| l.split_whitespace().next().expect("a target row"))
        .collect();
    assert_eq!(listed, names);
    for t in &TARGETS {
        assert!(
            usage.contains(t.about),
            "{} row lost its description",
            t.name
        );
        assert!(!usage.contains(&format!("numagap {} ", t.name)));
    }
    // One committed baseline per target, and none for anything else.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../bench/baselines");
    let targets_of = |dir: &std::path::Path| -> Vec<String> {
        let mut targets: Vec<String> = std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.is_file())
            .map(|path| {
                let file = path.file_name().unwrap().to_str().unwrap();
                let target = file
                    .strip_prefix("BENCH_")
                    .and_then(|t| t.strip_suffix(".json"));
                target
                    .unwrap_or_else(|| panic!("{} is not BENCH_<target>.json", path.display()))
                    .to_string()
            })
            .collect();
        targets.sort_unstable();
        targets
    };
    assert_eq!(targets_of(&dir), unique, "baselines vs the target table");
    // Full-grid baselines at medium and at paper scale: each one of a
    // target in the table, and every file named for one.
    for scale in ["medium", "paper"] {
        let full = targets_of(&dir.join(scale));
        assert!(!full.is_empty(), "no {scale} baseline");
        for target in &full {
            assert!(
                names.contains(&target.as_str()),
                "{scale} baseline of unknown target {target}"
            );
        }
    }
}

#[test]
fn parses_serve() {
    let v = values(&["serve"]);
    assert_eq!(v.port, 7999);
    assert_eq!(v.workers, None, "worker count resolved at run time");
    assert_eq!(v.cache_capacity, numagap_serve::DEFAULT_CACHE_CAPACITY);
    assert_eq!(v.deadline_ms, 30_000);
    let v = values(&[
        "serve",
        "--port",
        "0",
        "--workers",
        "8",
        "--cache-capacity",
        "4",
        "--deadline",
        "5000",
    ]);
    assert_eq!(v.port, 0);
    assert_eq!(v.workers, Some(8));
    assert_eq!(v.cache_capacity, 4);
    assert_eq!(v.deadline_ms, 5000);
    // The thread count has one spelling.
    assert!(parse(&["serve", "--jobs", "3"]).is_err());
    assert!(parse(&["serve", "--workers", "0"]).is_err());
    assert!(parse(&["serve", "--cache-capacity", "0"]).is_err());
    assert!(parse(&["serve", "--deadline", "0"]).is_err());
    assert!(parse(&["serve", "--port", "notaport"]).is_err());
}

#[test]
fn help_variants() {
    for argv in [&[][..], &["help"], &["--help"]] {
        assert!(matches!(parse(argv), Ok(Command::Help)), "{argv:?}");
    }
}

#[test]
fn info_and_suite_parse_machine_flags() {
    let m = values(&["info", "--clusters", "8", "--procs", "2", "--jitter", "0.3"]).machine;
    assert_eq!(m.clusters, 8);
    assert_eq!(m.procs, 2);
    assert!((m.jitter - 0.3).abs() < 1e-12);
    assert_eq!(values(&["suite"]).machine, MachineArgs::default());
}

#[test]
fn app_name_aliases() {
    assert_eq!(parse_app("Barnes-Hut").unwrap(), AppId::Barnes);
    assert_eq!(parse_app("FFT").unwrap(), AppId::Fft);
}

#[test]
fn parses_check_with_defaults() {
    let v = values(&["check"]);
    assert!(v.apps.is_empty(), "all apps by default");
    assert_eq!(v.variant, None, "the paper's variants by default");
    assert_eq!(v.scale, None, "small, resolved at run time");
    let v = values(&[
        "check",
        "--app",
        "tsp",
        "--variant",
        "opt",
        "--clusters",
        "2",
    ]);
    assert_eq!(v.apps, [AppId::Tsp]);
    assert_eq!(v.variant, Some(Variant::Optimized));
    assert_eq!(v.machine.clusters, 2);
    let err = parse(&["check", "--app", "fft", "--variant", "opt"]).unwrap_err();
    assert!(
        err.0.starts_with("--variant optimized selects nothing"),
        "{err}"
    );
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

/// `cmd` rejects an application named twice, and a variant that selects
/// none of the paper's pairs.
fn assert_selection_is_checked(cmd: &str) {
    let err = parse(&[cmd, "--app", "water", "--app", "fft", "--app", "water"]).unwrap_err();
    assert_eq!(err.0, "--app water is given more than once");
    let err = parse(&[cmd, "--app", "fft", "--variant", "opt"]).unwrap_err();
    assert!(
        err.0.starts_with("--variant optimized selects nothing"),
        "{err}"
    );
    assert!(parse(&[cmd, "--app", "fft", "--variant", "unopt"]).is_ok());
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
fn run_trace_writes_valid_chrome_json_and_the_same_bytes_twice() {
    let dir = std::env::temp_dir().join(format!("numagap-trace-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let traced = |name: &str| {
        let path = dir.join(name);
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
            "--trace",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(execute(cmd), 0);
        std::fs::read_to_string(&path).unwrap()
    };
    let first = traced("first.json");
    let second = traced("second.json");
    std::fs::remove_dir_all(&dir).unwrap();
    match numagap_bench::json::parse(&first) {
        Ok(numagap_bench::json::Json::Arr(events)) => assert!(events.len() > 1),
        other => panic!("the trace is not a JSON array of events: {other:?}"),
    }
    assert!(first == second, "a second run wrote different bytes");
}

#[test]
fn parses_predict() {
    let v = values(&["predict"]);
    assert!(v.apps.is_empty(), "all apps by default");
    assert_eq!(v.variant, None, "the paper's variants by default");
    assert_eq!(v.scale, None, "medium, resolved at run time");
    assert!(!v.quick);
    assert_eq!(v.jobs, None, "worker count resolved at run time");
    assert_eq!(v.out, None);
    assert!((v.ref_latency - 10.0).abs() < 1e-12);
    assert!((v.ref_bandwidth - 0.3).abs() < 1e-12);
    assert!(!v.validate);
    assert!((v.max_error - 10.0).abs() < 1e-12);
    let v = values(&[
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
    ]);
    assert_eq!(v.apps, vec![AppId::Water, AppId::Tsp]);
    assert_eq!(v.variant, Some(Variant::Unoptimized));
    assert!(v.quick);
    assert!(v.validate);
    assert!((v.ref_latency - 0.5).abs() < 1e-12);
    assert!((v.ref_bandwidth - 6.3).abs() < 1e-12);
    assert!((v.max_error - 5.0).abs() < 1e-12);
    assert_eq!(v.jobs, Some(2));
    assert_eq!(v.out.as_deref(), Some("/tmp/p"));
    assert_selection_is_checked("predict");
}

#[test]
fn rejects_bad_predict_flags() {
    // The reference point has its own flags; the machine's are not read.
    let err = parse(&["predict", "--latency", "5"]).unwrap_err();
    assert!(err.0.contains("not read by 'predict'"), "{err}");
    assert!(parse(&["predict", "--clusters", "8"]).is_err());
    assert!(parse(&["predict", "--seed", "1"]).is_err());
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
    // The validated simulations live in the predict artifact alone.
    let written: Vec<_> = std::fs::read_dir(&out)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(written, ["PREDICT_fig3.json"]);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn parses_cluster_size_lists() {
    let m = values(&["info", "--clusters", "8,8,4,2"]).machine;
    assert_eq!(m.clusters, 4);
    assert_eq!(m.cluster_sizes, Some(vec![8, 8, 4, 2]));
    assert_eq!(m.topology().label(), "8+8+4+2");
    let m = values(&["info", "--clusters", "3"]).machine;
    assert_eq!(m.clusters, 3);
    assert_eq!(m.cluster_sizes, None);
    assert!(parse(&["info", "--clusters", "8,0,4"]).is_err());
    assert!(parse(&["info", "--clusters", "0"]).is_err());
    assert!(parse(&["info", "--clusters", "8,x"]).is_err());
}

#[test]
fn parses_hostile_network_flags() {
    let m = values(&[
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
    .machine;
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
    // Defaults leave the spec free of hostile plans — the classic
    // machine, bit-identical to the pre-hostile CLI.
    let spec = values(&["run", "--app", "fft"]).machine.spec();
    assert_eq!(spec.cross_traffic, None);
    assert_eq!(spec.link_schedule, None);
    assert!(!spec.topology.is_heterogeneous());
}

#[test]
fn rejects_bad_hostile_flags() {
    // A hostile flag takes one value: a list is an error, not its last
    // element.
    for (flag, list) in [
        ("--cross-traffic", "0,0.4"),
        ("--schedule", "none,step"),
        ("--hetero", "uniform,slow-home"),
    ] {
        let err = parse(&["run", "--app", "fft", flag, list]).unwrap_err();
        assert!(err.0.contains(&format!("'{list}' for {flag}")), "{err}");
        assert!(parse(&["check", flag, list]).is_err());
    }
}

#[test]
fn parses_topology_on_run_and_threads_it_into_the_spec() {
    let m = values(&["run", "--app", "asp", "--topology", "ring"]).machine;
    assert_eq!(m.wan_topology, WanTopology::Ring);
    assert_eq!(m.spec().wan_topology, WanTopology::Ring);
    // The shape must fit the machine: a 2x2 torus needs 4 clusters.
    let m = values(&[
        "run",
        "--app",
        "asp",
        "--clusters",
        "4",
        "--topology",
        "torus:2x2",
    ])
    .machine;
    assert_eq!(m.wan_topology, WanTopology::Torus2d { x: 2, y: 2 });
}

#[test]
fn topology_parses_on_every_subcommand() {
    for argv in [
        vec!["suite", "--topology", "star:1"],
        vec!["check", "--topology", "line"],
        vec!["info", "--topology", "fattree:2"],
    ] {
        assert!(parse(&argv).is_ok(), "{argv:?}");
    }
    let v = values(&["bench", "--target", "topo", "--topology", "dragonfly:2"]);
    assert_eq!(v.topology, Some(WanTopology::Dragonfly { groups: 2 }));
    let v = values(&["predict", "--topology", "torus:2x2"]);
    assert_eq!(v.topology, Some(WanTopology::Torus2d { x: 2, y: 2 }));
    // Without the flag, bench-family commands see None so their
    // artifacts stay bit-identical to the committed baselines.
    assert_eq!(values(&["bench", "--target", "fig3"]).topology, None);
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
        vec!["check", "--clusters", "2,2,2", "--topology", "torus:2x2"],
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

/// The command line of `cmd` with what it requires and nothing else.
fn bare(cmd: &str) -> Vec<&str> {
    match cmd {
        "run" => vec!["run", "--app", "asp"],
        _ => vec![cmd],
    }
}

/// A value the row accepts, for the rows without a default to take one from.
fn sample(row: &Flag) -> Option<&'static [&'static str]> {
    Some(match row.name {
        "--app" => &["fft"],
        "--variant" => &["unopt"],
        "--scale" => &["paper"],
        "--jobs" | "--workers" => &["2"],
        "--out" | "--root" | "--trace" => &["some/path"],
        "--topology" => &["ring"],
        "--compare" => &["old.json", "new.json"],
        _ => return None,
    })
}

/// Values outside the row's syntax or range.
fn bad_values(row: &Flag) -> &'static [&'static str] {
    match row.name {
        "--app" => &["chess"],
        "--variant" => &["fast"],
        "--scale" => &["huge"],
        "--clusters" => &["0", "8,0,4", "8,x", "20000,20000"],
        "--procs" => &["0", "x", "100000"],
        "--jobs" | "--workers" | "--cache-capacity" | "--deadline" => &["0", "x"],
        // Past `LinkParams`' WAN limits, where virtual time overflows.
        "--latency" | "--ref-latency" => &["-1", "abc", "inf", "100000.5", "1e300"],
        "--bandwidth" | "--ref-bandwidth" => &["0", "-2", "nan", "0.0009", "1e-12"],
        "--schedule-period" | "--max-error" => &["0", "-2", "nan"],
        "--jitter" => &["1", "1.5", "-0.1"],
        "--topology" => &["moebius", "torus:2x", "ring:3"],
        "--hetero" => &["bogus"],
        "--cross-traffic" => &["0.95", "-0.1", "nan"],
        "--schedule" => &["lunar"],
        "--degrade-latency" => &["0.5", "101"],
        "--degrade-bandwidth" => &["0", "1.5"],
        "--seed" => &["x", "-1"],
        "--target" => &["fig9"],
        "--threshold" => &["1.0", "nan"],
        "--port" => &["notaport", "70000"],
        // Any string is a path.
        "--trace" | "--out" | "--root" | "--compare" => &[],
        other => panic!("{other}: name a value its range check rejects"),
    }
}

#[test]
fn every_row_of_the_flag_table_holds_in_parse_and_usage() {
    let usage = usage();
    let mut names: Vec<&str> = rows().map(|r| r.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), rows().count(), "a flag has two rows");
    // The entry of `row` in `text`: its line and the lines wrapped under it.
    let entries = |text: &str, row: &Flag| -> Vec<String> {
        let lines: Vec<&str> = text.lines().collect();
        let head = format!("  {} {}", row.name, row.value);
        let starts = |l: &str| l == head.trim_end() || l.starts_with(&format!("{head} "));
        (0..lines.len())
            .filter(|&i| starts(lines[i]))
            .map(|i| {
                let wrapped = lines[i + 1..].iter().take_while(|l| l.starts_with("     "));
                let all: Vec<&str> = std::iter::once(lines[i]).chain(wrapped.copied()).collect();
                all.join(" ")
                    .split_whitespace()
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect()
    };
    for row in rows() {
        // Once in the usage text, with its default.
        let found = entries(&usage, row);
        assert_eq!(found.len(), 1, "{} in usage: {found:?}", row.name);
        if !(row.default.is_empty() && row.unset.is_empty()) {
            let default = format!("[default: {}{}]", row.default, row.unset);
            assert!(found[0].ends_with(&default), "{}: {}", row.name, found[0]);
        }
        let value: Vec<&str> = match sample(row) {
            Some(value) => value.to_vec(),
            None if row.value.is_empty() => Vec::new(),
            None => vec![row.default],
        };
        for spec in COMMANDS {
            let mut argv = bare(spec.name);
            if argv.contains(&row.name) {
                continue;
            }
            let plain = values(&argv);
            argv.push(row.name);
            // A flag that takes a value says so when it has none.
            if !row.value.is_empty() && row.cmds.contains(&spec.name) {
                let err = parse(&argv).unwrap_err();
                assert_eq!(err.0, format!("flag {} needs a value", row.name));
            }
            argv.extend(&value);
            let parsed = parse(&argv);
            if !row.cmds.contains(&spec.name) {
                // Outside its set the row is a usage error that says where
                // it is read.
                let err = parsed.unwrap_err().0;
                let said = format!(
                    "flag {} is not read by '{}' (accepted by: {})",
                    row.name,
                    spec.name,
                    row.cmds.join(", ")
                );
                assert_eq!(err, said);
                continue;
            }
            // Inside it, the value is accepted; the default the help
            // states is the value an absent flag has.
            assert!(parsed.is_ok(), "{argv:?}: {parsed:?}");
            if !row.default.is_empty() {
                assert_eq!(values(&argv), plain, "{argv:?} is not the default");
            }
            // Its range check rejects what is outside, naming the flag.
            let bad_values = match row.value {
                "" => &[],
                _ => bad_values(row),
            };
            for bad in bad_values {
                let mut argv = bare(spec.name);
                argv.extend([row.name, bad]);
                let err = parse(&argv).unwrap_err().0;
                assert!(
                    err.contains(&format!("'{bad}' for {}", row.name)),
                    "{argv:?}: {err}"
                );
            }
            // The command's section lists it.
            let section = section(spec.name).expect("a command");
            assert_eq!(
                entries(&section, row).len(),
                1,
                "{} on {}",
                row.name,
                spec.name
            );
        }
    }
    // A command's section has an entry for the rows it reads and no other.
    for spec in COMMANDS {
        let section = section(spec.name).expect("a command");
        let listed = section.lines().filter(|l| l.starts_with("  --")).count();
        let read = rows().filter(|r| r.cmds.contains(&spec.name)).count();
        assert_eq!(listed, read, "{}", spec.name);
    }
    assert_eq!(section("frobnicate"), None);
}

/// The `--flag` tokens of every `numagap <command>` invocation in `text`
/// (a shell script or a fenced block): the command, the line it starts on
/// and the words after it up to the end of the shell command, continuation
/// lines joined.
fn invocations(text: &str) -> Vec<(&'static str, usize, Vec<String>)> {
    let lines: Vec<&str> = text.lines().collect();
    let mut found = Vec::new();
    let mut at = 0;
    while at < lines.len() {
        let start = at;
        let mut joined = String::new();
        loop {
            let line = lines[at].trim_end();
            at += 1;
            match line.strip_suffix('\\') {
                Some(more) if at < lines.len() => joined += more,
                _ => {
                    joined += line;
                    break;
                }
            }
        }
        let words: Vec<&str> = joined.split_whitespace().collect();
        for (i, word) in words.iter().enumerate() {
            let binary = word.ends_with("numagap") && !word.contains('`');
            let cargo = *word == "--" && i > 0 && words[i - 1] == "numagap-cli";
            let Some(spec) = words
                .get(i + 1)
                .and_then(|next| COMMANDS.iter().find(|c| c.name == *next))
                .filter(|_| binary || cargo)
            else {
                continue;
            };
            let args = words[i + 2..]
                .iter()
                .take_while(|w| {
                    !["&&", "|", "||", ";", "&"].contains(w) && !w.starts_with(['#', '>'])
                })
                .map(|w| w.to_string())
                .collect();
            found.push((spec.name, start + 1, args));
        }
    }
    found
}

#[test]
fn every_documented_command_line_uses_flags_its_command_reads() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut seen = 0;
    for doc in [
        "README.md",
        "docs/ARCHITECTURE.md",
        "docs/TOPOLOGIES.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        let text = std::fs::read_to_string(format!("{root}/{doc}")).expect(doc);
        // Only what is inside fenced blocks is a command line to type.
        let fenced: String = text
            .split("```")
            .enumerate()
            .map(|(i, part)| match i % 2 {
                1 => part.to_string(),
                _ => "\n".repeat(part.matches('\n').count()),
            })
            .collect();
        for (cmd, line, args) in invocations(&fenced) {
            for word in &args {
                let word = word.trim_start_matches('[');
                if !word.starts_with("--") {
                    continue;
                }
                let name: String = word
                    .chars()
                    .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                    .collect();
                let row = rows().find(|r| r.name == name);
                assert!(
                    row.is_some_and(|r| r.cmds.contains(&cmd)),
                    "{doc}:{line}: {name} is not a flag `numagap {cmd}` reads"
                );
                seen += 1;
            }
        }
    }
    assert!(
        seen > 100,
        "the scan found only {seen} flags; did the docs move?"
    );
}

#[test]
fn every_ci_command_line_parses() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../.github/workflows/ci.yml"
    );
    let ci = std::fs::read_to_string(path).expect("ci.yml");
    let found = invocations(&ci);
    let lines: Vec<&str> = ci.lines().collect();
    // The medium step loops over the committed medium baselines and takes
    // each one's target from its name, BENCH_<target>.json: its
    // `"$target"` stands for each of those targets in turn.
    let medium = concat!(env!("CARGO_MANIFEST_DIR"), "/../bench/baselines/medium");
    let targets: Vec<String> = std::fs::read_dir(medium)
        .expect("the medium baselines")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            Some(
                name.strip_prefix("BENCH_")?
                    .strip_suffix(".json")?
                    .to_string(),
            )
        })
        .collect();
    assert!(targets.len() >= 2, "medium baselines: {targets:?}");
    let var = "\"$target\"";
    for (cmd, line, args) in &found {
        // Once per target the loop takes; once as it stands without a loop.
        let values: Vec<&str> = if args.iter().any(|a| a == var) {
            targets.iter().map(String::as_str).collect()
        } else {
            vec![var]
        };
        for value in values {
            let mut argv = vec![*cmd];
            argv.extend(
                args.iter()
                    .map(|a| if a == var { value } else { a.as_str() }),
            );
            // A line that keeps its exit status checks for a usage error.
            let refused = lines[line - 1].contains("|| status=$?");
            assert_eq!(
                parse(&argv).is_err(),
                refused,
                "ci.yml:{line}: {argv:?}: {:?}",
                parse(&argv)
            );
        }
    }
    assert!(
        found.len() >= 15,
        "the scan found only {} command lines",
        found.len()
    );
    // One of them in full: what CI runs is what the flags say.
    let hostile = found
        .iter()
        .find(|(cmd, _, args)| *cmd == "check" && args.iter().any(|a| a == "--hetero"))
        .expect("the hostile-network perturbation check");
    let mut argv = vec!["check"];
    argv.extend(hostile.2.iter().map(String::as_str));
    let v = values(&argv);
    assert_eq!(v.apps, vec![AppId::Asp]);
    assert_eq!(v.variant, Some(Variant::Optimized));
    assert!(v.perturb);
    assert_eq!(v.machine.hetero, HeteroPreset::SlowHome);
    assert!((v.machine.cross_traffic - 0.5).abs() < 1e-12);
    assert_eq!(v.machine.schedule, ScheduleArg::Diurnal);
}
