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
//! dependency) and unit-tested; `main` is a thin wrapper. Every flag is one
//! row of the table in `flags.rs`, which `parse`, `numagap help` and the
//! printed `reproduce:` lines read; each command reads the rows that name
//! it, and any other flag is a usage error. The other modules are one per
//! command, each holding the command's `*Args` and what executes them.
//!
//! Exit codes are uniform across commands: `0` clean, [`EXIT_FINDINGS`]
//! when the command ran and found failures (sanitizer diagnostics,
//! checksum mismatches, failing soak cells), [`EXIT_ERROR`] for usage or
//! internal errors (bad flags, simulator aborts, I/O failures).

#![warn(missing_docs)]

mod audit;
mod bench;
mod check;
mod flags;
mod machine;
mod predict;
mod run;
mod serve;
mod soak;

pub use audit::{execute_audit, AuditArgs};
pub use bench::{execute_bench, BenchArgs};
pub use check::{check_app, waived, CheckArgs};
pub use flags::{parse, section, usage, ParseError};
pub use machine::{MachineArgs, ScheduleArg};
pub use predict::{execute_predict, PredictArgs};
pub use run::RunArgs;
pub use serve::{execute_serve, ServeCmdArgs};
pub use soak::{execute_soak, SoakArgs};

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

/// Executes a parsed command; returns the process exit code.
pub fn execute(cmd: Command) -> i32 {
    match cmd {
        Command::Help => {
            println!("{}", usage());
            0
        }
        Command::Run(args) => run::execute_run(args),
        Command::Suite(machine) => run::execute_suite(&machine),
        Command::AwariDb { stones, machine } => run::execute_awari_db(stones, &machine),
        Command::Check(args) => check::execute_check(&args),
        Command::Audit(args) => execute_audit(&args),
        Command::Soak(args) => execute_soak(&args),
        Command::Bench(args) => execute_bench(&args),
        Command::Predict(args) => execute_predict(&args),
        Command::Serve(args) => execute_serve(&args),
        Command::Info(machine) => machine::execute_info(&machine),
    }
}

#[cfg(test)]
mod tests {
    use numagap_analysis::DiagnosticKind;
    use numagap_apps::{AppId, Scale, Variant};
    use numagap_bench::targets::TARGETS;
    use numagap_net::{HeteroPreset, WanTopology};

    use super::*;
    use crate::bench::{selected, targets};
    use crate::flags::{parse_app, rows, Flag, COMMANDS};

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
        let listed: Vec<&str> = usage
            .lines()
            .skip_while(|l| !l.starts_with("  targets, in the order"))
            .skip(1)
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
        // The thread count has one spelling.
        assert!(parse(&["serve", "--jobs", "3"]).is_err());
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
        assert!(
            parse(&["run", "--app", "fft", "--drop", "0.6", "--duplicate", "0.6"]).is_err(),
            "probabilities must sum within 1"
        );
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
        // The reference point has its own flags; the machine's are not read.
        let err = parse(&["predict", "--latency", "5"]).unwrap_err();
        assert!(err.0.contains("not read by 'predict'"), "{err}");
        assert!(parse(&["predict", "--clusters", "8"]).is_err());
        assert!(parse(&["predict", "--drop", "0.1"]).is_err());
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
        // Only soak sweeps a hostile dimension; elsewhere a list is an error,
        // not its last element.
        for (flag, list) in [
            ("--cross-traffic", "0,0.4"),
            ("--schedule", "none,step"),
            ("--hetero", "uniform,slow-home"),
        ] {
            let err = parse(&["run", "--app", "fft", flag, list]).unwrap_err();
            assert!(err.0.contains("a comma list only on soak"), "{err}");
            assert!(parse(&["check", flag, list]).is_err());
        }
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
            "--seed" => &["7"],
            "--jobs" | "--workers" => &["2"],
            "--out" | "--root" | "--trace" => &["some/path"],
            "--topology" => &["ring"],
            "--outage" => &["1:5:10"],
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
            "--clusters" => &["0", "8,0,4", "8,x"],
            "--procs" | "--jobs" | "--workers" | "--cache-capacity" | "--deadline" => &["0", "x"],
            "--latency" | "--ref-latency" => &["-1", "abc", "inf"],
            "--bandwidth" | "--ref-bandwidth" | "--schedule-period" | "--max-error" => {
                &["0", "-2", "nan"]
            }
            "--jitter" => &["1", "1.5", "-0.1"],
            "--topology" => &["moebius", "torus:2x", "ring:3"],
            "--hetero" => &["bogus"],
            "--cross-traffic" => &["0.95", "-0.1", "nan"],
            "--schedule" => &["lunar"],
            "--degrade-latency" => &["0.5", "101"],
            "--degrade-bandwidth" => &["0", "1.5"],
            "--drop" | "--duplicate" | "--reorder" => &["1.5", "-0.1"],
            "--outage" => &["1:20:10", "nope", "1:2"],
            "--intensities" => &["0.7", "0.05,nan"],
            "--stones" | "--seed" | "--seeds" | "--timeout" => &["x", "-1"],
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
                    let all: Vec<&str> =
                        std::iter::once(lines[i]).chain(wrapped.copied()).collect();
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
                let plain = parse(&argv);
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
                    assert_eq!(parsed, plain, "{argv:?} is not the default");
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
                        err.contains(&format!(
                            "'{}' for {}",
                            bad.rsplit(',').next().unwrap(),
                            row.name
                        )) || err.contains(&format!("'{bad}' for {}", row.name)),
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

    #[test]
    fn to_flags_spells_the_machine_it_was_given() {
        let machine_of = |argv: &[String]| {
            let mut full = vec!["run", "--app", "asp"];
            full.extend(argv.iter().map(String::as_str));
            match parse(&full).unwrap_or_else(|e| panic!("{full:?}: {e}")) {
                Command::Run(args) => args.machine,
                other => panic!("expected run, got {other:?}"),
            }
        };
        assert_eq!(MachineArgs::default().to_flags(), Vec::<String>::new());
        let shapes = [
            ScheduleArg::None,
            ScheduleArg::Diurnal,
            ScheduleArg::Step,
            ScheduleArg::Drift,
        ];
        let wirings = [
            WanTopology::FullMesh,
            WanTopology::Star { hub: 3 },
            WanTopology::Ring,
            WanTopology::Line,
            WanTopology::Torus2d { x: 2, y: 2 },
            WanTopology::FatTree { pod: 2 },
            WanTopology::Dragonfly { groups: 2 },
        ];
        // A seeded walk over the fields the presets do not enumerate.
        let mut state = 0x5EEDu64;
        let mut next = |modulus: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % modulus
        };
        for hetero in HeteroPreset::ALL {
            for schedule in shapes {
                for wan_topology in wirings {
                    let explicit = next(2) == 0;
                    let m = MachineArgs {
                        clusters: 4,
                        procs: 1 + next(8) as usize,
                        cluster_sizes: explicit.then(|| vec![8, 1 + next(8) as usize, 4, 2]),
                        hetero,
                        cross_traffic: next(10) as f64 / 10.0,
                        schedule,
                        schedule_period_ms: 0.5 + next(1000) as f64 / 3.0,
                        degrade_latency: 1.0 + next(99) as f64 / 7.0,
                        degrade_bandwidth: 0.01 + next(99) as f64 / 100.0,
                        latency_ms: next(300) as f64 / 9.0,
                        bandwidth_mbs: 0.03 + next(100) as f64 / 13.0,
                        jitter: next(99) as f64 / 100.0,
                        seed: (next(3) > 0).then(|| next(u64::MAX)),
                        drop: next(30) as f64 / 100.0,
                        duplicate: next(30) as f64 / 100.0,
                        reorder: next(30) as f64 / 100.0,
                        outages: (0..next(3))
                            .map(|k| {
                                (
                                    k as usize,
                                    next(50) as f64 / 4.0,
                                    20.0 + next(50) as f64 / 3.0,
                                )
                            })
                            .collect(),
                        wan_topology,
                    };
                    assert_eq!(machine_of(&m.to_flags()), m, "{:?}", m.to_flags());
                }
            }
        }
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
        for (cmd, line, args) in &found {
            let mut argv = vec![*cmd];
            argv.extend(args.iter().map(String::as_str));
            assert!(
                parse(&argv).is_ok(),
                "ci.yml:{line}: {argv:?}: {:?}",
                parse(&argv)
            );
        }
        assert!(
            found.len() >= 15,
            "the scan found only {} command lines",
            found.len()
        );
        // One of them in full: what CI runs is what the flags say.
        let soak = found
            .iter()
            .find(|(cmd, _, args)| *cmd == "soak" && args.iter().any(|a| a == "--hetero"))
            .expect("the hostile-network soak");
        let mut argv = vec!["soak"];
        argv.extend(soak.2.iter().map(String::as_str));
        match parse(&argv).unwrap() {
            Command::Soak(args) => {
                assert_eq!(args.apps, vec![AppId::Asp]);
                assert_eq!(args.machine.cluster_sizes, Some(vec![2, 1]));
                assert_eq!(args.cross_traffic, vec![0.0, 0.4]);
                assert_eq!(args.schedules, vec![ScheduleArg::None, ScheduleArg::Step]);
                assert_eq!(
                    args.hetero,
                    vec![HeteroPreset::Uniform, HeteroPreset::SlowHome]
                );
                assert_eq!((args.seeds, args.machine.seed), (1, Some(7)));
                assert!(args.repro && args.timeout_s == 3600);
            }
            other => panic!("expected soak, got {other:?}"),
        }
    }
}
