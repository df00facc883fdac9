//! `numagap bench --target T` is the only way to run an experiment. The
//! spellings that used to sit beside it — alias subcommands, the scheduler
//! flag, the `REPRO_*` environment knobs — are driven here through the real
//! binary: the first two are usage errors (exit 2), the last is ignored.
//! So is the other thing a command line used to get away with: a flag the
//! command never reads.

use std::process::{Command, Output};

use numagap_bench::record::BenchSummary;

fn numagap(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_numagap"));
    cmd.args(args);
    cmd
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn experiment_names_are_not_subcommands() {
    // The two alias commands that existed, and one that never did.
    for name in ["hostile", "selfperf", "fig3"] {
        let out = numagap(&[name, "--quick"]).output().expect("spawn numagap");
        assert_eq!(out.status.code(), Some(2), "{name}");
        let err = stderr_of(&out);
        assert!(
            err.contains(&format!("unknown command '{name}'"))
                && err.contains(&format!("numagap bench --target {name}")),
            "{name}: {err}"
        );
    }
    let help = numagap(&["help"]).output().expect("spawn numagap");
    let usage = String::from_utf8_lossy(&help.stdout).into_owned();
    assert!(!usage.contains("numagap hostile") && !usage.contains("numagap selfperf"));
}

#[test]
fn the_scheduler_flag_is_unknown_on_every_command() {
    for argv in [
        &["run", "--app", "fft", "--sim-workers", "legacy"][..],
        &["check", "--sim-workers", "fibers"],
        &["bench", "--target", "scale", "--sim-workers", "legacy"],
        &["serve", "--sim-workers", "fibers"],
    ] {
        let out = numagap(argv).output().expect("spawn numagap");
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let err = stderr_of(&out);
        assert!(
            err.contains("unknown flag '--sim-workers'"),
            "{argv:?}: {err}"
        );
    }
}

#[test]
fn a_flag_the_command_does_not_read_is_a_usage_error() {
    const MACHINE: &str = "run, awari-db, suite, check, soak, info";
    const FAULTS: &str = "run, awari-db, suite, check, info";
    // Each of these exited 0 once, with the flag silently dropped.
    for (argv, message) in [
        // suite runs small by definition.
        (
            &["suite", "--scale", "paper"][..],
            "flag --scale is not read by 'suite' (accepted by: run, check, soak, bench, predict)",
        ),
        // bench and predict run the paper's fixed machines, fault-free;
        // the wiring is the one machine flag they read.
        (
            &[
                "bench",
                "--target",
                "fig3",
                "--clusters",
                "8",
                "--latency",
                "3",
            ],
            &format!("flag --clusters is not read by 'bench' (accepted by: {MACHINE})"),
        ),
        (
            &["predict", "--latency", "5"],
            &format!("flag --latency is not read by 'predict' (accepted by: {MACHINE})"),
        ),
        (
            &["bench", "--drop", "0.1"],
            &format!("flag --drop is not read by 'bench' (accepted by: {FAULTS})"),
        ),
        (
            &["info", "--quick", "--seeds", "9", "--target", "fig3"],
            "flag --quick is not read by 'info' (accepted by: bench, predict)",
        ),
        (
            &["audit", "--latency", "3"],
            &format!("flag --latency is not read by 'audit' (accepted by: {MACHINE})"),
        ),
        // soak's fault plan is its own: --intensities and the planted outage.
        (
            &["soak", "--outage", "1:5:10"],
            &format!("flag --outage is not read by 'soak' (accepted by: {FAULTS})"),
        ),
        (
            &["soak", "--drop", "0.2"],
            &format!("flag --drop is not read by 'soak' (accepted by: {FAULTS})"),
        ),
        (
            &["soak", "--reorder", "0.2", "--duplicate", "0.1"],
            &format!("flag --reorder is not read by 'soak' (accepted by: {FAULTS})"),
        ),
        // Only soak sweeps a hostile dimension; only soak and predict take
        // several applications.
        (
            &["run", "--app", "asp", "--cross-traffic", "0,0.4"],
            "flag --cross-traffic takes a comma list only on soak, not on 'run'",
        ),
        (
            &["check", "--schedule", "none,step"],
            "flag --schedule takes a comma list only on soak, not on 'check'",
        ),
        (
            &["info", "--hetero", "uniform,tiered"],
            "flag --hetero takes a comma list only on soak, not on 'info'",
        ),
        (
            &["run", "--app", "asp", "--app", "fft"],
            "flag --app is given more than once; only soak, predict take several, not 'run'",
        ),
        // serve's thread count has one spelling.
        (
            &["serve", "--jobs", "3"],
            "flag --jobs is not read by 'serve' (accepted by: soak, bench, predict)",
        ),
    ] {
        let out = numagap(argv).output().expect("spawn numagap");
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let err = stderr_of(&out);
        assert!(
            err.starts_with(&format!("error: {message}\n")),
            "{argv:?}: {err}"
        );
        // Under the error: the section of the command that was named, with
        // the flags it does read, and no other command's.
        let others = err.matches("\nnumagap ").count();
        assert!(
            err.contains(&format!("\nnumagap {} — ", argv[0])) && others == 1,
            "{argv:?}: {err}"
        );
    }
    // The lists are read where the table says so.
    for argv in [
        &[
            "soak",
            "--cross-traffic",
            "0,0.4",
            "--schedule",
            "none,step",
            "--rules",
        ][..],
        &["predict", "--app", "asp", "--app", "fft", "--rules"],
    ] {
        let err = stderr_of(&numagap(argv).output().expect("spawn numagap"));
        assert!(
            err.starts_with("error: flag --rules is not read by"),
            "{argv:?}: {err}"
        );
    }
}

#[test]
fn repro_variables_do_not_change_what_bench_runs() {
    let base = std::env::temp_dir().join(format!("numagap_one_way_in_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create scratch dir");
    let (out, decoy) = (base.join("bench_results"), base.join("decoy"));
    let status = numagap(&["bench", "--target", "fig1"])
        .current_dir(&base)
        .env("REPRO_SCALE", "small")
        .env("REPRO_QUICK", "1")
        .env("REPRO_JOBS", "4097")
        .env("REPRO_OUT", &decoy)
        .output()
        .expect("spawn numagap")
        .status;
    assert_eq!(status.code(), Some(0));
    let summary = BenchSummary::load(&out.join("BENCH_fig1.json")).expect("summary written");
    assert_eq!(summary.scale, "medium", "unset --scale means medium");
    assert!(!summary.quick, "unset --quick means the full grid");
    assert_ne!(summary.jobs, 4097, "unset --jobs means the host's cores");
    assert!(!decoy.exists(), "unset --out means ./bench_results");
    let _ = std::fs::remove_dir_all(&base);
}
