//! `numagap bench --target T` is the only way to run an experiment. The
//! spellings that used to sit beside it — alias subcommands, the scheduler
//! flag, the `REPRO_*` environment knobs — are driven here through the real
//! binary: the first two are usage errors (exit 2), the last is ignored.
//! So is the other thing a command line used to get away with: a flag the
//! command never reads. So are the hostile-network flags: the machine
//! models no cross-traffic, link schedule or slow cluster.

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
    // Two experiments that never were commands.
    for name in ["scale", "fig3"] {
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
    assert!(!usage.contains("numagap hostile") && !usage.contains("numagap scale"));
    // Nor is a deleted experiment a target.
    for name in ["selfperf", "hostile"] {
        let out = numagap(&["bench", "--target", name])
            .output()
            .expect("spawn numagap");
        assert_eq!(out.status.code(), Some(2), "{name}");
        let err = stderr_of(&out);
        assert!(err.contains("unknown bench target"), "{name}: {err}");
    }
    // Nor is the deleted endgame-database builder a command.
    let out = numagap(&["awari-db"]).output().expect("spawn numagap");
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.contains("unknown command 'awari-db'"), "{err}");
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
fn the_hostile_network_flags_are_unknown() {
    // `info` prints the machine and runs nothing, so a flag that still
    // parses makes its line exit 0 at once.
    for (flag, value) in [
        ("--hetero", "slow-home"),
        ("--cross-traffic", "0.5"),
        ("--schedule", "diurnal"),
        ("--schedule-period", "250"),
        ("--degrade-latency", "3"),
        ("--degrade-bandwidth", "0.5"),
        ("--seed", "1"),
    ] {
        let out = numagap(&["info", flag, value])
            .output()
            .expect("spawn numagap");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = stderr_of(&out);
        assert!(
            err.contains(&format!("unknown flag '{flag}'")),
            "{flag}: {err}"
        );
    }
}

#[test]
fn a_flag_the_command_does_not_read_is_a_usage_error() {
    const MACHINE: &str = "run, suite, check, info";
    // Each of these exited 0 once, with the flag silently dropped.
    for (argv, message) in [
        // suite runs small by definition.
        (
            &["suite", "--scale", "paper"][..],
            "flag --scale is not read by 'suite' (accepted by: run, check, bench, predict)",
        ),
        // bench and predict run the paper's fixed machines; the wiring is
        // the one machine flag they read.
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
            &["bench", "--jitter", "0.1"],
            &format!("flag --jitter is not read by 'bench' (accepted by: {MACHINE})"),
        ),
        (
            &["info", "--quick", "--target", "fig3"],
            "flag --quick is not read by 'info' (accepted by: bench, predict)",
        ),
        (
            &["audit", "--latency", "3"],
            &format!("flag --latency is not read by 'audit' (accepted by: {MACHINE})"),
        ),
        // Only predict takes several applications.
        (
            &["run", "--app", "asp", "--app", "fft"],
            "flag --app is given more than once; repeatable only on predict, not 'run'",
        ),
        // serve's thread count has one spelling.
        (
            &["serve", "--jobs", "3"],
            "flag --jobs is not read by 'serve' (accepted by: bench, predict)",
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
    // Several applications are read where the table says so.
    let argv = ["predict", "--app", "asp", "--app", "fft", "--rules"];
    let err = stderr_of(&numagap(&argv).output().expect("spawn numagap"));
    assert!(
        err.starts_with("error: flag --rules is not read by"),
        "{argv:?}: {err}"
    );
    // And the machine flags suite does read run it: one row per pair of
    // the paper's variants, FFT once.
    let out = numagap(&["suite", "--clusters", "2", "--procs", "2"])
        .output()
        .expect("spawn numagap");
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<&str> = stdout.lines().skip(1).collect();
    assert_eq!(rows.len(), 11, "{stdout}");
    assert!(rows.iter().all(|row| row.ends_with(" yes")), "{stdout}");
    assert_eq!(rows.iter().filter(|row| row.starts_with("FFT ")).count(), 1);
}

#[test]
fn a_wan_link_class_past_the_limits_is_a_usage_error() {
    // Each of these panicked once (exit 101) on virtual time overflowing.
    for (argv, message) in [
        (
            &["run", "--app", "water", "--bandwidth", "1e-12"][..],
            "invalid value '1e-12' for --bandwidth: expected a number of at least 0.001",
        ),
        (
            &["run", "--app", "water", "--latency", "1e300"],
            "invalid value '1e300' for --latency: expected a number in [0, 100000]",
        ),
        (
            &["predict", "--ref-bandwidth", "1e-12"],
            "invalid value '1e-12' for --ref-bandwidth: expected a number of at least 0.001",
        ),
    ] {
        let out = numagap(argv).output().expect("spawn numagap");
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let err = stderr_of(&out);
        assert!(
            err.starts_with(&format!("error: {message}\n")),
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
