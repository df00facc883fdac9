//! `numagap bench --target T` is the only way to run an experiment. The
//! spellings that used to sit beside it — alias subcommands, the scheduler
//! flag, the `REPRO_*` environment knobs — are driven here through the real
//! binary: the first two are usage errors (exit 2), the last is ignored.

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
