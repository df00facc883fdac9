//! Serial-vs-parallel equivalence of the experiment engine.
//!
//! The simulation is deterministic per cell and the engine collects results
//! in canonical cell order, so every artifact a sweep produces must be
//! independent of the worker count: CSV files byte-identical, and the
//! `BENCH_*.json` summaries identical modulo wall-clock timings (and the
//! recorded `jobs` value itself). The predict pipeline is held to more:
//! its report is a pure function of its inputs, byte for byte.

use std::fs;
use std::path::{Path, PathBuf};

use numagap_apps::{AppId, Scale, Variant};
use numagap_bench::json::{parse, Json};
use numagap_bench::predict::{run_predict, PredictOpts};
use numagap_bench::record::{compare, CompareOpts};
use numagap_bench::targets::{SweepOpts, TARGETS};

fn opts(jobs: usize, out: &Path) -> SweepOpts {
    SweepOpts {
        scale: Scale::Small,
        quick: true,
        jobs,
        out: out.to_path_buf(),
        progress: false,
        topology: None,
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("numagap_determinism_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp out dir");
    dir
}

/// Drops the fields that legitimately differ between two runs of the same
/// sweep: wall-clock timings and the worker count that produced them.
fn strip_nondeterministic(json: Json) -> Json {
    match json {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "wall_s" && k != "jobs")
                .map(|(k, v)| (k, strip_nondeterministic(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(strip_nondeterministic).collect()),
        other => other,
    }
}

/// Runs `target` at one and at eight workers and requires every artifact
/// to agree: each CSV byte for byte, the summary modulo wall clock.
fn serial_and_parallel_runs_are_equivalent(target: &str) {
    let run = TARGETS
        .iter()
        .find(|t| t.name == target)
        .unwrap_or_else(|| panic!("no target '{target}' in the table"))
        .run;
    let d1 = fresh_dir(&format!("{target}_j1"));
    let d8 = fresh_dir(&format!("{target}_j8"));
    let s1 = run(&opts(1, &d1)).expect("serial sweep");
    let mut s8 = run(&opts(8, &d8)).expect("parallel sweep");

    // Every CSV artifact must be byte-identical at any worker count.
    let mut csvs: Vec<_> = fs::read_dir(&d1)
        .expect("list serial artifacts")
        .map(|e| e.expect("dir entry").file_name())
        .filter(|name| name.to_string_lossy().ends_with(".csv"))
        .collect();
    csvs.sort();
    assert!(!csvs.is_empty(), "{target} wrote no CSV");
    for name in &csvs {
        let csv1 = fs::read(d1.join(name)).expect("serial csv");
        let csv8 = fs::read(d8.join(name)).expect("parallel csv");
        assert_eq!(csv1, csv8, "{name:?} bytes depend on the worker count");
    }

    // The JSON summaries agree once wall-clock noise is removed.
    let summary = format!("BENCH_{target}.json");
    let j1 = fs::read_to_string(d1.join(&summary)).expect("serial summary");
    let j8 = fs::read_to_string(d8.join(&summary)).expect("parallel summary");
    let j1 = strip_nondeterministic(parse(&j1).expect("serial summary parses"));
    let j8 = strip_nondeterministic(parse(&j8).expect("parallel summary parses"));
    assert_eq!(j1, j8, "{summary} differs beyond wall-clock fields");

    // Compare mode agrees: in virtual-only mode the two runs are clean.
    let virtual_only = CompareOpts {
        wall_clock: false,
        ..CompareOpts::default()
    };
    let report = compare(&s1, &s8, &virtual_only);
    assert!(
        report.is_clean(),
        "virtual-only compare of identical {target} sweeps found: {:?}",
        report.findings
    );

    // ... and a perturbed deterministic field is flagged as a regression.
    s8.records[0].checksum += 1.0;
    let report = compare(&s1, &s8, &virtual_only);
    assert!(
        !report.is_clean(),
        "compare missed a checksum change in cell '{}'",
        s8.records[0].key
    );

    let _ = fs::remove_dir_all(&d1);
    let _ = fs::remove_dir_all(&d8);
}

#[test]
fn fig3_serial_and_parallel_runs_are_equivalent() {
    serial_and_parallel_runs_are_equivalent("fig3");
}

#[test]
fn magpie_serial_and_parallel_runs_are_equivalent() {
    serial_and_parallel_runs_are_equivalent("magpie");
}

#[test]
fn structure_serial_and_parallel_runs_are_equivalent() {
    serial_and_parallel_runs_are_equivalent("structure");
}

#[test]
fn ablations_serial_and_parallel_runs_are_equivalent() {
    serial_and_parallel_runs_are_equivalent("ablations");
}

fn predict_opts(jobs: usize, validate: bool) -> PredictOpts {
    PredictOpts {
        apps: vec![AppId::Fft, AppId::Asp],
        variant: Some(Variant::Unoptimized),
        scale: Scale::Small,
        quick: true,
        jobs,
        ref_latency_ms: 10.0,
        ref_bandwidth_mbs: 0.3,
        validate,
        max_error_pct: 10.0,
        progress: false,
        wan_topology: None,
    }
}

#[test]
fn predict_report_is_byte_identical_across_job_counts() {
    let a = run_predict(&predict_opts(1, false))
        .expect("predict runs")
        .to_json();
    let b = run_predict(&predict_opts(4, false))
        .expect("predict runs")
        .to_json();
    assert_eq!(a, b, "report must not depend on worker count");
}

#[test]
fn validated_report_is_byte_identical_across_repeat_runs() {
    let a = run_predict(&predict_opts(2, true)).expect("predict runs");
    let b = run_predict(&predict_opts(2, true)).expect("predict runs");
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "repeat runs must agree byte for byte"
    );
    assert_eq!(
        a.sim_summary().map(|s| s.to_json()),
        b.sim_summary().map(|s| s.to_json()),
        "validation records must agree byte for byte"
    );
}
