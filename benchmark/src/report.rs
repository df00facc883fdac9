//! The metric catalogue and the one place results are printed from:
//! `workload metric value unit` lines for people, then the single JSON line
//! the driver reads.

use std::fmt::Write as _;

use crate::stats;

/// `(name, unit)` of every end-to-end metric; each workload emits all of
/// them on an untraced run. `BENCHMARK.json` carries the same list with
/// direction and bound (a self-test keeps the two in step).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("tail_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, `<crate>.<name>`; a traced run
/// emits all of them.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("sim.switch_ns", "ns"),
    ("sim.event_ns.fanout", "ns"),
    ("sim.mailbox_ns.tagged", "ns"),
    ("sim.park_wakes_per_switch", "ratio"),
    ("sim.spawn_us_per_rank", "us"),
    ("sim.rss_kb_per_rank", "kB"),
    ("sim.observer_ns", "ns"),
    ("net.book_ns.intra", "ns"),
    ("net.book_ns.mesh", "ns"),
    ("net.book_ns.fattree", "ns"),
    ("net.book_ns.dragonfly", "ns"),
    ("net.link_acquire_ns.d1", "ns"),
    ("net.link_acquire_ns.d100", "ns"),
    ("net.link_acquire_ns.d10k", "ns"),
    ("rt.msg_ns", "ns"),
    ("rt.barrier_us.32", "us"),
    ("rt.bcast_us.32", "us"),
    ("apps.cell_ms.water", "ms"),
    ("apps.cell_ms.barnes", "ms"),
    ("apps.cell_ms.tsp", "ms"),
    ("apps.cell_ms.asp", "ms"),
    ("apps.cell_ms.awari", "ms"),
    ("apps.cell_ms.fft", "ms"),
    ("apps.us_per_event.water", "us"),
    ("apps.us_per_event.barnes", "us"),
    ("apps.us_per_event.tsp", "us"),
    ("apps.us_per_event.asp", "us"),
    ("apps.us_per_event.awari", "us"),
    ("apps.us_per_event.fft", "us"),
    ("model.record_overhead_pct", "%"),
    ("model.replay_us_per_point", "us"),
    ("model.replay_ns_per_op", "ns"),
    ("model.critical_path_us", "us"),
    ("model.dag_ops", "count"),
    ("serve.whatif_inproc_ms.replay_1k", "ms"),
    ("serve.whatif_inproc_ms.analytic_10k", "ms"),
    ("serve.http_roundtrip_us", "us"),
    ("serve.analytic_bound_ns", "ns"),
    ("serve.analytic_compile_ms", "ms"),
    ("serve.cache_lookup_ns", "ns"),
    ("serve.cold_record_ms", "ms"),
    ("bench.json_parse_mb_per_s", "MB/s"),
    ("bench.summary_emit_ms", "ms"),
    ("bench.summary_load_ms", "ms"),
    ("bench.engine_cell_us", "us"),
    ("cli.parse_us", "us"),
    ("host.calib_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The first line of the report block; `run.sh` prints from here on, so
/// whatever the program under test wrote to stdout earlier is dropped.
pub const MARKER: &str = "==== numagap-perf report ====";

/// Failure messages printed in full before the rest are only counted.
const MAX_FAILURES_SHOWN: usize = 20;

#[derive(Debug)]
pub struct Report {
    workload: String,
    traced: bool,
    lines: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
    attempted: u64,
    failures: Vec<String>,
}

fn unit_of(
    catalogue: &[(&'static str, &'static str)],
    name: &str,
) -> Option<(&'static str, &'static str)> {
    catalogue.iter().copied().find(|(n, _)| *n == name)
}

impl Report {
    pub fn new(workload: &str, traced: bool) -> Self {
        Report {
            workload: workload.to_string(),
            traced,
            lines: Vec::new(),
            metrics: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    fn catalogue(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// A metric of this run's catalogue: printed, and part of the JSON line.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the catalogue of this run's mode — a
    /// bug in the harness, not a measurement outcome.
    pub fn metric(&mut self, name: &str, value: f64, note: &str) {
        let (name, unit) = unit_of(self.catalogue(), name)
            .unwrap_or_else(|| panic!("metric '{name}' is not in the catalogue"));
        self.metrics.push((name, value));
        self.info(name, value, unit, note);
    }

    /// A figure printed beside the metrics but not reported to the driver.
    pub fn info(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        let mut line = format!("{} {name} {value} {unit}", self.workload);
        if !note.is_empty() {
            let _ = write!(line, "  # {note}");
        }
        self.lines.push(line);
    }

    pub fn note(&mut self, text: &str) {
        self.lines.push(format!("# {text}"));
    }

    /// Counts one attempted op; an `Err` is a failed or wrong one.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            eprintln!("FAILED {}: {why}", self.workload);
            self.failures.push(why);
        }
    }

    /// The two timing metrics of every workload. `wall_s` is the median host
    /// time of one unit of work (`unit_s`: a pass, a run, a request);
    /// `tail_ms` is the `tail_p`-th percentile of the workload's finest
    /// timed op (`op_ms`: a cell, a run, a request, in the order they ran),
    /// taken in each of `windows` equal consecutive stretches of the run and
    /// the lower quartile of those reported (see [`stats::quiet_percentile`];
    /// one window is the whole run). `tail_p` and `windows` are fixed per
    /// workload so the metric means the same thing on every run; the note
    /// says whether a window's sample count supports `tail_p` under the
    /// ten-samples-beyond rule.
    pub fn timings(
        &mut self,
        unit_s: &[f64],
        unit: &str,
        op_ms: &[f64],
        tail_p: f64,
        windows: usize,
        op: &str,
    ) {
        self.metric(
            "wall_s",
            stats::median(unit_s),
            &format!("median host seconds per {unit}, n={}", unit_s.len()),
        );
        let n = op_ms.len() / windows;
        let beyond = stats::beyond(n, tail_p);
        let rule = match stats::highest_supported_percentile(n) {
            Some(p) if p >= tail_p => format!("rule met (n supports up to p{p})"),
            _ => format!("fewer than {} beyond: read with care", stats::MIN_BEYOND),
        };
        let over = if windows == 1 {
            format!("n={n}")
        } else {
            format!("lower quartile of {windows} consecutive windows of n={n}")
        };
        self.metric(
            "tail_ms",
            stats::quiet_percentile(op_ms, tail_p, windows),
            &format!("p{tail_p} of host ms per {op}, {over}, {beyond:.1} samples beyond, {rule}"),
        );
    }

    /// Prints the report block and returns the process exit code: 0 when
    /// every op was right, 1 when any failed, 2 when the harness itself did
    /// not produce every metric of the catalogue.
    pub fn finish(self) -> i32 {
        println!("{MARKER}");
        for line in &self.lines {
            println!("{line}");
        }
        let failed = self.failures.len() as u64;
        let ratio = failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{} failed_ratio {ratio} ratio  # {failed} of {} ops failed or wrong",
            self.workload, self.attempted
        );
        for why in self.failures.iter().take(MAX_FAILURES_SHOWN) {
            println!("# FAILED: {why}");
        }
        if self.failures.len() > MAX_FAILURES_SHOWN {
            println!(
                "# ... and {} more",
                self.failures.len() - MAX_FAILURES_SHOWN
            );
        }

        let catalogue = self.catalogue();
        let mut harness_ok = self.attempted >= 1;
        let mut json = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = match self.metrics.iter().find(|(n, _)| n == name) {
                Some(&(_, v)) if v.is_finite() => v,
                other => {
                    eprintln!("harness error: metric {name} missing or not finite ({other:?})");
                    harness_ok = false;
                    continue;
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        if !harness_ok {
            return 2;
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
            failed == 0,
            self.attempted
        );
        i32::from(failed != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// `BENCHMARK.json` is what the driver reads; the catalogue is what the
    /// program emits. Every name must appear in both, with the same unit.
    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let doc = numagap_bench::json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        for (section, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(section)
                .and_then(|v| v.as_array())
                .expect("section is an array")
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(|v| v.as_str())
                            .expect("string field")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{section}");
        }
    }

    #[test]
    fn a_failed_op_makes_the_exit_code_non_zero() {
        let mut ok = Report::new("w", false);
        let mut bad = Report::new("w", false);
        for r in [&mut ok, &mut bad] {
            for (name, _) in END_TO_END {
                r.metric(name, 1.5, "");
            }
            r.op(Ok(()));
        }
        bad.op(Err("cell x: virtual_s 1 != 2".to_string()));
        assert_eq!(ok.finish(), 0);
        assert_eq!(bad.finish(), 1);
    }

    #[test]
    fn a_missing_metric_is_a_harness_error() {
        let mut r = Report::new("w", false);
        r.metric("setup_s", 1.0, "");
        r.op(Ok(()));
        assert_eq!(r.finish(), 2);
    }
}
