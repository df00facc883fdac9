//! Machine-readable benchmark records: the versioned `BENCH_<target>.json`
//! schema and the regression `compare` mode.
//!
//! Every experiment cell the engine runs is summarized as a [`RunRecord`]:
//! host wall-clock time, virtual (simulated) time, the run checksum, the
//! kernel's whole-run accounting ([`KernelStats`]) and per-layer traffic.
//! A sweep collects its records into a [`BenchSummary`] written next to the
//! CSV artifacts — this is what gives the repository a queryable perf
//! trajectory instead of throwaway stdout.
//!
//! Determinism contract: for a fixed target, scale and grid, everything in
//! a record except the `wall_s` fields is bit-for-bit reproducible across
//! runs, machines and `--jobs` settings. [`compare`] exploits that split:
//! any drift in virtual time, checksums or kernel counters is a
//! *determinism* finding, while wall-clock changes are judged against a
//! relative threshold (they legitimately vary run to run).

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use numagap_apps::AppRun;
use numagap_rt::RunReport;
use numagap_sim::{HotProfile, KernelStats};

use crate::json::{self, Json};

/// Version stamped into every `BENCH_*.json`; bump on schema changes.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Everything recorded from one experiment cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Canonical cell key, e.g. `Water/optimized/lat3.3/bw0.3` — unique
    /// within a target and stable across runs; `compare` matches on it.
    pub key: String,
    /// Host wall-clock seconds spent simulating this cell.
    pub wall_s: f64,
    /// Virtual makespan in seconds (deterministic).
    pub virtual_s: f64,
    /// Run checksum (deterministic; must match the serial reference).
    pub checksum: f64,
    /// Whole-run kernel accounting (deterministic).
    pub kernel: KernelStats,
    /// Intra-cluster messages.
    pub intra_msgs: u64,
    /// Intra-cluster payload bytes.
    pub intra_bytes: u64,
    /// Inter-cluster messages.
    pub inter_msgs: u64,
    /// Inter-cluster payload bytes.
    pub inter_bytes: u64,
    /// Fault-plan seed the cell ran under, if any.
    pub seed: Option<u64>,
    /// No longer written, read or compared: always `None`. The kernel's
    /// exact hot-path counters are pinned per golden cell by
    /// `crates/sim/tests/golden/counts.txt` instead. The field stays only
    /// because `benchmark/` builds `RunRecord` by struct literal.
    pub profile: Option<HotProfile>,
    /// OS threads rank code ran on (deterministic for a fixed host: 1 where
    /// ranks are fibers, the rank count on hosts without them).
    /// Recorded only by the `scale` target; `None` keeps the other
    /// targets' artifacts byte-identical to their baselines.
    pub sim_threads: Option<usize>,
}

impl RunRecord {
    /// Builds a record from a finished application run.
    pub fn from_run(key: String, wall_s: f64, run: &AppRun) -> Self {
        RunRecord {
            key,
            wall_s,
            virtual_s: run.elapsed.as_secs_f64(),
            checksum: run.checksum,
            kernel: run.kernel,
            intra_msgs: run.net.intra_msgs,
            intra_bytes: run.net.intra_payload_bytes,
            inter_msgs: run.net.inter_msgs,
            inter_bytes: run.net.inter_payload_bytes,
            seed: run.seed,
            profile: None,
            sim_threads: None,
        }
    }

    /// Builds a record from a raw [`numagap_rt::Machine::run`] report — the
    /// cells that drive rank functions directly instead of going through
    /// [`numagap_apps::run_app`]. The caller says what the cell's checksum
    /// is; `sim_threads` stays `None` (the `scale` target sets it from the
    /// same report).
    pub fn from_report<T>(key: String, wall_s: f64, checksum: f64, report: &RunReport<T>) -> Self {
        RunRecord {
            key,
            wall_s,
            virtual_s: report.elapsed.as_secs_f64(),
            checksum,
            kernel: report.kernel_stats,
            intra_msgs: report.net_stats.intra_msgs,
            intra_bytes: report.net_stats.intra_payload_bytes,
            inter_msgs: report.net_stats.inter_msgs,
            inter_bytes: report.net_stats.inter_payload_bytes,
            seed: report.effective_seed(),
            profile: None,
            sim_threads: None,
        }
    }
}

/// One target's sweep, summarized for the `BENCH_<target>.json` artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSummary {
    /// Schema version ([`BENCH_SCHEMA_VERSION`] when written by this build).
    pub schema: u64,
    /// Target name (`fig3`, `fig4`, `table1`, ...).
    pub target: String,
    /// Problem scale the sweep ran at (`small` | `medium` | `paper`).
    pub scale: String,
    /// Whether the coarse `--quick` grid was used.
    pub quick: bool,
    /// Worker threads the sweep ran with.
    pub jobs: usize,
    /// Whole-sweep host wall-clock seconds.
    pub wall_s: f64,
    /// Per-cell records, in canonical cell order.
    pub records: Vec<RunRecord>,
}

impl BenchSummary {
    /// Creates an empty summary for a target.
    pub fn new(target: &str, scale: impl Into<String>, quick: bool, jobs: usize) -> Self {
        BenchSummary {
            schema: BENCH_SCHEMA_VERSION,
            target: target.to_string(),
            scale: scale.into(),
            quick,
            jobs,
            wall_s: 0.0,
            records: Vec::new(),
        }
    }

    /// Serializes to pretty-enough JSON (one record per line).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"schema\": {},\n  \"target\": \"{}\",\n  \"scale\": \"{}\",\n  \
             \"quick\": {},\n  \"jobs\": {},\n  \"wall_s\": {},\n  \"records\": [",
            self.schema,
            json::escape(&self.target),
            json::escape(&self.scale),
            self.quick,
            self.jobs,
            self.wall_s,
        );
        for (i, r) in self.records.iter().enumerate() {
            let sep = if i + 1 < self.records.len() { "," } else { "" };
            let seed = match r.seed {
                Some(s) => s.to_string(),
                None => "null".to_string(),
            };
            // Additive: records without it serialize exactly as they did
            // before the field existed, so committed baselines stay
            // byte-identical.
            let sim_threads = match r.sim_threads {
                None => String::new(),
                Some(n) => format!(", \"sim_threads\": {n}"),
            };
            let _ = write!(
                out,
                "\n    {{\"key\": \"{}\", \"wall_s\": {}, \"virtual_s\": {}, \
                 \"checksum\": {}, \"events\": {}, \"messages\": {}, \"bytes\": {}, \
                 \"intra_msgs\": {}, \"intra_bytes\": {}, \"inter_msgs\": {}, \
                 \"inter_bytes\": {}, \"faults_dropped\": {}, \"faults_duplicated\": {}, \
                 \"faults_delayed\": {}, \"seed\": {}{}}}{}",
                json::escape(&r.key),
                r.wall_s,
                r.virtual_s,
                r.checksum,
                r.kernel.events,
                r.kernel.messages,
                r.kernel.bytes,
                r.intra_msgs,
                r.intra_bytes,
                r.inter_msgs,
                r.inter_bytes,
                r.kernel.faults_dropped,
                r.kernel.faults_duplicated,
                r.kernel.faults_delayed,
                seed,
                sim_threads,
                sep,
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a summary from JSON text.
    ///
    /// # Errors
    ///
    /// Invalid JSON, a missing/mistyped field, or an unknown schema version.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let schema = field_u64(&doc, "schema")?;
        if schema != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "unsupported BENCH schema version {schema} (this build reads \
                 {BENCH_SCHEMA_VERSION})"
            ));
        }
        let mut records = Vec::new();
        for (i, r) in doc
            .get("records")
            .and_then(Json::as_array)
            .ok_or("missing 'records' array")?
            .iter()
            .enumerate()
        {
            records.push(record_from_json(r).map_err(|e| format!("record {i}: {e}"))?);
        }
        Ok(BenchSummary {
            schema,
            target: field_str(&doc, "target")?,
            scale: field_str(&doc, "scale")?,
            quick: doc
                .get("quick")
                .and_then(Json::as_bool)
                .ok_or("missing 'quick'")?,
            jobs: field_u64(&doc, "jobs")? as usize,
            wall_s: field_f64(&doc, "wall_s")?,
            records,
        })
    }

    /// Writes the JSON artifact to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        fs::write(path, self.to_json())
    }

    /// Loads a summary from a JSON file.
    ///
    /// # Errors
    ///
    /// I/O failures and every [`BenchSummary::from_json`] failure, with the
    /// path named in the message.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn field_f64(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric '{key}'"))
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer '{key}'"))
}

fn field_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string '{key}'"))
}

fn record_from_json(r: &Json) -> Result<RunRecord, String> {
    Ok(RunRecord {
        key: field_str(r, "key")?,
        wall_s: field_f64(r, "wall_s")?,
        virtual_s: field_f64(r, "virtual_s")?,
        checksum: field_f64(r, "checksum")?,
        kernel: KernelStats {
            events: field_u64(r, "events")?,
            messages: field_u64(r, "messages")?,
            bytes: field_u64(r, "bytes")?,
            faults_dropped: field_u64(r, "faults_dropped")?,
            faults_duplicated: field_u64(r, "faults_duplicated")?,
            faults_delayed: field_u64(r, "faults_delayed")?,
        },
        intra_msgs: field_u64(r, "intra_msgs")?,
        intra_bytes: field_u64(r, "intra_bytes")?,
        inter_msgs: field_u64(r, "inter_msgs")?,
        inter_bytes: field_u64(r, "inter_bytes")?,
        seed: match r.get("seed") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or("non-integer 'seed'")?),
        },
        profile: None,
        sim_threads: match r.get("sim_threads") {
            None => None,
            Some(v) => Some(v.as_u64().ok_or("non-integer 'sim_threads'")? as usize),
        },
    })
}

/// Options for [`compare`].
#[derive(Debug, Clone, Copy)]
pub struct CompareOpts {
    /// A cell (or the whole sweep) whose new wall clock exceeds
    /// `old * threshold` is flagged as a wall-clock regression.
    pub threshold: f64,
    /// When false, skip wall-clock checks entirely — the mode CI uses
    /// against a baseline recorded on different hardware.
    pub wall_clock: bool,
}

impl Default for CompareOpts {
    fn default() -> Self {
        CompareOpts {
            threshold: 1.5,
            wall_clock: true,
        }
    }
}

/// The outcome of diffing two summaries.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Regressions and drift; non-empty means the comparison failed.
    pub findings: Vec<String>,
    /// Informational lines (totals, improvements).
    pub notes: Vec<String>,
}

impl CompareReport {
    /// True when no finding was recorded.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Diffs `new` against `old`.
///
/// Deterministic fields (virtual time, checksum, kernel counters, traffic,
/// cell membership) must match exactly — any difference is a finding, since
/// for a fixed target/scale/grid they cannot legitimately change without a
/// code change. Wall-clock fields are compared per cell (above a 10 ms noise
/// floor) and in aggregate, against `opts.threshold`.
pub fn compare(old: &BenchSummary, new: &BenchSummary, opts: &CompareOpts) -> CompareReport {
    let mut rep = CompareReport::default();
    if old.target != new.target {
        rep.findings.push(format!(
            "target mismatch: baseline is '{}', candidate is '{}'",
            old.target, new.target
        ));
        return rep;
    }
    if old.scale != new.scale || old.quick != new.quick {
        rep.findings.push(format!(
            "grid mismatch: baseline scale={}/quick={}, candidate scale={}/quick={} — \
             virtual times are not comparable",
            old.scale, old.quick, new.scale, new.quick
        ));
        return rep;
    }
    let mut matched = 0usize;
    for o in &old.records {
        let Some(n) = new.records.iter().find(|n| n.key == o.key) else {
            rep.findings
                .push(format!("cell '{}' missing from candidate", o.key));
            continue;
        };
        matched += 1;
        if n.virtual_s != o.virtual_s {
            rep.findings.push(format!(
                "cell '{}': virtual time drifted {} -> {} s (determinism violation \
                 or perf-model change)",
                o.key, o.virtual_s, n.virtual_s
            ));
        }
        if n.checksum != o.checksum {
            rep.findings.push(format!(
                "cell '{}': checksum drifted {} -> {}",
                o.key, o.checksum, n.checksum
            ));
        }
        if n.kernel != o.kernel
            || n.intra_msgs != o.intra_msgs
            || n.inter_msgs != o.inter_msgs
            || n.intra_bytes != o.intra_bytes
            || n.inter_bytes != o.inter_bytes
        {
            rep.findings.push(format!(
                "cell '{}': kernel/traffic counters drifted (events {} -> {}, \
                 messages {} -> {}, inter_msgs {} -> {})",
                o.key,
                o.kernel.events,
                n.kernel.events,
                o.kernel.messages,
                n.kernel.messages,
                o.inter_msgs,
                n.inter_msgs
            ));
        }
        // Thread-count ceiling: deterministic for a fixed host.
        // A baseline without the field ignores the candidate's.
        if let (Some(to), Some(tn)) = (o.sim_threads, n.sim_threads) {
            if to != tn {
                rep.findings.push(format!(
                    "cell '{}': simulator thread count drifted {to} -> {tn}",
                    o.key
                ));
            }
        }
        // Wall clock: only cells big enough to time meaningfully.
        if opts.wall_clock && o.wall_s >= 0.010 && n.wall_s > o.wall_s * opts.threshold {
            rep.findings.push(format!(
                "cell '{}': wall clock regressed {:.3} -> {:.3} s ({:.2}x, threshold {:.2}x)",
                o.key,
                o.wall_s,
                n.wall_s,
                n.wall_s / o.wall_s,
                opts.threshold
            ));
        }
    }
    for n in &new.records {
        if !old.records.iter().any(|o| o.key == n.key) {
            rep.notes
                .push(format!("cell '{}' is new (not in baseline)", n.key));
        }
    }
    if opts.wall_clock && old.wall_s > 0.0 {
        let ratio = new.wall_s / old.wall_s;
        if new.wall_s > old.wall_s * opts.threshold {
            rep.findings.push(format!(
                "sweep wall clock regressed {:.3} -> {:.3} s ({ratio:.2}x, threshold {:.2}x)",
                old.wall_s, new.wall_s, opts.threshold
            ));
        } else {
            rep.notes.push(format!(
                "sweep wall clock {:.3} -> {:.3} s ({ratio:.2}x, jobs {} -> {})",
                old.wall_s, new.wall_s, old.jobs, new.jobs
            ));
        }
    }
    rep.notes.push(format!(
        "{matched} cell(s) compared, {} finding(s)",
        rep.findings.len()
    ));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_baselines_load_and_print_back_unchanged() {
        // The reader's numbers are RFC 8259's and its integers stop at 2^53:
        // neither may cost a committed file a counter or a digit.
        let load_all = |dir: &Path, scale: Option<&str>| {
            let mut loaded = 0;
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    continue;
                }
                let text = std::fs::read_to_string(&path).unwrap();
                let summary = BenchSummary::load(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
                assert_eq!(summary.to_json(), text, "{path:?}");
                if let Some(scale) = scale {
                    // A full grid at the scale its directory names.
                    assert_eq!((summary.scale.as_str(), summary.quick), (scale, false));
                }
                loaded += 1;
            }
            loaded
        };
        // One quick baseline per target, and the full grids at medium and
        // at paper scale.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");
        assert_eq!(load_all(&dir, None), crate::targets::TARGETS.len());
        for scale in ["medium", "paper"] {
            assert!(load_all(&dir.join(scale), Some(scale)) > 0, "{scale}");
        }
    }

    fn record(key: &str, wall: f64, virt: f64) -> RunRecord {
        RunRecord {
            key: key.to_string(),
            wall_s: wall,
            virtual_s: virt,
            checksum: 42.5,
            kernel: KernelStats {
                events: 100,
                messages: 40,
                bytes: 4096,
                ..KernelStats::default()
            },
            intra_msgs: 30,
            intra_bytes: 3000,
            inter_msgs: 10,
            inter_bytes: 1096,
            seed: None,
            profile: None,
            sim_threads: None,
        }
    }

    fn summary(records: Vec<RunRecord>) -> BenchSummary {
        BenchSummary {
            schema: BENCH_SCHEMA_VERSION,
            target: "fig3".into(),
            scale: "small".into(),
            quick: true,
            jobs: 4,
            wall_s: 1.0,
            records,
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut s = summary(vec![record("a/b/c", 0.125, 3.0625), record("d", 0.5, 7.5)]);
        s.records[1].seed = Some(99);
        s.records[1].kernel.faults_dropped = 3;
        let parsed = BenchSummary::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn sim_threads_round_trips_and_drift_is_a_finding() {
        let mut s = summary(vec![record("c4x8/pool-w2", 0.1, 2.0)]);
        s.records[0].sim_threads = Some(2);
        let text = s.to_json();
        assert!(text.contains("\"sim_threads\": 2"), "{text}");
        let parsed = BenchSummary::from_json(&text).unwrap();
        assert_eq!(parsed, s);
        // Absent in the record -> absent from the JSON (baseline stability).
        let plain = summary(vec![record("q", 0.1, 2.0)]).to_json();
        assert!(!plain.contains("sim_threads"), "{plain}");
        // A candidate whose ceiling moved against a recorded baseline fails.
        let mut new = s.clone();
        new.records[0].sim_threads = Some(32);
        let rep = compare(&s, &new, &CompareOpts::default());
        assert_eq!(rep.findings.len(), 1, "{:?}", rep.findings);
        assert!(rep.findings[0].contains("thread count drifted"));
        // A baseline recorded before the field existed ignores it.
        let mut old = s.clone();
        old.records[0].sim_threads = None;
        let rep = compare(&old, &new, &CompareOpts::default());
        assert!(rep.is_clean(), "{:?}", rep.findings);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let mut s = summary(vec![]);
        s.schema = 999;
        let err = BenchSummary::from_json(&s.to_json()).unwrap_err();
        assert!(err.contains("schema version 999"), "{err}");
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(BenchSummary::from_json("{").is_err());
        assert!(BenchSummary::from_json("{\"schema\": 1}").is_err());
    }

    #[test]
    fn identical_summaries_compare_clean() {
        let s = summary(vec![record("a", 0.1, 2.0)]);
        let rep = compare(&s, &s.clone(), &CompareOpts::default());
        assert!(rep.is_clean(), "{:?}", rep.findings);
    }

    #[test]
    fn virtual_time_drift_is_a_finding() {
        let old = summary(vec![record("a", 0.1, 2.0)]);
        let mut new = old.clone();
        new.records[0].virtual_s = 2.5;
        let rep = compare(&old, &new, &CompareOpts::default());
        assert_eq!(rep.findings.len(), 1);
        assert!(rep.findings[0].contains("virtual time drifted"));
    }

    #[test]
    fn wall_clock_regression_beyond_threshold_is_flagged() {
        let old = summary(vec![record("a", 0.1, 2.0)]);
        let mut new = old.clone();
        new.records[0].wall_s = 0.2; // 2x > 1.5x threshold
        new.wall_s = 2.0;
        let rep = compare(&old, &new, &CompareOpts::default());
        assert_eq!(rep.findings.len(), 2, "{:?}", rep.findings);
        assert!(rep.findings.iter().all(|f| f.contains("wall clock")));
        // Same diff in virtual-only mode is clean: wall clock is hardware-
        // dependent and CI compares across machines.
        let rep = compare(
            &old,
            &new,
            &CompareOpts {
                wall_clock: false,
                ..CompareOpts::default()
            },
        );
        assert!(rep.is_clean(), "{:?}", rep.findings);
    }

    #[test]
    fn tiny_cells_are_exempt_from_wall_noise() {
        let old = summary(vec![record("a", 0.001, 2.0)]);
        let mut new = old.clone();
        new.records[0].wall_s = 0.009; // 9x, but below the 10 ms floor
        new.wall_s = 1.2;
        let rep = compare(&old, &new, &CompareOpts::default());
        assert!(rep.is_clean(), "{:?}", rep.findings);
    }

    #[test]
    fn membership_changes_are_findings_or_notes() {
        let old = summary(vec![record("a", 0.1, 2.0), record("b", 0.1, 3.0)]);
        let new = summary(vec![record("a", 0.1, 2.0), record("c", 0.1, 4.0)]);
        let rep = compare(&old, &new, &CompareOpts::default());
        assert!(rep.findings.iter().any(|f| f.contains("'b' missing")));
        assert!(rep.notes.iter().any(|n| n.contains("'c' is new")));
    }

    #[test]
    fn checksum_drift_is_a_finding() {
        let old = summary(vec![record("a", 0.1, 2.0)]);
        let mut new = old.clone();
        new.records[0].checksum += 1.0;
        new.records[0].kernel.events += 1;
        let rep = compare(&old, &new, &CompareOpts::default());
        assert_eq!(rep.findings.len(), 2);
    }

    #[test]
    fn grid_mismatch_refuses_to_compare() {
        let old = summary(vec![record("a", 0.1, 2.0)]);
        let mut new = old.clone();
        new.quick = false;
        let rep = compare(&old, &new, &CompareOpts::default());
        assert!(!rep.is_clean());
        assert!(rep.findings[0].contains("grid mismatch"));
    }
}
