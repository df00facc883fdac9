//! The audit pass's own gates: diagnostic-ID stability, planted-hazard
//! detection, and the waiver round-trip against the real workspace.

use std::path::Path;

use numagap_audit::{audit_root, rule, scan_source, Finding, RULES, WAIVERS};

/// Diagnostic IDs are a public, stable interface: scripts grep for them and
/// waivers key on them. This test is the contract — renumbering or reusing
/// an ID fails here before it breaks anyone downstream.
#[test]
fn diagnostic_ids_are_stable_and_well_formed() {
    let ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
    assert_eq!(
        ids,
        ["ND001", "ND002", "ND003", "ND004", "ND005", "ND006", "ND007", "ND008"],
        "rule IDs are append-only; never renumber or reorder"
    );
    for r in RULES {
        assert!(r.id.starts_with("ND") && r.id.len() == 5, "{}", r.id);
        assert!(!r.summary.is_empty() && !r.rationale.is_empty(), "{}", r.id);
    }
    assert!(rule("ND001").is_some());
    assert!(rule("ND999").is_none());
}

/// Every waiver names a real rule and carries a non-empty reason.
#[test]
fn waivers_reference_known_rules() {
    for w in WAIVERS {
        assert!(
            rule(w.rule).is_some(),
            "waiver for unknown rule {} ({})",
            w.rule,
            w.path_suffix
        );
        assert!(
            !w.reason.is_empty(),
            "{}:{} has no reason",
            w.rule,
            w.path_suffix
        );
        assert!(
            !w.token.is_empty(),
            "{}:{} has no token",
            w.rule,
            w.path_suffix
        );
    }
}

/// A fixture with one planted hazard per rule: the scanner must find each
/// one, at the right line, and nothing else.
#[test]
fn planted_hazards_are_each_detected_once() {
    let fixture = "\
use std::collections::HashMap;
fn wall() { let _t = std::time::Instant::now(); }
fn rng() { let mut r = rand::thread_rng(); }
fn nap() { std::thread::sleep(d); }
fn red(v: &[f64]) -> f64 { v.iter().sum::<f64>() }
fn cast(t: SimTime) -> u32 { t.as_nanos() as u32 }
fn boom(o: Option<u8>) -> u8 { o.unwrap() }
fn rogue() { let _h = std::thread::spawn(work); }
";
    let findings = scan_source("crates/sim/src/planted.rs", "sim", fixture);
    let got: Vec<(&str, usize)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        got,
        [
            ("ND001", 1),
            ("ND002", 2),
            ("ND003", 3),
            ("ND004", 4),
            ("ND005", 5),
            ("ND006", 6),
            ("ND007", 7),
            ("ND008", 8),
        ],
        "{findings:#?}"
    );
}

/// ND008 is scoped: only the thread-backed rank context may own raw
/// threads in sim-state crates, and each primitive carries its own waiver
/// token so a *new* primitive at a waived path still fires.
#[test]
fn nd008_catches_every_thread_primitive_and_stays_scoped() {
    let fixture = "\
fn a() { std::thread::spawn(f); }
fn b() { std::thread::Builder::new(); }
struct S { h: std::thread::JoinHandle<()> }
";
    let hits = scan_source("crates/apps/src/x.rs", "apps", fixture);
    assert_eq!(
        hits.iter().map(|f| f.rule).collect::<Vec<_>>(),
        ["ND008", "ND008", "ND008"],
        "{hits:#?}"
    );
    // Outside sim-state crates the rule stays quiet (the bench engine's
    // worker threads never touch virtual time).
    assert!(scan_source("crates/bench/src/x.rs", "bench", fixture).is_empty());
}

/// The same hazards hidden in comments, strings, and test blocks must NOT
/// fire — the sanitizer's whole job.
#[test]
fn hazards_in_comments_strings_and_test_blocks_are_ignored() {
    let fixture = "\
//! Docs may say HashMap, Instant::now, thread_rng, .unwrap() freely.
fn msg() -> &'static str { \"thread::sleep is bad; so is .unwrap()\" }
/* block comment: SystemTime, sum::<f64>() */
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    fn t() { std::thread::sleep(d); x.unwrap(); }
}
#[cfg(all(test, target_arch = \"x86_64\"))]
mod arch_tests {
    fn t() { let _ = std::time::Instant::now(); }
}
";
    let findings = scan_source("crates/sim/src/clean.rs", "sim", fixture);
    assert!(findings.is_empty(), "{findings:#?}");
}

/// Scoped rules stay quiet outside the sim-state crates.
#[test]
fn sim_state_rules_are_scoped() {
    let fixture =
        "use std::collections::HashMap;\nfn s(v: &[f64]) -> f64 { v.iter().sum::<f64>() }\n";
    assert!(scan_source("crates/analysis/src/x.rs", "analysis", fixture).is_empty());
    assert_eq!(scan_source("crates/net/src/x.rs", "net", fixture).len(), 2);
}

/// Round-trip against the live workspace: the audit must be clean (no
/// unwaived findings) and the waiver table must be live (no stale entries).
/// This is the same gate CI runs via `numagap audit`.
#[test]
fn workspace_audit_is_clean_and_waivers_are_live() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = audit_root(&root).expect("workspace audit runs");
    assert!(report.files > 20, "walk found only {} files", report.files);
    let unwaived: Vec<&Finding> = report.unwaived().collect();
    assert!(
        unwaived.is_empty(),
        "unwaived determinism hazards:\n{}",
        unwaived
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    let stale = report.stale_waivers();
    assert!(
        stale.is_empty(),
        "stale waivers (matched nothing): {:?}",
        stale
            .iter()
            .map(|w| format!("{} {} `{}`", w.rule, w.path_suffix, w.token))
            .collect::<Vec<_>>()
    );
}
