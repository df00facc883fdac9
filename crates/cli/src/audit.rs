//! The `audit` command: the determinism static-analysis pass.

use crate::flags::Values;
use crate::{EXIT_ERROR, EXIT_FINDINGS};

/// Executes the `audit` command: scans `root/crates/*/src` with the
/// determinism rules and reports findings, waived sites, and stale waivers.
pub(crate) fn execute_audit(args: &Values) -> i32 {
    if args.rules {
        for r in numagap_audit::RULES {
            println!(
                "{}  {}{}",
                r.id,
                r.summary,
                if r.sim_state_only {
                    "  [sim-state crates only]"
                } else {
                    ""
                }
            );
            println!("       {}\n", r.rationale);
        }
        return 0;
    }
    let root = std::path::PathBuf::from(args.root.as_deref().unwrap_or("."));
    let report = match numagap_audit::audit_root(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("audit: {e}");
            return EXIT_ERROR;
        }
    };
    let mut unwaived = 0usize;
    let mut waived_count = 0usize;
    for f in &report.findings {
        if f.waived.is_some() {
            waived_count += 1;
        } else {
            unwaived += 1;
        }
        println!("  {f}");
    }
    let stale = report.stale_waivers();
    for w in &stale {
        println!(
            "  stale waiver: {} {} `{}` matched nothing — remove or update it",
            w.rule, w.path_suffix, w.token
        );
    }
    println!(
        "audited {} files: {unwaived} finding(s), {waived_count} waived, {} stale waiver(s)",
        report.files,
        stale.len()
    );
    if unwaived > 0 || !stale.is_empty() {
        EXIT_FINDINGS
    } else {
        0
    }
}
