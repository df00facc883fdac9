//! The `check` command: the communication sanitizer over the suite, and
//! the schedule-perturbation detector.

use numagap_analysis::{check_rank_lints, Analysis, Diagnostic, DiagnosticKind};
use numagap_apps::{run_app, run_app_report, AppId, Scale, SuiteConfig, Variant};
use numagap_rt::Machine;
use numagap_sim::TieBreak;

use crate::machine::{print_fault_seed, MachineArgs};
use crate::EXIT_FINDINGS;

/// Flags of the `check` command.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckArgs {
    /// Check only this application (all six when unset).
    pub app: Option<AppId>,
    /// Check only this variant (both when unset).
    pub variant: Option<Variant>,
    /// Problem scale.
    pub scale: Scale,
    /// Machine shape.
    pub machine: MachineArgs,
    /// Re-run every selected app/variant under adversarial event-tiebreak
    /// orders and report any cell whose makespan or checksum moves.
    pub perturb: bool,
}

/// Executes the `check` command.
pub(crate) fn execute_check(args: &CheckArgs) -> i32 {
    let cfg = SuiteConfig::at(args.scale);
    let machine = args.machine.machine();
    print_fault_seed(&machine);
    let apps: Vec<AppId> = match args.app {
        Some(app) => vec![app],
        None => AppId::ALL.to_vec(),
    };
    let variants: Vec<Variant> = match args.variant {
        Some(v) => vec![v],
        None => vec![Variant::Unoptimized, Variant::Optimized],
    };
    println!(
        "sanitizing {} on {}",
        if apps.len() == 1 {
            apps[0].to_string()
        } else {
            format!("{} apps", apps.len())
        },
        machine.spec().topology.label()
    );
    // The detector's adversarial orders: a deterministic worst case
    // (every same-instant tie reversed) and a seeded shuffle. The
    // kernel books same-instant transfers canonically, so results
    // must be bit-identical under every policy.
    let adversarial = [
        ("reversed", TieBreak::Reversed),
        ("shuffled(0x5EED)", TieBreak::Shuffled(0x5EED)),
    ];
    let mut unwaived_total = 0usize;
    let mut moved_total = 0usize;
    for &app in &apps {
        for &variant in &variants {
            let (diags, run_error) = check_app(app, &cfg, variant, &machine);
            let mut unwaived = 0usize;
            let mut waived_count = 0usize;
            let mut lines = Vec::new();
            for d in &diags {
                match waived(app, variant, d.kind) {
                    Some(reason) => {
                        waived_count += 1;
                        lines.push(format!("    {d} (waived: {reason})"));
                    }
                    None => {
                        unwaived += 1;
                        lines.push(format!("    {d}"));
                    }
                }
            }
            let verdict = if unwaived > 0 {
                format!("{unwaived} finding(s), {waived_count} waived")
            } else if waived_count > 0 {
                format!("clean ({waived_count} waived)")
            } else {
                "clean".to_string()
            };
            println!("  {app:<7} {variant:<12} {verdict}");
            for line in lines {
                println!("{line}");
            }
            if let Some(e) = &run_error {
                println!("    run aborted: {e}");
            }
            unwaived_total += unwaived;
            if args.perturb && run_error.is_none() {
                moved_total += perturb_cell(app, &cfg, variant, &machine, &adversarial);
            }
        }
    }
    if unwaived_total > 0 || moved_total > 0 {
        let mut parts = Vec::new();
        if unwaived_total > 0 {
            parts.push(format!("{unwaived_total} unwaived diagnostic(s)"));
        }
        if moved_total > 0 {
            parts.push(format!(
                "{moved_total} cell(s) moved under schedule perturbation"
            ));
        }
        println!("FAILED: {}", parts.join(", "));
        EXIT_FINDINGS
    } else {
        println!("all checks passed");
        0
    }
}

/// Runs one app/variant under the sanitizer; returns every diagnostic
/// (online findings, runtime lints, and — on an aborted run — the deadlock
/// decomposition) plus the run error, if any.
pub fn check_app(
    app: AppId,
    cfg: &SuiteConfig,
    variant: Variant,
    machine: &Machine,
) -> (Vec<Diagnostic>, Option<String>) {
    let analysis = Analysis::new(machine.spec().topology.nprocs());
    let result = run_app_report(app, cfg, variant, machine, Some(analysis.observer()));
    let mut diags = analysis.diagnostics();
    match result {
        Ok(report) => {
            diags.extend(check_rank_lints(&report.rank_lints));
            (diags, None)
        }
        Err(e) => {
            diags.extend(analysis.diagnose_error(&e));
            (diags, Some(e.to_string()))
        }
    }
}

/// Runs one app/variant once per adversarial tiebreak policy and compares
/// makespan and checksum bit-for-bit against the FIFO baseline. Returns the
/// number of orders under which the cell moved (0 = stable). Prints one
/// summary line per cell, plus a detail line per moved order.
fn perturb_cell(
    app: AppId,
    cfg: &SuiteConfig,
    variant: Variant,
    machine: &Machine,
    adversarial: &[(&str, TieBreak)],
) -> usize {
    let base = match run_app(app, cfg, variant, machine) {
        Ok(run) => run,
        Err(e) => {
            println!("    perturb: baseline run failed: {e}");
            return 1;
        }
    };
    let mut moved = 0usize;
    for &(name, tb) in adversarial {
        match run_app(app, cfg, variant, &machine.clone().with_tie_break(tb)) {
            Ok(run) => {
                let identical = run.elapsed == base.elapsed
                    && run.checksum.to_bits() == base.checksum.to_bits();
                if !identical {
                    moved += 1;
                    println!(
                        "    perturb {name}: MOVED makespan {} -> {}, \
                         checksum {:?} -> {:?}",
                        base.elapsed, run.elapsed, base.checksum, run.checksum
                    );
                }
            }
            Err(e) => {
                moved += 1;
                println!("    perturb {name}: run failed: {e}");
            }
        }
    }
    if moved == 0 {
        println!(
            "    perturb: stable under {} adversarial order(s) (makespan {})",
            adversarial.len(),
            base.elapsed
        );
    }
    moved
}

/// The waiver table for `numagap check`: communication patterns the suite's
/// applications use *by design* that the sanitizer rightly reports for
/// unknown programs. Each entry documents why the pattern is benign here.
pub fn waived(app: AppId, variant: Variant, kind: DiagnosticKind) -> Option<&'static str> {
    let _ = variant;
    match (app, kind) {
        // TSP is a master/worker branch-and-bound: workers pull jobs from a
        // central queue with wildcard receives, and which worker gets which
        // job is intentionally timing-dependent. The result is made
        // deterministic by the pruning bound, not by message order.
        (AppId::Tsp, DiagnosticKind::MessageRace) => Some(
            "work-queue nondeterminism is inherent to branch-and-bound; \
                  the pruning bound makes the tour length order-independent",
        ),
        // Awari's distributed retrograde analysis exchanges batched updates
        // between peers with wildcard receives; update application is
        // commutative (min/max over game values), so arrival order is
        // immaterial.
        (AppId::Awari, DiagnosticKind::MessageRace) => Some(
            "retrograde-analysis updates commute (monotone min/max), \
                  so batch arrival order cannot change the fixpoint",
        ),
        // Water gathers position batches and force contributions from all
        // peers under one tag set. Batches are keyed by molecule index and
        // forces are summed — a commutative reduction — so which peer's
        // message matches first cannot change the result.
        (AppId::Water, DiagnosticKind::MessageRace) => Some(
            "position/force batches are keyed by molecule index and \
                  force accumulation is a commutative sum",
        ),
        // Barnes-Hut gathers per-step bounding boxes (a min/max reduction)
        // and body batches that carry their own indices; both are
        // order-insensitive by construction.
        (AppId::Barnes, DiagnosticKind::MessageRace) => Some(
            "bbox gather is a min/max reduction and body batches carry \
                  their own indices; arrival order is immaterial",
        ),
        // ASP receives pivot-row broadcasts under per-row tags (plus the
        // sequencer protocol) and buffers early rows until round k consumes
        // them, so interleaving across rows cannot alter the iteration.
        (AppId::Asp, DiagnosticKind::MessageRace) => Some(
            "pivot rows are keyed by their round tag and buffered until \
                  consumed in round order",
        ),
        // FFT's transpose receives one chunk per peer under a single tag and
        // scatters it by the sender rank the message carries.
        (AppId::Fft, DiagnosticKind::MessageRace) => Some(
            "transpose chunks are placed by sender rank, so match order \
                  is immaterial",
        ),
        _ => None,
    }
}
