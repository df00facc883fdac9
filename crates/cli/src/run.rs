//! The commands that run applications on one machine: `run`, `suite` and
//! `awari-db`.

use numagap_apps::{
    checksum_ok, run_app, run_app_report, serial_checksum, AppId, Scale, SuiteConfig, Variant,
};
use numagap_rt::Machine;

use crate::machine::{print_fault_seed, MachineArgs};
use crate::{EXIT_ERROR, EXIT_FINDINGS};

/// Flags of the `run` command.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Which application.
    pub app: AppId,
    /// Which variant.
    pub variant: Variant,
    /// Problem scale.
    pub scale: Scale,
    /// Machine shape.
    pub machine: MachineArgs,
    /// Verify the checksum against the serial reference.
    pub verify: bool,
    /// Write a Chrome trace JSON to this path.
    pub trace: Option<String>,
}

/// Executes the `awari-db` command.
pub(crate) fn execute_awari_db(stones: u32, machine: &MachineArgs) -> i32 {
    use numagap_apps::awari_board::{level_size, solve};
    use numagap_apps::awari_real::{awari_real_rank, serial_awari_real, AwariRealConfig};
    let cfg = AwariRealConfig {
        max_stones: stones,
        ..AwariRealConfig::small()
    };
    let db = solve(stones);
    println!("Awari endgame database (last-capture-wins variant), <= {stones} stones");
    println!(
        "{:>7} {:>10} {:>8} {:>8} {:>8}",
        "stones", "positions", "wins", "losses", "draws"
    );
    for s in 0..=stones {
        let (w, l, d) = db.level_counts(s);
        println!("{s:>7} {:>10} {w:>8} {l:>8} {d:>8}", level_size(s));
    }
    let serial = serial_awari_real(&cfg);
    let cfg2 = cfg.clone();
    let report = match machine
        .machine()
        .run(move |ctx| awari_real_rank(ctx, &cfg2))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simulation failed: {e}");
            return EXIT_ERROR;
        }
    };
    let parallel: f64 = report.results.iter().map(|r| r.checksum).sum();
    println!("\nparallel build:  {} virtual", report.elapsed);
    println!("wide-area load:  {} messages", report.net_stats.inter_msgs);
    if (parallel - serial).abs() < 1e-9 {
        println!("verification:    parallel database matches the serial solver");
        0
    } else {
        println!("verification:    MISMATCH ({parallel} vs {serial})");
        EXIT_FINDINGS
    }
}

/// Executes the `suite` command.
pub(crate) fn execute_suite(machine: &MachineArgs) -> i32 {
    let cfg = SuiteConfig::at(Scale::Small);
    let m = machine.machine();
    print_fault_seed(&m);
    println!(
        "{:<12} {:<12} {:>12} {:>12} {:>9}",
        "Program", "variant", "runtime", "WAN msgs", "verified"
    );
    let mut failures = 0;
    for app in AppId::ALL {
        let expected = serial_checksum(app, &cfg);
        for variant in [Variant::Unoptimized, Variant::Optimized] {
            match run_app(app, &cfg, variant, &m) {
                Ok(run) => {
                    let ok = checksum_ok(app, run.checksum, expected);
                    if !ok {
                        failures += 1;
                    }
                    println!(
                        "{:<12} {:<12} {:>12} {:>12} {:>9}",
                        app.to_string(),
                        variant.to_string(),
                        run.elapsed.to_string(),
                        run.net.inter_msgs,
                        if ok { "yes" } else { "NO" }
                    );
                }
                Err(e) => {
                    failures += 1;
                    println!("{app}/{variant} failed: {e}");
                }
            }
        }
    }
    if failures > 0 {
        EXIT_FINDINGS
    } else {
        0
    }
}

/// Executes the `run` command.
pub(crate) fn execute_run(args: RunArgs) -> i32 {
    let cfg = SuiteConfig::at(args.scale);
    let mut machine = args.machine.machine();
    if args.trace.is_some() {
        machine = machine.with_tracing();
    }
    let run = match run_app(args.app, &cfg, args.variant, &machine) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("simulation failed: {e}");
            return EXIT_ERROR;
        }
    };
    println!("app:        {} ({})", run.app, run.variant);
    println!("machine:    {}", machine.spec().topology.label());
    if let Some(seed) = run.seed {
        println!("seed:       {seed} (fault plan; reproduce with --seed {seed})");
    }
    println!("runtime:    {}", run.elapsed);
    println!(
        "traffic:    {} intra msgs, {} inter msgs, {} inter bytes",
        run.net.intra_msgs, run.net.inter_msgs, run.net.inter_payload_bytes
    );
    println!("checksum:   {:.6}", run.checksum);
    println!("work units: {}", run.work);
    if run.faults_injected > 0 {
        let t = run.transport.unwrap_or_default();
        println!(
            "faults:     {} injected; {} retransmit(s), {} duplicate(s) \
                     suppressed, goodput {:.1}%",
            run.faults_injected,
            t.retransmits,
            t.duplicates_suppressed,
            t.goodput() * 100.0
        );
    }
    if !run.net.wan_busy.is_empty() {
        let max_busy = run
            .net
            .wan_busy
            .iter()
            .map(|(_, _, b)| b.as_secs_f64())
            .fold(0.0f64, f64::max);
        println!(
            "WAN load:   busiest link {:.0}% of the makespan",
            100.0 * max_busy / run.elapsed.as_secs_f64().max(1e-30)
        );
    }
    let mut code = 0;
    if args.verify {
        let expected = serial_checksum(args.app, &cfg);
        if checksum_ok(args.app, run.checksum, expected) {
            println!("verify:     ok (serial reference {expected:.6})");
        } else {
            println!("verify:     FAILED (serial reference {expected:.6})");
            code = EXIT_FINDINGS;
        }
    }
    // A trace needs a dedicated traced run through Machine::run —
    // run_app does not thread traces — so rerun the app under
    // tracing when requested.
    if let Some(path) = args.trace {
        match trace_run(args.app, &cfg, args.variant, &machine) {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("failed to write trace {path}: {e}");
                    code = EXIT_ERROR;
                } else {
                    println!("trace:      {path}");
                }
            }
            Err(e) => {
                eprintln!("trace run failed: {e}");
                code = EXIT_ERROR;
            }
        }
    }
    code
}

fn trace_run(
    app: AppId,
    cfg: &SuiteConfig,
    variant: Variant,
    machine: &Machine,
) -> Result<String, numagap_sim::SimError> {
    let machine = machine.clone().with_tracing();
    let report = run_app_report(app, cfg, variant, &machine, None)?;
    Ok(report.trace.expect("tracing was enabled").to_chrome_json())
}
