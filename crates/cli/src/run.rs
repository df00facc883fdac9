//! The commands that run applications on one machine: `run` and `suite`.

use numagap_apps::{
    checksum_ok, pairs, run_app, run_app_report, serial_checksum, summarize, Scale, SuiteConfig,
    Variant,
};
use numagap_sim::{Observer, Tracer};

use crate::flags::Values;
use crate::machine::print_fault_seed;
use crate::{EXIT_ERROR, EXIT_FINDINGS};

/// Executes the `suite` command.
pub(crate) fn execute_suite(args: &Values) -> i32 {
    let cfg = SuiteConfig::at(Scale::Small);
    let m = args.machine.machine();
    print_fault_seed(&m);
    println!(
        "{:<12} {:<12} {:>12} {:>12} {:>9}",
        "Program", "variant", "runtime", "WAN msgs", "verified"
    );
    let mut failures = 0;
    for (app, variant) in pairs(&[], None) {
        match run_app(app, &cfg, variant, &m) {
            Ok(run) => {
                let ok = checksum_ok(app, run.checksum, serial_checksum(app, &cfg));
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
    if failures > 0 {
        EXIT_FINDINGS
    } else {
        0
    }
}

/// Executes the `run` command: the one application `--app` names, the
/// optimized variant and the medium scale unless the flags say otherwise.
pub(crate) fn execute_run(args: &Values) -> i32 {
    let app = args.apps[0];
    let variant = args.variant.unwrap_or(Variant::Optimized);
    let cfg = SuiteConfig::at(args.scale.unwrap_or(Scale::Medium));
    let machine = args.machine.machine();
    let mut tracer = args
        .trace
        .as_ref()
        .map(|_| Tracer::new(machine.spec().topology.nprocs()));
    let observer = tracer.as_mut().map(|t| t as &mut dyn Observer);
    let run = match run_app_report(app, &cfg, variant, &machine, observer) {
        Ok(report) => summarize(app, variant, report),
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
        let expected = serial_checksum(app, &cfg);
        if checksum_ok(app, run.checksum, expected) {
            println!("verify:     ok (serial reference {expected:.6})");
        } else {
            println!("verify:     FAILED (serial reference {expected:.6})");
            code = EXIT_FINDINGS;
        }
    }
    if let (Some(path), Some(tracer)) = (&args.trace, tracer) {
        if let Err(e) = std::fs::write(path, tracer.finish().to_chrome_json()) {
            eprintln!("failed to write trace {path}: {e}");
            code = EXIT_ERROR;
        } else {
            println!("trace:      {path}");
        }
    }
    code
}
