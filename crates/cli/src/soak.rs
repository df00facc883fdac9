//! The `soak` command: the suite swept across the fault/hostile scenario
//! matrix, every cell verified and reproducible from its printed command.

use numagap_apps::{
    checksum_ok, pairs, run_app, serial_checksum, AppId, Scale, SuiteConfig, Variant,
};
use numagap_bench::engine;
use numagap_net::HeteroPreset;
use numagap_sim::SimDuration;

use crate::flags::{self, Values};
use crate::machine::{MachineArgs, ScheduleArg};
use crate::EXIT_FINDINGS;

/// The seed a sweep counts up from when `--seed` does not say.
pub(crate) const FIRST_SEED: u64 = 1;

/// One (app, variant, hetero, schedule, cross-traffic, intensity, seed)
/// soak cell, with the fault-free makespan its outage window is derived
/// from.
struct SoakCell {
    app: AppId,
    variant: Variant,
    hetero: HeteroPreset,
    shape: ScheduleArg,
    cross: f64,
    intensity: f64,
    seed: u64,
    clean: SimDuration,
}

impl SoakCell {
    /// The machine the cell runs on: the sweep's `base` with the cell's
    /// hostile dimensions and seed, plus the fault plan `soak` generates
    /// from the intensity and — on more than one cluster, unless
    /// `no_outage` — an outage of gateway 1 parked mid-run. The cell's
    /// plans share the cell seed, so one `--seed` reproduces faults,
    /// cross-traffic and schedule alike.
    fn machine(&self, base: &MachineArgs, no_outage: bool) -> MachineArgs {
        let ms = |ns: u64| ns as f64 / 1e6;
        let t = self.clean.as_nanos();
        let planted = !no_outage && base.clusters > 1;
        MachineArgs {
            hetero: self.hetero,
            schedule: self.shape,
            cross_traffic: self.cross,
            seed: Some(self.seed),
            drop: self.intensity,
            duplicate: self.intensity / 2.0,
            reorder: self.intensity / 2.0,
            outages: Vec::from_iter(planted.then(|| (1, ms(t * 3 / 10), ms(t / 2)))),
            ..base.clone()
        }
    }

    /// The sweep's command line `line` narrowed to this one cell.
    fn command_line(&self, line: &[String]) -> String {
        let pins = [
            ("--app", self.app.to_string().to_ascii_lowercase()),
            ("--variant", self.variant.to_string()),
            ("--hetero", self.hetero.to_string()),
            ("--schedule", self.shape.to_string()),
            ("--cross-traffic", self.cross.to_string()),
            ("--seed", self.seed.to_string()),
            ("--intensities", self.intensity.to_string()),
            ("--seeds", "1".to_string()),
        ];
        flags::pin(line, &pins).join(" ")
    }
}

/// The sweep's machine without any plan: the sweep owns the fault,
/// cross-traffic and schedule plans, so its base machine carries none. The
/// interference-free probes run on it.
fn base_machine(machine: &MachineArgs) -> MachineArgs {
    MachineArgs {
        seed: None,
        drop: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
        outages: Vec::new(),
        cross_traffic: 0.0,
        schedule: ScheduleArg::None,
        ..machine.clone()
    }
}

/// Runs one soak cell; returns the table line plus any failure records
/// (already formatted with their reproduction command line).
fn run_soak_cell(
    args: &Values,
    cfg: &SuiteConfig,
    base: &MachineArgs,
    expected: f64,
    cell: &SoakCell,
) -> (String, Vec<String>) {
    let SoakCell {
        app,
        variant,
        hetero,
        shape,
        cross,
        intensity,
        seed,
        ..
    } = *cell;
    let machine = cell
        .machine(base, args.no_outage)
        .machine()
        .time_limit(SimDuration::from_secs(args.timeout_s));
    let failure = |problem: String| {
        format!(
            "{app}/{variant} hetero={hetero} schedule={shape} cross={cross} \
             intensity={intensity} seed={seed}: {problem}\n    reproduce: numagap soak {}",
            cell.command_line(&args.line)
        )
    };
    let (app_s, var_s) = (app.to_string(), variant.to_string());
    let (het_s, shape_s) = (hetero.to_string(), shape.to_string());
    let run = match run_app(app, cfg, variant, &machine) {
        Ok(run) => run,
        Err(e) => {
            let line = format!(
                "{app_s:<8} {var_s:<12} {het_s:>9} {shape_s:>8} {cross:>6} \
                 {intensity:>9} {seed:>6} {:>14} {:>7} {:>8} {:>8}  FAILED: {e}",
                "-", "-", "-", "-"
            );
            return (line, vec![failure(e.to_string())]);
        }
    };
    let mut problems: Vec<String> = Vec::new();
    if !checksum_ok(app, run.checksum, expected) {
        problems.push(format!(
            "checksum {} drifted from serial {expected}",
            run.checksum
        ));
    }
    if args.repro {
        match run_app(app, cfg, variant, &machine) {
            Ok(replay) => {
                if replay.elapsed != run.elapsed
                    || replay.checksum != run.checksum
                    || replay.faults_injected != run.faults_injected
                    || replay.transport != run.transport
                {
                    problems.push(format!(
                        "seed {seed} did not replay identically \
                         ({} vs {}, {} vs {} faults)",
                        replay.elapsed, run.elapsed, replay.faults_injected, run.faults_injected
                    ));
                }
            }
            Err(e) => problems.push(format!("replay failed: {e}")),
        }
    }
    let stats = run.transport.unwrap_or_default();
    let verdict = if problems.is_empty() { "ok" } else { "FAILED" };
    let line = format!(
        "{app_s:<8} {var_s:<12} {het_s:>9} {shape_s:>8} {cross:>6} \
         {intensity:>9} {seed:>6} {:>14} {:>7} {:>8} {:>7.1}%  {verdict}",
        run.elapsed.to_string(),
        run.faults_injected,
        stats.retransmits,
        stats.goodput() * 100.0
    );
    (line, problems.into_iter().map(failure).collect())
}

/// The sweep's (app, variant, hetero) triples, in canonical order: the
/// paper's variants of each selected app, times the hetero presets.
pub(crate) fn triples(args: &Values) -> Vec<(AppId, Variant, HeteroPreset)> {
    pairs(&args.apps, args.variant)
        .into_iter()
        .flat_map(|(app, variant)| args.hetero.iter().map(move |&h| (app, variant, h)))
        .collect()
}

/// Executes the `soak` command: (app, variant) pairs x hetero presets x
/// schedule shapes x cross-traffic levels x fault intensities x seeds,
/// each cell verified against the serial reference and (with `--repro`)
/// replayed to prove the seed reproduces the exact hostile schedule.
///
/// Cells are independent deterministic simulations, so they fan across the
/// experiment engine's worker pool (`--jobs`); the table and the failure
/// list are rendered in canonical cell order regardless of worker count.
/// The problem size defaults to small.
pub(crate) fn execute_soak(args: &Values) -> i32 {
    let jobs = args.jobs.unwrap_or_else(engine::default_jobs);
    let cfg = SuiteConfig::at(args.scale.unwrap_or(Scale::Small));
    let apps: Vec<AppId> = if args.apps.is_empty() {
        AppId::ALL.to_vec()
    } else {
        args.apps.clone()
    };
    let base_seed = args.machine.seed.unwrap_or(FIRST_SEED);
    let base = base_machine(&args.machine);
    let triples = triples(args);
    let scenarios_per_triple = args.schedules.len() as u64
        * args.cross_traffic.len() as u64
        * args.intensities.len() as u64;
    let total = triples.len() as u64 * scenarios_per_triple * args.seeds;
    println!(
        "soak: {} app/variant pair(s) x {} hetero x {} schedule(s) x {} cross level(s) \
         x {:?} x {} seed(s) from {} = {} cell(s) on {}, {jobs} worker(s)",
        triples.len() / args.hetero.len(),
        args.hetero.len(),
        args.schedules.len(),
        args.cross_traffic.len(),
        args.intensities,
        args.seeds,
        base_seed,
        total,
        base.topology().label()
    );
    println!(
        "{:<8} {:<12} {:>9} {:>8} {:>6} {:>9} {:>6} {:>14} {:>7} {:>8} {:>8}  verdict",
        "app",
        "variant",
        "hetero",
        "schedule",
        "cross",
        "intensity",
        "seed",
        "runtime",
        "faults",
        "retrans",
        "goodput"
    );
    // Serial references (one per app) and interference-free probes (one per
    // triple): independent cells themselves, so they use the pool too. The
    // probe fixes each triple's expected makespan and tells us where mid-run
    // is, so the planted outage window actually bites.
    let expected: Vec<f64> =
        engine::run_cells(&apps, jobs, None, |_, &app| serial_checksum(app, &cfg));
    let probes = engine::run_cells(&triples, jobs, None, |_, &(app, variant, hetero)| {
        let probe = MachineArgs {
            hetero,
            ..base.clone()
        };
        run_app(app, &cfg, variant, &probe.machine())
            .map(|run| run.elapsed)
            .map_err(|e| e.to_string())
    });
    // Enumerate the hostile cells in canonical order; triples whose probe
    // failed contribute no cells (their failure is reported below).
    let mut cells: Vec<SoakCell> = Vec::new();
    for (&(app, variant, hetero), probe) in triples.iter().zip(&probes) {
        if let Ok(clean) = probe {
            for &shape in &args.schedules {
                for &cross in &args.cross_traffic {
                    for &intensity in &args.intensities {
                        for k in 0..args.seeds {
                            cells.push(SoakCell {
                                app,
                                variant,
                                hetero,
                                shape,
                                cross,
                                intensity,
                                seed: base_seed + k,
                                clean: *clean,
                            });
                        }
                    }
                }
            }
        }
    }
    let outcomes = engine::run_cells(&cells, jobs, Some("soak"), |_, cell| {
        let idx = apps
            .iter()
            .position(|&a| a == cell.app)
            .expect("app listed");
        run_soak_cell(args, &cfg, &base, expected[idx], cell)
    });
    // Render the table and collect failures in canonical cell order.
    let mut failures: Vec<String> = Vec::new();
    let mut ran = 0u64;
    let per_triple = (scenarios_per_triple * args.seeds) as usize;
    let mut at = 0usize;
    for (&(app, variant, hetero), probe) in triples.iter().zip(&probes) {
        match probe {
            Err(e) => {
                println!(
                    "{:<8} {:<12} {:>9} clean probe failed: {e}",
                    app.to_string(),
                    variant.to_string(),
                    hetero.to_string()
                );
                failures.push(format!(
                    "{app}/{variant} hetero={hetero}: clean probe failed: {e}"
                ));
            }
            Ok(_) => {
                for (line, cell_failures) in &outcomes[at..at + per_triple] {
                    ran += 1;
                    println!("{line}");
                    failures.extend(cell_failures.iter().cloned());
                }
                at += per_triple;
            }
        }
    }
    if failures.is_empty() {
        println!("soak passed: {ran} cell(s) clean");
        0
    } else {
        println!("\nFAILED {} of {ran} cell(s):", failures.len());
        for f in &failures {
            println!("  {f}");
        }
        EXIT_FINDINGS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, Command};

    fn soak_values(argv: &[&str]) -> Values {
        match parse(argv).unwrap_or_else(|e| panic!("{argv:?}: {e}")) {
            Command::Execute(spec, v) if spec.name == "soak" => *v,
            other => panic!("expected soak, got {other:?}"),
        }
    }

    #[test]
    fn a_failing_cell_prints_a_line_that_rebuilds_its_machine() {
        // A zero-second limit fails every cell. The sweep lists two values
        // on the dimensions a cell pins; the cell is the second of each.
        let sweep = soak_values(&[
            "soak",
            "--app",
            "fft",
            "--app",
            "asp",
            "--scale",
            "small",
            "--clusters",
            "2,1",
            "--intensities",
            "0.05,0.1",
            "--seeds",
            "2",
            "--seed",
            "5",
            "--hetero",
            "uniform,slow-home",
            "--cross-traffic",
            "0,0.3",
            "--schedule",
            "none,step",
            "--jitter",
            "0.2",
            "--timeout",
            "0",
            "--repro",
            "--jobs",
            "3",
        ]);
        let cell = SoakCell {
            app: AppId::Fft,
            variant: Variant::Unoptimized,
            hetero: HeteroPreset::SlowHome,
            shape: ScheduleArg::Step,
            cross: 0.3,
            intensity: 0.1,
            seed: 6,
            clean: SimDuration::from_millis(40),
        };
        let cfg = SuiteConfig::at(Scale::Small);
        let base = base_machine(&sweep.machine);
        let (line, failures) = run_soak_cell(&sweep, &cfg, &base, 0.0, &cell);
        assert!(line.contains("FAILED"), "{line}");
        let printed = failures[0]
            .split_once("reproduce: numagap ")
            .expect("a reproduce line")
            .1;
        let argv: Vec<&str> = printed.split(' ').collect();
        for flag in ["--jitter", "--timeout", "--repro", "--seed"] {
            assert!(argv.contains(&flag), "{flag} missing from: {printed}");
        }
        // Pasted back, the line is a sweep of exactly this cell.
        let again = soak_values(&argv);
        assert_eq!(again.apps, [cell.app], "{printed}");
        assert_eq!(again.variant, Some(cell.variant));
        assert_eq!(again.hetero, [cell.hetero]);
        assert_eq!(again.schedules, [cell.shape]);
        assert_eq!(again.cross_traffic, [cell.cross]);
        assert_eq!(again.intensities, [cell.intensity]);
        assert_eq!((again.machine.seed, again.seeds), (Some(cell.seed), 1));
        let rebuilt = base_machine(&again.machine);
        let ran = cell.machine(&base, sweep.no_outage);
        assert_eq!(cell.machine(&rebuilt, again.no_outage), ran, "{printed}");
        assert_eq!(cell.machine(&rebuilt, again.no_outage).spec(), ran.spec());
        assert_eq!((again.timeout_s, again.repro), (sweep.timeout_s, true));
        let plan = ran.spec().fault_plan.expect("planned");
        assert_eq!(plan.gateway_outages.len(), 1);
    }
}
