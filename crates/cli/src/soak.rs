//! The `soak` command: the suite swept across the fault/hostile scenario
//! matrix, every cell verified and reproducible from its printed command.

use numagap_apps::{checksum_ok, run_app, serial_checksum, AppId, Scale, SuiteConfig, Variant};
use numagap_bench::engine;
use numagap_net::HeteroPreset;
use numagap_sim::SimDuration;

use crate::flags::{self, Values};
use crate::machine::{MachineArgs, ScheduleArg};
use crate::EXIT_FINDINGS;

/// Flags of the `soak` command.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakArgs {
    /// Applications to soak (all six when empty).
    pub apps: Vec<AppId>,
    /// Soak only this variant (both when unset).
    pub variant: Option<Variant>,
    /// Problem scale.
    pub scale: Scale,
    /// Machine shape; its `--seed` is the sweep's base seed and its
    /// drop/duplicate/reorder flags are superseded by `--intensities`.
    pub machine: MachineArgs,
    /// Fault intensities to sweep: each cell runs with `drop = i`,
    /// `duplicate = i/2`, `reorder = i/2`.
    pub intensities: Vec<f64>,
    /// Cross-traffic intensities to sweep (`--cross-traffic 0,0.4`);
    /// `[0.0]` keeps the classic fault-only matrix.
    pub cross_traffic: Vec<f64>,
    /// WAN-quality schedule shapes to sweep (`--schedule none,step`).
    pub schedules: Vec<ScheduleArg>,
    /// Heterogeneity presets to sweep (`--hetero uniform,slow-home`).
    pub hetero: Vec<HeteroPreset>,
    /// Seeds per (app, intensity) cell, counting up from the base seed.
    pub seeds: u64,
    /// Re-run every cell with the same seed and require a bit-identical
    /// replay (schedule, virtual time, transport traffic).
    pub repro: bool,
    /// Virtual-time limit per cell in seconds; a cell that exceeds it is a
    /// hang and fails the soak.
    pub timeout_s: u64,
    /// Skip the mid-run gateway outage that is otherwise planted from each
    /// app's fault-free timing probe.
    pub no_outage: bool,
    /// Worker threads for the sweep's cells (available parallelism when
    /// unset). Cell outputs stay in canonical order.
    pub jobs: Option<usize>,
}

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
    /// The sweep narrowed to this one cell, as the flag values of the
    /// `soak` command that runs it alone; `base` is the sweep's machine
    /// without any plan. The cell's hostile plans share the cell seed, so
    /// the one seed of the printed command reproduces faults,
    /// cross-traffic and schedule alike.
    fn narrowed(&self, args: &SoakArgs, base: &MachineArgs) -> Values {
        Values {
            apps: vec![self.app],
            variant: Some(self.variant),
            scale: Some(args.scale),
            machine: MachineArgs {
                hetero: self.hetero,
                schedule: self.shape,
                cross_traffic: self.cross,
                seed: Some(self.seed),
                ..base.clone()
            },
            intensities: vec![self.intensity],
            seeds: 1,
            repro: args.repro,
            timeout_s: args.timeout_s,
            no_outage: args.no_outage,
            ..flags::defaults()
        }
    }

    /// The machine the cell runs on: the narrowed sweep's, plus the fault
    /// plan `soak` generates from the intensity and — on more than one
    /// cluster — an outage of gateway 1 parked mid-run.
    fn machine(&self, narrowed: &Values) -> MachineArgs {
        let ms = |ns: u64| ns as f64 / 1e6;
        let t = self.clean.as_nanos();
        let planted = !narrowed.no_outage && narrowed.machine.clusters > 1;
        MachineArgs {
            drop: self.intensity,
            duplicate: self.intensity / 2.0,
            reorder: self.intensity / 2.0,
            outages: Vec::from_iter(planted.then(|| (1, ms(t * 3 / 10), ms(t / 2)))),
            ..narrowed.machine.clone()
        }
    }
}

/// The sweep's machine without any plan: the sweep owns the fault,
/// cross-traffic and schedule plans, so its base machine carries none. The
/// interference-free probes run on it.
fn base_machine(args: &SoakArgs) -> MachineArgs {
    MachineArgs {
        seed: None,
        drop: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
        outages: Vec::new(),
        cross_traffic: 0.0,
        schedule: ScheduleArg::None,
        ..args.machine.clone()
    }
}

/// Runs one soak cell; returns the table line plus any failure records
/// (already formatted with their reproduction command line).
fn run_soak_cell(
    args: &SoakArgs,
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
    let narrowed = cell.narrowed(args, base);
    let machine = cell
        .machine(&narrowed)
        .machine()
        .time_limit(SimDuration::from_secs(args.timeout_s));
    let failure = |problem: String| {
        format!(
            "{app}/{variant} hetero={hetero} schedule={shape} cross={cross} \
             intensity={intensity} seed={seed}: {problem}\n    reproduce: numagap soak {}",
            flags::render("soak", &narrowed).join(" ")
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

/// Executes the `soak` command: apps x variants x hetero presets x
/// schedule shapes x cross-traffic levels x fault intensities x seeds,
/// each cell verified against the serial reference and (with `--repro`)
/// replayed to prove the seed reproduces the exact hostile schedule.
///
/// Cells are independent deterministic simulations, so they fan across the
/// experiment engine's worker pool (`--jobs`); the table and the failure
/// list are rendered in canonical cell order regardless of worker count.
pub fn execute_soak(args: &SoakArgs) -> i32 {
    let jobs = args.jobs.unwrap_or_else(engine::default_jobs);
    let cfg = SuiteConfig::at(args.scale);
    let apps: Vec<AppId> = if args.apps.is_empty() {
        AppId::ALL.to_vec()
    } else {
        args.apps.clone()
    };
    let base_seed = args.machine.seed.unwrap_or(1);
    let base = base_machine(args);
    let variants: Vec<Variant> = match args.variant {
        Some(v) => vec![v],
        None => vec![Variant::Unoptimized, Variant::Optimized],
    };
    let mut triples: Vec<(AppId, Variant, HeteroPreset)> = Vec::new();
    for &app in &apps {
        for &variant in &variants {
            for &hetero in &args.hetero {
                triples.push((app, variant, hetero));
            }
        }
    }
    let scenarios_per_triple = args.schedules.len() as u64
        * args.cross_traffic.len() as u64
        * args.intensities.len() as u64;
    let total = triples.len() as u64 * scenarios_per_triple * args.seeds;
    println!(
        "soak: {} app(s) x {} variant(s) x {} hetero x {} schedule(s) x {} cross level(s) \
         x {:?} x {} seed(s) from {} = {} cell(s) on {}, {jobs} worker(s)",
        apps.len(),
        variants.len(),
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

    fn soak_args(argv: &[&str]) -> SoakArgs {
        match parse(argv).unwrap() {
            Command::Soak(args) => args,
            other => panic!("expected soak, got {other:?}"),
        }
    }

    #[test]
    fn a_failing_cell_prints_a_line_that_rebuilds_its_machine() {
        // A zero-second limit fails the cell; the jitter is the flag the
        // hand-written line used to forget (with the limit itself).
        let args = soak_args(&[
            "soak",
            "--app",
            "fft",
            "--variant",
            "opt",
            "--scale",
            "small",
            "--clusters",
            "2,1",
            "--intensities",
            "0.1",
            "--seeds",
            "1",
            "--seed",
            "5",
            "--hetero",
            "slow-home",
            "--cross-traffic",
            "0.3",
            "--schedule",
            "step",
            "--jitter",
            "0.2",
            "--timeout",
            "0",
            "--repro",
            "--jobs",
            "3",
        ]);
        let cell = |a: &SoakArgs| SoakCell {
            app: a.apps[0],
            variant: a.variant.expect("given"),
            hetero: a.hetero[0],
            shape: a.schedules[0],
            cross: a.cross_traffic[0],
            intensity: a.intensities[0],
            seed: a.machine.seed.expect("given"),
            clean: SimDuration::from_millis(40),
        };
        let ran = |a: &SoakArgs| {
            let c = cell(a);
            c.machine(&c.narrowed(a, &base_machine(a)))
        };
        let cfg = SuiteConfig::at(args.scale);
        let (line, failures) = run_soak_cell(&args, &cfg, &base_machine(&args), 0.0, &cell(&args));
        assert!(line.contains("FAILED"), "{line}");
        let printed = failures[0]
            .split_once("reproduce: numagap ")
            .expect("a reproduce line")
            .1;
        let argv: Vec<&str> = printed.split(' ').collect();
        for flag in ["--jitter", "--timeout", "--repro", "--seed"] {
            assert!(argv.contains(&flag), "{flag} missing from: {printed}");
        }
        let again = soak_args(&argv);
        assert_eq!(ran(&again), ran(&args), "{printed}");
        assert_eq!(ran(&again).spec(), ran(&args).spec());
        assert_eq!(again.timeout_s, args.timeout_s);
        assert_eq!(again.seeds, 1);
        assert!(again.repro);
        assert!(
            ran(&args)
                .spec()
                .fault_plan
                .expect("planned")
                .gateway_outages
                .len()
                == 1
        );
    }
}
