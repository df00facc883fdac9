//! Uniform driver over the six applications, used by the benchmark harness,
//! the examples and the integration tests.

use std::fmt;

use numagap_net::NetStats;
use numagap_rt::{Machine, RunReport, TransportStats};
use numagap_sim::{KernelStats, Observer, SimDuration, SimError};

use crate::asp::{asp_rank, matrix_checksum, serial_asp, AspConfig};
use crate::awari::{awari_rank, serial_awari, AwariConfig};
use crate::barnes::{barnes_rank, serial_barnes, BarnesConfig};
use crate::common::{rel_err, total_checksum, total_work, RankOutput, Variant};
use crate::fft::{fft_rank, serial_fft, spectrum_checksum, FftConfig};
use crate::tsp::{serial_tsp, tsp_rank, TspConfig};
use crate::water::{serial_water, water_rank, WaterConfig};

/// The six applications of the paper's suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppId {
    /// n-squared molecular dynamics.
    Water,
    /// Barnes-Hut N-body.
    Barnes,
    /// Branch-and-bound TSP.
    Tsp,
    /// All-pairs shortest paths.
    Asp,
    /// Retrograde analysis.
    Awari,
    /// 1-D FFT.
    Fft,
}

impl AppId {
    /// All six, in the paper's Table 1 order.
    pub const ALL: [AppId; 6] = [
        AppId::Water,
        AppId::Barnes,
        AppId::Tsp,
        AppId::Asp,
        AppId::Awari,
        AppId::Fft,
    ];

    /// Whether the paper found a cluster-aware optimization for this app
    /// (false only for FFT).
    pub fn has_optimized(self) -> bool {
        self != AppId::Fft
    }

    /// The paper's Table 2 communication-pattern description.
    pub fn pattern(self) -> &'static str {
        match self {
            AppId::Water => "All to Half",
            AppId::Barnes => "BSP/Pers All to All",
            AppId::Tsp => "Centralized Work Queue",
            AppId::Asp => "Totally Ordered Broadcast",
            AppId::Awari => "Asynch Unordered Msg",
            AppId::Fft => "Pers All to All",
        }
    }

    /// The paper's Table 2 optimization description.
    pub fn optimization(self) -> &'static str {
        match self {
            AppId::Water => "Cluster Cache, Reduct Tree",
            AppId::Barnes => "BSP-msg Comb Node/Clus",
            AppId::Tsp => "Work Q/Cluster + Work Steal",
            AppId::Asp => "Sequencer Migration",
            AppId::Awari => "Msg Comb/Clus",
            AppId::Fft => "(none found)",
        }
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AppId::Water => "Water",
            AppId::Barnes => "Barnes-Hut",
            AppId::Tsp => "TSP",
            AppId::Asp => "ASP",
            AppId::Awari => "Awari",
            AppId::Fft => "FFT",
        };
        write!(f, "{name}")
    }
}

/// The variants the paper reports for an app (FFT has no optimized one).
pub fn variants(app: AppId) -> &'static [Variant] {
    if app.has_optimized() {
        &[Variant::Unoptimized, Variant::Optimized]
    } else {
        &[Variant::Unoptimized]
    }
}

/// The (app, variant) pairs the paper reports for `apps` (every app when
/// it is empty), keeping only `variant` when one is given.
pub fn pairs(apps: &[AppId], variant: Option<Variant>) -> Vec<(AppId, Variant)> {
    let apps = if apps.is_empty() {
        &AppId::ALL[..]
    } else {
        apps
    };
    apps.iter()
        .flat_map(|&app| {
            variants(app)
                .iter()
                .filter(move |&&v| variant.is_none_or(|want| want == v))
                .map(move |&v| (app, v))
        })
        .collect()
}

/// Problem-size scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Seconds-fast sizes for unit/integration tests.
    Small,
    /// Default benchmark sizes, grain-calibrated to the paper.
    Medium,
    /// The paper's own problem sizes (slow on a laptop).
    Paper,
}

impl Scale {
    /// Every scale, smallest first.
    const ALL: [Scale; 3] = [Scale::Small, Scale::Medium, Scale::Paper];

    /// The scale's name in flags, requests and artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Paper => "paper",
        }
    }

    /// The scale [`Scale::name`] gives `name`, if any (case-sensitive).
    pub fn from_name(name: &str) -> Option<Scale> {
        Scale::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// Per-app configurations at a given scale.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteConfig {
    /// Water configuration.
    pub water: WaterConfig,
    /// Barnes-Hut configuration.
    pub barnes: BarnesConfig,
    /// TSP configuration.
    pub tsp: TspConfig,
    /// ASP configuration.
    pub asp: AspConfig,
    /// Awari configuration.
    pub awari: AwariConfig,
    /// FFT configuration.
    pub fft: FftConfig,
}

impl SuiteConfig {
    /// Configurations for a scale.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Small => SuiteConfig {
                water: WaterConfig::small(),
                barnes: BarnesConfig::small(),
                tsp: TspConfig::small(),
                asp: AspConfig::small(),
                awari: AwariConfig::small(),
                fft: FftConfig::small(),
            },
            Scale::Medium => SuiteConfig {
                water: WaterConfig::medium(),
                barnes: BarnesConfig::medium(),
                tsp: TspConfig::medium(),
                asp: AspConfig::medium(),
                awari: AwariConfig::medium(),
                fft: FftConfig::medium(),
            },
            Scale::Paper => SuiteConfig {
                water: WaterConfig::paper(),
                barnes: BarnesConfig::paper(),
                tsp: TspConfig::paper(),
                asp: AspConfig::paper(),
                awari: AwariConfig::paper(),
                fft: FftConfig::paper(),
            },
        }
    }
}

/// Everything measured from one application run.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Which application ran.
    pub app: AppId,
    /// Which variant ran.
    pub variant: Variant,
    /// Virtual makespan.
    pub elapsed: SimDuration,
    /// Run checksum (must match the serial reference).
    pub checksum: f64,
    /// Total application work units.
    pub work: u64,
    /// Network traffic statistics.
    pub net: NetStats,
    /// Inter-cluster MByte/s per cluster (Figure 1's y-axis).
    pub inter_mbs_per_cluster: f64,
    /// Inter-cluster messages/s per cluster (Figure 1's x-axis).
    pub inter_msgs_per_cluster: f64,
    /// Whole-machine traffic in MByte/s (Table 1).
    pub total_mbs: f64,
    /// Injected WAN faults (drops + duplicates + delays); zero when the
    /// machine's spec carries no fault plan.
    pub faults_injected: u64,
    /// Whole-run kernel accounting (events, messages, bytes, faults) —
    /// deterministic per cell, recorded by the benchmark pipeline.
    pub kernel: KernelStats,
    /// Machine-wide reliable-transport counters; `None` when the machine ran
    /// without the transport.
    pub transport: Option<TransportStats>,
    /// The fault-plan seed the run executed under, if any — enough to replay
    /// the exact fault schedule.
    pub seed: Option<u64>,
}

/// The [`AppRun`] of one run's report, for a caller that needs the report
/// too: take what it keeps (its trace, say) out first.
pub fn summarize(app: AppId, variant: Variant, report: RunReport<RankOutput>) -> AppRun {
    let k = &report.kernel_stats;
    AppRun {
        app,
        variant,
        elapsed: report.elapsed,
        checksum: total_checksum(&report.results),
        work: total_work(&report.results),
        inter_mbs_per_cluster: report.inter_mbytes_per_sec_per_cluster(),
        inter_msgs_per_cluster: report.inter_msgs_per_sec_per_cluster(),
        total_mbs: report.total_mbytes_per_sec(),
        faults_injected: k.faults_dropped + k.faults_duplicated + k.faults_delayed,
        kernel: report.kernel_stats,
        transport: report.transport_totals(),
        seed: report.effective_seed(),
        net: report.net_stats,
    }
}

/// Runs one application on one machine and returns the machine's full
/// [`RunReport`], optionally with a kernel [`Observer`] borrowed for the run
/// — the hook the sanitizer, the trace writer, and the performance model use
/// to watch a run without perturbing it.
///
/// # Errors
///
/// Propagates simulator failures (deadlock, time limit, process panic).
pub fn run_app_report(
    app: AppId,
    cfg: &SuiteConfig,
    variant: Variant,
    machine: &Machine,
    observer: Option<&mut dyn Observer>,
) -> Result<RunReport<RankOutput>, SimError> {
    // An application's input (Awari has none) is generated here, once, and
    // every rank reads the one copy the entry closure owns.
    macro_rules! launch {
        ($field:ident, $rank:path $(, $input:ident)?) => {{
            let c = cfg.$field.clone();
            $(let $input = c.generate();)?
            match observer {
                Some(obs) => {
                    machine.run_observed(move |ctx| $rank(ctx, &c, $(&$input,)? variant), obs)
                }
                None => machine.run(move |ctx| $rank(ctx, &c, $(&$input,)? variant)),
            }
        }};
    }
    match app {
        AppId::Water => launch!(water, water_rank, molecules),
        AppId::Barnes => launch!(barnes, barnes_rank, bodies),
        AppId::Tsp => launch!(tsp, tsp_rank, dist),
        AppId::Asp => launch!(asp, asp_rank, matrix),
        AppId::Awari => launch!(awari, awari_rank),
        AppId::Fft => launch!(fft, fft_rank, signal),
    }
}

/// Runs one application on one machine.
///
/// # Errors
///
/// Propagates simulator failures (deadlock, time limit, process panic).
pub fn run_app(
    app: AppId,
    cfg: &SuiteConfig,
    variant: Variant,
    machine: &Machine,
) -> Result<AppRun, SimError> {
    let report = run_app_report(app, cfg, variant, machine, None)?;
    Ok(summarize(app, variant, report))
}

/// The serial-reference checksum for an application (exact expectation for
/// ASP/TSP/Awari; FFT/Water/Barnes need a floating-point tolerance).
pub fn serial_checksum(app: AppId, cfg: &SuiteConfig) -> f64 {
    match app {
        AppId::Water => serial_water(&cfg.water),
        AppId::Barnes => serial_barnes(&cfg.barnes),
        AppId::Tsp => serial_tsp(&cfg.tsp).0 as f64,
        AppId::Asp => matrix_checksum(&serial_asp(&cfg.asp)),
        AppId::Awari => serial_awari(&cfg.awari),
        AppId::Fft => spectrum_checksum(&serial_fft(&cfg.fft)),
    }
}

/// Checksum verification tolerance per app (0 = exact).
pub fn checksum_tolerance(app: AppId) -> f64 {
    match app {
        // Pure integer/combinatorial answers.
        AppId::Tsp => 0.0,
        // Deterministic f64 arithmetic with a fixed reduction order.
        AppId::Awari => 1e-12,
        AppId::Asp => 1e-12,
        // Parallel summation order differs from serial.
        AppId::Water | AppId::Fft => 1e-9,
        // Locally-essential-tree approximation differs from the serial
        // oracle by design (theta-level error).
        AppId::Barnes => 2e-2,
    }
}

/// Whether a parallel run's checksum `got` matches the serial reference
/// `want`: their relative difference is within the app's tolerance.
pub fn checksum_ok(app: AppId, got: f64, want: f64) -> bool {
    rel_err(got, want) <= checksum_tolerance(app).max(1e-15)
}

// The benchmark engine fans independent (app, variant, latency, bandwidth)
// cells across OS threads sharing one `SuiteConfig`; keep the shared run
// inputs and outputs thread-safe by construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SuiteConfig>();
    assert_send_sync::<AppRun>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use numagap_net::das_spec;

    #[test]
    fn every_app_verifies_on_a_cluster_machine() {
        let cfg = SuiteConfig::at(Scale::Small);
        let machine = Machine::new(das_spec(2, 2, 1.0, 2.0));
        for app in AppId::ALL {
            let expected = serial_checksum(app, &cfg);
            for variant in [Variant::Unoptimized, Variant::Optimized] {
                let run = run_app(app, &cfg, variant, &machine).unwrap();
                assert!(
                    checksum_ok(app, run.checksum, expected),
                    "{app}/{variant}: {} vs {expected}",
                    run.checksum
                );
            }
        }
    }

    #[test]
    fn table2_strings_exist() {
        for app in AppId::ALL {
            assert!(!app.pattern().is_empty());
            assert!(!app.optimization().is_empty());
        }
        assert!(!AppId::Fft.has_optimized());
        assert!(AppId::Water.has_optimized());
        // Eleven pairs: FFT has no optimized variant to select.
        assert_eq!(pairs(&[], None).len(), 11);
        assert_eq!(pairs(&[], Some(Variant::Optimized)).len(), 5);
        assert_eq!(
            pairs(&[AppId::Fft], None),
            [(AppId::Fft, Variant::Unoptimized)]
        );
        assert!(pairs(&[AppId::Fft], Some(Variant::Optimized)).is_empty());
    }

    #[test]
    fn scale_names_round_trip() {
        for scale in Scale::ALL {
            assert_eq!(Scale::from_name(scale.name()), Some(scale));
        }
        assert_eq!(
            Scale::ALL.map(Scale::name),
            ["small", "medium", "paper"],
            "the names artifacts and requests carry"
        );
    }

    #[test]
    fn unknown_scale_names_are_none() {
        for name in ["", "tiny", "Small", "PAPER", " small"] {
            assert_eq!(Scale::from_name(name), None, "{name:?}");
        }
    }

    #[test]
    fn display_names() {
        let names: Vec<String> = AppId::ALL.iter().map(|a| a.to_string()).collect();
        assert_eq!(names, ["Water", "Barnes-Hut", "TSP", "ASP", "Awari", "FFT"]);
    }
}
