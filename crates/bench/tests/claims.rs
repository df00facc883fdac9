//! The paper's Table 1, Table 2 and Figure 3 verdicts, each decided once: a
//! claim is the paper's sentence plus a check over the records of the
//! committed medium baselines. `baselines/medium/BENCH_fig3.json` holds
//! every pair at every point of the 7 × 6 grid on the 4x8 machine, and each
//! app's all-Myrinet 1x32 run; `baselines/medium/BENCH_table1.json` holds
//! each app's unoptimized run on one Myrinet cluster of 1, 8 and 32
//! processors. Their keys are disjoint, so the claims read them as one
//! list. Table 1's grain rows also read the 1x32 runs of the paper-scale
//! `baselines/paper/BENCH_fig3.json`. No simulation runs here.
//!
//! A check returns what it measured and whether the sentence holds. Its
//! threshold comes from the paper's words, never from the measured value:
//! - "good performance", "bridge" and "the bar" are the paper's 60 % of
//!   all-Myrinet speedup, read off each panel by `gap_thresholds` as
//!   `numagap predict` reads it;
//! - a gap is how many times slower than Myrinet (20 µs, 50 MB/s) a WAN
//!   setting is, and an order of magnitude of it is a factor of ten;
//! - "~x" holds within a factor of two of x;
//! - the paper's own numbers are [`TABLE1`], their only copy.
//!
//! The claims and the grain rows render as the tables between
//! EXPERIMENTS.md's `table1`, `table2-claims` and `fig3-claims` markers;
//! the test fails with the stale rows, each led by its app or claim id,
//! when a committed block differs. After a change that moves virtual time
//! on purpose, copy the fresh summaries over the committed ones, then
//! regenerate the blocks with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p numagap-bench --test claims
//! ```
//!
//! and commit both. A claim whose verdict flips becomes ✗ with its number.

use std::fmt::Write as _;
use std::path::PathBuf;

use numagap_apps::{pairs, AppId, Variant};
use numagap_bench::record::{BenchSummary, RunRecord};
use numagap_bench::targets::paper_grid;
use numagap_model::{gap_thresholds, GapThresholds};
use numagap_net::LinkParams;

const MEDIUM_FIG3: &str = "baselines/medium/BENCH_fig3.json";
const MEDIUM_TABLE1: &str = "baselines/medium/BENCH_table1.json";
const PAPER_FIG3: &str = "baselines/paper/BENCH_fig3.json";
const UNOPT: Variant = Variant::Unoptimized;
const OPT: Variant = Variant::Optimized;

/// One sentence of the paper and the check that decides it.
struct Claim {
    id: &'static str,
    paper: &'static str,
    check: fn(&[RunRecord]) -> (String, bool),
}

/// One program's row of the paper's Table 1: its speedup on one Myrinet
/// cluster of 32 and of 8 processors, and its traffic and runtime on 32.
struct PaperRow {
    app: AppId,
    speedup32: f64,
    speedup8: f64,
    mbs: f64,
    runtime_s: f64,
}

const fn paper_row(
    app: AppId,
    speedup32: f64,
    speedup8: f64,
    mbs: f64,
    runtime_s: f64,
) -> PaperRow {
    PaperRow {
        app,
        speedup32,
        speedup8,
        mbs,
        runtime_s,
    }
}

/// The paper's Table 1: speedup at 32p and 8p, traffic MB/s, runtime s.
const TABLE1: [PaperRow; 6] = [
    paper_row(AppId::Water, 31.2, 7.8, 3.8, 9.1),
    paper_row(AppId::Barnes, 28.4, 7.1, 17.8, 1.8),
    paper_row(AppId::Tsp, 29.2, 7.7, 0.52, 4.7),
    paper_row(AppId::Asp, 31.3, 7.8, 0.75, 6.0),
    paper_row(AppId::Awari, 7.8, 4.6, 4.1, 2.3),
    paper_row(AppId::Fft, 32.9, 5.3, 128.0, 0.26),
];

const TABLE1_CLAIMS: [Claim; 3] = [
    Claim {
        id: "table1.speedup",
        paper: "Every application except Awari runs efficiently on one cluster",
        check: speedups,
    },
    Claim {
        id: "table1.awari",
        paper: "Awari's single-cluster speedup is poor",
        check: awari_speedup,
    },
    Claim {
        id: "table1.traffic-order",
        paper: "FFT is by far the most traffic-intensive application, TSP the least",
        check: traffic_order,
    },
];

const TABLE2_CLAIMS: [Claim; 1] = [Claim {
    id: "table2.wan-messages",
    paper: "Each optimization reduces its program's inter-cluster communication",
    check: wan_messages,
}];

const FIG3_CLAIMS: [Claim; 10] = [
    Claim {
        id: "fig3.degrade",
        paper: "Unoptimized programs degrade sharply once the gap exceeds ~1 order of magnitude",
        check: degrade,
    },
    Claim {
        id: "fig3.water.bar",
        paper: "Water: optimization moves the 60 %-speedup bandwidth bar from ~1 MB/s to \
                ~0.1 MB/s (an order of magnitude)",
        check: water_bar,
    },
    Claim {
        id: "fig3.water.fast-links",
        paper: "Water: \"for the fastest inter-cluster links the unoptimized program is faster\"",
        check: water_fast_links,
    },
    Claim {
        id: "fig3.barnes",
        paper: "Barnes-Hut: similar improvements, overall performance lower",
        check: barnes,
    },
    Claim {
        id: "fig3.asp",
        paper: "ASP: good performance to 30 ms (vs 1 ms unoptimized); sharp bandwidth \
                sensitivity below 1 MB/s",
        check: asp,
    },
    Claim {
        id: "fig3.tsp",
        paper: "TSP: practically insensitive to bandwidth, sensitive to latency; ~25 % gain \
                from the distributed queue",
        check: tsp,
    },
    Claim {
        id: "fig3.awari",
        paper: "Awari: message combining more than doubles performance for latency up to \
                3.3 ms, given bandwidth",
        check: awari,
    },
    Claim {
        id: "fig3.fft",
        paper: "FFT: \"the 25 % point is not even reached\"",
        check: fft,
    },
    Claim {
        id: "fig3.headline",
        paper: "With 60 % as the bar, four of six applications bridge ~2 orders of magnitude \
                in bandwidth and ~3 in latency",
        check: headline,
    },
    Claim {
        id: "fig3.extremes",
        paper: "At extreme settings (0.03 MB/s or 300 ms) speedup drops below 25 % ≈ one \
                cluster's worth",
        check: extremes,
    },
];

fn record<'r>(recs: &'r [RunRecord], key: &str) -> &'r RunRecord {
    recs.iter()
        .find(|r| r.key == key)
        .unwrap_or_else(|| panic!("no record '{key}'"))
}

/// The pair's run at one grid point.
fn cell(recs: &[RunRecord], app: AppId, variant: Variant, lat: f64, bw: f64) -> &RunRecord {
    record(recs, &format!("{app}/{variant}/lat{lat}/bw{bw}"))
}

/// Relative speedup at one grid point: the pair's makespan as a percentage
/// of its app's all-Myrinet one, the y axis of every Figure 3 panel.
fn pct(recs: &[RunRecord], app: AppId, variant: Variant, lat: f64, bw: f64) -> f64 {
    100.0 * runtime_s(recs, app) / cell(recs, app, variant, lat, bw).virtual_s
}

/// Virtual seconds of the app's all-Myrinet 1x32 run.
fn runtime_s(recs: &[RunRecord], app: AppId) -> f64 {
    record(recs, &format!("baseline/{app}")).virtual_s
}

/// Bytes per second of virtual time on the app's all-Myrinet 1x32 run, as
/// Table 1's traffic column.
fn traffic_mbs(recs: &[RunRecord], app: AppId) -> f64 {
    let r = record(recs, &format!("baseline/{app}"));
    (r.intra_bytes + r.inter_bytes) as f64 / r.virtual_s / 1e6
}

/// The app's speedup on one Myrinet cluster of `procs` processors.
fn speedup(recs: &[RunRecord], app: AppId, procs: usize) -> f64 {
    record(recs, &format!("{app}/p1")).virtual_s
        / record(recs, &format!("{app}/p{procs}")).virtual_s
}

/// One panel, indexed `[latency][bandwidth]` over the grid, which lists
/// its best point (lowest latency, highest bandwidth) first.
fn panel(recs: &[RunRecord], app: AppId, variant: Variant) -> Vec<Vec<f64>> {
    let (lats, bws) = paper_grid(false);
    lats.iter()
        .map(|&lat| {
            bws.iter()
                .map(|&bw| pct(recs, app, variant, lat, bw))
                .collect()
        })
        .collect()
}

fn bars(recs: &[RunRecord], app: AppId, variant: Variant) -> GapThresholds {
    let (lats, bws) = paper_grid(false);
    gap_thresholds(&lats, &bws, &panel(recs, app, variant))
}

/// The largest (latency, bandwidth) gap at which the pair holds the bar;
/// 0 where even the grid's best point is under it.
fn gaps(t: GapThresholds) -> (f64, f64) {
    let lan = LinkParams::myrinet();
    let lan_ms = lan.latency.as_secs_f64() * 1e3;
    (
        t.latency_ms.map_or(0.0, |ms| ms / lan_ms),
        t.bandwidth_mbs
            .map_or(0.0, |mbs| lan.mbytes_per_sec() / mbs),
    )
}

/// "~x": within a factor of two of x.
fn about(measured: f64, paper: f64) -> bool {
    (0.5..=2.0).contains(&(measured / paper))
}

/// `x` to `digits` significant digits.
fn sig(x: f64, digits: u8) -> String {
    let decimals = (f64::from(digits) - 1.0 - x.abs().log10().floor()).clamp(0.0, 17.0);
    format!("{x:.*}", decimals as usize)
}

fn mark(holds: bool) -> char {
    if holds {
        '✓'
    } else {
        '✗'
    }
}

fn show(value: Option<f64>) -> String {
    value.map_or_else(|| "nowhere".to_string(), |v| v.to_string())
}

fn max(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::NEG_INFINITY, f64::max)
}

fn min(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// How many grid points `app`'s `first` variant is faster than its `second` at.
fn points_ahead(recs: &[RunRecord], app: AppId, first: Variant, second: Variant) -> usize {
    let (a, b) = (panel(recs, app, first), panel(recs, app, second));
    a.iter()
        .flatten()
        .zip(b.iter().flatten())
        .filter(|(x, y)| x > y)
        .count()
}

/// The sentence is about the unoptimized programs as a group (the paper
/// itself finds TSP bandwidth-insensitive): it holds when more than half
/// lose the bar before the gap reaches two orders of magnitude on one axis.
fn degrade(recs: &[RunRecord]) -> (String, bool) {
    let mut lost = 0;
    let mut each = Vec::new();
    for app in AppId::ALL {
        let (lat, bw) = gaps(bars(recs, app, UNOPT));
        let weaker = lat.min(bw);
        lost += usize::from(weaker < 100.0);
        each.push(format!("{app} {weaker:.0}×"));
    }
    let n = AppId::ALL.len();
    (
        format!(
            "{lost} of {n} fall under 60 % before a 100× gap; largest gap held on the weaker \
             axis: {}",
            each.join(", ")
        ),
        2 * lost > n,
    )
}

fn water_bar(recs: &[RunRecord]) -> (String, bool) {
    let (lats, _) = paper_grid(false);
    let at_bar = |variant| {
        let bw = bars(recs, AppId::Water, variant).bandwidth_mbs;
        let held = bw.map_or(String::new(), |bw| {
            format!(
                " MB/s ({:.1} %)",
                pct(recs, AppId::Water, variant, lats[0], bw)
            )
        });
        (bw, format!("{}{held}", show(bw)))
    };
    let ((unopt, unopt_text), (opt, opt_text)) = (at_bar(UNOPT), at_bar(OPT));
    (
        format!("unoptimized holds 60 % down to {unopt_text}, optimized down to {opt_text}"),
        unopt.is_some_and(|bw| about(bw, 1.0)) && opt.is_some_and(|bw| about(bw, 0.1)),
    )
}

fn water_fast_links(recs: &[RunRecord]) -> (String, bool) {
    let (lats, bws) = paper_grid(false);
    let ahead = points_ahead(recs, AppId::Water, UNOPT, OPT);
    let (u, o) = (
        pct(recs, AppId::Water, UNOPT, lats[0], bws[0]),
        pct(recs, AppId::Water, OPT, lats[0], bws[0]),
    );
    (
        format!(
            "{u:.1} % unoptimized vs {o:.1} % optimized at ({} ms, {} MB/s); unoptimized \
             ahead at {ahead} of {} points",
            lats[0],
            bws[0],
            lats.len() * bws.len()
        ),
        u > o,
    )
}

/// "Similar improvements": the optimized variant is ahead at most points,
/// as Water's is; "overall lower": its best point is below Water's.
fn barnes(recs: &[RunRecord]) -> (String, bool) {
    let (lats, bws) = paper_grid(false);
    let (ahead, n) = (
        points_ahead(recs, AppId::Barnes, OPT, UNOPT),
        lats.len() * bws.len(),
    );
    let peak = |app| {
        max([UNOPT, OPT]
            .into_iter()
            .flat_map(|v| panel(recs, app, v).into_iter().flatten()))
    };
    let (barnes, water) = (peak(AppId::Barnes), peak(AppId::Water));
    (
        format!(
            "optimized ahead at {ahead} of {n} points; peak {barnes:.1} % vs Water's {water:.1} %"
        ),
        2 * ahead > n && barnes < water,
    )
}

/// "Sharp bandwidth sensitivity below 1 MB/s": the optimized variant
/// loses the bar within the order of magnitude under 1 MB/s.
fn asp(recs: &[RunRecord]) -> (String, bool) {
    let (lats, _) = paper_grid(false);
    let (unopt, opt) = (bars(recs, AppId::Asp, UNOPT), bars(recs, AppId::Asp, OPT));
    let below = opt.bandwidth_mbs.map_or(String::new(), |bw| {
        format!(" ({:.1} %)", pct(recs, AppId::Asp, OPT, lats[0], bw))
    });
    (
        format!(
            "optimized holds 60 % to {} ms, unoptimized to {} ms; optimized's bandwidth bar is \
             {} MB/s{below}, and it is at {:.1} % at 0.1 MB/s",
            show(opt.latency_ms),
            show(unopt.latency_ms),
            show(opt.bandwidth_mbs),
            pct(recs, AppId::Asp, OPT, lats[0], 0.1),
        ),
        opt.latency_ms.is_some_and(|ms| ms >= 30.0)
            && unopt.latency_ms.is_some_and(|ms| about(ms, 1.0))
            && opt.bandwidth_mbs.is_some_and(|bw| bw > 0.1 && bw <= 1.0),
    )
}

/// "Practically insensitive to bandwidth, sensitive to latency": for each
/// variant, sweeping the bandwidth moves the speedup by less than a tenth
/// of what sweeping the latency does. The queue's gain is read where it
/// is largest on the latency axis, at the best bandwidth.
fn tsp(recs: &[RunRecord]) -> (String, bool) {
    let (lats, bws) = paper_grid(false);
    let mut insensitive = true;
    let mut moves = Vec::new();
    for variant in [UNOPT, OPT] {
        let p = panel(recs, AppId::Tsp, variant);
        let by_bw = max(p
            .iter()
            .map(|row| max(row.iter().copied()) - min(row.iter().copied())));
        let by_lat = p[0][0] - p[lats.len() - 1][0];
        insensitive &= by_bw < by_lat / 10.0;
        moves.push(format!("{variant} {by_bw:.1} vs {by_lat:.1}"));
    }
    let (lat, unopt, opt) = lats
        .iter()
        .map(|&lat| {
            let at = |v| pct(recs, AppId::Tsp, v, lat, bws[0]);
            (lat, at(UNOPT), at(OPT))
        })
        .max_by(|a, b| (a.2 - a.1).total_cmp(&(b.2 - b.1)))
        .expect("the grid has latencies");
    let gain = opt - unopt;
    (
        format!(
            "points moved by bandwidth vs by latency: {}; the queue gains {gain:.1} points at \
             {lat} ms ({unopt:.1} → {opt:.1} %)",
            moves.join(", ")
        ),
        insensitive && about(gain, 25.0),
    )
}

/// "Given bandwidth": at the grid's best bandwidth.
fn awari(recs: &[RunRecord]) -> (String, bool) {
    let (lats, bws) = paper_grid(false);
    let mut doubles = true;
    let mut each = Vec::new();
    for &lat in lats.iter().filter(|&&lat| lat <= 3.3) {
        let (u, o) = (
            pct(recs, AppId::Awari, UNOPT, lat, bws[0]),
            pct(recs, AppId::Awari, OPT, lat, bws[0]),
        );
        doubles &= o > 2.0 * u;
        each.push(format!("{u:.1} → {o:.1} % at {lat} ms ({:.2}×)", o / u));
    }
    (format!("at {} MB/s: {}", bws[0], each.join(", ")), doubles)
}

fn fft(recs: &[RunRecord]) -> (String, bool) {
    let (lats, bws) = paper_grid(false);
    let p = panel(recs, AppId::Fft, UNOPT);
    let (i, j) = (0..lats.len())
        .flat_map(|i| (0..bws.len()).map(move |j| (i, j)))
        .max_by(|&(a, b), &(c, d)| p[a][b].total_cmp(&p[c][d]))
        .expect("the grid has points");
    let reached = p.iter().flatten().filter(|&&x| x >= 25.0).count();
    (
        format!(
            "peaks at {:.1} % at ({} ms, {} MB/s); at or above 25 % at {reached} of {} points",
            p[i][j],
            lats[i],
            bws[j],
            lats.len() * bws.len()
        ),
        p[i][j] < 25.0,
    )
}

/// Each app with its optimizations (FFT has none) bridges N orders of
/// magnitude when it holds the bar at a gap of 10^N: 100× in bandwidth and
/// 1000× in latency (the paper's headline, as DESIGN.md §1 states it).
fn headline(recs: &[RunRecord]) -> (String, bool) {
    let mut bridge = Vec::new();
    let mut stop = Vec::new();
    for app in AppId::ALL {
        let variant = if app.has_optimized() { OPT } else { UNOPT };
        let t = bars(recs, app, variant);
        let (lat, bw) = gaps(t);
        if bw >= 100.0 && lat >= 1000.0 {
            bridge.push(app.to_string());
        } else {
            stop.push(format!(
                "{app} stops at {} ms ({lat:.0}×) and {} MB/s ({bw:.0}×)",
                show(t.latency_ms),
                show(t.bandwidth_mbs)
            ));
        }
    }
    (
        format!(
            "{} bridge both ({} of {}); {}",
            bridge.join(", "),
            bridge.len(),
            AppId::ALL.len(),
            stop.join(", ")
        ),
        bridge.len() == 4,
    )
}

fn extremes(recs: &[RunRecord]) -> (String, bool) {
    let (lats, bws) = paper_grid(false);
    let (worst_lat, worst_bw) = (lats[lats.len() - 1], bws[bws.len() - 1]);
    let mut edges = Vec::new();
    for (edge, points) in [
        (
            format!("{worst_bw} MB/s"),
            lats.iter().map(|&lat| (lat, worst_bw)).collect::<Vec<_>>(),
        ),
        (
            format!("{worst_lat} ms"),
            bws.iter().map(|&bw| (worst_lat, bw)).collect(),
        ),
    ] {
        let held: Vec<String> = pairs(&AppId::ALL, None)
            .into_iter()
            .filter_map(|(app, variant)| {
                let best = max(points
                    .iter()
                    .map(|&(lat, bw)| pct(recs, app, variant, lat, bw)));
                (best >= 25.0).then(|| format!("{app}/{variant} {best:.1} %"))
            })
            .collect();
        if !held.is_empty() {
            edges.push(format!("at {edge}: {}", held.join(", ")));
        }
    }
    if edges.is_empty() {
        return ("every pair under 25 % on both edges".to_string(), true);
    }
    (format!("at or above 25 %: {}", edges.join("; ")), false)
}

/// "Efficiently": ~the paper's speedup, at 32 and at 8 processors.
fn speedups(recs: &[RunRecord]) -> (String, bool) {
    let mut holds = true;
    let mut each = Vec::new();
    for row in TABLE1.iter().filter(|row| row.app != AppId::Awari) {
        let (s32, s8) = (speedup(recs, row.app, 32), speedup(recs, row.app, 8));
        holds &= about(s32, row.speedup32) && about(s8, row.speedup8);
        each.push(format!(
            "{} {:.2}×, {:.2}×",
            row.app,
            s32 / row.speedup32,
            s8 / row.speedup8
        ));
    }
    (
        format!(
            "measured ÷ paper speedup at 32p and 8p: {}",
            each.join("; ")
        ),
        holds,
    )
}

/// "Poor": ~the paper's Awari speedup at 32 processors.
fn awari_speedup(recs: &[RunRecord]) -> (String, bool) {
    let row = TABLE1
        .iter()
        .find(|row| row.app == AppId::Awari)
        .expect("Table 1 has Awari's row");
    let (s32, s8) = (speedup(recs, row.app, 32), speedup(recs, row.app, 8));
    (
        format!(
            "32p speedup {s32:.1} against the paper's {} ({:.1}×); 8p {s8:.1} against {}",
            row.speedup32,
            s32 / row.speedup32,
            row.speedup8
        ),
        about(s32, row.speedup32),
    )
}

/// Table 1's traffic column; "by far" is an order of magnitude above
/// Water's, as the paper's FFT is in [`TABLE1`].
fn traffic_order(recs: &[RunRecord]) -> (String, bool) {
    let rate = |app| traffic_mbs(recs, app);
    let rates: Vec<f64> = AppId::ALL.into_iter().map(rate).collect();
    let (fft, tsp, water) = (rate(AppId::Fft), rate(AppId::Tsp), rate(AppId::Water));
    (
        format!(
            "FFT {fft:.1} MB/s, {:.0}× Water's {water:.1}; TSP {tsp:.4} MB/s",
            fft / water
        ),
        fft == max(rates.iter().copied())
            && tsp == min(rates.iter().copied())
            && fft > 10.0 * water,
    )
}

/// Fewer inter-cluster messages than the unoptimized variant at every
/// grid point; the ratio is the optimized variant's count over the
/// unoptimized one's.
fn wan_messages(recs: &[RunRecord]) -> (String, bool) {
    let (lats, bws) = paper_grid(false);
    let n = lats.len() * bws.len();
    let mut holds = true;
    let mut each = Vec::new();
    for app in AppId::ALL.into_iter().filter(|app| app.has_optimized()) {
        let ratios: Vec<f64> = lats
            .iter()
            .flat_map(|&lat| bws.iter().map(move |&bw| (lat, bw)))
            .map(|(lat, bw)| {
                let msgs = |variant| cell(recs, app, variant, lat, bw).inter_msgs as f64;
                msgs(OPT) / msgs(UNOPT)
            })
            .collect();
        let fewer = ratios.iter().filter(|&&r| r < 1.0).count();
        holds &= fewer == n;
        let (lo, hi) = (
            format!("{:.3}", min(ratios.iter().copied())),
            format!("{:.3}", max(ratios.iter().copied())),
        );
        let range = if lo == hi { lo } else { format!("{lo}–{hi}") };
        let short = if fewer == n {
            String::new()
        } else {
            format!(" (fewer at {fewer} of {n})")
        };
        each.push(format!("{app} {range}{short}"));
    }
    (
        format!(
            "optimized ÷ unoptimized inter-cluster messages over the {n} points: {}",
            each.join(", ")
        ),
        holds,
    )
}

/// Table 1 beside what the committed baselines measure: speedups at
/// medium scale, and traffic and runtime of the all-Myrinet 1x32 run at
/// medium and at paper scale. The grain holds at a scale when its traffic
/// rate is ~the paper's; the ratio is measured over the paper's.
fn table1_rows(medium: &[RunRecord], paper: &[RunRecord]) -> String {
    let mut table = String::from(
        "| Program | Speedup 32p: paper / medium | Speedup 8p: paper / medium \
         | Traffic MB/s: paper / medium / paper scale \
         | Runtime s: paper / medium / paper scale | Grain at medium \
         | Grain at paper scale |\n|---|---|---|---|---|---|---|\n",
    );
    for row in &TABLE1 {
        let app = row.app;
        let grain = |recs| {
            let ratio = traffic_mbs(recs, app) / row.mbs;
            format!("{} {}×", mark(about(ratio, 1.0)), sig(ratio, 2))
        };
        // `{:?}` prints the paper's numbers as typed, 6.0 and not 6.
        writeln!(
            table,
            "| {app} | {:?} / {:.1} | {:?} / {:.1} | {:?} / {} / {} | {:?} / {} / {} | {} | {} |",
            row.speedup32,
            speedup(medium, app, 32),
            row.speedup8,
            speedup(medium, app, 8),
            row.mbs,
            sig(traffic_mbs(medium, app), 3),
            sig(traffic_mbs(paper, app), 3),
            row.runtime_s,
            sig(runtime_s(medium, app), 3),
            sig(runtime_s(paper, app), 3),
            grain(medium),
            grain(paper),
        )
        .unwrap();
    }
    table
}

/// Every record key of the full Figure 3 grid.
fn grid_keys() -> Vec<String> {
    let (lats, bws) = paper_grid(false);
    let mut keys: Vec<String> = AppId::ALL
        .iter()
        .map(|app| format!("baseline/{app}"))
        .collect();
    for (app, variant) in pairs(&AppId::ALL, None) {
        for lat in &lats {
            for bw in &bws {
                keys.push(format!("{app}/{variant}/lat{lat}/bw{bw}"));
            }
        }
    }
    keys
}

/// Every record key of the Table 1 sweep.
fn table1_keys() -> Vec<String> {
    AppId::ALL
        .iter()
        .flat_map(|app| [1, 8, 32].map(|p| format!("{app}/p{p}")))
        .collect()
}

/// The summary's records, if it is the full `target` sweep at `scale`.
fn checked<'s>(
    summary: &'s BenchSummary,
    target: &str,
    scale: &str,
) -> Result<&'s [RunRecord], String> {
    if summary.target != target || summary.scale != scale || summary.quick {
        return Err(format!(
            "the claims read the full {target} sweep at scale {scale}, not target {} at \
             scale {} (quick: {})",
            summary.target, summary.scale, summary.quick
        ));
    }
    let keys = if target == "fig3" {
        grid_keys()
    } else {
        table1_keys()
    };
    let missing: Vec<&str> = keys
        .iter()
        .filter(|key| !summary.records.iter().any(|r| &r.key == *key))
        .map(String::as_str)
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "the summary lacks {} of the {target} sweep's {} keys: {}",
            missing.len(),
            keys.len(),
            missing.join(", ")
        ));
    }
    Ok(&summary.records)
}

fn load(path: &str) -> BenchSummary {
    let full = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path);
    BenchSummary::load(&full).unwrap_or_else(|e| panic!("{path} loads: {e}"))
}

/// The records of one committed summary, checked to be its full sweep.
fn baseline(path: &str, target: &str, scale: &str) -> Vec<RunRecord> {
    let summary = load(path);
    checked(&summary, target, scale)
        .unwrap_or_else(|e| panic!("{path}: {e}"))
        .to_vec()
}

/// Both medium summaries' records, which the claims read as one list.
fn medium() -> Vec<RunRecord> {
    let mut recs = baseline(MEDIUM_FIG3, "fig3", "medium");
    recs.extend(baseline(MEDIUM_TABLE1, "table1", "medium"));
    recs
}

fn render(claims: &[Claim], recs: &[RunRecord]) -> String {
    let mut table = String::from("| id | Claim in paper | Measured |\n|---|---|---|\n");
    for claim in claims {
        let (measured, holds) = (claim.check)(recs);
        writeln!(
            table,
            "| {} | {} | {} {measured} |",
            claim.id,
            claim.paper,
            mark(holds)
        )
        .unwrap();
    }
    table
}

/// Each generated block of EXPERIMENTS.md: its marker name and its tables.
fn blocks(medium: &[RunRecord], paper: &[RunRecord]) -> [(&'static str, String); 3] {
    [
        (
            "table1",
            format!(
                "{}\n{}",
                table1_rows(medium, paper),
                render(&TABLE1_CLAIMS, medium)
            ),
        ),
        ("table2-claims", render(&TABLE2_CLAIMS, medium)),
        ("fig3-claims", render(&FIG3_CLAIMS, medium)),
    ]
}

/// `doc` with the text between the named block's markers replaced by `table`.
fn with_block(doc: &str, name: &str, table: &str) -> String {
    let begin = format!("<!-- begin generated: {name} -->\n");
    let end = format!("<!-- end generated: {name} -->");
    let start = doc
        .find(&begin)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has the {name} markers"))
        + begin.len();
    let stop = start + doc[start..].find(&end).expect("the end marker follows");
    format!("{}{table}{}", &doc[..start], &doc[stop..])
}

/// The lines of `a` that `b` lacks, each marked.
fn only_in(a: &str, b: &str, mark: char) -> String {
    let b: Vec<&str> = b.lines().collect();
    a.lines()
        .filter(|l| !b.contains(l))
        .map(|l| format!("{mark} {l}\n"))
        .collect()
}

#[test]
fn the_claims_blocks_match_the_medium_baseline() {
    let (medium, paper) = (medium(), baseline(PAPER_FIG3, "fig3", "paper"));
    let doc_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&doc_path).expect("read EXPERIMENTS.md");
    let fresh = blocks(&medium, &paper)
        .iter()
        .fold(doc.clone(), |doc, (name, block)| {
            with_block(&doc, name, block)
        });
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&doc_path, &fresh).expect("write EXPERIMENTS.md");
        return;
    }
    assert!(
        doc == fresh,
        "EXPERIMENTS.md's generated blocks are stale against {MEDIUM_FIG3}, {MEDIUM_TABLE1} \
         and {PAPER_FIG3}; regenerate with \
         `UPDATE_GOLDEN=1 cargo test -p numagap-bench --test claims` if the change is \
         intended:\n{}{}",
        only_in(&doc, &fresh, '-'),
        only_in(&fresh, &doc, '+'),
    );
}

/// Both medium sweeps run each app on the same all-Myrinet 1x32 machine.
#[test]
fn the_table1_32p_runs_are_the_fig3_baselines() {
    let recs = medium();
    for app in AppId::ALL {
        let (t1, f3) = (
            record(&recs, &format!("{app}/p32")),
            record(&recs, &format!("baseline/{app}")),
        );
        assert!(
            t1.virtual_s.to_bits() == f3.virtual_s.to_bits()
                && t1.checksum.to_bits() == f3.checksum.to_bits()
                && (t1.intra_bytes, t1.inter_bytes) == (f3.intra_bytes, f3.inter_bytes),
            "{app}: {app}/p32 of {MEDIUM_TABLE1} and baseline/{app} of {MEDIUM_FIG3} differ"
        );
    }
}

#[test]
fn a_moved_cell_flips_its_claim_and_the_diff_names_it() {
    let committed = medium();
    for (cell, factor, claims, id) in [
        // a 40 % faster unoptimized TSP at 300 ms
        (
            "TSP/unoptimized/lat300/bw6.3",
            0.6,
            &FIG3_CLAIMS[..],
            "fig3.tsp",
        ),
        // a serial Water run 2.5 times faster
        ("Water/p1", 0.4, &TABLE1_CLAIMS[..], "table1.speedup"),
    ] {
        let mut moved = committed.clone();
        moved
            .iter_mut()
            .find(|r| r.key == cell)
            .expect("the cell is in the baseline")
            .virtual_s *= factor;
        let claim = claims.iter().find(|c| c.id == id).unwrap();
        assert_ne!(
            (claim.check)(&committed).1,
            (claim.check)(&moved).1,
            "{cell} scaled by {factor} must flip {id}"
        );
        let diff = only_in(&render(claims, &moved), &render(claims, &committed), '+');
        assert!(
            diff.lines().any(|l| l.starts_with(&format!("+ | {id} | "))),
            "the stale row names its claim:\n{diff}"
        );
    }
}

#[test]
fn a_summary_off_the_medium_grid_is_refused_by_name() {
    for (path, target, cell, count) in [
        (MEDIUM_FIG3, "fig3", "Awari/optimized/lat30/bw0.3", 468),
        (MEDIUM_TABLE1, "table1", "Awari/p8", 18),
    ] {
        let mut short = load(path);
        short.records.retain(|r| r.key != cell);
        let err = checked(&short, target, "medium").unwrap_err();
        assert!(
            err.contains(cell) && err.contains(&format!("1 of the {target} sweep's {count}")),
            "{err}"
        );
        let mut quick = load(path);
        quick.quick = true;
        assert!(checked(&quick, target, "medium")
            .unwrap_err()
            .contains("quick: true"));
        let mut small = load(path);
        small.scale = "small".to_string();
        assert!(checked(&small, target, "medium")
            .unwrap_err()
            .contains("scale small"));
    }
    let fig3 = load(MEDIUM_FIG3);
    assert!(checked(&fig3, "table1", "medium")
        .unwrap_err()
        .contains("not target fig3"));
}
