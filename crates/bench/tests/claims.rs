//! The paper's Figure 3 verdicts (and Table 1's traffic order), each
//! decided once: a claim is the paper's sentence plus a check over the
//! records of the committed medium baseline, `baselines/medium/BENCH_fig3.json`
//! — every pair at every point of the 7 × 6 grid on the 4x8 machine, and
//! each app's all-Myrinet 1x32 run. No simulation runs here.
//!
//! A check returns what it measured and whether the sentence holds. Its
//! threshold comes from the paper's words, never from the measured value:
//! - "good performance", "bridge" and "the bar" are the paper's 60 % of
//!   all-Myrinet speedup, read off each panel by `gap_thresholds` as
//!   `numagap predict` reads it;
//! - a gap is how many times slower than Myrinet (20 µs, 50 MB/s) a WAN
//!   setting is, and an order of magnitude of it is a factor of ten;
//! - "~x" holds within a factor of two of x.
//!
//! The claims render as the tables between EXPERIMENTS.md's `fig3-claims`
//! and `table1-claims` markers; the test fails with the stale rows, each
//! led by its claim id, when a committed block differs. After a change
//! that moves virtual time on purpose, copy the fresh medium summary over
//! the committed one, then regenerate the blocks with
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

const BASELINE: &str = "baselines/medium/BENCH_fig3.json";
const UNOPT: Variant = Variant::Unoptimized;
const OPT: Variant = Variant::Optimized;

/// One sentence of the paper and the check that decides it.
struct Claim {
    id: &'static str,
    paper: &'static str,
    check: fn(&[RunRecord]) -> (String, bool),
}

const FIG3: [Claim; 10] = [
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

const TABLE1: [Claim; 1] = [Claim {
    id: "table1.traffic-order",
    paper: "FFT is by far the most traffic-intensive application, TSP the least",
    check: traffic_order,
}];

/// Each generated block of EXPERIMENTS.md: its marker name and its claims.
const BLOCKS: [(&str, &[Claim]); 2] = [("fig3-claims", &FIG3), ("table1-claims", &TABLE1)];

fn record<'r>(recs: &'r [RunRecord], key: &str) -> &'r RunRecord {
    recs.iter()
        .find(|r| r.key == key)
        .unwrap_or_else(|| panic!("no record '{key}'"))
}

/// Relative speedup at one grid point: the pair's makespan as a percentage
/// of its app's all-Myrinet one, the y axis of every Figure 3 panel.
fn pct(recs: &[RunRecord], app: AppId, variant: Variant, lat: f64, bw: f64) -> f64 {
    let key = format!("{app}/{variant}/lat{lat}/bw{bw}");
    100.0 * record(recs, &format!("baseline/{app}")).virtual_s / record(recs, &key).virtual_s
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

/// Bytes per second of virtual time on the all-Myrinet run, as Table 1's
/// traffic column; "by far" is an order of magnitude above Water's (the
/// paper's Table 1 has 128 against 3.8 MB/s).
fn traffic_order(recs: &[RunRecord]) -> (String, bool) {
    let rate = |app: AppId| {
        let r = record(recs, &format!("baseline/{app}"));
        (r.intra_bytes + r.inter_bytes) as f64 / r.virtual_s / 1e6
    };
    let rates: Vec<f64> = AppId::ALL.iter().map(|&app| rate(app)).collect();
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

/// Every record key of the full medium Figure 3 grid.
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

/// The summary's records, if it is the full medium Figure 3 grid.
fn checked(summary: &BenchSummary) -> Result<&[RunRecord], String> {
    if summary.target != "fig3" || summary.scale != "medium" || summary.quick {
        return Err(format!(
            "the claims read the full medium Figure 3 grid, not target {} at scale {} \
             (quick: {})",
            summary.target, summary.scale, summary.quick
        ));
    }
    let keys = grid_keys();
    let missing: Vec<&str> = keys
        .iter()
        .filter(|key| !summary.records.iter().any(|r| &r.key == *key))
        .map(String::as_str)
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "the summary lacks {} of the grid's {} keys: {}",
            missing.len(),
            keys.len(),
            missing.join(", ")
        ));
    }
    Ok(&summary.records)
}

fn medium() -> BenchSummary {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(BASELINE);
    BenchSummary::load(&path).expect("the committed medium baseline loads")
}

fn render(claims: &[Claim], recs: &[RunRecord]) -> String {
    let mut table = String::from("| id | Claim in paper | Measured |\n|---|---|---|\n");
    for claim in claims {
        let (measured, holds) = (claim.check)(recs);
        let verdict = if holds { '✓' } else { '✗' };
        writeln!(
            table,
            "| {} | {} | {verdict} {measured} |",
            claim.id, claim.paper
        )
        .unwrap();
    }
    table
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
    let summary = medium();
    let recs = checked(&summary).unwrap_or_else(|e| panic!("{BASELINE}: {e}"));
    let doc_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&doc_path).expect("read EXPERIMENTS.md");
    let fresh = BLOCKS.iter().fold(doc.clone(), |doc, (name, claims)| {
        with_block(&doc, name, &render(claims, recs))
    });
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&doc_path, &fresh).expect("write EXPERIMENTS.md");
        return;
    }
    assert!(
        doc == fresh,
        "EXPERIMENTS.md's claims blocks are stale against {BASELINE}; regenerate with \
         `UPDATE_GOLDEN=1 cargo test -p numagap-bench --test claims` if the change is \
         intended:\n{}{}",
        only_in(&doc, &fresh, '-'),
        only_in(&fresh, &doc, '+'),
    );
}

#[test]
fn a_moved_cell_flips_its_claim_and_the_diff_names_it() {
    let committed = medium();
    let mut moved = committed.clone();
    let cell = "TSP/unoptimized/lat300/bw6.3";
    moved
        .records
        .iter_mut()
        .find(|r| r.key == cell)
        .expect("the cell is in the baseline")
        .virtual_s *= 0.6;
    let claim = FIG3.iter().find(|c| c.id == "fig3.tsp").unwrap();
    assert_ne!(
        (claim.check)(&committed.records).1,
        (claim.check)(&moved.records).1,
        "a 40 % faster unoptimized TSP at 300 ms must flip fig3.tsp"
    );
    let diff = only_in(
        &render(&FIG3, &moved.records),
        &render(&FIG3, &committed.records),
        '+',
    );
    assert!(
        diff.lines().any(|l| l.starts_with("+ | fig3.tsp | ")),
        "the stale row names its claim:\n{diff}"
    );
}

#[test]
fn a_summary_off_the_medium_grid_is_refused_by_name() {
    let mut short = medium();
    let cell = "Awari/optimized/lat30/bw0.3";
    short.records.retain(|r| r.key != cell);
    let err = checked(&short).unwrap_err();
    assert!(
        err.contains(cell) && err.contains("1 of the grid's 468"),
        "{err}"
    );
    let mut quick = medium();
    quick.quick = true;
    assert!(checked(&quick).unwrap_err().contains("quick: true"));
    let mut small = medium();
    small.scale = "small".to_string();
    assert!(checked(&small).unwrap_err().contains("scale small"));
}
