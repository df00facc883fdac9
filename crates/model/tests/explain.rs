//! Golden explanations: the critical-path tiling and the analytic bound of
//! every app/variant pair, pinned on single-hop and multi-hop wide-area
//! wiring.
//!
//! Each row records one pair on the 4x8 machine at small scale, replays the
//! recording at its own spec (identity replay, bit-exact against the run),
//! walks the critical path of that replay and compiles the analytic
//! envelope. The row holds the replayed makespan, every [`PathBreakdown`]
//! field and the bound at the recording's own `(latency, bandwidth)` with
//! the envelope's candidate count. The rows cover the two golden WAN
//! presets on the full mesh, and the slow preset on the ring and on the
//! pod-2 fat tree, whose routes cross two and four wide-area hops: the
//! paths where the critical-path split and the bound's hop counts differ
//! from the mesh.
//!
//! `tests/golden/explain.txt` is compared byte for byte. After an
//! intentional change, regenerate it with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p numagap-model --test explain
//! ```
//!
//! and commit the diff.

use std::fmt::Write as _;
use std::path::PathBuf;

use numagap_apps::{pairs, Scale, SuiteConfig};
use numagap_model::{critical_path, record_app, replay, AnalyticModel, PathBreakdown};
use numagap_net::{das_spec, WanTopology};
use numagap_rt::Machine;

const GOLDEN: &str = "explain.txt";

/// `(preset, latency ms, bandwidth MByte/s, wiring)`, the presets as
/// `numagap-sim`'s golden makespans name them.
const MACHINES: [(&str, f64, f64, WanTopology); 4] = [
    ("wan-fast", 0.5, 6.3, WanTopology::FullMesh),
    ("wan-slow", 10.0, 1.0, WanTopology::FullMesh),
    ("wan-slow", 10.0, 1.0, WanTopology::Ring),
    ("wan-slow", 10.0, 1.0, WanTopology::FatTree { pod: 2 }),
];

fn render() -> String {
    let cfg = SuiteConfig::at(Scale::Small);
    let mut out = String::from(
        "# preset wiring pair: makespan | total compute send_overhead recv_overhead intra \
         inter_latency inter_bandwidth gateway queueing path_msgs path_inter_msgs | \
         bound ncandidates (ns)\n",
    );
    for (preset, lat, bw, wiring) in MACHINES {
        let machine = Machine::new(das_spec(4, 8, lat, bw).wan_topology(wiring));
        for (app, variant) in pairs(&[], None) {
            let (run, dag) = record_app(app, &cfg, variant, &machine).expect("app runs");
            let timed = replay(&dag, &dag.base_spec);
            assert_eq!(
                timed.elapsed,
                run.elapsed,
                "{preset} {} {app}/{variant}: identity replay diverged",
                wiring.flag()
            );
            let PathBreakdown {
                total,
                compute,
                send_overhead,
                recv_overhead,
                intra,
                inter_latency,
                inter_bandwidth,
                gateway,
                queueing,
                path_msgs,
                path_inter_msgs,
            } = critical_path(&dag, &dag.base_spec, &timed);
            let model = AnalyticModel::compile(&dag);
            let ns = |d: numagap_sim::SimDuration| d.as_nanos();
            writeln!(
                out,
                "{preset} {} {app}/{variant}: {} | {} {} {} {} {} {} {} {} {} {path_msgs} \
                 {path_inter_msgs} | {} {}",
                wiring.flag(),
                ns(timed.elapsed),
                ns(total),
                ns(compute),
                ns(send_overhead),
                ns(recv_overhead),
                ns(intra),
                ns(inter_latency),
                ns(inter_bandwidth),
                ns(gateway),
                ns(queueing),
                ns(model.bound(lat, bw)),
                model.ncandidates(),
            )
            .unwrap();
        }
    }
    out
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
fn explanations_match_their_golden() {
    let fresh = render();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(GOLDEN);
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&path, &fresh).expect("write the golden file");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_default();
    assert!(
        committed == fresh,
        "the explanations moved from tests/golden/{GOLDEN}; regenerate with \
         `UPDATE_GOLDEN=1 cargo test -p numagap-model --test explain` if the change is \
         intended:\n{}{}",
        only_in(&committed, &fresh, '-'),
        only_in(&fresh, &committed, '+'),
    );
}
