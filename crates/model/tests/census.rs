//! The timing-independence census: does one recorded execution graph stand
//! for every network point?
//!
//! Replay re-costs a recording under another interconnect with its control
//! flow frozen: who computes how long, who sends what to whom, and which
//! message each receive consumes. That is exact only where the program's
//! behaviour does not depend on timing. This census records all 11
//! app/variant pairs at small scale on the 4x8 machine at the grid's two
//! corners, (0.5 ms, 6.3 MB/s) and (300 ms, 0.03 MB/s), on the full mesh and
//! on the ring, names every op of every rank by what it does —
//! `Compute(ns)`, `Send(dst, bytes)`, `Recv(src, bytes)` — and compares the
//! two corners rank by rank. Each pair and wiring falls in one class:
//!
//! - *clean*: every rank's op list is identical;
//! - *receive-order*: every rank computes and sends the same sequences and
//!   receives the same multiset, but some rank receives in another order;
//! - *few-ranks*: computes and op counts are equal on every rank, and the
//!   sends differ on 1 to nprocs/4 ranks;
//! - *adaptive*: anything else.
//!
//! `tests/golden/census.txt` holds each pair's class, how many ranks differ
//! in what, and the first differing op of each differing rank; EXPERIMENTS.md
//! holds the class table between its `census` markers. Both are rendered
//! here and compared byte for byte. After an intentional change, regenerate
//! both with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p numagap-model --test census
//! ```
//!
//! and commit the diff.

use std::fmt::Write as _;
use std::path::PathBuf;

use numagap_apps::{pairs, AppId, Scale, SuiteConfig, Variant};
use numagap_model::{record_app, CommDag, Op};
use numagap_net::{das_spec, WanTopology};
use numagap_rt::Machine;

/// The grid's friendliest and most hostile corners, (latency ms, MB/s).
const CORNERS: [(f64, f64); 2] = [(0.5, 6.3), (300.0, 0.03)];
const GOLDEN: &str = "census.txt";
const BEGIN: &str = "<!-- begin generated: census -->\n";
const END: &str = "<!-- end generated: census -->";

/// A recorded op named by what it does, not by its message sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Named {
    Compute(u64),
    Send(usize, u64),
    Recv(usize, u64),
}

fn named(dag: &CommDag) -> Vec<Vec<Named>> {
    let msg = |seq: u64| &dag.msgs[seq as usize];
    dag.ops
        .iter()
        .map(|ops| {
            ops.iter()
                .map(|op| match *op {
                    Op::Compute(d) => Named::Compute(d.as_nanos()),
                    Op::Send { seq } => Named::Send(msg(seq).dst.0, msg(seq).wire_bytes),
                    Op::Recv { seq } => Named::Recv(msg(seq).src.0, msg(seq).wire_bytes),
                })
                .collect()
        })
        .collect()
}

/// How one pair's op lists differ between the two corners on one wiring.
struct Comparison {
    class: &'static str,
    /// What the class rests on and on how many ranks, e.g. "sends on 4".
    detail: String,
    /// Ranks whose op counts, computes, sends, received multisets and
    /// receive orders differ.
    counts: [usize; 5],
    /// Each differing rank's first differing op: rank, index, near, far.
    first: Vec<(usize, usize, Option<Named>, Option<Named>)>,
}

fn compare(near: &[Vec<Named>], far: &[Vec<Named>]) -> Comparison {
    let only = |ops: &[Named], keep: fn(&Named) -> bool| -> Vec<Named> {
        ops.iter().copied().filter(keep).collect()
    };
    let computes = |ops: &[Named]| only(ops, |op| matches!(op, Named::Compute(_)));
    let sends = |ops: &[Named]| only(ops, |op| matches!(op, Named::Send(..)));
    let recvs = |ops: &[Named]| only(ops, |op| matches!(op, Named::Recv(..)));
    let sorted = |mut ops: Vec<Named>| {
        ops.sort_unstable();
        ops
    };
    let mut counts = [0; 5];
    let mut first = Vec::new();
    for (rank, (a, b)) in near.iter().zip(far).enumerate() {
        let differs = [
            a.len() != b.len(),
            computes(a) != computes(b),
            sends(a) != sends(b),
            sorted(recvs(a)) != sorted(recvs(b)),
            recvs(a) != recvs(b),
        ];
        for (count, differs) in counts.iter_mut().zip(differs) {
            *count += usize::from(differs);
        }
        if a != b {
            let at = (0..).find(|&i| a.get(i) != b.get(i)).expect("lists differ");
            first.push((rank, at, a.get(at).copied(), b.get(at).copied()));
        }
    }
    let [ops, computes, sends, received, order] = counts;
    let (class, detail) = if first.is_empty() {
        ("clean", String::new())
    } else if computes + sends + received == 0 {
        ("receive-order", format!("receive order on {order}"))
    } else if ops + computes == 0 && (1..=near.len() / 4).contains(&sends) {
        ("few-ranks", format!("sends on {sends}"))
    } else {
        let what = [
            ("op counts", ops),
            ("computes", computes),
            ("sends", sends),
            ("received messages", received),
        ];
        let (what, n) = what
            .into_iter()
            .find(|&(_, n)| n > 0)
            .expect("a difference");
        ("adaptive", format!("{what} on {n}"))
    };
    Comparison {
        class,
        detail,
        counts,
        first,
    }
}

/// Every pair on one wiring, recorded at both corners and compared.
fn census(ring: bool) -> Vec<((AppId, Variant), Comparison)> {
    let cfg = SuiteConfig::at(Scale::Small);
    let machines = CORNERS.map(|(latency, bandwidth)| {
        let spec = das_spec(4, 8, latency, bandwidth);
        Machine::new(match ring {
            true => spec.wan_topology(WanTopology::Ring),
            false => spec,
        })
    });
    pairs(&[], None)
        .into_iter()
        .map(|(app, variant)| {
            let [near, far] = machines.each_ref().map(|machine| {
                let (_, dag) = record_app(app, &cfg, variant, machine).expect("app runs");
                named(&dag)
            });
            ((app, variant), compare(&near, &far))
        })
        .collect()
}

fn show(op: Option<Named>) -> String {
    op.map_or_else(|| "end".to_string(), |op| format!("{op:?}"))
}

/// The golden file and the EXPERIMENTS.md table.
fn render() -> (String, String) {
    let [mesh, ring] = [false, true].map(census);
    let mut golden = String::from(
        "# pair wiring class; ranks whose op counts, computes, sends, received \
         messages, receive order differ\n\
         #   rank index: first differing op at (0.5 ms, 6.3 MB/s) | at (300 ms, 0.03 MB/s)\n",
    );
    for (wiring, rows) in [("mesh", &mesh), ("ring", &ring)] {
        for ((app, variant), c) in rows {
            let [a, b, s, r, o] = c.counts;
            writeln!(
                golden,
                "{app}/{variant} {wiring} {}; {a} {b} {s} {r} {o}",
                c.class
            )
            .unwrap();
            for &(rank, at, near, far) in &c.first {
                writeln!(
                    golden,
                    "  rank {rank} op {at}: {} | {}",
                    show(near),
                    show(far)
                )
                .unwrap();
            }
        }
    }
    let mut table =
        String::from("| pair | mesh | ring | ranks differing (mesh / ring) |\n|---|---|---|---|\n");
    for (((app, variant), m), (_, r)) in mesh.iter().zip(&ring) {
        let differing = match (m.detail.rsplit_once(' '), r.detail.rsplit_once(' ')) {
            (None, None) => "—".to_string(),
            (Some((what, a)), Some((same, b))) if what == same => format!("{what} {a} / {b}"),
            _ => format!("{} / {}", or_dash(&m.detail), or_dash(&r.detail)),
        };
        writeln!(
            table,
            "| {app}/{variant} | {} | {} | {differing} |",
            m.class, r.class
        )
        .unwrap();
    }
    (golden, table)
}

fn or_dash(detail: &str) -> &str {
    if detail.is_empty() {
        "—"
    } else {
        detail
    }
}

/// `doc` with the text between the census markers replaced by `table`.
fn with_table(doc: &str, table: &str) -> String {
    let start = doc
        .find(BEGIN)
        .expect("EXPERIMENTS.md has the census markers")
        + BEGIN.len();
    let end = start + doc[start..].find(END).expect("the end marker follows");
    format!("{}{table}{}", &doc[..start], &doc[end..])
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
fn the_census_matches_its_golden_and_experiments_md() {
    let (golden, table) = render();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let golden_path = dir.join("tests/golden").join(GOLDEN);
    let doc_path = dir.join("../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&doc_path).expect("read EXPERIMENTS.md");
    let fresh_doc = with_table(&doc, &table);
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&golden_path, &golden).expect("write the golden file");
        std::fs::write(&doc_path, &fresh_doc).expect("write EXPERIMENTS.md");
        return;
    }
    let committed = std::fs::read_to_string(&golden_path).unwrap_or_default();
    let regen = "regenerate with `UPDATE_GOLDEN=1 cargo test -p numagap-model --test census` \
                 if the change is intended";
    assert!(
        committed == golden,
        "the census moved from tests/golden/{GOLDEN}; {regen}:\n{}{}",
        only_in(&committed, &golden, '-'),
        only_in(&golden, &committed, '+'),
    );
    assert!(
        doc == fresh_doc,
        "EXPERIMENTS.md's census table is stale; {regen}:\n{}{}",
        only_in(&doc, &fresh_doc, '-'),
        only_in(&fresh_doc, &doc, '+'),
    );
}
