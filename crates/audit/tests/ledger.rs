//! The line ledger: `LINES.md` at the repository root holds the code and
//! test lines of every crate and top-level tree, counted by
//! [`numagap_audit::code_lines`]. This test recomputes the table and fails
//! with the changed rows when the committed file is stale, so every PR
//! carries its own growth in its diff. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p numagap-audit --test ledger`.
//!
//! Left out: `benchmark/` (a benchmark-only PR may touch nothing else, so it
//! could not update the ledger), and `ROADMAP.md`, `CHANGES.md`, `ISSUE.md`
//! and `LINES.md` itself, which are rewritten outside PRs or are the ledger.

use std::fs;
use std::path::{Path, PathBuf};

use numagap_audit::code_lines;

const HEADER: &str = "\
# Line ledger

Code and test lines per crate and tree: non-blank lines once comments and
string contents are blanked, split at `#[cfg(test)]` items, with every file
under a `tests/` directory counted as test (`numagap_audit::code_lines`).
Docs count non-blank lines. `crates/audit/tests/ledger.rs` fails when this
file is stale; regenerate it with
`UPDATE_GOLDEN=1 cargo test -p numagap-audit --test ledger`.
";

/// Sorted entries of `dir` (none if it does not exist).
fn entries(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .map(|rd| rd.map(|e| e.unwrap().path()).collect())
        .unwrap_or_default();
    paths.sort();
    paths
}

fn add((code, test): (usize, usize), (c, t): (usize, usize)) -> (usize, usize) {
    (code + c, test + t)
}

/// (code, test) lines of every `.rs` file under `dir`, recursively.
fn tree(dir: &Path) -> (usize, usize) {
    entries(dir).iter().fold((0, 0), |sum, path| {
        if path.is_dir() {
            add(sum, tree(path))
        } else if path.extension().is_some_and(|e| e == "rs") {
            add(sum, code_lines(&fs::read_to_string(path).unwrap()))
        } else {
            sum
        }
    })
}

/// (code, test) lines of a package directory: `src/` split at
/// `#[cfg(test)]`, and everything under `tests/` counted as test.
fn package(dir: &Path) -> (usize, usize) {
    let (code, test) = tree(&dir.join("src"));
    let (c, t) = tree(&dir.join("tests"));
    (code, test + c + t)
}

fn ledger(root: &Path) -> String {
    let mut rows: Vec<(String, (usize, usize))> = Vec::new();
    for dir in entries(&root.join("crates")) {
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        rows.push((format!("crates/{name}"), package(&dir)));
    }
    rows.push(("src/".into(), tree(&root.join("src"))));
    let (c, t) = tree(&root.join("tests"));
    rows.push(("tests/".into(), (0, c + t)));
    rows.push(("examples/".into(), tree(&root.join("examples"))));
    let rust = rows.iter().fold((0, 0), |sum, (_, row)| add(sum, *row));
    rows.push(("**Rust** (crates, src/, tests/, examples/)".into(), rust));
    let shims = entries(&root.join("shims"))
        .iter()
        .fold((0, 0), |sum, dir| add(sum, package(dir)));
    rows.push(("shims/".into(), shims));

    let mut out = format!("{HEADER}\n| tree | code | test |\n|---|---:|---:|\n");
    for (name, (code, test)) in &rows {
        out += &format!("| {name} | {code} | {test} |\n");
    }
    out += "\n| doc | lines |\n|---|---:|\n";
    let docs = ["README.md", "DESIGN.md", "EXPERIMENTS.md"].map(|d| root.join(d));
    let more = entries(&root.join("docs"));
    let mut total = 0;
    for doc in docs.iter().chain(&more) {
        if doc.extension().is_none_or(|e| e != "md") {
            continue;
        }
        let text = fs::read_to_string(doc).unwrap();
        let lines = text.lines().filter(|l| !l.trim().is_empty()).count();
        total += lines;
        let name = doc.strip_prefix(root).unwrap().to_string_lossy();
        out += &format!("| {name} | {lines} |\n");
    }
    out + &format!("| **docs** | {total} |\n")
}

#[test]
fn line_ledger_is_current() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("LINES.md");
    let fresh = ledger(&root);
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        fs::write(&path, &fresh).unwrap();
        return;
    }
    let committed = fs::read_to_string(&path).unwrap_or_default();
    let only_in = |a: &str, b: &str, mark: char| -> String {
        let b: Vec<&str> = b.lines().collect();
        a.lines()
            .filter(|l| !b.contains(l))
            .map(|l| format!("{mark} {l}\n"))
            .collect()
    };
    assert!(
        committed == fresh,
        "LINES.md is stale; regenerate it with \
         `UPDATE_GOLDEN=1 cargo test -p numagap-audit --test ledger`:\n{}{}",
        only_in(&committed, &fresh, '-'),
        only_in(&fresh, &committed, '+'),
    );
}
