//! Doc citations: every repository path a document names must exist. The
//! scan reads README.md, DESIGN.md, EXPERIMENTS.md and `docs/*.md`, and
//! requires that
//!
//! * every backticked path that starts with a top-level tree (`crates/`,
//!   `tests/`, `examples/`, `benchmark/`, `docs/`, `src/`, `shims/`) names
//!   a file or directory relative to the repository root, so a
//!   crate-relative `tests/alloc.rs` fails: two crates have one;
//! * every relative markdown link names a file that exists and, with a
//!   `#fragment`, a heading of that file;
//! * every `file.rs:N` citation names exactly one file, and a line it has.
//!
//! A path holding `*` or `<` is a placeholder (`crates/*/src`,
//! `BENCH_<name>.json`) and is skipped. Fenced blocks hold command lines,
//! not citations, and are skipped too.

use std::fs;
use std::path::{Path, PathBuf};

const TREES: [&str; 7] = [
    "crates/",
    "tests/",
    "examples/",
    "benchmark/",
    "docs/",
    "src/",
    "shims/",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `text` with every fenced block blanked to its newlines, so offsets and
/// line numbers stay those of the file.
fn prose(text: &str) -> String {
    text.split("```")
        .enumerate()
        .map(|(i, part)| match i % 2 {
            0 => part.to_string(),
            _ => "\n".repeat(part.matches('\n').count()),
        })
        .collect::<Vec<_>>()
        .join("   ")
}

/// The line of byte offset `at`, counted from 1.
fn line_of(text: &str, at: usize) -> usize {
    text[..at].matches('\n').count() + 1
}

/// GitHub's anchor for a heading: lower case, spaces to `-`, and nothing
/// but letters, digits, `-` and `_` kept.
fn slug(heading: &str) -> String {
    heading
        .trim()
        .to_lowercase()
        .chars()
        .filter_map(|c| match c {
            ' ' => Some('-'),
            c if c.is_alphanumeric() || c == '-' || c == '_' => Some(c),
            _ => None,
        })
        .collect()
}

/// The anchors of a markdown file's headings.
fn anchors(markdown: &str) -> Vec<String> {
    prose(markdown)
        .lines()
        .filter_map(|l| l.strip_prefix('#'))
        .map(|l| slug(l.trim_start_matches('#')))
        .collect()
}

/// The digits `s` starts with.
fn number(s: &str) -> &str {
    s.find(|c: char| !c.is_ascii_digit())
        .map_or(s, |end| &s[..end])
}

/// Every `.rs` file under the trees, as a path relative to the root.
fn rust_files(root: &Path, dir: &str, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(root.join(dir)) else {
        return;
    };
    for entry in entries {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let path = format!("{dir}{name}");
        if root.join(&path).is_dir() {
            if name != "target" {
                rust_files(root, &format!("{path}/"), out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// What is wrong with the citations of document `doc` (a path relative to
/// `root`) whose text is `markdown`: one line per problem, empty when none.
fn problems(root: &Path, doc: &str, markdown: &str) -> Vec<String> {
    let text = prose(markdown);
    let mut found = Vec::new();

    let mut at = 0;
    for (i, span) in text.split('`').enumerate() {
        if i % 2 == 1
            && TREES.iter().any(|t| span.starts_with(t))
            && !span.contains(char::is_whitespace)
            && !span.contains(['*', '<'])
            && !root.join(span.split(':').next().unwrap()).exists()
        {
            let line = line_of(&text, at);
            found.push(format!(
                "{doc}:{line}: `{span}` is not a path from the repository root"
            ));
        }
        at += span.len() + 1;
    }

    let dir = Path::new(doc).parent().unwrap();
    for (at, _) in text.match_indices("](") {
        let link = &text[at + 2..];
        let link = &link[..link.find(')').unwrap_or(link.len())];
        if link.contains("://") || link.starts_with("mailto:") {
            continue;
        }
        let (file, fragment) = link.split_once('#').unwrap_or((link, ""));
        let target = root.join(dir).join(file);
        let line = line_of(&text, at);
        if !target.exists() {
            found.push(format!("{doc}:{line}: link {link} names nothing"));
            continue;
        }
        if !fragment.is_empty() {
            let md = match file {
                "" => markdown.to_string(),
                _ => fs::read_to_string(&target).unwrap(),
            };
            if !anchors(&md).iter().any(|a| a == fragment) {
                found.push(format!("{doc}:{line}: link {link} names no heading"));
            }
        }
    }

    let mut files = Vec::new();
    for tree in TREES {
        rust_files(root, tree, &mut files);
    }
    for (at, _) in text.match_indices(".rs:") {
        let start = text[..at]
            .rfind(|c: char| !(c.is_alphanumeric() || "_./-".contains(c)))
            .map_or(0, |s| s + 1);
        let cited = &text[start..at + 3];
        let first = number(&text[at + 4..]);
        if first.is_empty() {
            continue;
        }
        // A range `N-M` must end inside the file too.
        let last = text[at + 4 + first.len()..]
            .strip_prefix('-')
            .map_or("", number);
        let wanted = first
            .parse::<usize>()
            .unwrap()
            .max(last.parse().unwrap_or(0));
        let matches: Vec<&String> = files
            .iter()
            .filter(|f| *f == cited || f.ends_with(&format!("/{cited}")))
            .collect();
        let line = line_of(&text, at);
        match matches[..] {
            [file] => {
                if wanted > fs::read_to_string(root.join(file)).unwrap().lines().count() {
                    found.push(format!(
                        "{doc}:{line}: {cited}:{wanted} is past the end of {file}"
                    ));
                }
            }
            [] => found.push(format!("{doc}:{line}: {cited} names no file")),
            _ => found.push(format!(
                "{doc}:{line}: {cited} names {} files",
                matches.len()
            )),
        }
    }
    found
}

#[test]
fn every_path_link_and_line_a_document_cites_exists() {
    let root = root();
    let mut docs: Vec<String> = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        .map(String::from)
        .into();
    for entry in fs::read_dir(root.join("docs")).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if name.ends_with(".md") {
            docs.push(format!("docs/{name}"));
        }
    }
    assert!(docs.len() > 4, "docs/ holds no markdown: {docs:?}");
    let found: Vec<String> = docs
        .iter()
        .flat_map(|doc| problems(&root, doc, &fs::read_to_string(root.join(doc)).unwrap()))
        .collect();
    assert!(found.is_empty(), "stale citations:\n{}", found.join("\n"));
}

#[test]
fn the_scan_finds_each_kind_of_stale_citation() {
    let text = "\
# Top heading

`crates/audit/tests/ledger.rs`, `crates/audit/`, `crates/*/src` and
`crates/bench/baselines/BENCH_<name>.json` resolve or are placeholders;
`tests/alloc.rs` and `docs/gone.md` do not.
[up](../README.md), [here](#top-heading), [there](ARCHITECTURE.md) and
[web](https://example.org) resolve; [gone](nowhere.md) and
[lost](README.md#no-such-heading) do not.
ledger.rs:1 and crates/audit/tests/ledger.rs:2-3 hold; ledger.rs:99999,
alloc.rs:1 (two crates have one) and nowhere.rs:1 do not.

```sh
cat tests/nowhere.rs  # a command line, not a citation
```
";
    assert_eq!(
        problems(&root(), "docs/README.md", text),
        [
            "docs/README.md:5: `tests/alloc.rs` is not a path from the repository root",
            "docs/README.md:5: `docs/gone.md` is not a path from the repository root",
            "docs/README.md:7: link nowhere.md names nothing",
            "docs/README.md:8: link README.md#no-such-heading names no heading",
            "docs/README.md:9: ledger.rs:99999 is past the end of crates/audit/tests/ledger.rs",
            "docs/README.md:10: alloc.rs names 2 files",
            "docs/README.md:10: nowhere.rs names no file",
        ]
    );
}
