//! # numagap-audit — determinism static-analysis pass
//!
//! The simulator's claim to fame is bit-identical virtual time: same
//! program, same spec, same seed ⇒ same makespan, on any machine, under
//! any host schedule, and — since the kernel's canonical transfer booking —
//! under adversarial event-tiebreak orders too. That property is easy to
//! lose with one innocuous line: iterate a `HashMap` into a message, read
//! the wall clock into a decision, reach for an unseeded RNG. This crate is
//! the cheap static tripwire against that class of regression.
//!
//! It is deliberately a *token-level* scanner, not a `rustc` plugin: no
//! type information, no proc-macro stack, nothing that can drift out of
//! sync with the compiler. The price is imprecision, which is paid down two
//! ways:
//!
//! * rules are scoped (some fire only in the determinism-critical crates
//!   whose state feeds virtual time), and
//! * intentional uses carry an entry in the [`WAIVERS`] table — mirroring
//!   the application-level waiver table of `numagap check` — each with the
//!   reason the pattern is benign at that site.
//!
//! Comments, string literals, `tests/` trees, `#[cfg(test)]` /
//! `#[cfg(all(test, …))]` blocks and the files such a `mod name;` declares
//! are excluded before any rule runs, so a doc sentence mentioning
//! `HashMap` or a test that sleeps cannot trip the gate.
//!
//! Diagnostic IDs (`ND001`…) are stable: scripts and waivers may key on
//! them. New rules append; retired rules leave a tombstone in [`RULES`]'s
//! doc rather than renumbering.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One determinism hazard class the scanner recognizes.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable diagnostic ID (`ND001`…). Never renumbered.
    pub id: &'static str,
    /// One-line summary, shown in listings and findings.
    pub summary: &'static str,
    /// Why the pattern endangers determinism, and the sanctioned
    /// alternative.
    pub rationale: &'static str,
    /// When `true`, the rule fires only in the determinism-critical crates
    /// ([`SIM_STATE_CRATES`]) whose state feeds virtual time or checksums.
    pub sim_state_only: bool,
}

/// Crates whose runtime state feeds virtual time, message contents, or
/// checksums — where an ordering hazard is a correctness bug, not a style
/// nit. Scoped rules ([`Rule::sim_state_only`]) fire only here.
pub const SIM_STATE_CRATES: &[&str] = &["sim", "net", "rt", "apps", "model"];

/// The rule catalog, ordered by ID.
pub const RULES: &[Rule] = &[
    Rule {
        id: "ND001",
        summary: "HashMap/HashSet in simulation-state code",
        rationale: "std's hash maps iterate in RandomState order, which varies per process; \
                    anything folded from that order into messages, virtual time, or checksums \
                    is nondeterministic. Use BTreeMap/BTreeSet, an indexed Vec, or collect \
                    keys and sort before iterating (then waive the site).",
        sim_state_only: true,
    },
    Rule {
        id: "ND002",
        summary: "wall-clock read (Instant::now / SystemTime)",
        rationale: "host time must never reach simulation state: it differs per run and per \
                    machine. Wall-clock reads are legitimate only for self-profiling \
                    (wall_s-style fields that comparisons exclude under --virtual-only); \
                    such sites carry a waiver.",
        sim_state_only: false,
    },
    Rule {
        id: "ND003",
        summary: "unseeded or thread-local RNG",
        rationale: "thread_rng/from_entropy/RandomState draw from OS entropy, so runs are \
                    unreproducible. All randomness must flow from an explicit seed recorded \
                    in the run's spec (workload seeds, splitmix streams).",
        sim_state_only: false,
    },
    Rule {
        id: "ND004",
        summary: "thread::sleep in library code",
        rationale: "sleeping couples behavior to host scheduling and wall time. Virtual \
                    delays belong in ctx.compute; host-side backoff in the parallel engine \
                    is the one sanctioned use (waived, bounded, and result-invariant).",
        sim_state_only: false,
    },
    Rule {
        id: "ND005",
        summary: "order-sensitive floating-point reduction",
        rationale: "float addition is not associative: a sum or product folded in an \
                    unstable order (map iteration, completion order) changes checksums \
                    across runs. Reductions over index-ordered slices are fine — waive \
                    them; reductions over unordered sources must sort first.",
        sim_state_only: true,
    },
    Rule {
        id: "ND006",
        summary: "narrowing `as` cast in time arithmetic",
        rationale: "casting nanosecond quantities through u32/i32/f32 silently truncates or \
                    rounds once virtual times pass ~4.3 s (u32) or ~2^24 ns (f32 exact \
                    range), making long runs disagree with short ones. Keep time math in \
                    u64/i128/f64 and convert at the edges with checked/rounding helpers.",
        sim_state_only: true,
    },
    Rule {
        id: "ND007",
        summary: ".unwrap() in non-test library code",
        rationale: "unwrap panics without context, and in kernel-adjacent threads a poison \
                    unwrap turns one failure into a cascade. Use expect with an invariant \
                    message, or propagate the error.",
        sim_state_only: false,
    },
    Rule {
        id: "ND008",
        summary: "raw thread primitive bypassing the rank scheduler",
        rationale: "direct thread::spawn/thread::Builder/JoinHandle use in simulation-state \
                    code creates OS threads the kernel cannot see: they break the \
                    at-most-one-runnable-rank invariant and make a run's thread count \
                    scale with rank count again (a fiber run creates none). Ranks must go \
                    through Sim::spawn; the thread-backed rank context, the fallback for \
                    hosts without fibers, is the only sanctioned owner of raw threads \
                    (waived).",
        sim_state_only: true,
    },
    Rule {
        id: "ND009",
        summary: "libm transcendental in application code",
        rationale: "pow, exp, log and the trigonometric functions come from the host's libm, \
                    which IEEE 754 does not require to round correctly, so their last bits \
                    may differ between hosts; an app value that feeds a compute charge or a \
                    message would carry that difference into virtual time. Fires in \
                    crates/apps only. Use sqrt and the basic operations, which are \
                    correctly rounded, or waive a site whose result feeds only a checksum.",
        sim_state_only: true,
    },
];

/// Looks a rule up by ID.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// One accepted use of a flagged pattern.
///
/// A waiver matches a finding when the finding's rule is `rule`, its
/// repo-relative path ends with `path_suffix`, and the flagged line contains
/// `token`. Line numbers are deliberately not part of the key so waivers
/// survive unrelated edits; the `token` pins the waiver to the construct,
/// not the position.
#[derive(Debug, Clone, Copy)]
pub struct Waiver {
    /// The waived rule's ID.
    pub rule: &'static str,
    /// Repo-relative path suffix, e.g. `apps/src/awari.rs`.
    pub path_suffix: &'static str,
    /// Substring the flagged line must contain.
    pub token: &'static str,
    /// Why the pattern is benign at this site.
    pub reason: &'static str,
}

/// The accepted-use table. Mirrors `numagap check`'s application waiver
/// table: every entry documents why the flagged pattern cannot break
/// determinism *at that site*. An entry that stops matching anything is
/// stale and fails the audit crate's round-trip test, so the table cannot
/// rot silently.
pub const WAIVERS: &[Waiver] = &[
    // ── ND001: hash maps whose iteration is sorted or never observed ──
    Waiver {
        rule: "ND001",
        path_suffix: "apps/src/awari.rs",
        token: "HashMap",
        reason: "pending/per-dst maps are keyed lookups; every iteration first collects \
                 keys and sorts them (dsts.sort_unstable) before building messages",
    },
    // ── ND002: wall-clock stopwatches, excluded from comparisons ──
    Waiver {
        rule: "ND002",
        path_suffix: "bench/src/targets.rs",
        token: "Instant::now",
        reason: "wall-clock stopwatch around whole experiment cells for throughput \
                 reporting; virtual results never read it",
    },
    Waiver {
        rule: "ND002",
        path_suffix: "bench/src/scale.rs",
        token: "Instant::now",
        reason: "wall-clock stopwatch around scale sweep cells, recorded as wall_s \
                 only; the cross-mode bit-identity gate reads virtual fields",
    },
    Waiver {
        rule: "ND002",
        path_suffix: "serve/src/http.rs",
        token: "Instant::now",
        reason: "per-request deadline clock: bounds socket read/write timeouts and \
                 answers 408; response bodies never read it",
    },
    Waiver {
        rule: "ND002",
        path_suffix: "serve/src/service.rs",
        token: "Instant::now",
        reason: "stopwatch between the stages of a what-if request, summed into the \
                 /v1/stats stage counters only; what-if bodies never read it",
    },
    // ── ND005: reductions over index-ordered slices ──
    Waiver {
        rule: "ND005",
        path_suffix: "apps/src/water.rs",
        token: "sum::<f64>",
        reason: "checksum folds fixed-length [f64; 3] position/velocity arrays in index \
                 order; the outer molecule iteration is an ordered Vec",
    },
    Waiver {
        rule: "ND005",
        path_suffix: "apps/src/barnes.rs",
        token: "sum::<f64>",
        reason: "force/checksum reductions fold [f64; 3] components and index-ordered \
                 body Vecs; no unordered container feeds them",
    },
    Waiver {
        rule: "ND005",
        path_suffix: "apps/src/kernels.rs",
        token: "sum::<f64>",
        reason: "vector norm over an index-ordered slice",
    },
    // ── ND009: libm results that never reach virtual time ──
    Waiver {
        rule: "ND009",
        path_suffix: "apps/src/fft.rs",
        token: "angle.cos(), angle.sin()",
        reason: "twiddle factors scale only the transform's values, which travel in \
                 messages of a size fixed by the problem size and end in the checksum; \
                 no compute charge or message size reads them",
    },
    // ── ND008: the one sanctioned owner of raw threads ──
    Waiver {
        rule: "ND008",
        path_suffix: "sim/src/handoff.rs",
        token: "JoinHandle",
        reason: "the thread-backed rank context joins its rank's thread when the rank \
                 exits, dies or is aborted, and the handle returns what the thread \
                 cloned and the panic it caught; it is how ranks run on hosts without \
                 fibers, not a bypass of the scheduler",
    },
    Waiver {
        rule: "ND008",
        path_suffix: "sim/src/handoff.rs",
        token: "thread::Builder",
        reason: "on hosts without fibers one named, stack-sized thread per rank is \
                 spawned here, blocked on a channel of grants whenever the kernel is \
                 not inside its resume — the fallback the build picks off x86-64 Linux",
    },
];

/// One hazard the scanner found.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired (`ND001`…).
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed (original text, not the sanitized form).
    pub snippet: String,
    /// The waiver reason, when an entry of [`WAIVERS`] accepts this site.
    pub waived: Option<&'static str>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{}: {}",
            self.rule, self.path, self.line, self.snippet
        )?;
        if let Some(reason) = self.waived {
            write!(f, " (waived: {reason})")?;
        }
        Ok(())
    }
}

/// Replaces comment bodies and string/char-literal contents with spaces,
/// preserving line structure, so token rules cannot fire on prose.
///
/// Handles line comments, nested block comments, escaped strings, raw
/// strings (`r"…"`, `r#"…"#`, any hash depth), and char literals — while
/// leaving lifetimes (`'a`) alone.
fn sanitize(text: &str) -> String {
    let b = text.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    let blank = |c: u8| if c == b'\n' { b'\n' } else { b' ' };
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 0usize;
                while i < b.len() {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        out.push(b' ');
                        out.push(b' ');
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        out.push(b' ');
                        out.push(b' ');
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        out.push(blank(b[i]));
                        i += 1;
                    }
                }
            }
            b'r' if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') => {
                // Possible raw string. Count hashes after the `r`.
                let mut j = i + 1;
                while j < b.len() && b[j] == b'#' {
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    let hashes = j - (i + 1);
                    out.extend(std::iter::repeat_n(b' ', j - i + 1));
                    i = j + 1;
                    // Scan to `"` followed by `hashes` hashes.
                    'raw: while i < b.len() {
                        if b[i] == b'"' {
                            let mut k = 0;
                            while k < hashes && i + 1 + k < b.len() && b[i + 1 + k] == b'#' {
                                k += 1;
                            }
                            if k == hashes {
                                out.extend(std::iter::repeat_n(b' ', hashes + 1));
                                i += 1 + hashes;
                                break 'raw;
                            }
                        }
                        out.push(blank(b[i]));
                        i += 1;
                    }
                } else {
                    out.push(b[i]);
                    i += 1;
                }
            }
            b'"' => {
                out.push(b' ');
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' if i + 1 < b.len() => {
                            // A `\` line continuation must keep its newline
                            // or every later line number drifts.
                            out.push(b' ');
                            out.push(blank(b[i + 1]));
                            i += 2;
                        }
                        b'"' => {
                            out.push(b' ');
                            i += 1;
                            break;
                        }
                        c => {
                            out.push(blank(c));
                            i += 1;
                        }
                    }
                }
            }
            b'\'' => {
                // Char literal or lifetime. A char literal closes within a
                // few bytes: 'x' or an escape like '\n' / '\u{…}'.
                let rest = &b[i + 1..];
                let close = if rest.first() == Some(&b'\\') {
                    // Escaped char: find the next quote (bounded scan).
                    rest.iter().take(12).position(|&c| c == b'\'')
                } else if rest.len() >= 2 && rest[1] == b'\'' {
                    Some(1)
                } else {
                    None
                };
                match close {
                    Some(off) => {
                        out.extend(std::iter::repeat_n(b' ', off + 2));
                        i += off + 2;
                    }
                    None => {
                        // Lifetime: keep as-is.
                        out.push(b[i]);
                        i += 1;
                    }
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Whether a sanitized line opens with a `#[cfg(test)]`-style attribute.
fn is_test_cfg(line: &str) -> bool {
    let line = line.trim_start();
    line.starts_with("#[cfg(") && line.contains("test")
}

/// Marks lines belonging to `#[cfg(test)]`-style items (the attribute line,
/// any stacked attributes, and the brace-balanced item that follows) so the
/// scanner skips them. Operates on sanitized text.
fn test_block_lines(sanitized: &str) -> Vec<bool> {
    let lines: Vec<&str> = sanitized.lines().collect();
    let mut skip = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if is_test_cfg(lines[i]) {
            // Skip the attribute, any further attributes, then the item.
            let mut depth = 0i64;
            let mut opened = false;
            while i < lines.len() {
                skip[i] = true;
                for c in lines[i].chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        // An item ended without braces (e.g. `use` under
                        // cfg(test)): stop at the semicolon.
                        ';' if !opened && depth == 0 => {
                            opened = true;
                            depth = 0;
                        }
                        _ => {}
                    }
                }
                i += 1;
                if opened && depth <= 0 {
                    break;
                }
            }
        } else {
            i += 1;
        }
    }
    skip
}

/// Counts a Rust file's lines for the line ledger (`LINES.md`): the
/// non-blank lines left once comments and string contents are blanked, as
/// `(code, test)`, where test lines are those of `#[cfg(test)]` items. A line
/// wholly inside a comment or a string literal counts as blank.
pub fn code_lines(text: &str) -> (usize, usize) {
    let sanitized = sanitize(text);
    let skip = test_block_lines(&sanitized);
    let (mut code, mut test) = (0, 0);
    for (line, &in_test) in sanitized.lines().zip(&skip) {
        if line.trim().is_empty() {
            continue;
        }
        if in_test {
            test += 1;
        } else {
            code += 1;
        }
    }
    (code, test)
}

/// The files that `#[cfg(test)] mod name;` declarations in the module at
/// `path` (whose text is `text`) load: `name.rs` or `name/mod.rs` in the
/// directory of the module's children. They are test code by declaration,
/// so the scanner skips them and the line ledger counts them as test.
pub fn test_module_files(path: &Path, text: &str) -> Vec<PathBuf> {
    // A crate root or a `mod.rs` keeps its children beside it; `foo.rs`
    // keeps them in `foo/`.
    let dir = match path.file_stem().and_then(|s| s.to_str()) {
        Some("lib" | "main" | "mod") => path.parent().unwrap_or(Path::new("")).to_path_buf(),
        _ => path.with_extension(""),
    };
    let sanitized = sanitize(text);
    let lines: Vec<&str> = sanitized.lines().map(str::trim).collect();
    let mut files = Vec::new();
    for (i, &line) in lines.iter().enumerate().filter(|(_, l)| is_test_cfg(l)) {
        // The item follows the attribute on its own line or on the next.
        let item = match line.split_once(']').map(|(_, rest)| rest.trim()) {
            Some("") | None => lines.get(i + 1).copied().unwrap_or_default(),
            Some(rest) => rest,
        };
        if let Some(name) = item.strip_prefix("mod ").and_then(|m| m.strip_suffix(';')) {
            files.push(dir.join(format!("{}.rs", name.trim())));
            files.push(dir.join(name.trim()).join("mod.rs"));
        }
    }
    files
}

/// Methods of `f64`/`f32` that call into libm (ND009).
const LIBM_CALLS: &[&str] = &[
    "powf", "exp", "exp2", "exp_m1", "ln", "ln_1p", "log", "log2", "log10", "sin", "cos", "tan",
    "sin_cos", "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh", "cbrt", "hypot",
];

/// Whether `line` calls `.name(` for some `name` of [`LIBM_CALLS`].
fn calls_libm(line: &str) -> bool {
    LIBM_CALLS.iter().any(|name| {
        line.match_indices(name)
            .any(|(i, _)| line[..i].ends_with('.') && line[i + name.len()..].starts_with('('))
    })
}

const NARROWING_CASTS: &[&str] = &[
    " as u32", " as i32", " as f32", " as u16", " as i16", " as u8", " as i8",
];
const TIME_TOKENS: &[&str] = &[
    "nanos",
    "SimTime",
    "SimDuration",
    "elapsed",
    "latency",
    "_ns",
    "ns_per",
];

/// Scans one file's text. `path` is the repo-relative label attached to
/// findings; `crate_name` scopes the sim-state-only rules. Waivers are NOT
/// applied here — see [`apply_waivers`].
pub fn scan_source(path: &str, crate_name: &str, text: &str) -> Vec<Finding> {
    let sim_state = SIM_STATE_CRATES.contains(&crate_name);
    let sanitized = sanitize(text);
    let skip = test_block_lines(&sanitized);
    let mut findings = Vec::new();
    for (idx, (line, orig)) in sanitized.lines().zip(text.lines()).enumerate() {
        if skip.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let mut hit = |rule_id: &'static str| {
            findings.push(Finding {
                rule: rule_id,
                path: path.to_string(),
                line: idx + 1,
                snippet: orig.trim().to_string(),
                waived: None,
            });
        };
        if sim_state && (line.contains("HashMap") || line.contains("HashSet")) {
            hit("ND001");
        }
        if line.contains("Instant::now") || line.contains("SystemTime") {
            hit("ND002");
        }
        if line.contains("thread_rng")
            || line.contains("rand::random")
            || line.contains("from_entropy")
            || line.contains("RandomState")
            || line.contains("getrandom")
        {
            hit("ND003");
        }
        if line.contains("thread::sleep") {
            hit("ND004");
        }
        if sim_state
            && [
                "sum::<f32>",
                "sum::<f64>",
                "product::<f32>",
                "product::<f64>",
            ]
            .iter()
            .any(|p| line.contains(p))
        {
            hit("ND005");
        }
        if sim_state
            && NARROWING_CASTS.iter().any(|c| line.contains(c))
            && TIME_TOKENS.iter().any(|t| line.contains(t))
        {
            hit("ND006");
        }
        if line.contains(".unwrap()") {
            hit("ND007");
        }
        if sim_state
            && (line.contains("thread::spawn")
                || line.contains("thread::Builder")
                || line.contains("JoinHandle"))
        {
            hit("ND008");
        }
        if crate_name == "apps" && calls_libm(line) {
            hit("ND009");
        }
    }
    findings
}

/// Stamps each finding matched by a [`WAIVERS`] entry with its reason.
pub fn apply_waivers(findings: &mut [Finding]) {
    for f in findings.iter_mut() {
        f.waived = WAIVERS
            .iter()
            .find(|w| {
                w.rule == f.rule && f.path.ends_with(w.path_suffix) && f.snippet.contains(w.token)
            })
            .map(|w| w.reason);
    }
}

/// The result of auditing a source tree.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Every finding, waived or not, ordered by path then line.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files: usize,
}

impl AuditReport {
    /// Findings not covered by a waiver — what fails the gate.
    pub fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.waived.is_none())
    }

    /// Waiver entries that matched no finding: stale documentation that the
    /// round-trip test (and `numagap audit`) reports as an error.
    pub fn stale_waivers(&self) -> Vec<&'static Waiver> {
        WAIVERS
            .iter()
            .filter(|w| {
                !self.findings.iter().any(|f| {
                    f.rule == w.rule
                        && f.path.ends_with(w.path_suffix)
                        && f.snippet.contains(w.token)
                })
            })
            .collect()
    }
}

/// Walks `root/crates/*/src` and audits every `.rs` file, applying waivers.
///
/// `tests/`, `benches/`, `examples/`, `target/`, and `shims/` trees never
/// enter the walk, nor do the files of [`test_module_files`];
/// `#[cfg(test)]` blocks inside library files are skipped by the scanner
/// itself.
///
/// # Errors
///
/// Propagates I/O failures; a missing `crates/` directory under `root` is
/// reported as [`io::ErrorKind::NotFound`].
pub fn audit_root(root: &Path) -> io::Result<AuditReport> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} is not a workspace root (no crates/ directory)",
                root.display()
            ),
        ));
    }
    let mut report = AuditReport::default();
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files: Vec<(PathBuf, String)> = Vec::new();
        let mut stack = vec![src];
        while let Some(dir) = stack.pop() {
            let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .collect();
            entries.sort();
            for path in entries {
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let text = fs::read_to_string(&path)?;
                    files.push((path, text));
                }
            }
        }
        let tests: Vec<PathBuf> = files
            .iter()
            .flat_map(|(path, text)| test_module_files(path, text))
            .collect();
        for (path, text) in files.iter().filter(|(path, _)| !tests.contains(path)) {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(path)
                .to_string_lossy()
                .replace('\\', "/");
            report.files += 1;
            report.findings.extend(scan_source(&rel, &crate_name, text));
        }
    }
    report
        .findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    apply_waivers(&mut report.findings);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_blanks_comments_and_strings() {
        let src = "let x = \"HashMap\"; // HashMap here\n/* Instant::now */ let y = 1;\n";
        let s = sanitize(src);
        assert!(!s.contains("HashMap"));
        assert!(!s.contains("Instant"));
        assert_eq!(s.lines().count(), src.lines().count());
    }

    #[test]
    fn sanitize_handles_raw_strings_and_lifetimes() {
        let src = "fn f<'a>(s: &'a str) { let r = r#\"thread_rng\"#; let c = '\\n'; }";
        let s = sanitize(src);
        assert!(!s.contains("thread_rng"));
        assert!(s.contains("<'a>"), "lifetimes must survive: {s}");
    }

    #[test]
    fn sanitize_keeps_newlines_in_string_continuations() {
        let src = "let s = \"one \\\ntwo\";\nlet bad = x.unwrap();\n";
        let s = sanitize(src);
        assert_eq!(s.lines().count(), src.lines().count());
        let f = scan_source("crates/sim/src/x.rs", "sim", src);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), ("ND007", 3), "{f:?}");
    }

    #[test]
    fn code_lines_skips_blanks_comments_and_splits_off_tests() {
        let src = "\
//! Crate docs.
fn real() {
    // note

    let s = \"one
two\";
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
";
        assert_eq!(code_lines(src), (4, 5));
    }

    #[test]
    fn a_file_declared_under_cfg_test_is_test_code() {
        let root = Path::new("crates/x/src/lib.rs");
        let text = "\
mod real;
#[cfg(test)]
mod tests;
#[cfg(test)] mod helpers;
// #[cfg(test)]
// mod commented;
#[cfg(test)]
mod inline {}
";
        let files = test_module_files(root, text);
        let beside = |name: &str| Path::new("crates/x/src").join(name);
        let expected = ["tests.rs", "tests/mod.rs", "helpers.rs", "helpers/mod.rs"].map(beside);
        assert_eq!(files, expected);
        // A module that is not a crate root or a `mod.rs` keeps its children
        // in its own directory.
        let files = test_module_files(&beside("engine.rs"), "#[cfg(test)]\nmod tests;\n");
        assert_eq!(
            files,
            ["engine/tests.rs", "engine/tests/mod.rs"].map(beside)
        );
    }

    #[test]
    fn sim_state_crates_all_exist() {
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        for name in SIM_STATE_CRATES {
            assert!(crates.join(name).is_dir(), "crates/{name} does not exist");
        }
    }

    #[test]
    fn test_blocks_are_skipped() {
        let src = "\
fn real() {}
#[cfg(test)]
mod tests {
    fn helper() {
        let m = std::collections::HashMap::new();
        std::thread::sleep(d);
    }
}
";
        let f = scan_source("crates/sim/src/x.rs", "sim", src);
        assert!(f.is_empty(), "{f:?}");
    }
}
