//! The crate layering. `numagap-model` holds the queries on a recorded run
//! (record, replay, bound, thresholds), `numagap-bench` runs experiments on
//! top of it, `numagap-serve` speaks HTTP around both, and `numagap-cli`
//! sits above everything. A crate that names one above it in any dependency
//! table — normal, dev, build or target-specific — fails here. Each
//! `crates/*/Cargo.toml` is read as text; no TOML parser is needed for the
//! few shapes a dependency entry takes.

use std::fs;
use std::path::Path;

/// Each constrained crate and the crates it must not depend on.
const FORBIDDEN: [(&str, &[&str]); 3] = [
    (
        "numagap-model",
        &["numagap-bench", "numagap-serve", "numagap-cli"],
    ),
    ("numagap-bench", &["numagap-serve", "numagap-cli"]),
    ("numagap-serve", &["numagap-cli"]),
];

const DEPENDENCY_TABLES: [&str; 3] = ["dependencies", "dev-dependencies", "build-dependencies"];

/// For a table header: `Some(None)` when the table lists dependencies,
/// `Some(Some(name))` when it is one dependency's own table
/// (`[dependencies.name]`), `None` otherwise.
fn dependency_table(header: &str) -> Option<Option<&str>> {
    let parts: Vec<&str> = header.split('.').map(str::trim).collect();
    let at = parts.iter().rposition(|p| DEPENDENCY_TABLES.contains(p))?;
    match parts[at + 1..] {
        [] => Some(None),
        [name] => Some(Some(name.trim_matches('"'))),
        _ => None,
    }
}

/// The package name of one manifest and every `(table, crate)` it depends
/// on. A renamed entry (`alias = { package = "real" }`) counts as `real`.
fn manifest(toml: &str) -> (String, Vec<(String, String)>) {
    let mut name = String::new();
    let mut deps = Vec::new();
    let mut header = String::new();
    for line in toml.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if let Some(h) = line.strip_prefix('[') {
            header = h.trim_end_matches(']').trim().to_string();
            if let Some(Some(dep)) = dependency_table(&header) {
                deps.push((header.clone(), dep.to_string()));
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        if header == "package" && key == "name" {
            name = value.trim_matches('"').to_string();
        } else if dependency_table(&header) == Some(None) {
            let renamed = value
                .split_once("package")
                .and_then(|(_, rest)| rest.trim_start().strip_prefix('='))
                .and_then(|rest| rest.trim_start().strip_prefix('"'))
                .and_then(|rest| rest.split_once('"'))
                .map(|(real, _)| real);
            let dep = key.split('.').next().unwrap_or(key).trim_matches('"');
            deps.push((header.clone(), renamed.unwrap_or(dep).to_string()));
        }
    }
    (name, deps)
}

#[test]
fn the_manifest_reader_sees_every_shape_of_dependency() {
    let (name, deps) = manifest(
        "[package]\nname = \"numagap-x\" # the crate\n\n\
         [dependencies]\nnumagap-sim = { workspace = true }\nnumagap-net.workspace = true\n\
         alias = { package = \"numagap-rt\", path = \"../rt\" }\n\n\
         [dev-dependencies]\n# numagap-commented = { workspace = true }\nnumagap-apps = \"0.1\"\n\n\
         [target.'cfg(unix)'.build-dependencies]\nnumagap-audit = { workspace = true }\n\n\
         [dependencies.numagap-model]\nworkspace = true\n\n[lints]\nworkspace = true\n",
    );
    assert_eq!(name, "numagap-x");
    let names: Vec<&str> = deps.iter().map(|(_, d)| d.as_str()).collect();
    assert_eq!(
        names,
        [
            "numagap-sim",
            "numagap-net",
            "numagap-rt",
            "numagap-apps",
            "numagap-audit",
            "numagap-model"
        ]
    );
}

#[test]
fn no_crate_depends_on_a_layer_above_it() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut manifests: Vec<_> = fs::read_dir(&crates)
        .expect("list crates/")
        .map(|e| e.expect("dir entry").path().join("Cargo.toml"))
        .filter(|p| p.is_file())
        .collect();
    manifests.sort();
    let mut seen = Vec::new();
    let mut violations = Vec::new();
    for path in &manifests {
        let (name, deps) = manifest(&fs::read_to_string(path).expect("read manifest"));
        let Some((_, banned)) = FORBIDDEN.iter().find(|(c, _)| *c == name) else {
            continue;
        };
        seen.push(name.clone());
        for (table, dep) in deps {
            if banned.contains(&dep.as_str()) {
                violations.push(format!("{name} -> {dep} (in [{table}])"));
            }
        }
    }
    assert_eq!(
        seen.len(),
        FORBIDDEN.len(),
        "found manifests for {seen:?} only"
    );
    assert!(
        violations.is_empty(),
        "dependencies that point up the layering:\n  {}",
        violations.join("\n  ")
    );
}
