//! The stable-API rule: `benchmark/src` drives the engine through its
//! user-facing API only, so that the engine's knobs, `*_stats()` tuples and
//! `debug_*` dumps can be deleted without touching the benchmark.
//!
//! Allowed: the `Inverda` constructors and methods listed below, everything on
//! `ServingInverda` / `Reader` / `Client` / `PinnedView` / `Query`, the data
//! types those calls take and return, `inverda_bidel::parse_script`, and the
//! `inverda_workloads::{tasky, wikimedia}` generators.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const INVERDA_CONSTRUCTORS: [&str; 3] = ["new_in_memory", "open_in", "open"];
const INVERDA_METHODS: [&str; 17] = [
    "execute",
    "insert",
    "update",
    "delete",
    "apply_many",
    "insert_many",
    "get",
    "scan",
    "count",
    "query",
    "materialize",
    "drop_schema_version",
    "columns_of",
    "physical_tables",
    "checkpoint",
    "flush",
    "wal_len",
];
const CRATES: [&str; 4] = [
    "inverda_core",
    "inverda_storage",
    "inverda_bidel",
    "inverda_workloads",
];
/// Never, under any receiver.
const FORBIDDEN: [&str; 8] = [
    "set_threads",
    "set_write_path",
    "set_snapshot_reuse",
    "set_enabled",
    "set_group_override",
    "_stats(",
    "debug_",
    "BranchingInverda",
];

fn package() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifier that follows every occurrence of `prefix`.
fn idents_after<'a>(text: &'a str, prefix: &str) -> Vec<&'a str> {
    text.match_indices(prefix)
        .map(|(at, _)| {
            let rest = &text[at + prefix.len()..];
            &rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())]
        })
        .filter(|ident| !ident.is_empty())
        .collect()
}

/// Every `pub fn` of the files that hold `impl Inverda`.
fn inverda_public_methods() -> BTreeSet<String> {
    let core = package().join("../crates/core/src");
    let mut names = BTreeSet::new();
    for file in ["database.rs", "write.rs", "migrate.rs"] {
        let text = std::fs::read_to_string(core.join(file)).expect("engine source is readable");
        names.extend(idents_after(&text, "pub fn ").into_iter().map(String::from));
    }
    assert!(names.contains("execute") && names.contains("set_write_path"));
    names
}

#[test]
fn benchmark_calls_only_the_stable_api() {
    let mut files = Vec::new();
    sources(&package().join("src"), &mut files);
    assert!(files.len() >= 6, "found only {files:?}");
    let public = inverda_public_methods();
    let mut violations = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("benchmark source is readable");
        let name = file
            .strip_prefix(package())
            .unwrap_or(file)
            .display()
            .to_string();
        for word in FORBIDDEN {
            if text.contains(word) {
                violations.push(format!("{name}: mentions {word}"));
            }
        }
        for ctor in idents_after(&text, "Inverda::") {
            // `ServingInverda::…` is allowed whole.
            if !INVERDA_CONSTRUCTORS.contains(&ctor)
                && !text.contains(&format!("ServingInverda::{ctor}"))
            {
                violations.push(format!("{name}: Inverda::{ctor}"));
            }
        }
        for method in idents_after(&text, ".") {
            let listed =
                INVERDA_METHODS.contains(&method) || INVERDA_CONSTRUCTORS.contains(&method);
            if public.contains(method) && !listed {
                // A name `Inverda` exports and the rule does not list. The
                // same name on a std type would be flagged too; rename it.
                violations.push(format!("{name}: .{method}(…)"));
            }
        }
        for krate in idents_after(&text, "inverda_") {
            if !CRATES.contains(&format!("inverda_{krate}").as_str()) {
                violations.push(format!("{name}: crate inverda_{krate}"));
            }
        }
        for item in idents_after(&text, "inverda_bidel::") {
            if item != "parse_script" {
                violations.push(format!("{name}: inverda_bidel::{item}"));
            }
        }
        for module in idents_after(&text, "inverda_workloads::") {
            if !["tasky", "wikimedia"].contains(&module) {
                violations.push(format!("{name}: inverda_workloads::{module}"));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "outside the stable API:\n{}",
        violations.join("\n")
    );
}

#[test]
fn smoke_run_passes_every_correctness_gate_in_fifteen_seconds() {
    let started = std::time::Instant::now();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_inverda-benchmark"))
        .args(["run-all", "--smoke"])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "run-all --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout.matches("  correct (").count(), 5, "{stdout}");
    assert_eq!(stdout.matches(", 0 failed, ").count(), 5, "{stdout}");
    assert!(
        started.elapsed().as_secs() < 15,
        "took {:?}",
        started.elapsed()
    );
}
