//! The CI workflow must stay parseable YAML where it has twice stopped
//! being: a step name is a plain scalar unless quoted, and a plain
//! scalar may not contain `: `, may not contain ` #` (the rest becomes a
//! comment) and may not end in `:`. Checked without a YAML parser — the
//! container has none to depend on — by looking at every `name:` line.
//! Every example and `repro` experiment a step runs must also exist, so a
//! deleted one fails here rather than when CI reaches its step.

use std::path::Path;

use pelican_bench::experiments;

const WORKFLOW: &str = include_str!("../.github/workflows/ci.yml");

/// Why `value` cannot stand unquoted after `name:`, if it cannot.
fn plain_scalar_problem(value: &str) -> Option<&'static str> {
    if value.starts_with('"') || value.starts_with('\'') {
        None
    } else if value.contains(": ") {
        Some("contains \": \" (read as a nested mapping)")
    } else if value.contains(" #") {
        Some("contains \" #\" (the rest is read as a comment)")
    } else if value.ends_with(':') {
        Some("ends in \":\" (read as a mapping key)")
    } else {
        None
    }
}

#[test]
fn every_name_in_the_ci_workflow_is_quoted_or_a_safe_plain_scalar() {
    let mut names = 0;
    let problems: Vec<String> = WORKFLOW
        .lines()
        .enumerate()
        .filter_map(|(i, line)| {
            let text = line.trim();
            let value = text.strip_prefix("- name:").or_else(|| text.strip_prefix("name:"))?;
            names += 1;
            let problem = plain_scalar_problem(value.trim())?;
            Some(format!("ci.yml:{}: unquoted name {problem}: {}", i + 1, value.trim()))
        })
        .collect();
    assert!(names >= 20, "only {names} `name:` lines found: the scan is not reading the workflow");
    assert!(problems.is_empty(), "quote these step names:\n{}", problems.join("\n"));
}

#[test]
fn the_guard_flags_each_way_a_plain_name_breaks() {
    assert!(plain_scalar_problem("Fleet network example (one-round co-simulation: link)").is_some());
    assert!(plain_scalar_problem("Build #2").is_some());
    assert!(plain_scalar_problem("Build:").is_some());
    assert!(plain_scalar_problem("Build (release)").is_none());
    assert!(plain_scalar_problem("\"Sim engine (release: golden traces)\"").is_none());
}

/// The tracked records' schema lives in `crates/bench/tests/tracked_records.rs`;
/// an inline script in the workflow would be a second copy of it.
#[test]
fn the_ci_workflow_runs_no_python() {
    assert!(!WORKFLOW.contains("python3"), "check records in a Rust test, not a script in ci.yml");
}

/// `benchmark/` is the one performance harness: its per-layer rows are
/// tracked with their host, and a second, untracked one would drift.
#[test]
fn the_ci_workflow_runs_no_cargo_bench() {
    assert!(!WORKFLOW.contains("cargo bench"), "time a layer with a `benchmark/` per-layer row");
}

/// The word after each `marker` in `workflow`, with its line number.
fn words_after<'a>(workflow: &'a str, marker: &'a str) -> impl Iterator<Item = (usize, &'a str)> {
    workflow.lines().enumerate().flat_map(move |(i, line)| {
        line.match_indices(marker).filter_map(move |(at, _)| {
            line[at + marker.len()..].split_whitespace().next().map(|name| (i + 1, name))
        })
    })
}

/// Every `--example NAME` in `workflow` without an `examples/NAME.rs`,
/// and every `repro -- NAME` the experiment registry cannot resolve,
/// after how many such targets were found.
fn missing_targets(workflow: &str) -> (usize, Vec<String>) {
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let found: Vec<(usize, &str, &str, bool)> = words_after(workflow, "--example ")
        .map(|(line, name)| {
            (line, "--example", name, examples.join(format!("{name}.rs")).is_file())
        })
        .chain(
            words_after(workflow, "repro -- ")
                .map(|(line, name)| (line, "repro --", name, experiments::find(name).is_some())),
        )
        .collect();
    let missing = found
        .iter()
        .filter(|(.., exists)| !exists)
        .map(|(line, marker, name, _)| format!("ci.yml:{line}: {marker} {name}"))
        .collect();
    (found.len(), missing)
}

#[test]
fn every_example_and_experiment_the_ci_workflow_runs_exists() {
    let (found, missing) = missing_targets(WORKFLOW);
    assert!(found >= 8, "only {found} targets found: the scan is not reading the workflow");
    assert!(missing.is_empty(), "the workflow runs what does not exist:\n{}", missing.join("\n"));
}

#[test]
fn the_guard_flags_a_deleted_example_and_an_unregistered_experiment() {
    let stale = "run: cargo run --release --example fleet_serve\n\
                 run: cargo run --release --bin repro -- fleet-report --scale tiny\n";
    assert_eq!(missing_targets(stale).1.len(), 2);
    let current = "run: cargo run --release --example quickstart\n\
                   run: cargo run --release --bin repro -- store-report --scale tiny\n";
    assert_eq!(missing_targets(current), (2, Vec::new()));
}
