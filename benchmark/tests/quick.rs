//! Drives the real binary at smoke-test sizes and holds what it prints
//! against `BENCHMARK.json`: every declared workload and metric is
//! present or declared not applicable, names and units are the declared
//! ones, op counts add up, and the driver's line has exactly its keys.

use std::collections::BTreeSet;
use std::process::Command;

use pelican_benchmark::json::Value;
use pelican_benchmark::spec::{Spec, EXACT_END_TO_END};

const BIN: &str = env!("CARGO_BIN_EXE_pelican-benchmark");

fn rows(args: &[&str]) -> Vec<Value> {
    let out = Command::new(BIN).args(args).output().expect("the benchmark binary starts");
    assert!(out.status.success(), "{args:?} failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("rows are UTF-8");
    stdout
        .lines()
        .map(|line| Value::parse(line).expect("every stdout line is a JSON row"))
        .collect()
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn strings(v: Option<&Value>) -> BTreeSet<String> {
    v.map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(Value::as_str)
        .map(str::to_owned)
        .collect()
}

/// Checks one row against the spec; `expected` are the metric names its
/// pass must account for.
fn check_row(row: &Value, spec: &Spec, expected: &BTreeSet<String>) {
    let workload = row.get("workload").and_then(Value::as_str).expect("workload");
    assert_eq!(
        row.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}: {:?}",
        row.get("violations")
    );
    assert_eq!(row.get("quick"), Some(&Value::Bool(true)));
    let count = |key: &str| row.get(key).and_then(Value::as_f64).unwrap_or(-1.0);
    assert!(count("attempted") >= 1.0, "{workload} attempted nothing");
    assert_eq!(
        count("attempted"),
        count("succeeded") + count("failed"),
        "{workload}: op counts add up"
    );
    assert_eq!(count("failed"), 0.0, "{workload}: the workloads are chosen so that no op fails");
    assert_eq!(count("iterations"), 1.0);
    let host = row.get("host").expect("host stamp");
    for key in ["cores", "commit", "rustc"] {
        assert!(host.get(key).is_some(), "{workload}: host stamp lacks {key}");
    }
    assert!(row.get("seed").is_some() && row.get("fingerprint").is_some());
    assert!(!row
        .get("samples")
        .and_then(|s| s.get("wall_s"))
        .map(Value::as_arr)
        .unwrap_or_default()
        .is_empty());

    let metrics = row.get("metrics").map(Value::as_obj).unwrap_or_default();
    let present: BTreeSet<String> = metrics.iter().map(|(name, _)| name.clone()).collect();
    let not_applicable = strings(row.get("not_applicable"));
    assert!(
        present.is_disjoint(&not_applicable),
        "{workload}: reported and not applicable at once"
    );
    let accounted: BTreeSet<String> = present.union(&not_applicable).cloned().collect();
    assert_eq!(
        &accounted, expected,
        "{workload}: every declared metric is present or declared n/a"
    );
    for (name, entry) in metrics {
        assert!(is_name(name), "{workload}: bad metric name {name:?}");
        let decl = spec.metric(name).unwrap_or_else(|| panic!("{workload}: {name} is undeclared"));
        assert_eq!(
            entry.get("unit").and_then(Value::as_str),
            Some(decl.unit.as_str()),
            "{name} unit"
        );
        let value = entry.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
}

#[test]
fn benchmark_json_keeps_the_contract() {
    let spec = Spec::load();
    assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
    assert!((2..=8).contains(&spec.workloads.len()));
    assert!((1..=16).contains(&spec.end_to_end.len()) && (1..=128).contains(&spec.per_layer.len()));
    let mut names = BTreeSet::new();
    for (name, why) in &spec.workloads {
        assert!(is_name(name) && names.insert(name.clone()), "workload name {name:?}");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is one line of at most 200 characters"
        );
    }
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(
            is_name(&m.name) && names.insert(m.name.clone()),
            "metric name {:?} is valid and used once",
            m.name
        );
        assert!(is_unit(&m.unit), "{}: unit {:?}", m.name, m.unit);
    }
    for m in &spec.end_to_end {
        let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()), "per-layer metrics carry no bound");
    let setup = spec.metric("setup_s").expect("setup_s is declared");
    assert!(setup.unit == "s" && !setup.higher_is_better);
    let largest = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s carries the largest bound");
    for name in EXACT_END_TO_END {
        assert!(spec.per_layer.iter().any(|m| m.name == name), "{name} is declared");
    }
    let declared: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        declared,
        pelican_benchmark::workloads::NAMES,
        "the binary runs the declared workloads"
    );
}

#[test]
fn quick_suite_accounts_for_every_declared_metric() {
    let spec = Spec::load();
    let run = rows(&["run", "--workload", "all", "--quick", "--seed", "7"]);
    let trace = rows(&["trace", "--workload", "all", "--quick", "--seed", "7"]);

    let end_to_end: BTreeSet<String> = spec
        .end_to_end
        .iter()
        .map(|m| m.name.clone())
        .chain(EXACT_END_TO_END.iter().map(|s| (*s).to_owned()))
        .collect();
    let every: BTreeSet<String> =
        spec.end_to_end.iter().chain(&spec.per_layer).map(|m| m.name.clone()).collect();
    for (pass, expected) in [(&run, &end_to_end), (&trace, &every)] {
        let ran: Vec<&str> =
            pass.iter().filter_map(|r| r.get("workload").and_then(Value::as_str)).collect();
        let declared: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(ran, declared, "one row per declared workload, in order");
        pass.iter().for_each(|row| check_row(row, &spec, expected));
    }

    // Across the traced suite every per-layer metric is produced by some
    // workload: none is declared and then never measured.
    let measured: BTreeSet<String> = trace
        .iter()
        .flat_map(|r| r.get("metrics").map(Value::as_obj).unwrap_or_default())
        .map(|(n, _)| n.clone())
        .collect();
    let per_layer: BTreeSet<String> = spec.per_layer.iter().map(|m| m.name.clone()).collect();
    // Smoke sizes are too small for the percentiles that need n >= 100 or 1000.
    let needs_volume: BTreeSet<String> = ["v_retrain_p50_us", "v_retrain_p90_us", "v_stale_p90_us"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let missing: Vec<_> =
        per_layer.difference(&measured).filter(|m| !needs_volume.contains(*m)).collect();
    assert!(missing.is_empty(), "declared but measured by no workload: {missing:?}");
}

#[test]
fn driver_form_prints_the_contract_line_last() {
    let spec = Spec::load();
    for (trace, declared) in [("0", &spec.end_to_end), ("1", &spec.per_layer)] {
        let out = rows(&[
            "--workload",
            "store_churn",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--quick",
        ]);
        let line = out.last().expect("a last line");
        let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert!(matches!(line.get("attempted"), Some(Value::Int(n)) if *n >= 1));
        assert_eq!(line.get("failed"), Some(&Value::Int(0)));
        let printed: Vec<&str> = line
            .get("metrics")
            .map(Value::as_obj)
            .unwrap_or_default()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let wanted: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(printed, wanted, "--trace {trace} prints exactly the declared metrics");
        for (name, entry) in line.get("metrics").map(Value::as_obj).unwrap_or_default() {
            let keys: Vec<&str> = entry.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"], "{name}");
            assert_eq!(
                entry.get("unit").and_then(Value::as_str),
                spec.metric(name).map(|m| m.unit.as_str())
            );
        }
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["run"][..],
        &["run", "--workload", "nope"],
        &["frobnicate"],
        &["check", "--workload", "sim_fleet"],
        &["run", "--workload", "sim_fleet", "--iters", "3"],
        &["check", "--rounds", "2"],
    ] {
        let out = Command::new(BIN).args(args).output().expect("the benchmark binary starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
