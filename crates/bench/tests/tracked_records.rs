//! The schema of every tracked `BENCH_*.json` record at the repository
//! root, checked by parsing it: on the committed files, and in CI again
//! after each `repro` step has rewritten one. Fingerprints must be equal
//! across pool widths, and a sim-scale record's equal to its `before`
//! block's, population by population.

use pelican_bench::json::Value;

/// The value at a dotted path (`"host.cores"`).
fn at<'a>(v: &'a Value, path: &str) -> &'a Value {
    path.split('.').fold(v, |v, key| v.get(key).unwrap_or_else(|| panic!("no `{path}`")))
}

fn int(v: &Value, path: &str) -> i64 {
    match at(v, path) {
        Value::Int(n) => *n,
        other => panic!("`{path}` must be an integer, not {other}"),
    }
}

fn ints(v: &Value, paths: &[&str]) {
    paths.iter().for_each(|path| _ = int(v, path));
}

fn num(v: &Value, path: &str) -> f64 {
    at(v, path).as_f64().unwrap_or_else(|| panic!("`{path}` must be a number"))
}

fn text<'a>(v: &'a Value, path: &str) -> &'a str {
    at(v, path).as_str().unwrap_or_else(|| panic!("`{path}` must be a string"))
}

fn rows<'a>(v: &'a Value, path: &str) -> &'a [Value] {
    at(v, path).as_arr()
}

#[test]
fn every_tracked_record_holds_its_schema() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut names: Vec<String> = std::fs::read_dir(root)
        .expect("the repository root is readable")
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    names.sort();
    assert_eq!(names, ["BENCH_ab_leakage.json", "BENCH_live_loop.json", "BENCH_sim_scale.json"]);
    for name in names {
        println!("checking {name}"); // shown with a failure
        let contents = std::fs::read_to_string(format!("{root}/{name}")).expect("readable");
        let d = Value::parse(&contents).unwrap_or_else(|e| panic!("{name}: {e}"));
        int(&d, "seed");
        assert!(int(&d, "host.cores") > 0 && !text(&d, "host.commit").is_empty());
        if at(&d, "before") != &Value::Null {
            assert!(int(&d, "before.host.cores") > 0, "a before block names its host");
            assert_ne!(at(&d, "before.host"), at(&d, "host"), "a before block is from elsewhere");
        }
        match text(&d, "experiment") {
            "sim-scale" => sim_scale(&d),
            "live-report" => live_report(&d),
            "ab-report" => ab_report(&d),
            other => panic!("unexpected experiment tag {other:?}"),
        }
    }
}

/// The rows of the `before` block (none if it is `null`): each names a
/// row of the record's own, and has a wall time.
fn before_rows<'a>(d: &'a Value, key: &str, row_id: &str) -> &'a [Value] {
    if at(d, "before") == &Value::Null {
        return &[];
    }
    let ids: Vec<i64> = rows(d, key).iter().map(|row| int(row, row_id)).collect();
    let kept = rows(d, &format!("before.{key}"));
    for row in kept {
        assert!(ids.contains(&int(row, row_id)), "a before row names a row this record lacks");
        assert!(num(row, "wall_ms") > 0.0);
    }
    kept
}

/// One run per pool width, each with the record's fingerprint.
fn width_invariant(d: &Value) {
    assert_eq!(rows(d, "widths"), [Value::Int(1), Value::Int(2), Value::Int(8)]);
    let workers: Vec<i64> = rows(d, "runs").iter().map(|r| int(r, "workers")).collect();
    assert_eq!(workers, [1, 2, 8]);
    for run in rows(d, "runs") {
        assert!(num(run, "wall_ms") > 0.0);
        assert_eq!(text(run, "fingerprint"), text(d, "fingerprint"), "fingerprints diverged");
    }
    assert_eq!(at(d, "fingerprints_match"), &Value::Bool(true));
    before_rows(d, "runs", "workers");
}

fn sim_scale(d: &Value) {
    // The record this one replaced was taken under another stamp, and
    // the timeline may not have moved since.
    assert!(at(d, "before") != &Value::Null, "the tracked record did not become `before`");
    let recorded = before_rows(d, "populations", "devices");
    assert!(!rows(d, "populations").is_empty());
    for pop in rows(d, "populations") {
        ints(pop, &["events", "p95_rtt_us", "timed_out", "peak_rss_kb"]);
        assert!(num(pop, "wall_ms") > 0.0 && num(pop, "events_per_sec") > 0.0);
        let devices = int(pop, "devices");
        let was = recorded.iter().find(|b| int(b, "devices") == devices);
        let was = was.unwrap_or_else(|| panic!("{devices} devices are missing from `before`"));
        let (was, is) = (text(was, "fingerprint"), text(pop, "fingerprint"));
        assert_eq!(was, is, "the {devices}-device fingerprint moved since the tracked record");
    }
}

fn live_report(d: &Value) {
    width_invariant(d);
    ints(d, &["users", "served", "rollbacks", "drift_marks", "pending_at_end", "prefix.misses"]);
    ints(d, &["retrain_forward_passes", "forward_passes_saved", "quiescent_served"]);
    for key in ["retrain_latency_us", "staleness_us"] {
        assert!(int(d, &format!("{key}.p50")) <= int(d, &format!("{key}.p95")), "{key}");
    }
    let retrains = int(d, "retrains");
    assert!(retrains > 0, "the eager trigger must produce re-trains");
    assert!(rows(d, "runs").iter().all(|r| int(r, "retrains") == retrains));
    assert!(int(d, "reaudit.audits") > 0 && int(d, "reaudit.hits") > 0);
    assert!(int(d, "reaudit.queries") > 0, "the re-audit sweeps attacked nothing");
    assert_eq!(int(d, "reaudit.misses"), 0, "a re-audit of an unchanged candidate was not free");
    assert!(int(d, "prefix.hits") > 0, "no re-train reused its user's frozen-prefix activations");
    assert_eq!(at(d, "quiescent_equivalent"), &Value::Bool(true), "the quiescent loop diverged");
}

fn ab_report(d: &Value) {
    width_invariant(d);
    let yes = Value::Bool(true);
    assert_eq!((at(d, "cohorts.disjoint"), at(d, "cohorts.seed_stable")), (&yes, &yes));
    let [a, b, holdout] = ["a", "b", "holdout"].map(|c| int(d, &format!("cohorts.{c}")));
    assert!(a > 0 && b > 0, "a treatment cohort is empty");
    assert_eq!(a + b + holdout, int(d, "enrolled"), "the cohorts must cover enrolment");
    let names: Vec<&str> = rows(d, "arms").iter().map(|arm| text(arm, "name")).collect();
    assert_eq!(names, ["A", "B"]);
    for arm in rows(d, "arms") {
        assert!(int(arm, "attacked") > 0 && int(arm, "wire_queries") > 0, "an arm went unattacked");
        assert!((0.0..=1.0).contains(&num(arm, "leakage")));
        assert!((0.0..=1.0).contains(&num(arm, "baseline")));
        assert!(int(arm, "latency_p95_us") >= int(arm, "queue_p95_us"));
    }
    assert!(int(d, "verdict.checkpoints") >= 1);
    assert_eq!(int(d, "rollout.degraded_after_swap"), 0, "a losing-rung response after its flip");
    let (flip_backs, promotions) = (int(d, "rollout.flip_backs"), int(d, "rollout.promotions"));
    match at(d, "verdict.winner") {
        Value::Null => assert_eq!(flip_backs + promotions, 0, "a null verdict moved users"),
        _ => {
            let loser = match text(d, "verdict.winner") {
                "A" => b,
                "B" => a,
                other => panic!("the winner {other:?} is not an arm"),
            };
            assert_eq!((flip_backs, promotions), (loser, holdout), "losers flip, holdouts adopt");
            int(d, "rollout.staleness_us");
        }
    }
    assert_eq!(at(d, "aa.null"), &yes, "the A/A control promoted a winner");
}
