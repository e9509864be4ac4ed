//! The benchmark must keep compiling across the ROADMAP's planned
//! deletions, because a change that claims a gain may not edit it. This
//! scan fails if `src/` names an API slated for deletion:
//! `PipelineConfig::cohort`, `fit_lockstep`, `form_cohorts`,
//! `SimulatorBuilder::shards`, `BatchScheduler::coalesce`,
//! `train::network`, `platform::measure`, and the process-wide
//! `flops_now` / `reset_flops`.

use std::path::Path;

/// Identifiers that may not appear at all (comments excepted).
const BANNED: [&str; 10] = [
    "cohort", // the PipelineConfig field; `cohort_jobs` is another identifier
    "fit_lockstep",
    "form_cohorts",
    "train_candidates_lockstep",
    "BatchScheduler",
    "coalesce",
    "measure", // pelican::platform::measure; `Metrics::measured` is another identifier
    "flops_now",
    "reset_flops",
    "simulate_fleet_network",
];
/// Identifiers banned only before the given punctuation: the builder
/// call `.shards(`, and `network::` as a module path. `shards:` and
/// `network:` as config fields stay.
const BANNED_BEFORE: [(&str, &str); 2] = [("shards", "("), ("network", "::")];

fn sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("src is readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `(identifier, text right after it)` for every identifier on a line,
/// with any `//` comment cut off.
fn identifiers(line: &str) -> Vec<(&str, &str)> {
    let code = line.split("//").next().unwrap_or("");
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut found = Vec::new();
    let mut rest = code;
    while let Some(start) = rest.find(is_ident) {
        let tail = &rest[start..];
        let len = tail.find(|c| !is_ident(c)).unwrap_or(tail.len());
        found.push((&tail[..len], tail[len..].trim_start()));
        rest = &tail[len..];
    }
    found
}

#[test]
fn src_names_no_api_slated_for_deletion() {
    let mut files = Vec::new();
    sources(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src"), &mut files);
    assert!(files.len() >= 10, "the scan found the crate's sources");
    let mut hits = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("source is UTF-8");
        for (n, line) in text.lines().enumerate() {
            for (ident, after) in identifiers(line) {
                let banned = BANNED.contains(&ident)
                    || BANNED_BEFORE
                        .iter()
                        .any(|(name, next)| ident == *name && after.starts_with(next));
                if banned {
                    hits.push(format!("{}:{}: `{ident}`", file.display(), n + 1));
                }
            }
        }
    }
    assert!(hits.is_empty(), "to-be-deleted APIs named in the benchmark:\n{}", hits.join("\n"));
}

#[test]
fn the_scan_sees_what_it_should() {
    let hit = |line: &str| {
        identifiers(line).iter().any(|(ident, after)| {
            BANNED.contains(ident)
                || BANNED_BEFORE.iter().any(|(n, next)| ident == n && after.starts_with(next))
        })
    };
    assert!(hit("PipelineConfig { cohort: 4, ..d }"));
    assert!(hit("Simulator::builder().shards(8)"));
    assert!(hit("use pelican_train::network::NetworkConfig;"));
    assert!(hit("let (x, u) = measure(tier, || f());"));
    assert!(!hit("let jobs = cohort_jobs(&dataset, users, 0.8); // not the cohort field"));
    assert!(!hit("StoreConfig { shards: 4, ..d }"));
    assert!(!hit("SimServeConfig { network: None, ..d }"));
    assert!(!hit("metrics.measured(\"x\", 1.0)"));
}
