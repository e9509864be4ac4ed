//! Source patterns no `crates/*/src` file may use, each with what to use
//! instead, in one scan.
//!
//! * The host libm's `tanh`: `pelican_tensor::ops::tanh` has bits that do
//!   not depend on the host. The equivalence suites compare one owned
//!   path against another, so a call site that drifted back to `std`'s
//!   `tanh` would pass all of them on a glibc host and move bits
//!   elsewhere.
//! * A per-thread FLOP counter: compute is priced from model shapes, so
//!   no simulated time reads state a thread kept on the side.
//! * Retired knobs: the optimizer choice and the extraction thresholds
//!   had one value in use and are constants beside their one use; a
//!   second value comes back as a deliberate change, not as a setting.
//! * Second front doors to the defense and the attack: `DefenseKind`
//!   names every defense, a model holds exactly one and
//!   `SequenceModel::set_defense` is the one place it is checked and
//!   installed; one `interest_locations` probes any `BlackBox`.
//! * A storeless registry: every `ShardedRegistry` publishes through a
//!   durable store, so no caller checks for a missing one.
//! * A second inference layout: a served batch runs the sweep's pass, one
//!   matrix per timestep, through the one `Layer::infer`.
//! * A second red-team configuration: the served adversary attacks with
//!   the audit gate's `AuditConfig`, so its probes, prior and cutoffs
//!   cannot drift from the gate's.

use std::fs;
use std::path::{Path, PathBuf};

/// `(pattern, use instead)`.
const BANS: [(&str, &str); 18] = [
    (".tanh()", "pelican_tensor::ops::tanh"),
    ("f32::tanh", "pelican_tensor::ops::tanh"),
    ("thread_local!", "state passed in and returned, not kept per thread"),
    ("record_flops", "SequenceModel::{infer_cost, train_cost}: FLOPs from shapes"),
    ("ThreadFlopGuard", "ResourceUsage::priced of a cost function's FLOPs"),
    ("measure_thread", "ResourceUsage::priced of a cost function's FLOPs"),
    ("OptimizerKind", "Adam, the one optimizer `fit` steps"),
    ("Sgd::", "Adam, the one optimizer `fit` steps"),
    ("ExtractConfig", "extract_sessions' IDLE_TIMEOUT and MIN_DWELL"),
    ("PrivacyLayer", "DefenseKind::Temperature, and PAPER_DEFENSE for the paper's T"),
    ("attack_user_defended", "Scenario::attack_user, which takes a DefenseKind"),
    ("interest_locations_in", "interest_locations, which takes any BlackBox"),
    ("Postprocess", "DefenseKind::{OutputNoise, Rounding}, the model's one defense"),
    ("set_temperature", "SequenceModel::set_defense(DefenseKind::Temperature { .. })"),
    ("set_postprocess", "SequenceModel::set_defense, which replaces the whole defense"),
    (
        "NoStore",
        "every `ShardedRegistry` has a store; `ShardedRegistry::new` opens an in-memory one",
    ),
    ("infer_batch", "SequenceModel::logits_batch, which runs the sweep's layer pass"),
    ("ServedConfig", "AuditConfig, the red-team recipe the served adversary shares with the gate"),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("reading {}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `path:line: code (use …)` for every non-comment line using a banned
/// pattern.
fn banned_uses(path: &Path, text: &str) -> Vec<String> {
    let code = text.lines().enumerate().filter(|(_, line)| !line.trim_start().starts_with("//"));
    code.flat_map(|(i, line)| {
        BANS.iter().filter(move |(pattern, _)| line.contains(pattern)).map(move |(_, instead)| {
            format!("{}:{}: {} (use {instead})", path.display(), i + 1, line.trim())
        })
    })
    .collect()
}

#[test]
fn no_crate_source_uses_a_banned_pattern() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for krate in fs::read_dir(&crates).expect("crates/ exists") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(
        files.len() > 50,
        "only {} source files found: the scan is not reading crates/",
        files.len()
    );
    let uses: Vec<String> = files
        .iter()
        .flat_map(|f| banned_uses(f, &fs::read_to_string(f).expect("readable source")))
        .collect();
    assert!(uses.is_empty(), "banned patterns in crate sources:\n{}", uses.join("\n"));
}

#[test]
fn the_scan_flags_each_pattern_and_skips_comments() {
    let path = Path::new("x.rs");
    assert_eq!(banned_uses(path, "let y = x.tanh();").len(), 1);
    assert_eq!(banned_uses(path, "xs.iter().map(|&v| f32::tanh(v))").len(), 1);
    assert!(banned_uses(path, "/// like `f32::tanh`, bit for bit").is_empty());
    assert!(banned_uses(path, "let y = tanh(x);").is_empty());
    assert_eq!(banned_uses(path, "    record_flops(2 * n);").len(), 1);
    assert!(banned_uses(path, "// the counter's record_flops is gone").is_empty());
    assert_eq!(banned_uses(path, "PrivacyLayer::default().apply(&mut m);").len(), 1);
    assert_eq!(banned_uses(path, "m.set_postprocess(Postprocess::None);").len(), 2);
    assert_eq!(banned_uses(path, "    model.set_temperature(1e-3);").len(), 1);
    assert!(banned_uses(path, "Err(ModelCodecError::UnknownDefenseTag(t))").is_empty());
    assert_eq!(banned_uses(path, "        return Err(UpdateError::NoStore);").len(), 1);
    assert_eq!(banned_uses(path, "    cur = layer.infer_batch(&cur);").len(), 1);
    assert_eq!(banned_uses(path, "    let config = ServedConfig::default();").len(), 1);
}
