//! Every `tanh` in product code is `pelican_tensor::ops::tanh`, whose
//! bits do not depend on the host's libm. The equivalence suites compare
//! one owned path against another, so a call site that drifted back to
//! `std`'s `tanh` would pass all of them on a glibc host and move bits
//! elsewhere. This scan is what catches it.

use std::fs;
use std::path::{Path, PathBuf};

/// Source patterns that reach the host libm's `tanh`.
const HOST_TANH: [&str; 2] = [".tanh()", "f32::tanh"];

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

/// `path:line` of every non-comment line calling the host `tanh`.
fn host_tanh_calls(path: &Path, text: &str) -> Vec<String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim_start().starts_with("//"))
        .filter(|(_, line)| HOST_TANH.iter().any(|p| line.contains(p)))
        .map(|(i, line)| format!("{}:{}: {}", path.display(), i + 1, line.trim()))
        .collect()
}

#[test]
fn no_crate_source_calls_the_host_tanh() {
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
    let calls: Vec<String> = files
        .iter()
        .flat_map(|f| host_tanh_calls(f, &fs::read_to_string(f).expect("readable source")))
        .collect();
    assert!(calls.is_empty(), "call pelican_tensor::ops::tanh instead:\n{}", calls.join("\n"));
}

#[test]
fn the_scan_flags_both_spellings_and_skips_comments() {
    let path = Path::new("x.rs");
    assert_eq!(host_tanh_calls(path, "let y = x.tanh();").len(), 1);
    assert_eq!(host_tanh_calls(path, "xs.iter().map(|&v| f32::tanh(v))").len(), 1);
    assert!(host_tanh_calls(path, "/// like `f32::tanh`, bit for bit").is_empty());
    assert!(host_tanh_calls(path, "let y = tanh(x);").is_empty());
}
