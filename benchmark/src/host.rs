//! What the benchmark reads from the machine it runs on: the stamp
//! every row carries, and the process's CPU time and peak memory.

use std::process::Command;

use crate::json::Value;

/// Cores, commit and compiler — a perf number without them cannot be
/// compared with anything.
pub fn stamp() -> Value {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as i64);
    Value::obj([
        ("cores", Value::Int(cores)),
        ("commit", Value::str(git_commit())),
        ("rustc", Value::str(first_line("rustc", &["--version"]))),
    ])
}

/// The checked-out commit, `+dirty` when the work tree differs from it;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let head = first_line("git", &["-C", repo, "rev-parse", "HEAD"]);
    let dirty = stdout_of("git", &["-C", repo, "status", "--porcelain"]);
    match dirty {
        Some(changes) if !changes.trim().is_empty() => format!("{head}+dirty"),
        _ => head,
    }
}

/// Stdout of a finished command; `None` if it could not run or failed.
fn stdout_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

fn first_line(program: &str, args: &[&str]) -> String {
    stdout_of(program, args)
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Process CPU time (user + system, every thread, exited ones included)
/// in seconds, from `/proc/self/stat`. The kernel counts it in ticks of
/// 10 ms, so one reading is coarse; `runner::run` sums them over a run.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0; // USER_HZ, fixed by the Linux ABI
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // The command name (field 2) may hold spaces; fields count from the
    // closing parenthesis: state is field 3, utime 14, stime 15.
    let Some(after) = stat.rfind(')').map(|i| &stat[i + 1..]) else { return 0.0 };
    let ticks: u64 =
        after.split_whitespace().skip(11).take(2).filter_map(|t| t.parse::<u64>().ok()).sum();
    ticks as f64 / TICKS_PER_SECOND
}

/// Peak resident set (`VmHWM`) of this process in MB, or 0 where `/proc`
/// is missing.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
