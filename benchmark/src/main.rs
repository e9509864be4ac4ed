//! Command line of the repo benchmark. See `README.md` beside the crate.

use std::process::{Command, ExitCode, Stdio};

use pelican_benchmark::json::Value;
use pelican_benchmark::runner::Options;
use pelican_benchmark::spec::Spec;
use pelican_benchmark::workloads::NAMES;
use pelican_benchmark::{host, run_workload};

const USAGE: &str = "\
usage:
  pelican-benchmark run   --workload <name|all> [--seed N] [--seconds S] [--quick]
  pelican-benchmark trace --workload <name|all> [--seed N] [--seconds S] [--quick]
  pelican-benchmark check [--seed N] [--seconds S] [--quick]
  pelican-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>

run    times the workload untraced and prints its end-to-end metrics
trace  is the separate traced pass: per-layer metrics, spans to benchmark/out/
check  runs the untraced suite twice in fresh processes: exact metrics bit-equal,
       bounded ones within their bound
The last form is what the driver named in BENCHMARK.json calls.
Workloads: enroll_fleet live_retrain serve_steady store_churn sim_fleet";

struct Args {
    /// `run`, `trace`, `check`, or `driver` for the flag-only form.
    command: String,
    workload: Option<String>,
    options: Options,
}

fn parse(args: &[String], spec: &Spec) -> Result<Args, String> {
    let (command, flags) = match args.first() {
        Some(first) if !first.starts_with("--") => (first.clone(), &args[1..]),
        _ => ("driver".to_owned(), args),
    };
    if !["run", "trace", "check", "driver"].contains(&command.as_str()) {
        return Err(format!("unknown command `{command}`"));
    }
    let mut workload = None;
    let mut options =
        Options { seed: 42, quick: false, trace: command == "trace", seconds: spec.run_seconds };
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        if flag == "--quick" {
            options.quick = true;
            continue;
        }
        let value = flags.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag} {value}: not a whole number"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => options.seed = number()?,
            "--seconds" => {
                options.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("--seconds {value}: not a duration"))?;
            }
            "--trace" if command == "driver" => options.trace = number()? != 0,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    match (command.as_str(), workload.as_deref()) {
        ("check", None) => {}
        ("check", Some(_)) => {
            return Err("check runs every workload; it takes no --workload".to_owned())
        }
        (_, None) => return Err("--workload is required".to_owned()),
        ("driver", Some("all")) => return Err("the driver form runs one workload".to_owned()),
        (_, Some(name)) if name != "all" && !NAMES.contains(&name) => {
            return Err(format!("unknown workload `{name}`"));
        }
        _ => {}
    }
    Ok(Args { command, workload, options })
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The flags that reproduce `options` in a child process.
fn child_flags(options: &Options) -> Vec<String> {
    let mut flags = vec![
        "--seed".to_owned(),
        options.seed.to_string(),
        "--seconds".to_owned(),
        options.seconds.to_string(),
    ];
    if options.quick {
        flags.push("--quick".to_owned());
    }
    flags
}

/// Runs one workload in a fresh process — its own allocator state, its
/// own peak RSS — and returns the row it printed.
fn run_in_child(command: &str, workload: &str, options: &Options) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = Command::new(exe)
        .args([command, "--workload", workload])
        .args(child_flags(options))
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let row = stdout.lines().last().ok_or_else(|| format!("{workload} printed nothing"))?;
    Value::parse(row).map_err(|e| format!("{workload}: {e}"))
}

fn one(args: &Args, workload: &str, spec: &Spec) -> ExitCode {
    let row = run_workload(workload, &args.options).expect("workload names were checked");
    eprint!("{}", row.render(spec));
    println!("{}", row.to_json(spec, &host::stamp()));
    if args.command == "driver" {
        println!("{}", row.contract_line(spec));
        return ExitCode::SUCCESS;
    }
    exit_code(row.correct())
}

fn all(args: &Args) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for workload in NAMES {
        match run_in_child(&args.command, workload, &args.options) {
            Ok(row) => {
                if row.get("correct").and_then(Value::as_bool) != Some(true) {
                    code = ExitCode::FAILURE;
                }
                println!("{row}");
            }
            Err(e) => {
                eprintln!("error: {e}");
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}

/// One metric of one workload, first suite run against second.
struct Verdict {
    metric: String,
    first: f64,
    second: f64,
    /// The share the two may differ by; `None` demands bit-equality.
    allowed: Option<f64>,
    within: bool,
}

/// Compares the rows the two suite runs printed for one workload: exact
/// metrics bit for bit, bounded ones under their own bound. Unbounded
/// host timings are not compared.
fn compare(first: &Value, second: &Value, spec: &Spec, quick: bool) -> Vec<Verdict> {
    let value_in = |row: &Value, name: &str| {
        let entry = row.get("metrics").and_then(|m| m.get(name));
        entry.and_then(|m| m.get("value")).and_then(Value::as_f64).unwrap_or(f64::NAN)
    };
    let mut out = Vec::new();
    for (name, entry) in first.get("metrics").map(Value::as_obj).unwrap_or_default() {
        let (a, b) = (value_in(first, name), value_in(second, name));
        let exact = entry.get("exact").and_then(Value::as_bool) == Some(true);
        let (allowed, within) = match (exact, spec.metric(name).and_then(|m| m.bound)) {
            (true, _) => (None, a.to_bits() == b.to_bits()),
            // One-iteration smoke timings say nothing about steadiness.
            (false, Some(bound)) => {
                (Some(bound), quick || (a - b).abs() <= bound * a.abs().min(b.abs()))
            }
            (false, None) => continue,
        };
        out.push(Verdict { metric: name.clone(), first: a, second: b, allowed, within });
    }
    out
}

fn check(args: &Args, spec: &Spec) -> ExitCode {
    let mut suites: Vec<Vec<Value>> = Vec::new();
    for run in ["first", "second"] {
        eprintln!("check: {run} suite run");
        let rows: Result<Vec<Value>, String> =
            NAMES.iter().map(|w| run_in_child("run", w, &args.options)).collect();
        match rows {
            Ok(rows) => suites.push(rows),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut ok = true;
    let mut report = Vec::new();
    for (w, workload) in NAMES.iter().enumerate() {
        let (first, second) = (&suites[0][w], &suites[1][w]);
        let same_outputs = first.get("fingerprint") == second.get("fingerprint");
        let correct =
            [first, second].iter().all(|r| r.get("correct").and_then(Value::as_bool) == Some(true));
        ok &= same_outputs && correct;
        eprintln!(
            "{workload}: fingerprints {}, outputs {}",
            if same_outputs { "equal" } else { "DIFFER" },
            if correct { "correct" } else { "INCORRECT" }
        );
        let mut rows = Vec::new();
        for v in compare(first, second, spec, args.options.quick) {
            ok &= v.within;
            let rule = match v.allowed {
                None => "bit-equal".to_owned(),
                Some(_) if args.options.quick => "not held".to_owned(),
                Some(share) => format!("within {:.0}%", share * 100.0),
            };
            let verdict = if v.within { "ok" } else { "FAIL" };
            eprintln!(
                "  {:<20} {:>18.6} {:>18.6}  {rule:<12} {verdict}",
                v.metric, v.first, v.second
            );
            rows.push(Value::obj([
                ("metric", Value::str(v.metric)),
                ("first", Value::Num(v.first)),
                ("second", Value::Num(v.second)),
                ("allowed_share", v.allowed.map_or(Value::Null, Value::Num)),
                ("within", Value::Bool(v.within)),
            ]));
        }
        report.push(Value::obj([
            ("workload", Value::str(*workload)),
            ("fingerprints_equal", Value::Bool(same_outputs)),
            ("correct", Value::Bool(correct)),
            ("metrics", Value::Arr(rows)),
        ]));
    }
    println!(
        "{}",
        Value::obj([
            ("check", Value::str("A/A")),
            ("host", host::stamp()),
            ("seed", Value::Int(args.options.seed as i64)),
            ("quick", Value::Bool(args.options.quick)),
            ("agree", Value::Bool(ok)),
            ("workloads", Value::Arr(report)),
        ])
    );
    eprintln!("check: {}", if ok { "both runs agree" } else { "the runs DISAGREE" });
    exit_code(ok)
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw, &spec) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_str(), args.workload.as_deref()) {
        ("check", _) => check(&args, &spec),
        (_, Some("all")) => all(&args),
        (_, Some(workload)) => one(&args, workload, &spec),
        (_, None) => unreachable!("parse requires a workload for every other command"),
    }
}
