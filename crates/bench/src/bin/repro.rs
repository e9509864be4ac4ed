//! `repro` — regenerates every table and figure of the Pelican paper.
//!
//! ```text
//! repro <experiment> [--scale tiny|small|paper] [--seed N] [--users N]
//!       [--instances N] [--devices N]
//! repro --list
//! ```
//!
//! Experiments live in the [`pelican_bench::experiments`] registry; this
//! binary only parses flags, resolves the name and runs it. `all` runs
//! the paper figures/tables in paper order.

use std::process::ExitCode;

use pelican_bench::experiments::{self, PAPER_SET};
use pelican_bench::parse_args;

const USAGE: &str = "usage: repro <experiment> [--scale tiny|small|paper] [--seed N] [--users N] \
                     [--instances N] [--devices N]
       repro --list    (every experiment with its description)
       repro all       (paper figures/tables in paper order)";

fn list() -> String {
    let mut out = String::from("experiments:\n");
    for exp in experiments::experiments() {
        out.push_str(&format!("  {:<17} {}\n", exp.name, exp.description));
    }
    out.push_str("  all               run the paper figures/tables in order");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((experiment, rest)) = args.split_first() else {
        eprintln!("{USAGE}\n\n{}", list());
        return ExitCode::FAILURE;
    };
    if experiment == "--list" || experiment == "list" {
        println!("{}", list());
        return ExitCode::SUCCESS;
    }
    let config = match parse_args(rest) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let started = std::time::Instant::now();
    if experiment == "all" {
        for name in PAPER_SET {
            experiments::find(name).expect("paper-set names are registered").run(&config);
        }
    } else {
        match experiments::find(experiment) {
            Some(exp) => exp.run(&config),
            None => {
                eprintln!("unknown experiment '{experiment}'\n\n{USAGE}\n\n{}", list());
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!("\n[done in {:.1?}]", started.elapsed());
    ExitCode::SUCCESS
}
