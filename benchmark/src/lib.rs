//! The repo benchmark: five workloads that drive the Pelican stack only
//! through its public entry points and time every call from outside.
//!
//! `BENCHMARK.json` at the repository root declares the workloads and
//! metrics; `README.md` beside this crate explains them. The binary's
//! subcommands are `run` (end-to-end metrics), `trace` (per-layer
//! metrics and spans) and `check` (A/A self-check); with no subcommand it
//! speaks the driver's `--workload --seed --seconds --trace` contract.

pub mod host;
pub mod json;
pub mod pace;
pub mod probes;
pub mod row;
pub mod runner;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;

use row::Row;
use runner::{run, Options, Workload};
use workloads::{
    enroll_fleet::EnrollFleet, live_retrain::LiveRetrain, serve_steady::ServeSteady,
    sim_fleet::SimFleet, store_churn::StoreChurn,
};

/// Runs the workload called `name`; `None` if there is no such workload.
pub fn run_workload(name: &str, options: &Options) -> Option<Row> {
    Some(match name {
        EnrollFleet::NAME => run::<EnrollFleet>(options),
        LiveRetrain::NAME => run::<LiveRetrain>(options),
        ServeSteady::NAME => run::<ServeSteady>(options),
        StoreChurn::NAME => run::<StoreChurn>(options),
        SimFleet::NAME => run::<SimFleet>(options),
        _ => return None,
    })
}
