//! One module per group of paper experiments.
//!
//! | module | regenerates |
//! |---|---|
//! | [`attack_methods`] | Fig. 2a, Table II |
//! | [`adversaries`] | Fig. 2b, Fig. 2c |
//! | [`spatial`] | Fig. 3a, Fig. 3b, Fig. 3c |
//! | [`personalization`] | Table III, Table IV, §V-C2 overhead |
//! | [`defense`] | Fig. 5a, Fig. 5b, Fig. 5c |
//! | [`ablation`] | defense comparison, interest threshold, GD config, freeze depth |
//! | [`serving`] | fleet-serving throughput/latency (beyond the paper; ROADMAP north star) |
//! | [`training`] | fleet-training pipeline: parallel personalization + audit gate (beyond the paper) |
//! | [`network`] | device↔cloud network simulation: link-mix × retry sweep, contention, cloud RTT (beyond the paper) |
//! | [`cosim`] | closed-loop network/compute co-simulation: open vs. closed loops, width invariance, sim-driven scheduler reactivity (beyond the paper) |
//! | [`sim_scale`] | sim-core scaling: timer-wheel events/sec, memory and tail latency at 10⁴–10⁶ devices (beyond the paper) |
//! | [`store`] | durable model store: log throughput, crash-recovery probe, rollback-under-traffic staleness (beyond the paper) |
//! | [`live`] | streaming personalization loop: retrain latency/staleness, width invariance, zero-cost re-audits (beyond the paper) |
//! | [`abx`] | closed-loop A/B experimentation of defense rungs: served-interface leakage verdicts, A/A null, flip-back rollout (beyond the paper) |
//!
//! Every experiment is one [`Entry`] of the registry: [`experiments`]
//! enumerates them (driving `repro --list`) and [`find`] resolves a CLI
//! name to its runner.

pub mod ablation;
pub mod abx;
pub mod adversaries;
pub mod attack_methods;
pub mod cosim;
pub mod defense;
pub mod live;
pub mod network;
pub mod personalization;
pub mod serving;
pub mod sim_scale;
pub mod spatial;
pub mod store;
pub mod training;

use pelican::workbench::{Scenario, ScenarioSizing};
use pelican::{PersonalizationConfig, PersonalizationMethod};
use pelican_mobility::{SpatialLevel, TRAIN_FRACTION};
use pelican_nn::TrainConfig;
use pelican_train::{cohort_jobs, AuditConfig, PipelineConfig, TrainJob};

use crate::{host, report, RunConfig};

/// A registry row: everything the `repro` binary needs to list an
/// experiment and run it. Rows are plain data, so the whole registry
/// lives in one `static`.
pub struct Entry {
    /// CLI name (`repro <name>`).
    pub name: &'static str,
    /// One-line description for `repro --list` and the usage screen.
    pub description: &'static str,
    run: fn(&RunConfig),
}

impl Entry {
    /// Runs the experiment and prints its report to stdout.
    pub fn run(&self, config: &RunConfig) {
        (self.run)(config)
    }
}

/// Paper figures/tables in paper order — what `repro all` runs.
pub const PAPER_SET: [&str; 13] = [
    "fig2a", "table2", "fig2b", "fig2c", "fig3a", "fig3b", "fig3c", "table3", "table4", "overhead",
    "fig5a", "fig5b", "fig5c",
];

static REGISTRY: &[Entry] = &[
    Entry {
        name: "fig2a",
        description: "attack accuracy by method (brute force / gradient descent / time-based)",
        run: run_fig2a,
    },
    Entry {
        name: "table2",
        description: "attack cost by method (queries + runtime)",
        run: run_table2,
    },
    Entry { name: "fig2b", description: "attack accuracy by adversary (A1/A2/A3)", run: run_fig2b },
    Entry {
        name: "fig2c",
        description: "attack accuracy by prior (true/none/predict/estimate)",
        run: run_fig2c,
    },
    Entry {
        name: "fig3a",
        description: "attack accuracy by spatial level (building vs AP)",
        run: run_fig3a,
    },
    Entry {
        name: "fig3b",
        description: "degree of mobility vs attack accuracy (+ correlation)",
        run: run_fig3b,
    },
    Entry {
        name: "fig3c",
        description: "mobility predictability vs attack accuracy (+ correlation)",
        run: run_fig3c,
    },
    Entry {
        name: "table3",
        description: "personalization accuracy (Reuse/LSTM/TL FE/TL FT, both levels)",
        run: run_table3,
    },
    Entry {
        name: "table4",
        description: "personalization accuracy vs training-data size (2/4/6/8 weeks)",
        run: run_table4,
    },
    Entry {
        name: "overhead",
        description: "cloud training vs device personalization compute",
        run: run_overhead,
    },
    Entry {
        name: "fig5a",
        description: "defense: leakage reduction by personalization method",
        run: run_fig5a,
    },
    Entry {
        name: "fig5b",
        description: "defense: leakage reduction vs privacy temperature",
        run: run_fig5b,
    },
    Entry {
        name: "fig5c",
        description: "defense: leakage reduction by spatial level",
        run: run_fig5c,
    },
    Entry {
        name: "serve-report",
        description: "fleet serving: throughput, batching, cache and latency per tier",
        run: run_serve_report,
    },
    Entry {
        name: "train-report",
        description: "fleet training: parallel personalization, audit gate, enroll latency",
        run: run_train_report,
    },
    Entry {
        name: "net-report",
        description: "fleet network: link-mix x retry sweep, uplink contention, cloud RTT",
        run: run_net_report,
    },
    Entry {
        name: "cosim-report",
        description:
            "closed-loop co-simulation: open vs closed loops, width invariance, sim scheduler",
        run: run_cosim_report,
    },
    Entry {
        name: "sim-scale",
        description: "sim-core scaling: events/sec, RSS and tail latency at 10k/100k/1M devices",
        run: run_sim_scale,
    },
    Entry {
        name: "store-report",
        description:
            "durable model store: log throughput, crash-recovery probe, rollback staleness",
        run: run_store_report,
    },
    Entry {
        name: "live-report",
        description:
            "streaming personalization loop: width invariance, retrain latency, free re-audits",
        run: run_live_report,
    },
    Entry {
        name: "ab-report",
        description:
            "closed-loop A/B of defense rungs: served-interface verdict, A/A null, flip rollout",
        run: run_ab_report,
    },
    Entry {
        name: "ablate-defenses",
        description: "compare temperature vs output-noise vs rounding defenses",
        run: run_ablate_defenses,
    },
    Entry {
        name: "ablate-interest",
        description: "locations-of-interest threshold sweep",
        run: run_ablate_interest,
    },
    Entry {
        name: "ablate-gd",
        description: "gradient-descent attack hyperparameter sweep",
        run: run_ablate_gd,
    },
    Entry {
        name: "ablate-freeze",
        description: "fine-tuning freeze-depth sweep",
        run: run_ablate_freeze,
    },
];

/// Every registered experiment, in registry (≈ paper) order.
pub fn experiments() -> impl Iterator<Item = &'static Entry> {
    REGISTRY.iter()
}

/// Resolves a CLI experiment name.
pub fn find(name: &str) -> Option<&'static Entry> {
    REGISTRY.iter().find(|e| e.name == name)
}

fn banner(title: &str, config: &RunConfig) {
    println!();
    println!("=== {title} (scale={}, seed={}) ===", config.scale, config.seed);
}

fn run_fig2a(config: &RunConfig) {
    banner("Fig. 2a — attack accuracy by method (%)", config);
    let result = attack_methods::run(config);
    println!("{}", attack_methods::fig2a_table(&result).render());
}

fn run_table2(config: &RunConfig) {
    banner("Table II — attack cost by method", config);
    let result = attack_methods::run(config);
    println!("{}", attack_methods::table2(&result).render());
    println!(
        "(paper: brute force 82.18 h, gradient descent 6.27 h, time-based 0.68 h for 100 users)"
    );
}

fn run_fig2b(config: &RunConfig) {
    banner("Fig. 2b — attack accuracy by adversary (%)", config);
    println!("{}", adversaries::fig2b(config).render());
}

fn run_fig2c(config: &RunConfig) {
    banner("Fig. 2c — attack accuracy by prior (%)", config);
    println!("{}", adversaries::fig2c(config).render());
}

fn run_fig3a(config: &RunConfig) {
    banner("Fig. 3a — attack accuracy by spatial level (%)", config);
    println!("{}", spatial::fig3a(config).render());
}

fn run_fig3b(config: &RunConfig) {
    banner("Fig. 3b — degree of mobility vs attack accuracy", config);
    for reg in spatial::fig3b(config) {
        let (table, summary) = spatial::regression_table(&reg);
        println!("{}", table.render());
        println!("{summary}");
        println!("(paper: r = 0.337 building, r = 0.107 AP — weak effect)\n");
    }
}

fn run_fig3c(config: &RunConfig) {
    banner("Fig. 3c — mobility predictability vs attack accuracy", config);
    for reg in spatial::fig3c(config) {
        let (table, summary) = spatial::regression_table(&reg);
        println!("{}", table.render());
        println!("{summary}");
        println!("(paper: r = 0.804 building — strong; r = 0.078 AP — weak)\n");
    }
}

fn run_table3(config: &RunConfig) {
    banner("Table III — personalization train/test accuracy (%)", config);
    println!("{}", personalization::table3(config).render());
}

fn run_table4(config: &RunConfig) {
    banner("Table IV — accuracy vs training-data size (%)", config);
    println!("{}", personalization::table4(config).render());
}

fn run_overhead(config: &RunConfig) {
    banner("§V-C2 — cloud vs device compute overhead", config);
    println!("{}", personalization::overhead(config).render());
    println!("(paper: ~43,000e9 cycles / 4.55 h cloud vs ~15e9 cycles / ~6.6 s device)");
}

fn run_fig5a(config: &RunConfig) {
    banner("Fig. 5a — leakage reduction by personalization method (%)", config);
    println!("{}", defense::fig5a(config).render());
}

fn run_fig5b(config: &RunConfig) {
    banner("Fig. 5b — leakage reduction vs privacy temperature", config);
    println!("{}", defense::fig5b(config).render());
}

fn run_fig5c(config: &RunConfig) {
    banner("Fig. 5c — leakage reduction by spatial level (%)", config);
    println!("{}", defense::fig5c(config).render());
}

fn run_serve_report(config: &RunConfig) {
    banner("Fleet serving — batched registry throughput & latency", config);
    let outcomes = serving::run(config);
    println!("{}", serving::table(&outcomes).render());
    println!("batch-size histogram (identical across tiers):");
    println!("{}", serving::histogram_table(&outcomes).render());
}

fn run_train_report(config: &RunConfig) {
    banner("Fleet training — parallel personalization & privacy audit", config);
    let outcomes = training::run(config);
    println!("{}", training::table(&outcomes).render());
    println!("(published weights and audit verdicts verified bit-identical across widths;");
    println!(" speedup is host wall clock, so it reflects this machine's core count)");
}

fn run_net_report(config: &RunConfig) {
    banner("Fleet network — simulated device↔cloud contention", config);
    let run = network::run(config);
    println!(
        "general envelope {} kB; determinism and contention contracts verified",
        run.general_bytes / 1024,
    );
    println!("\nlink-mix × retry-policy sweep (enroll latency, simulated):");
    println!("{}", network::table(&run).render());
    println!("shared-uplink contention vs. per-device baseline:");
    println!("{}", network::contention_table(&run).render());
    println!("cloud-deployed serving round trips:");
    println!("{}", network::cloud_table(config).render());
}

fn run_cosim_report(config: &RunConfig) {
    banner("Closed-loop co-simulation — one virtual clock for the fleet", config);
    let run = cosim::run(config);
    println!(
        "general envelope {} kB; agreement, divergence, width-invariance and \
         scheduler-reactivity contracts verified",
        run.general_bytes / 1024,
    );
    println!("\nopen-loop replay vs. closed-loop co-simulation (two training rounds):");
    println!("{}", cosim::table(&run).render());
    println!("closed-loop trace fingerprint by trainer-pool width:");
    println!("{}", cosim::width_table(&run).render());
    println!("sim-driven batch scheduler vs. network jitter:");
    println!("{}", cosim::serve_table(&run).render());
}

fn run_store_report(config: &RunConfig) {
    banner("Durable model store — log throughput, recovery, rollback", config);
    let result = store::run(config);
    println!("\nappend throughput and compaction (envelope log):");
    println!("{}", store::table(&result).render());
    println!(
        "crash probe: {}/{} torn offsets recovered to the exact committed prefix",
        result.crash_points_correct, result.crash_points
    );
    println!();
    println!("{}", result.rollback.render());
}

fn run_sim_scale(config: &RunConfig) {
    banner("Sim-core scaling — timer-wheel engine at fleet population", config);
    let run = sim_scale::run(config);
    println!("{}", sim_scale::table(&run).render());
    let record = sim_scale::record(&run, host::stamp());
    report::write_tracked("BENCH_sim_scale.json", record, &sim_scale::KEYS);
}

fn run_live_report(config: &RunConfig) {
    banner("Live loop — streaming personalization on the virtual clock", config);
    let run = live::run(config);
    println!(
        "fingerprints bit-identical across {:?}-worker pools; re-audit sweeps ran zero \
         forward passes;\nquiescent case reduced byte-for-byte to the one-shot pipeline\n",
        live::WIDTHS,
    );
    println!("{}", live::table(&run).render());
    print!("{}", run.outcome.render());
    report::write_tracked("BENCH_live_loop.json", live::record(&run, host::stamp()), &live::KEYS);
}

fn run_ab_report(config: &RunConfig) {
    banner("A/B experiment — defense rungs under live traffic", config);
    let run = abx::run(config);
    println!(
        "fingerprints bit-identical across {:?}-worker pools; cohorts disjoint and \
         seed-stable;\nA/A control decided null (Δ {:+.3}); zero degraded responses after \
         any flip\n",
        abx::WIDTHS,
        run.aa_delta,
    );
    println!("{}", abx::table(&run).render());
    print!("{}", run.outcome.render());
    report::write_tracked("BENCH_ab_leakage.json", abx::record(&run, host::stamp()), &abx::KEYS);
}

fn run_ablate_defenses(config: &RunConfig) {
    banner("Ablation — defense comparison (Table V alternatives)", config);
    println!("{}", ablation::defense_compare(config).render());
}

fn run_ablate_interest(config: &RunConfig) {
    banner("Ablation — locations-of-interest threshold", config);
    println!("{}", ablation::interest_threshold(config).render());
}

fn run_ablate_gd(config: &RunConfig) {
    banner("Ablation — gradient-descent attack configuration", config);
    println!("{}", ablation::gd_config(config).render());
}

fn run_ablate_freeze(config: &RunConfig) {
    banner("Ablation — fine-tuning freeze-depth sweep", config);
    println!("{}", ablation::freeze_depth(config).render());
}

/// Builds the standard experimental scenario for a run configuration:
/// TL-feature-extraction personalization (the paper's §IV default) at the
/// requested spatial level.
pub fn scenario(config: &RunConfig, level: SpatialLevel) -> Scenario {
    scenario_with(config, level, PersonalizationMethod::TlFeatureExtract)
}

/// Builds a scenario with an explicit personalization method.
pub fn scenario_with(
    config: &RunConfig,
    level: SpatialLevel,
    method: PersonalizationMethod,
) -> Scenario {
    Scenario::builder(config.scale, level)
        .seed(config.seed)
        .personal_users(config.personal_users())
        .method(method)
        .build()
}

/// The fleet reports' cohort (`train-report`, `net-report`,
/// `cosim-report`): a scenario with *zero* sequentially personalized
/// users — the pipeline itself does all per-user training — and the
/// training jobs of the `--users` users after the contributors.
pub fn fleet_cohort(config: &RunConfig) -> (Scenario, Vec<TrainJob>) {
    let scenario = Scenario::builder(config.scale, SpatialLevel::Building)
        .seed(config.seed)
        .personal_users(0)
        .build();
    let start = scenario.first_personal_user;
    // Clamp like Scenario::builder does: a --users override larger than
    // the personal-user pool must shrink the cohort, not index past it.
    let end = (start + config.personal_users()).min(scenario.dataset.users.len());
    let jobs = cohort_jobs(&scenario.dataset, start..end, TRAIN_FRACTION);
    (scenario, jobs)
}

/// The fleet reports' training pipeline at a trainer-pool width, sized
/// by the run's scale.
pub fn fleet_pipeline(config: &RunConfig, workers: usize) -> PipelineConfig {
    let sizing = ScenarioSizing::for_scale(config.scale);
    PipelineConfig {
        workers,
        base_seed: config.seed,
        personalization: PersonalizationConfig {
            train: TrainConfig {
                epochs: sizing.personal_epochs,
                batch_size: 16,
                ..TrainConfig::default()
            },
            hidden_dim: sizing.hidden_dim,
            ..PersonalizationConfig::default()
        },
        audit: AuditConfig {
            max_instances: config.instances_per_user,
            seed: config.seed ^ 0xA0D1,
            ..AuditConfig::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelican_mobility::Scale;

    #[test]
    fn tiny_scenario_builds() {
        let config = RunConfig { scale: Scale::Tiny, users: Some(1), ..RunConfig::default() };
        let s = scenario(&config, SpatialLevel::Building);
        assert_eq!(s.personal.len(), 1);
    }

    #[test]
    fn the_fleet_cohort_is_the_users_after_the_contributors() {
        let config = RunConfig { scale: Scale::Tiny, users: Some(10_000), ..RunConfig::default() };
        let (scenario, jobs) = fleet_cohort(&config);
        assert!(scenario.personal.is_empty(), "the pipeline trains every cohort user");
        let pool = scenario.first_personal_user..scenario.dataset.users.len();
        assert!(!jobs.is_empty() && jobs.len() <= pool.len());
        assert!(jobs.iter().all(|job| pool.contains(&job.user_id)));
        assert_eq!(fleet_pipeline(&config, 3).workers, 3);
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names: Vec<&str> = experiments().map(|e| e.name).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate experiment name");
        for name in &names {
            assert!(find(name).is_some());
            assert!(!find(name).unwrap().description.is_empty());
        }
        assert!(find("sim-scale").is_some(), "sim-scale registers like the rest");
        assert!(find("nonsense").is_none());
    }

    #[test]
    fn paper_set_is_registered() {
        for name in PAPER_SET {
            assert!(find(name).is_some(), "'{name}' in PAPER_SET but not registered");
        }
    }
}
