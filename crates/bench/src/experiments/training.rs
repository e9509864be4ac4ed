//! Fleet-training experiment (`train-report`): drives the `pelican-train`
//! pipeline over a cohort at several trainer-pool widths and tabulates
//! throughput, parallel speedup, audit-gate outcomes and enroll latency.
//!
//! The training-side counterpart of `serve-report`: where that experiment
//! scales Fig. 4 step 3 (serving), this one scales steps 2 and 4
//! (personalization + updates) and the pre-release privacy audit. Wall
//! clock here is *host* time — parallel speedup is exactly the quantity
//! simulated time cannot show — so the speedup column depends on the
//! machine's core count, while every published model and audit verdict is
//! bit-identical across rows (asserted on every run).

use std::time::{Duration, Instant};

use pelican::workbench::{Scenario, ScenarioSizing};
use pelican::PersonalizationConfig;
use pelican_mobility::SpatialLevel;
use pelican_nn::{ModelEnvelope, TrainConfig};
use pelican_serve::{RegistryConfig, ShardedRegistry};
use pelican_tensor::{thread_batched_flops_now, ThreadFlopGuard};
use pelican_train::{
    cohort_jobs, form_cohorts, AuditConfig, FleetTrainer, PipelineConfig, TrainJob, TrainReport,
};

use crate::report::Table;
use crate::RunConfig;

/// Trainer-pool widths swept by the experiment.
pub const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Cohort sizes swept by the batched experiment (0 = per-job dispatch,
/// the baseline row).
pub const COHORT_SWEEP: [usize; 5] = [0, 2, 4, 8, 16];

/// One pipeline run at a fixed worker count, plus the envelope bytes it
/// published (used to assert cross-width determinism).
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// Trainer-pool width of the run.
    pub workers: usize,
    /// The pipeline's report.
    pub report: TrainReport,
    /// Published envelope bytes, in job order.
    pub envelopes: Vec<Vec<u8>>,
}

/// Runs the worker-count sweep over one cohort.
///
/// The scenario is built with *zero* sequentially personalized users —
/// the pipeline itself does all per-user training — and the same job list
/// is replayed at every pool width.
///
/// # Panics
///
/// Panics if any width publishes weights that differ from the 1-worker
/// reference (the determinism contract).
pub fn run(config: &RunConfig) -> Vec<TrainOutcome> {
    let sizing = ScenarioSizing::for_scale(config.scale);
    let scenario: Scenario = Scenario::builder(config.scale, SpatialLevel::Building)
        .seed(config.seed)
        .personal_users(0)
        .build();
    let cohort_start = scenario.first_personal_user;
    // Clamp like Scenario::builder does: a --users override larger than
    // the personal-user pool must shrink the cohort, not index past it.
    let cohort_end = (cohort_start + config.personal_users()).min(scenario.dataset.users.len());
    let jobs = cohort_jobs(&scenario.dataset, cohort_start..cohort_end, 0.8);

    let cohort = config.cohort.unwrap_or(0);
    let pipeline = |workers: usize| PipelineConfig {
        workers,
        base_seed: config.seed,
        cohort,
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
        ..PipelineConfig::default()
    };

    let outcomes: Vec<TrainOutcome> = WORKER_SWEEP
        .into_iter()
        .map(|workers| {
            let registry =
                ShardedRegistry::new(scenario.general.clone(), RegistryConfig::default());
            let report = FleetTrainer::new(pipeline(workers)).run(
                &scenario.general,
                &scenario.dataset.space,
                &jobs,
                &registry,
            );
            let envelopes = jobs
                .iter()
                .map(|job| {
                    let (model, _) = registry.get(job.user_id).expect("published model decodes");
                    ModelEnvelope::encode(&model).as_bytes().to_vec()
                })
                .collect();
            TrainOutcome { workers, report, envelopes }
        })
        .collect();

    let reference = &outcomes[0];
    for outcome in &outcomes[1..] {
        assert_eq!(
            reference.envelopes, outcome.envelopes,
            "{}-worker run published different weights than sequential",
            outcome.workers
        );
        // FLOP-count parity: with identical work per row, the speedup
        // column is FLOP-normalized by construction.
        assert_eq!(
            reference.report.flops, outcome.report.flops,
            "{}-worker run performed a different FLOP count than sequential",
            outcome.workers
        );
    }
    outcomes
}

/// Main metrics table: one row per pool width.
pub fn table(outcomes: &[TrainOutcome]) -> Table {
    let mut t = Table::new(&[
        "workers",
        "models",
        "wall(ms)",
        "models/s",
        "Gflop/s",
        "speedup",
        "passed",
        "escalated",
        "exhausted",
        "p50-enroll(ms)",
        "audit-queries",
    ]);
    let baseline = outcomes.first().map_or(0.0, |o| o.report.wall.as_secs_f64());
    for outcome in outcomes {
        let r = &outcome.report;
        let wall = r.wall.as_secs_f64();
        // Every row performs the identical FLOP count (asserted in
        // `run`), so the wall-clock speedup *is* the FLOP-normalized
        // speedup; the Gflop/s column makes the normalization visible.
        let speedup = if wall == 0.0 { 0.0 } else { baseline / wall };
        let gflops = if wall == 0.0 { 0.0 } else { r.flops as f64 / wall / 1e9 };
        t.row(&[
            outcome.workers.to_string(),
            r.outcomes.len().to_string(),
            format!("{:.0}", wall * 1e3),
            format!("{:.2}", r.models_per_sec()),
            format!("{gflops:.2}"),
            format!("{speedup:.2}x"),
            r.passed().to_string(),
            r.escalated().to_string(),
            r.exhausted().to_string(),
            format!("{:.1}", r.enroll_latency_p50().as_secs_f64() * 1e3),
            r.audit_queries().to_string(),
        ]);
    }
    t
}

/// One single-core training-stage run at a fixed lockstep cohort size.
#[derive(Debug, Clone)]
pub struct BatchedOutcome {
    /// Lockstep cohort size (0 = sequential per-job dispatch).
    pub cohort: usize,
    /// Wall clock of the training stage (envelope decode, warm-start
    /// prep, epoch loop) over the whole fleet at this cohort size.
    pub wall: Duration,
    /// This thread's total FLOPs for the stage (identical across rows).
    pub flops: u64,
    /// FLOPs recorded by the fused batched kernels.
    pub fused_flops: u64,
    /// Mean cohort fill: jobs divided by `cohorts × B` (1.0 when B ≤ 1).
    pub fill: f64,
    /// Trained-model envelope bytes, in job order.
    pub envelopes: Vec<Vec<u8>>,
}

/// The batched-cohort sweep: per-epoch throughput and fused-kernel share
/// vs. cohort size, all on one worker.
#[derive(Debug, Clone)]
pub struct BatchedRun {
    /// Master seed of the run.
    pub seed: u64,
    /// Jobs in the fleet.
    pub jobs: usize,
    /// Training epochs per job.
    pub epochs: usize,
    /// One outcome per [`COHORT_SWEEP`] entry.
    pub outcomes: Vec<BatchedOutcome>,
}

/// Runs the cohort sweep over one fleet's *training stage*, single-core.
///
/// Every row trains the same fleet at a different cohort size on one
/// thread, timing only the training stage — envelope decode, warm-start
/// prep and the epoch loop. The pipeline's audit and publication stages
/// execute identical code in both dispatch modes, so they are excluded.
/// Every row runs the same trainer ([`pelican_nn::fit`], through the
/// packed kernels, one job at a time) — a cohort only shares one
/// general-envelope decode — so the sweep is expected flat: it is the
/// measurement that decides whether the cohort machinery earns its keep.
/// Trained weights and FLOP counts are asserted bit-identical across
/// rows.
///
/// # Panics
///
/// Panics if any cohort size trains different weights or performs a
/// different FLOP count than the per-job baseline.
pub fn run_batched(config: &RunConfig) -> BatchedRun {
    let sizing = ScenarioSizing::for_scale(config.scale);
    let scenario: Scenario = Scenario::builder(config.scale, SpatialLevel::Building)
        .seed(config.seed)
        .personal_users(0)
        .build();
    let cohort_start = scenario.first_personal_user;
    let cohort_end = (cohort_start + config.personal_users()).min(scenario.dataset.users.len());
    let jobs = cohort_jobs(&scenario.dataset, cohort_start..cohort_end, 0.8);

    // Unlike `run`, the mini-batch size stays at the `TrainConfig`
    // default (32): the chunk is the unit the fused kernels batch over,
    // and the default is the fleet's deployed configuration.
    let trainer = FleetTrainer::new(PipelineConfig {
        workers: 1,
        base_seed: config.seed,
        personalization: PersonalizationConfig {
            train: TrainConfig { epochs: sizing.personal_epochs, ..TrainConfig::default() },
            hidden_dim: sizing.hidden_dim,
            ..PersonalizationConfig::default()
        },
        audit: AuditConfig {
            max_instances: config.instances_per_user,
            seed: config.seed ^ 0xA0D1,
            ..AuditConfig::default()
        },
        ..PipelineConfig::default()
    });
    let general = ModelEnvelope::encode(&scenario.general);

    let outcomes: Vec<BatchedOutcome> = COHORT_SWEEP
        .into_iter()
        .map(|cohort| {
            // The stage runs inline on this thread, so the per-thread
            // counters capture it exactly even with concurrent test
            // threads. Envelope encoding happens after the clock stops —
            // both dispatch modes would pay it equally.
            let guard = ThreadFlopGuard::start();
            let fused_before = thread_batched_flops_now();
            let start = Instant::now();
            let mut models = Vec::with_capacity(jobs.len());
            if cohort <= 1 {
                for job in &jobs {
                    models.push(trainer.train_candidate(&general, job).0);
                }
            } else {
                for range in form_cohorts(&jobs, cohort, |_: &TrainJob| 0) {
                    for (model, _, _) in trainer.train_candidates_lockstep(&general, &jobs[range]) {
                        models.push(model);
                    }
                }
            }
            let wall = start.elapsed();
            let fused_flops = thread_batched_flops_now().wrapping_sub(fused_before);
            let flops = guard.stop();
            let fill = if cohort <= 1 {
                1.0
            } else {
                let n = form_cohorts(&jobs, cohort, |_: &TrainJob| 0).len();
                jobs.len() as f64 / (n * cohort) as f64
            };
            let envelopes = models
                .iter()
                .map(|model| ModelEnvelope::encode(model).as_bytes().to_vec())
                .collect();
            BatchedOutcome { cohort, wall, flops, fused_flops, fill, envelopes }
        })
        .collect();

    let baseline = &outcomes[0];
    for outcome in &outcomes[1..] {
        assert_eq!(
            baseline.envelopes, outcome.envelopes,
            "cohort-{} run trained different weights than sequential",
            outcome.cohort
        );
        assert_eq!(
            baseline.flops, outcome.flops,
            "cohort-{} run performed a different FLOP count than sequential",
            outcome.cohort
        );
        assert!(outcome.fused_flops > 0, "cohort-{} run never hit a fused kernel", outcome.cohort);
    }
    BatchedRun { seed: config.seed, jobs: jobs.len(), epochs: sizing.personal_epochs, outcomes }
}

/// Metrics table of the batched sweep: one row per cohort size.
pub fn batched_table(run: &BatchedRun) -> Table {
    let mut t =
        Table::new(&["cohort", "jobs", "train-wall(ms)", "epochs/s", "speedup", "fused%", "fill%"]);
    let baseline = run.outcomes.first().map_or(0.0, |o| o.wall.as_secs_f64());
    for outcome in &run.outcomes {
        let wall = outcome.wall.as_secs_f64();
        let speedup = if wall == 0.0 { 0.0 } else { baseline / wall };
        let epochs_per_sec = if wall == 0.0 { 0.0 } else { (run.jobs * run.epochs) as f64 / wall };
        let fused = if outcome.flops == 0 {
            0.0
        } else {
            100.0 * outcome.fused_flops as f64 / outcome.flops as f64
        };
        t.row(&[
            if outcome.cohort == 0 { "seq".to_string() } else { outcome.cohort.to_string() },
            run.jobs.to_string(),
            format!("{:.0}", wall * 1e3),
            format!("{epochs_per_sec:.1}"),
            format!("{speedup:.2}x"),
            format!("{fused:.1}"),
            format!("{:.0}", outcome.fill * 100.0),
        ]);
    }
    t
}

/// Serializes the batched sweep as the tracked `BENCH_train_batched.json`
/// schema: training-stage epoch throughput and cohort fill rate vs.
/// cohort size, plus the bit-identity and FLOP-parity verdicts CI gates
/// on. `host` is [`crate::report::host_stamp`]; `previous` is the tracked
/// file this record replaces, for the `before` row.
pub fn to_json(run: &BatchedRun, host: &str, previous: Option<&str>) -> String {
    let flops = run.outcomes.first().map_or(0, |o| o.flops);
    let same_run = [
        ("seed", run.seed.to_string()),
        ("jobs", run.jobs.to_string()),
        ("epochs_per_job", run.epochs.to_string()),
        ("flops_per_run", flops.to_string()),
    ];
    let before = crate::report::before_row(previous, host, &same_run, "cohort");
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"train-batched\",\n");
    out.push_str("  \"stage\": \"train\",\n");
    out.push_str(&format!("  \"seed\": {},\n", run.seed));
    out.push_str(&format!("  \"jobs\": {},\n", run.jobs));
    out.push_str(&format!("  \"epochs_per_job\": {},\n", run.epochs));
    out.push_str(&format!("  \"host\": {host},\n"));
    out.push_str(&format!("  \"before\": {before},\n"));
    out.push_str(&format!("  \"flops_per_run\": {flops},\n"));
    out.push_str("  \"bit_identical\": true,\n");
    out.push_str("  \"flop_parity\": true,\n");
    out.push_str("  \"cohorts\": [\n");
    let baseline = run.outcomes.first().map_or(0.0, |o| o.wall.as_secs_f64());
    for (i, outcome) in run.outcomes.iter().enumerate() {
        let wall = outcome.wall.as_secs_f64();
        let epochs_per_sec = if wall == 0.0 { 0.0 } else { (run.jobs * run.epochs) as f64 / wall };
        out.push_str(&format!(
            "    {{\"cohort\": {}, \"wall_ms\": {:.3}, \"epochs_per_sec\": {:.1}, \
             \"speedup\": {:.3}, \"fused_flop_fraction\": {:.4}, \"fill\": {:.4}}}{}\n",
            outcome.cohort,
            wall * 1e3,
            epochs_per_sec,
            if wall == 0.0 { 0.0 } else { baseline / wall },
            if outcome.flops == 0 {
                0.0
            } else {
                outcome.fused_flops as f64 / outcome.flops as f64
            },
            outcome.fill,
            if i + 1 < run.outcomes.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelican_mobility::Scale;

    #[test]
    fn train_report_runs_at_tiny_scale() {
        let config = RunConfig {
            scale: Scale::Tiny,
            users: Some(2),
            instances_per_user: 2,
            ..RunConfig::default()
        };
        let outcomes = run(&config);
        assert_eq!(outcomes.len(), WORKER_SWEEP.len());
        for outcome in &outcomes {
            assert_eq!(outcome.report.outcomes.len(), 2, "both users published");
            assert_eq!(
                outcome.report.passed() + outcome.report.escalated() + outcome.report.exhausted(),
                2
            );
        }
        // Audit verdicts, like weights, are schedule-independent (weights
        // are asserted inside run()).
        for outcome in &outcomes[1..] {
            for (a, b) in outcomes[0].report.outcomes.iter().zip(&outcome.report.outcomes) {
                assert_eq!(a.gate, b.gate);
            }
        }
        let rendered = table(&outcomes).render();
        assert!(rendered.contains("speedup"));
        assert!(rendered.contains("1.00x"), "the 1-worker row is its own baseline");
    }

    #[test]
    fn batched_sweep_is_bit_identical_and_serializes() {
        let config = RunConfig {
            scale: Scale::Tiny,
            users: Some(3),
            instances_per_user: 2,
            ..RunConfig::default()
        };
        // Bit-identity and FLOP parity across the sweep are asserted
        // inside run_batched; here we pin the derived outputs.
        let run = run_batched(&config);
        assert_eq!(run.outcomes.len(), COHORT_SWEEP.len());
        assert_eq!(run.jobs, 3);
        for outcome in &run.outcomes[1..] {
            assert!(outcome.fill > 0.0 && outcome.fill <= 1.0);
        }
        let rendered = batched_table(&run).render();
        assert!(rendered.contains("seq"), "baseline row labeled");
        assert!(rendered.contains("fused%"));
        let host = r#"{"cores": 2, "commit": "bbbbbbb"}"#;
        let json = to_json(&run, host, None);
        assert!(json.contains("\"before\": null"), "nothing tracked to compare with");
        // The same sweep recorded at another commit becomes the before row.
        let older = to_json(&run, r#"{"cores": 4, "commit": "aaaaaaa"}"#, None);
        let walls: Vec<String> =
            run.outcomes.iter().map(|o| format!("{:.3}", o.wall.as_secs_f64() * 1e3)).collect();
        let before = format!(
            r#""before": {{"host": {{"cores": 4, "commit": "aaaaaaa"}}, "wall_ms": [{}]}}"#,
            walls.join(", ")
        );
        assert!(to_json(&run, host, Some(&older)).contains(&before));
        assert!(json.contains("\"experiment\": \"train-batched\""));
        assert!(json.contains("\"flop_parity\": true"));
        assert!(json.contains("\"cohort\": 16"));
    }

    #[test]
    fn train_report_honors_a_cohort_override() {
        // `repro train-report --cohort 8` must run the width sweep in
        // lockstep mode and still publish sequential-identical bits (the
        // asserts live inside run()).
        let config = RunConfig {
            scale: Scale::Tiny,
            users: Some(2),
            instances_per_user: 2,
            cohort: Some(8),
            ..RunConfig::default()
        };
        let outcomes = run(&config);
        assert_eq!(outcomes.len(), WORKER_SWEEP.len());
        for outcome in &outcomes {
            assert_eq!(outcome.report.outcomes.len(), 2);
        }
    }

    #[test]
    fn oversized_user_override_shrinks_the_cohort_instead_of_panicking() {
        let config = RunConfig {
            scale: Scale::Tiny,
            users: Some(1_000),
            instances_per_user: 1,
            ..RunConfig::default()
        };
        let outcomes = run(&config);
        let published = outcomes[0].report.outcomes.len();
        assert!(published > 0, "clamped cohort still trains");
        assert!(published < 1_000, "cohort is capped at the personal-user pool");
    }
}
