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

use pelican::workbench::{Scenario, ScenarioSizing};
use pelican::PersonalizationConfig;
use pelican_mobility::SpatialLevel;
use pelican_nn::{ModelEnvelope, TrainConfig};
use pelican_serve::{Lookup, RegistryConfig, ShardedRegistry};
use pelican_train::{cohort_jobs, AuditConfig, FleetTrainer, PipelineConfig, TrainReport};

use crate::report::Table;
use crate::RunConfig;

/// Trainer-pool widths swept by the experiment.
pub const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

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
/// reference (the determinism contract), or if a cohort user's lookup
/// falls back to the general model.
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

    let pipeline = |workers: usize| PipelineConfig {
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
                    let (model, lookup) =
                        registry.get(job.user_id).expect("published model decodes");
                    assert_ne!(lookup, Lookup::Fallback, "user {} fell back", job.user_id);
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
