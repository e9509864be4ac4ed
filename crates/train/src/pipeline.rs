//! The fleet-personalization pipeline: trainer pool → audit gate →
//! hot-swap publication.
//!
//! [`FleetTrainer::run`] is the one deterministic-output function the
//! `train-report` experiment and the `enroll_fleet` benchmark workload
//! drive. Workers steal per-user jobs from the pool, personalize (or
//! warm-start) on the simulated device tier, push each candidate through
//! the privacy-audit gate, and send the release-ready envelope down an
//! [`mpsc`](std::sync::mpsc) publication channel. The publisher drains
//! the channel on the calling thread and hot-swaps envelopes into the
//! [`ShardedRegistry`] *while serving continues* — registry lookups go
//! through `&self`, so a serving engine can keep answering queries
//! against the same registry for the whole run.
//!
//! Model weights, audit verdicts and published envelopes are bit-identical
//! for any worker count (per-user seeds come from [`crate::pool::user_seed`],
//! never from scheduling order). Publication *versions* and the wall-clock
//! numbers in the report are the only schedule-dependent outputs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pelican::platform::{ComputeTier, ResourceUsage};
use pelican::{DefenseKind, PersonalizationConfig, PersonalizationMethod};
use pelican_mobility::FeatureSpace;
use pelican_nn::{FitReport, ModelEnvelope, SequenceModel};
use pelican_serve::ShardedRegistry;

use pelican_attacks::LogitCache;

use crate::audit::{AuditConfig, AuditGate, GateOutcome};
use crate::job::{JobKind, TrainJob};
use crate::pool::{user_seed, TrainerPool};
use crate::report::{JobOutcome, PublishFailure, TrainReport};

/// How a fresh job personalizes: TL-FE, which trains one fresh LSTM and
/// the head over the frozen general stack — the least personal weight to
/// train, audit and ship.
const FRESH_METHOD: PersonalizationMethod = PersonalizationMethod::TlFeatureExtract;

/// Pipeline knobs.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Trainer-pool width.
    pub workers: usize,
    /// Base seed every per-user seed derives from.
    pub base_seed: u64,
    /// Device-side training hyperparameters. The `seed` and
    /// `train.shuffle_seed` fields are overridden per user.
    pub personalization: PersonalizationConfig,
    /// Red-team configuration of the audit gate.
    pub audit: AuditConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            base_seed: 42,
            personalization: PersonalizationConfig::default(),
            audit: AuditConfig::default(),
        }
    }
}

/// What a worker sends down the publication channel for one finished job.
struct Candidate {
    index: usize,
    user_id: usize,
    envelope: ModelEnvelope,
    gate: GateOutcome,
    /// The cache the gate filled, keyed to the published weights.
    cache: LogitCache,
    fit: FitReport,
    warm: bool,
    started: Instant,
    train_simulated: Duration,
    audit_simulated: Duration,
    /// FLOPs training and auditing this job cost.
    flops: u64,
}

/// The fleet-training pipeline.
#[derive(Debug, Clone)]
pub struct FleetTrainer {
    config: PipelineConfig,
    gate: AuditGate,
}

impl FleetTrainer {
    /// Creates a pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` is zero or the audit configuration is
    /// inconsistent (see [`AuditGate::new`]).
    pub fn new(config: PipelineConfig) -> Self {
        assert!(config.workers > 0, "pipeline needs at least one worker");
        let gate = AuditGate::new(config.audit.clone());
        Self { config, gate }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The training hyperparameters with this user's derived seeds
    /// (stream 0 for layer init, stream 1 for epoch shuffling).
    fn personalization_for(&self, user_id: usize) -> PersonalizationConfig {
        let mut cfg = self.config.personalization.clone();
        cfg.seed = user_seed(self.config.base_seed, user_id as u64, 0);
        cfg.train = cfg.train.reseeded(user_seed(self.config.base_seed, user_id as u64, 1));
        cfg
    }

    /// The pipeline's audit gate — shared with callers (like the live
    /// personalization loop) that audit outside [`FleetTrainer::run`].
    pub fn gate(&self) -> &AuditGate {
        &self.gate
    }

    /// Trains one candidate model (fresh personalization or warm-start
    /// update). Returns the undefended candidate and its fit report, whose
    /// `flops` is what the training is priced at.
    ///
    /// This is the single-job entry point the streaming loop re-trains
    /// through: a [`JobKind::WarmStart`] job decodes the published
    /// envelope, strips its serving-time defense, and incrementally
    /// updates the weights on the user's fresh samples — with the exact
    /// per-user seeds [`FleetTrainer::run`] would use, so a re-train is
    /// bit-identical no matter which caller drives it.
    pub fn train_candidate(
        &self,
        general: &ModelEnvelope,
        job: &TrainJob,
    ) -> (SequenceModel, FitReport) {
        let cfg = self.personalization_for(job.user_id);
        match &job.kind {
            JobKind::Fresh => {
                let general =
                    general.decode().expect("freshly encoded general envelope always decodes");
                pelican::personalize(&general, &job.train, FRESH_METHOD, &cfg)
            }
            JobKind::WarmStart { envelope } => {
                let mut model = envelope.decode().expect("published envelope always decodes");
                // The deployed defense is serving-time state, not training
                // state: strip it so warm training sees clean logits; the
                // gate re-decides the defense from scratch below.
                model.set_defense(DefenseKind::None);
                let fit = pelican_nn::fit(&mut model, &job.train, &cfg.train);
                (model, fit)
            }
        }
    }

    /// Runs the pipeline over a cohort: personalizes every job in
    /// parallel, audits each candidate, and publishes audited envelopes
    /// into `registry` as they clear the gate. Returns the per-job
    /// outcomes (job order) plus throughput/latency/audit aggregates. A
    /// publication the registry's durable store refuses is reported in
    /// [`TrainReport::publish_failures`] and the run goes on.
    pub fn run(
        &self,
        general: &SequenceModel,
        space: &FeatureSpace,
        jobs: &[TrainJob],
        registry: &ShardedRegistry,
    ) -> TrainReport {
        self.run_keeping_caches(general, space, jobs, registry, |_, _| {})
    }

    /// [`FleetTrainer::run`] that hands `keep` each published user's id
    /// and the cache their admission filled
    /// ([`AuditGate::admit_with_cache`]), on the calling thread in
    /// publication order — for a caller that goes on auditing the models
    /// it just published.
    pub fn run_keeping_caches(
        &self,
        general: &SequenceModel,
        space: &FeatureSpace,
        jobs: &[TrainJob],
        registry: &ShardedRegistry,
        mut keep: impl FnMut(usize, LogitCache),
    ) -> TrainReport {
        let wall = Instant::now();
        let general_envelope = ModelEnvelope::encode(general);

        let mut results: Vec<Option<Result<JobOutcome, PublishFailure>>> =
            jobs.iter().map(|_| None).collect();
        let mut flops = 0u64;
        let pool = TrainerPool::new(self.config.workers);
        // Publisher side, on the calling thread: hot-swap each audited
        // envelope the moment it arrives, concurrently with the
        // still-training workers.
        let mut publish = |c: Candidate| {
            let Candidate {
                index,
                user_id,
                envelope,
                gate,
                cache,
                fit,
                warm,
                started,
                train_simulated,
                audit_simulated,
                flops: job_flops,
            } = c;
            flops += job_flops;
            let envelope_bytes = envelope.len();
            results[index] = Some(match registry.try_enroll_envelope(user_id, envelope) {
                Ok(version) => {
                    keep(user_id, cache);
                    Ok(JobOutcome {
                        user_id,
                        version,
                        warm,
                        gate,
                        fit,
                        enroll_latency: started.elapsed(),
                        train_simulated,
                        audit_simulated,
                        envelope_bytes,
                    })
                }
                Err(error) => Err(PublishFailure { user_id, error: Arc::new(error) }),
            });
        };
        pool.run_streaming(
            jobs,
            // Worker side: steal a job, train, audit, hand the audited
            // envelope to the publication channel.
            |index, job| {
                let started = Instant::now();
                let (candidate, fit) = self.train_candidate(&general_envelope, job);
                let (published, gate, cache) =
                    self.gate.admit_with_cache(candidate, space, &job.subject);
                // Priced from what ran: the same for any pool width, which
                // is what the network simulation replays.
                let train_usage = ResourceUsage::priced(ComputeTier::Device, fit.flops);
                let audit_usage = ResourceUsage::priced(ComputeTier::Device, cache.flops);
                Candidate {
                    index,
                    user_id: job.user_id,
                    envelope: ModelEnvelope::encode(&published),
                    gate,
                    cache,
                    fit,
                    warm: job.is_warm(),
                    started,
                    train_simulated: train_usage.simulated,
                    audit_simulated: audit_usage.simulated,
                    flops: train_usage.flops + audit_usage.flops,
                }
            },
            &mut publish,
        );

        let (mut outcomes, mut publish_failures) = (Vec::new(), Vec::new());
        for result in results {
            match result.expect("every job was trained, audited and handed to the publisher") {
                Ok(outcome) => outcomes.push(outcome),
                Err(failure) => publish_failures.push(failure),
            }
        }
        let mut report = TrainReport::new(self.config.workers, outcomes, wall.elapsed(), flops);
        report.publish_failures = publish_failures;
        report
    }
}

/// Convenience wrapper: personalize, audit and publish a cohort, then
/// report. Equivalent to `FleetTrainer::new(config).run(..)`.
pub fn run_pipeline(
    config: PipelineConfig,
    general: &SequenceModel,
    space: &FeatureSpace,
    jobs: &[TrainJob],
    registry: &ShardedRegistry,
) -> TrainReport {
    FleetTrainer::new(config).run(general, space, jobs, registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::cohort_jobs;
    use pelican_mobility::{CampusConfig, DatasetBuilder, Scale, SpatialLevel, TRAIN_FRACTION};
    use pelican_nn::TrainConfig;
    use pelican_serve::RegistryConfig;
    use pelican_store::{
        EnvelopeStore, Fault, FaultPlan, MemBackend, Method, StoreConfig, StoreError,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_setting() -> (SequenceModel, pelican_mobility::MobilityDataset, Vec<TrainJob>) {
        let dataset = DatasetBuilder::new(CampusConfig::for_scale(Scale::Tiny), 13)
            .build(SpatialLevel::Building);
        let mut rng = StdRng::seed_from_u64(13);
        let general = SequenceModel::general_lstm(
            dataset.space.dim(),
            12,
            dataset.n_locations(),
            0.1,
            &mut rng,
        );
        let n = dataset.users.len();
        let jobs = cohort_jobs(&dataset, (n - 2)..n, TRAIN_FRACTION);
        (general, dataset, jobs)
    }

    fn fast_config(workers: usize) -> PipelineConfig {
        PipelineConfig {
            workers,
            personalization: PersonalizationConfig {
                train: TrainConfig { epochs: 2, ..TrainConfig::default() },
                hidden_dim: 12,
                ..PersonalizationConfig::default()
            },
            audit: AuditConfig { max_instances: 3, ..AuditConfig::default() },
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn pipeline_publishes_every_job() {
        let (general, dataset, jobs) = tiny_setting();
        let registry = ShardedRegistry::new(general.clone(), RegistryConfig::default());
        let report = run_pipeline(fast_config(2), &general, &dataset.space, &jobs, &registry);
        assert_eq!(report.outcomes.len(), jobs.len());
        let stats = registry.stats();
        assert_eq!(stats.cold_models, jobs.len());
        assert_eq!(stats.publishes, jobs.len() as u64);
        for (job, outcome) in jobs.iter().zip(&report.outcomes) {
            assert_eq!(outcome.user_id, job.user_id);
            assert!(registry.is_enrolled(job.user_id));
            assert_eq!(registry.version_of(job.user_id), Some(outcome.version));
            assert!(outcome.fit.steps > 0);
        }
        assert!(report.flops > 0);
    }

    #[test]
    fn warm_start_republishes_with_a_higher_version() {
        let (general, dataset, jobs) = tiny_setting();
        let registry = ShardedRegistry::new(general.clone(), RegistryConfig::default());
        let trainer = FleetTrainer::new(fast_config(2));
        let first = trainer.run(&general, &dataset.space, &jobs, &registry);

        let warm_jobs: Vec<TrainJob> = jobs
            .iter()
            .map(|j| {
                let (_, lookup) = registry.get(j.user_id).unwrap();
                assert_ne!(lookup, pelican_serve::Lookup::Fallback);
                let decoded = registry.get(j.user_id).unwrap().0;
                j.clone().into_warm(ModelEnvelope::encode(&decoded))
            })
            .collect();
        let second = trainer.run(&general, &dataset.space, &warm_jobs, &registry);
        for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
            assert!(!a.warm && b.warm);
            assert!(b.version > a.version, "hot-swap bumps the publication version");
            assert_eq!(registry.version_of(b.user_id), Some(b.version));
        }
        assert_eq!(registry.stats().cold_models, jobs.len(), "updates replace, not add");
    }

    #[test]
    fn a_failed_durable_publish_is_reported_and_the_other_users_still_publish() {
        let (general, dataset, jobs) = tiny_setting();
        // Plan: the first append fails. Two workers publish in no fixed
        // order, so the report names the user it refused.
        let plan = FaultPlan::new(MemBackend::new());
        plan.arm(Method::Append, 1, Fault::Error);
        let config = RegistryConfig::default();
        let store_config = StoreConfig { shards: config.shards, ..StoreConfig::default() };
        let store = EnvelopeStore::open(Arc::new(plan), store_config).unwrap();
        let registry = ShardedRegistry::with_store(general.clone(), config, Arc::new(store));
        let report = run_pipeline(fast_config(2), &general, &dataset.space, &jobs, &registry);

        assert_eq!(report.publish_failures.len(), 1);
        let failure = &report.publish_failures[0];
        let refused = failure.user_id;
        assert!(jobs.iter().any(|j| j.user_id == refused));
        assert!(matches!(*failure.error, StoreError::Io(_)), "{}", failure.error);
        assert!(report.render().contains(&format!("user {refused} failed")));
        assert!(!registry.is_enrolled(refused));
        assert_eq!(registry.get(refused).unwrap().1, pelican_serve::Lookup::Fallback);

        let published: Vec<usize> = report.outcomes.iter().map(|o| o.user_id).collect();
        let others: Vec<usize> =
            jobs.iter().map(|j| j.user_id).filter(|&user| user != refused).collect();
        assert_eq!(published, others);
        for outcome in &report.outcomes {
            assert_eq!(registry.version_of(outcome.user_id), Some(outcome.version));
        }
        assert_eq!(registry.stats().cold_models, others.len());
    }
}
