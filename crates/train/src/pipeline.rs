//! The fleet-personalization pipeline: trainer pool → audit gate →
//! hot-swap publication.
//!
//! [`FleetTrainer::run`] is the one deterministic-output function the
//! example, the `train-report` experiment and the `fleet_training` bench
//! all drive. Workers steal per-user jobs from the pool, personalize (or
//! warm-start) on the simulated device tier, push each candidate through
//! the privacy-audit gate, and send the release-ready envelope down an
//! [`mpsc`] publication channel. The publisher drains the channel on the
//! calling thread and hot-swaps envelopes into the [`ShardedRegistry`]
//! *while serving continues* — registry lookups go through `&self`, so a
//! serving engine can keep answering queries against the same registry
//! for the whole run.
//!
//! Model weights, audit verdicts and published envelopes are bit-identical
//! for any worker count (per-user seeds come from [`crate::pool::user_seed`],
//! never from scheduling order). Publication *versions* and the wall-clock
//! numbers in the report are the only schedule-dependent outputs.

use std::time::{Duration, Instant};

use pelican::platform::{measure_thread, usage_of, ComputeTier, NetworkLink, ResourceUsage};
use pelican::{
    prepare, DefenseKind, DevicePersonalizer, PersonalizationConfig, PersonalizationMethod,
};
use pelican_mobility::FeatureSpace;
use pelican_nn::{
    fit_lockstep, FitReport, LockstepJob, LockstepOutcome, ModelEnvelope, SequenceModel,
};
use pelican_serve::ShardedRegistry;
use pelican_tensor::thread_flops_now;

use crate::audit::{AuditConfig, AuditGate, GateOutcome};
use crate::job::{JobKind, TrainJob};
use crate::pool::{form_cohorts, user_seed, TrainerPool};
use crate::report::{JobOutcome, TrainReport};

/// Pipeline knobs.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Trainer-pool width.
    pub workers: usize,
    /// Base seed every per-user seed derives from.
    pub base_seed: u64,
    /// Personalization method for fresh jobs.
    pub method: PersonalizationMethod,
    /// Device-side training hyperparameters. The `seed` and
    /// `train.shuffle_seed` fields are overridden per user.
    pub personalization: PersonalizationConfig,
    /// The device↔cloud link paid for each general-model download.
    pub link: NetworkLink,
    /// Red-team configuration of the audit gate.
    pub audit: AuditConfig,
    /// Cohort size: `0` or `1` dispatches per-user jobs one at a time;
    /// `B ≥ 2` groups up to `B` consecutive same-shape jobs into one
    /// cohort that a worker takes as a unit, decoding the general
    /// envelope once and training the jobs in turn
    /// ([`pelican_nn::fit_lockstep`], a map over [`pelican_nn::fit`]).
    /// Trained weights, fit reports and simulated durations are
    /// bit-identical for every value (see [`crate::pool::form_cohorts`]
    /// for the contract), and `BENCH_train_batched.json` shows the wall
    /// clock flat in it.
    pub cohort: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            base_seed: 42,
            method: PersonalizationMethod::TlFeatureExtract,
            personalization: PersonalizationConfig::default(),
            link: NetworkLink::wifi(),
            audit: AuditConfig::default(),
            cohort: 0,
        }
    }
}

/// What a worker sends down the publication channel for one finished job.
struct Candidate {
    index: usize,
    user_id: usize,
    envelope: ModelEnvelope,
    gate: GateOutcome,
    fit: FitReport,
    warm: bool,
    started: Instant,
    train_simulated: Duration,
    audit_simulated: Duration,
    /// FLOPs the worker thread recorded training and auditing this job.
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

    /// A personalizer with this user's derived seeds (stream 0 for layer
    /// init, stream 1 for epoch shuffling).
    fn personalizer_for(&self, user_id: usize) -> DevicePersonalizer {
        let mut cfg = self.config.personalization.clone();
        cfg.seed = user_seed(self.config.base_seed, user_id as u64, 0);
        cfg.train = cfg.train.reseeded(user_seed(self.config.base_seed, user_id as u64, 1));
        DevicePersonalizer::new(cfg, self.config.link)
    }

    /// The pipeline's audit gate — shared with callers (like the live
    /// personalization loop) that audit outside [`FleetTrainer::run`].
    pub fn gate(&self) -> &AuditGate {
        &self.gate
    }

    /// Trains one candidate model (fresh personalization or warm-start
    /// update). Returns the undefended candidate and its fit report.
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
        let personalizer = self.personalizer_for(job.user_id);
        match &job.kind {
            JobKind::Fresh => {
                let outcome = personalizer
                    .personalize(general, &job.train, self.config.method)
                    .expect("freshly encoded general envelope always decodes");
                (outcome.model, outcome.fit)
            }
            JobKind::WarmStart { envelope } => {
                let mut model = envelope.decode().expect("published envelope always decodes");
                // The deployed defense is serving-time state, not training
                // state: strip it so warm training sees clean logits; the
                // gate re-decides the defense from scratch below.
                DefenseKind::None.apply(&mut model);
                let (fit, _usage) = personalizer.update(&mut model, &job.train);
                (model, fit)
            }
        }
    }

    /// Trains a whole cohort of jobs, returning each job's candidate
    /// model, fit report and device-tier resource usage **in job order**.
    ///
    /// Per job this is bit-identical to [`FleetTrainer::train_candidate`]
    /// wrapped in a device-tier measurement: model construction consumes
    /// each user's init RNG exactly as the per-job path would, training
    /// runs through [`pelican_nn::fit_lockstep`] ([`pelican_nn::fit`] on
    /// each job in turn), and the usage is rebuilt from per-user FLOP
    /// deltas with [`usage_of`] — so the simulated durations the network
    /// replay consumes do not depend on the cohort size.
    pub fn train_candidates_lockstep(
        &self,
        general: &ModelEnvelope,
        jobs: &[TrainJob],
    ) -> Vec<(SequenceModel, FitReport, ResourceUsage)> {
        struct Prep {
            model: SequenceModel,
            config: pelican_nn::TrainConfig,
            flops: u64,
            host: Duration,
            trains: bool,
        }
        // The shared general model is decoded once per cohort instead of
        // once per job: decoding is deterministic (every job sees
        // bit-identical weights) and records no FLOPs (per-user FLOP
        // deltas — and the simulated device durations built from them —
        // are unchanged), so only redundant host-side parsing goes away.
        let general_model = jobs
            .iter()
            .any(|j| matches!(j.kind, JobKind::Fresh))
            .then(|| general.decode().expect("freshly encoded general envelope always decodes"));
        // Phase 1 — per-user model construction, in job order, with the
        // exact seeds `personalizer_for` derives. Construction happens
        // inside the measured window to mirror the sequential
        // `measure_thread` around `train_candidate`.
        let mut preps: Vec<Prep> = Vec::with_capacity(jobs.len());
        for job in jobs {
            let mut cfg = self.config.personalization.clone();
            cfg.seed = user_seed(self.config.base_seed, job.user_id as u64, 0);
            cfg.train = cfg.train.reseeded(user_seed(self.config.base_seed, job.user_id as u64, 1));
            let wall = Instant::now();
            let before = thread_flops_now();
            let (model, trains) = match &job.kind {
                JobKind::Fresh => {
                    let shared =
                        general_model.as_ref().expect("decoded above for cohorts with fresh jobs");
                    let model = prepare(shared, self.config.method, &cfg);
                    (model, self.config.method != PersonalizationMethod::Reuse)
                }
                JobKind::WarmStart { envelope } => {
                    let mut model = envelope.decode().expect("published envelope always decodes");
                    DefenseKind::None.apply(&mut model);
                    (model, true)
                }
            };
            preps.push(Prep {
                model,
                config: cfg.train,
                flops: thread_flops_now().wrapping_sub(before),
                host: wall.elapsed(),
                trains,
            });
        }
        // Phase 2 — training of every job that trains
        // (Reuse jobs ship the prepared model untrained, as sequentially).
        let mut trained_at = Vec::new();
        let mut lockstep: Vec<LockstepJob> = Vec::new();
        for ((i, prep), job) in preps.iter_mut().enumerate().zip(jobs) {
            if prep.trains {
                trained_at.push(i);
                let config = prep.config.clone();
                lockstep.push(LockstepJob { model: &mut prep.model, samples: &job.train, config });
            }
        }
        let outcomes = fit_lockstep(&mut lockstep);
        drop(lockstep);
        let mut fits: Vec<Option<LockstepOutcome>> = jobs.iter().map(|_| None).collect();
        for (i, outcome) in trained_at.into_iter().zip(outcomes) {
            fits[i] = Some(outcome);
        }
        preps
            .into_iter()
            .zip(fits)
            .map(|(prep, outcome)| {
                let (fit, flops, host) = match outcome {
                    Some(o) => (o.fit, prep.flops + o.flops, prep.host + o.host_elapsed),
                    None => (
                        FitReport { epoch_losses: Vec::new(), steps: 0, samples_per_epoch: 0 },
                        prep.flops,
                        prep.host,
                    ),
                };
                (prep.model, fit, usage_of(ComputeTier::Device, flops, host))
            })
            .collect()
    }

    /// Runs the pipeline over a cohort: personalizes every job in
    /// parallel, audits each candidate, and publishes audited envelopes
    /// into `registry` as they clear the gate. Returns the per-job
    /// outcomes (job order) plus throughput/latency/audit aggregates.
    ///
    /// With [`PipelineConfig::cohort`] ≥ 2 the pool steals whole cohorts
    /// instead of single jobs; everything in the report except
    /// wall-clock numbers (and publication versions under >1 workers) is
    /// bit-identical either way.
    pub fn run(
        &self,
        general: &SequenceModel,
        space: &FeatureSpace,
        jobs: &[TrainJob],
        registry: &ShardedRegistry,
    ) -> TrainReport {
        let wall = Instant::now();
        let general_envelope = ModelEnvelope::encode(general);

        let mut outcomes: Vec<Option<JobOutcome>> = jobs.iter().map(|_| None).collect();
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
                fit,
                warm,
                started,
                train_simulated,
                audit_simulated,
                flops: job_flops,
            } = c;
            flops += job_flops;
            let envelope_bytes = envelope.len();
            let version = registry.enroll_envelope(user_id, envelope);
            let outcome = JobOutcome {
                user_id,
                version,
                warm,
                gate,
                fit,
                enroll_latency: started.elapsed(),
                train_simulated,
                audit_simulated,
                envelope_bytes,
            };
            outcomes[index] = Some(outcome);
        };
        if self.config.cohort > 1 {
            // Cohort dispatch: the steal unit is a cohort of consecutive
            // same-shape jobs. Warm jobs key on envelope length (a fixed
            // byte width per architecture); a key collision would only
            // merge cohorts, never change any per-job result — every job
            // trains alone.
            let cohorts = form_cohorts(jobs, self.config.cohort, |job| match &job.kind {
                JobKind::Fresh => 0,
                JobKind::WarmStart { envelope } => 1 | ((envelope.len() as u64) << 1),
            });
            pool.run_streaming(
                &cohorts,
                |_, range| {
                    let chunk = &jobs[range.clone()];
                    let started = Instant::now();
                    let trained = self.train_candidates_lockstep(&general_envelope, chunk);
                    chunk
                        .iter()
                        .zip(trained)
                        .enumerate()
                        .map(|(off, (job, (candidate, fit, train_usage)))| {
                            let ((published, gate), audit_usage) =
                                measure_thread(ComputeTier::Device, || {
                                    self.gate.admit(candidate, space, &job.subject)
                                });
                            Candidate {
                                index: range.start + off,
                                user_id: job.user_id,
                                envelope: ModelEnvelope::encode(&published),
                                gate,
                                fit,
                                warm: job.is_warm(),
                                started,
                                train_simulated: train_usage.simulated,
                                audit_simulated: audit_usage.simulated,
                                flops: train_usage.flops + audit_usage.flops,
                            }
                        })
                        .collect::<Vec<Candidate>>()
                },
                |batch| batch.into_iter().for_each(&mut publish),
            );
        } else {
            pool.run_streaming(
                jobs,
                // Worker side: steal a job, train, audit, hand the audited
                // envelope to the publication channel.
                |index, job| {
                    let started = Instant::now();
                    // Per-thread measurement: each job runs entirely on one
                    // worker, so its simulated device cost is exact and
                    // bit-identical for any pool width — the input the
                    // network simulation replays.
                    let ((candidate, fit), train_usage) =
                        measure_thread(ComputeTier::Device, || {
                            self.train_candidate(&general_envelope, job)
                        });
                    let ((published, gate), audit_usage) =
                        measure_thread(ComputeTier::Device, || {
                            self.gate.admit(candidate, space, &job.subject)
                        });
                    Candidate {
                        index,
                        user_id: job.user_id,
                        envelope: ModelEnvelope::encode(&published),
                        gate,
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
        }

        TrainReport::new(
            self.config.workers,
            outcomes
                .into_iter()
                .map(|o| o.expect("every job was trained, audited and published"))
                .collect(),
            wall.elapsed(),
            flops,
        )
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
    use pelican_mobility::{CampusConfig, DatasetBuilder, Scale, SpatialLevel};
    use pelican_nn::TrainConfig;
    use pelican_serve::RegistryConfig;
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
        let jobs = cohort_jobs(&dataset, (n - 2)..n, 0.8);
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
    fn lockstep_cohorts_match_sequential_dispatch_bitwise() {
        let (general, dataset, _) = tiny_setting();
        let n = dataset.users.len();
        let jobs = cohort_jobs(&dataset, 0..n, 0.8);
        assert!(jobs.len() >= 3, "need a multi-job fleet to exercise cohorts");

        let run_with = |cohort: usize, workers: usize| {
            let registry = ShardedRegistry::new(general.clone(), RegistryConfig::default());
            let config = PipelineConfig { cohort, ..fast_config(workers) };
            let report = FleetTrainer::new(config).run(&general, &dataset.space, &jobs, &registry);
            let envelopes: Vec<ModelEnvelope> = jobs
                .iter()
                .map(|j| ModelEnvelope::encode(&registry.get(j.user_id).unwrap().0))
                .collect();
            (report, envelopes)
        };

        let (seq_report, seq_envelopes) = run_with(0, 1);
        for (cohort, workers) in [(2, 1), (3, 2), (64, 2)] {
            let (report, envelopes) = run_with(cohort, workers);
            assert_eq!(envelopes, seq_envelopes, "published weights diverged at cohort {cohort}");
            for (a, b) in seq_report.outcomes.iter().zip(&report.outcomes) {
                assert_eq!(a.user_id, b.user_id);
                assert_eq!(a.fit, b.fit, "fit report diverged at cohort {cohort}");
                assert_eq!(a.gate, b.gate, "gate verdict diverged at cohort {cohort}");
                assert_eq!(
                    a.train_simulated, b.train_simulated,
                    "simulated training duration diverged at cohort {cohort}"
                );
                assert_eq!(a.audit_simulated, b.audit_simulated);
                assert_eq!(a.envelope_bytes, b.envelope_bytes);
            }
            assert_eq!(report.flops, seq_report.flops, "FLOP parity broken at cohort {cohort}");
        }
    }

    #[test]
    fn lockstep_warm_starts_match_sequential_dispatch_bitwise() {
        let (general, dataset, jobs) = tiny_setting();
        let trainer = FleetTrainer::new(fast_config(1));
        let registry = ShardedRegistry::new(general.clone(), RegistryConfig::default());
        trainer.run(&general, &dataset.space, &jobs, &registry);
        let warm_jobs: Vec<TrainJob> = jobs
            .iter()
            .map(|j| {
                let decoded = registry.get(j.user_id).unwrap().0;
                j.clone().into_warm(ModelEnvelope::encode(&decoded))
            })
            .collect();

        let general_envelope = ModelEnvelope::encode(&general);
        let lockstep = trainer.train_candidates_lockstep(&general_envelope, &warm_jobs);
        for (job, (model, fit, usage)) in warm_jobs.iter().zip(lockstep) {
            let ((seq_model, seq_fit), seq_usage) = measure_thread(ComputeTier::Device, || {
                trainer.train_candidate(&general_envelope, job)
            });
            assert_eq!(ModelEnvelope::encode(&seq_model), ModelEnvelope::encode(&model));
            assert_eq!(seq_fit, fit);
            assert_eq!(seq_usage.flops, usage.flops, "warm-start FLOP parity");
            assert_eq!(seq_usage.simulated, usage.simulated);
        }
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
}
