//! `enroll_fleet` — closed loop, one op per model published.
//!
//! The one-shot pipeline (`run_pipeline`) personalizes the last three
//! users of the campus from the trained M_G: TL-FE, hidden 64 (the
//! workbench's Small sizing), 25 epochs at batch 16 over each user's
//! first 200 training samples, then a 3-instance audit and a durable
//! publish. `nn::fit` and the tensor training kernels
//! do about nine tenths of the work; serving and the simulator do none.
//! A training-path or training-kernel change must show here, and must
//! not show on `serve_steady`.

use std::sync::Arc;

use pelican::PersonalizationConfig;
use pelican_nn::{fit, ModelEnvelope, TrainConfig};
use pelican_serve::ShardedRegistry;
use pelican_store::EnvelopeStore;
use pelican_tensor::Matrix;
use pelican_train::{
    cohort_jobs, run_pipeline, AuditConfig, FleetTrainer, PipelineConfig, TrainJob,
};

use super::{store_backed_registry, Fnv, World};
use crate::probes;
use crate::row::{Iteration, Metrics};
use crate::runner::{Clock, Timed, Workload};
use crate::spans::Tracer;
use crate::stats::mean;

const SHARDS: usize = 4;

pub struct EnrollFleet {
    world: World,
    jobs: Vec<TrainJob>,
    config: PipelineConfig,
}

impl EnrollFleet {
    fn pipeline(&self, workers: usize) -> PipelineConfig {
        PipelineConfig { workers, ..self.config.clone() }
    }
}

impl Workload for EnrollFleet {
    const NAME: &'static str = "enroll_fleet";
    const OP: &'static str = "model published";
    type Fresh = (Arc<EnvelopeStore>, ShardedRegistry);

    fn setup(seed: u64, quick: bool, tracer: &mut Tracer) -> Self {
        let (hidden, epochs, users, samples) =
            if quick { (16, 3, 2, 24) } else { (64, 25, 3, 200) };
        let world = World::build(seed, hidden, quick, tracer);
        // Users differ in how much they moved, seed to seed, by a third;
        // the same number of samples from each keeps an iteration's work
        // the same for every seed, so host time measures the code.
        let mut jobs = cohort_jobs(&world.dataset, world.personal_users(usize::MAX), 0.8);
        jobs.retain(|job| job.train.len() >= samples);
        jobs.drain(..jobs.len().saturating_sub(users));
        jobs.iter_mut().for_each(|job| job.train.truncate(samples));
        assert!(!jobs.is_empty(), "no user has {samples} training samples");
        let config = PipelineConfig {
            workers: 1,
            base_seed: seed,
            personalization: PersonalizationConfig {
                train: TrainConfig { epochs, batch_size: 16, ..TrainConfig::default() },
                hidden_dim: hidden,
                ..PersonalizationConfig::default()
            },
            audit: AuditConfig { max_instances: 3, ..AuditConfig::default() },
            ..PipelineConfig::default()
        };
        Self { world, jobs, config }
    }

    fn fresh(&self) -> Self::Fresh {
        store_backed_registry(&self.world.general, SHARDS, 16)
    }

    fn iterate(&self, (store, registry): Self::Fresh, clock: &mut Clock) -> Iteration {
        let World { dataset, general } = &self.world;
        let report = clock.timed(|t| {
            t.span("train.run_pipeline", |_| {
                run_pipeline(self.pipeline(1), general, &dataset.space, &self.jobs, &registry)
            })
        });

        let mut out = Iteration { attempted: self.jobs.len() as u64, ..Iteration::default() };
        let mut hash = Fnv::new();
        let mut published = 0;
        for job in &self.jobs {
            let outcome = report.outcomes.iter().find(|o| o.user_id == job.user_id);
            let envelope = store.fetch_latest(job.user_id as u64).ok().flatten();
            match (outcome, envelope) {
                (Some(o), Some(e)) if registry.version_of(job.user_id) == Some(o.version) => {
                    published += 1;
                    hash.bytes(e.as_bytes());
                }
                _ => out.violations.push(format!("user {} was not published", job.user_id)),
            }
        }
        out.failed = out.attempted - published;
        out.fingerprint = hash.0;

        let gates = || report.outcomes.iter().map(|o| &o.gate);
        out.metrics.exact("leak_top3", mean(gates().map(|g| g.final_leakage)));
        let (passes, saved) = (report.audit_forward_passes(), report.forward_passes_saved());
        out.metrics.exact("audit.forward_passes", passes as f64);
        out.metrics.exact("audit.cache_hit_share", saved as f64 / (passes + saved).max(1) as f64);
        out.metrics.exact("audit.rungs_mean", mean(gates().map(|g| g.rungs_climbed as f64)));
        out.metrics.exact("train.flops", report.flops as f64);
        out
    }

    fn probe(&self, timed: Timed, tracer: &mut Tracer, metrics: &mut Metrics) {
        let World { dataset, general } = &self.world;
        let space = &dataset.space;

        // The pipeline taken apart: the same four public calls it makes
        // per job, each in its own span, so the iteration's wall time can
        // be attributed from outside.
        let trainer = FleetTrainer::new(self.pipeline(1));
        let general_envelope = ModelEnvelope::encode(general);
        let (_store, registry) = self.fresh();
        let mut queries = 0;
        tracer.span("train.pipeline_by_parts", |t| {
            for job in &self.jobs {
                let (candidate, _) = t.span("train.train_candidate", |_| {
                    trainer.train_candidate(&general_envelope, job)
                });
                let (published, gate, _) = t.span("audit.admit_with_cache", |_| {
                    trainer.gate().admit_with_cache(candidate, space, &job.subject)
                });
                queries += gate.queries;
                let envelope = t.span("nn.envelope_encode", |_| ModelEnvelope::encode(&published));
                t.span("registry.try_enroll_envelope", |_| {
                    registry.try_enroll_envelope(job.user_id, envelope).expect("in-memory publish")
                });
            }
        });
        let train = tracer.seconds_of("train.train_candidate");
        let admit = tracer.seconds_of("audit.admit_with_cache");
        let parts = tracer.seconds_of("train.pipeline_by_parts")[0];
        metrics.timing("train.candidate_ms", &train, 1e3);
        metrics.timing("audit.admit_ms", &admit, 1e3);
        metrics.measured("audit.queries_per_s", queries as f64 / admit.iter().sum::<f64>());
        metrics.measured("train.share", train.iter().sum::<f64>() / parts);
        metrics.measured("audit.share", admit.iter().sum::<f64>() / parts);
        metrics.timing(
            "registry.publish_us",
            &tracer.seconds_of("registry.try_enroll_envelope"),
            1e6,
        );

        // Width 2 against the untraced width-1 iterations. Informational:
        // every end-to-end number is taken at width 1.
        let (_store, registry) = self.fresh();
        tracer.span("train.run_pipeline_w2", |_| {
            run_pipeline(self.pipeline(2), general, space, &self.jobs, &registry)
        });
        metrics.measured(
            "train.pool_speedup_w2",
            timed.wall_s / tracer.seconds_of("train.run_pipeline_w2")[0],
        );

        // One user's data through `fit`, every layer trainable.
        let job = &self.jobs[0];
        let epochs = self.config.personalization.train.epochs.min(5);
        let config = TrainConfig { epochs, ..self.config.personalization.train.clone() };
        let mut model = general.clone();
        tracer.span("nn.fit", |_| fit(&mut model, &job.train, &config));
        let fit_s = tracer.seconds_of("nn.fit")[0];
        metrics.measured("nn.fit_epochs_per_s", epochs as f64 / fit_s);
        metrics.measured("nn.fit_samples_per_s", (epochs * job.train.len()) as f64 / fit_s);

        let hidden = self.config.personalization.hidden_dim;
        let gates =
            Matrix::from_vec(4 * hidden, space.dim(), probes::values(4 * hidden * space.dim(), 1));
        metrics.measured(
            "tensor.matvec_h64_gflops",
            probes::matvec_gflops(tracer, "tensor.matvec_h64", &gates),
        );
        metrics.measured("tensor.rank_update_gflops", probes::rank_update_gflops(tracer, gates));
        probes::envelope_codec(tracer, metrics, general);
        probes::dataset_build(tracer, metrics);
    }
}
