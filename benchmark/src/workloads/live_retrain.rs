//! `live_retrain` — the ROADMAP's end-to-end: one `run_live`
//! personalize-while-serve run; one op per publication (bootstrap plus
//! re-trains).
//!
//! The tracked Small `live-report` shape, for continuity with
//! `BENCH_live_loop.json`: hidden 12, 2 warm epochs, 3 audit instances,
//! an always-stale top-1 trigger, 1 ms per trace minute, a bootstrap week
//! and a live week, no network, 4 shards. Ten users. The run is
//! audit-dominated — each re-train audits the new candidate and every
//! round re-audits the unchanged users — so attack-query and
//! single-query inference work shows here and training-kernel work
//! barely does.

use std::hint::black_box;
use std::sync::Arc;

use pelican::PersonalizationConfig;
use pelican_live::{
    bootstrap_jobs, live_stream, run_live, DriftConfig, DriftMetric, LiveConfig, LiveStream,
};
use pelican_nn::{ModelEnvelope, TrainConfig};
use pelican_serve::{simulate_serving, SchedulerConfig, ShardedRegistry, SimServeConfig};
use pelican_store::EnvelopeStore;
use pelican_tensor::Matrix;
use pelican_train::{run_pipeline, AuditConfig, FleetTrainer, JobKind, PipelineConfig, TrainJob};

use super::{in_top_k, query_latency, store_backed_registry, World};
use crate::probes;
use crate::row::{Iteration, Metrics};
use crate::runner::{Clock, Timed, Workload};
use crate::spans::Tracer;
use crate::stats::{mean, median, percentile, sorted};

const SHARDS: usize = 4;
const HIDDEN: usize = 12;

pub struct LiveRetrain {
    world: World,
    users: std::ops::Range<usize>,
    config: LiveConfig,
    /// The post-bootstrap arrivals `run_live` will build for itself; held
    /// here for the served-everything check and the answers' ground truth.
    stream: LiveStream,
    bootstrap: Vec<TrainJob>,
}

impl LiveRetrain {
    fn with_trigger(&self, metric: DriftMetric) -> LiveConfig {
        LiveConfig { drift: DriftConfig { metric, ..self.config.drift }, ..self.config.clone() }
    }
}

impl Workload for LiveRetrain {
    const NAME: &'static str = "live_retrain";
    const OP: &'static str = "publication";
    type Fresh = (Arc<EnvelopeStore>, ShardedRegistry);

    fn setup(seed: u64, quick: bool, tracer: &mut Tracer) -> Self {
        let world = World::build(seed, HIDDEN, quick, tracer);
        let users = world.personal_users(if quick { 3 } else { 10 });
        let base = LiveConfig::default();
        let config = LiveConfig {
            pipeline: PipelineConfig {
                workers: 1,
                base_seed: seed,
                personalization: PersonalizationConfig {
                    train: TrainConfig { epochs: 2, ..TrainConfig::default() },
                    hidden_dim: HIDDEN,
                    ..PersonalizationConfig::default()
                },
                audit: AuditConfig { max_instances: 3, ..AuditConfig::default() },
                ..PipelineConfig::default()
            },
            serve: SimServeConfig {
                scheduler: SchedulerConfig { max_batch: 4, max_delay_us: 900 },
                network: None,
                ..base.serve
            },
            // Agreement can never reach 1.01: every user re-trains each
            // time four fresh sessions arrive — the heaviest retrain load.
            drift: DriftConfig {
                metric: DriftMetric::TopKAgreement { k: 1, min_agreement: 1.01 },
                min_new_samples: 4,
                window: 6,
            },
            us_per_minute: 1_000,
            bootstrap_minutes: 7 * 24 * 60,
            horizon_minutes: 14 * 24 * 60,
            round_interval_us: 200_000,
            ..base
        };
        let stream = tracer
            .span("live.live_stream", |_| live_stream(&world.dataset, users.clone(), &config));
        let bootstrap = bootstrap_jobs(&world.dataset, users.clone(), &config);
        Self { world, users, config, stream, bootstrap }
    }

    fn fresh(&self) -> Self::Fresh {
        store_backed_registry(&self.world.general, SHARDS, 16)
    }

    fn iterate(&self, (_store, registry): Self::Fresh, clock: &mut Clock) -> Iteration {
        let World { dataset, general } = &self.world;
        let live = clock.timed(|t| {
            t.span("live.run_live", |_| {
                run_live(dataset, self.users.clone(), &registry, general, &self.config)
            })
        });
        let live = match live {
            Ok(live) => live,
            Err(e) => return Iteration::failed(1, format!("run_live failed: {e}")),
        };

        let published = (live.bootstrap.outcomes.len() + live.retrains.len()) as u64;
        let mut out = Iteration {
            // Every drift mark is owed a publication by the end of the run.
            attempted: self.bootstrap.len() as u64 + live.drift_marks,
            fingerprint: live.fingerprint(),
            ..Iteration::default()
        };
        out.failed = out.attempted.saturating_sub(published);
        let mut require = |ok: bool, what: String| {
            if !ok {
                out.violations.push(what);
            }
        };
        require(
            live.reaudit.misses == 0,
            format!("{} re-audit forward passes", live.reaudit.misses),
        );
        require(
            live.pending_at_end == 0,
            format!("{} re-trains pending at the end", live.pending_at_end),
        );
        require(
            live.serve.dropped == 0 && live.serve.served.len() == self.stream.requests.len(),
            format!(
                "{} of {} requests served",
                live.serve.served.len(),
                self.stream.requests.len()
            ),
        );

        let m = &mut out.metrics;
        query_latency(m, &live.serve.served);
        let latency = sorted(live.retrains.iter().map(|r| r.latency_us()));
        let stale = sorted(live.retrains.iter().map(|r| r.staleness_us()));
        if latency.len() >= 100 {
            m.exact("v_retrain_p50_us", percentile(&latency, 0.50) as f64);
            m.exact("v_retrain_p90_us", percentile(&latency, 0.90) as f64);
            m.exact("v_stale_p90_us", percentile(&stale, 0.90) as f64);
        }
        let gates = live
            .bootstrap
            .outcomes
            .iter()
            .map(|o| &o.gate)
            .chain(live.retrains.iter().map(|r| &r.gate));
        m.exact("leak_top3", mean(gates.map(|g| g.final_leakage)));
        let answers = live.serve.completions.iter().flatten();
        let hits = answers
            .filter(|c| in_top_k(&c.probs, self.stream.samples[c.request_id].target, 3))
            .count();
        m.exact("served_top3_acc", hits as f64 / live.serve.served.len().max(1) as f64);
        m.exact("live.retrains", live.retrains.len() as f64);
        m.exact("live.reaudit_queries", live.reaudit.queries as f64);
        m.exact("live.rollbacks", live.rollbacks() as f64);
        out
    }

    fn probe(&self, timed: Timed, tracer: &mut Tracer, metrics: &mut Metrics) {
        let World { dataset, general } = &self.world;
        let space = &dataset.space;
        let eager = metrics.get("live.retrains").unwrap_or(0.0);
        let reaudit_queries = metrics.get("live.reaudit_queries").unwrap_or(0.0);

        // The stages of a quiescent run, by their own public calls.
        metrics.timing("live.stream_build_ms", &tracer.seconds_of("live.live_stream"), 1e3);
        let (_store, registry) = self.fresh();
        tracer.span("live.bootstrap", |_| {
            run_pipeline(self.config.pipeline.clone(), general, space, &self.bootstrap, &registry)
        });
        tracer.span("live.serve_pass", |_| {
            simulate_serving(&registry, &self.stream.requests, &self.config.serve)
                .expect("envelopes decode")
        });
        metrics.measured("live.bootstrap_s", tracer.seconds_of("live.bootstrap")[0]);
        metrics.measured("live.serve_pass_s", tracer.seconds_of("live.serve_pass")[0]);

        // A trigger that cannot fire: bootstrap, cache warming and
        // serving, and not one re-train. What the eager run costs on top
        // is the retrain rounds.
        let quiet = self.with_trigger(DriftMetric::Loss { max_loss: f64::INFINITY });
        let (_store, registry) = self.fresh();
        tracer.span("live.run_live_quiescent", |_| {
            run_live(dataset, self.users.clone(), &registry, general, &quiet)
                .expect("quiescent run")
        });
        let quiescent_s = tracer.seconds_of("live.run_live_quiescent")[0];
        metrics.measured("live.quiescent_s", quiescent_s);
        metrics.measured("live.retrain_rounds_s", timed.wall_s - quiescent_s);

        // Unit costs of one retrain round's parts, on every bootstrap
        // user's published model: a warm re-train on a six-sample window,
        // the cold admission audit of the result, and a warm re-audit.
        let trainer = FleetTrainer::new(self.config.pipeline.clone());
        let general_envelope = ModelEnvelope::encode(general);
        let (mut admit_queries, mut replay_queries) = (0, 0);
        for job in &self.bootstrap {
            let published = registry.get(job.user_id).expect("bootstrap published").0;
            let window =
                job.train[job.train.len().saturating_sub(self.config.drift.window)..].to_vec();
            let warm = TrainJob {
                kind: JobKind::WarmStart { envelope: ModelEnvelope::encode(&published) },
                train: window,
                ..job.clone()
            };
            let (candidate, _) = tracer.span("train.train_candidate_warm", |_| {
                trainer.train_candidate(&general_envelope, &warm)
            });
            let (admitted, gate, mut cache) = tracer.span("audit.admit_with_cache", |_| {
                trainer.gate().admit_with_cache(candidate, space, &job.subject)
            });
            admit_queries += gate.queries;
            let replay = tracer.span("audit.audit_cached_warm", |_| {
                trainer.gate().audit_cached(&admitted, space, &job.subject, &mut cache)
            });
            replay_queries += replay.queries;
        }
        let warm = tracer.seconds_of("train.train_candidate_warm");
        let admit = tracer.seconds_of("audit.admit_with_cache");
        let replay = tracer.seconds_of("audit.audit_cached_warm");
        metrics.timing("train.warm_candidate_ms", &warm, 1e3);
        metrics.timing("audit.admit_ms", &admit, 1e3);
        metrics.measured("audit.queries_per_s", admit_queries as f64 / admit.iter().sum::<f64>());
        let replay_rate = replay_queries as f64 / replay.iter().sum::<f64>();
        metrics.measured("audit.replay_queries_per_s", replay_rate);

        // Rows must add up: the eager run against its parts' unit costs
        // times the counts the outcome reports.
        let train_s = eager * median(&warm);
        let audit_s = eager * median(&admit) + reaudit_queries / replay_rate;
        metrics.measured("train.share", train_s / timed.wall_s);
        metrics.measured("audit.share", audit_s / timed.wall_s);
        metrics.measured(
            "live.unattributed_share",
            1.0 - (quiescent_s + train_s + audit_s) / timed.wall_s,
        );

        let model = registry.get(self.bootstrap[0].user_id).expect("bootstrap published").0;
        let queries: Vec<_> = self.stream.requests.iter().take(64).map(|r| &r.xs).collect();
        for _ in 0..21 {
            tracer.span("nn.logits", |_| {
                queries.iter().for_each(|xs| drop(black_box(model.logits(xs))))
            });
        }
        metrics.timing(
            "nn.logits_us",
            &tracer.seconds_of("nn.logits"),
            1e6 / queries.len().max(1) as f64,
        );
        let gates =
            Matrix::from_vec(4 * HIDDEN, space.dim(), probes::values(4 * HIDDEN * space.dim(), 1));
        metrics.measured(
            "tensor.matvec_h12_gflops",
            probes::matvec_gflops(tracer, "tensor.matvec_h12", &gates),
        );
        probes::dataset_build(tracer, metrics);
    }
}
