//! The live loop's two pinned invariants: a quiescent run reduces
//! bit-identically to today's one-shot pipeline plus serving pass, and a
//! drifting run is deterministic across trainer-pool widths.

use std::ops::Range;
use std::sync::Arc;

use pelican::platform::ComputeTier;
use pelican::PersonalizationConfig;
use pelican_live::{
    bootstrap_jobs, live_stream, run_live, DriftConfig, DriftMetric, LiveConfig, LiveOutcome,
};
use pelican_mobility::{CampusConfig, DatasetBuilder, MobilityDataset, Scale, SpatialLevel};
use pelican_nn::{SequenceModel, TrainConfig};
use pelican_serve::{
    simulate_serving, Lookup, RegistryConfig, SchedulerConfig, ShardedRegistry, SimServeConfig,
};
use pelican_store::{
    EnvelopeStore, Fault, FaultPlan, MemBackend, Method, StorageBackend, StoreConfig,
};
use pelican_train::{run_pipeline, AuditConfig, PipelineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SHARDS: usize = 2;

fn tiny_setting() -> (MobilityDataset, SequenceModel, Range<usize>) {
    let dataset =
        DatasetBuilder::new(CampusConfig::for_scale(Scale::Tiny), 13).build(SpatialLevel::Building);
    let mut rng = StdRng::seed_from_u64(13);
    let general =
        SequenceModel::general_lstm(dataset.space.dim(), 12, dataset.n_locations(), 0.1, &mut rng);
    let n = dataset.users.len();
    (dataset, general, (n - 3)..n)
}

const REGISTRY: RegistryConfig = RegistryConfig { shards: SHARDS, hot_capacity: 8 };

fn registry_over(general: &SequenceModel, backend: Arc<dyn StorageBackend>) -> ShardedRegistry {
    let store =
        EnvelopeStore::open(backend, StoreConfig { shards: SHARDS, ..StoreConfig::default() })
            .expect("open empty store");
    ShardedRegistry::with_store(general.clone(), REGISTRY, Arc::new(store))
}

fn fast_config(workers: usize, metric: DriftMetric) -> LiveConfig {
    LiveConfig {
        pipeline: PipelineConfig {
            workers,
            personalization: PersonalizationConfig {
                train: TrainConfig { epochs: 2, ..TrainConfig::default() },
                hidden_dim: 12,
                ..PersonalizationConfig::default()
            },
            audit: AuditConfig { max_instances: 3, ..AuditConfig::default() },
            ..PipelineConfig::default()
        },
        serve: SimServeConfig {
            scheduler: SchedulerConfig { max_batch: 4, max_delay_us: 900 },
            tier: ComputeTier::Cloud,
            network: None,
        },
        drift: DriftConfig { metric, min_new_samples: 4, window: 6 },
        us_per_minute: 1_000,
        bootstrap_minutes: 7 * 24 * 60,
        horizon_minutes: 14 * 24 * 60,
        round_interval_us: 200_000,
        rollback_tolerance: 0.5,
    }
}

/// A trigger that can never fire: finite loss never exceeds +inf.
fn quiescent() -> DriftMetric {
    DriftMetric::Loss { max_loss: f64::INFINITY }
}

/// A trigger that always fires once enough samples accumulate:
/// agreement never reaches 1.01.
fn eager() -> DriftMetric {
    DriftMetric::TopKAgreement { k: 1, min_agreement: 1.01 }
}

#[test]
fn quiescent_loop_reduces_to_the_one_shot_pipeline() {
    let (dataset, general, users) = tiny_setting();
    let config = fast_config(2, quiescent());

    let live_registry = ShardedRegistry::new(general.clone(), REGISTRY);
    let live =
        run_live(&dataset, users.clone(), &live_registry, &general, &config).expect("live run");

    assert!(live.retrains.is_empty(), "an impossible trigger schedules nothing");
    assert_eq!(live.drift_marks, 0);
    assert_eq!(live.reaudit.audits, 0);
    assert_eq!(live.pending_at_end, 0);
    assert!(!live.serve.served.is_empty(), "queries flowed regardless");

    // Reference: the unmodified one-shot pipeline over the same
    // bootstrap cohort, then the plain serving pass over the same
    // stream.
    let reference_registry = ShardedRegistry::new(general.clone(), REGISTRY);
    let jobs = bootstrap_jobs(&dataset, users.clone(), &config);
    assert!(!jobs.is_empty());
    let report =
        run_pipeline(config.pipeline.clone(), &general, &dataset.space, &jobs, &reference_registry);
    assert_eq!(report.outcomes.len(), live.bootstrap.outcomes.len());
    let stream = live_stream(&dataset, users.clone(), &config);
    let serve = simulate_serving(&reference_registry, &stream.requests, &config.serve)
        .expect("envelopes decode");

    // Bit-identical serving: same unified trace fingerprint.
    assert_eq!(live.serve.fingerprint(), serve.fingerprint());
    assert_eq!(live.serve.compositions(), serve.compositions());

    // Bit-identical publications: every user's durable envelope bytes
    // match, and nothing beyond the bootstrap was ever written.
    let live_store = live_registry.store();
    let reference_store = reference_registry.store();
    assert_eq!(live_store.max_version(), reference_store.max_version());
    for job in &jobs {
        let a = live_store.fetch_latest(job.user_id as u64).unwrap().expect("published");
        let b = reference_store.fetch_latest(job.user_id as u64).unwrap().expect("published");
        assert_eq!(a.as_bytes(), b.as_bytes(), "user {} envelope differs", job.user_id);
        assert_eq!(live_store.versions(job.user_id as u64).len(), 1);
    }
}

#[test]
fn drifting_loop_is_width_invariant_and_reaudits_for_free() {
    let (dataset, general, users) = tiny_setting();
    let cohort = || users.clone();

    let narrow_registry = ShardedRegistry::new(general.clone(), REGISTRY);
    let narrow = run_live(&dataset, cohort(), &narrow_registry, &general, &fast_config(1, eager()))
        .expect("1-worker run");
    let wide_registry = ShardedRegistry::new(general.clone(), REGISTRY);
    let wide = run_live(&dataset, cohort(), &wide_registry, &general, &fast_config(2, eager()))
        .expect("2-worker run");

    assert!(!narrow.retrains.is_empty(), "an eager trigger must re-train");
    assert_eq!(
        narrow.fingerprint(),
        wide.fingerprint(),
        "publication schedule must not depend on pool width"
    );
    assert_eq!(narrow.retrains.len(), wide.retrains.len());
    for (a, b) in narrow.retrains.iter().zip(&wide.retrains) {
        assert_eq!(a.user_id, b.user_id);
        assert_eq!(a.publish_us, b.publish_us);
        assert_eq!(a.envelope_hash, b.envelope_hash);
        assert_eq!(a.gate, b.gate);
        assert_eq!(a.train_simulated_us, b.train_simulated_us);
    }
    // Durable histories agree byte-for-byte per user.
    let narrow_store = narrow_registry.store();
    let wide_store = wide_registry.store();
    for u in cohort() {
        let a = narrow_store.fetch_latest(u as u64).unwrap();
        let b = wide_store.fetch_latest(u as u64).unwrap();
        assert_eq!(
            a.as_ref().map(|e| e.as_bytes().to_vec()),
            b.as_ref().map(|e| e.as_bytes().to_vec())
        );
    }

    // Every post-round sweep re-audited unchanged candidates from their
    // warm caches: full attack coverage, zero forward passes.
    assert!(narrow.reaudit.audits > 0, "rounds must trigger re-audit sweeps");
    assert_eq!(narrow.reaudit.misses, 0, "unchanged candidates pay zero forward passes");
    assert!(narrow.reaudit.hits > 0);

    // Retrain latency/staleness live on the virtual clock.
    for r in &narrow.retrains {
        assert!(r.publish_us >= r.round_us && r.round_us >= r.detect_us);
        assert!(r.train_simulated_us > 0);
    }

    // The prefix tiers: each job touches only its own user's, so the
    // counters are width-invariant too; every forward pass of every
    // admission asked one, and the re-trains' were mostly answered — a
    // re-train cannot move the frozen base.
    let widest_registry = ShardedRegistry::new(general.clone(), REGISTRY);
    let widest = run_live(&dataset, cohort(), &widest_registry, &general, &fast_config(8, eager()))
        .expect("8-worker run");
    assert_eq!(widest.fingerprint(), narrow.fingerprint());
    let tier = |live: &LiveOutcome| (live.prefix_hits, live.prefix_misses);
    assert_eq!(tier(&narrow), tier(&wide));
    assert_eq!(tier(&narrow), tier(&widest));
    let admitted = |live: &LiveOutcome| {
        live.bootstrap.outcomes.iter().map(|o| o.gate.cache_misses).sum::<u64>()
            + live.retrain_forward_passes()
    };
    assert_eq!(narrow.prefix_hits + narrow.prefix_misses, admitted(&narrow));
    assert!(narrow.prefix_hits * 10 > narrow.retrain_forward_passes() * 9, "{:?}", tier(&narrow));

    // Every publication rolled back (no accuracy clears a tolerance of
    // −2): the user keeps the predecessor and gets the tier back, so the
    // next re-train's admission still finds it.
    let reverted_registry = ShardedRegistry::new(general.clone(), REGISTRY);
    let reverting = LiveConfig { rollback_tolerance: -2.0, ..fast_config(2, eager()) };
    let reverted = run_live(&dataset, cohort(), &reverted_registry, &general, &reverting)
        .expect("rollback run");
    assert!(reverted.retrains.len() > 3 && reverted.rollbacks() == reverted.retrains.len());
    assert_eq!(reverted.reaudit.misses, 0, "a rolled-back user's logits still fit");
    assert_eq!(reverted.prefix_hits + reverted.prefix_misses, admitted(&reverted));
    assert!(
        reverted.prefix_hits * 10 > reverted.retrain_forward_passes() * 9,
        "{:?}",
        tier(&reverted)
    );
}

#[test]
fn a_refused_bootstrap_publish_leaves_that_user_on_the_fallback() {
    let (dataset, general, users) = tiny_setting();
    // The store refuses the first append: one bootstrap publication.
    let plan = FaultPlan::new(MemBackend::new());
    plan.arm(Method::Append, 1, Fault::Error);
    let registry = registry_over(&general, Arc::new(plan));
    let live = run_live(&dataset, users.clone(), &registry, &general, &fast_config(2, eager()))
        .expect("a refused publication is a per-user failure, not a failed run");

    assert_eq!(live.bootstrap.publish_failures.len(), 1);
    let refused = live.bootstrap.publish_failures[0].user_id;
    assert!(users.contains(&refused));
    assert!(live.bootstrap.outcomes.iter().all(|o| o.user_id != refused));
    assert!(!registry.is_enrolled(refused));
    assert_eq!(registry.get(refused).unwrap().1, Lookup::Fallback);
    assert!(live.serve.served.iter().any(|q| q.user_id == refused), "the fallback served them");

    // The refused user is never re-trained; every other user still is.
    let mut retrained: Vec<usize> = live.retrains.iter().map(|r| r.user_id).collect();
    retrained.sort_unstable();
    retrained.dedup();
    let others: Vec<usize> = users.filter(|&u| u != refused).collect();
    assert_eq!(retrained, others);
    assert_eq!(live.pending_at_end, 0);
}
