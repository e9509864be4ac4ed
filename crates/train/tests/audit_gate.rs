//! Integration: nothing reaches the serving registry without clearing the
//! privacy-audit gate — or carrying the escalated defense the gate
//! deployed trying. Also exercises the serve-while-publish loop the
//! `&self` registry refactor exists for.

use pelican::PersonalizationConfig;
use pelican_mobility::{
    CampusConfig, DatasetBuilder, MobilityDataset, Scale, SpatialLevel, TRAIN_FRACTION,
};
use pelican_nn::{SequenceModel, TrainConfig};
use pelican_serve::{Lookup, RegistryConfig, ShardedRegistry};
use pelican_train::{
    cohort_jobs, AuditConfig, AuditGate, FleetTrainer, GateVerdict, LogitCache, PipelineConfig,
    TrainJob, BASE_DEFENSE,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setting() -> (SequenceModel, MobilityDataset, Vec<TrainJob>) {
    let dataset =
        DatasetBuilder::new(CampusConfig::for_scale(Scale::Tiny), 47).build(SpatialLevel::Building);
    let mut rng = StdRng::seed_from_u64(47);
    let general =
        SequenceModel::general_lstm(dataset.space.dim(), 16, dataset.n_locations(), 0.1, &mut rng);
    let n = dataset.users.len();
    let jobs = cohort_jobs(&dataset, n.saturating_sub(3)..n, TRAIN_FRACTION);
    (general, dataset, jobs)
}

fn config() -> PipelineConfig {
    PipelineConfig {
        workers: 4,
        base_seed: 7,
        personalization: PersonalizationConfig {
            train: TrainConfig { epochs: 3, ..TrainConfig::default() },
            hidden_dim: 16,
            ..PersonalizationConfig::default()
        },
        // A deliberately tight budget so the escalation path really runs.
        audit: AuditConfig { max_instances: 4, max_leakage: 0.2, ..AuditConfig::default() },
    }
}

#[test]
fn every_published_model_passed_the_gate_or_carries_an_escalated_defense() {
    let (general, dataset, jobs) = setting();
    let registry = ShardedRegistry::new(general.clone(), RegistryConfig::default());
    let pipeline_config = config();
    let audit_config = pipeline_config.audit.clone();
    let report = FleetTrainer::new(pipeline_config).run(&general, &dataset.space, &jobs, &registry);

    assert_eq!(report.outcomes.len(), jobs.len(), "every job publishes exactly once");
    assert_eq!(registry.stats().cold_models, jobs.len());
    assert_eq!(
        report.passed() + report.escalated() + report.exhausted(),
        jobs.len(),
        "verdicts partition the cohort"
    );

    let gate = AuditGate::new(audit_config.clone());
    for outcome in &report.outcomes {
        // The registry serves exactly what the gate released.
        let (published, lookup) = registry.get(outcome.user_id).unwrap();
        assert_ne!(lookup, Lookup::Fallback, "personalized user must not fall back");

        match outcome.gate.verdict {
            GateVerdict::Passed => {
                assert_eq!(outcome.gate.rungs_climbed, 0);
                assert_eq!(outcome.gate.defense, BASE_DEFENSE);
                assert!(outcome.gate.within_budget(&audit_config));
            }
            GateVerdict::Escalated => {
                assert!(outcome.gate.rungs_climbed >= 1);
                assert!(outcome.gate.within_budget(&audit_config));
                assert!(
                    outcome.gate.initial_leakage > audit_config.max_leakage,
                    "escalation only happens when the base defense leaked"
                );
            }
            GateVerdict::Exhausted => {
                assert_eq!(outcome.gate.rungs_climbed, audit_config.ladder.len());
                assert_eq!(
                    outcome.gate.defense,
                    *audit_config.ladder.last().unwrap(),
                    "a still-leaking model carries the strongest rung"
                );
            }
        }

        // The deployed defense is really installed on the served model.
        assert_eq!(published.defense(), outcome.gate.defense);

        // Gate honesty: re-auditing the *published* model reproduces the
        // recorded final leakage.
        let job = jobs.iter().find(|j| j.user_id == outcome.user_id).unwrap();
        let eval =
            gate.audit_cached(&published, &dataset.space, &job.subject, &mut LogitCache::new());
        assert_eq!(eval.accuracy(audit_config.audit_k), outcome.gate.final_leakage);
    }
}

#[test]
fn serving_continues_while_the_pipeline_publishes() {
    let (general, dataset, jobs) = setting();
    let registry = ShardedRegistry::new(general.clone(), RegistryConfig::default());
    let trainer = FleetTrainer::new(config());
    let xs = vec![vec![0.1; dataset.space.dim()]; 2];

    std::thread::scope(|s| {
        // A serving thread hammers the registry for the whole training
        // run: before a user's model lands it gets the general fallback,
        // afterwards the personalized model — never an error, never a
        // blocked publisher.
        let serve_registry = &registry;
        let serve_jobs = &jobs;
        let server = s.spawn(move || {
            let mut answered = 0u64;
            loop {
                for job in serve_jobs {
                    let (model, _) = serve_registry.get(job.user_id).unwrap();
                    let probs = model.predict_proba(&xs);
                    assert_eq!(probs.len(), serve_registry.general().output_dim());
                    answered += 1;
                }
                if serve_jobs.iter().all(|j| serve_registry.is_enrolled(j.user_id)) {
                    return answered;
                }
            }
        });
        trainer.run(&general, &dataset.space, &jobs, &registry);
        let answered = server.join().expect("serving thread never panics");
        assert!(answered >= jobs.len() as u64);
    });
    assert_eq!(registry.stats().cold_models, jobs.len());
}
