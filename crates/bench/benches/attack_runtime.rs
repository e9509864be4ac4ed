//! Criterion bench behind Table II: per-instance cost of each attack
//! method against the same personalized model.
//!
//! The paper reports 82.18 h (brute force), 6.27 h (gradient descent) and
//! 0.68 h (time-based) for 100 users; the machine-independent claim is the
//! ~120× gap between brute force and the time-based enumeration, which this
//! bench reproduces per instance.
//!
//! `gate_admission` times what the audit gate makes of those attacks: one
//! whole admission (time-based, A1, three instances — the live loop's
//! gate) of a TL-FE candidate, from nothing (`cold`: a user's first
//! admission) and starting from the prefix tier the previous admission
//! handed back (`warm`: every re-train after it), at the live loop's
//! hidden width and at the paper-scale one; then two replays of the
//! admitted model from the logit cache its admission filled: a ladder
//! rung (`rung`: a temperature the cached rows were not normalised
//! under) and a re-audit under the admitted defense (`reaudit`).

use criterion::{criterion_group, criterion_main, Criterion};

use pelican::workbench::Scenario;
use pelican::{CloudTrainer, PersonalizationConfig};
use pelican_attacks::{
    interest_locations, Adversary, AttackMethod, BruteForce, GradientDescent, PriorKind, TimeBased,
};
use pelican_mobility::{CampusConfig, DatasetBuilder, Scale, SpatialLevel};
use pelican_nn::{ModelEnvelope, TrainConfig};
use pelican_train::{cohort_jobs, AuditConfig, FleetTrainer, PipelineConfig};

fn bench_attacks(c: &mut Criterion) {
    let scenario =
        Scenario::builder(Scale::Tiny, SpatialLevel::Building).seed(42).personal_users(1).build();
    let user = &scenario.personal[0];
    let prior = scenario.prior(user, PriorKind::True);
    let probes = pelican_attacks::prior::random_probes(&scenario.dataset.space, 24, 1);
    let interest = interest_locations(&user.model, &probes, 0.01);
    let instance = scenario.attack_instances(user, Adversary::A1, 1)[0].clone();

    let mut group = c.benchmark_group("attack_per_instance");
    group.sample_size(10);

    let cases = [
        ("time_based", AttackMethod::TimeBased(TimeBased::default())),
        ("gradient_descent", AttackMethod::GradientDescent(GradientDescent::default())),
        ("brute_force", AttackMethod::BruteForce(BruteForce::default())),
    ];
    for (name, method) in cases {
        let mut model = user.model.clone();
        group.bench_function(name, |b| {
            b.iter(|| {
                method.run(
                    &mut model,
                    &scenario.dataset.space,
                    &prior,
                    &interest,
                    std::hint::black_box(&instance),
                )
            })
        });
    }
    group.finish();
}

/// The repo benchmark's `live_retrain` world (Small campus, M_G trained
/// three epochs on 4 000 pooled samples, two personalization epochs), so
/// `cold/h12` is the admission its `audit.admit_ms` probe times.
fn bench_gate_admission(c: &mut Criterion) {
    let dataset = DatasetBuilder::new(CampusConfig::for_scale(Scale::Small), 42)
        .build(SpatialLevel::Building);
    let space = &dataset.space;
    let mut pooled = dataset.pooled_samples(0..dataset.users.len() / 2);
    pooled.truncate(4000);
    let last = dataset.users.len() - 1;
    let job = cohort_jobs(&dataset, last..last + 1, 0.8).remove(0);

    let mut group = c.benchmark_group("gate_admission");
    group.sample_size(10);
    for hidden in [12, 64] {
        let train = TrainConfig { epochs: 3, ..TrainConfig::default() };
        let (general, _, _) = CloudTrainer::new(train, hidden, 0.1).train(
            space.dim(),
            dataset.n_locations(),
            &pooled,
            42,
        );
        let trainer = FleetTrainer::new(PipelineConfig {
            personalization: PersonalizationConfig {
                train: TrainConfig { epochs: 2, ..TrainConfig::default() },
                hidden_dim: hidden,
                ..PersonalizationConfig::default()
            },
            audit: AuditConfig { max_instances: 3, ..AuditConfig::default() },
            ..PipelineConfig::default()
        });
        let (candidate, _) = trainer.train_candidate(&ModelEnvelope::encode(&general), &job);
        let gate = trainer.gate();

        group.bench_function(format!("cold/h{hidden}"), |b| {
            b.iter(|| gate.admit_with_cache(candidate.clone(), space, &job.subject).1)
        });
        // The live loop's cycle: each admission starts from the tier the
        // one before it handed back.
        let mut tier = gate.admit_with_cache(candidate.clone(), space, &job.subject).2.prefix;
        group.bench_function(format!("warm/h{hidden}"), |b| {
            b.iter(|| {
                let inherited = std::mem::take(&mut tier);
                let (_, outcome, cache) =
                    gate.admit_inheriting(candidate.clone(), space, &job.subject, inherited);
                tier = cache.prefix;
                outcome
            })
        });
        assert!(
            tier.hits > 0 && tier.misses == tier.len() as u64,
            "warm admissions ran the prefix"
        );

        let (published, _, mut cache) =
            gate.admit_with_cache(candidate.clone(), space, &job.subject);
        // Two temperatures in turn: every rung finds each row normalised
        // under the other one.
        let rungs = [0.5, 0.25].map(|scale| {
            let mut rung = published.clone();
            rung.set_temperature(scale * published.temperature());
            rung
        });
        let mut next = 0;
        group.bench_function(format!("rung/h{hidden}"), |b| {
            b.iter(|| {
                next ^= 1;
                gate.audit_cached(&rungs[next], space, &job.subject, &mut cache)
            })
        });
        group.bench_function(format!("reaudit/h{hidden}"), |b| {
            b.iter(|| gate.audit_cached(&published, space, &job.subject, &mut cache))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_attacks, bench_gate_admission);
criterion_main!(benches);
