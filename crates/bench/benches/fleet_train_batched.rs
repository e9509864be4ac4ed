//! Criterion bench of cohort dispatch vs. per-job dispatch: epoch
//! throughput of the training stage at several cohort sizes, on a single
//! worker.
//!
//! The timed region is the pipeline's *training stage* — envelope decode,
//! warm-start prep and the epoch loop; the audit and publication stages
//! execute identical code in both dispatch modes and are excluded.
//! Everything runs at pool width 1. Every row trains through the same
//! `pelican_nn::fit` (a cohort only shares the general-envelope decode),
//! so the rows are expected flat — the evidence for deleting the cohort
//! machinery. Every cohort size trains bit-identical weights (asserted
//! before timing starts; end-to-end publication identity is covered by
//! the pipeline's determinism tests).
//!
//! The shape is the `Small` fleet's (119-dim input, hidden 64, ~250
//! samples/job, default batch 32) with the epoch count cut to keep
//! criterion iterations tractable; the `repro train-batched` experiment
//! runs the same sweep at the full epoch count.

use criterion::{criterion_group, criterion_main, Criterion};

use pelican::PersonalizationConfig;
use pelican_mobility::{CampusConfig, DatasetBuilder, Scale, SpatialLevel};
use pelican_nn::{ModelEnvelope, SequenceModel, TrainConfig};
use pelican_train::{cohort_jobs, form_cohorts, FleetTrainer, PipelineConfig, TrainJob};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_fleet_train_batched(c: &mut Criterion) {
    let dataset = DatasetBuilder::new(CampusConfig::for_scale(Scale::Small), 42)
        .build(SpatialLevel::Building);
    let mut rng = StdRng::seed_from_u64(42);
    let general =
        SequenceModel::general_lstm(dataset.space.dim(), 64, dataset.n_locations(), 0.1, &mut rng);
    // 8 jobs so the cohort-8 row is one full cohort (fill 100%); ragged
    // fill is the repro experiment's territory.
    let n = dataset.users.len();
    let jobs = cohort_jobs(&dataset, n.saturating_sub(8)..n, 0.8);

    let trainer = FleetTrainer::new(PipelineConfig {
        workers: 1,
        base_seed: 42,
        personalization: PersonalizationConfig {
            train: TrainConfig { epochs: 4, ..TrainConfig::default() },
            hidden_dim: 64,
            ..PersonalizationConfig::default()
        },
        ..PipelineConfig::default()
    });
    let envelope = ModelEnvelope::encode(&general);

    // The whole point: cohort size must not change a single trained bit.
    let trained = |cohort: usize| -> Vec<Vec<u8>> {
        let mut out = Vec::with_capacity(jobs.len());
        if cohort == 0 {
            for job in &jobs {
                let (model, _) = trainer.train_candidate(&envelope, job);
                out.push(ModelEnvelope::encode(&model).as_bytes().to_vec());
            }
        } else {
            for range in form_cohorts(&jobs, cohort, |_: &TrainJob| 0) {
                for (model, _, _) in trainer.train_candidates_lockstep(&envelope, &jobs[range]) {
                    out.push(ModelEnvelope::encode(&model).as_bytes().to_vec());
                }
            }
        }
        out
    };
    let reference = trained(0);
    for cohort in [2usize, 8] {
        assert_eq!(reference, trained(cohort), "cohort size changed trained weights");
    }

    let mut group = c.benchmark_group("fleet_train_batched");
    group.sample_size(10);
    group.bench_function("cohort/seq", |b| {
        b.iter(|| {
            for job in &jobs {
                std::hint::black_box(trainer.train_candidate(&envelope, job));
            }
        })
    });
    for cohort in [2usize, 4, 8] {
        group.bench_function(format!("cohort/{cohort}"), |b| {
            b.iter(|| {
                for range in form_cohorts(&jobs, cohort, |_: &TrainJob| 0) {
                    std::hint::black_box(
                        trainer.train_candidates_lockstep(&envelope, &jobs[range]),
                    );
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fleet_train_batched);
criterion_main!(benches);
