//! Criterion bench behind the §V-C2 overhead table: throughput of
//! cloud-style general training vs the on-device personalization methods,
//! and of the dense `x·Wᵀ` product both run on.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use pelican::{personalize, PersonalizationConfig, PersonalizationMethod};
use pelican_mobility::{CampusConfig, DatasetBuilder, Scale, SpatialLevel};
use pelican_nn::{fit, SequenceModel, TrainConfig};
use pelican_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_training(c: &mut Criterion) {
    let dataset =
        DatasetBuilder::new(CampusConfig::for_scale(Scale::Tiny), 42).build(SpatialLevel::Building);
    let contributor_samples = dataset.pooled_samples(0..4);
    let user_samples = dataset.user_samples(5);
    let dim = dataset.space.dim();
    let classes = dataset.n_locations();

    let mut group = c.benchmark_group("training");
    group.sample_size(10);

    let one_epoch = TrainConfig { epochs: 1, batch_size: 32, ..TrainConfig::default() };
    group.bench_function("general_epoch", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut model = SequenceModel::general_lstm(dim, 24, classes, 0.1, &mut rng);
            fit(&mut model, &contributor_samples, &one_epoch)
        })
    });

    let mut rng = StdRng::seed_from_u64(1);
    let general = SequenceModel::general_lstm(dim, 24, classes, 0.1, &mut rng);
    let config = PersonalizationConfig {
        train: TrainConfig { epochs: 2, batch_size: 16, ..TrainConfig::default() },
        hidden_dim: 24,
        dropout: 0.1,
        seed: 7,
    };
    for method in [
        PersonalizationMethod::TlFeatureExtract,
        PersonalizationMethod::TlFineTune,
        PersonalizationMethod::Lstm,
    ] {
        group.bench_function(format!("personalize_{}", method.name().replace(' ', "_")), |b| {
            b.iter(|| personalize(&general, &user_samples, method, &config))
        });
    }
    group.finish();
}

/// `x·Wᵀ` against one `4H × H` weight matrix at `H` = 64: served groups
/// are 1–2 rows, training mini-batches 16–32. The blocked kernel takes
/// over from the row kernel at 4 rows; these rows re-measure that
/// crossover.
fn bench_dense_product(c: &mut Criterion) {
    let (outs, width) = (256, 64);
    let values = |n: usize, phase: f32| (0..n).map(|i| (i as f32 * 0.731 + phase).sin()).collect();
    let w = Matrix::from_vec(outs, width, values(outs * width, 0.0));
    let mut group = c.benchmark_group("matmul_transpose");
    for rows in [1, 2, 4, 16, 32] {
        let x = Matrix::from_vec(rows, width, values(rows * width, 1.0));
        group.bench_function(format!("{outs}x{width}/rows_{rows}"), |b| {
            b.iter(|| black_box(&x).matmul_transpose(black_box(&w)))
        });
    }
    group.finish();
}

/// One `tanh` per element of a gate block (`H` = 12 or 64) and of a long
/// slice: the host libm's `tanhf`, one call per element, against the
/// owned lane form the LSTM gates call.
fn bench_tanh(c: &mut Criterion) {
    let mut group = c.benchmark_group("activation/tanh");
    for len in [12, 64, 4096] {
        let xs: Vec<f32> = (0..len).map(|i| (i as f32 * 0.731).sin() * 3.0).collect();
        let mut out = xs.clone();
        group.bench_function(format!("libm/{len}"), |b| {
            b.iter(|| {
                for (o, &x) in out.iter_mut().zip(black_box(&xs)) {
                    *o = x.tanh();
                }
                black_box(&out);
            })
        });
        group.bench_function(format!("owned/{len}"), |b| {
            b.iter(|| {
                out.copy_from_slice(black_box(&xs));
                pelican_tensor::tanh_in_place(&mut out);
                black_box(&out);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_training, bench_dense_product, bench_tanh);
criterion_main!(benches);
