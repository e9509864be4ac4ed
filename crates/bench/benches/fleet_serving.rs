//! Criterion bench behind the fleet-serving subsystem: fused batched
//! inference vs. one-query-at-a-time serving for the same model.
//!
//! Both run the same inference step (`predict_proba` is the one-row
//! batch), so the rows differ only in what a batch amortises: one
//! packing and one set of output allocations per call instead of per
//! query. The queries are real encoded sessions — four
//! non-zeros a step — which is what the step's sparse input projection
//! exploits; that every answer has the bits of the dense training-mode
//! forward pass is pinned in `crates/nn/tests/infer_equivalence.rs`.
//! B = 2 is the batch the sim-driven scheduler actually seals on the
//! repo benchmark's `serve_steady`.

use criterion::{criterion_group, criterion_main, Criterion};

use pelican::workbench::{Scenario, ScenarioSizing};
use pelican_mobility::{Scale, SpatialLevel};
use pelican_nn::Sequence;

fn bench_fleet_serving(c: &mut Criterion) {
    // The hidden width the repo benchmark serves at (Tiny defaults to 12).
    let scenario = Scenario::builder(Scale::Tiny, SpatialLevel::Building)
        .seed(42)
        .personal_users(1)
        .sizing(ScenarioSizing { hidden_dim: 64, general_epochs: 2, personal_epochs: 2 })
        .build();
    let user = &scenario.personal[0];
    let model = user.model.clone();
    let queries: Vec<Sequence> =
        (0..32).map(|i| user.test[i % user.test.len()].xs.clone()).collect();

    let mut group = c.benchmark_group("fleet_serving");
    for batch in [1usize, 2, 8, 32] {
        let slice = &queries[..batch];
        group.bench_function(format!("unbatched/b{batch}"), |b| {
            b.iter(|| {
                for q in slice {
                    std::hint::black_box(model.predict_proba(std::hint::black_box(q)));
                }
            })
        });
        group.bench_function(format!("batched/b{batch}"), |b| {
            b.iter(|| std::hint::black_box(model.predict_proba_batch(std::hint::black_box(slice))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fleet_serving);
criterion_main!(benches);
