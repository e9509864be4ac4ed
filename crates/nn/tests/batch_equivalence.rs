//! Batched vs. sequential inference equivalence.
//!
//! The fleet-serving subsystem coalesces same-model queries into fused
//! batches; every answer it returns must be *bit-identical* to the answer
//! the same query would get alone. These tests pin that contract — exact
//! `f32` equality, no tolerance — across batch sizes 1, 3 and 17, for raw
//! logits, temperature-sharpened confidences (the privacy layer), every
//! confidence post-processing mode, and top-k rankings.

use rand::rngs::StdRng;
use rand::SeedableRng;

use pelican_nn::{DefenseKind, Sequence, SequenceModel};

const INPUT_DIM: usize = 6;

fn model() -> SequenceModel {
    let mut rng = StdRng::seed_from_u64(33);
    SequenceModel::general_lstm(INPUT_DIM, 10, 5, 0.1, &mut rng)
}

/// Deterministic query pool with varied values and ragged lengths (1–4
/// timesteps) so the batch path's active-set handling is exercised.
fn queries(n: usize) -> Vec<Sequence> {
    (0..n)
        .map(|i| {
            let len = 1 + i % 4;
            (0..len)
                .map(|t| {
                    (0..INPUT_DIM).map(|j| ((i * 31 + t * 7 + j * 3) as f32 * 0.37).sin()).collect()
                })
                .collect()
        })
        .collect()
}

#[test]
fn batched_probabilities_are_bit_identical() {
    let m = model();
    let qs = queries(17);
    for b in [1usize, 3, 17] {
        let batch = &qs[..b];
        let fused = m.predict_proba_batch(batch);
        assert_eq!(fused.len(), b);
        for (q, got) in batch.iter().zip(&fused) {
            assert_eq!(&m.predict_proba(q), got, "batch size {b} diverged from sequential");
        }
    }
}

#[test]
fn privacy_sharpened_batches_stay_bit_identical() {
    let mut m = model();
    m.set_defense(DefenseKind::Temperature { temperature: 1e-3 });
    let qs = queries(17);
    for b in [1usize, 3, 17] {
        let batch = &qs[..b];
        for (q, got) in batch.iter().zip(m.predict_proba_batch(batch)) {
            assert_eq!(m.predict_proba(q), got, "sharpening must apply per row (batch {b})");
        }
    }
}

#[test]
fn postprocessing_applies_per_row() {
    // Noise is seeded by a per-query hash; a batch must hash each row
    // individually or batched answers would drift from unbatched ones.
    for defense in
        [DefenseKind::OutputNoise { sigma: 0.05, seed: 9 }, DefenseKind::Rounding { decimals: 2 }]
    {
        let mut m = model();
        m.set_defense(defense);
        let qs = queries(17);
        for b in [1usize, 3, 17] {
            let batch = &qs[..b];
            for (q, got) in batch.iter().zip(m.predict_proba_batch(batch)) {
                assert_eq!(m.predict_proba(q), got, "{defense:?} diverged at batch {b}");
            }
        }
    }
}

#[test]
fn batched_rankings_match_sequential() {
    let m = model();
    let qs = queries(17);
    for b in [1usize, 3, 17] {
        let batch = &qs[..b];
        for (q, row) in batch.iter().zip(m.logits_batch(batch)) {
            assert_eq!(m.predict_top_k(q, 3), pelican_tensor::top_k(&row, 3));
        }
    }
}

#[test]
fn batched_flop_accounting_matches_sequential() {
    // A served batch is priced from its shape; fusing a batch must cost
    // exactly what the individual queries would have cost.
    let m = model();
    let qs = queries(17);
    let sequential: u64 = qs.iter().map(|q| m.infer_cost(q.len(), 1)).sum();
    let steps = qs.iter().map(Vec::len).sum();
    assert_eq!(m.infer_cost(steps, qs.len()), sequential, "fused batches must cost the same");
}
