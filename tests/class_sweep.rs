//! A class sweep through the logit cache answers with the bits of the
//! full confidence vector.
//!
//! The enumeration attacks read one class of every answer, so the cache
//! hands back that one confidence, computed from a softmax normaliser it
//! keeps per cached row while the temperature stays put. Whatever the
//! cache held, `confidence_sweep(template, slot, candidates, class)[r]`
//! must carry the bits of `predict_proba(assembled r)[class]` of the
//! uncached model. Checked along a defense sequence in which every
//! switch changes what a normaliser is — T₁ → T₂ → T₁ → noise → rounding
//! → T₁ — with duplicate candidates inside each sweep, two classes asked
//! per sweep, a fresh candidate per defense, from a cold cache and from
//! one warmed under another temperature, with and without a frozen
//! prefix. The cache's hits, misses, size and priced FLOPs are literals
//! recorded while every answer still went through the full vector.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

use pelican_attacks::{BlackBox, CachedBlackBox, LogitCache};
use pelican_nn::{DefenseKind, Sequence, SequenceModel, Step};
use pelican_tensor::Matrix;

const DIM: usize = 24;
const CLASSES: usize = 9;

/// The defense sequence.
const DEFENSES: [DefenseKind; 6] = [
    DefenseKind::None,
    DefenseKind::Temperature { temperature: 0.05 },
    DefenseKind::None,
    DefenseKind::OutputNoise { sigma: 0.05, seed: 3 },
    DefenseKind::Rounding { decimals: 2 },
    DefenseKind::None,
];

/// A two-LSTM model; with `frozen`, its first LSTM is a frozen prefix
/// and the cache's prefix tier is consulted.
fn model(seed: u64, frozen: bool) -> SequenceModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = SequenceModel::general_lstm(DIM, 8, CLASSES, 0.0, &mut rng);
    m.layers_mut()[0].set_trainable(!frozen);
    m
}

fn dense_step(rng: &mut StdRng) -> Step {
    (0..DIM).map(|_| rng.random_range(-1.0f32..1.0)).collect()
}

/// Seven distinct candidates (a one at column `r`, three random values
/// above column 14), three duplicates of them, and one candidate only
/// defense `stage` asks: a lone one at column `7 + stage`.
fn candidates(base: &Matrix, stage: usize) -> Matrix {
    let mut rows = Matrix::zeros(11, DIM);
    for (r, from) in [0, 1, 2, 3, 4, 5, 6, 2, 5, 2].into_iter().enumerate() {
        rows.row_mut(r).copy_from_slice(base.row(from));
    }
    rows.row_mut(10)[7 + stage] = 1.0;
    rows
}

fn base_rows(rng: &mut StdRng) -> Matrix {
    let mut rows = Matrix::zeros(7, DIM);
    for r in 0..7 {
        rows.row_mut(r)[r] = 1.0;
        for _ in 0..3 {
            rows.row_mut(r)[14 + rng.random_range(0..10)] = rng.random_range(0.1f32..1.0);
        }
    }
    rows
}

fn assembled(template: &[Step], slot: usize, row: &[f32]) -> Sequence {
    let mut xs = template.to_vec();
    xs[slot] = row.to_vec();
    xs
}

fn class_sweep(
    oracle: &mut CachedBlackBox<'_, '_>,
    template: &[Step],
    slot: usize,
    rows: &Matrix,
    class: usize,
) -> Vec<f32> {
    oracle.confidence_sweep(template, slot, rows.clone(), class)
}

/// Runs the defense sequence and returns the cache's counters:
/// `(hits, misses, len, flops)`.
fn run(seed: u64, frozen: bool, warm: bool) -> (u64, u64, usize, u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc1a5);
    let template = vec![dense_step(&mut rng), dense_step(&mut rng)];
    let base = base_rows(&mut rng);
    let mut m = model(seed, frozen);
    let mut cache = LogitCache::new();
    if warm {
        // Some of the queries, asked whole under another temperature.
        m.set_defense(DefenseKind::Temperature { temperature: 0.5 });
        let mut oracle = CachedBlackBox::new(&m, &mut cache);
        for r in [0, 3, 5] {
            let xs = assembled(&template, 1, base.row(r));
            assert_eq!(oracle.predict_proba(&xs), m.predict_proba(&xs));
        }
    }
    for (stage, defense) in DEFENSES.into_iter().enumerate() {
        m.set_defense(defense);
        let rows = candidates(&base, stage);
        let mut oracle = CachedBlackBox::new(&m, &mut cache);
        for slot in 0..2 {
            for class in [(stage + slot) % CLASSES, (3 * stage + 5) % CLASSES] {
                let answers = class_sweep(&mut oracle, &template, slot, &rows, class);
                assert_eq!(answers.len(), rows.rows());
                for (r, answer) in answers.iter().enumerate() {
                    let expected = m.predict_proba(&assembled(&template, slot, rows.row(r)))[class];
                    assert_eq!(
                        answer.to_bits(),
                        expected.to_bits(),
                        "defense {stage}, slot {slot}, class {class}, row {r}"
                    );
                }
            }
        }
    }
    (cache.hits, cache.misses, cache.len(), cache.flops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn class_sweeps_answer_with_the_bits_of_the_full_vector(seed in 0u64..10_000) {
        for (frozen, warm, expected) in [
            (false, false, (238, 26, 26, 176_736)),
            (false, true, (241, 26, 26, 176_844)),
            (true, false, (238, 26, 26, 176_736)),
            (true, true, (241, 26, 26, 176_844)),
        ] {
            prop_assert_eq!(run(seed, frozen, warm), expected, "frozen {}, warm {}", frozen, warm);
        }
    }
}
