//! A sweep answers like the independent queries it replaces.
//!
//! `logits_sweep(template, slot, candidates)[i]` must carry the *bits* of
//! `logits(template with candidates[i] at slot)`, and the sweep must
//! record exactly the FLOPs those independent calls record — the audit
//! gate's simulated cost, and with it every publication instant and
//! fingerprint downstream, is priced from that count. Checked over random
//! layer stacks, sequence lengths, every slot, and candidate rows with
//! none, one, four and all entries non-zero (`-0.0` included), plus a
//! non-finite weight that a skipped zero input would otherwise hide.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

use pelican_nn::{
    query_hash, sweep_query_hashes, Layer, Lstm, Postprocess, Sequence, SequenceModel, Step,
};
use pelican_tensor::{Matrix, ThreadFlopGuard};

/// `lstms` LSTM layers, dropout between them when asked, and a linear
/// head unless `headless`.
fn stack(
    input_dim: usize,
    hidden: usize,
    lstms: usize,
    dropout: bool,
    headless: bool,
    rng: &mut StdRng,
) -> SequenceModel {
    let mut builder = SequenceModel::builder();
    let mut width = input_dim;
    for l in 0..lstms {
        if l > 0 && dropout {
            builder = builder.dropout(0.2, 7);
        }
        builder = builder.lstm(width, hidden, rng);
        width = hidden;
    }
    if !headless {
        builder = builder.linear(width, 5, rng);
    }
    builder.build()
}

/// Candidate rows with 0, 1, 4 and every entry non-zero, `-0.0` sprinkled
/// among the zeros, then a duplicate of the 4-hot row.
fn candidates(dim: usize, rng: &mut StdRng) -> Matrix {
    let mut rows = Matrix::zeros(5, dim);
    rows.row_mut(0)[rng.random_range(0..dim)] = -0.0;
    rows.row_mut(1)[rng.random_range(0..dim)] = 1.0;
    for _ in 0..4 {
        rows.row_mut(2)[rng.random_range(0..dim)] = rng.random_range(-1.0f32..1.0);
    }
    rows.row_mut(2)[rng.random_range(0..dim)] = -0.0;
    for v in rows.row_mut(3) {
        *v = rng.random_range(0.05f32..1.0);
    }
    let four_hot = rows.row(2).to_vec();
    rows.row_mut(4).copy_from_slice(&four_hot);
    rows
}

fn dense_steps(len: usize, dim: usize, rng: &mut StdRng) -> Sequence {
    (0..len).map(|_| (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect()).collect()
}

fn assembled(template: &[Step], slot: usize, candidate: &[f32]) -> Sequence {
    let mut xs = template.to_vec();
    xs[slot] = candidate.to_vec();
    xs
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// The sweep against one `logits` call per candidate: same bits, same
/// thread-FLOP delta.
fn assert_sweep_matches(model: &SequenceModel, template: &[Step], slot: usize, rows: &Matrix) {
    let guard = ThreadFlopGuard::start();
    let one_by_one: Vec<Step> =
        (0..rows.rows()).map(|r| model.logits(&assembled(template, slot, rows.row(r)))).collect();
    let loop_flops = guard.stop();
    let guard = ThreadFlopGuard::start();
    let swept = model.logits_sweep(template, slot, rows);
    let sweep_flops = guard.stop();
    assert_eq!(swept.len(), one_by_one.len());
    for (r, (s, o)) in swept.iter().zip(&one_by_one).enumerate() {
        assert_eq!(bits(s), bits(o), "candidate {r} at slot {slot} diverged bitwise");
    }
    assert_eq!(sweep_flops, loop_flops, "FLOP parity broken at slot {slot}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sweep_has_the_bits_and_flops_of_independent_queries(
        input_dim in 6usize..14,
        hidden in 2usize..7,
        lstms in 1usize..4,
        dropout in 0usize..2,
        headless in 0usize..2,
        seq_len in 1usize..5,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = stack(input_dim, hidden, lstms, dropout == 1, headless == 1, &mut rng);
        let rows = candidates(input_dim, &mut rng);
        let template = dense_steps(seq_len, input_dim, &mut rng);
        for slot in 0..seq_len {
            assert_sweep_matches(&model, &template, slot, &rows);
        }
    }

    #[test]
    fn swept_confidences_and_hashes_are_the_per_query_ones(
        seq_len in 1usize..5,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = stack(9, 4, 2, true, false, &mut rng);
        // Noise keyed on the query hash: a wrong key changes the answer.
        model.set_temperature(0.5);
        model.set_postprocess(Postprocess::GaussianNoise { sigma: 0.05, seed: 3 });
        let rows = candidates(9, &mut rng);
        let template = dense_steps(seq_len, 9, &mut rng);
        for slot in 0..seq_len {
            let keys = sweep_query_hashes(&template, slot, &rows);
            let swept = model.predict_proba_sweep(&template, slot, &rows);
            for r in 0..rows.rows() {
                let xs = assembled(&template, slot, rows.row(r));
                prop_assert_eq!(keys[r], query_hash(&xs));
                prop_assert_eq!(bits(&swept[r]), bits(&model.predict_proba(&xs)));
            }
        }
    }
}

#[test]
fn a_non_finite_weight_surfaces_in_the_sweep_as_in_the_query() {
    let mut rng = StdRng::seed_from_u64(11);
    let (dim, hidden) = (8, 3);
    let donor = Lstm::new(dim, hidden, &mut rng);
    let mut w_ih = donor.weight_ih().clone();
    // Column 5 is zero in the one-hot candidate below: a kernel that
    // skips zero inputs without looking at the weights would drop this.
    w_ih[(1, 5)] = f32::NAN;
    let poisoned = Lstm::from_parts(w_ih, donor.weight_hh().clone(), donor.bias().to_vec());
    let head = pelican_nn::Linear::new(hidden, 4, &mut rng);
    let model = SequenceModel::from_layers(vec![Layer::Lstm(poisoned), Layer::Linear(head)]);

    let mut rows = Matrix::zeros(2, dim);
    rows.row_mut(0)[2] = 1.0;
    rows.row_mut(1).fill(0.5);
    let template = dense_steps(2, dim, &mut rng);
    for slot in 0..2 {
        let swept = model.logits_sweep(&template, slot, &rows);
        for (r, s) in swept.iter().enumerate() {
            let alone = model.logits(&assembled(&template, slot, rows.row(r)));
            assert!(alone.iter().any(|v| v.is_nan()), "0·NaN poisons the plain query");
            let nan_at = |v: &[f32]| v.iter().map(|f| f.is_nan()).collect::<Vec<_>>();
            assert_eq!(nan_at(s), nan_at(&alone), "candidate {r} at slot {slot}");
        }
    }
}

#[test]
fn an_empty_sweep_answers_nothing_and_records_nothing() {
    let mut rng = StdRng::seed_from_u64(2);
    let model = stack(6, 3, 2, false, false, &mut rng);
    let template = dense_steps(2, 6, &mut rng);
    let guard = ThreadFlopGuard::start();
    assert!(model.logits_sweep(&template, 1, &Matrix::zeros(0, 6)).is_empty());
    assert_eq!(guard.stop(), 0);
}
