//! A sweep answers like the independent queries it replaces.
//!
//! `logits_sweep(template, slot, candidates)[i]` must carry the *bits* of
//! `logits(template with candidates[i] at slot)`, and the sweep must cost
//! what those independent calls cost — the audit gate's simulated cost,
//! and with it every publication instant and fingerprint downstream, is
//! priced that way. Checked over random
//! layer stacks, sequence lengths, every slot, and candidate rows with
//! none, one, four and all entries non-zero (`-0.0` included), plus a
//! non-finite weight that a skipped zero input would otherwise hide.
//!
//! The same holds, bit for bit, for a sweep that takes
//! its frozen prefix's activations out of a [`PrefixTier`] — whatever the
//! tier held, and after the layers above the prefix were trained on — and
//! a tier filled by another prefix (a changed weight bit, a layer
//! unfrozen, another shape) is emptied rather than believed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

use pelican_nn::{
    fit, query_hash, sweep_query_hashes, DefenseKind, Layer, Lstm, PrefixTier, Sample, Sequence,
    SequenceModel, Step, TrainConfig,
};
use pelican_tensor::Matrix;

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

/// A sweep's answers against one `logits` call per candidate: same
/// bits.
fn assert_answers_match(
    model: &SequenceModel,
    template: &[Step],
    slot: usize,
    rows: &Matrix,
    sweep: impl FnOnce() -> Vec<Step>,
) {
    let one_by_one: Vec<Step> =
        (0..rows.rows()).map(|r| model.logits(&assembled(template, slot, rows.row(r)))).collect();
    let swept = sweep();
    assert_eq!(swept.len(), one_by_one.len());
    for (r, (s, o)) in swept.iter().zip(&one_by_one).enumerate() {
        assert_eq!(bits(s), bits(o), "candidate {r} at slot {slot} diverged bitwise");
    }
}

fn assert_sweep_matches(model: &SequenceModel, template: &[Step], slot: usize, rows: &Matrix) {
    assert_answers_match(model, template, slot, rows, || model.logits_sweep(template, slot, rows));
}

/// Freezes the parameterised layers `frozen` names by bit, lowest layer
/// first; returns how many layers the frozen prefix then spans (the
/// leading frozen ones up to the last LSTM, dropouts between them
/// included).
fn freeze(model: &mut SequenceModel, frozen: u32) -> usize {
    let last_lstm = model.layers().iter().rposition(|l| matches!(l, Layer::Lstm(_))).unwrap();
    let (mut nth, mut prefix, mut leading) = (0, 0, true);
    for (i, layer) in model.layers_mut().iter_mut().enumerate() {
        if layer.param_count() == 0 {
            continue;
        }
        let freeze = frozen >> nth & 1 == 1;
        layer.set_trainable(!freeze);
        leading &= freeze && i <= last_lstm;
        if leading {
            prefix = i + 1;
        }
        nth += 1;
    }
    prefix
}

/// The same for the tiered sweep, and the tier's counters moved by
/// exactly `(hits, misses)`.
fn assert_tiered_matches(
    model: &SequenceModel,
    template: &[Step],
    slot: usize,
    rows: &Matrix,
    tier: &mut PrefixTier,
    (hits, misses): (u64, u64),
) {
    let keys = sweep_query_hashes(template, slot, rows);
    let before = (tier.hits, tier.misses);
    tier.bind(model);
    assert_answers_match(model, template, slot, rows, || {
        let logits = model.logits_sweep_tiered(template, slot, rows.clone(), &keys, tier);
        (0..logits.rows()).map(|r| logits.row(r).to_vec()).collect()
    });
    assert_eq!(
        (tier.hits - before.0, tier.misses - before.1),
        (hits, misses),
        "tier (hits, misses) at slot {slot}"
    );
}

/// The first `n` rows of `rows`.
fn head_rows(rows: &Matrix, n: usize) -> Matrix {
    Matrix::from_vec(n, rows.cols(), rows.as_slice()[..n * rows.cols()].to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_tiered_sweep_has_the_bits_and_flops_of_independent_queries(
        input_dim in 6usize..14,
        hidden in 2usize..7,
        lstms in 1usize..4,
        dropout in 0usize..2,
        headless in 0usize..2,
        frozen in 0u32..16,
        seq_len in 1usize..5,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = stack(input_dim, hidden, lstms, dropout == 1, headless == 1, &mut rng);
        let prefix = freeze(&mut model, frozen);
        let rows = candidates(input_dim, &mut rng);
        let template = dense_steps(seq_len, input_dim, &mut rng);
        // Five candidates, the last a duplicate: four distinct queries.
        // Without a frozen prefix the tier is never consulted.
        let scale = |n: u64| if prefix > 0 { n } else { 0 };
        let mut tier = PrefixTier::new();
        let mut half = PrefixTier::new();
        for slot in 0..seq_len {
            // Cold, then fully warm.
            assert_tiered_matches(&model, &template, slot, &rows, &mut tier, (scale(1), scale(4)));
            assert_tiered_matches(&model, &template, slot, &rows, &mut tier, (scale(5), 0));
            // Half warm: two of the four distinct queries seen before.
            let two = head_rows(&rows, 2);
            assert_tiered_matches(&model, &template, slot, &two, &mut half, (0, scale(2)));
            assert_tiered_matches(&model, &template, slot, &rows, &mut half, (scale(3), scale(2)));
        }
        prop_assert_eq!(tier.len() as u64, scale(4 * seq_len as u64));

        // One optimizer step on whatever is trainable: the answers move
        // (unless everything is frozen), the prefix's do not, and the
        // warm tier serves the re-trained model without a miss.
        let before = model.logits_sweep(&template, 0, &rows);
        let target = rng.random_range(0..model.output_dim());
        let sample = Sample::new(dense_steps(seq_len, input_dim, &mut rng), target);
        fit(&mut model, &[sample], &TrainConfig { epochs: 1, ..TrainConfig::default() });
        let trainable = model.trainable_param_count() > 0;
        prop_assert_eq!(before != model.logits_sweep(&template, 0, &rows), trainable);
        for slot in 0..seq_len {
            assert_tiered_matches(&model, &template, slot, &rows, &mut tier, (scale(5), 0));
        }

        // The interest probes' shape: one row, at the last step.
        let last = seq_len - 1;
        for probe in dense_steps(3, input_dim, &mut rng) {
            let one = Matrix::from_vec(1, input_dim, probe);
            assert_tiered_matches(&model, &template, last, &one, &mut tier, (0, scale(1)));
            assert_tiered_matches(&model, &template, last, &one, &mut tier, (scale(1), 0));
        }
    }

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
        model.set_defense(DefenseKind::OutputNoise { sigma: 0.05, seed: 3 });
        let rows = candidates(9, &mut rng);
        let template = dense_steps(seq_len, 9, &mut rng);
        for slot in 0..seq_len {
            let keys = sweep_query_hashes(&template, slot, &rows);
            let swept: Vec<Vec<f32>> = (0..model.output_dim())
                .map(|class| model.confidence_sweep(&template, slot, &rows, class))
                .collect();
            for r in 0..rows.rows() {
                let xs = assembled(&template, slot, rows.row(r));
                prop_assert_eq!(keys[r], query_hash(&xs));
                let row: Vec<f32> = swept.iter().map(|answers| answers[r]).collect();
                prop_assert_eq!(bits(&row), bits(&model.predict_proba(&xs)));
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
    assert!(model.logits_sweep(&template, 1, &Matrix::zeros(0, 6)).is_empty());
}

/// The TL-FE shape: `lstm₁ → dropout → lstm₂` frozen, a trainable
/// `lstm₃` and head above them.
fn feature_extractor(dim: usize, hidden: usize, rng: &mut StdRng) -> SequenceModel {
    let mut model = SequenceModel::builder()
        .lstm(dim, hidden, rng)
        .dropout(0.2, 7)
        .lstm(hidden, hidden, rng)
        .lstm(hidden, hidden, rng)
        .linear(hidden, 5, rng)
        .build();
    model.layers_mut()[0].set_trainable(false);
    model.layers_mut()[2].set_trainable(false);
    model
}

/// `model` with one parameterised layer rebuilt by `edit`.
fn with_lstm(
    model: &SequenceModel,
    at: usize,
    edit: impl FnOnce(&mut Matrix, &mut Matrix),
) -> SequenceModel {
    let mut layers = model.layers().to_vec();
    let Layer::Lstm(old) = &layers[at] else { panic!("layer {at} is not an LSTM") };
    let (mut w_ih, mut w_hh) = (old.weight_ih().clone(), old.weight_hh().clone());
    edit(&mut w_ih, &mut w_hh);
    let mut lstm = Lstm::from_parts(w_ih, w_hh, old.bias().to_vec());
    lstm.trainable = old.trainable;
    layers[at] = Layer::Lstm(lstm);
    SequenceModel::from_layers(layers)
}

#[test]
fn a_tier_filled_by_another_prefix_is_emptied_not_believed() {
    let mut rng = StdRng::seed_from_u64(23);
    let (dim, hidden) = (8, 4);
    let model = feature_extractor(dim, hidden, &mut rng);
    assert_eq!(
        model.layers().iter().map(Layer::is_trainable).collect::<Vec<_>>(),
        [false, false, false, true, true]
    );
    let rows = candidates(dim, &mut rng);
    let template = dense_steps(3, dim, &mut rng);

    // One weight bit of lstm₁ (high enough in the mantissa that no
    // rounding absorbs it); lstm₂ unfrozen (TL-FT after TL-FE: what
    // was kept is lstm₂'s output, what would be read is lstm₁'s, and
    // both are `hidden` wide); another prefix shape.
    let one_bit = with_lstm(&model, 0, |w_ih, _| {
        w_ih[(1, 2)] = f32::from_bits(w_ih[(1, 2)].to_bits() ^ 1 << 20);
    });
    let mut unfrozen = model.clone();
    unfrozen.layers_mut()[2].set_trainable(true);
    let reshaped = feature_extractor(dim, hidden + 1, &mut rng);
    for (what, other) in [("bit", one_bit), ("unfrozen", unfrozen), ("shape", reshaped)] {
        assert_ne!(model.prefix_identity(), other.prefix_identity(), "{what}");
        let mut tier = PrefixTier::new();
        for slot in 0..3 {
            assert_tiered_matches(&model, &template, slot, &rows, &mut tier, (1, 4));
        }
        tier.bind(&other);
        assert!(tier.is_empty(), "{what}: another prefix's activations survived the binding");
        for slot in 0..3 {
            assert_tiered_matches(&other, &template, slot, &rows, &mut tier, (1, 4));
            assert_tiered_matches(&other, &template, slot, &rows, &mut tier, (5, 0));
        }
        // Back again: `other`'s are no better for `model`.
        assert_tiered_matches(&model, &template, 0, &rows, &mut tier, (1, 4));
    }

    // What a re-train does — new weights above the prefix — keeps it.
    let retrained = with_lstm(&model, 3, |_, w_hh| w_hh[(0, 0)] += 0.5);
    assert_eq!(model.prefix_identity(), retrained.prefix_identity());
    let mut tier = PrefixTier::new();
    assert_tiered_matches(&model, &template, 1, &rows, &mut tier, (1, 4));
    assert_tiered_matches(&retrained, &template, 1, &rows, &mut tier, (5, 0));
}

#[test]
fn a_query_met_again_at_another_slot_is_kept_from_the_earlier_one_on() {
    let mut rng = StdRng::seed_from_u64(29);
    let dim = 7;
    let model = feature_extractor(dim, 3, &mut rng);
    let steps = dense_steps(3, dim, &mut rng);
    let row = |t: usize| Matrix::from_vec(1, dim, steps[t].clone());
    let mut tier = PrefixTier::new();
    // The same query, varied at its last step (one step kept), then at
    // its first (all three needed: run again), then anywhere (kept).
    assert_tiered_matches(&model, &steps, 2, &row(2), &mut tier, (0, 1));
    assert_tiered_matches(&model, &steps, 0, &row(0), &mut tier, (0, 1));
    for slot in [0, 1, 2] {
        assert_tiered_matches(&model, &steps, slot, &row(slot), &mut tier, (1, 0));
    }
    assert_eq!(tier.len(), 1);
}

#[test]
fn a_non_finite_weight_below_or_above_the_prefix_surfaces_through_the_tier() {
    let mut rng = StdRng::seed_from_u64(31);
    let (dim, hidden) = (8, 3);
    let model = feature_extractor(dim, hidden, &mut rng);
    let mut rows = Matrix::zeros(2, dim);
    rows.row_mut(0)[2] = 1.0;
    rows.row_mut(1).fill(0.5);
    let template = dense_steps(2, dim, &mut rng);
    let nan_at = |v: &[f32]| v.iter().map(|f| f.is_nan()).collect::<Vec<_>>();
    // Column 5 of lstm₁ meets a zero of the one-hot row; column 1 of
    // lstm₃ meets whatever lstm₂ put out.
    for (at, col) in [(0, 5), (3, 1)] {
        for poison in [f32::NAN, f32::INFINITY] {
            let poisoned = with_lstm(&model, at, |w_ih, _| w_ih[(1, col)] = poison);
            let mut tier = PrefixTier::new();
            for slot in 0..2 {
                let keys = sweep_query_hashes(&template, slot, &rows);
                let plain = poisoned.logits_sweep(&template, slot, &rows);
                for warmth in ["cold", "warm"] {
                    tier.bind(&poisoned);
                    let tiered = poisoned.logits_sweep_tiered(
                        &template,
                        slot,
                        rows.clone(),
                        &keys,
                        &mut tier,
                    );
                    assert_eq!(tiered.rows(), plain.len());
                    for (r, p) in plain.iter().enumerate() {
                        let t = tiered.row(r);
                        let alone = poisoned.logits(&assembled(&template, slot, rows.row(r)));
                        // (∞ saturates a gate unless it meets a zero.)
                        assert!(!poison.is_nan() || alone.iter().any(|v| v.is_nan()));
                        assert_eq!(
                            nan_at(t),
                            nan_at(&alone),
                            "layer {at} {poison} {warmth} row {r}"
                        );
                        assert_eq!(bits(t), bits(p), "layer {at} {poison} {warmth} row {r}");
                    }
                }
            }
            assert_eq!((tier.hits, tier.misses), (4, 4));
        }
    }
}
