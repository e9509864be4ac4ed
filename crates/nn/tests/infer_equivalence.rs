//! Inference answers with the bits of the training-mode forward pass.
//!
//! `SequenceModel::logits` and `SequenceModel::logits_batch` run the
//! sweep's layer pass — one matrix per timestep, a row per query of one
//! length — which reads the weights only where an input row is non-zero,
//! skips the recurrent product of a zero state and feeds the head the
//! final timestep alone. A headless one-LSTM model exposes every
//! timestep of that pass: its logits for `q[..=t]` are the hidden state
//! at `t`.
//! The oracle shares none of that: `Lstm::forward` /
//! `SequenceModel::forward` with dropout 0 run the dense per-step
//! matrix–vector products of training on every timestep of every layer.
//! Outputs must agree bit for bit — `-0.0` inputs and biases, non-finite
//! weights under a skipped zero, and weights that turn non-finite after
//! the layer has already answered included — and inference must cost
//! the nominal FLOPs of the oracle's products.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

use pelican_nn::{Dropout, Layer, Linear, Lstm, Sequence, SequenceModel, Step};
use pelican_tensor::Matrix;

/// An LSTM whose bias carries `-0.0` and whose first weights are `edit`ed.
fn lstm(
    input: usize,
    hidden: usize,
    rng: &mut StdRng,
    edit: impl Fn(&mut Matrix, &mut Matrix),
) -> Lstm {
    let donor = Lstm::new(input, hidden, rng);
    let (mut w_ih, mut w_hh) = (donor.weight_ih().clone(), donor.weight_hh().clone());
    edit(&mut w_ih, &mut w_hh);
    let mut b = donor.bias().to_vec();
    b[0] = -0.0;
    b[hidden + 1] = -0.0;
    Lstm::from_parts(w_ih, w_hh, b)
}

/// `lstms` LSTM layers with rate-0 dropout between them, and a linear
/// head unless `headless`; `edit` touches the first LSTM's weights.
fn stack(
    input_dim: usize,
    hidden: usize,
    lstms: usize,
    headless: bool,
    rng: &mut StdRng,
    edit: impl Fn(&mut Matrix, &mut Matrix),
) -> SequenceModel {
    let mut layers: Vec<Layer> = vec![lstm(input_dim, hidden, rng, edit).into()];
    for _ in 1..lstms {
        layers.push(Dropout::new(0.0, 7).into());
        layers.push(lstm(hidden, hidden, rng, |_, _| {}).into());
    }
    if !headless {
        layers.push(Linear::new(hidden, 5, rng).into());
    }
    SequenceModel::from_layers(layers)
}

/// A step with 0, 1, 4 or every entry non-zero (`kind` 0–3), `-0.0`
/// among the zeros of the sparse ones; column `skip`, if any, stays zero.
fn step(kind: usize, dim: usize, skip: Option<usize>, rng: &mut StdRng) -> Step {
    let mut x = vec![0.0f32; dim];
    let column = |rng: &mut StdRng| match skip {
        Some(skip) => (skip + 1 + rng.random_range(0..dim - 1)) % dim,
        None => rng.random_range(0..dim),
    };
    match kind {
        0 => x[column(rng)] = -0.0,
        1 => x[column(rng)] = 1.0,
        2 => {
            x[column(rng)] = -0.0;
            for _ in 0..4 {
                x[column(rng)] = rng.random_range(-1.0f32..1.0);
            }
        }
        _ => {
            x.iter_mut().for_each(|v| *v = rng.random_range(0.05f32..1.0));
            if let Some(skip) = skip {
                x[skip] = 0.0;
            }
        }
    }
    x
}

/// 17 sequences of ragged length 1–4 (the first is a single step)
/// cycling through every kind of [`step`].
fn queries(dim: usize, skip: Option<usize>, rng: &mut StdRng) -> Vec<Sequence> {
    (0..17)
        .map(|i| (0..1 + (i * 3) % 4).map(|t| step((i + t) % 4, dim, skip, rng)).collect())
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// FLOPs of the dense oracle's products per timestep: `2 · |W|` each.
fn nominal_step_flops(model: &SequenceModel) -> u64 {
    model
        .layers()
        .iter()
        .map(|layer| match layer {
            Layer::Lstm(l) => 2 * (l.weight_ih().len() + l.weight_hh().len()) as u64,
            Layer::Linear(l) => 2 * l.weight().len() as u64,
            Layer::Dropout(_) => 0,
        })
        .sum()
}

/// `logits` and `logits_batch` at B = 1 / 2 / 17 against the oracle's
/// final-timestep output: same bits (NaNs in the same places), and a cost
/// of the oracle's products on every timestep.
fn assert_model_matches_forward(model: &SequenceModel, qs: &[Sequence]) {
    let mut oracle = model.clone();
    let expected: Vec<Step> =
        qs.iter().map(|q| oracle.forward(q).pop().expect("nonempty sequence")).collect();
    for (q, want) in qs.iter().zip(&expected) {
        assert_eq!(bits(&model.logits(q)), bits(want), "logits diverged from forward");
    }
    for b in [1usize, 2, 17] {
        let got = model.logits_batch(&qs[..b]);
        for (r, (g, want)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(bits(g), bits(want), "row {r} of batch {b} diverged from forward");
        }
        let steps: usize = qs[..b].iter().map(Vec::len).sum();
        let nominal = steps as u64 * nominal_step_flops(model);
        assert_eq!(model.infer_cost(steps, 0), nominal, "batch {b} cost");
    }
}

/// A headless one-LSTM model against `Lstm::forward`, every timestep: it
/// answers each query's prefixes `q[..=t]`, one at a time and as the
/// prefixes of the first 1 / 2 / 17 queries in one batch.
fn assert_layer_matches_forward(layer: &Lstm, qs: &[Sequence]) {
    let mut oracle = layer.clone();
    let expected: Vec<Sequence> = qs.iter().map(|q| oracle.forward(q)).collect();
    let model = SequenceModel::from_layers(vec![layer.clone().into()]);
    let hidden_bits = |hs: &[Step]| hs.iter().map(|h| bits(h)).collect::<Vec<_>>();
    let prefixes = |q: &Sequence| (1..=q.len()).map(|t| q[..t].to_vec()).collect::<Vec<_>>();
    for (q, want) in qs.iter().zip(&expected) {
        let alone: Sequence = prefixes(q).iter().map(|p| model.logits(p)).collect();
        assert_eq!(hidden_bits(&alone), hidden_bits(want), "logits diverged from forward");
    }
    for b in [1usize, 2, 17] {
        let batch: Vec<Sequence> = qs[..b].iter().flat_map(prefixes).collect();
        let mut got = model.logits_batch(&batch).into_iter();
        for (r, want) in expected[..b].iter().enumerate() {
            let hs: Sequence = got.by_ref().take(want.len()).collect();
            assert_eq!(hidden_bits(&hs), hidden_bits(want), "row {r} of batch {b}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn inference_has_the_bits_and_flops_of_forward(
        input_dim in 6usize..14,
        hidden in 2usize..7,
        lstms in 1usize..4,
        headless in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = stack(input_dim, hidden, lstms, headless == 1, &mut rng, |_, _| {});
        let qs = queries(input_dim, None, &mut rng);
        assert_model_matches_forward(&model, &qs);
        let Layer::Lstm(first) = &model.layers()[0] else { unreachable!("stack starts with an LSTM") };
        assert_layer_matches_forward(first, &qs);
    }
}

#[test]
fn a_non_finite_weight_surfaces_as_in_forward() {
    // Column 5 is zero in every query and `h` is zero at `t = 0`: a
    // kernel that skips zeros without knowing its weights are finite
    // would hide each of these.
    let skip = 5;
    for bad in [f32::NAN, f32::INFINITY] {
        for in_w_hh in [false, true] {
            let mut rng = StdRng::seed_from_u64(11);
            let model = stack(8, 3, 2, false, &mut rng, |w_ih, w_hh| {
                if in_w_hh {
                    w_hh[(2, 1)] = bad;
                } else {
                    w_ih[(1, skip)] = bad;
                }
            });
            let qs = queries(8, Some(skip), &mut rng);
            let mut oracle = model.clone();
            let poisoned =
                qs.iter().any(|q| oracle.forward(q).pop().unwrap().iter().any(|v| v.is_nan()));
            assert!(poisoned, "{bad} (in w_hh: {in_w_hh}) never reached the oracle's output");
            assert_model_matches_forward(&model, &qs);
            let Layer::Lstm(first) = &model.layers()[0] else { unreachable!() };
            assert_layer_matches_forward(first, &qs);
        }
        let mut rng = StdRng::seed_from_u64(12);
        let model = linear_only(&mut rng, |w| w[(1, skip)] = bad);
        assert_model_matches_forward(&model, &queries(8, Some(skip), &mut rng));
    }
}

#[test]
fn top_k_of_a_model_with_nan_weights_ranks_those_classes_last() {
    // A NaN weight in every 5th of 40 head rows makes that class's
    // logit NaN; given an order that is not total, the sort panics.
    let mut rng = StdRng::seed_from_u64(8);
    let mut w = Linear::new(4, 40, &mut rng).weight().clone();
    for class in (0..40).step_by(5) {
        w[(class, 1)] = f32::NAN;
    }
    let m = SequenceModel::from_layers(vec![Linear::from_parts(w, vec![0.0; 40]).into()]);
    let xs = vec![vec![0.5, 0.0, -0.25, 1.0]];
    let logits = m.logits(&xs);
    let mut want: Vec<usize> = (0..40).filter(|&c| !logits[c].is_nan()).collect();
    want.sort_by(|&a, &b| logits[b].partial_cmp(&logits[a]).expect("finite").then(a.cmp(&b)));
    want.extend((0..40).step_by(5));
    assert_eq!(m.predict_top_k(&xs, 40), want);
    assert_eq!(m.predict_top_k(&xs, 3), want[..3]);
}

/// A model that is nothing but a linear layer over the raw input, the
/// one place a `Linear` meets sparse rows.
fn linear_only(rng: &mut StdRng, edit: impl Fn(&mut Matrix)) -> SequenceModel {
    let donor = Linear::new(8, 3, rng);
    let mut w = donor.weight().clone();
    edit(&mut w);
    SequenceModel::from_layers(vec![Linear::from_parts(w, vec![-0.0, 0.3, -0.7]).into()])
}

#[test]
fn weights_that_overflow_after_an_answer_are_seen_by_the_next() {
    let mut rng = StdRng::seed_from_u64(5);
    for mut model in [stack(8, 3, 1, true, &mut rng, |_, _| {}), linear_only(&mut rng, |_| {})] {
        let query: Sequence = vec![step(1, 8, Some(0), &mut rng)];
        assert!(model.logits(&query).iter().all(|v| v.is_finite()), "finite, and known to be");

        // The input weights turn infinite in column 0 — which `query`
        // skips — and nowhere else, through `visit_params`, the way an
        // optimizer step writes them. A backward pass first gives the
        // layer the gradient buffers it hands out beside its weights.
        let sample = vec![0.0f32; 8];
        model.forward(&vec![sample]);
        model.backward_from_logits(1, vec![0.0; 3]);
        let mut input_weights = true;
        model.layers_mut()[0].visit_params(&mut |param, _| {
            if std::mem::take(&mut input_weights) {
                param.chunks_mut(8).for_each(|row| row[0] = f32::INFINITY);
            }
        });

        let want = model.clone().forward(&query).pop().unwrap();
        assert!(want.iter().any(|v| v.is_nan()), "0 · ∞ poisons the dense answer");
        assert_eq!(bits(&model.logits(&query)), bits(&want), "stale finiteness hid the overflow");
    }
}

#[test]
fn an_empty_batch_answers_nothing_and_records_nothing() {
    let mut rng = StdRng::seed_from_u64(2);
    let model = stack(6, 3, 2, false, &mut rng, |_, _| {});
    assert!(model.logits_batch(&Vec::<Sequence>::new()).is_empty());
    assert_eq!(model.infer_cost(0, 0), 0);
}
