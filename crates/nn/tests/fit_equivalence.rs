//! `fit` trains with the bits of the per-sample loop it replaced.
//!
//! `fit` packs every mini-batch through the chunk kernels, runs the
//! frozen deterministic prefix of the model once per sample, stops the
//! backward pass at the lowest trainable layer, and lets the LSTM
//! products skip what a zero operand makes skippable. The reference
//! trainer below shares none of that: it is the loop `fit` used to be —
//! `SequenceModel::forward`, `softmax_cross_entropy`,
//! `SequenceModel::backward_from_logits` per sample, `Adam::step` per
//! mini-batch — on dense per-step matrix–vector products, through
//! every layer, every epoch. Weights, epoch losses, step counts and the
//! dropout draw counters (observed by training a second time) must agree
//! bit for bit, non-finite weights included, and so must
//! `input_gradient` afterwards; `fit` reports the cost of that loop.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

use pelican_nn::{
    fit, softmax_cross_entropy, Adam, Dropout, FitReport, Layer, Linear, Lstm, ModelEnvelope,
    Sample, SequenceModel, Step, TrainConfig,
};
use pelican_tensor::Matrix;

const INPUT_DIM: usize = 9;
const HIDDEN: usize = 4;
const CLASSES: usize = 5;

/// The per-sample training loop, as `fit` ran it before it drove the
/// packed kernels.
fn reference_fit(model: &mut SequenceModel, samples: &[Sample], config: &TrainConfig) -> FitReport {
    let mut optimizer = Adam::new(config.lr).with_weight_decay(config.weight_decay);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut rng = StdRng::seed_from_u64(config.shuffle_seed);
    let mut report = FitReport {
        epoch_losses: Vec::new(),
        steps: 0,
        samples_per_epoch: samples.len(),
        flops: 0,
    };
    for _ in 0..config.epochs {
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let mut epoch_loss = 0.0;
        for chunk in order.chunks(config.batch_size) {
            for &idx in chunk {
                let s = &samples[idx];
                let out = model.forward(&s.xs);
                let (loss, dlogits) = softmax_cross_entropy(out.last().unwrap(), s.target);
                epoch_loss += loss;
                model.backward_from_logits(s.xs.len(), dlogits);
            }
            optimizer.step(model, chunk.len());
            report.steps += 1;
        }
        report.epoch_losses.push(epoch_loss / samples.len() as f32);
    }
    report
}

/// An LSTM whose bias carries `-0.0`, frozen unless `trainable`.
fn lstm(input: usize, trainable: bool, rng: &mut StdRng) -> Lstm {
    let donor = Lstm::new(input, HIDDEN, rng);
    let mut b = donor.bias().to_vec();
    b[0] = -0.0;
    b[HIDDEN + 1] = -0.0;
    let mut layer = Lstm::from_parts(donor.weight_ih().clone(), donor.weight_hh().clone(), b);
    layer.trainable = trainable;
    layer
}

fn linear(input: usize, output: usize, trainable: bool, rng: &mut StdRng) -> Linear {
    let mut layer = Linear::new(input, output, rng);
    layer.trainable = trainable;
    layer
}

/// The freeze patterns `fit` meets, by name; `rate` is the rate of every
/// dropout in the stack.
const STACKS: [&str; 8] = [
    "tl-fe",       // frozen LSTM, dropout, frozen LSTM | fresh LSTM, head
    "tl-ft",       // frozen LSTM, dropout | LSTM, head
    "scratch",     // single_lstm: LSTM, dropout, head — all trainable
    "general",     // general_lstm: LSTM, dropout, LSTM, head — all trainable
    "frozen",      // general_lstm with nothing trainable
    "head-only",   // frozen LSTM, frozen LSTM, dropout | head
    "linear-only", // a lone trainable linear layer over the sparse input
    "linear-pair", // frozen linear | linear
];

fn stack(name: &str, rate: f32, rng: &mut StdRng) -> SequenceModel {
    let drop = |seed: u64| Layer::from(Dropout::new(rate, seed));
    let layers: Vec<Layer> = match name {
        "tl-fe" => vec![
            lstm(INPUT_DIM, false, rng).into(),
            drop(3),
            lstm(HIDDEN, false, rng).into(),
            lstm(HIDDEN, true, rng).into(),
            linear(HIDDEN, CLASSES, true, rng).into(),
        ],
        "tl-ft" => vec![
            lstm(INPUT_DIM, false, rng).into(),
            drop(4),
            lstm(HIDDEN, true, rng).into(),
            linear(HIDDEN, CLASSES, true, rng).into(),
        ],
        "scratch" => vec![
            lstm(INPUT_DIM, true, rng).into(),
            drop(5),
            linear(HIDDEN, CLASSES, true, rng).into(),
        ],
        "general" | "frozen" => {
            let t = name == "general";
            vec![
                lstm(INPUT_DIM, t, rng).into(),
                drop(6),
                lstm(HIDDEN, t, rng).into(),
                linear(HIDDEN, CLASSES, t, rng).into(),
            ]
        }
        "head-only" => vec![
            lstm(INPUT_DIM, false, rng).into(),
            lstm(HIDDEN, false, rng).into(),
            drop(7),
            linear(HIDDEN, CLASSES, true, rng).into(),
        ],
        "linear-only" => vec![linear(INPUT_DIM, CLASSES, true, rng).into()],
        "linear-pair" => vec![
            linear(INPUT_DIM, HIDDEN, false, rng).into(),
            linear(HIDDEN, CLASSES, true, rng).into(),
        ],
        other => unreachable!("no stack named {other}"),
    };
    SequenceModel::from_layers(layers)
}

/// A step with 0, 1, 4 or every entry non-zero (`kind` 0–3), `-0.0`
/// among the zeros of the sparse ones; column `skip`, if any, stays zero.
fn step(kind: usize, skip: Option<usize>, rng: &mut StdRng) -> Step {
    let mut x = vec![0.0f32; INPUT_DIM];
    let column = |rng: &mut StdRng| match skip {
        Some(skip) => (skip + 1 + rng.random_range(0..INPUT_DIM - 1)) % INPUT_DIM,
        None => rng.random_range(0..INPUT_DIM),
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

/// `n` samples of ragged length 1–4 cycling through every kind of
/// [`step`].
fn samples(n: usize, skip: Option<usize>, rng: &mut StdRng) -> Vec<Sample> {
    (0..n)
        .map(|i| {
            let xs = (0..1 + (i * 3) % 4).map(|t| step((i + t) % 4, skip, rng)).collect();
            Sample::new(xs, rng.random_range(0..CLASSES))
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// Trains a clone of `model` with `fit` and another with the reference,
/// twice over (the second run starts from the first run's weights and
/// dropout counters, under another shuffle), then differentiates both
/// with respect to an input. Returns the reference's reports.
fn assert_fit_matches_reference(
    model: &SequenceModel,
    data: &[Sample],
    config: &TrainConfig,
) -> Vec<FitReport> {
    let (mut fitted, mut reference) = (model.clone(), model.clone());
    let mut reports = Vec::new();
    for round in 0..2u64 {
        let config = config.reseeded(config.shuffle_seed ^ round);
        let want = reference_fit(&mut reference, data, &config);
        let got = fit(&mut fitted, data, &config);
        let steps = data.iter().map(|s| s.xs.len()).sum();
        let cost = config.epochs as u64 * model.train_cost(steps, data.len());
        assert_eq!(got.flops, cost, "round {round}: cost");
        assert_eq!(bits(&got.epoch_losses), bits(&want.epoch_losses), "round {round}: losses");
        assert_eq!((got.steps, got.samples_per_epoch), (want.steps, want.samples_per_epoch));
        assert_eq!(
            ModelEnvelope::encode(&fitted),
            ModelEnvelope::encode(&reference),
            "round {round}: weights diverged from the per-sample loop"
        );
        reports.push(want);
    }
    let probe = &data[data.len() - 1];
    let (got_loss, got) = fitted.input_gradient(&probe.xs, probe.target);
    let (want_loss, want) = reference.input_gradient(&probe.xs, probe.target);
    assert_eq!(got_loss.to_bits(), want_loss.to_bits(), "input_gradient loss");
    assert_eq!(got.len(), probe.xs.len(), "one input gradient per timestep");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(bits(g), bits(w), "input_gradient after fit");
    }
    reports
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fit_has_the_bits_and_flops_of_the_per_sample_loop(
        stack_at in 0usize..STACKS.len(),
        drops in 0usize..2,
        batch_at in 0usize..3,
        epochs_at in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = stack(STACKS[stack_at], [0.0, 0.3][drops], &mut rng);
        // 19 samples: a short last chunk at batch 3 and at batch 16.
        let data = samples(19, None, &mut rng);
        let config = TrainConfig {
            epochs: [0, 1, 3][epochs_at],
            batch_size: [1, 3, 16][batch_at],
            lr: 2e-2,
            weight_decay: 1e-4,
            shuffle_seed: seed ^ 0xF17,
        };
        assert_fit_matches_reference(&model, &data, &config);
    }
}

#[test]
fn every_stack_trains_like_the_per_sample_loop_with_and_without_dropout() {
    // The sweep above samples this grid; the patterns the elisions key
    // on are also pinned one by one, at three epochs so that the prefix
    // cache is read twice.
    for name in STACKS {
        for rate in [0.0, 0.3] {
            let mut rng = StdRng::seed_from_u64(21);
            let model = stack(name, rate, &mut rng);
            let data = samples(19, None, &mut rng);
            let config = TrainConfig { epochs: 3, batch_size: 3, ..TrainConfig::default() };
            let reports = assert_fit_matches_reference(&model, &data, &config);
            if model.trainable_param_count() > 0 {
                let losses = &reports[0].epoch_losses;
                assert!(losses[2] < losses[0], "{name} at rate {rate} did not train: {losses:?}");
            }
        }
    }
}

/// Replaces the first LSTM of `model` by one whose weights `edit` touched.
fn poison(model: &mut SequenceModel, at: usize, edit: impl Fn(&mut Matrix, &mut Matrix)) {
    let Layer::Lstm(old) = &model.layers()[at] else { unreachable!("layer {at} is an LSTM") };
    let (mut w_ih, mut w_hh) = (old.weight_ih().clone(), old.weight_hh().clone());
    edit(&mut w_ih, &mut w_hh);
    let mut new = Lstm::from_parts(w_ih, w_hh, old.bias().to_vec());
    new.trainable = old.trainable;
    model.layers_mut()[at] = new.into();
}

#[test]
fn a_non_finite_weight_surfaces_as_in_the_per_sample_loop() {
    // Column 5 is zero in every sample and `h` is zero at `t = 0`: a
    // product that skips zeros without knowing its weights are finite
    // would hide each of these. Layer 0 of "tl-fe" is in the frozen
    // prefix, layer 2 is frozen above a drawing dropout, layer 3 trains;
    // layer 0 of "scratch" trains on the sparse input itself.
    let skip = 5;
    for bad in [f32::NAN, f32::INFINITY] {
        for (name, at) in [("tl-fe", 0), ("tl-fe", 2), ("tl-fe", 3), ("scratch", 0)] {
            for in_w_hh in [false, true] {
                let mut rng = StdRng::seed_from_u64(11);
                let mut model = stack(name, 0.3, &mut rng);
                poison(&mut model, at, |w_ih, w_hh| {
                    if in_w_hh {
                        w_hh[(2, 1)] = bad;
                    } else {
                        w_ih[(1, if at == 0 { skip } else { 2 })] = bad;
                    }
                });
                let data = samples(19, Some(skip), &mut rng);
                let config = TrainConfig { epochs: 2, batch_size: 3, ..TrainConfig::default() };
                let reports = assert_fit_matches_reference(&model, &data, &config);
                assert!(
                    reports[0].epoch_losses[0].is_nan(),
                    "{bad} in layer {at} of {name} (w_hh: {in_w_hh}) never reached the loss"
                );
            }
        }
    }
}

#[test]
fn weights_that_overflow_mid_fit_are_seen_by_the_next_mini_batch() {
    // Only the LSTM trains, under a frozen head large enough that one Adam
    // step at this learning rate throws most of what it moves to ±∞
    // (`lr · m̂` overflows before the division): with one-hot single steps
    // and no weight decay, what moves is the bias and the one input-weight
    // column the sample was hot in. The second sample is hot in another
    // column and multiplies that one by zero — NaN in a dense product,
    // nothing at all in one still trusting the finiteness it established
    // before the step, which would report a finite loss from saturated
    // gates.
    let mut rng = StdRng::seed_from_u64(5);
    let donor = Linear::new(HIDDEN, CLASSES, &mut rng);
    let mut w = donor.weight().clone();
    w.scale(1e5);
    let mut head = Linear::from_parts(w, donor.bias().to_vec());
    head.trainable = false;
    let model =
        SequenceModel::from_layers(vec![lstm(INPUT_DIM, true, &mut rng).into(), head.into()]);
    let data: Vec<Sample> = (0..2)
        .map(|i| {
            let mut x = vec![0.0f32; INPUT_DIM];
            x[i] = 1.0;
            Sample::new(vec![x], i % CLASSES)
        })
        .collect();
    let config =
        TrainConfig { epochs: 1, batch_size: 1, lr: 1e36, weight_decay: 0.0, shuffle_seed: 9 };
    let reports = assert_fit_matches_reference(&model, &data, &config);
    assert!(reports[0].final_loss().is_nan(), "nothing overflowed: {reports:?}");
}
