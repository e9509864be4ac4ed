//! The virtual clock's charges in closed form for the paper's four model
//! shapes: an LSTM step is `4H × I` and `4H × H` products, the head `C × H`,
//! each `2·|W|` forward, again for the input gradient and again for a
//! trained layer's weights; confidences cost `4·C` a query, the loss `3·C`.

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

use pelican_nn::{fit, Lstm, Sample, SequenceModel, TrainConfig};

const I: usize = 10;
const H: usize = 6;
const C: usize = 4;

/// `(name, model, inference FLOPs a timestep, training FLOPs a timestep)`
/// for the general model, TL feature extraction (the general stack frozen
/// under a fresh LSTM), TL fine tuning (the first LSTM frozen) and a
/// from-scratch LSTM.
fn shapes() -> Vec<(&'static str, SequenceModel, u64, u64)> {
    let (first, second, head) = ((8 * H * (I + H)) as u64, (16 * H * H) as u64, (2 * C * H) as u64);
    let general = SequenceModel::general_lstm(I, H, C, 0.1, &mut StdRng::seed_from_u64(1));
    let mut fe = general.clone();
    fe.freeze_all();
    fe.insert_before_head(Lstm::new(H, H, &mut StdRng::seed_from_u64(2)).into());
    let top = fe.layers().len() - 1;
    fe.layers_mut()[top].set_trainable(true);
    let mut ft = general.clone();
    ft.layers_mut()[0].set_trainable(false);
    let scratch = SequenceModel::single_lstm(I, H, C, 0.1, &mut StdRng::seed_from_u64(3));
    vec![
        ("general", general, first + second + head, 3 * (first + second + head)),
        ("tl-fe", fe, first + 2 * second + head, 2 * (first + second) + 3 * (second + head)),
        ("tl-ft", ft, first + second + head, 2 * first + 3 * (second + head)),
        ("scratch", scratch, first + head, 3 * (first + head)),
    ]
}

#[test]
fn inference_costs_every_product_of_every_step_and_the_confidences() {
    for (name, model, per_step, _) in shapes() {
        assert_eq!(model.infer_cost(5, 2), 5 * per_step + 2 * 4 * C as u64, "{name}");
        assert_eq!(model.infer_cost(0, 3), 3 * 4 * C as u64, "{name}: logits from a cache");
    }
}

#[test]
fn a_fit_costs_its_epochs_times_every_product_and_the_loss() {
    let mut rng = StdRng::seed_from_u64(4);
    let samples: Vec<Sample> = (0..11)
        .map(|i| {
            let xs: Vec<Vec<f32>> = (0..1 + i % 3)
                .map(|_| (0..I).map(|_| rng.random_range(-1.0f32..1.0)).collect())
                .collect();
            Sample::new(xs, rng.random_range(0..C))
        })
        .collect();
    let steps: usize = samples.iter().map(|s| s.xs.len()).sum();
    for (name, model, _, per_step) in shapes() {
        let pass = steps as u64 * per_step + 11 * 3 * C as u64;
        assert_eq!(model.train_cost(steps, samples.len()), pass, "{name}");
        for epochs in [0, 1, 3] {
            let config = TrainConfig { epochs, batch_size: 4, ..TrainConfig::default() };
            let report = fit(&mut model.clone(), &samples, &config);
            assert_eq!(report.flops, epochs as u64 * pass, "{name} over {epochs} epochs");
        }
    }
}
