//! Training loop, time-series cross-validation and grid search.
//!
//! Mirrors the paper's methodology (§IV-A): mini-batch training with weight
//! decay, hyperparameter selection by grid search over *time-series*
//! cross-validation folds (expanding window, so validation data is always
//! strictly later than training data — shuffling location trajectories
//! across time would leak the future).

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::chunk::ChunkBatch;
use crate::{
    metrics::evaluate_top_k, softmax_cross_entropy, Adam, Layer, Sample, SequenceModel,
    TopKAccuracy,
};

/// Hyperparameters for one training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size (gradients are averaged within a batch).
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// L2 weight-decay coefficient.
    pub weight_decay: f32,
    /// Seed for epoch shuffling.
    pub shuffle_seed: u64,
}

impl Default for TrainConfig {
    /// Defaults tuned for the synthetic campus workload. [`fit`] always
    /// steps [`Adam`]; the paper's published `lr = 1e-4` and
    /// `weight_decay = 1e-6` (and batch 128) are reachable by overriding
    /// those fields.
    fn default() -> Self {
        Self { epochs: 10, batch_size: 32, lr: 3e-3, weight_decay: 1e-6, shuffle_seed: 0x5eed }
    }
}

impl TrainConfig {
    /// The same hyperparameters with a different shuffle seed.
    ///
    /// Fleet pipelines train many users (and warm-start rounds) from one
    /// hyperparameter template; deriving each run's config this way keeps
    /// the template immutable and makes the reseeding explicit at the
    /// call site.
    pub fn reseeded(&self, shuffle_seed: u64) -> Self {
        Self { shuffle_seed, ..self.clone() }
    }
}

/// Outcome of a [`fit`] call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitReport {
    /// Mean training loss per epoch, in order.
    pub epoch_losses: Vec<f32>,
    /// Number of optimizer steps taken.
    pub steps: usize,
    /// Number of training samples seen per epoch.
    pub samples_per_epoch: usize,
    /// What the run costs: `epochs ×` [`SequenceModel::train_cost`] of
    /// the samples — the compute the virtual clock prices it at, whatever
    /// the run skipped or reused.
    pub flops: u64,
}

impl FitReport {
    /// Mean loss of the final epoch, or NaN if no epochs ran.
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(f32::NAN)
    }
}

/// Trains `model` on `samples` under `config` — the one training driver.
///
/// Gradients are accumulated per mini-batch and applied as means. Sample
/// order is reshuffled every epoch from `config.shuffle_seed`.
///
/// Every mini-batch goes through the packed chunk kernels
/// ([`Lstm::forward_chunk_packed`](crate::Lstm) and its backward), and
/// the job does only what its model's freeze pattern makes it need —
/// transfer learning trains a layer or two on top of a frozen stack:
///
/// * the *frozen deterministic prefix* — the leading layers that are
///   neither trainable nor a [`Dropout`](crate::Dropout) that draws — is
///   run once per sample, during the first epoch, and its packed output
///   is reused by every later epoch;
/// * the backward pass stops at the lowest trainable layer, which forms
///   no input gradient; with nothing trainable it does not run at all.
///
/// Weights, losses and dropout draws are bit-identical to the per-sample
/// loop — [`SequenceModel::forward`], [`softmax_cross_entropy`],
/// [`SequenceModel::backward_from_logits`] per sample, then
/// [`Adam::step`] — which `tests/fit_equivalence.rs` keeps as the
/// reference trainer. The report's `flops` is what that loop costs,
/// `epochs ×` [`SequenceModel::train_cost`] of the samples, so compute
/// priced from it (device time, every virtual instant) does not move
/// with what is skipped or reused.
///
/// # Panics
///
/// Panics if `samples` is empty, holds an empty sequence, or
/// `config.batch_size == 0`.
pub fn fit(model: &mut SequenceModel, samples: &[Sample], config: &TrainConfig) -> FitReport {
    assert!(!samples.is_empty(), "cannot fit on an empty dataset");
    assert!(config.batch_size > 0, "batch size must be positive");
    assert!(samples.iter().all(|s| !s.xs.is_empty()), "cannot run a model on an empty sequence");
    let mut optimizer = Adam::new(config.lr).with_weight_decay(config.weight_decay);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut rng = StdRng::seed_from_u64(config.shuffle_seed);
    let mut report = FitReport {
        epoch_losses: Vec::with_capacity(config.epochs),
        steps: 0,
        samples_per_epoch: samples.len(),
        flops: config.epochs as u64
            * model.train_cost(samples.iter().map(|s| s.xs.len()).sum(), samples.len()),
    };
    let input_dim = model.input_dim();
    let prefix = model
        .layers()
        .iter()
        .take_while(|l| !l.is_trainable() && !matches!(l, Layer::Dropout(d) if d.rate() > 0.0))
        .count();
    // The backward pass runs from the top layer down to this one.
    let lowest_trainable =
        model.layers().iter().position(Layer::is_trainable).unwrap_or(model.layers().len());
    // The prefix's output for every sample, in sample order.
    let mut prefix_out: Option<ChunkBatch> = None;
    for epoch in 0..config.epochs {
        shuffle(&mut order, &mut rng);
        let mut epoch_loss = 0.0;
        for chunk in order.chunks(config.batch_size) {
            let layers = model.layers_mut();
            let mut cur = if epoch == 0 || prefix == 0 {
                let xs = chunk.iter().map(|&idx| &samples[idx].xs);
                let mut cur = ChunkBatch::pack(xs, input_dim);
                for layer in &mut layers[..prefix] {
                    cur = layer.forward_chunk_packed(cur);
                }
                if prefix > 0 {
                    prefix_out
                        .get_or_insert_with(|| {
                            let lens = samples.iter().map(|s| s.xs.len()).collect();
                            ChunkBatch::zeros(lens, cur.rows.cols())
                        })
                        .scatter(chunk, &cur);
                }
                cur
            } else {
                prefix_out.as_ref().expect("the first epoch saw every sample").gather(chunk)
            };
            for layer in &mut layers[prefix..] {
                cur = layer.forward_chunk_packed(cur);
            }

            let mut grads = ChunkBatch::zeros(cur.lens.clone(), cur.rows.cols());
            for (j, &idx) in chunk.iter().enumerate() {
                let (loss, dlogits) = softmax_cross_entropy(cur.last_row(j), samples[idx].target);
                epoch_loss += loss;
                grads.last_row_mut(j).copy_from_slice(&dlogits);
            }

            let mut grads = Some(grads);
            for at in (lowest_trainable..layers.len()).rev() {
                let grad = grads.take().expect("every layer above the lowest trainable passes one");
                grads = layers[at].backward_chunk_packed(grad, at > lowest_trainable);
            }

            optimizer.step(model, chunk.len());
            report.steps += 1;
        }
        report.epoch_losses.push(epoch_loss / samples.len() as f32);
    }
    report
}

fn shuffle(order: &mut [usize], rng: &mut StdRng) {
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
}

/// Evaluation summary: top-k accuracies plus mean cross-entropy loss.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Accuracy accumulator for the requested `k` values.
    pub top_k: TopKAccuracy,
    /// Mean cross-entropy loss over the evaluation set.
    pub mean_loss: f64,
}

/// Evaluates `model` on `samples` at the given `k` values.
pub fn evaluate(model: &SequenceModel, samples: &[Sample], ks: &[usize]) -> EvalReport {
    let top_k = evaluate_top_k(model, samples, ks);
    let mut loss_sum = 0.0;
    for s in samples {
        let logits = model.logits(&s.xs);
        loss_sum += softmax_cross_entropy(&logits, s.target).0 as f64;
    }
    let mean_loss = if samples.is_empty() { 0.0 } else { loss_sum / samples.len() as f64 };
    EvalReport { top_k, mean_loss }
}

/// Expanding-window time-series cross-validation folds.
///
/// Splits `[0, n)` into `folds + 1` contiguous chunks; fold `i` trains on
/// chunks `0..=i` and validates on chunk `i + 1`. Validation data is always
/// strictly later than training data.
///
/// Returns `(train_range, validation_range)` pairs.
///
/// # Panics
///
/// Panics if `folds == 0` or `n < folds + 1`.
pub fn time_series_folds(
    n: usize,
    folds: usize,
) -> Vec<(std::ops::Range<usize>, std::ops::Range<usize>)> {
    assert!(folds > 0, "need at least one fold");
    assert!(n > folds, "cannot split {n} samples into {folds} time-series folds");
    let chunk = n / (folds + 1);
    let mut out = Vec::with_capacity(folds);
    for i in 0..folds {
        let train_end = chunk * (i + 1);
        let val_end = if i + 1 == folds { n } else { chunk * (i + 2) };
        out.push((0..train_end, train_end..val_end));
    }
    out
}

/// One cell of a hyperparameter grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridPoint {
    /// Learning rate.
    pub lr: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Training epochs.
    pub epochs: usize,
}

/// Grid search with time-series cross-validation (the paper's §IV-A
/// hyperparameter-selection protocol).
///
/// For each grid point, trains a fresh model (from `factory`) on each
/// expanding-window fold and scores top-`k_eval` accuracy on the fold's
/// validation slice. Returns the best point and its mean validation score.
///
/// # Panics
///
/// Panics if `grid` is empty or `samples` is too small for `folds`.
pub fn grid_search<F>(
    factory: F,
    samples: &[Sample],
    grid: &[GridPoint],
    folds: usize,
    k_eval: usize,
) -> (GridPoint, f64)
where
    F: Fn() -> SequenceModel,
{
    assert!(!grid.is_empty(), "grid search needs at least one point");
    let splits = time_series_folds(samples.len(), folds);
    let mut best: Option<(GridPoint, f64)> = None;
    for point in grid {
        let mut score_sum = 0.0;
        for (train, val) in &splits {
            let mut model = factory();
            let config = TrainConfig {
                epochs: point.epochs,
                lr: point.lr,
                weight_decay: point.weight_decay,
                ..TrainConfig::default()
            };
            fit(&mut model, &samples[train.clone()], &config);
            let report = evaluate(&model, &samples[val.clone()], &[k_eval]);
            score_sum += report.top_k.accuracy(k_eval);
        }
        let mean = score_sum / splits.len() as f64;
        if best.as_ref().is_none_or(|(_, s)| mean > *s) {
            best = Some((point.clone(), mean));
        }
    }
    best.expect("nonempty grid always yields a best point")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A linearly-separable toy task: class = index of the hot input bit.
    fn toy_samples(n: usize, classes: usize, seed: u64) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let c = rng.random_range(0..classes);
                let mut x = vec![0.0; classes];
                x[c] = 1.0;
                Sample::new(vec![x.clone(), x], c)
            })
            .collect()
    }

    fn toy_model(classes: usize) -> SequenceModel {
        let mut rng = StdRng::seed_from_u64(11);
        SequenceModel::builder().lstm(classes, 16, &mut rng).linear(16, classes, &mut rng).build()
    }

    #[test]
    fn fit_learns_separable_task() {
        let samples = toy_samples(200, 4, 1);
        let mut model = toy_model(4);
        let config = TrainConfig { epochs: 20, lr: 1e-2, ..TrainConfig::default() };
        let report = fit(&mut model, &samples, &config);
        assert!(report.final_loss() < report.epoch_losses[0] * 0.5);
        let eval = evaluate(&model, &samples, &[1]);
        assert!(
            eval.top_k.accuracy(1) > 0.9,
            "separable task should reach >90%, got {}",
            eval.top_k.accuracy(1)
        );
    }

    #[test]
    fn fit_is_deterministic_given_seeds() {
        let samples = toy_samples(50, 3, 2);
        let config = TrainConfig { epochs: 3, ..TrainConfig::default() };
        let mut m1 = toy_model(3);
        let mut m2 = toy_model(3);
        let r1 = fit(&mut m1, &samples, &config);
        let r2 = fit(&mut m2, &samples, &config);
        assert_eq!(r1.epoch_losses, r2.epoch_losses);
    }

    #[test]
    fn reseeding_changes_only_the_shuffle_seed() {
        let template = TrainConfig { epochs: 3, lr: 7e-3, ..TrainConfig::default() };
        let derived = template.reseeded(0xFEED);
        assert_eq!(derived.shuffle_seed, 0xFEED);
        assert_eq!(
            TrainConfig { shuffle_seed: template.shuffle_seed, ..derived.clone() },
            template,
            "every other hyperparameter carries over"
        );
        // Different shuffle order, same data: losses differ epoch by
        // epoch but both runs still train.
        let samples = toy_samples(50, 3, 2);
        let mut m1 = toy_model(3);
        let mut m2 = toy_model(3);
        let r1 = fit(&mut m1, &samples, &template);
        let r2 = fit(&mut m2, &samples, &derived);
        assert_ne!(r1.epoch_losses, r2.epoch_losses, "reseeding reshuffles epochs");
    }

    #[test]
    fn frozen_model_does_not_change() {
        let samples = toy_samples(20, 3, 3);
        let mut model = toy_model(3);
        model.freeze_all();
        let before = model.logits(&samples[0].xs);
        fit(&mut model, &samples, &TrainConfig { epochs: 2, ..TrainConfig::default() });
        let after = model.logits(&samples[0].xs);
        assert_eq!(before, after);
    }

    #[test]
    fn folds_are_time_ordered_and_cover() {
        let folds = time_series_folds(100, 4);
        assert_eq!(folds.len(), 4);
        for (train, val) in &folds {
            assert_eq!(train.start, 0);
            assert_eq!(train.end, val.start, "validation follows training");
            assert!(!val.is_empty());
        }
        assert_eq!(folds.last().unwrap().1.end, 100, "last fold reaches the end");
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn folds_reject_tiny_inputs() {
        let _ = time_series_folds(2, 5);
    }

    #[test]
    fn grid_search_prefers_working_lr() {
        let samples = toy_samples(120, 3, 4);
        let grid = vec![
            GridPoint { lr: 1e-9, weight_decay: 0.0, epochs: 5 }, // too small to learn
            GridPoint { lr: 1e-2, weight_decay: 0.0, epochs: 5 },
        ];
        let (best, score) = grid_search(|| toy_model(3), &samples, &grid, 3, 1);
        assert_eq!(best.lr, 1e-2, "grid search should pick the learnable rate");
        assert!(score > 0.5);
    }

    #[test]
    fn evaluate_reports_loss() {
        let samples = toy_samples(30, 3, 5);
        let model = toy_model(3);
        let eval = evaluate(&model, &samples, &[1, 3]);
        assert!(eval.mean_loss > 0.0);
        assert!((eval.top_k.accuracy(3) - 1.0).abs() < 1e-9, "top-3 of 3 classes is always a hit");
    }
}
