//! Inverted dropout applied between recurrent layers.

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::chunk::ChunkBatch;
use crate::Sequence;

/// Inverted dropout: active during training, identity at inference.
///
/// The paper trains its general model with a dropout rate of 0.1 between
/// the LSTM layers (§IV-A). "Inverted" scaling (dividing survivors by the
/// keep probability at train time) keeps inference a pure identity, so the
/// deployed personalized model has no stochastic behaviour an adversary
/// could average away.
///
/// Masks are drawn from a counter-based seed (`seed + forward index`) so
/// the layer is `Clone` and deterministic without carrying RNG state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dropout {
    rate: f32,
    seed: u64,
    #[serde(skip)]
    draws: u64,
    #[serde(skip)]
    masks: Vec<Vec<f32>>,
    /// Flat mask cache written by [`Dropout::forward_chunk_packed`]
    /// (`None` when the last packed forward was an identity pass at rate
    /// zero), plus the chunk's per-sample lengths for shape checking.
    #[serde(skip)]
    chunk_masks: Option<Vec<f32>>,
    #[serde(skip)]
    chunk_lens: Vec<usize>,
}

impl Dropout {
    /// Creates a dropout layer dropping each activation with probability
    /// `rate`, drawing masks from `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= rate < 1`.
    pub fn new(rate: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0, 1), got {rate}");
        Self { rate, seed, draws: 0, masks: Vec::new(), chunk_masks: None, chunk_lens: Vec::new() }
    }

    /// The configured drop probability.
    pub fn rate(&self) -> f32 {
        self.rate
    }

    /// Training-mode forward pass; samples and caches a mask per timestep.
    pub fn forward(&mut self, xs: &Sequence) -> Sequence {
        if self.rate == 0.0 {
            self.masks = xs.iter().map(|x| vec![1.0; x.len()]).collect();
            return xs.clone();
        }
        let keep = 1.0 - self.rate;
        let inv_keep = 1.0 / keep;
        self.masks.clear();
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(self.draws));
        self.draws = self.draws.wrapping_add(1);
        let mut out = Vec::with_capacity(xs.len());
        for x in xs {
            let mask: Vec<f32> = (0..x.len())
                .map(|_| if rng.random_range(0.0..1.0) < keep { inv_keep } else { 0.0 })
                .collect();
            out.push(x.iter().zip(&mask).map(|(&v, &m)| v * m).collect());
            self.masks.push(mask);
        }
        out
    }

    /// Identity forward pass that still primes the mask cache (with ones),
    /// so a later [`Dropout::backward`] passes gradients through unchanged.
    ///
    /// Used when a cache-writing forward pass must reproduce *inference*
    /// semantics — e.g. when an attack differentiates through the deployed
    /// model, which has dropout disabled.
    pub fn forward_identity(&mut self, xs: &Sequence) -> Sequence {
        self.masks = xs.iter().map(|x| vec![1.0; x.len()]).collect();
        xs.clone()
    }

    /// Training-mode forward pass over a packed chunk, masking the batch
    /// in place.
    ///
    /// Each sample consumes exactly one counter-based mask draw in chunk
    /// order — the same draw indices per-sample [`Dropout::forward`]
    /// calls would consume (the backward pass draws nothing, so running
    /// all forwards first leaves every sample's draw index unchanged). A
    /// zero rate consumes no draws and passes the batch through
    /// untouched, matching [`Dropout::forward`] — which is what lets
    /// [`crate::fit`] run a rate-zero dropout inside the frozen prefix
    /// once, and why a drawing one ends that prefix. Masked outputs are
    /// bit-identical to the per-sample calls.
    pub(crate) fn forward_chunk_packed(&mut self, mut x: ChunkBatch) -> ChunkBatch {
        self.chunk_lens = x.lens.clone();
        if self.rate == 0.0 {
            self.chunk_masks = None;
            return x;
        }
        let keep = 1.0 - self.rate;
        let inv_keep = 1.0 / keep;
        let dim = x.rows.cols();
        let mut masks = vec![0.0f32; x.total() * dim];
        for i in 0..x.lens.len() {
            let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(self.draws));
            self.draws = self.draws.wrapping_add(1);
            for t in 0..x.lens[i] {
                let row = x.offsets[i] + t;
                let mask = &mut masks[row * dim..(row + 1) * dim];
                for mv in mask.iter_mut() {
                    *mv = if rng.random_range(0.0..1.0) < keep { inv_keep } else { 0.0 };
                }
                for (v, &mv) in x.rows.row_mut(row).iter_mut().zip(mask.iter()) {
                    *v *= mv;
                }
            }
        }
        self.chunk_masks = Some(masks);
        x
    }

    /// Backward pass through the flat masks cached by
    /// [`Dropout::forward_chunk_packed`], scaling the gradient batch in
    /// place.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Dropout::forward_chunk_packed`] or with
    /// mismatched gradient shapes.
    pub(crate) fn backward_chunk_packed(&mut self, mut grad: ChunkBatch) -> ChunkBatch {
        assert_eq!(
            grad.lens, self.chunk_lens,
            "backward_chunk_packed gradient lengths do not match cached chunk"
        );
        if let Some(masks) = &self.chunk_masks {
            assert_eq!(grad.rows.len(), masks.len(), "gradient width differs from cached masks");
            for (g, &mv) in grad.rows.as_mut_slice().iter_mut().zip(masks) {
                *g *= mv;
            }
        }
        grad
    }

    /// Backpropagates through the cached masks.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Dropout::forward`] or with a mismatched
    /// number of gradient steps.
    pub fn backward(&mut self, grad_out: &Sequence) -> Sequence {
        assert_eq!(
            grad_out.len(),
            self.masks.len(),
            "backward called with {} grads but {} cached masks",
            grad_out.len(),
            self.masks.len()
        );
        grad_out
            .iter()
            .zip(&self.masks)
            .map(|(g, m)| g.iter().zip(m).map(|(&gv, &mv)| gv * mv).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_is_identity() {
        let model = crate::SequenceModel::from_layers(vec![Dropout::new(0.5, 1).into()]);
        let xs = vec![vec![1.0, 2.0, 3.0]];
        assert_eq!(model.logits_batch(&[&xs]), xs);
    }

    #[test]
    fn zero_rate_is_identity_in_training() {
        let mut d = Dropout::new(0.0, 1);
        let xs = vec![vec![1.0, -2.0]];
        assert_eq!(d.forward(&xs), xs);
    }

    #[test]
    fn surviving_activations_are_scaled() {
        let mut d = Dropout::new(0.5, 42);
        let xs = vec![vec![1.0; 1000]];
        let ys = d.forward(&xs);
        for &y in &ys[0] {
            assert!(y == 0.0 || (y - 2.0).abs() < 1e-6, "unexpected value {y}");
        }
        let kept = ys[0].iter().filter(|&&v| v != 0.0).count();
        assert!((300..700).contains(&kept), "kept {kept} of 1000 at rate 0.5");
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 7);
        let xs = vec![vec![1.0; 64]];
        let ys = d.forward(&xs);
        let gs = d.backward(&vec![vec![1.0; 64]]);
        for (y, g) in ys[0].iter().zip(&gs[0]) {
            assert_eq!(*y == 0.0, *g == 0.0, "mask must match between passes");
        }
    }

    #[test]
    #[should_panic(expected = "dropout rate must be in [0, 1)")]
    fn rejects_rate_one() {
        let _ = Dropout::new(1.0, 0);
    }
}
