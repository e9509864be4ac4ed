//! The [`Layer`] enum: closed set of layer types composing a model.

use serde::{Deserialize, Serialize};

use pelican_tensor::Matrix;

use crate::chunk::ChunkBatch;
use crate::{Dropout, Linear, Lstm, Sequence};

/// One layer of a [`crate::SequenceModel`].
///
/// A closed enum (rather than a trait object) keeps models serializable,
/// cloneable and cheap to dispatch. The paper's architectures only ever
/// compose these three layer kinds plus the inference-time defense, which
/// lives on the model head (see [`crate::SequenceModel::set_defense`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Layer {
    /// Recurrent LSTM layer.
    Lstm(Lstm),
    /// Fully-connected layer applied per timestep.
    Linear(Linear),
    /// Inverted dropout (train-time only).
    Dropout(Dropout),
}

impl Layer {
    /// Inference over one matrix per timestep, a row per sequence or one
    /// row every sequence shares (see [`crate::sweep`]); each sequence's
    /// output is bit-identical to [`Layer::forward`] on it without
    /// dropout. See [`Lstm::infer`].
    pub(crate) fn infer(&self, xs: Vec<Matrix>) -> Vec<Matrix> {
        match self {
            Layer::Lstm(l) => l.infer(&xs),
            Layer::Linear(l) => l.infer(&xs),
            Layer::Dropout(_) => xs,
        }
    }

    /// FLOPs one inference timestep of one sequence costs: the layer's
    /// products at their nominal size — a function of its shape alone.
    pub(crate) fn infer_step_flops(&self) -> u64 {
        match self {
            Layer::Lstm(l) => l.infer_step_flops(),
            Layer::Linear(l) => l.infer_step_flops(),
            Layer::Dropout(_) => 0,
        }
    }

    /// FLOPs one timestep of training costs: the forward products, the
    /// input-gradient products and, when trainable, the weight-gradient
    /// updates, each the size of the weights — a function of the layer's
    /// shape and `trainable` alone, whatever [`crate::fit`] skips.
    pub(crate) fn train_step_flops(&self) -> u64 {
        self.infer_step_flops() * if self.is_trainable() { 3 } else { 2 }
    }

    /// Training-mode forward pass (caches activations).
    pub fn forward(&mut self, xs: &Sequence) -> Sequence {
        match self {
            Layer::Lstm(l) => l.forward(xs),
            Layer::Linear(l) => l.forward(xs),
            Layer::Dropout(d) => d.forward(xs),
        }
    }

    /// Backward pass; returns input gradients.
    pub fn backward(&mut self, grad_out: &Sequence) -> Sequence {
        match self {
            Layer::Lstm(l) => l.backward(grad_out),
            Layer::Linear(l) => l.backward(grad_out),
            Layer::Dropout(d) => d.backward(grad_out),
        }
    }

    /// Training-mode forward pass over a packed chunk through the fused
    /// batch kernels; outputs and caches are bit-identical to calling
    /// [`Layer::forward`] once per sample in chunk order. See
    /// [`Lstm::forward_chunk_packed`].
    pub(crate) fn forward_chunk_packed(&mut self, x: ChunkBatch) -> ChunkBatch {
        match self {
            Layer::Lstm(l) => l.forward_chunk_packed(x),
            Layer::Linear(l) => l.forward_chunk_packed(x),
            Layer::Dropout(d) => d.forward_chunk_packed(x),
        }
    }

    /// Backward pass over a packed chunk; parameter gradients are
    /// bit-identical to calling [`Layer::backward`] once per sample in
    /// chunk order, and so are the input gradients, which are formed only
    /// if `want_input_grad`. See [`Lstm::backward_chunk_packed`].
    pub(crate) fn backward_chunk_packed(
        &mut self,
        grad: ChunkBatch,
        want_input_grad: bool,
    ) -> Option<ChunkBatch> {
        match self {
            Layer::Lstm(l) => l.backward_chunk_packed(grad, want_input_grad),
            Layer::Linear(l) => l.backward_chunk_packed(grad, want_input_grad),
            Layer::Dropout(d) => Some(d.backward_chunk_packed(grad)),
        }
    }

    /// Visits `(param, grad)` slices of trainable parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        match self {
            Layer::Lstm(l) => l.visit_params(f),
            Layer::Linear(l) => l.visit_params(f),
            Layer::Dropout(_) => {}
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        match self {
            Layer::Lstm(l) => l.zero_grad(),
            Layer::Linear(l) => l.zero_grad(),
            Layer::Dropout(_) => {}
        }
    }

    /// Whether the optimizer may update this layer.
    pub fn is_trainable(&self) -> bool {
        match self {
            Layer::Lstm(l) => l.trainable,
            Layer::Linear(l) => l.trainable,
            Layer::Dropout(_) => false,
        }
    }

    /// Freezes or unfreezes the layer's parameters.
    ///
    /// Freezing a [`Layer::Dropout`] is a no-op: it has no parameters.
    pub fn set_trainable(&mut self, trainable: bool) {
        match self {
            Layer::Lstm(l) => l.trainable = trainable,
            Layer::Linear(l) => l.trainable = trainable,
            Layer::Dropout(_) => {}
        }
    }

    /// Number of scalar parameters (0 for dropout).
    pub fn param_count(&self) -> usize {
        match self {
            Layer::Lstm(l) => l.param_count(),
            Layer::Linear(l) => l.param_count(),
            Layer::Dropout(_) => 0,
        }
    }

    /// Short human-readable layer description (e.g. `lstm(64->128)`).
    pub fn describe(&self) -> String {
        match self {
            Layer::Lstm(l) => format!("lstm({}->{})", l.input_dim(), l.output_dim()),
            Layer::Linear(l) => format!("linear({}->{})", l.input_dim(), l.output_dim()),
            Layer::Dropout(d) => format!("dropout({})", d.rate()),
        }
    }
}

impl From<Lstm> for Layer {
    fn from(l: Lstm) -> Self {
        Layer::Lstm(l)
    }
}

impl From<Linear> for Layer {
    fn from(l: Linear) -> Self {
        Layer::Linear(l)
    }
}

impl From<Dropout> for Layer {
    fn from(d: Dropout) -> Self {
        Layer::Dropout(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn describe_is_informative() {
        let mut rng = StdRng::seed_from_u64(0);
        let l: Layer = Lstm::new(3, 5, &mut rng).into();
        assert_eq!(l.describe(), "lstm(3->5)");
        let l: Layer = Linear::new(5, 2, &mut rng).into();
        assert_eq!(l.describe(), "linear(5->2)");
        let l: Layer = Dropout::new(0.1, 0).into();
        assert_eq!(l.describe(), "dropout(0.1)");
    }

    #[test]
    fn dropout_is_never_trainable() {
        let mut l: Layer = Dropout::new(0.2, 0).into();
        assert!(!l.is_trainable());
        l.set_trainable(true);
        assert!(!l.is_trainable());
        assert_eq!(l.param_count(), 0);
    }

    #[test]
    fn freeze_round_trip() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l: Layer = Linear::new(2, 2, &mut rng).into();
        assert!(l.is_trainable());
        l.set_trainable(false);
        assert!(!l.is_trainable());
        l.set_trainable(true);
        assert!(l.is_trainable());
    }
}
