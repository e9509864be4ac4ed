//! Sequence neural networks with hand-written backpropagation.
//!
//! This crate replaces the PyTorch substrate the Pelican paper was built on.
//! It provides exactly the architecture family the paper uses for
//! next-location prediction (Fig. 1): stacked [`Lstm`] layers, [`Dropout`]
//! between them, a final [`Linear`] head, and an inference-time temperature
//! scale used both by the gradient-descent inversion attack and by the
//! Pelican privacy layer.
//!
//! Three capabilities drive the design:
//!
//! * **Exact input gradients.** The model-inversion attack of §III-B
//!   reconstructs inputs by gradient descent *through the trained model*, so
//!   every layer's backward pass returns the gradient with respect to its
//!   input, not just its parameters (see [`SequenceModel::input_gradient`]).
//! * **Layer freezing.** Transfer-learning personalization (feature
//!   extraction and fine tuning, §III-A3) trains only a subset of layers.
//!   Each layer carries a `trainable` flag honoured by the optimizer.
//! * **Determinism.** All stochastic pieces (init, dropout, shuffling) draw
//!   from explicit seeds.
//!
//! # Example
//!
//! ```
//! use pelican_nn::SequenceModel;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut model = SequenceModel::builder()
//!     .lstm(8, 16, &mut rng)
//!     .lstm(16, 16, &mut rng)
//!     .linear(16, 4, &mut rng)
//!     .build();
//! let xs = vec![vec![0.0; 8], vec![0.0; 8]];
//! let probs = model.predict_proba(&xs);
//! assert_eq!(probs.len(), 4);
//! ```

mod chunk;
pub mod dropout;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod lstm;
pub mod metrics;
pub mod model;
pub mod optim;
pub mod serialize;
mod sweep;
pub mod train;

pub use dropout::Dropout;
pub use layer::Layer;
pub use linear::Linear;
pub use loss::softmax_cross_entropy;
pub use lstm::Lstm;
pub use metrics::TopKAccuracy;
pub use model::{query_hash, sweep_query_hashes, ModelBuilder, Postprocess, SequenceModel};
pub use optim::Adam;
pub use serialize::{ModelCodecError, ModelEnvelope};
pub use sweep::PrefixTier;
pub use train::{fit, EvalReport, FitReport, TrainConfig};

/// A single timestep of model input: a dense feature vector.
pub type Step = Vec<f32>;

/// A full input sequence: `T` timesteps of equal-length feature vectors.
pub type Sequence = Vec<Step>;

/// A labelled training sample: an input sequence and a target class index.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Input sequence (`T × input_dim`).
    pub xs: Sequence,
    /// Target class (e.g. the index of the next location).
    pub target: usize,
}

impl Sample {
    /// Creates a sample from a sequence and target class.
    pub fn new(xs: Sequence, target: usize) -> Self {
        Self { xs, target }
    }
}
