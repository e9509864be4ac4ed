//! Dense matrix kernels and numeric utilities for the Pelican reproduction.
//!
//! This crate is the lowest substrate of the Pelican workspace: a small,
//! dependency-light linear-algebra library sufficient to train and invert
//! LSTM-based next-location models. The paper's original implementation used
//! PyTorch; everything the higher layers need from it — dense GEMM,
//! elementwise activations, stable softmax, top-k selection and weight
//! initialization — is implemented here in pure Rust.
//!
//! Two design points matter for the reproduction:
//!
//! * **Determinism.** All randomness flows through caller-provided
//!   [`rand::Rng`] values so experiments are exactly repeatable from a seed.
//! * **No hidden state.** A kernel is a pure function of its operands and
//!   counts nothing. What a computation costs on the simulated platform
//!   (the paper's cloud-vs-device overhead comparison, §V-C2) is priced
//!   one layer up, from model shapes.
//!
//! # Example
//!
//! ```
//! use pelican_tensor::Matrix;
//!
//! let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

pub mod init;
pub mod matrix;
pub mod ops;

pub use init::xavier_uniform;
pub use matrix::Matrix;
pub use ops::{
    argmax, descending, inverse_temperature, log_softmax_in_place, nearest_rank, sigmoid, softmax,
    softmax_temperature_in_place, tanh, tanh_in_place, top_k, SoftmaxNorm,
};
