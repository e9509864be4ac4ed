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
//! * **Work accounting.** Every kernel reports the floating-point operations
//!   it performs to its thread's [`flops`] counter. The Pelican platform
//!   simulation converts these counts into simulated CPU cycles to reproduce
//!   the paper's cloud-vs-device overhead comparison (§V-C2) without needing
//!   the authors' Titan-X testbed.
//!
//! # Example
//!
//! ```
//! use pelican_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

pub mod flops;
pub mod init;
pub mod matrix;
pub mod ops;

pub use flops::{record_flops, thread_flops_now, ThreadFlopGuard};
pub use init::{xavier_uniform, Init};
pub use matrix::Matrix;
pub use ops::{
    argmax, log_softmax_in_place, nearest_rank, sigmoid, softmax, softmax_in_place,
    softmax_temperature_in_place, tanh, tanh_in_place, top_k,
};
