//! Activations of a *sweep*: many queries that share every timestep but
//! one.
//!
//! The enumeration attacks of §III-B2 ask a model the same question a
//! thousand times with one timestep varied. Whatever a layer computes
//! from state no candidate has touched yet — the timesteps before the
//! varied slot, the hidden-state half of the pre-activation at the slot,
//! the input half of known later steps — is the same for every candidate,
//! so a sweep carries each timestep as either one [`SweepStep::Shared`]
//! vector or one [`SweepStep::PerCandidate`] row per candidate and every
//! layer keeps shared work shared for as long as it can (see
//! [`crate::SequenceModel::logits_sweep`]).

use pelican_tensor::Matrix;

use crate::Step;

/// One timestep's activations across the candidates of a sweep.
#[derive(Debug, Clone)]
pub(crate) enum SweepStep {
    /// The same vector for every candidate.
    Shared(Step),
    /// One row per candidate.
    PerCandidate(Matrix),
}

impl SweepStep {
    /// Candidate `r`'s vector.
    pub(crate) fn row(&self, r: usize) -> &[f32] {
        match self {
            SweepStep::Shared(x) => x,
            SweepStep::PerCandidate(rows) => rows.row(r),
        }
    }

    /// `W·x` for every candidate: one matvec when shared, else the
    /// row-sparse batch kernel, whose rows carry the bits of that matvec.
    pub(crate) fn project(&self, w: &Matrix) -> SweepStep {
        match self {
            SweepStep::Shared(x) => SweepStep::Shared(w.matvec(x)),
            SweepStep::PerCandidate(rows) => {
                SweepStep::PerCandidate(rows.matmul_transpose_sparse(w))
            }
        }
    }

    /// Adds `b` to every candidate's vector.
    pub(crate) fn add_bias(mut self, b: &[f32]) -> SweepStep {
        let data = match &mut self {
            SweepStep::Shared(x) => x.as_mut_slice(),
            SweepStep::PerCandidate(rows) => rows.as_mut_slice(),
        };
        for row in data.chunks_exact_mut(b.len()) {
            for (v, &bv) in row.iter_mut().zip(b) {
                *v += bv;
            }
        }
        self
    }
}
