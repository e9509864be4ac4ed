//! Activations of a *sweep*: many queries that share every timestep but
//! one.
//!
//! The enumeration attacks of §III-B2 ask a model the same question a
//! thousand times with one timestep varied. Whatever a layer computes
//! from state no candidate has touched yet — the timesteps before the
//! varied slot, the hidden-state half of the pre-activation at the slot,
//! the input half of known later steps — is the same for every candidate,
//! so a sweep carries each timestep's activations as a matrix with one
//! row per candidate, or a single row while every candidate still shares
//! it, and every layer keeps shared work shared for as long as it can
//! (see [`crate::SequenceModel::logits_sweep`]).

use pelican_tensor::Matrix;

/// Candidate `r`'s row of a sweep's activations: row `r`, or the only
/// row when every candidate shares it.
pub(crate) fn shared_row(rows: &Matrix, r: usize) -> &[f32] {
    rows.row(if rows.rows() == 1 { 0 } else { r })
}
