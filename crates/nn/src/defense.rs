//! [`DefenseKind`]: the one inference-time defense against model
//! inversion a [`crate::SequenceModel`] carries. A defense changes only
//! the logits→confidence mapping, never the logits.

use serde::{Deserialize, Serialize};

/// A deployable defense against model-inversion attacks.
///
/// [`crate::SequenceModel::set_defense`] installs one, and is where a
/// temperature is checked: a model only ever holds a temperature in
/// `(0, 1)`, and `Temperature { 1.0 }` reads back as `None`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DefenseKind {
    /// No defense (baseline): the plain softmax.
    None,
    /// Pelican's temperature layer (§V-B).
    Temperature {
        /// Privacy temperature in `(0, 1]`. Above 1 the layer would
        /// *flatten* confidences, leaking their ordering more readily:
        /// never what a defense wants.
        temperature: f32,
    },
    /// MemGuard-style output perturbation: zero-mean noise on every
    /// confidence, clamped at 0 and renormalised. The noise is
    /// *deterministic per query* (drawn from the query's hash mixed with
    /// `seed`), so an adversary cannot average it away by repeating a
    /// query.
    OutputNoise {
        /// Noise standard deviation.
        sigma: f32,
        /// Seed mixed into the per-query hash.
        seed: u64,
    },
    /// Precision truncation: every confidence rounded to `decimals`
    /// places and renormalised — the crudest way to starve an attack of
    /// low-order confidence bits.
    Rounding {
        /// Decimal places kept.
        decimals: u32,
    },
}

impl DefenseKind {
    /// Whether the defense provably preserves the confidence *ranking*
    /// (and therefore top-k service accuracy). Only Pelican's temperature
    /// layer does; noise and rounding trade accuracy for privacy.
    pub fn preserves_ranking(self) -> bool {
        matches!(self, DefenseKind::None | DefenseKind::Temperature { .. })
    }

    /// Display name for reports.
    pub fn name(self) -> String {
        match self {
            DefenseKind::None => "none".into(),
            DefenseKind::Temperature { temperature } => format!("temperature {temperature:.0e}"),
            DefenseKind::OutputNoise { sigma, .. } => format!("output noise σ={sigma}"),
            DefenseKind::Rounding { decimals } => format!("round {decimals}dp"),
        }
    }

    /// The temperature the defense's softmax runs at: its own under
    /// [`DefenseKind::Temperature`], 1 under every other defense (noise
    /// and rounding act on the plain softmax's output).
    pub fn softmax_temperature(self) -> f32 {
        match self {
            DefenseKind::Temperature { temperature } => temperature,
            _ => 1.0,
        }
    }

    /// The defense as a model holds it, or nothing for a temperature
    /// outside `(0, 1]` (NaN included): `Temperature { 1.0 }` is `None`.
    pub(crate) fn checked(self) -> Option<Self> {
        match self {
            DefenseKind::Temperature { temperature: 1.0 } => Some(DefenseKind::None),
            DefenseKind::Temperature { temperature: t } if !(t > 0.0 && t < 1.0) => None,
            other => Some(other),
        }
    }
}

impl std::fmt::Display for DefenseKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Noise on a confidence vector, keyed by the query's hash.
pub(crate) fn add_noise(probs: &mut [f32], sigma: f32, seed: u64, query_hash: u64) {
    let mut state = query_hash ^ seed ^ 0x9E37_79B9_7F4A_7C15;
    for p in probs.iter_mut() {
        // xorshift + sum-of-uniforms ≈ gaussian (Irwin–Hall 4).
        let mut acc = 0.0f32;
        for _ in 0..4 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            acc += (state >> 40) as f32 / (1u64 << 24) as f32;
        }
        let noise = (acc - 2.0) * sigma * (3.0f32).sqrt();
        *p = (*p + noise).max(0.0);
    }
    renormalize(probs);
}

/// A confidence vector rounded to `decimals` places.
pub(crate) fn round_to(probs: &mut [f32], decimals: u32) {
    let scale = 10f32.powi(decimals as i32);
    for p in probs.iter_mut() {
        *p = (*p * scale).round() / scale;
    }
    renormalize(probs);
}

fn renormalize(probs: &mut [f32]) {
    let sum: f32 = probs.iter().sum();
    if sum > 0.0 {
        for p in probs.iter_mut() {
            *p /= sum;
        }
    } else if !probs.is_empty() {
        // All mass rounded/clamped away; fall back to uniform.
        probs.fill(1.0 / probs.len() as f32);
    }
}
