//! The deployable defenses against model inversion: Pelican's own and
//! the comparison defenses (the paper's Table V survey, implemented).
//!
//! Pelican's contribution (§V-B) is an inference-time temperature layer
//! ([`DefenseKind::Temperature`]). The attack of [`pelican_attacks`]
//! thrives on graded confidence scores: each enumerated candidate is
//! scored by how confident the model is in the observed output. Dividing
//! the logits by a temperature `T → 0` between the linear head and the
//! softmax drives the top confidence toward 1 and the rest toward 0, so
//! candidates become indistinguishable and the attack degenerates to the
//! adversary's prior — while the *ranking* of confidences, and hence the
//! service's top-k accuracy, is unchanged (up to floating-point
//! precision). The paper frames the temperature as a privacy tuner the
//! user controls and keeps secret from the service provider.
//!
//! The paper positions it against output-perturbation defenses
//! (MemGuard, Jia et al.; prediction purification, Yang et al.) and
//! precision-limited outputs. This module implements those alternatives
//! as black-box confidence post-processors so experiments can measure,
//! under the *same* attack, each defense's leakage reduction and accuracy
//! cost.

use serde::{Deserialize, Serialize};

use pelican_nn::{Postprocess, SequenceModel};

/// The paper's evaluated defense (Fig. 5a, 5c): the temperature layer at
/// `T = 1e-3`.
pub const PAPER_DEFENSE: DefenseKind = DefenseKind::Temperature { temperature: 1e-3 };

/// The temperatures Fig. 5b sweeps, descending.
pub const PAPER_TEMPERATURES: [f32; 5] = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5];

/// A deployable defense against model-inversion attacks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DefenseKind {
    /// No defense (baseline).
    None,
    /// Pelican's temperature layer (§V-B).
    Temperature {
        /// Privacy temperature in `(0, 1]`.
        temperature: f32,
    },
    /// MemGuard-style output perturbation: additive noise on confidences.
    OutputNoise {
        /// Noise standard deviation.
        sigma: f32,
    },
    /// Precision truncation: round confidences to `decimals` places.
    Rounding {
        /// Decimal places kept.
        decimals: u32,
    },
}

impl DefenseKind {
    /// Installs the defense on a model (inference behaviour only),
    /// replacing whatever defense it carried.
    ///
    /// # Panics
    ///
    /// Panics on a [`DefenseKind::Temperature`] outside `(0, 1]`.
    pub fn apply(self, model: &mut SequenceModel) {
        match self {
            DefenseKind::None => {
                model.set_temperature(1.0);
                model.set_postprocess(Postprocess::None);
            }
            DefenseKind::Temperature { temperature } => {
                // Above 1 the layer would *flatten* confidences, leaking
                // their ordering more readily: never what a defense wants.
                assert!(
                    temperature > 0.0 && temperature <= 1.0 && temperature.is_finite(),
                    "privacy temperature must be in (0, 1], got {temperature}"
                );
                model.set_temperature(temperature);
                model.set_postprocess(Postprocess::None);
            }
            DefenseKind::OutputNoise { sigma } => {
                model.set_temperature(1.0);
                model.set_postprocess(Postprocess::GaussianNoise { sigma, seed: 0x0DD5 });
            }
            DefenseKind::Rounding { decimals } => {
                model.set_temperature(1.0);
                model.set_postprocess(Postprocess::Round { decimals });
            }
        }
    }

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
            DefenseKind::OutputNoise { sigma } => format!("output noise σ={sigma}"),
            DefenseKind::Rounding { decimals } => format!("round {decimals}dp"),
        }
    }

    /// The comparison suite used by the `defense-compare` experiment.
    pub fn comparison_suite() -> Vec<DefenseKind> {
        vec![
            DefenseKind::None,
            PAPER_DEFENSE,
            DefenseKind::OutputNoise { sigma: 0.05 },
            DefenseKind::OutputNoise { sigma: 0.2 },
            DefenseKind::Rounding { decimals: 1 },
        ]
    }
}

impl std::fmt::Display for DefenseKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Percentage reduction in privacy leakage (the y-axis of Fig. 5):
/// `100 · (before − after) / before`, clamped below at 0.
///
/// `before` and `after` are attack accuracies (in `[0, 1]`) without and
/// with the defense. Returns 0 when `before` is 0 (nothing leaked to begin
/// with).
pub fn reduction_in_leakage(before: f64, after: f64) -> f64 {
    if before <= 0.0 {
        return 0.0;
    }
    (100.0 * (before - after) / before).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelican_nn::metrics::evaluate_top_k;
    use pelican_nn::Sample;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    fn model_and_samples() -> (SequenceModel, Vec<Sample>) {
        let mut rng = StdRng::seed_from_u64(5);
        let model = SequenceModel::general_lstm(8, 12, 6, 0.0, &mut rng);
        let samples = (0..30)
            .map(|_| {
                let c = rng.random_range(0..6);
                let mut x = vec![0.0; 8];
                x[c] = 1.0;
                Sample::new(vec![x.clone(), x], c)
            })
            .collect();
        (model, samples)
    }

    #[test]
    fn temperature_defense_preserves_accuracy_exactly() {
        let (model, samples) = model_and_samples();
        let baseline = evaluate_top_k(&model, &samples, &[1, 3]);
        let mut defended = model.clone();
        DefenseKind::Temperature { temperature: 1e-2 }.apply(&mut defended);
        let after = evaluate_top_k(&defended, &samples, &[1, 3]);
        assert_eq!(baseline.accuracy(1), after.accuracy(1));
        assert_eq!(baseline.accuracy(3), after.accuracy(3));
    }

    #[test]
    fn noise_defense_perturbs_confidences() {
        let (model, samples) = model_and_samples();
        let mut defended = model.clone();
        DefenseKind::OutputNoise { sigma: 0.1 }.apply(&mut defended);
        let before = model.predict_proba(&samples[0].xs);
        let after = defended.predict_proba(&samples[0].xs);
        assert_ne!(before, after);
        assert!((after.iter().sum::<f32>() - 1.0).abs() < 1e-4, "still a distribution");
    }

    #[test]
    fn noise_is_deterministic_per_query() {
        let (model, samples) = model_and_samples();
        let mut defended = model.clone();
        DefenseKind::OutputNoise { sigma: 0.1 }.apply(&mut defended);
        let a = defended.predict_proba(&samples[0].xs);
        let b = defended.predict_proba(&samples[0].xs);
        assert_eq!(a, b, "repeating a query must not let the adversary average the noise away");
        let other = samples
            .iter()
            .find(|s| s.xs != samples[0].xs)
            .expect("samples contain at least two distinct inputs");
        let c = defended.predict_proba(&other.xs);
        assert_ne!(a, c, "different queries draw different noise");
    }

    #[test]
    fn rounding_coarsens_confidences() {
        let (model, samples) = model_and_samples();
        let mut defended = model.clone();
        DefenseKind::Rounding { decimals: 1 }.apply(&mut defended);
        let p = defended.predict_proba(&samples[0].xs);
        // After rounding to one decimal, at most 11 distinct raw values
        // exist (0.0, 0.1, …, 1.0); renormalization rescales but cannot
        // increase the number of distinct confidence levels.
        let mut distinct: Vec<u32> = p.iter().map(|v| v.to_bits()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() <= 11, "rounding must coarsen the confidence alphabet");
        let baseline = model.predict_proba(&samples[0].xs);
        assert_ne!(baseline, p, "defense must actually change the outputs");
    }

    #[test]
    fn ranking_preservation_flags() {
        assert!(DefenseKind::None.preserves_ranking());
        assert!(PAPER_DEFENSE.preserves_ranking());
        assert!(!DefenseKind::OutputNoise { sigma: 0.1 }.preserves_ranking());
        assert!(!DefenseKind::Rounding { decimals: 1 }.preserves_ranking());
    }

    #[test]
    fn apply_sets_model_temperature() {
        let (mut model, _) = model_and_samples();
        DefenseKind::Temperature { temperature: 1e-2 }.apply(&mut model);
        assert_eq!(model.temperature(), 1e-2);
        DefenseKind::None.apply(&mut model);
        assert_eq!(model.temperature(), 1.0);
    }

    #[test]
    fn sharpening_preserves_top1_and_concentrates_mass() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = SequenceModel::general_lstm(6, 8, 4, 0.0, &mut rng);
        let xs = vec![vec![0.4; 6], vec![-0.1; 6]];
        let before = model.predict_proba(&xs);
        PAPER_DEFENSE.apply(&mut model);
        let after = model.predict_proba(&xs);
        assert_eq!(pelican_tensor::argmax(&before), pelican_tensor::argmax(&after));
        let max_after = after.iter().cloned().fold(0.0f32, f32::max);
        assert!(max_after > 0.999, "defense concentrates confidence, got {max_after}");
    }

    #[test]
    #[should_panic(expected = "privacy temperature")]
    fn rejects_flattening_temperatures() {
        let (mut model, _) = model_and_samples();
        DefenseKind::Temperature { temperature: 2.0 }.apply(&mut model);
    }

    #[test]
    fn paper_sweep_is_descending() {
        assert!(PAPER_TEMPERATURES.windows(2).all(|pair| pair[0] > pair[1]));
        assert!(PAPER_TEMPERATURES
            .iter()
            .any(|&temperature| DefenseKind::Temperature { temperature } == PAPER_DEFENSE));
    }

    #[test]
    fn reduction_formula_matches_paper_units() {
        assert_eq!(reduction_in_leakage(0.8, 0.4), 50.0);
        assert_eq!(reduction_in_leakage(0.0, 0.5), 0.0);
        assert_eq!(reduction_in_leakage(0.5, 0.7), 0.0, "clamped at zero");
        assert!((reduction_in_leakage(0.776, 0.19) - 75.515).abs() < 0.1);
    }

    #[test]
    fn apply_none_clears_previous_defense() {
        let (model, samples) = model_and_samples();
        let mut m = model.clone();
        DefenseKind::OutputNoise { sigma: 0.3 }.apply(&mut m);
        DefenseKind::None.apply(&mut m);
        assert_eq!(m.predict_proba(&samples[0].xs), model.predict_proba(&samples[0].xs));
    }
}
