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
//! precision-limited outputs. [`DefenseKind`] (defined in `pelican_nn`,
//! where a model carries one) names those alternatives beside the
//! temperature, so experiments can measure, under the *same* attack, each
//! defense's leakage reduction and accuracy cost.

pub use pelican_nn::DefenseKind;

/// The paper's evaluated defense (Fig. 5a, 5c): the temperature layer at
/// `T = 1e-3`.
pub const PAPER_DEFENSE: DefenseKind = DefenseKind::Temperature { temperature: 1e-3 };

/// The temperatures Fig. 5b sweeps, descending.
pub const PAPER_TEMPERATURES: [f32; 5] = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5];

/// The seed the comparison suite's output noise is keyed by.
const COMPARISON_NOISE_SEED: u64 = 0x0DD5;

/// The comparison suite used by the `defense-compare` experiment.
pub const COMPARISON_SUITE: [DefenseKind; 5] = [
    DefenseKind::None,
    PAPER_DEFENSE,
    DefenseKind::OutputNoise { sigma: 0.05, seed: COMPARISON_NOISE_SEED },
    DefenseKind::OutputNoise { sigma: 0.2, seed: COMPARISON_NOISE_SEED },
    DefenseKind::Rounding { decimals: 1 },
];

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
    use pelican_nn::{Sample, SequenceModel};
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
        defended.set_defense(DefenseKind::Temperature { temperature: 1e-2 });
        let after = evaluate_top_k(&defended, &samples, &[1, 3]);
        assert_eq!(baseline.accuracy(1), after.accuracy(1));
        assert_eq!(baseline.accuracy(3), after.accuracy(3));
    }

    #[test]
    fn noise_defense_perturbs_confidences() {
        let (model, samples) = model_and_samples();
        let mut defended = model.clone();
        defended.set_defense(DefenseKind::OutputNoise { sigma: 0.1, seed: COMPARISON_NOISE_SEED });
        let before = model.predict_proba(&samples[0].xs);
        let after = defended.predict_proba(&samples[0].xs);
        assert_ne!(before, after);
        assert!((after.iter().sum::<f32>() - 1.0).abs() < 1e-4, "still a distribution");
    }

    #[test]
    fn noise_is_deterministic_per_query() {
        let (model, samples) = model_and_samples();
        let mut defended = model.clone();
        defended.set_defense(DefenseKind::OutputNoise { sigma: 0.1, seed: COMPARISON_NOISE_SEED });
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
        defended.set_defense(DefenseKind::Rounding { decimals: 1 });
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
        assert!(!DefenseKind::OutputNoise { sigma: 0.1, seed: COMPARISON_NOISE_SEED }
            .preserves_ranking());
        assert!(!DefenseKind::Rounding { decimals: 1 }.preserves_ranking());
    }

    #[test]
    fn apply_sets_model_temperature() {
        let (mut model, _) = model_and_samples();
        model.set_defense(DefenseKind::Temperature { temperature: 1e-2 });
        assert_eq!(model.defense(), DefenseKind::Temperature { temperature: 1e-2 });
        model.set_defense(DefenseKind::Temperature { temperature: 1.0 });
        assert_eq!(model.defense(), DefenseKind::None, "T = 1 is no defense");
    }

    #[test]
    fn sharpening_preserves_top1_and_concentrates_mass() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = SequenceModel::general_lstm(6, 8, 4, 0.0, &mut rng);
        let xs = vec![vec![0.4; 6], vec![-0.1; 6]];
        let before = model.predict_proba(&xs);
        model.set_defense(PAPER_DEFENSE);
        let after = model.predict_proba(&xs);
        assert_eq!(pelican_tensor::argmax(&before), pelican_tensor::argmax(&after));
        let max_after = after.iter().cloned().fold(0.0f32, f32::max);
        assert!(max_after > 0.999, "defense concentrates confidence, got {max_after}");
    }

    #[test]
    #[should_panic(expected = "privacy temperature")]
    fn rejects_flattening_temperatures() {
        let (mut model, _) = model_and_samples();
        model.set_defense(DefenseKind::Temperature { temperature: 2.0 });
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
        m.set_defense(DefenseKind::OutputNoise { sigma: 0.3, seed: COMPARISON_NOISE_SEED });
        m.set_defense(DefenseKind::None);
        assert_eq!(m.predict_proba(&samples[0].xs), model.predict_proba(&samples[0].xs));
    }
}
