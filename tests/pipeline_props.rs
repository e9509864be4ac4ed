//! Property-based tests over the cross-crate pipeline invariants.

use proptest::prelude::*;

use pelican::reduction_in_leakage;
use pelican::stats::{linear_fit, pearson, pearson_p_value};
use pelican_mobility::{
    duration_bin, entry_slot, FeatureSpace, Session, SpatialLevel, DURATION_BINS, ENTRY_SLOTS,
};
use pelican_nn::{softmax_cross_entropy, DefenseKind, ModelEnvelope, SequenceModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn encode_decode_round_trips(
        n_loc in 1usize..40,
        loc_seed in 0usize..1000,
        entry in 0usize..ENTRY_SLOTS,
        dur in 0usize..DURATION_BINS,
        dow in 0usize..7,
    ) {
        let space = FeatureSpace::new(SpatialLevel::Building, n_loc);
        let loc = loc_seed % n_loc;
        let x = space.encode(loc, entry, dur, dow);
        prop_assert_eq!(space.decode(&x), (loc, entry, dur, dow));
    }

    #[test]
    fn discretization_is_total_and_ordered(minutes in 0u32..1440, duration in 0u32..100_000) {
        let slot = entry_slot(minutes);
        prop_assert!(slot < ENTRY_SLOTS);
        let bin = duration_bin(duration);
        prop_assert!(bin < DURATION_BINS);
        // Monotone: longer durations never land in an earlier bin.
        prop_assert!(duration_bin(duration.saturating_add(10)) >= bin);
    }

    #[test]
    fn session_encoding_has_exactly_four_hot_bits(
        building in 0usize..20,
        entry in 0u32..1440,
        duration in 1u32..5000,
        day in 0u32..70,
    ) {
        let space = FeatureSpace::new(SpatialLevel::Building, 20);
        let s = Session { user: 0, building, ap: building, day, entry_minutes: entry, duration_minutes: duration };
        let x = space.encode_session(&s);
        prop_assert_eq!(x.iter().filter(|&&v| v == 1.0).count(), 4);
        prop_assert_eq!(x.iter().filter(|&&v| v != 0.0).count(), 4);
    }

    #[test]
    fn softmax_ce_loss_is_positive_and_grad_sums_to_zero(
        logits in prop::collection::vec(-10.0f32..10.0, 2..20),
        target_seed in 0usize..1000,
    ) {
        let target = target_seed % logits.len();
        let (loss, grad) = softmax_cross_entropy(&logits, target);
        prop_assert!(loss >= 0.0);
        let sum: f32 = grad.iter().sum();
        prop_assert!(sum.abs() < 1e-4);
        prop_assert!(grad[target] <= 0.0, "target logit is pushed up");
    }

    #[test]
    fn model_envelope_round_trips_any_architecture(
        input in 1usize..12,
        hidden in 1usize..12,
        classes in 2usize..8,
        temperature in 1e-4f32..1.0,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = SequenceModel::general_lstm(input, hidden, classes, 0.1, &mut rng);
        model.set_defense(DefenseKind::Temperature { temperature });
        let restored = ModelEnvelope::encode(&model).decode().unwrap();
        let xs = vec![vec![0.25; input]; 2];
        prop_assert_eq!(model.logits(&xs), restored.logits(&xs));
        prop_assert_eq!(model.defense(), restored.defense());
    }

    #[test]
    fn temperature_never_changes_the_argmax(
        input in 2usize..10,
        classes in 2usize..10,
        t in 1e-3f32..1.0,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = SequenceModel::general_lstm(input, 8, classes, 0.0, &mut rng);
        let xs = vec![vec![0.5; input]; 2];
        let before = pelican_tensor::argmax(&model.predict_proba(&xs));
        model.set_defense(DefenseKind::Temperature { temperature: t });
        let after = pelican_tensor::argmax(&model.predict_proba(&xs));
        prop_assert_eq!(before, after);
    }

    #[test]
    fn leakage_reduction_is_bounded(before in 0.0f64..1.0, after in 0.0f64..1.0) {
        let r = reduction_in_leakage(before, after);
        prop_assert!((0.0..=100.0).contains(&r));
        if after >= before {
            prop_assert_eq!(r, 0.0);
        }
    }

    #[test]
    fn pearson_is_bounded_and_scale_invariant(
        xs in prop::collection::vec(-100.0f64..100.0, 3..40),
        scale in 0.1f64..10.0,
        shift in -50.0f64..50.0,
    ) {
        let ys: Vec<f64> = xs.iter().map(|v| v * scale + shift).collect();
        let r = pearson(&xs, &ys);
        prop_assert!((-1.0..=1.0).contains(&r));
        // Positive affine transforms preserve perfect correlation (unless
        // x is constant, where r is defined as 0).
        let x_const = xs.iter().all(|&v| (v - xs[0]).abs() < 1e-9);
        if !x_const {
            // Floating-point cancellation on nearly-constant samples can
            // nudge r below 1; a loose tolerance still catches sign or
            // magnitude bugs.
            prop_assert!(r > 1.0 - 1e-3, "affine transform should give r ≈ 1, got {r}");
        }
        let p = pearson_p_value(r, xs.len());
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn linear_fit_residuals_are_centered(
        pts in prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 2..30),
    ) {
        let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
        let (slope, intercept) = linear_fit(&xs, &ys);
        let mean_residual: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| y - (slope * x + intercept))
            .sum::<f64>()
            / xs.len() as f64;
        prop_assert!(mean_residual.abs() < 1e-6, "OLS residuals sum to zero, got {mean_residual}");
    }
}
