//! Classification losses.

use pelican_tensor::log_softmax_in_place;

/// Combined softmax + cross-entropy loss for a single sample.
///
/// Returns `(loss, dlogits)` where `dlogits = softmax(logits) − onehot(target)`,
/// the numerically-stable fused gradient. Fusing the two avoids the
/// catastrophic cancellation of differentiating through an explicit softmax.
/// A NaN loss is always `f32::NAN`, whatever the sign of the NaN that
/// produced it.
///
/// # Panics
///
/// Panics if `target >= logits.len()` or `logits` is empty.
///
/// # Example
///
/// ```
/// let (loss, grad) = pelican_nn::softmax_cross_entropy(&[2.0, 0.0, 0.0], 0);
/// assert!(loss < 0.5, "confident correct prediction has low loss");
/// assert!(grad[0] < 0.0, "gradient pushes the target logit up");
/// ```
pub fn softmax_cross_entropy(logits: &[f32], target: usize) -> (f32, Vec<f32>) {
    assert!(!logits.is_empty(), "cannot compute a loss over zero classes");
    assert!(target < logits.len(), "target {target} out of range for {} classes", logits.len());
    let mut log_probs = logits.to_vec();
    log_softmax_in_place(&mut log_probs);
    let loss = -log_probs[target];
    // IEEE 754 leaves a generated NaN's sign to the operations that made
    // it, and the packed and per-sample paths reach a non-finite loss by
    // different ones: report one NaN, so both paths agree bit for bit.
    let loss = if loss.is_nan() { f32::NAN } else { loss };
    let mut grad: Vec<f32> = log_probs.iter().map(|&lp| lp.exp()).collect();
    grad[target] -= 1.0;
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_n_loss() {
        let (loss, _) = softmax_cross_entropy(&[0.0; 4], 2);
        assert!((loss - 4.0_f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_sums_to_zero() {
        let (_, grad) = softmax_cross_entropy(&[1.0, -2.0, 0.5, 3.0], 1);
        let sum: f32 = grad.iter().sum();
        assert!(sum.abs() < 1e-5, "softmax−onehot gradient sums to 0, got {sum}");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = [0.3, -0.7, 1.2];
        let target = 2;
        let (_, grad) = softmax_cross_entropy(&logits, target);
        let eps = 1e-3;
        for j in 0..3 {
            let mut plus = logits;
            plus[j] += eps;
            let mut minus = logits;
            minus[j] -= eps;
            let fd = (softmax_cross_entropy(&plus, target).0
                - softmax_cross_entropy(&minus, target).0)
                / (2.0 * eps);
            assert!((grad[j] - fd).abs() < 1e-3, "dim {j}: {} vs {fd}", grad[j]);
        }
    }

    #[test]
    fn confident_wrong_prediction_has_high_loss() {
        let (loss, _) = softmax_cross_entropy(&[10.0, 0.0], 1);
        assert!(loss > 9.0);
    }

    #[test]
    fn a_nan_loss_is_the_one_canonical_nan() {
        for logits in [[f32::NAN, 0.0], [f32::INFINITY, 0.0]] {
            let (loss, _) = softmax_cross_entropy(&logits, 0);
            assert_eq!(loss.to_bits(), f32::NAN.to_bits(), "logits {logits:?}: loss {loss}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_target() {
        let _ = softmax_cross_entropy(&[0.0, 0.0], 2);
    }
}
