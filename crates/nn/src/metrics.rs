//! Evaluation metrics.
//!
//! The paper reports **top-k accuracy** everywhere: "identify the top-k most
//! likely locations from the model output and assess whether the true
//! location is a subset of that" (§IV-A).

use crate::{Sample, SequenceModel};

/// Accumulates top-k accuracy for several `k` values in one pass over a
/// dataset.
///
/// # Example
///
/// ```
/// use pelican_nn::TopKAccuracy;
///
/// let mut acc = TopKAccuracy::new(&[1, 3]);
/// acc.observe(&[0.1, 0.8, 0.1], 1); // top-1 hit
/// acc.observe(&[0.5, 0.3, 0.2], 2); // top-3 hit only
/// assert_eq!(acc.accuracy(1), 0.5);
/// assert_eq!(acc.accuracy(3), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct TopKAccuracy {
    ks: Vec<usize>,
    hits: Vec<usize>,
    total: usize,
}

impl TopKAccuracy {
    /// Creates an accumulator for the given `k` values.
    ///
    /// # Panics
    ///
    /// Panics if `ks` is empty or contains 0.
    pub fn new(ks: &[usize]) -> Self {
        assert!(!ks.is_empty(), "need at least one k");
        assert!(ks.iter().all(|&k| k > 0), "k values must be positive");
        Self { ks: ks.to_vec(), hits: vec![0; ks.len()], total: 0 }
    }

    /// Records one sample's scores and true class.
    pub fn observe(&mut self, scores: &[f32], target: usize) {
        let max_k = *self.ks.iter().max().expect("ks nonempty");
        let ranked = pelican_tensor::top_k(scores, max_k);
        for (slot, &k) in self.ks.iter().enumerate() {
            if ranked.iter().take(k).any(|&c| c == target) {
                self.hits[slot] += 1;
            }
        }
        self.total += 1;
    }

    /// Accuracy at `k`, or 0 when nothing was observed.
    ///
    /// # Panics
    ///
    /// Panics if `k` was not registered at construction.
    pub fn accuracy(&self, k: usize) -> f64 {
        let slot = self
            .ks
            .iter()
            .position(|&x| x == k)
            .unwrap_or_else(|| panic!("k={k} was not registered (have {:?})", self.ks));
        if self.total == 0 {
            0.0
        } else {
            self.hits[slot] as f64 / self.total as f64
        }
    }

    /// Number of samples observed.
    pub fn total(&self) -> usize {
        self.total
    }
}

/// Evaluates a model's top-k accuracy on labelled samples using its
/// (temperature-scaled) confidence scores.
pub fn evaluate_top_k(model: &SequenceModel, samples: &[Sample], ks: &[usize]) -> TopKAccuracy {
    let mut acc = TopKAccuracy::new(ks);
    for s in samples {
        let p = model.predict_proba(&s.xs);
        acc.observe(&p, s.target);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_accuracy_basics() {
        let mut acc = TopKAccuracy::new(&[1, 2, 3]);
        acc.observe(&[0.9, 0.1, 0.0], 0); // top-1 hit
        acc.observe(&[0.1, 0.2, 0.7], 1); // top-2 hit
        acc.observe(&[0.5, 0.4, 0.1], 2); // top-3 hit only
        assert!((acc.accuracy(1) - 1.0 / 3.0).abs() < 1e-9);
        assert!((acc.accuracy(2) - 2.0 / 3.0).abs() < 1e-9);
        assert!((acc.accuracy(3) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input_is_zero() {
        let acc = TopKAccuracy::new(&[1]);
        assert_eq!(acc.accuracy(1), 0.0);
    }

    #[test]
    fn accuracy_is_monotone_in_k() {
        let ks = [1, 2, 3, 5];
        let mut acc = TopKAccuracy::new(&ks);
        let scores = [
            (vec![0.4, 0.3, 0.2, 0.05, 0.05], 3),
            (vec![0.4, 0.3, 0.2, 0.05, 0.05], 1),
            (vec![0.4, 0.3, 0.2, 0.05, 0.05], 0),
        ];
        for (s, t) in &scores {
            acc.observe(s, *t);
        }
        let mut prev = 0.0;
        for k in ks {
            let a = acc.accuracy(k);
            assert!(a >= prev, "top-k accuracy must be monotone in k");
            prev = a;
        }
    }

    #[test]
    #[should_panic(expected = "was not registered")]
    fn unregistered_k_panics() {
        TopKAccuracy::new(&[1]).accuracy(2);
    }
}
