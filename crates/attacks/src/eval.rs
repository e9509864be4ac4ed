//! Attack evaluation: aggregate top-k attack accuracy, query and time cost.

use std::time::{Duration, Instant};

use pelican_mobility::FeatureSpace;

use crate::adversary::Instance;
use crate::methods::AttackMethod;
use crate::oracle::BlackBox;
use crate::prior::Prior;

/// Aggregated result of running one attack over many instances.
///
/// "Attack accuracy is defined as the percentage of historical locations
/// correctly identified" (§IV-B), evaluated at several top-k cutoffs.
#[derive(Debug, Clone)]
pub struct AttackEvaluation {
    ks: Vec<usize>,
    hits: Vec<usize>,
    /// Number of attacked instances.
    pub total: usize,
    /// Wall-clock time spent inside attack runs.
    pub elapsed: Duration,
    /// Total black-box model queries issued.
    pub queries: u64,
}

impl AttackEvaluation {
    /// Attack accuracy at `k` (fraction in `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `k` was not evaluated.
    pub fn accuracy(&self, k: usize) -> f64 {
        let slot = self
            .ks
            .iter()
            .position(|&x| x == k)
            .unwrap_or_else(|| panic!("k={k} not evaluated (have {:?})", self.ks));
        if self.total == 0 {
            0.0
        } else {
            self.hits[slot] as f64 / self.total as f64
        }
    }

    /// Mean model queries per instance.
    pub fn queries_per_instance(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.queries as f64 / self.total as f64
        }
    }

    /// Merges another evaluation (e.g. a different user) into this one.
    ///
    /// # Panics
    ///
    /// Panics if the k grids differ.
    pub fn merge(&mut self, other: &AttackEvaluation) {
        assert_eq!(self.ks, other.ks, "cannot merge evaluations over different k grids");
        for (h, o) in self.hits.iter_mut().zip(&other.hits) {
            *h += o;
        }
        self.total += other.total;
        self.elapsed += other.elapsed;
        self.queries += other.queries;
    }

    /// An empty evaluation over a k grid, for accumulating merges.
    pub fn empty(ks: &[usize]) -> Self {
        Self {
            ks: ks.to_vec(),
            hits: vec![0; ks.len()],
            total: 0,
            elapsed: Duration::ZERO,
            queries: 0,
        }
    }
}

/// Runs `method` against every instance and aggregates top-k accuracy.
///
/// `interest` is the pre-computed locations-of-interest set (see
/// [`crate::interest_locations`]); brute force and gradient descent ignore
/// it. `model` is any [`BlackBox`] oracle — a plain
/// [`pelican_nn::SequenceModel`] or a cached wrapper
/// ([`crate::CachedBlackBox`]).
pub fn evaluate_attack<M: BlackBox>(
    method: &AttackMethod,
    model: &mut M,
    space: &FeatureSpace,
    prior: &Prior,
    interest: &[usize],
    instances: &[Instance],
    ks: &[usize],
) -> AttackEvaluation {
    let mut eval = AttackEvaluation::empty(ks);
    let start = Instant::now();
    for inst in instances {
        let (ranking, queries) = method.run(model, space, prior, interest, inst);
        eval.queries += queries;
        let truth = space.location_of(&inst.truth);
        for (slot, &k) in eval.ks.clone().iter().enumerate() {
            if ranking.hit(truth, k) {
                eval.hits[slot] += 1;
            }
        }
        eval.total += 1;
    }
    eval.elapsed = start.elapsed();
    eval
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Adversary;
    use crate::methods::TimeBased;
    use pelican_mobility::{Session, SpatialLevel};
    use pelican_nn::SequenceModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instances(space: &FeatureSpace, n: usize) -> Vec<Instance> {
        (0..n)
            .map(|i| {
                let mk = |b: usize, e: u32| Session {
                    user: 0,
                    building: b % space.n_locations,
                    ap: b % space.n_locations,
                    day: 1,
                    entry_minutes: e,
                    duration_minutes: 45,
                };
                let triple = [mk(i, 500), mk(i + 1, 550), mk(i + 2, 600)];
                Adversary::A1.instance(&triple, space.location_of(&triple[2]))
            })
            .collect()
    }

    #[test]
    fn evaluation_counts_and_merges() {
        let space = FeatureSpace::new(SpatialLevel::Building, 6);
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = SequenceModel::general_lstm(space.dim(), 8, 6, 0.0, &mut rng);
        let prior = Prior::uniform(6);
        let interest: Vec<usize> = (0..6).collect();
        let method = AttackMethod::TimeBased(TimeBased::default());
        let insts = instances(&space, 4);
        let mut a =
            evaluate_attack(&method, &mut model, &space, &prior, &interest, &insts[..2], &[1, 3]);
        let b =
            evaluate_attack(&method, &mut model, &space, &prior, &interest, &insts[2..], &[1, 3]);
        a.merge(&b);
        assert_eq!(a.total, 4);
        assert!(a.queries > 0);
        assert!(a.accuracy(3) >= a.accuracy(1), "top-k accuracy is monotone");
        assert!(a.queries_per_instance() > 0.0);
    }

    #[test]
    #[should_panic(expected = "not evaluated")]
    fn unknown_k_panics() {
        AttackEvaluation::empty(&[1]).accuracy(5);
    }

    #[test]
    #[should_panic(expected = "different k grids")]
    fn merge_requires_same_grid() {
        let mut a = AttackEvaluation::empty(&[1]);
        let b = AttackEvaluation::empty(&[2]);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "different k grids")]
    fn merge_rejects_disjoint_k_grids_even_with_equal_lengths() {
        // Same grid *length* is not enough — the slots would silently
        // aggregate accuracies at different cutoffs.
        let mut a = AttackEvaluation::empty(&[1, 3]);
        let b = AttackEvaluation::empty(&[1, 5]);
        a.merge(&b);
    }

    #[test]
    fn merging_an_empty_evaluation_is_identity() {
        let space = FeatureSpace::new(SpatialLevel::Building, 6);
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = SequenceModel::general_lstm(space.dim(), 8, 6, 0.0, &mut rng);
        let prior = Prior::uniform(6);
        let interest: Vec<usize> = (0..6).collect();
        let method = AttackMethod::TimeBased(TimeBased::default());
        let insts = instances(&space, 3);
        let real = evaluate_attack(&method, &mut model, &space, &prior, &interest, &insts, &[1, 3]);

        let mut merged = real.clone();
        merged.merge(&AttackEvaluation::empty(&[1, 3]));
        assert_eq!(merged.total, real.total);
        assert_eq!(merged.queries, real.queries);
        assert_eq!(merged.accuracy(1), real.accuracy(1));
        assert_eq!(merged.accuracy(3), real.accuracy(3));

        // And the other direction: accumulating into an empty evaluation
        // (the attack_all pattern) reproduces the original exactly.
        let mut acc = AttackEvaluation::empty(&[1, 3]);
        acc.merge(&real);
        assert_eq!(acc.total, real.total);
        assert_eq!(acc.accuracy(1), real.accuracy(1));
    }

    #[test]
    fn empty_evaluations_report_zero_not_nan() {
        let empty = AttackEvaluation::empty(&[1, 3]);
        assert_eq!(empty.total, 0);
        assert_eq!(empty.accuracy(1), 0.0);
        assert_eq!(empty.queries_per_instance(), 0.0);
        let mut a = AttackEvaluation::empty(&[1, 3]);
        a.merge(&empty);
        assert_eq!(a.total, 0);
        assert_eq!(a.accuracy(3), 0.0);
    }

    #[test]
    fn merge_accounts_queries_and_weighted_accuracy() {
        let space = FeatureSpace::new(SpatialLevel::Building, 6);
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = SequenceModel::general_lstm(space.dim(), 8, 6, 0.0, &mut rng);
        let prior = Prior::uniform(6);
        let interest: Vec<usize> = (0..6).collect();
        let method = AttackMethod::TimeBased(TimeBased::default());
        let insts = instances(&space, 6);

        let parts: Vec<AttackEvaluation> = insts
            .chunks(2)
            .map(|c| evaluate_attack(&method, &mut model, &space, &prior, &interest, c, &[1, 3]))
            .collect();
        let whole =
            evaluate_attack(&method, &mut model, &space, &prior, &interest, &insts, &[1, 3]);

        let mut merged = AttackEvaluation::empty(&[1, 3]);
        for part in &parts {
            merged.merge(part);
        }
        assert_eq!(merged.total, whole.total);
        assert_eq!(merged.queries, parts.iter().map(|p| p.queries).sum::<u64>());
        assert_eq!(merged.queries, whole.queries, "splitting instances costs no extra queries");
        // Hit counts (and therefore accuracies over the same total) add up.
        assert_eq!(merged.accuracy(1), whole.accuracy(1));
        assert_eq!(merged.accuracy(3), whole.accuracy(3));
        assert_eq!(
            merged.queries_per_instance(),
            whole.queries_per_instance(),
            "per-instance cost is merge-invariant"
        );
    }
}
