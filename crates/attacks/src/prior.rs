//! Priors over the sensitive variable (Fig. 2c).
//!
//! The inversion attack weights model confidence by the marginal
//! probability of the sensitive location. The paper studies four ways an
//! adversary might come by that prior: the *true* marginals, no prior at
//! all, a *predicted* prior (observe the black-box model's outputs for a
//! while and average), and an *estimated* prior (know only the most
//! probable value; put 75% mass there).

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use serde::{Deserialize, Serialize};

use pelican_mobility::{FeatureSpace, Session};
use pelican_nn::SequenceModel;
use pelican_tensor::descending;

use crate::adversary::Instance;

/// How the adversary obtained its prior (§IV-B3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PriorKind {
    /// True empirical marginals of the sensitive variable.
    True,
    /// No prior: uniform weighting.
    None,
    /// Observe model outputs for a while and average the confidences.
    Predict,
    /// Know the most probable value only; assign it 75% and spread the rest.
    Estimate,
}

impl std::fmt::Display for PriorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            PriorKind::True => "true",
            PriorKind::None => "none",
            PriorKind::Predict => "predict",
            PriorKind::Estimate => "estimate",
        };
        write!(f, "{name}")
    }
}

/// Probes a [`PriorKind::Predict`] prior averages the answers over.
const PREDICT_PROBES: usize = 32;

impl PriorKind {
    /// FLOPs building this kind of prior against `model` costs beside the
    /// attack's oracle: a predicted prior asks its 32 two-step probes
    /// uncached; the others ask nothing.
    pub fn cost(self, model: &SequenceModel) -> u64 {
        match self {
            PriorKind::Predict => model.infer_cost(2 * PREDICT_PROBES, PREDICT_PROBES),
            PriorKind::True | PriorKind::None | PriorKind::Estimate => 0,
        }
    }
}

/// A marginal distribution over location classes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prior {
    probs: Vec<f64>,
}

impl Prior {
    /// A uniform prior over `n` locations — the "none" condition.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "need at least one location");
        Self { probs: vec![1.0 / n as f64; n] }
    }

    /// The true empirical marginals of hidden-step locations in the user's
    /// history.
    ///
    /// Unvisited locations receive a small floor (rather than zero) so the
    /// attack's prior-weighted score never hard-excludes a location; the
    /// floor is one tenth of a uniform cell.
    pub fn from_history(space: &FeatureSpace, sessions: &[Session]) -> Self {
        let n = space.n_locations;
        let floor = 0.1 / n as f64;
        let mut counts = vec![floor; n];
        for s in sessions {
            counts[space.location_of(s)] += 1.0;
        }
        Self::normalized(counts)
    }

    /// The "predict" prior: query the black-box model on `probes` and
    /// average its confidence vectors.
    fn predicted(model: &SequenceModel, probes: &[Vec<Vec<f32>>]) -> Self {
        assert!(!probes.is_empty(), "need at least one probe input");
        let n = model.output_dim();
        let mut sums = vec![0.0f64; n];
        for xs in probes {
            for (s, &p) in sums.iter_mut().zip(model.predict_proba(xs).iter()) {
                *s += p as f64;
            }
        }
        Self::normalized(sums)
    }

    /// The "estimate" prior: 75% mass on the most probable location (taken
    /// from `reference`, e.g. the true prior), remainder spread equally.
    fn estimated(reference: &Prior) -> Self {
        let n = reference.probs.len();
        let top = reference.argmax();
        let mut probs = vec![0.25 / (n.saturating_sub(1)).max(1) as f64; n];
        probs[top] = 0.75;
        Self { probs }
    }

    /// Builds the prior of a given kind for one user's attack setting.
    ///
    /// `history` is the user's training sessions (true marginals);
    /// `model` answers, and `probe_seed` drives, the random probes of a
    /// [`PriorKind::Predict`] prior, which no other kind reads.
    ///
    /// # Panics
    ///
    /// Panics on [`PriorKind::Predict`] without a model.
    pub fn of_kind(
        kind: PriorKind,
        space: &FeatureSpace,
        history: &[Session],
        model: Option<&SequenceModel>,
        probe_seed: u64,
    ) -> Self {
        match kind {
            PriorKind::True => Self::from_history(space, history),
            PriorKind::None => Self::uniform(space.n_locations),
            PriorKind::Predict => {
                let model = model.expect("a predicted prior needs the model under attack");
                let probes = random_probes(space, PREDICT_PROBES, probe_seed);
                Self::predicted(model, &probes)
            }
            PriorKind::Estimate => Self::estimated(&Self::from_history(space, history)),
        }
    }

    fn normalized(mut probs: Vec<f64>) -> Self {
        let sum: f64 = probs.iter().sum();
        assert!(sum > 0.0, "cannot normalize an all-zero prior");
        for p in &mut probs {
            *p /= sum;
        }
        Self { probs }
    }

    /// Probability of location `l`.
    pub fn prob(&self, l: usize) -> f64 {
        self.probs[l]
    }

    /// Number of location classes.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether the prior covers zero locations (never true after build).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Most probable location.
    pub fn argmax(&self) -> usize {
        self.probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("priors are finite"))
            .map(|(i, _)| i)
            .expect("nonempty prior")
    }

    /// Borrows the raw probabilities.
    pub fn as_slice(&self) -> &[f64] {
        &self.probs
    }
}

/// Fraction of instances whose true location sits in the prior's top-k —
/// what an adversary scores *without ever querying the model*. Locations
/// rank in [`pelican_tensor::descending`] order of probability, so ties
/// at the cutoff keep the lowest location indices, as
/// [`crate::truncate_top_k`] does.
pub fn prior_hit_rate(
    prior: &Prior,
    space: &FeatureSpace,
    instances: &[Instance],
    k: usize,
) -> f64 {
    if instances.is_empty() {
        return 0.0;
    }
    let mut order: Vec<usize> = (0..prior.len()).collect();
    order.sort_by(|&a, &b| descending(&prior.prob(a), &prior.prob(b)));
    let top = &order[..k.min(order.len())];
    let hits =
        instances.iter().filter(|inst| top.contains(&space.location_of(&inst.truth))).count();
    hits as f64 / instances.len() as f64
}

/// Generates random plausible probe inputs for black-box interrogation.
pub fn random_probes(space: &FeatureSpace, count: usize, seed: u64) -> Vec<Vec<Vec<f32>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let step = |rng: &mut StdRng| {
                space.encode(
                    rng.random_range(0..space.n_locations),
                    rng.random_range(0..pelican_mobility::ENTRY_SLOTS),
                    rng.random_range(0..pelican_mobility::DURATION_BINS),
                    rng.random_range(0..7),
                )
            };
            vec![step(&mut rng), step(&mut rng)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Adversary;
    use pelican_mobility::SpatialLevel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> FeatureSpace {
        FeatureSpace::new(SpatialLevel::Building, 6)
    }

    fn sessions(buildings: &[usize]) -> Vec<Session> {
        buildings
            .iter()
            .map(|&b| Session {
                user: 0,
                building: b,
                ap: b,
                day: 0,
                entry_minutes: 60,
                duration_minutes: 30,
            })
            .collect()
    }

    #[test]
    fn uniform_sums_to_one() {
        let p = Prior::uniform(6);
        assert!((p.as_slice().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(p.prob(0), p.prob(5));
    }

    #[test]
    fn history_prior_tracks_frequencies() {
        let p = Prior::from_history(&space(), &sessions(&[2, 2, 2, 4]));
        assert_eq!(p.argmax(), 2);
        assert!(p.prob(2) > p.prob(4));
        assert!(p.prob(4) > p.prob(0), "visited beats unvisited");
        assert!(p.prob(0) > 0.0, "floor keeps unvisited locations alive");
    }

    #[test]
    fn estimate_concentrates_on_top() {
        let truth = Prior::from_history(&space(), &sessions(&[1, 1, 3]));
        let est = Prior::estimated(&truth);
        assert_eq!(est.argmax(), 1);
        assert!((est.prob(1) - 0.75).abs() < 1e-12);
        let rest: f64 = (0..6).filter(|&i| i != 1).map(|i| est.prob(i)).sum();
        assert!((rest - 0.25).abs() < 1e-12);
    }

    #[test]
    fn predicted_prior_is_a_distribution() {
        let sp = space();
        let mut rng = StdRng::seed_from_u64(0);
        let model = SequenceModel::general_lstm(sp.dim(), 8, sp.n_locations, 0.0, &mut rng);
        let probes = random_probes(&sp, 8, 1);
        let p = Prior::predicted(&model, &probes);
        assert_eq!(p.len(), 6);
        assert!((p.as_slice().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prior_hit_rate_ranks_ties_low_index_first() {
        let space = FeatureSpace::new(SpatialLevel::Building, 4);
        let mk = |b: usize| Session {
            user: 0,
            building: b,
            ap: b,
            day: 1,
            entry_minutes: 600,
            duration_minutes: 30,
        };
        // A1 reconstructs the *middle* step, so vary that one.
        let instances: Vec<Instance> =
            (0..4).map(|b| Adversary::A1.instance(&[mk(0), mk(b), mk(3)], 3)).collect();
        // Uniform prior: top-2 under low-index tie-breaking is {0, 1}.
        let uniform = Prior::uniform(4);
        assert_eq!(prior_hit_rate(&uniform, &space, &instances, 2), 0.5);
        assert_eq!(prior_hit_rate(&uniform, &space, &instances, 4), 1.0);
        assert_eq!(prior_hit_rate(&uniform, &space, &[], 2), 0.0);
        // A history concentrated on location 3 pulls it into the top-1.
        let history: Vec<Session> = (0..6).map(|_| mk(3)).collect();
        let skewed = Prior::from_history(&space, &history);
        assert_eq!(prior_hit_rate(&skewed, &space, &instances[3..], 1), 1.0);
    }

    #[test]
    fn probes_have_model_shape() {
        let sp = space();
        let probes = random_probes(&sp, 3, 9);
        assert_eq!(probes.len(), 3);
        for p in &probes {
            assert_eq!(p.len(), 2);
            assert_eq!(p[0].len(), sp.dim());
        }
    }
}
