//! The black-box query oracle attacks run against, and a logit cache
//! that makes repeated audits of the same weights (e.g. an audit gate
//! climbing a defense ladder) nearly free.
//!
//! The paper's threat model (§III-B) gives the adversary *black-box*
//! access: confidence vectors out, nothing else. [`BlackBox`] captures
//! exactly that interface (plus the input-gradient oracle the
//! gradient-descent attack needs), so attack methods are generic over
//! *what* answers their queries. Queries come in two shapes: a single
//! sequence ([`BlackBox::predict_proba`], the interest probes) and a
//! *sweep* ([`BlackBox::predict_proba_sweep`]) — the enumeration attacks'
//! thousand candidates for one hidden timestep around the same known
//! steps, handed over whole so an oracle holding the model can answer
//! them through [`SequenceModel::logits_sweep`] instead of a thousand
//! forward passes.
//!
//! A plain [`SequenceModel`] is the deployed model; [`CachedBlackBox`]
//! wraps one with a [`LogitCache`] that remembers raw logits per query
//! fingerprint. Defenses ([`pelican_nn::Postprocess`], temperature) only
//! transform the logits→confidence mapping, never the logits, so a cache
//! filled under one defense answers the same queries under *any other
//! defense of the same weights* without a single forward pass — the
//! incremental-audit optimization the training gate's escalation ladder
//! exploits. A cached sweep splits into hits and misses and runs only the
//! misses, as one smaller sweep.

use std::collections::hash_map::{Entry, HashMap};

use pelican_nn::{query_hash, sweep_query_hashes, Sequence, SequenceModel, Step};
use pelican_tensor::Matrix;

/// Black-box (plus gradient-oracle) access to a deployed model.
pub trait BlackBox {
    /// Number of output classes.
    fn output_dim(&self) -> usize;
    /// The deployed confidence vector for a query — what the paper's
    /// adversary observes.
    fn predict_proba(&mut self, xs: &[Step]) -> Step;
    /// The deployed confidence vectors for a sweep of queries: answer `i`
    /// is for `template` with row `i` of `candidates` at timestep `slot`
    /// (`template[slot]` itself is ignored), exactly as if each had been
    /// asked through [`BlackBox::predict_proba`] in row order.
    fn predict_proba_sweep(
        &mut self,
        template: &[Step],
        slot: usize,
        candidates: &Matrix,
    ) -> Vec<Step>;
    /// Input-gradient oracle used by the gradient-descent attack (a
    /// white-box concession the paper also grants that method).
    fn input_gradient(&mut self, xs: &Sequence, target: usize) -> (f32, Sequence);
}

impl BlackBox for SequenceModel {
    fn output_dim(&self) -> usize {
        SequenceModel::output_dim(self)
    }

    fn predict_proba(&mut self, xs: &[Step]) -> Step {
        SequenceModel::predict_proba(self, xs)
    }

    fn predict_proba_sweep(
        &mut self,
        template: &[Step],
        slot: usize,
        candidates: &Matrix,
    ) -> Vec<Step> {
        SequenceModel::predict_proba_sweep(self, template, slot, candidates)
    }

    fn input_gradient(&mut self, xs: &Sequence, target: usize) -> (f32, Sequence) {
        SequenceModel::input_gradient(self, xs, target)
    }
}

/// Raw logits memoized per query fingerprint, with hit/miss accounting.
///
/// Valid across *defense* changes (temperature, post-processing) of one
/// set of weights; any weight update invalidates it — create a fresh
/// cache per candidate model.
#[derive(Debug, Clone, Default)]
pub struct LogitCache {
    logits: HashMap<u64, Step>,
    /// Queries answered from the cache (no forward pass).
    pub hits: u64,
    /// Queries that ran a real forward pass (and filled the cache).
    pub misses: u64,
}

impl LogitCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct queries cached.
    pub fn len(&self) -> usize {
        self.logits.len()
    }

    /// Whether nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.logits.is_empty()
    }
}

/// A [`SequenceModel`] whose query answers are memoized in a
/// [`LogitCache`].
///
/// Cache hits replay the stored logits through the model's *current*
/// confidence pipeline ([`SequenceModel::proba_from_logits`]), so
/// answers are bit-identical to the uncached model under whatever
/// defense is deployed at query time.
#[derive(Debug)]
pub struct CachedBlackBox<'m, 'c> {
    model: &'m mut SequenceModel,
    cache: &'c mut LogitCache,
}

impl<'m, 'c> CachedBlackBox<'m, 'c> {
    /// Wraps a model with a cache. The cache must only ever have seen
    /// queries answered by these exact weights.
    pub fn new(model: &'m mut SequenceModel, cache: &'c mut LogitCache) -> Self {
        Self { model, cache }
    }
}

impl BlackBox for CachedBlackBox<'_, '_> {
    fn output_dim(&self) -> usize {
        self.model.output_dim()
    }

    fn predict_proba(&mut self, xs: &[Step]) -> Step {
        let key = query_hash(xs);
        if let Some(logits) = self.cache.logits.get(&key) {
            self.cache.hits += 1;
            self.model.proba_from_logits(logits.clone(), key)
        } else {
            self.cache.misses += 1;
            let logits = self.model.logits(xs);
            self.cache.logits.insert(key, logits.clone());
            self.model.proba_from_logits(logits, key)
        }
    }

    /// Hits, misses and cache contents end up exactly as the
    /// one-at-a-time loop would leave them: a candidate is a miss the
    /// first time its fingerprint is seen — in the cache or earlier in
    /// this sweep — and a hit after that. Only the misses reach the
    /// model, as one sub-sweep.
    fn predict_proba_sweep(
        &mut self,
        template: &[Step],
        slot: usize,
        candidates: &Matrix,
    ) -> Vec<Step> {
        let keys = sweep_query_hashes(template, slot, candidates);
        let mut missed = Vec::new();
        for (row, &key) in keys.iter().enumerate() {
            // The empty placeholder makes a later duplicate a hit; it is
            // filled before anything reads it.
            if let Entry::Vacant(vacant) = self.cache.logits.entry(key) {
                vacant.insert(Step::new());
                missed.push(row);
            }
        }
        self.cache.misses += missed.len() as u64;
        self.cache.hits += (keys.len() - missed.len()) as u64;
        let mut fresh = Matrix::zeros(missed.len(), candidates.cols());
        for (r, &row) in missed.iter().enumerate() {
            fresh.row_mut(r).copy_from_slice(candidates.row(row));
        }
        for (logits, &row) in
            self.model.logits_sweep(template, slot, &fresh).into_iter().zip(&missed)
        {
            self.cache.logits.insert(keys[row], logits);
        }
        keys.iter()
            .map(|key| self.model.proba_from_logits(self.cache.logits[key].clone(), *key))
            .collect()
    }

    fn input_gradient(&mut self, xs: &Sequence, target: usize) -> (f32, Sequence) {
        // Gradients are not black-box replayable; pass through uncached.
        self.model.input_gradient(xs, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> SequenceModel {
        let mut rng = StdRng::seed_from_u64(8);
        SequenceModel::single_lstm(4, 6, 5, 0.0, &mut rng)
    }

    #[test]
    fn cached_answers_are_bit_identical_and_counted() {
        let reference = model();
        let mut m = model();
        let mut cache = LogitCache::new();
        let queries: Vec<Sequence> = (0..6).map(|i| vec![vec![0.1 * i as f32; 4]; 2]).collect();

        let mut oracle = CachedBlackBox::new(&mut m, &mut cache);
        for xs in &queries {
            assert_eq!(oracle.predict_proba(xs), reference.predict_proba(xs));
        }
        assert_eq!((cache.hits, cache.misses), (0, 6), "first pass is all misses");

        let mut oracle = CachedBlackBox::new(&mut m, &mut cache);
        for xs in &queries {
            assert_eq!(oracle.predict_proba(xs), reference.predict_proba(xs));
        }
        assert_eq!((cache.hits, cache.misses), (6, 6), "second pass is all hits");
        assert_eq!(cache.len(), 6);
    }

    #[test]
    fn cache_survives_defense_changes_on_the_same_weights() {
        let mut m = model();
        let mut cache = LogitCache::new();
        let xs = vec![vec![0.3; 4]; 2];
        let _ = CachedBlackBox::new(&mut m, &mut cache).predict_proba(&xs);

        // Sharpen the temperature (the audit gate's escalation): the
        // cached logits must replay the *new* defense bit-identically,
        // without a forward pass.
        m.set_temperature(1e-3);
        let expected = m.predict_proba(&xs);
        let answer = CachedBlackBox::new(&mut m, &mut cache).predict_proba(&xs);
        assert_eq!(answer, expected);
        assert_eq!((cache.hits, cache.misses), (1, 1));
    }

    #[test]
    fn gradient_oracle_passes_through() {
        let mut m = model();
        let mut cache = LogitCache::new();
        let xs = vec![vec![0.2; 4]; 2];
        let mut reference = model();
        let (loss_ref, grads_ref) = reference.input_gradient(&xs, 1);
        let (loss, grads) = CachedBlackBox::new(&mut m, &mut cache).input_gradient(&xs, 1);
        assert_eq!(loss, loss_ref);
        assert_eq!(grads, grads_ref);
        assert!(cache.is_empty(), "gradients never populate the logit cache");
    }
}
