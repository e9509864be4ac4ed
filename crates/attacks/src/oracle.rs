//! The black-box query oracle attacks run against, and a logit cache
//! that makes repeated audits of the same weights (e.g. an audit gate
//! climbing a defense ladder) nearly free.
//!
//! The paper's threat model (§III-B) gives the adversary *black-box*
//! access: confidence vectors out, nothing else. [`BlackBox`] captures
//! exactly that interface (plus the input-gradient oracle the
//! gradient-descent attack needs), so attack methods are generic over
//! *what* answers their queries. Queries come in two shapes: a single
//! sequence ([`BlackBox::predict_proba`], the interest probes, which read
//! every class) and a *sweep* ([`BlackBox::confidence_sweep`]) — the
//! enumeration attacks' thousand candidates for one hidden timestep
//! around the same known steps, handed over whole so an oracle holding
//! the model can answer them through [`SequenceModel::logits_sweep`]
//! instead of a thousand forward passes, and answered with the one
//! class the attack reads.
//!
//! A plain [`SequenceModel`] is the deployed model; [`CachedBlackBox`]
//! wraps one with a [`LogitCache`], which remembers two things per query
//! fingerprint, each valid for as long as what it is keyed to stays put:
//!
//! * **Logits — keyed to all the weights.** Defenses
//!   ([`pelican_nn::Postprocess`], temperature) only transform the
//!   logits→confidence mapping, never the logits, so a cache filled
//!   under one defense answers the same queries under *any other defense
//!   of the same weights* without a single forward pass — the
//!   incremental-audit optimization the training gate's escalation
//!   ladder exploits. A cached sweep splits into hits and misses and
//!   runs only the misses, as one smaller sweep. Nothing checks this
//!   tier: a weight update invalidates it, so a candidate gets a fresh
//!   one.
//! * **Prefix activations — keyed to the frozen prefix.** A re-train of
//!   a transfer-learned model moves only the layers above its frozen
//!   prefix ([`SequenceModel::prefix_identity`]), and a user's audit asks
//!   the same questions every time, so the prefix's answers to them
//!   ([`PrefixTier`]) outlive the candidate: a logit miss runs the prefix
//!   only if this tier has not seen the query, then the layers above it.
//!   This tier *is* checked — [`CachedBlackBox::new`] binds it to the
//!   model's prefix identity and empties it on a mismatch — because it
//!   is the part handed from one candidate to the next on purpose.
//!
//! Beside each cached row sits its softmax normaliser
//! ([`SoftmaxNorm`]), stamped with the temperature it was computed
//! under: a class sweep that replays a row under that temperature (a
//! re-audit under the admitted defense, a duplicate query inside a
//! rung) pays one `exp` for its answer instead of a softmax.

use std::collections::HashMap;

use pelican_nn::{sweep_query_hashes, Postprocess, PrefixTier, Sequence, SequenceModel, Step};
use pelican_tensor::{inverse_temperature, Matrix, SoftmaxNorm};

/// Black-box (plus gradient-oracle) access to a deployed model.
pub trait BlackBox {
    /// Number of output classes.
    fn output_dim(&self) -> usize;
    /// The deployed confidence vector for a query — what the paper's
    /// adversary observes.
    fn predict_proba(&mut self, xs: &[Step]) -> Step;
    /// The deployed confidence in `class` for a sweep of queries: answer
    /// `i` is for `template` with row `i` of `candidates` at timestep
    /// `slot` (`template[slot]` itself is ignored), exactly entry `class`
    /// of what [`BlackBox::predict_proba`] would have answered, had each
    /// been asked through it in row order. The candidates are handed
    /// over, so an oracle that runs them all need not copy them.
    fn confidence_sweep(
        &mut self,
        template: &[Step],
        slot: usize,
        candidates: Matrix,
        class: usize,
    ) -> Vec<f32>;
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

    fn confidence_sweep(
        &mut self,
        template: &[Step],
        slot: usize,
        candidates: Matrix,
        class: usize,
    ) -> Vec<f32> {
        SequenceModel::confidence_sweep(self, template, slot, &candidates, class)
    }

    fn input_gradient(&mut self, xs: &Sequence, target: usize) -> (f32, Sequence) {
        SequenceModel::input_gradient(self, xs, target)
    }
}

/// Raw logits memoized per query fingerprint, with hit/miss accounting,
/// and beside them what the model's frozen prefix answered each query.
///
/// The logits are valid across *defense* changes (temperature,
/// post-processing) of one set of weights; any weight update invalidates
/// them — create a fresh cache per candidate model. [`LogitCache::prefix`]
/// survives any update that leaves the frozen prefix alone, so a fresh
/// cache may start from its predecessor's.
#[derive(Debug, Clone, Default)]
pub struct LogitCache {
    /// Query hash → row of `logits`. Rows are handed out in the order
    /// queries first miss, which is the order their logits arrive in.
    rows: HashMap<u64, u32>,
    /// The cached logits, one row per query, flat: a `Vec` per query
    /// would cost a quarter more memory than the logits themselves.
    logits: Vec<f32>,
    /// Per row, the softmax normaliser of its logits and the bits of the
    /// temperature it was computed under. No temperature has the bits
    /// of `0.0`, so a row that was never normalised carries that stamp.
    norms: Vec<(u32, SoftmaxNorm)>,
    /// Queries answered from the cache (no forward pass).
    pub hits: u64,
    /// Queries that ran a real forward pass (and filled the cache).
    pub misses: u64,
    /// FLOPs the answers given through this cache cost: a miss's forward
    /// pass, every answer's confidences, each input gradient, and what an
    /// audit runs beside its oracle. A remembered normaliser is priced as
    /// a computed one.
    pub flops: u64,
    /// The second tier: frozen-prefix activations of the queries that
    /// missed the logits, with its own hit/miss counters. Move it into a
    /// successor candidate's cache to spare that candidate's audit the
    /// prefix; [`CachedBlackBox::new`] checks that it still applies.
    pub prefix: PrefixTier,
}

impl LogitCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct queries whose logits are cached.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no logits are cached yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The cached logits of row `at`.
    fn row(&self, at: usize, width: usize) -> &[f32] {
        &self.logits[at * width..(at + 1) * width]
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
    model: &'m SequenceModel,
    cache: &'c mut LogitCache,
}

impl<'m, 'c> CachedBlackBox<'m, 'c> {
    /// Wraps a model with a cache. The cached logits must only ever have
    /// seen queries answered by these exact weights; the prefix tier is
    /// bound to the model here ([`PrefixTier::bind`]), which empties it
    /// unless it was filled by this very frozen prefix.
    pub fn new(model: &'m SequenceModel, cache: &'c mut LogitCache) -> Self {
        cache.prefix.bind(model);
        Self { model, cache }
    }
}

impl CachedBlackBox<'_, '_> {
    /// Looks every query of a sweep up in the cache and returns its hash
    /// and cache row. Hits, misses and cache contents end up exactly as
    /// the one-at-a-time loop would leave them: a candidate is a miss the
    /// first time its fingerprint is seen — in the cache or earlier in
    /// this sweep — and a hit after that. Only the misses reach the
    /// model, as one sub-sweep through the prefix tier (the candidates
    /// themselves when every one missed).
    fn lookup(&mut self, template: &[Step], slot: usize, candidates: Matrix) -> Vec<(u64, usize)> {
        let keys = sweep_query_hashes(template, slot, &candidates);
        let mut missed = Vec::new();
        let found: Vec<(u64, usize)> = keys
            .iter()
            .enumerate()
            .map(|(row, &key)| {
                // Claiming the next row makes a later duplicate a hit;
                // the row is filled before anything reads it.
                let next = u32::try_from(self.cache.rows.len()).expect("fewer than 2^32 queries");
                let at = *self.cache.rows.entry(key).or_insert_with(|| {
                    missed.push(row);
                    next
                });
                (key, at as usize)
            })
            .collect();
        self.cache.misses += missed.len() as u64;
        self.cache.hits += (keys.len() - missed.len()) as u64;
        self.cache.flops += self.model.infer_cost(missed.len() * template.len(), keys.len());
        let (to_run, fresh_keys) = if missed.len() == keys.len() {
            (candidates, keys)
        } else {
            (candidates.select_rows(&missed), missed.iter().map(|&row| keys[row]).collect())
        };
        let logits = self.model.logits_sweep_tiered(
            template,
            slot,
            to_run,
            &fresh_keys,
            &mut self.cache.prefix,
        );
        // Rows are claimed in the order queries first miss, which is the
        // order their logits arrive in.
        self.cache.logits.reserve_exact(logits.as_slice().len());
        self.cache.logits.extend_from_slice(logits.as_slice());
        self.cache.norms.reserve_exact(missed.len());
        self.cache.norms.resize(self.cache.rows.len(), (0, SoftmaxNorm::default()));
        found
    }
}

impl BlackBox for CachedBlackBox<'_, '_> {
    fn output_dim(&self) -> usize {
        self.model.output_dim()
    }

    /// The one-row sweep at the last timestep, answered through the
    /// model's whole confidence pipeline.
    fn predict_proba(&mut self, xs: &[Step]) -> Step {
        let (last, _) = xs.split_last().expect("cannot query a model with an empty sequence");
        let row = Matrix::from_vec(1, last.len(), last.clone());
        let [(key, at)] = self.lookup(xs, xs.len() - 1, row)[..] else {
            unreachable!("one candidate in, one answer out")
        };
        let logits = self.cache.row(at, self.model.output_dim()).to_vec();
        self.model.proba_from_logits(logits, key)
    }

    /// Replays each cached row through the model's *current* confidence
    /// pipeline. Without post-processing that is the row's softmax
    /// normaliser and one `exp`: the normaliser is computed the first
    /// time the row is asked under this temperature and kept. Noise and
    /// rounding renormalise the whole vector, so under them the full
    /// pipeline runs and the class is picked from its result.
    fn confidence_sweep(
        &mut self,
        template: &[Step],
        slot: usize,
        candidates: Matrix,
        class: usize,
    ) -> Vec<f32> {
        let found = self.lookup(template, slot, candidates);
        let (model, cache) = (self.model, &mut *self.cache);
        let width = model.output_dim();
        if model.postprocess() != Postprocess::None {
            return found
                .into_iter()
                .map(|(key, at)| model.proba_from_logits(cache.row(at, width).to_vec(), key)[class])
                .collect();
        }
        let stamp = model.temperature().to_bits();
        let inv_t = inverse_temperature(model.temperature());
        let mut exps = Vec::with_capacity(width);
        found
            .into_iter()
            .map(|(_, at)| {
                let logits = &cache.logits[at * width..(at + 1) * width];
                let (stamped, norm) = &mut cache.norms[at];
                if *stamped != stamp {
                    exps.clear();
                    exps.extend_from_slice(logits);
                    *norm = SoftmaxNorm::exps_in_place(&mut exps, inv_t);
                    *stamped = stamp;
                }
                norm.confidence(logits[class], inv_t)
            })
            .collect()
    }

    /// Gradients are not black-box replayable: passed through uncached,
    /// on a copy of the model, since the backward pass writes caches
    /// into the layers it runs through. Each is priced as one training
    /// sample.
    fn input_gradient(&mut self, xs: &Sequence, target: usize) -> (f32, Sequence) {
        self.cache.flops += self.model.train_cost(xs.len(), 1);
        self.model.clone().input_gradient(xs, target)
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
        let m = model();
        let mut cache = LogitCache::new();
        let queries: Vec<Sequence> = (0..6).map(|i| vec![vec![0.1 * i as f32; 4]; 2]).collect();

        let mut oracle = CachedBlackBox::new(&m, &mut cache);
        for xs in &queries {
            assert_eq!(oracle.predict_proba(xs), reference.predict_proba(xs));
        }
        assert_eq!((cache.hits, cache.misses), (0, 6), "first pass is all misses");

        let mut oracle = CachedBlackBox::new(&m, &mut cache);
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
        let _ = CachedBlackBox::new(&m, &mut cache).predict_proba(&xs);

        // Sharpen the temperature (the audit gate's escalation): the
        // cached logits must replay the *new* defense bit-identically,
        // without a forward pass.
        m.set_temperature(1e-3);
        let expected = m.predict_proba(&xs);
        let answer = CachedBlackBox::new(&m, &mut cache).predict_proba(&xs);
        assert_eq!(answer, expected);
        assert_eq!((cache.hits, cache.misses), (1, 1));
    }

    #[test]
    fn gradient_oracle_passes_through() {
        let m = model();
        let mut cache = LogitCache::new();
        let xs = vec![vec![0.2; 4]; 2];
        let mut reference = model();
        let (loss_ref, grads_ref) = reference.input_gradient(&xs, 1);
        let (loss, grads) = CachedBlackBox::new(&m, &mut cache).input_gradient(&xs, 1);
        assert_eq!(loss, loss_ref);
        assert_eq!(grads, grads_ref);
        assert!(cache.is_empty(), "gradients never populate the logit cache");
    }

    /// `general_lstm` with its first LSTM frozen: a one-layer prefix.
    fn frozen_base(seed: u64) -> SequenceModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = SequenceModel::general_lstm(4, 6, 5, 0.0, &mut rng);
        m.layers_mut()[0].set_trainable(false);
        m
    }

    #[test]
    fn a_successor_inherits_the_prefix_tier_and_a_stranger_does_not() {
        let queries: Vec<Sequence> = (0..6).map(|i| vec![vec![0.1 * i as f32; 4]; 2]).collect();
        let ask = |m: &SequenceModel, cache: &mut LogitCache| {
            let mut oracle = CachedBlackBox::new(m, cache);
            for xs in &queries {
                assert_eq!(oracle.predict_proba(xs), m.predict_proba(xs));
            }
        };
        let predecessor = frozen_base(8);
        let mut first = LogitCache::new();
        ask(&predecessor, &mut first);
        assert_eq!((first.prefix.hits, first.prefix.misses, first.prefix.len()), (0, 6, 6));

        // New weights above the same prefix: fresh logits, inherited tier.
        let mut successor = predecessor.clone();
        let donor = frozen_base(9);
        successor.layers_mut()[2] = donor.layers()[2].clone();
        let mut second = LogitCache::new();
        second.prefix = first.prefix;
        ask(&successor, &mut second);
        assert_eq!((second.hits, second.misses), (0, 6), "the logits are the candidate's own");
        assert_eq!((second.prefix.hits, second.prefix.misses), (6, 6), "the prefix ran for none");

        // Another base altogether: the tier is emptied, not believed.
        let mut third = LogitCache::new();
        third.prefix = second.prefix;
        ask(&donor, &mut third);
        assert_eq!((third.prefix.hits, third.prefix.misses, third.prefix.len()), (6, 12, 6));
    }
}
