//! The inversion attack mounted strictly through a serving interface.
//!
//! Every other attack entry point in this crate holds the model in hand:
//! `predict_proba` is a synchronous call and answers arrive instantly and
//! in full precision. A production adversary has neither luxury — queries
//! travel a client uplink, wait in a shard batch, and come back as the
//! *served* confidence vector (possibly top-k truncated).
//! [`ServedAdversary`] reshapes the attack into that mold: a poll-based
//! state machine that *emits* query batches and *absorbs* served
//! answers, never touching a model. What it attacks with is the red-team
//! recipe's ([`AuditConfig`]): the same instances, prior, probes and
//! scoring the audit gate uses.
//!
//! The reshaping is sound because the enumeration attacks are
//! **answer-independent**: the query set of [`BruteForce`] and
//! [`TimeBased`] is a pure function of the feature space, the prior, the
//! interest set and the instance — model answers only enter at scoring
//! time. So the adversary (1) sends interest probes, (2) replays the
//! attack against a `RecordingBlackBox` that answers uniformly while
//! writing down every query, (3) sends the recorded set over the wire,
//! and (4) replays the attack once more against a `ReplayBlackBox` that
//! answers from the served responses — producing the exact ranking an
//! in-hand attack over the same answers would.
//!
//! The gradient-descent attack has no served analogue: `input_gradient`
//! is a white-box oracle no serving tier exposes, which is precisely why
//! Table II's cheap attack is not a deployment threat. Nor has the
//! predicted prior, which is built from a model in hand.
//!
//! [`BruteForce`]: crate::BruteForce
//! [`TimeBased`]: crate::TimeBased

use std::collections::HashMap;

use pelican_mobility::FeatureSpace;
use pelican_nn::{query_hash, sweep_query_hashes, Sequence, Step};
use pelican_tensor::Matrix;

use crate::adversary::Instance;
use crate::eval::AttackEvaluation;
use crate::methods::{interest_locations, AttackMethod, INTEREST_THRESHOLD};
use crate::oracle::BlackBox;
use crate::prior::{prior_hit_rate, Prior, PriorKind};
use crate::recipe::{AuditConfig, AuditSubject};

/// One query the adversary wants served: an opaque id (echoed back in the
/// answer) and the model input.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedQuery {
    /// Adversary-local sequence number, dense from 0.
    pub id: usize,
    /// The two-step model input.
    pub xs: Sequence,
}

/// One served response: what a network observer actually sees.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedAnswer {
    /// Echo of [`ServedQuery::id`].
    pub id: usize,
    /// The served confidence vector — already through the deployed
    /// defense, and possibly top-k truncated by the serving tier.
    pub probs: Step,
}

/// Records every distinct query an attack issues while answering
/// uniformly; used to pre-enumerate an answer-independent query set.
#[derive(Debug, Default)]
struct RecordingBlackBox {
    output_dim: usize,
    queries: Vec<Sequence>,
    seen: HashMap<u64, ()>,
}

impl RecordingBlackBox {
    /// A recorder for a model with `output_dim` location classes.
    pub fn new(output_dim: usize) -> Self {
        Self { output_dim, queries: Vec::new(), seen: HashMap::new() }
    }

    /// The distinct queries recorded, in first-issue order.
    fn into_queries(self) -> Vec<Sequence> {
        self.queries
    }
}

impl BlackBox for RecordingBlackBox {
    fn output_dim(&self) -> usize {
        self.output_dim
    }

    fn predict_proba(&mut self, xs: &[Step]) -> Step {
        if self.seen.insert(query_hash(xs), ()).is_none() {
            self.queries.push(xs.to_vec());
        }
        vec![1.0 / self.output_dim as f32; self.output_dim]
    }

    fn confidence_sweep(
        &mut self,
        template: &[Step],
        slot: usize,
        candidates: Matrix,
        _class: usize,
    ) -> Vec<f32> {
        let keys = sweep_query_hashes(template, slot, &candidates);
        for (row, key) in keys.into_iter().enumerate() {
            if self.seen.insert(key, ()).is_none() {
                let mut xs = template.to_vec();
                xs[slot] = candidates.row(row).to_vec();
                self.queries.push(xs);
            }
        }
        vec![1.0 / self.output_dim as f32; candidates.rows()]
    }

    fn input_gradient(&mut self, _xs: &Sequence, _target: usize) -> (f32, Sequence) {
        unreachable!("the served interface exposes no gradient oracle")
    }
}

/// Answers queries from a store of served responses, keyed by query
/// fingerprint; the scoring half of the record/replay split.
#[derive(Debug)]
struct ReplayBlackBox<'a> {
    output_dim: usize,
    answers: &'a HashMap<u64, Step>,
}

impl<'a> ReplayBlackBox<'a> {
    /// A replayer over `answers` (query fingerprint → served confidences).
    pub fn new(output_dim: usize, answers: &'a HashMap<u64, Step>) -> Self {
        Self { output_dim, answers }
    }
}

impl ReplayBlackBox<'_> {
    fn served(&self, key: u64) -> &Step {
        self.answers.get(&key).expect(
            "replay hit a query that was never served — the query set must be enumerated before scoring",
        )
    }
}

impl BlackBox for ReplayBlackBox<'_> {
    fn output_dim(&self) -> usize {
        self.output_dim
    }

    fn predict_proba(&mut self, xs: &[Step]) -> Step {
        self.served(query_hash(xs)).clone()
    }

    fn confidence_sweep(
        &mut self,
        template: &[Step],
        slot: usize,
        candidates: Matrix,
        class: usize,
    ) -> Vec<f32> {
        let keys = sweep_query_hashes(template, slot, &candidates);
        keys.into_iter().map(|key| self.served(key)[class]).collect()
    }

    fn input_gradient(&mut self, _xs: &Sequence, _target: usize) -> (f32, Sequence) {
        unreachable!("the served interface exposes no gradient oracle")
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Interest probes are (about to be) in flight.
    Probing,
    /// The enumerated candidate set is (about to be) in flight.
    Enumerating,
    /// Every answer is home; the evaluation is available.
    Done,
}

/// A model-inversion adversary that only ever talks to a serving tier.
///
/// Poll-driven: the experiment loop calls [`Self::next_queries`] to drain
/// whatever the adversary wants sent next (empty while answers are
/// outstanding), routes each query through the serving stack however it
/// likes, and hands responses back via [`Self::absorb`]. Once
/// [`Self::is_done`], [`Self::evaluation`] scores the attack from served
/// answers alone.
#[derive(Debug)]
pub struct ServedAdversary {
    space: FeatureSpace,
    config: AuditConfig,
    prior: Prior,
    instances: Vec<Instance>,
    phase: Phase,
    issued: bool,
    /// Outstanding query ids → their inputs.
    pending: HashMap<usize, Sequence>,
    /// Served answers by query fingerprint.
    answers: HashMap<u64, Step>,
    next_id: usize,
    interest: Vec<usize>,
}

impl ServedAdversary {
    /// Sets up the red-team recipe's attack of `subject` through one
    /// user's served model.
    ///
    /// # Panics
    ///
    /// Panics if `config.method` is the gradient-descent attack: its
    /// oracle ([`BlackBox::input_gradient`]) does not exist behind a
    /// serving interface. Panics on a [`PriorKind::Predict`] prior too:
    /// it is built from a model in hand, which a served adversary never
    /// holds.
    pub fn new(space: FeatureSpace, config: &AuditConfig, subject: &AuditSubject) -> Self {
        assert!(
            !matches!(config.method, AttackMethod::GradientDescent(_)),
            "gradient descent needs a white-box oracle the serving interface never exposes"
        );
        assert!(
            config.prior != PriorKind::Predict,
            "a predicted prior needs the model in hand, which the serving interface never exposes"
        );
        Self {
            space,
            config: config.clone(),
            prior: config.prior(&space, subject, None),
            instances: config.instances(&space, subject),
            phase: Phase::Probing,
            issued: false,
            pending: HashMap::new(),
            answers: HashMap::new(),
            next_id: 0,
            interest: Vec::new(),
        }
    }

    /// The next batch of queries to serve; empty while answers are
    /// outstanding or after [`Self::is_done`]. Each phase's batch is
    /// emitted exactly once.
    pub fn next_queries(&mut self) -> Vec<ServedQuery> {
        if !self.pending.is_empty() || self.issued {
            return Vec::new();
        }
        match self.phase {
            Phase::Probing => {
                let batch = self.issue(self.config.probes(&self.space));
                if batch.is_empty() {
                    // Zero probes configured: the interest set stays
                    // empty and enumeration proceeds directly.
                    self.advance();
                    return self.next_queries();
                }
                batch
            }
            Phase::Enumerating => {
                let candidates = self.enumerate_candidates();
                let batch = self.issue(candidates);
                if batch.is_empty() {
                    self.advance();
                }
                batch
            }
            Phase::Done => Vec::new(),
        }
    }

    /// Accepts one served response. Ids must match an outstanding query.
    ///
    /// # Panics
    ///
    /// Panics on an id the adversary never issued (or already absorbed).
    pub fn absorb(&mut self, answer: ServedAnswer) {
        let xs = self
            .pending
            .remove(&answer.id)
            .expect("served answer for a query this adversary has in flight");
        self.answers.insert(query_hash(&xs), answer.probs);
        if self.pending.is_empty() {
            self.advance();
        }
    }

    /// Whether every phase has completed.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Queries actually sent over the serving interface so far (the
    /// deduplicated network cost, as opposed to the attack's logical
    /// query count).
    pub fn queries_sent(&self) -> usize {
        self.next_id
    }

    /// The hit rate at top-`k` of this adversary's prior alone: what it
    /// scores without a single query ([`prior_hit_rate`]).
    pub fn baseline(&self, k: usize) -> f64 {
        prior_hit_rate(&self.prior, &self.space, &self.instances, k)
    }

    /// Scores the attack from served answers alone: the recipe's
    /// [`AuditConfig::attack`] over the served responses.
    ///
    /// # Panics
    ///
    /// Panics unless [`Self::is_done`].
    pub fn evaluation(&self) -> AttackEvaluation {
        assert!(self.is_done(), "evaluation needs every served answer home");
        let mut replay = ReplayBlackBox::new(self.space.n_locations, &self.answers);
        self.config.attack(&mut replay, &self.space, &self.prior, &self.instances)
    }

    /// Issues a batch, skipping inputs whose fingerprint already has an
    /// answer (a candidate can coincide with a probe).
    fn issue(&mut self, inputs: Vec<Sequence>) -> Vec<ServedQuery> {
        let mut batch = Vec::new();
        let mut fresh: HashMap<u64, ()> = HashMap::new();
        for xs in inputs {
            let key = query_hash(&xs);
            if self.answers.contains_key(&key) || fresh.insert(key, ()).is_some() {
                continue;
            }
            let id = self.next_id;
            self.next_id += 1;
            self.pending.insert(id, xs.clone());
            batch.push(ServedQuery { id, xs });
        }
        self.issued = !batch.is_empty();
        batch
    }

    /// Phase transition once a batch is fully absorbed.
    fn advance(&mut self) {
        self.issued = false;
        match self.phase {
            Phase::Probing => {
                let mut replay = ReplayBlackBox::new(self.space.n_locations, &self.answers);
                let probes = self.config.probes(&self.space);
                self.interest = interest_locations(&mut replay, &probes, INTEREST_THRESHOLD);
                self.phase = Phase::Enumerating;
            }
            Phase::Enumerating => self.phase = Phase::Done,
            Phase::Done => {}
        }
    }

    /// Dry-runs the attack against a recorder to enumerate its (answer-
    /// independent) query set.
    fn enumerate_candidates(&self) -> Vec<Sequence> {
        let mut recorder = RecordingBlackBox::new(self.space.n_locations);
        for inst in &self.instances {
            let method = &self.config.method;
            let _ = method.run(&mut recorder, &self.space, &self.prior, &self.interest, inst);
        }
        recorder.into_queries()
    }
}

/// Truncates a served confidence vector to its top-k entries, zeroing the
/// rest — the serving tier's answer-minimization knob. The entries kept
/// are [`pelican_tensor::top_k`]'s: ties at the k-th score keep the lowest
/// class indices and a NaN is kept last, so truncation is deterministic.
pub fn truncate_top_k(probs: &[f32], k: usize) -> Step {
    if k >= probs.len() {
        return probs.to_vec();
    }
    let mut out = vec![0.0; probs.len()];
    for i in pelican_tensor::top_k(probs, k) {
        out[i] = probs[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_attack;
    use crate::methods::TimeBased;
    use pelican_mobility::{Session, SpatialLevel};
    use pelican_nn::SequenceModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const N: usize = 8;

    /// Serves a [`ServedAdversary`] directly from an in-hand model — the
    /// zero-latency, full-precision degenerate case, and the oracle
    /// baseline the served evaluation must match bit for bit when `top_k`
    /// covers every class.
    fn serve_locally(
        adversary: &mut ServedAdversary,
        model: &mut SequenceModel,
        top_k: usize,
    ) -> usize {
        let mut served = 0;
        loop {
            let batch = adversary.next_queries();
            if batch.is_empty() {
                break;
            }
            for q in batch {
                let probs = truncate_top_k(&model.predict_proba(&q.xs), top_k);
                adversary.absorb(ServedAnswer { id: q.id, probs });
                served += 1;
            }
        }
        served
    }

    fn session(b: usize, e: u32) -> Session {
        Session { user: 0, building: b, ap: b, day: 2, entry_minutes: e, duration_minutes: 55 }
    }

    /// A model, and three held-out triples attacked by A1 with a uniform
    /// prior and 8 interest probes.
    fn setup() -> (SequenceModel, FeatureSpace, AuditConfig, AuditSubject) {
        let space = FeatureSpace::new(SpatialLevel::Building, N);
        let mut rng = StdRng::seed_from_u64(33);
        let model = SequenceModel::general_lstm(space.dim(), 12, N, 0.0, &mut rng);
        let holdout = (0..3)
            .map(|i| [session(1 + i, 540), session((4 + i) % N, 600), session(6, 660)])
            .collect();
        let subject = AuditSubject { history: Vec::new(), holdout };
        let config =
            AuditConfig { prior: PriorKind::None, probe_count: 8, ..AuditConfig::default() };
        (model, space, config, subject)
    }

    /// The in-hand attack the served one must reproduce: `config`'s
    /// probes, `prior` and instances, answered by the model itself.
    fn in_hand(
        model: &mut SequenceModel,
        space: &FeatureSpace,
        config: &AuditConfig,
        prior: &Prior,
        subject: &AuditSubject,
    ) -> (Vec<usize>, AttackEvaluation) {
        let interest = interest_locations(model, &config.probes(space), 0.01);
        let instances = config.instances(space, subject);
        let method = AttackMethod::TimeBased(TimeBased::default());
        let eval = evaluate_attack(&method, model, space, prior, &interest, &instances, &[1, 3]);
        (interest, eval)
    }

    #[test]
    fn served_attack_matches_the_in_hand_attack_exactly() {
        let (mut model, space, config, subject) = setup();
        let mut adv = ServedAdversary::new(space, &config, &subject);
        serve_locally(&mut adv, &mut model, N);
        assert!(adv.is_done());
        let served = adv.evaluation();

        // The oracle baseline: same probes, same attack, model in hand.
        let (interest, direct) = in_hand(&mut model, &space, &config, &Prior::uniform(N), &subject);
        assert_eq!(adv.interest, interest, "probing through serving finds the same set");
        assert_eq!(served.total, direct.total);
        assert_eq!(served.accuracy(1), direct.accuracy(1));
        assert_eq!(served.accuracy(3), direct.accuracy(3));
        assert_eq!(served.queries, direct.queries, "logical query counts agree");
    }

    #[test]
    fn an_estimated_prior_is_the_one_the_adversary_attacks_with() {
        let (mut model, space, _, mut subject) = setup();
        // Locations 5, 6 and 7 are the history's top three; the estimate
        // keeps 5 and ranks 0 and 1 next. The attacked (middle) steps sit
        // at 4, 5 and 6.
        subject.history = [5, 5, 5, 6, 6, 7].map(|b| session(b, 600)).to_vec();
        let config = AuditConfig { prior: PriorKind::Estimate, ..setup().2 };
        let mut adv = ServedAdversary::new(space, &config, &subject);
        serve_locally(&mut adv, &mut model, N);

        let estimated = Prior::of_kind(PriorKind::Estimate, &space, &subject.history, None, 0);
        let instances = config.instances(&space, &subject);
        assert_eq!(adv.baseline(3), prior_hit_rate(&estimated, &space, &instances, 3));
        let truth = Prior::from_history(&space, &subject.history);
        assert_ne!(adv.baseline(3), prior_hit_rate(&truth, &space, &instances, 3));
        let (_, direct) = in_hand(&mut model, &space, &config, &estimated, &subject);
        let served = adv.evaluation();
        assert_eq!(
            (served.accuracy(1), served.accuracy(3)),
            (direct.accuracy(1), direct.accuracy(3))
        );
        assert_eq!(served.queries, direct.queries);
    }

    #[test]
    fn deduplication_makes_the_wire_cheaper_than_the_logical_count() {
        let (mut model, space, config, subject) = setup();
        let mut adv = ServedAdversary::new(space, &config, &subject);
        let sent = serve_locally(&mut adv, &mut model, N);
        assert_eq!(sent, adv.queries_sent());
        let logical = adv.evaluation().queries as usize + 8; // attack + probes
        assert!(
            adv.queries_sent() <= logical,
            "wire count {} must not exceed logical count {logical}",
            adv.queries_sent()
        );
    }

    #[test]
    fn generous_truncation_changes_nothing() {
        let (mut model, space, config, subject) = setup();
        let mut full = ServedAdversary::new(space, &config, &subject);
        serve_locally(&mut full, &mut model, N);
        let mut wide = ServedAdversary::new(space, &config, &subject);
        serve_locally(&mut wide, &mut model, usize::MAX);
        let (a, b) = (full.evaluation(), wide.evaluation());
        assert_eq!(a.accuracy(3), b.accuracy(3));
    }

    #[test]
    fn truncation_zeroes_everything_below_the_cut() {
        let probs = vec![0.4, 0.1, 0.3, 0.2];
        assert_eq!(truncate_top_k(&probs, 2), vec![0.4, 0.0, 0.3, 0.0]);
        assert_eq!(truncate_top_k(&probs, 4), probs);
        let tied = vec![0.25; 4];
        assert_eq!(truncate_top_k(&tied, 2), vec![0.25, 0.25, 0.0, 0.0], "ties break low-index");
        let poisoned: Vec<f32> =
            (0..24).map(|i| if i % 5 == 0 { f32::NAN } else { i as f32 / 24.0 }).collect();
        let kept: Vec<usize> =
            (0..24).filter(|&i| truncate_top_k(&poisoned, 3)[i] != 0.0).collect();
        assert_eq!(kept, [21, 22, 23], "NaNs rank below every number");
    }

    #[test]
    fn phases_drain_in_order_and_batches_emit_once() {
        let (_, space, config, subject) = setup();
        let mut adv = ServedAdversary::new(space, &config, &subject);
        let probes = adv.next_queries();
        assert_eq!(probes.len(), 8);
        assert!(adv.next_queries().is_empty(), "no new batch while probes are in flight");
        for q in probes {
            adv.absorb(ServedAnswer { id: q.id, probs: vec![1.0 / N as f32; N] });
        }
        let candidates = adv.next_queries();
        assert!(!candidates.is_empty(), "uniform probes keep every location interesting");
        assert!(!adv.is_done());
        for q in candidates {
            adv.absorb(ServedAnswer { id: q.id, probs: vec![1.0 / N as f32; N] });
        }
        assert!(adv.is_done());
        assert!(adv.next_queries().is_empty());
    }

    #[test]
    #[should_panic(expected = "white-box oracle")]
    fn gradient_descent_is_rejected_at_the_door() {
        let (_, space, config, subject) = setup();
        let method = AttackMethod::GradientDescent(crate::methods::GradientDescent::default());
        ServedAdversary::new(space, &AuditConfig { method, ..config }, &subject);
    }

    #[test]
    #[should_panic(expected = "predicted prior needs the model in hand")]
    fn a_predicted_prior_is_rejected_at_the_door() {
        let (_, space, config, subject) = setup();
        ServedAdversary::new(space, &AuditConfig { prior: PriorKind::Predict, ..config }, &subject);
    }
}
