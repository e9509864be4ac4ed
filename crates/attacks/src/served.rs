//! The inversion attack mounted strictly through a serving interface.
//!
//! Every other attack entry point in this crate holds the model in hand:
//! `predict_proba` is a synchronous call and answers arrive instantly and
//! in full precision. A production adversary has neither luxury — queries
//! travel a client uplink, wait in a shard batch, and come back as the
//! *served* confidence vector (possibly top-k truncated), stamped with
//! real response latency. [`ServedAdversary`] reshapes the attack into
//! that mold: a poll-based state machine that *emits* query batches and
//! *absorbs* served answers, never touching a model.
//!
//! The reshaping is sound because the enumeration attacks are
//! **answer-independent**: the query set of [`BruteForce`] and
//! [`TimeBased`] is a pure function of the feature space, the prior, the
//! interest set and the instance — model answers only enter at scoring
//! time. So the adversary (1) sends interest probes, (2) replays the
//! attack against a [`RecordingBlackBox`] that answers uniformly while
//! writing down every query, (3) sends the recorded set over the wire,
//! and (4) replays the attack once more against a [`ReplayBlackBox`] that
//! answers from the served responses — producing the exact ranking an
//! in-hand attack over the same answers would.
//!
//! The gradient-descent attack has no served analogue: `input_gradient`
//! is a white-box oracle no serving tier exposes, which is precisely why
//! Table II's cheap attack is not a deployment threat.
//!
//! [`BruteForce`]: crate::BruteForce
//! [`TimeBased`]: crate::TimeBased

use std::collections::HashMap;

use pelican_mobility::FeatureSpace;
use pelican_nn::{query_hash, sweep_query_hashes, Sequence, SequenceModel, Step};
use pelican_tensor::Matrix;

use crate::adversary::Instance;
use crate::eval::{evaluate_attack, AttackEvaluation};
use crate::methods::{interest_locations_in, AttackMethod, INTEREST_THRESHOLD};
use crate::oracle::BlackBox;
use crate::prior::{random_probes, Prior};

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
    /// Arrival-to-response latency on the serving clock.
    pub latency_us: u64,
}

/// Shape of the served attack.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedConfig {
    /// Random probes sent to map the model's locations of interest.
    pub probe_count: usize,
    /// Seed for probe generation.
    pub probe_seed: u64,
    /// Top-k cutoffs to evaluate.
    pub ks: Vec<usize>,
}

impl Default for ServedConfig {
    fn default() -> Self {
        Self { probe_count: 24, probe_seed: 0x5EED ^ 0x1f, ks: vec![1, 3] }
    }
}

/// Records every distinct query an attack issues while answering
/// uniformly; used to pre-enumerate an answer-independent query set.
#[derive(Debug, Default)]
pub struct RecordingBlackBox {
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
    pub fn into_queries(self) -> Vec<Sequence> {
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
pub struct ReplayBlackBox<'a> {
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
    prior: Prior,
    instances: Vec<Instance>,
    method: AttackMethod,
    config: ServedConfig,
    probes: Vec<Sequence>,
    phase: Phase,
    issued: bool,
    /// Outstanding query ids → their inputs.
    pending: HashMap<usize, Sequence>,
    /// Served answers by query fingerprint.
    answers: HashMap<u64, Step>,
    latencies_us: Vec<u64>,
    next_id: usize,
    interest: Vec<usize>,
}

impl ServedAdversary {
    /// Sets up the adversary for a batch of instances against one user's
    /// served model.
    ///
    /// # Panics
    ///
    /// Panics if `method` is the gradient-descent attack: its oracle
    /// ([`BlackBox::input_gradient`]) does not exist behind a serving
    /// interface.
    pub fn new(
        space: FeatureSpace,
        prior: Prior,
        instances: Vec<Instance>,
        method: AttackMethod,
        config: ServedConfig,
    ) -> Self {
        assert!(
            !matches!(method, AttackMethod::GradientDescent(_)),
            "gradient descent needs a white-box oracle the serving interface never exposes"
        );
        let probes = random_probes(&space, config.probe_count, config.probe_seed);
        Self {
            space,
            prior,
            instances,
            method,
            config,
            probes,
            phase: Phase::Probing,
            issued: false,
            pending: HashMap::new(),
            answers: HashMap::new(),
            latencies_us: Vec::new(),
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
                let batch = self.issue(self.probes.clone());
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
        self.latencies_us.push(answer.latency_us);
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

    /// Response latencies observed so far, in absorb order — the timing
    /// side-channel a network observer gets for free.
    pub fn latencies_us(&self) -> &[u64] {
        &self.latencies_us
    }

    /// The interest set derived from served probe answers (empty until
    /// probing completes).
    pub fn interest(&self) -> &[usize] {
        &self.interest
    }

    /// Scores the attack from served answers alone.
    ///
    /// # Panics
    ///
    /// Panics unless [`Self::is_done`].
    pub fn evaluation(&self) -> AttackEvaluation {
        assert!(self.is_done(), "evaluation needs every served answer home");
        let mut replay = ReplayBlackBox::new(self.space.n_locations, &self.answers);
        evaluate_attack(
            &self.method,
            &mut replay,
            &self.space,
            &self.prior,
            &self.interest,
            &self.instances,
            &self.config.ks,
        )
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
                self.interest =
                    interest_locations_in(&mut replay, &self.probes, INTEREST_THRESHOLD);
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
            let _ = self.method.run(&mut recorder, &self.space, &self.prior, &self.interest, inst);
        }
        recorder.into_queries()
    }
}

/// Truncates a served confidence vector to its top-k entries, zeroing the
/// rest — the serving tier's answer-minimization knob. Ties at the k-th
/// score keep the lowest class indices, so truncation is deterministic.
pub fn truncate_top_k(probs: &[f32], k: usize) -> Step {
    if k >= probs.len() {
        return probs.to_vec();
    }
    let mut order: Vec<usize> = (0..probs.len()).collect();
    order.sort_by(|&a, &b| {
        probs[b].partial_cmp(&probs[a]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    let mut out = vec![0.0; probs.len()];
    for &i in order.iter().take(k) {
        out[i] = probs[i];
    }
    out
}

/// Serves a [`ServedAdversary`] directly from an in-hand model — the
/// zero-latency, full-precision degenerate case. Useful for tests and as
/// the oracle baseline the served evaluation must match bit-for-bit when
/// `top_k` covers every class.
pub fn serve_locally(
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
            adversary.absorb(ServedAnswer { id: q.id, probs, latency_us: 0 });
            served += 1;
        }
    }
    served
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Adversary;
    use crate::methods::{interest_locations, TimeBased};
    use pelican_mobility::{Session, SpatialLevel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const N: usize = 8;

    fn setup() -> (SequenceModel, FeatureSpace, Prior, Vec<Instance>) {
        let space = FeatureSpace::new(SpatialLevel::Building, N);
        let mut rng = StdRng::seed_from_u64(33);
        let model = SequenceModel::general_lstm(space.dim(), 12, N, 0.0, &mut rng);
        let prior = Prior::uniform(N);
        let mk = |b: usize, e: u32| Session {
            user: 0,
            building: b,
            ap: b,
            day: 2,
            entry_minutes: e,
            duration_minutes: 55,
        };
        let instances = (0..3)
            .map(|i| {
                let triple = [mk(1 + i, 540), mk((4 + i) % N, 600), mk(6, 660)];
                Adversary::A1.instance(&triple, 6)
            })
            .collect();
        (model, space, prior, instances)
    }

    fn adversary(space: &FeatureSpace, prior: &Prior, instances: &[Instance]) -> ServedAdversary {
        ServedAdversary::new(
            *space,
            prior.clone(),
            instances.to_vec(),
            AttackMethod::TimeBased(TimeBased::default()),
            ServedConfig { probe_count: 8, probe_seed: 5, ..ServedConfig::default() },
        )
    }

    #[test]
    fn served_attack_matches_the_in_hand_attack_exactly() {
        let (mut model, space, prior, instances) = setup();
        let mut adv = adversary(&space, &prior, &instances);
        serve_locally(&mut adv, &mut model, N);
        assert!(adv.is_done());
        let served = adv.evaluation();

        // The oracle baseline: same probes, same attack, model in hand.
        let probes = random_probes(&space, 8, 5);
        let interest = interest_locations(&model, &probes, 0.01);
        assert_eq!(adv.interest(), &interest[..], "probing through serving finds the same set");
        let direct = evaluate_attack(
            &AttackMethod::TimeBased(TimeBased::default()),
            &mut model,
            &space,
            &prior,
            &interest,
            &instances,
            &[1, 3],
        );
        assert_eq!(served.total, direct.total);
        assert_eq!(served.accuracy(1), direct.accuracy(1));
        assert_eq!(served.accuracy(3), direct.accuracy(3));
        assert_eq!(served.queries, direct.queries, "logical query counts agree");
    }

    #[test]
    fn deduplication_makes_the_wire_cheaper_than_the_logical_count() {
        let (mut model, space, prior, instances) = setup();
        let mut adv = adversary(&space, &prior, &instances);
        let sent = serve_locally(&mut adv, &mut model, N);
        assert_eq!(sent, adv.queries_sent());
        let logical = adv.evaluation().queries as usize + 8; // attack + probes
        assert!(
            adv.queries_sent() <= logical,
            "wire count {} must not exceed logical count {logical}",
            adv.queries_sent()
        );
        assert_eq!(adv.latencies_us().len(), sent, "every response is timed");
    }

    #[test]
    fn generous_truncation_changes_nothing() {
        let (mut model, space, prior, instances) = setup();
        let mut full = adversary(&space, &prior, &instances);
        serve_locally(&mut full, &mut model, N);
        let mut wide = adversary(&space, &prior, &instances);
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
    }

    #[test]
    fn phases_drain_in_order_and_batches_emit_once() {
        let (_, space, prior, instances) = setup();
        let mut adv = adversary(&space, &prior, &instances);
        let probes = adv.next_queries();
        assert_eq!(probes.len(), 8);
        assert!(adv.next_queries().is_empty(), "no new batch while probes are in flight");
        for q in probes {
            adv.absorb(ServedAnswer { id: q.id, probs: vec![1.0 / N as f32; N], latency_us: 7 });
        }
        let candidates = adv.next_queries();
        assert!(!candidates.is_empty(), "uniform probes keep every location interesting");
        assert!(!adv.is_done());
        for q in candidates {
            adv.absorb(ServedAnswer { id: q.id, probs: vec![1.0 / N as f32; N], latency_us: 9 });
        }
        assert!(adv.is_done());
        assert!(adv.next_queries().is_empty());
    }

    #[test]
    #[should_panic(expected = "white-box oracle")]
    fn gradient_descent_is_rejected_at_the_door() {
        let (_, space, prior, instances) = setup();
        ServedAdversary::new(
            space,
            prior,
            instances,
            AttackMethod::GradientDescent(crate::methods::GradientDescent::default()),
            ServedConfig::default(),
        );
    }
}
