//! The three inversion-attack methods (§III-B2, Fig. 2a, Table II).
//!
//! The two enumeration attacks ([`BruteForce`], [`TimeBased`]) vary one
//! hidden timestep around steps that stay put, so each hands its oracle
//! whole *sweeps* ([`BlackBox::confidence_sweep`]): a template of the
//! known steps, the hidden slot, and a matrix with one 4-hot candidate
//! per row — one sweep per instance for the time-based attack, one per
//! enumerated location for brute force — answered with each candidate's
//! confidence in the observed output, the one class the attack reads.
//! Scores are then read off the answers in enumeration order.

use serde::{Deserialize, Serialize};

use pelican_mobility::{entry_slot, FeatureSpace, DURATION_BINS, ENTRY_SLOTS, MINUTES_PER_DAY};
use pelican_nn::{Sequence, Step};
use pelican_tensor::{descending, softmax_temperature_in_place, Matrix};

use crate::adversary::Instance;
use crate::oracle::BlackBox;
use crate::prior::Prior;

/// Scores assigned by an attack to every location class, ranked descending.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ranking {
    scores: Vec<(usize, f64)>,
}

impl Ranking {
    /// Builds a ranking from per-location scores, in
    /// [`pelican_tensor::descending`] order: ties by location, NaNs last.
    fn from_scores(scores: Vec<f64>) -> Self {
        let mut pairs: Vec<(usize, f64)> = scores.into_iter().enumerate().collect();
        pairs.sort_by(|a, b| descending(&a.1, &b.1));
        Self { scores: pairs }
    }

    /// The `k` best locations, descending by score.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        self.scores.iter().take(k).map(|&(l, _)| l).collect()
    }

    /// Whether `location` is among the `k` best candidates.
    pub fn hit(&self, location: usize, k: usize) -> bool {
        self.scores.iter().take(k).any(|&(l, _)| l == location)
    }

    /// The full ranked `(location, score)` list.
    pub fn as_slice(&self) -> &[(usize, f64)] {
        &self.scores
    }
}

/// Confidence a location must reach on some probe to count as a location
/// of interest: the paper's 1% (§III-B2), which keeps the locations the
/// model assigns real mass to and drops the long tail.
pub const INTEREST_THRESHOLD: f32 = 0.01;

/// Identifies the model's *locations of interest* by black-box probing:
/// query the model on `probes` and keep every location whose confidence
/// reaches `threshold` (the paper uses 1%) on some probe.
///
/// This is the search-space reduction of §III-B2 — the personalized model's
/// domain is equalized to the whole campus, but only locations the model
/// actually assigns mass to are worth enumerating. Note how the privacy
/// layer defeats it: with sharpened confidences nearly every location falls
/// below the threshold and the set collapses to the argmaxes alone.
///
/// Any [`BlackBox`] answers the probes: the model itself, a logit-cached
/// one (an audit gate re-probing the same weights under an escalated
/// defense pays zero forward passes), or the answers a served adversary
/// recorded.
pub fn interest_locations<M: BlackBox>(
    model: &mut M,
    probes: &[Sequence],
    threshold: f32,
) -> Vec<usize> {
    let n = model.output_dim();
    let mut keep = vec![false; n];
    for xs in probes {
        for (l, &p) in model.predict_proba(xs).iter().enumerate() {
            if p >= threshold {
                keep[l] = true;
            }
        }
    }
    (0..n).filter(|&l| keep[l]).collect()
}

/// Common interface of the three attack methods.
///
/// `run` returns the location ranking for the hidden step plus the number
/// of model queries spent (the cost axis of Table II).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttackMethod {
    /// Exhaustive enumeration.
    BruteForce(BruteForce),
    /// Continuity-exploiting smart enumeration.
    TimeBased(TimeBased),
    /// Input reconstruction by gradient descent.
    GradientDescent(GradientDescent),
}

impl AttackMethod {
    /// Runs the attack on one instance against any query oracle (a plain
    /// [`pelican_nn::SequenceModel`] or e.g. a [`crate::CachedBlackBox`]).
    pub fn run<M: BlackBox>(
        &self,
        model: &mut M,
        space: &FeatureSpace,
        prior: &Prior,
        interest: &[usize],
        instance: &Instance,
    ) -> (Ranking, u64) {
        match self {
            AttackMethod::BruteForce(m) => m.run(model, space, prior, instance),
            AttackMethod::TimeBased(m) => m.run(model, space, prior, interest, instance),
            AttackMethod::GradientDescent(m) => m.run(model, space, prior, instance),
        }
    }

    /// FLOPs one instance costs beside the oracle: the gradient attack's
    /// softmax projections of the hidden step (`4` a value of its location,
    /// entry and duration blocks), per iteration and once more at the end.
    pub fn cost_beside_oracle(&self, space: &FeatureSpace) -> u64 {
        match self {
            AttackMethod::GradientDescent(gd) => {
                (gd.iterations as u64 + 1) * 4 * space.dow_offset() as u64
            }
            AttackMethod::BruteForce(_) | AttackMethod::TimeBased(_) => 0,
        }
    }

    /// Short name for reports (`brute force`, `time-based`, …).
    pub fn name(&self) -> &'static str {
        match self {
            AttackMethod::BruteForce(_) => "brute force",
            AttackMethod::TimeBased(_) => "time-based",
            AttackMethod::GradientDescent(_) => "gradient descent",
        }
    }
}

/// The two-step model input around the hidden step: known steps are
/// encoded from their sessions; a hidden non-target step (adversary A3)
/// is filled with the *expected-context relaxation* — the prior over
/// locations and uniform time blocks, a dense vector the LSTM consumes
/// like any other. The target step is left empty: it is the slot a
/// candidate goes in.
fn template(space: &FeatureSpace, prior: &Prior, instance: &Instance) -> Sequence {
    let target = instance.target_step();
    (0..2)
        .map(|step| {
            if step == target {
                Step::new()
            } else if let Some(s) = &instance.known[step] {
                space.encode_session(s)
            } else {
                expected_context(space, prior, instance.day_of_week)
            }
        })
        .collect()
}

/// [`template`] with `candidate` in the hidden slot.
fn assemble(space: &FeatureSpace, prior: &Prior, instance: &Instance, candidate: Step) -> Sequence {
    let mut xs = template(space, prior, instance);
    xs[instance.target_step()] = candidate;
    xs
}

/// Asks the oracle one sweep — every `(location, entry slot, duration
/// bin)` of `candidates` in the instance's hidden slot — and raises
/// `scores[l]` to the best `confidence(l_t | l, e, d) · p(l)` seen. Costs
/// one query per candidate.
fn sweep_scores<M: BlackBox>(
    model: &mut M,
    space: &FeatureSpace,
    prior: &Prior,
    instance: &Instance,
    candidates: &[(usize, usize, usize)],
    scores: &mut [f64],
) {
    let mut rows = Matrix::zeros(candidates.len(), space.dim());
    for (r, &(l, e, d)) in candidates.iter().enumerate() {
        space.encode_into(l, e, d, instance.day_of_week, rows.row_mut(r));
    }
    let template = template(space, prior, instance);
    let answers =
        model.confidence_sweep(&template, instance.target_step(), rows, instance.observed_output);
    for (&(l, _, _), &confidence) in candidates.iter().zip(&answers) {
        let score = confidence as f64 * prior.prob(l);
        if score > scores[l] {
            scores[l] = score;
        }
    }
}

/// The soft "average" step used for steps the adversary neither knows nor
/// reconstructs.
fn expected_context(space: &FeatureSpace, prior: &Prior, dow: usize) -> Step {
    let mut x = vec![0.0f32; space.dim()];
    for (l, slot) in x.iter_mut().enumerate().take(space.n_locations) {
        *slot = prior.prob(l) as f32;
    }
    for slot in 0..ENTRY_SLOTS {
        x[space.entry_offset() + slot] = 1.0 / ENTRY_SLOTS as f32;
    }
    for b in 0..DURATION_BINS {
        x[space.duration_offset() + b] = 1.0 / DURATION_BINS as f32;
    }
    x[space.dow_offset() + dow] = 1.0;
    x
}

/// Initial all-zero score vector. Enumeration raises `score[l]` to
/// `max_{e,d} confidence(l_t | l, e, d) · p(l)`; locations the attack never
/// enumerates (outside the interest set) keep score 0 and rank last in
/// index order, exactly like the paper's enumerate-and-argmax attack.
/// Under the privacy layer this is what collapses the attack: confidences
/// degenerate to 0/1, every consistent candidate ties at its prior mass,
/// and locations outside the shrunken interest set are never even scored.
fn zero_scores(prior: &Prior) -> Vec<f64> {
    vec![0.0; prior.len()]
}

/// Exhaustive enumeration over the hidden step's full feature domain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct BruteForce {
    /// Optional cap on locations enumerated (cost control at AP scale);
    /// `None` enumerates everything.
    pub max_locations: Option<usize>,
}

impl BruteForce {
    fn run<M: BlackBox>(
        &self,
        model: &mut M,
        space: &FeatureSpace,
        prior: &Prior,
        instance: &Instance,
    ) -> (Ranking, u64) {
        let mut scores = zero_scores(prior);
        let mut queries = 0u64;
        let n = self.max_locations.map_or(space.n_locations, |m| m.min(space.n_locations));
        // One sweep per location keeps the candidate buffer at one
        // location's `(entry, duration)` grid whatever the campus size.
        for l in 0..n {
            let grid: Vec<_> =
                (0..ENTRY_SLOTS).flat_map(|e| (0..DURATION_BINS).map(move |d| (l, e, d))).collect();
            sweep_scores(model, space, prior, instance, &grid, &mut scores);
            queries += grid.len() as u64;
        }
        (Ranking::from_scores(scores), queries)
    }
}

/// The paper's time-based smart enumeration.
///
/// Exploits session continuity: for A1 the hidden step's entry time is
/// (approximately) the known previous session's end; for A2 it is the known
/// next session's entry minus the candidate duration. Only `(location,
/// duration)` remain to enumerate, and locations are restricted to the
/// model's locations of interest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeBased {
    /// Entry-slot stride used when *no* timestep is known (A3); 4 checks
    /// every other hour.
    pub a3_slot_stride: usize,
}

impl Default for TimeBased {
    fn default() -> Self {
        Self { a3_slot_stride: 4 }
    }
}

impl TimeBased {
    fn run<M: BlackBox>(
        &self,
        model: &mut M,
        space: &FeatureSpace,
        prior: &Prior,
        interest: &[usize],
        instance: &Instance,
    ) -> (Ranking, u64) {
        let mut scores = zero_scores(prior);
        let entry_slots = self.candidate_entry_slots(instance);
        let candidates: Vec<_> = interest
            .iter()
            .flat_map(|&l| {
                entry_slots
                    .iter()
                    .enumerate()
                    .flat_map(move |(d, slots)| slots.iter().map(move |&e| (l, e, d)))
            })
            .collect();
        sweep_scores(model, space, prior, instance, &candidates, &mut scores);
        (Ranking::from_scores(scores), candidates.len() as u64)
    }

    /// For each candidate duration bin, the entry slots consistent with the
    /// continuity constraint (usually exactly one).
    fn candidate_entry_slots(&self, instance: &Instance) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); DURATION_BINS];
        match (instance.target_step(), &instance.known) {
            // A1: hidden x_{t−1} follows known x_{t−2}:
            // e_{t−1} ≈ e_{t−2} + d_{t−2}, independent of candidate duration.
            (1, [Some(prev), _]) => {
                let e = (prev.entry_minutes + prev.duration_minutes).min(MINUTES_PER_DAY - 1);
                let slot = entry_slot(e);
                for slots in &mut out {
                    slots.push(slot);
                }
            }
            // A2: hidden x_{t−2} precedes known x_{t−1}:
            // e_{t−2} ≈ e_{t−1} − d_{t−2}, which depends on the candidate
            // duration bin (use its midpoint).
            (0, [_, Some(next)]) => {
                for (d, slots) in out.iter_mut().enumerate() {
                    let midpoint = d as u32 * 10 + 5;
                    let e = next.entry_minutes.saturating_sub(midpoint);
                    slots.push(entry_slot(e));
                }
            }
            // A3: nothing known; scan a stride of slots.
            _ => {
                let stride = self.a3_slot_stride.max(1);
                for slots in &mut out {
                    for e in (0..ENTRY_SLOTS).step_by(stride) {
                        slots.push(e);
                    }
                }
            }
        }
        out
    }
}

/// Gradient-descent input reconstruction with temperature-softened block
/// projections (§III-B2).
///
/// Maintains unconstrained logits for the hidden step, repeatedly descends
/// the model's input gradient toward maximizing the observed output's
/// confidence, and after every step re-projects each one-hot block through
/// `softmax(z / temperature)` so the candidate stays a (soft) discrete
/// encoding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GradientDescent {
    /// Number of descent iterations.
    pub iterations: usize,
    /// Step size on the logits.
    pub lr: f32,
    /// Projection temperature (paper's Eq. 1), < 1 sharpens.
    pub temperature: f32,
}

impl Default for GradientDescent {
    fn default() -> Self {
        Self { iterations: 60, lr: 2.0, temperature: 0.5 }
    }
}

impl GradientDescent {
    fn run<M: BlackBox>(
        &self,
        model: &mut M,
        space: &FeatureSpace,
        prior: &Prior,
        instance: &Instance,
    ) -> (Ranking, u64) {
        let dim = space.dim();
        let target_step = instance.target_step();
        // Optimization variable: logits of the hidden step, zero-initialized
        // (uniform after projection).
        let mut z = vec![0.0f32; dim];
        let mut queries = 0u64;
        for _ in 0..self.iterations {
            let candidate = self.project(space, &z, instance.day_of_week);
            let xs = assemble(space, prior, instance, candidate);
            let (_, grads) = model.input_gradient(&xs, instance.observed_output);
            queries += 1;
            for (zv, g) in z.iter_mut().zip(&grads[target_step]) {
                *zv -= self.lr * g;
            }
        }
        // Rank by the reconstructed location block alone. The paper's
        // gradient-descent attack reads the hidden location off the
        // reconstructed input; on large discrete domains the
        // reconstruction is poor, which is exactly why Fig. 2a shows this
        // method far below the enumeration attacks.
        let final_candidate = self.project(space, &z, instance.day_of_week);
        let scores: Vec<f64> = (0..space.n_locations).map(|l| final_candidate[l] as f64).collect();
        let _ = prior; // the GD attack uses the prior only for A3's expected context
        (Ranking::from_scores(scores), queries)
    }

    /// Projects raw logits to a soft one-hot encoding blockwise.
    fn project(&self, space: &FeatureSpace, z: &[f32], dow: usize) -> Step {
        let mut x = z.to_vec();
        softmax_temperature_in_place(&mut x[..space.n_locations], self.temperature);
        let (e0, d0, w0) = (space.entry_offset(), space.duration_offset(), space.dow_offset());
        softmax_temperature_in_place(&mut x[e0..d0], self.temperature);
        softmax_temperature_in_place(&mut x[d0..w0], self.temperature);
        // Day of week is public context; pin it hard.
        for (i, v) in x[w0..].iter_mut().enumerate() {
            *v = if i == dow { 1.0 } else { 0.0 };
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Adversary;
    use crate::oracle::{CachedBlackBox, LogitCache};
    use pelican_mobility::{Session, SpatialLevel};
    use pelican_nn::SequenceModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (SequenceModel, FeatureSpace, Prior, [Session; 3]) {
        let space = FeatureSpace::new(SpatialLevel::Building, 8);
        let mut rng = StdRng::seed_from_u64(33);
        let model = SequenceModel::general_lstm(space.dim(), 12, 8, 0.0, &mut rng);
        let prior = Prior::uniform(8);
        let mk = |b: usize, e: u32| Session {
            user: 0,
            building: b,
            ap: b,
            day: 2,
            entry_minutes: e,
            duration_minutes: 55,
        };
        (model, space, prior, [mk(1, 540), mk(4, 600), mk(6, 660)])
    }

    #[test]
    fn rankings_order_by_score() {
        let r = Ranking::from_scores(vec![0.1, 0.9, 0.5]);
        assert_eq!(r.top_k(3), vec![1, 2, 0]);
        assert!(r.hit(1, 1));
        assert!(!r.hit(0, 2));
        // NaN scores rank below every number, ties and `±0.0` by location.
        let scores = (0..24).map(|l| [f64::NAN, 0.0, -0.0, 0.0, -0.0][l % 5]);
        let r = Ranking::from_scores(scores.collect());
        let numbers = (0..24).filter(|l| l % 5 != 0);
        assert_eq!(r.top_k(24), numbers.chain((0..24).step_by(5)).collect::<Vec<_>>());
    }

    #[test]
    fn interest_locations_filters_by_confidence() {
        let (mut model, space, prior, _) = setup();
        let probes = crate::prior::random_probes(&space, 8, 5);
        let all = interest_locations(&mut model, &probes, 0.0);
        assert_eq!(all.len(), 8, "zero threshold keeps everything");
        let some = interest_locations(&mut model, &probes, 0.01);
        assert!(!some.is_empty(), "argmax always clears 1%");
        assert!(some.len() <= all.len());
        let _ = prior;
    }

    #[test]
    fn interest_locations_finds_one_set_through_every_oracle() {
        let (mut model, space, _, _) = setup();
        let probes = crate::prior::random_probes(&space, 8, 5);
        let direct = interest_locations(&mut model, &probes, INTEREST_THRESHOLD);
        let mut cache = LogitCache::new();
        let cached = interest_locations(
            &mut CachedBlackBox::new(&model, &mut cache),
            &probes,
            INTEREST_THRESHOLD,
        );
        assert_eq!(cached, direct);
        // A second probe of the same weights under another temperature
        // answers from the cache, and the set shrinks toward the argmaxes.
        model.set_defense(pelican_nn::DefenseKind::Temperature { temperature: 1e-3 });
        let misses = cache.misses;
        let sharpened = interest_locations(
            &mut CachedBlackBox::new(&model, &mut cache),
            &probes,
            INTEREST_THRESHOLD,
        );
        assert_eq!(cache.misses, misses, "re-probing ran no forward pass");
        assert_eq!(sharpened, interest_locations(&mut model, &probes, INTEREST_THRESHOLD));
        assert!(sharpened.len() <= direct.len());
    }

    #[test]
    fn brute_force_covers_the_domain() {
        let (mut model, space, prior, triple) = setup();
        let inst = Adversary::A1.instance(&triple, space.location_of(&triple[2]));
        let (ranking, queries) = AttackMethod::BruteForce(BruteForce::default()).run(
            &mut model,
            &space,
            &prior,
            &[],
            &inst,
        );
        assert_eq!(queries, 8 * ENTRY_SLOTS as u64 * DURATION_BINS as u64);
        assert_eq!(ranking.top_k(8).len(), 8);
    }

    #[test]
    fn time_based_is_cheaper_than_brute_force() {
        let (mut model, space, prior, triple) = setup();
        let inst = Adversary::A1.instance(&triple, space.location_of(&triple[2]));
        let interest: Vec<usize> = (0..8).collect();
        let (_, tq) = AttackMethod::TimeBased(TimeBased::default())
            .run(&mut model, &space, &prior, &interest, &inst);
        let (_, bq) = AttackMethod::BruteForce(BruteForce::default()).run(
            &mut model,
            &space,
            &prior,
            &[],
            &inst,
        );
        assert!(tq * 10 < bq, "time-based ({tq}) should be ≫ cheaper than brute ({bq})");
    }

    #[test]
    fn a1_continuity_pins_the_entry_slot() {
        let (_, space, _, triple) = setup();
        let inst = Adversary::A1.instance(&triple, space.location_of(&triple[2]));
        let tb = TimeBased::default();
        let slots = tb.candidate_entry_slots(&inst);
        // e_{t-1} = 540 + 55 = 595 → slot 19, same for every duration bin.
        for s in &slots {
            assert_eq!(s, &vec![entry_slot(595)]);
        }
    }

    #[test]
    fn a2_continuity_depends_on_duration() {
        let (_, space, _, triple) = setup();
        let inst = Adversary::A2.instance(&triple, space.location_of(&triple[2]));
        let tb = TimeBased::default();
        let slots = tb.candidate_entry_slots(&inst);
        // e_{t-2} = 600 − (10d+5): early bins → later slots.
        assert_eq!(slots[0], vec![entry_slot(595)]);
        assert_eq!(slots[DURATION_BINS - 1], vec![entry_slot(600 - 235)]);
    }

    #[test]
    fn a3_scans_a_stride_of_slots() {
        let (_, space, _, triple) = setup();
        let inst = Adversary::A3.instance(&triple, space.location_of(&triple[2]));
        let tb = TimeBased { a3_slot_stride: 8 };
        let slots = tb.candidate_entry_slots(&inst);
        assert_eq!(slots[0].len(), ENTRY_SLOTS / 8);
    }

    #[test]
    fn gradient_descent_returns_full_ranking() {
        let (mut model, space, prior, triple) = setup();
        let inst = Adversary::A1.instance(&triple, space.location_of(&triple[2]));
        let gd = GradientDescent { iterations: 10, ..GradientDescent::default() };
        let (ranking, queries) =
            AttackMethod::GradientDescent(gd).run(&mut model, &space, &prior, &[], &inst);
        assert_eq!(queries, 10);
        assert_eq!(ranking.top_k(8).len(), 8);
    }

    #[test]
    fn expected_context_is_a_valid_soft_step() {
        let (_, space, prior, _) = setup();
        let x = expected_context(&space, &prior, 3);
        assert_eq!(x.len(), space.dim());
        let loc_sum: f32 = x[..space.n_locations].iter().sum();
        assert!((loc_sum - 1.0).abs() < 1e-5);
        assert_eq!(x[space.dow_offset() + 3], 1.0);
    }

    #[test]
    fn attack_names_are_stable() {
        assert_eq!(AttackMethod::BruteForce(BruteForce::default()).name(), "brute force");
        assert_eq!(AttackMethod::TimeBased(TimeBased::default()).name(), "time-based");
        assert_eq!(
            AttackMethod::GradientDescent(GradientDescent::default()).name(),
            "gradient descent"
        );
    }
}
