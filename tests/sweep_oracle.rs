//! The enumeration attacks' sweeps against the loop they replaced.
//!
//! `TimeBased` and `BruteForce` used to assemble one query per candidate
//! and ask `predict_proba` a thousand times; they now hand the oracle one
//! sweep. [`OneAtATime`] keeps the old loop alive as the reference: it
//! answers a sweep by assembling and asking each candidate in turn. For
//! both methods and all three adversaries, everything observable must be
//! identical through either route — rankings and query counts, the logit
//! cache's hits, misses and size (cold, on a warm replay, across a ladder
//! escalation, with duplicate candidates inside one sweep), and the audit
//! gate's full outcome — also for an admission that starts from its
//! predecessor's prefix tier instead of from nothing.

use pelican::{prepare, DefenseKind, PersonalizationConfig, PersonalizationMethod};
use pelican_attacks::prior::random_probes;
use pelican_attacks::{
    evaluate_attack, interest_locations, Adversary, AttackEvaluation, AttackMethod, BlackBox,
    BruteForce, CachedBlackBox, Instance, LogitCache, Prior, TimeBased, INTEREST_THRESHOLD,
};
use pelican_mobility::{FeatureSpace, Session, SpatialLevel};
use pelican_nn::{fit, Sample, Sequence, SequenceModel, Step, TrainConfig};
use pelican_tensor::Matrix;
use pelican_train::{AuditConfig, AuditGate, AuditSubject, GateOutcome, GateVerdict, BASE_DEFENSE};
use rand::rngs::StdRng;
use rand::SeedableRng;

const LOCATIONS: usize = 6;
const ADVERSARIES: [Adversary; 3] = [Adversary::A1, Adversary::A2, Adversary::A3];

/// The per-candidate loop the sweeps replaced, as an oracle adapter.
struct OneAtATime<M>(M);

impl<M: BlackBox> BlackBox for OneAtATime<M> {
    fn output_dim(&self) -> usize {
        self.0.output_dim()
    }

    fn predict_proba(&mut self, xs: &[Step]) -> Step {
        self.0.predict_proba(xs)
    }

    fn confidence_sweep(
        &mut self,
        template: &[Step],
        slot: usize,
        candidates: Matrix,
        class: usize,
    ) -> Vec<f32> {
        (0..candidates.rows())
            .map(|r| {
                let mut xs = template.to_vec();
                xs[slot] = candidates.row(r).to_vec();
                self.0.predict_proba(&xs)[class]
            })
            .collect()
    }

    fn input_gradient(&mut self, xs: &Sequence, target: usize) -> (f32, Sequence) {
        self.0.input_gradient(xs, target)
    }
}

fn space() -> FeatureSpace {
    FeatureSpace::new(SpatialLevel::Building, LOCATIONS)
}

fn model(seed: u64) -> SequenceModel {
    let mut rng = StdRng::seed_from_u64(seed);
    SequenceModel::general_lstm(space().dim(), 8, LOCATIONS, 0.1, &mut rng)
}

fn triples(n: usize) -> Vec<[Session; 3]> {
    let mk = |b: usize, e: u32| Session {
        user: 0,
        building: b % LOCATIONS,
        ap: b % LOCATIONS,
        day: 1 + b as u32 % 5,
        entry_minutes: e,
        duration_minutes: 35 + 10 * (b as u32 % 4),
    };
    (0..n).map(|i| [mk(i, 480 + 7 * i as u32), mk(i + 1, 545), mk(i + 2, 610)]).collect()
}

fn subject(n: usize) -> AuditSubject {
    let holdout = triples(n);
    AuditSubject { history: holdout.iter().flat_map(|t| t.iter().copied()).collect(), holdout }
}

fn methods() -> [AttackMethod; 2] {
    [
        AttackMethod::TimeBased(TimeBased::default()),
        // Two locations' full (entry, duration) grids: 2 304 queries.
        AttackMethod::BruteForce(BruteForce { max_locations: Some(2) }),
    ]
}

fn instance(adversary: Adversary) -> Instance {
    let triple = triples(1)[0];
    adversary.instance(&triple, space().location_of(&triple[2]))
}

fn cache_state(cache: &LogitCache) -> (u64, u64, usize) {
    (cache.hits, cache.misses, cache.len())
}

#[test]
fn an_uncached_sweep_ranks_like_the_loop() {
    let (space, prior) = (space(), Prior::uniform(LOCATIONS));
    let interest: Vec<usize> = (0..LOCATIONS).collect();
    for method in methods() {
        for adversary in ADVERSARIES {
            let inst = instance(adversary);
            let swept = method.run(&mut model(3), &space, &prior, &interest, &inst);
            let looped = method.run(&mut OneAtATime(model(3)), &space, &prior, &interest, &inst);
            assert_eq!(swept, looped, "{} {adversary}", method.name());
            assert!(swept.1 > 0);
        }
    }
}

#[test]
fn a_cached_sweep_leaves_the_cache_as_the_loop_would() {
    let (space, prior) = (space(), Prior::uniform(LOCATIONS));
    // Location 2 twice: its candidates repeat inside one time-based
    // sweep, so the first occurrence misses and the second hits.
    let interest = [2, 4, 2, 5];
    for method in methods() {
        for adversary in ADVERSARIES {
            let what = format!("{} {adversary}", method.name());
            let inst = instance(adversary);
            let (mut swept_model, mut looped_model) = (model(5), model(5));
            let (mut swept_cache, mut looped_cache) = (LogitCache::new(), LogitCache::new());
            let mut both = |swept_cache: &mut LogitCache, looped_cache: &mut LogitCache| {
                let swept = method.run(
                    &mut CachedBlackBox::new(&swept_model, swept_cache),
                    &space,
                    &prior,
                    &interest,
                    &inst,
                );
                let looped = method.run(
                    &mut OneAtATime(CachedBlackBox::new(&looped_model, looped_cache)),
                    &space,
                    &prior,
                    &interest,
                    &inst,
                );
                assert_eq!(swept, looped, "{what}");
                assert_eq!(cache_state(swept_cache), cache_state(looped_cache), "{what}");
                // The next call replays under an escalated rung's temperature.
                let rung = DefenseKind::Temperature { temperature: 1e-3 };
                swept_model.set_defense(rung);
                looped_model.set_defense(rung);
                swept.1
            };

            // Cold: every distinct query misses once; duplicates hit.
            let queries = both(&mut swept_cache, &mut looped_cache);
            let (hits, misses, len) = cache_state(&swept_cache);
            assert_eq!(hits + misses, queries, "{what}");
            assert_eq!(misses, len as u64, "{what}: one forward pass per distinct query");
            if matches!(method, AttackMethod::TimeBased(_)) {
                assert_eq!(hits * 4, queries, "{what}: the repeated location's share hits");
            }
            // Warm replay, defense escalated, weights unchanged: all hits.
            both(&mut swept_cache, &mut looped_cache);
            assert_eq!(swept_cache.misses, misses, "{what}: a replay ran a forward pass");
            assert_eq!(swept_cache.hits, hits + queries, "{what}");
        }
    }
}

/// `AuditGate::audit_cached` over the loop oracle.
fn reference_audit(
    c: &AuditConfig,
    model: &SequenceModel,
    subject: &AuditSubject,
    cache: &mut LogitCache,
) -> AttackEvaluation {
    let space = space();
    let instances: Vec<Instance> = subject
        .holdout
        .iter()
        .take(c.max_instances)
        .map(|t| c.adversary.instance(t, space.location_of(&t[2])))
        .collect();
    let prior = Prior::of_kind(c.prior, &space, &subject.history, model, c.seed ^ 0x9d);
    let probes = random_probes(&space, c.probe_count, c.seed ^ 0x1f);
    let mut oracle = OneAtATime(CachedBlackBox::new(model, cache));
    let interest = interest_locations(&mut oracle, &probes, INTEREST_THRESHOLD);
    evaluate_attack(&c.method, &mut oracle, &space, &prior, &interest, &instances, &c.ks)
}

/// `AuditGate::admit_with_cache` over the loop oracle.
fn reference_admit(
    c: &AuditConfig,
    mut candidate: SequenceModel,
    subject: &AuditSubject,
) -> (GateOutcome, LogitCache) {
    candidate.set_defense(BASE_DEFENSE);
    let mut defense = BASE_DEFENSE;
    let mut cache = LogitCache::new();
    let mut eval = reference_audit(c, &candidate, subject, &mut cache);
    let initial_leakage = eval.accuracy(c.audit_k);
    let (mut final_leakage, mut audits, mut queries) = (initial_leakage, 1, eval.queries);
    let mut rungs_climbed = 0;
    while final_leakage > c.max_leakage && rungs_climbed < c.ladder.len() {
        defense = c.ladder[rungs_climbed];
        rungs_climbed += 1;
        candidate.set_defense(defense);
        eval = reference_audit(c, &candidate, subject, &mut cache);
        final_leakage = eval.accuracy(c.audit_k);
        audits += 1;
        queries += eval.queries;
    }
    let verdict = if final_leakage > c.max_leakage {
        GateVerdict::Exhausted
    } else if rungs_climbed == 0 {
        GateVerdict::Passed
    } else {
        GateVerdict::Escalated
    };
    let outcome = GateOutcome {
        verdict,
        defense,
        rungs_climbed,
        initial_leakage,
        final_leakage,
        audits,
        queries,
        cached: cache.hits,
        cache_misses: cache.misses,
    };
    (outcome, cache)
}

#[test]
fn the_gate_admits_like_a_gate_built_on_the_loop() {
    let subject = subject(3);
    for method in methods() {
        for adversary in ADVERSARIES {
            // The default budget, and a zero budget at k = every
            // location, which climbs the whole ladder on cached logits.
            for (max_leakage, audit_k) in [(0.35, 3), (0.0, LOCATIONS)] {
                let what = format!("{} {adversary} budget {max_leakage}", method.name());
                let config = AuditConfig {
                    adversary,
                    method: method.clone(),
                    max_leakage,
                    ks: vec![1, audit_k],
                    audit_k,
                    max_instances: 2,
                    ..AuditConfig::default()
                };
                let gate = AuditGate::new(config.clone());
                let (published, outcome, mut cache) =
                    gate.admit_with_cache(model(9), &space(), &subject);
                let (expected, mut expected_cache) = reference_admit(&config, model(9), &subject);
                assert_eq!(outcome, expected, "{what}");
                assert_eq!(cache_state(&cache), cache_state(&expected_cache), "{what}");
                if max_leakage == 0.0 {
                    assert_eq!(outcome.audits, config.ladder.len() + 1, "{what}: full ladder");
                    assert!(matches!(outcome.defense, DefenseKind::Temperature { .. }));
                }

                // The warm re-audit of the published model: same answer,
                // not one forward pass, through either route.
                let replay = gate.audit_cached(&published, &space(), &subject, &mut cache);
                let expected_replay =
                    reference_audit(&config, &published, &subject, &mut expected_cache);
                assert_eq!(cache.misses, outcome.cache_misses, "{what}: a re-audit missed");
                assert_eq!(cache_state(&cache), cache_state(&expected_cache), "{what}");
                assert_eq!(replay.queries, expected_replay.queries, "{what}");
                assert_eq!(replay.accuracy(audit_k), expected_replay.accuracy(audit_k), "{what}");
                assert_eq!(replay.accuracy(audit_k), outcome.final_leakage, "{what}");
            }
        }
    }
}

#[test]
fn a_warm_admission_after_a_re_train_admits_like_the_loop_gate_from_cold() {
    let (space, subject) = (space(), subject(3));
    let train = TrainConfig { epochs: 2, ..TrainConfig::default() };
    let samples: Vec<Sample> = triples(8)
        .iter()
        .map(|t| {
            let xs = vec![space.encode_session(&t[0]), space.encode_session(&t[1])];
            Sample::new(xs, space.location_of(&t[2]))
        })
        .collect();
    for method in [
        PersonalizationMethod::TlFeatureExtract,
        PersonalizationMethod::TlFineTune,
        PersonalizationMethod::Lstm,
    ] {
        for adversary in ADVERSARIES {
            let what = format!("{method:?} {adversary}");
            let config = AuditConfig { adversary, max_instances: 2, ..AuditConfig::default() };
            let gate = AuditGate::new(config.clone());
            let personal =
                PersonalizationConfig { hidden_dim: 8, ..PersonalizationConfig::default() };
            let mut predecessor = prepare(&model(9), method, &personal);
            fit(&mut predecessor, &samples[..4], &train);
            let (_, first, cache) = gate.admit_with_cache(predecessor.clone(), &space, &subject);
            let prefix = cache.prefix;
            // From-scratch models have no frozen prefix and never
            // consult the tier; the others ran it once per forward pass.
            let scratch = method == PersonalizationMethod::Lstm;
            let consulted = |passes: u64| if scratch { 0 } else { passes };
            assert_eq!((prefix.hits, prefix.misses), (0, consulted(first.cache_misses)), "{what}");

            // The warm-start re-train: more epochs, on fresh samples.
            let mut successor = predecessor;
            fit(&mut successor, &samples[4..], &train);
            let (expected, expected_cache) = reference_admit(&config, successor.clone(), &subject);
            let (_, outcome, cache) = gate.admit_inheriting(successor, &space, &subject, prefix);
            assert_eq!(outcome, expected, "{what}");
            assert_eq!(cache_state(&cache), cache_state(&expected_cache), "{what}");
            // Every forward pass of the warm admission asked the tier,
            // which had seen all but the queries a changed interest set
            // brought in.
            let asked = cache.prefix.hits + cache.prefix.misses - consulted(first.cache_misses);
            assert_eq!(asked, consulted(outcome.cache_misses), "{what}");
            assert!(scratch || cache.prefix.hits * 2 > outcome.cache_misses, "{what}: tier unused");
        }
    }
}
