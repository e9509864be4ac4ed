//! The privacy-audit gate: no model reaches the serving registry without
//! facing the attack suite first.
//!
//! The paper evaluates model-inversion attacks *after* deployment; a
//! production fleet cannot afford that ordering. The gate turns the
//! [`pelican_attacks`] evaluation into a release check: every candidate
//! model is attacked with the provider's own red-team configuration
//! (adversary, attack method, prior), and if the measured leakage — attack
//! accuracy at the audit's top-k cutoff — exceeds the provider's budget,
//! the gate **escalates the defense** (climbing a ladder of
//! [`DefenseKind`] rungs, e.g. ever-sharper privacy temperatures) and
//! re-audits before release. A model leaves the gate in exactly one of
//! three states: passed as-is, escalated until compliant, or published
//! with the strongest rung *flagged* as still-leaking
//! ([`GateVerdict::Exhausted`]) so operators can quarantine it.
//!
//! Audits are deterministic: probes, priors and instances all derive from
//! the gate's seed, so the same candidate always receives the same
//! verdict — bit-identical across the trainer pool's worker counts.
//!
//! **The cache contract.** An audit answers its queries through a
//! [`LogitCache`] of two tiers. The *logits* belong to one candidate's
//! weights: [`AuditGate::admit_inheriting`] fills them on the first rung
//! and replays them on every later one, and hands them back so that
//! [`AuditGate::audit_cached`] can re-verify the unchanged published
//! model with zero forward passes; they are never carried to another
//! candidate. The *prefix activations* belong to the frozen prefix the
//! user's models share across re-trains, so an admission may start from
//! its predecessor's ([`LogitCache::prefix`]) and then runs only the
//! layers above the prefix; a tier that does not fit the candidate is
//! detected and emptied, never trusted. Either way the gate's outcome,
//! the logit counters and the cache's `flops` — the audit's simulated
//! cost — are those of an audit from nothing.

use pelican::DefenseKind;
use pelican_attacks::{AttackEvaluation, AuditConfig, AuditSubject, CachedBlackBox, LogitCache};
use pelican_mobility::FeatureSpace;
use pelican_nn::{PrefixTier, SequenceModel};

/// Defense every candidate carries into its first audit: none — the gate
/// measures the model as trained and deploys a rung only when it leaks.
pub const BASE_DEFENSE: DefenseKind = DefenseKind::None;

/// How a candidate left the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateVerdict {
    /// Leakage was within budget under the base defense.
    Passed,
    /// One or more ladder rungs were applied; the final audit passed.
    Escalated,
    /// Even the strongest available rung (or the base defense, if the
    /// ladder is empty) leaked above budget; the model carries it anyway
    /// and is flagged for the operator.
    Exhausted,
}

impl std::fmt::Display for GateVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateVerdict::Passed => write!(f, "passed"),
            GateVerdict::Escalated => write!(f, "escalated"),
            GateVerdict::Exhausted => write!(f, "exhausted"),
        }
    }
}

/// The gate's full record for one candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Final state of the candidate.
    pub verdict: GateVerdict,
    /// Defense deployed on the published model.
    pub defense: DefenseKind,
    /// Ladder rungs climbed (0 when the base defense sufficed).
    pub rungs_climbed: usize,
    /// Attack accuracy at `audit_k` under the base defense.
    pub initial_leakage: f64,
    /// Attack accuracy at `audit_k` under the published defense.
    pub final_leakage: f64,
    /// Audits run (1 + re-audits after escalations).
    pub audits: usize,
    /// Total black-box model queries the audits spent.
    pub queries: u64,
    /// Oracle queries answered from the per-candidate logit cache
    /// instead of a forward pass. Escalation rungs only change the
    /// deployed defense (temperature/post-processing), never the
    /// weights, so every re-audit replays cached logits. Note the two
    /// counters have different scopes: `queries` counts *attack*
    /// queries only, while `cached` also counts replayed
    /// interest-probe sweeps — so `cached` can exceed `queries`; the
    /// gate's true forward-pass count is
    /// `queries + probe_count * audits - cached`.
    pub cached: u64,
    /// Oracle queries that actually ran a forward pass (the cache
    /// misses), the gate's forward-pass count. For a fresh candidate this
    /// is the cost of audit #1; for a re-audit riding a warm
    /// [`LogitCache`] of unchanged weights it is zero — the observable
    /// form of "unchanged candidates pay zero forward passes".
    pub cache_misses: u64,
}

impl GateOutcome {
    /// Whether the published model's leakage is within the gate's budget.
    pub fn within_budget(&self, config: &AuditConfig) -> bool {
        self.final_leakage <= config.max_leakage
    }
}

/// Audits candidate models and escalates their defenses until the leakage
/// budget holds (or the ladder runs out).
#[derive(Debug, Clone)]
pub struct AuditGate {
    config: AuditConfig,
}

impl AuditGate {
    /// Creates a gate.
    ///
    /// # Panics
    ///
    /// Panics if `audit_k` is missing from `ks` or `max_leakage` is
    /// outside `[0, 1]`.
    pub fn new(config: AuditConfig) -> Self {
        assert!(
            config.ks.contains(&config.audit_k),
            "audit_k={} must be part of the evaluated grid {:?}",
            config.audit_k,
            config.ks
        );
        assert!(
            (0.0..=1.0).contains(&config.max_leakage),
            "max_leakage must be a fraction, got {}",
            config.max_leakage
        );
        Self { config }
    }

    /// The gate's red-team configuration.
    pub fn config(&self) -> &AuditConfig {
        &self.config
    }

    /// Runs one audit: attacks the candidate as-is with the red-team
    /// recipe ([`AuditConfig::attack`]) and returns the aggregate
    /// evaluation. A subject with no held-out triples yields an empty
    /// evaluation (leakage 0 — nothing to attack with).
    ///
    /// `cache` is the candidate's logit cache. It keys raw logits by
    /// query fingerprint, so it stays valid across *defense* changes of
    /// the same weights — exactly what [`AuditGate::admit_with_cache`]'s
    /// escalation ladder does between rungs: the first audit fills the
    /// cache, and every re-audit under a sharper temperature re-scores
    /// its candidates from cached logits without a single new forward
    /// pass. Never reuse the cached logits across candidates (weight
    /// changes invalidate them, and nothing checks); the cache's prefix
    /// tier is checked against `model` and may come from anywhere. A
    /// one-off audit passes a fresh [`LogitCache`].
    pub fn audit_cached(
        &self,
        model: &SequenceModel,
        space: &FeatureSpace,
        subject: &AuditSubject,
        cache: &mut LogitCache,
    ) -> AttackEvaluation {
        let c = &self.config;
        let instances = c.instances(space, subject);
        let prior = c.prior(space, subject, Some(model));
        // What the audit runs beside its oracle is priced with it.
        let beside = instances.len() as u64 * c.method.cost_beside_oracle(space);
        cache.flops += c.prior.cost(model) + beside;
        c.attack(&mut CachedBlackBox::new(model, cache), space, &prior, &instances)
    }

    /// The full gate: installs the base defense, audits, escalates along
    /// the ladder while leakage exceeds the budget, and returns the
    /// release-ready model (defense installed), the gate's record, and
    /// the logit cache the ladder filled — the entry point for
    /// *incremental* re-audits. The cache is keyed to the released
    /// candidate's weights, so a later [`AuditGate::audit_cached`] of the
    /// same published model (policy re-verification of an unchanged
    /// candidate) replays it entirely and pays zero forward passes. Drop
    /// its logits the moment the user's weights change (e.g. after a
    /// warm-start re-train); its prefix tier can go on to the re-trained
    /// candidate's admission. This is [`AuditGate::admit_inheriting`]
    /// from an empty tier.
    pub fn admit_with_cache(
        &self,
        candidate: SequenceModel,
        space: &FeatureSpace,
        subject: &AuditSubject,
    ) -> (SequenceModel, GateOutcome, LogitCache) {
        self.admit_inheriting(candidate, space, subject, PrefixTier::new())
    }

    /// The admission itself: [`AuditGate::admit_with_cache`] starting
    /// from `prefix`, the prefix tier of the cache the user's previous
    /// admission handed back. Where the candidate still has its
    /// predecessor's frozen prefix (a warm-start re-train of a
    /// transfer-learned model), the audit runs only the layers above it;
    /// where it does not, the tier is emptied and the audit runs
    /// everything. Model, outcome and logit counters do not depend on
    /// what `prefix` held.
    pub fn admit_inheriting(
        &self,
        mut candidate: SequenceModel,
        space: &FeatureSpace,
        subject: &AuditSubject,
        prefix: PrefixTier,
    ) -> (SequenceModel, GateOutcome, LogitCache) {
        let c = &self.config;
        candidate.set_defense(BASE_DEFENSE);
        let mut defense = BASE_DEFENSE;
        // One logit cache for the whole ladder: rungs only swap the
        // deployed defense (temperature/post-processing), never the
        // weights, so every re-audit below replays cached logits instead
        // of re-running forward passes.
        let mut cache = LogitCache::new();
        cache.prefix = prefix;
        let mut eval = self.audit_cached(&candidate, space, subject, &mut cache);
        let initial_leakage = eval.accuracy(c.audit_k);
        let mut final_leakage = initial_leakage;
        let mut audits = 1;
        let mut queries = eval.queries;
        let mut rungs_climbed = 0;

        while final_leakage > c.max_leakage && rungs_climbed < c.ladder.len() {
            defense = c.ladder[rungs_climbed];
            rungs_climbed += 1;
            candidate.set_defense(defense);
            eval = self.audit_cached(&candidate, space, subject, &mut cache);
            final_leakage = eval.accuracy(c.audit_k);
            audits += 1;
            queries += eval.queries;
        }

        // Verdicts follow the *leakage*, not the rung count: with an
        // empty ladder an over-budget model must still come out flagged,
        // never "passed".
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
        (candidate, outcome, cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelican_mobility::{Session, SpatialLevel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> FeatureSpace {
        FeatureSpace::new(SpatialLevel::Building, 6)
    }

    fn subject(space: &FeatureSpace, n: usize) -> AuditSubject {
        let mk = |b: usize, e: u32| Session {
            user: 0,
            building: b % space.n_locations,
            ap: b % space.n_locations,
            day: 1,
            entry_minutes: e,
            duration_minutes: 45,
        };
        let holdout: Vec<[Session; 3]> =
            (0..n).map(|i| [mk(i, 500), mk(i + 1, 550), mk(i + 2, 600)]).collect();
        let history = holdout.iter().flat_map(|t| t.iter().copied()).collect();
        AuditSubject { history, holdout }
    }

    fn model(seed: u64, space: &FeatureSpace) -> SequenceModel {
        let mut rng = StdRng::seed_from_u64(seed);
        SequenceModel::general_lstm(space.dim(), 8, space.n_locations, 0.0, &mut rng)
    }

    #[test]
    fn permissive_budget_passes_without_escalation() {
        let space = space();
        let gate = AuditGate::new(AuditConfig { max_leakage: 1.0, ..AuditConfig::default() });
        let (_, outcome, _) = gate.admit_with_cache(model(1, &space), &space, &subject(&space, 4));
        assert_eq!(outcome.verdict, GateVerdict::Passed);
        assert_eq!(outcome.rungs_climbed, 0);
        assert_eq!(outcome.defense, DefenseKind::None);
        assert_eq!(outcome.audits, 1);
        assert!(outcome.queries > 0);
        assert!(outcome.within_budget(gate.config()));
    }

    #[test]
    fn impossible_budget_exhausts_the_ladder() {
        let space = space();
        // Audit at k = n_locations: the truth is always inside the full
        // ranking, so leakage is exactly 1.0 under every defense and a
        // zero budget must climb the whole ladder and come out flagged.
        let config =
            AuditConfig { max_leakage: 0.0, ks: vec![1, 6], audit_k: 6, ..AuditConfig::default() };
        let ladder_len = config.ladder.len();
        let gate = AuditGate::new(config);
        let (published, outcome, _) =
            gate.admit_with_cache(model(2, &space), &space, &subject(&space, 4));
        assert_eq!(outcome.rungs_climbed, ladder_len, "every rung was tried");
        assert_eq!(outcome.audits, ladder_len + 1);
        assert_eq!(outcome.verdict, GateVerdict::Exhausted);
        assert_eq!(outcome.defense, DefenseKind::Temperature { temperature: 1e-5 });
        assert_eq!(published.defense(), outcome.defense, "strongest rung stays deployed");
    }

    #[test]
    fn empty_ladder_over_budget_is_exhausted_not_passed() {
        let space = space();
        // No rungs to climb: an over-budget model must still come out
        // flagged (leakage decides the verdict, not the rung count).
        let gate = AuditGate::new(AuditConfig {
            max_leakage: 0.0,
            ks: vec![1, 6],
            audit_k: 6,
            ladder: Vec::new(),
            ..AuditConfig::default()
        });
        let (_, outcome, _) = gate.admit_with_cache(model(9, &space), &space, &subject(&space, 4));
        assert_eq!(outcome.verdict, GateVerdict::Exhausted);
        assert_eq!(outcome.rungs_climbed, 0);
        assert_eq!(outcome.defense, DefenseKind::None, "base defense stays deployed");
        assert!(!outcome.within_budget(gate.config()));
    }

    #[test]
    fn rung_escalation_rescores_nothing_it_already_scored() {
        let space = space();
        // Zero budget at k = n_locations forces the gate up the whole
        // ladder: 1 base audit + 3 escalated re-audits.
        let config =
            AuditConfig { max_leakage: 0.0, ks: vec![1, 6], audit_k: 6, ..AuditConfig::default() };
        let gate = AuditGate::new(config);
        let s = subject(&space, 4);
        let candidate = model(2, &space);

        // Reference: the forward passes one audit of the base-defended
        // candidate costs (probes + attack queries, deduplicated).
        let mut base = candidate.clone();
        base.set_defense(BASE_DEFENSE);
        let mut first = LogitCache::new();
        let first_eval = gate.audit_cached(&base, &space, &s, &mut first);

        let (_, outcome, _) = gate.admit_with_cache(candidate, &space, &s);
        assert_eq!(outcome.audits, gate.config().ladder.len() + 1);
        assert!(outcome.cached > 0, "re-audits must hit the cache");
        // Every oracle query the gate made: attack queries plus one probe
        // sweep per audit. Subtracting the cache hits leaves the true
        // forward-pass count — which must equal audit #1's alone, i.e.
        // the three escalation rungs re-scored nothing they had scored.
        let probe_queries = (gate.config().probe_count * outcome.audits) as u64;
        assert_eq!(
            outcome.queries + probe_queries - outcome.cached,
            first.misses,
            "escalation rungs must not re-run any forward pass"
        );
        // The outcome carries the counters directly: forward passes equal
        // audit #1's misses.
        assert_eq!(outcome.cache_misses, first.misses);
        // Re-audits still pay (and account) their black-box queries; only
        // the forward passes vanish.
        assert!(outcome.queries > first_eval.queries);
    }

    #[test]
    fn reaudit_of_unchanged_candidate_pays_zero_forward_passes() {
        let space = space();
        let gate = AuditGate::new(AuditConfig::default());
        let s = subject(&space, 5);
        let (published, outcome, mut cache) = gate.admit_with_cache(model(6, &space), &space, &s);
        assert!(outcome.cache_misses > 0, "the first audit pays real forward passes");
        let misses_before = cache.misses;
        // Policy re-verification of the unchanged published model: every
        // oracle query replays from the warm cache.
        let reaudit = gate.audit_cached(&published, &space, &s, &mut cache);
        assert_eq!(cache.misses, misses_before, "unchanged candidate re-ran a forward pass");
        assert_eq!(reaudit.accuracy(gate.config().audit_k), outcome.final_leakage);
    }

    #[test]
    fn cached_escalation_matches_an_uncached_audit_of_the_published_model() {
        let space = space();
        let config =
            AuditConfig { max_leakage: 0.0, ks: vec![1, 6], audit_k: 6, ..AuditConfig::default() };
        let gate = AuditGate::new(config);
        let s = subject(&space, 5);
        let (published, outcome, _) = gate.admit_with_cache(model(3, &space), &space, &s);
        // A fresh, cache-free audit of the exact model the gate released
        // reproduces the gate's final leakage bit for bit.
        let fresh = gate.audit_cached(&published, &space, &s, &mut LogitCache::new());
        assert_eq!(fresh.accuracy(6), outcome.final_leakage);
    }

    #[test]
    fn verdicts_are_deterministic() {
        let space = space();
        let gate = AuditGate::new(AuditConfig::default());
        let s = subject(&space, 5);
        let (m1, o1, _) = gate.admit_with_cache(model(3, &space), &space, &s);
        let (m2, o2, _) = gate.admit_with_cache(model(3, &space), &space, &s);
        assert_eq!(o1, o2);
        let xs = vec![vec![0.2; space.dim()]; 2];
        assert_eq!(m1.predict_proba(&xs), m2.predict_proba(&xs));
    }

    #[test]
    fn empty_holdout_passes_trivially() {
        let space = space();
        let gate = AuditGate::new(AuditConfig::default());
        let empty = AuditSubject { history: subject(&space, 2).history, holdout: Vec::new() };
        let (_, outcome, _) = gate.admit_with_cache(model(4, &space), &space, &empty);
        assert_eq!(outcome.verdict, GateVerdict::Passed);
        assert_eq!(outcome.final_leakage, 0.0);
    }

    #[test]
    #[should_panic(expected = "must be part of the evaluated grid")]
    fn audit_k_must_be_evaluated() {
        let _ = AuditGate::new(AuditConfig { audit_k: 7, ..AuditConfig::default() });
    }
}
