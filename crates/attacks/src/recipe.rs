//! The red-team recipe: the one way a user is attacked.
//!
//! The provider's audit gate (§V) is the paper's own inversion attack
//! (§III-B) run before a model ships, and the experiment workbench and
//! the A/B front door mount the same attack. All of them take it from
//! here, as an [`AuditConfig`] applied to an [`AuditSubject`]:
//!
//! 1. [`AuditConfig::instances`] — the adversary's view of the subject's
//!    first `max_instances` held-out triples;
//! 2. [`AuditConfig::prior`] — the prior of the configured kind, built
//!    from the subject's history (or, for [`PriorKind::Predict`], from
//!    the answers of the model under attack);
//! 3. [`AuditConfig::probes`] — the random probes that map the model's
//!    locations of interest;
//! 4. [`AuditConfig::attack`] — the configured method over any
//!    [`BlackBox`], scored at the configured cutoffs.
//!
//! Callers differ only in the oracle they hand the attack: the gate a
//! logit-cached model, the workbench the model itself, the served
//! adversary the answers it got through the serving interface.

use pelican_mobility::{FeatureSpace, Session};
use pelican_nn::{DefenseKind, Sequence, SequenceModel};

use crate::adversary::{Adversary, Instance};
use crate::eval::{evaluate_attack, AttackEvaluation};
use crate::methods::{interest_locations, AttackMethod, TimeBased, INTEREST_THRESHOLD};
use crate::oracle::BlackBox;
use crate::prior::{random_probes, Prior, PriorKind};

/// Everything the attack needs to know about the user being attacked.
///
/// Mirrors the threat model of §III-B: the provider red-teams with the
/// user's *training-time* marginals as the prior and attacks held-out
/// triples the model never saw.
#[derive(Debug, Clone)]
pub struct AuditSubject {
    /// The user's training sessions (prior marginals come from these).
    pub history: Vec<Session>,
    /// Held-out session triples; attack instances are built from them.
    pub holdout: Vec<[Session; 3]>,
}

/// Red-team configuration: the attack, and the audit gate's budget and
/// escalation ladder around it.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Which timesteps the simulated adversary observes (Table I).
    pub adversary: Adversary,
    /// Attack method run against each candidate.
    pub method: AttackMethod,
    /// Prior handed to the attack.
    pub prior: PriorKind,
    /// Top-k grid the evaluation scores.
    pub ks: Vec<usize>,
    /// The cutoff in `ks` the leakage threshold applies to.
    pub audit_k: usize,
    /// Attack instances sampled per audit (cost knob).
    pub max_instances: usize,
    /// Maximum tolerated attack accuracy at `audit_k` (fraction in
    /// `[0, 1]`). Above this, the gate escalates.
    pub max_leakage: f64,
    /// Escalation ladder, weakest rung first. Rungs are absolute
    /// deployments, not increments: each one replaces the previous.
    pub ladder: Vec<DefenseKind>,
    /// Random probes used for the locations-of-interest scan.
    pub probe_count: usize,
    /// Seed for probe generation and prediction-based priors.
    pub seed: u64,
}

impl Default for AuditConfig {
    /// Audits with the paper's cheapest strong attack (time-based, A1,
    /// true prior) and escalates through the privacy-temperature sweep of
    /// Fig. 5b. The budget applies at top-3: that is where the time-based
    /// attack separates defended from undefended models (top-1 is near
    /// the noise floor at small scales, Fig. 2a).
    fn default() -> Self {
        Self {
            adversary: Adversary::A1,
            method: AttackMethod::TimeBased(TimeBased::default()),
            prior: PriorKind::True,
            ks: vec![1, 3],
            audit_k: 3,
            max_instances: 6,
            max_leakage: 0.35,
            ladder: vec![
                DefenseKind::Temperature { temperature: 1e-1 },
                DefenseKind::Temperature { temperature: 1e-3 },
                DefenseKind::Temperature { temperature: 1e-5 },
            ],
            probe_count: 24,
            seed: 0x5EED,
        }
    }
}

impl AuditConfig {
    /// The attack instances: the adversary's view of the subject's first
    /// `max_instances` held-out triples.
    pub fn instances(&self, space: &FeatureSpace, subject: &AuditSubject) -> Vec<Instance> {
        subject
            .holdout
            .iter()
            .take(self.max_instances)
            .map(|t| self.adversary.instance(t, space.location_of(&t[2])))
            .collect()
    }

    /// The prior the attack weights its scores by. `model` is the model
    /// under attack with its defense installed: a [`PriorKind::Predict`]
    /// prior averages its answers, and no other kind reads it.
    ///
    /// # Panics
    ///
    /// Panics on a predicted prior without a model.
    pub fn prior(
        &self,
        space: &FeatureSpace,
        subject: &AuditSubject,
        model: Option<&SequenceModel>,
    ) -> Prior {
        Prior::of_kind(self.prior, space, &subject.history, model, self.seed ^ 0x9d)
    }

    /// The random probes that map the model's locations of interest.
    pub fn probes(&self, space: &FeatureSpace) -> Vec<Sequence> {
        random_probes(space, self.probe_count, self.seed ^ 0x1f)
    }

    /// The attack: maps the locations of interest with
    /// [`AuditConfig::probes`] at [`INTEREST_THRESHOLD`], then runs the
    /// method over `instances`, every query through `oracle`, and scores
    /// it at `ks`.
    pub fn attack(
        &self,
        oracle: &mut impl BlackBox,
        space: &FeatureSpace,
        prior: &Prior,
        instances: &[Instance],
    ) -> AttackEvaluation {
        let interest = interest_locations(oracle, &self.probes(space), INTEREST_THRESHOLD);
        evaluate_attack(&self.method, oracle, space, prior, &interest, instances, &self.ks)
    }
}
