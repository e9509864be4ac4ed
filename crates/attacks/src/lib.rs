//! Model-inversion privacy attacks on personalized next-location models.
//!
//! Implements the paper's §III-B formalization: an honest-but-curious
//! service provider holds **black-box** access to a user's personalized
//! model (outputs + confidence scores only), some side information, and a
//! prior over the sensitive variable, and tries to reconstruct *historical*
//! locations that were inputs to an observed prediction.
//!
//! Three attack methods are implemented, matching Fig. 2a / Table II:
//!
//! * [`BruteForce`] — enumerate every `(location, entry, duration)` value
//!   of the hidden timestep; the accuracy ceiling and the cost ceiling.
//! * [`TimeBased`] — the paper's novel smart enumeration: exploit the
//!   continuity of mobility (`entry ≈ previous entry + previous duration`)
//!   to collapse the entry dimension, and restrict locations to the model's
//!   *locations of interest*; ~100× cheaper at equal accuracy.
//! * [`GradientDescent`] — reconstruct the hidden one-hot input by
//!   descending the model's input gradient with temperature-softened block
//!   projections; cheap but weak on large discrete domains (the paper
//!   measures < 16%).
//!
//! The three adversaries A1/A2/A3 of Table I differ only in which timesteps
//! they observe; see [`Adversary`].
//!
//! One red-team recipe mounts them on a user ([`recipe`]): an
//! [`AuditConfig`] builds the attack instances, the prior and the
//! interest probes for an [`AuditSubject`] and runs the attack over any
//! [`BlackBox`]. The training tier's audit gate, the experiment
//! workbench and the [`ServedAdversary`] that attacks through the
//! serving interface all take it from there.

pub mod adversary;
pub mod eval;
pub mod methods;
pub mod oracle;
pub mod prior;
pub mod recipe;
pub mod served;

pub use adversary::{Adversary, Instance};
pub use eval::{evaluate_attack, AttackEvaluation};
pub use methods::{
    interest_locations, AttackMethod, BruteForce, GradientDescent, Ranking, TimeBased,
    INTEREST_THRESHOLD,
};
pub use oracle::{BlackBox, CachedBlackBox, LogitCache};
pub use prior::{prior_hit_rate, Prior, PriorKind};
pub use recipe::{AuditConfig, AuditSubject};
pub use served::{truncate_top_k, ServedAdversary, ServedAnswer, ServedQuery};
