//! Closed-loop A/B experimentation of defense rungs under live traffic.
//!
//! The audit gate answers "how much does this rung leak?" with the model
//! in hand — an offline oracle. This crate answers the question a
//! provider actually faces: *given two candidate defense rungs, which one
//! should the fleet run?* — and answers it the only way that reflects
//! deployment, through the serving interface, under background load, on
//! the simulator's virtual clock:
//!
//! * [`splitter`] — seeded hash-based cohort assignment: disjoint,
//!   stable, permutation-invariant A / B / holdout splits;
//! * [`publisher`] — per-arm training and durable publication; treatment
//!   users retain the *other* arm's rung as a shadow version so the
//!   losing cohort's flip-back is a store rollback, not a retrain;
//! * [`verdict`] — per-arm leakage (attack advantage over each user's
//!   own prior baseline) and latency accumulation, and the
//!   promote / null decision with its latency guard;
//! * [`flow`] — the composed reactive workload: background traffic,
//!   front-door adversaries paying real queue and wire latency,
//!   checkpoint verdicts, and the promote / flip-back rollout while
//!   queries keep flowing;
//! * [`report`] — the experiment record and its determinism fingerprint.
//!
//! The `ab-report` experiment in the bench harness drives all of this
//! end-to-end and asserts the contracts: cohorts disjoint and
//! seed-stable, A/A runs decide null, fingerprints identical across
//! trainer-pool widths, and zero degraded responses after a flip lands.

pub mod flow;
pub mod publisher;
pub mod report;
pub mod splitter;
pub mod verdict;

pub use flow::{run_abx, AbxConfig, FRACTIONS, SPLIT_SEED};
pub use publisher::{defended, publish_arms, ArmPublication};
pub use report::{AbxOutcome, AttackRecord, PublicationRecord, SwapKind, SwapRecord};
pub use splitter::{Arm, CohortSplit, CohortSplitter};
pub use verdict::{ArmStats, Verdict, VerdictConfig, VerdictEngine};
