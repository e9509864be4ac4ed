//! `pelican-live` — the streaming online personalization loop.
//!
//! The paper's pipeline is one-shot: enroll a cohort, personalize each
//! user once, audit, publish, serve. Real fleets never stop moving —
//! devices keep emitting sessions, models go stale, and re-training has
//! to happen *while the serving tier keeps answering queries*. This
//! crate closes that loop on the simulator's virtual clock:
//!
//! ```text
//! mobility sessions ──► MobilityTraffic ──► sim-driven batch scheduler
//!        │ (each arrival = labeled sample)          │ responses
//!        ▼                                          ▼
//!  DriftDetector ──mark──► round timer ──► TrainerPool (warm-start)
//!        ▲                                          │ admit_inheriting
//!        │          durable publish / rollback ◄────┘
//!        └────────── pelican-store ◄── ShardedRegistry
//! ```
//!
//! Three invariants make the loop auditable (all pinned by tests and the
//! `live-report` experiment):
//!
//! * **Width-invariance** — the loop's [`LiveOutcome::fingerprint`] is
//!   bit-identical for 1, 2 or 8 pool workers: per-user seeds, job-order
//!   dispatch and width-invariant simulated durations keep host
//!   scheduling out of the virtual timeline.
//! * **Zero-cost re-audits** — a re-audit of an unchanged candidate
//!   replays its warm [`pelican_train::LogitCache`] and pays **zero**
//!   forward passes ([`ReauditStats::misses`] stays 0). A *changed*
//!   candidate's admission pays forward passes only above the frozen
//!   base a re-train cannot move: each user's
//!   [`pelican_nn::PrefixTier`] keeps what the base answered
//!   ([`LiveOutcome::prefix_hits`]).
//! * **Quiescent equivalence** — with a drift trigger that never fires,
//!   the run reduces exactly to today's one-shot pipeline plus serving
//!   pass: same published envelope bytes, same serving fingerprint.

pub mod drift;
pub mod flow;
pub mod report;

pub use drift::{DriftConfig, DriftDetector, DriftMetric, DriftScore};
pub use flow::{bootstrap_jobs, live_stream, run_live, LiveConfig, LiveStream};
pub use report::{LiveOutcome, ReauditStats, RetrainRecord};
