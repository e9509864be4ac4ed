//! **`pelican-train`** — parallel fleet personalization with a
//! privacy-audit gate and hot-swap publication.
//!
//! The paper personalizes one model per user on that user's device and
//! evaluates privacy attacks against the models *after* deployment. The
//! serving tier ([`pelican_serve`]) already scales the query side of that
//! story; this crate scales the *training* side toward the ROADMAP's
//! north star — personalizing an entire fleet as fast as the hardware
//! allows, with no model reaching production unaudited:
//!
//! * [`pool`] — a work-stealing trainer pool over `std::thread` +
//!   channels. Per-user jobs are stolen from a shared queue; per-user
//!   seeds derive from [`pool::user_seed`], so parallel output is
//!   **bit-identical** to sequential output for any worker count.
//! * [`job`] — per-user [`job::TrainJob`]s: fresh personalization
//!   (Fig. 4 step 2, via [`pelican::personalize()`]) or warm-start updates
//!   (step 4, [`pelican_nn::fit`] from the current parameters) of the
//!   user's currently published envelope.
//! * [`audit`] — the privacy-audit gate: every candidate model is
//!   attacked with the [`pelican_attacks`] suite before release, and the
//!   gate escalates the deployed defense (a ladder of
//!   [`pelican::DefenseKind`] rungs) and re-audits whenever leakage
//!   exceeds the provider's budget.
//! * [`pipeline`] — [`pipeline::FleetTrainer`] wires the three together
//!   and hot-swaps audited envelopes into a shared
//!   [`pelican_serve::ShardedRegistry`] through its `&self` publication
//!   path, so serving continues while the fleet retrains.
//! * [`report`] — throughput (models/s vs. worker count), audit
//!   pass/escalate/exhaust counts and end-to-end enroll latency.
//! * [`rollback`] — the durable registry as an operational tool: a
//!   fleet-wide bad publication is canary-detected and rolled back to
//!   the prior retained version over contended links while queries keep
//!   flowing, with the staleness window measured on the virtual clock.
//! * [`staleness`] — the detection→last-swap window measurement itself,
//!   shared with any other flow that swaps a fleet back (e.g. the A/B
//!   losing-arm flip in `pelican-abx`).
//! * [`cosim`] — runs one or more pipeline rounds through the
//!   [`pelican_sim`] discrete-event simulator: downloads overlap training
//!   across the fleet, uploads queue on a shared uplink, stragglers
//!   straggle, and the whole timeline is bit-identical across pool
//!   widths. Over several rounds network outcomes can feed back (a
//!   timed-out download means the device never trains that round,
//!   retries reorder warm-start arrivals, audit compute and publication
//!   uploads share the same virtual clock), with open-loop replay and
//!   closed-loop co-simulation bit-identical exactly when nothing fails.
//!
//! # Example
//!
//! ```
//! use pelican_mobility::{CampusConfig, DatasetBuilder, Scale, SpatialLevel};
//! use pelican_nn::SequenceModel;
//! use pelican_serve::{RegistryConfig, ShardedRegistry};
//! use pelican_train::{cohort_jobs, run_pipeline, PipelineConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let dataset = DatasetBuilder::new(CampusConfig::for_scale(Scale::Tiny), 7)
//!     .build(SpatialLevel::Building);
//! let mut rng = StdRng::seed_from_u64(7);
//! let general = SequenceModel::general_lstm(
//!     dataset.space.dim(), 8, dataset.n_locations(), 0.1, &mut rng);
//!
//! // Personalize one user in parallel-capable machinery, audit the
//! // candidate, and hot-swap it into the serving registry.
//! let n = dataset.users.len();
//! let jobs = cohort_jobs(&dataset, (n - 1)..n, 0.8);
//! let registry = ShardedRegistry::new(general.clone(), RegistryConfig::default());
//! let config = PipelineConfig {
//!     workers: 2,
//!     personalization: pelican::PersonalizationConfig {
//!         train: pelican_nn::TrainConfig { epochs: 1, ..Default::default() },
//!         hidden_dim: 8,
//!         ..Default::default()
//!     },
//!     ..PipelineConfig::default()
//! };
//! let report = run_pipeline(config, &general, &dataset.space, &jobs, &registry);
//! assert_eq!(report.outcomes.len(), jobs.len());
//! assert!(registry.is_enrolled(jobs[0].user_id));
//! ```

pub mod audit;
pub mod cosim;
pub mod job;
pub mod pipeline;
pub mod pool;
pub mod report;
pub mod rollback;
pub mod staleness;

pub use audit::{AuditConfig, AuditGate, AuditSubject, GateOutcome, GateVerdict, BASE_DEFENSE};
// The cache type `AuditGate::admit_with_cache` hands back; re-exported so
// incremental re-audit callers need no direct `pelican_attacks` edge.
pub use cosim::{
    cosimulate_fleet, CosimReport, LoopMode, NetworkConfig, Publication, RoundRecord, UplinkMode,
};
pub use job::{cohort_jobs, JobKind, TrainJob};
pub use pelican_attacks::LogitCache;
pub use pipeline::{run_pipeline, FleetTrainer, PipelineConfig};
pub use pool::{user_seed, TrainerPool};
pub use report::{JobOutcome, PublishFailure, TrainReport};
pub use rollback::{run_rollback_study, RollbackConfig, RollbackOutcome, RollbackReport};
pub use staleness::{count_degraded_after_swap, StalenessWindow};
