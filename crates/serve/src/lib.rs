//! **`pelican-serve`** — fleet-scale batched serving for personalized
//! next-location models.
//!
//! The paper's deployment story (Fig. 4, step 3) ends at "on-device or
//! cloud-hosted black-box serving". This crate is that step, grown into
//! the ROADMAP's north star — a serving tier shaped like production
//! infrastructure for heavy traffic from a large user fleet — while
//! preserving the reproduction's two core contracts: *determinism* (every
//! run is a pure function of its seeds) and *exactness* (a batched answer
//! is bit-identical to the unbatched answer the paper's experiments
//! measure).
//!
//! Four pieces compose the subsystem:
//!
//! * [`registry`] — an N-shard model store. Personalized models rest as
//!   cold [`pelican_nn::ModelEnvelope`] bytes (the Fig. 4 upload format)
//!   and are decoded into bounded per-shard LRU hot caches on demand;
//!   users who never personalized fall back to the shared general model
//!   `M_G` instead of failing with an unknown-user error.
//! * [`traffic`] — a seeded open-loop generator with Zipf-skewed user
//!   popularity and bursty arrivals, the load shape campus WiFi mobility
//!   actually produces.
//! * [`scheduler`] + [`simserve`] — size/deadline coalescing of
//!   same-shard requests into batches, sealed by timers on the
//!   [`pelican_sim`] virtual clock and executed through the fused
//!   [`pelican_nn::SequenceModel::predict_proba_batch`] kernels and priced
//!   from each model's shape on a [`pelican::ComputeTier`]. The per-user
//!   privacy layer (§V-B temperature sharpening) applies per batch row,
//!   which is why batching cannot perturb any user's answers.
//! * [`metrics`] — throughput, batch-size histogram, cache hit rate and
//!   p50/p95/p99 simulated latency, all deterministic.
//!
//! [`fleet::run_fleet`] wires the four together for the `serve-report`
//! experiment. Every run — on-device or
//! cloud — is one [`simserve::simulate_serving`] pass: shard buffers seal
//! on sim timer events and fused batches occupy their shard's compute
//! resource (back-to-back batches queue, and each completion carries a
//! queue/service split). With [`simserve::SimServeConfig::network`] set,
//! queries also cross their client's seeded uplink before they can be
//! batched, responses return over one shared contended egress link, and
//! the round-trip summary lands in [`fleet::FleetOutcome::network`].
//!
//! # Example
//!
//! ```
//! use pelican_serve::registry::{Lookup, RegistryConfig, ShardedRegistry};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let general = pelican_nn::SequenceModel::single_lstm(4, 6, 3, 0.0, &mut rng);
//! let personalized = pelican_nn::SequenceModel::single_lstm(4, 6, 3, 0.0, &mut rng);
//!
//! // Lookups and publications both go through `&self`: bookkeeping is
//! // interior-mutable, so serving threads and a publisher can share one
//! // registry.
//! let registry =
//!     ShardedRegistry::new(general, RegistryConfig { shards: 4, hot_capacity: 16 });
//! registry.enroll(7, &personalized);
//!
//! let (_, first) = registry.get(7).unwrap();
//! assert_eq!(first, Lookup::Cold); // decoded from envelope bytes
//! let (_, second) = registry.get(7).unwrap();
//! assert_eq!(second, Lookup::Hot); // now cached
//! let (_, other) = registry.get(99).unwrap();
//! assert_eq!(other, Lookup::Fallback); // unenrolled -> general model
//! ```

pub mod fleet;
pub mod metrics;
pub mod registry;
pub mod scheduler;
pub mod simserve;
pub mod traffic;

pub use fleet::{run_fleet, CloudNetwork, CloudRtt, FleetConfig, FleetOutcome};
pub use metrics::{MetricsSink, ServeReport};
pub use registry::{Lookup, RegistryConfig, RegistryStats, ShardedRegistry, UpdateError};
pub use scheduler::{Batch, Completion, Request, SchedulerConfig, ServeEngine};
pub use simserve::{
    job_id, serve_harness, simulate_serving, split_job_id, Lane, ServeFlow, ServeHarness, ServeJob,
    ServedRequest, SimServeConfig, SimServeOutcome,
};
pub use traffic::{
    Arrival, MobilityTraffic, MobilityTrafficConfig, TrafficConfig, TrafficGenerator,
};
