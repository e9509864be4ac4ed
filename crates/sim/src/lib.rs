//! **`pelican-sim`** — a deterministic discrete-event network simulator
//! for the device↔cloud fleet, built to scale to 10⁵–10⁶ devices.
//!
//! The reproduction's fleet subsystems move model envelopes and query
//! payloads across the device↔cloud boundary: general-model downloads
//! (Fig. 4 step 2), personalized-model publication uploads (step 4) and
//! cloud-served queries (step 3). Before this crate the platform layer
//! priced every transfer as an isolated `latency + bytes/bandwidth`
//! duration — no contention, no overlap with compute, no stragglers.
//! `pelican-sim` replaces that with a proper discrete-event simulation:
//!
//! * [`engine`] — a virtual clock and timer-wheel event queue driving
//!   [`JobSpec`]s (ordered compute/transfer stages) to completion.
//!   Transfers contend on shared links, can time out (even while still
//!   queued) and retry with exponential backoff. Simulators are
//!   assembled with [`Simulator::builder`] (links, trace retention) and
//!   run through one entry point, [`Simulator::run`], generic over a
//!   [`Workload`]: pass [`Passive`] for a closed replay, or a reactive
//!   workload that observes every job ending at virtual time and
//!   injects new jobs and timer events mid-run — the hook the serving
//!   scheduler and the closed-loop training co-simulation are built on.
//! * [`wheel`] — the hierarchical [`TimerWheel`] behind the engine:
//!   O(1) schedule/fire with a sorted far-future overflow bucket,
//!   popping in exactly the `(time, seq)` order of the binary heap it
//!   replaced.
//! * [`link`] — [`LinkProfile`]s (wifi/WAN/cellular), the FIFO and
//!   fair-share (processor sharing) bandwidth [`Discipline`]s, and
//!   seeded heterogeneous fleet assignment via [`LinkMix`], including
//!   straggler injection.
//! * [`trace`] — every engine transition in execution order, collapsed
//!   to a [`fingerprint`] so end-to-end determinism (same seed ⇒
//!   bit-identical traces, regardless of host or caller thread counts)
//!   is cheap to assert on every run. At fleet scale,
//!   [`TraceLevel::Fingerprint`] streams the hash without retaining
//!   events.
//! * [`report`] — per-stage queue/service latency splits using the
//!   workspace's shared nearest-rank percentile helper.
//!
//! The engine is deliberately free of randomness and host-clock reads:
//! ties on the virtual clock resolve by insertion order, so a simulation
//! is a pure function of its links and job specs. Seeds only enter
//! through [`LinkMix::assign`], which deals each device its link as a
//! pure function of `(seed, device)`.
//!
//! # Example
//!
//! ```
//! use pelican_sim::{
//!     JobSpec, LinkMix, LinkProfile, LinkSpec, Passive, Simulator, Stage, TransferPolicy,
//! };
//!
//! // Two devices upload 100 kB each over one shared FIFO uplink while a
//! // third trains locally.
//! let sim = Simulator::builder().links(vec![LinkSpec::fifo(LinkProfile::wifi())]).build();
//! let upload = |id| JobSpec {
//!     id,
//!     release_us: 0,
//!     stages: vec![Stage::Transfer {
//!         label: "upload",
//!         link: 0,
//!         bytes: 100_000,
//!         policy: TransferPolicy::default(),
//!     }],
//! };
//! let trainer = JobSpec {
//!     id: 2,
//!     release_us: 0,
//!     stages: vec![Stage::Compute { label: "train", duration_us: 30_000 }],
//! };
//! let jobs = vec![upload(0), upload(1), trainer];
//! let out = sim.run(&jobs, &mut Passive);
//! assert_eq!(out.timed_out(), 0);
//! // The second upload queued behind the first; training overlapped both.
//! assert!(out.job(1).end_us() > out.job(0).end_us());
//! assert_eq!(out.job(2).end_us(), 30_000);
//! assert_eq!(out.fingerprint(), sim.run(&jobs, &mut Passive).fingerprint());
//!
//! // Heterogeneous fleets: links are dealt deterministically per device.
//! let mix = LinkMix::campus();
//! assert_eq!(mix.assign(7, 3), mix.assign(7, 3));
//! ```

pub mod engine;
pub mod link;
pub mod report;
pub mod trace;
pub mod wheel;

pub use engine::{
    JobReport, JobSpec, JobStatus, JobView, Passive, RetryPolicy, SimControl, SimOutcome,
    Simulator, SimulatorBuilder, Stage, StageReport, TraceLevel, TransferPolicy, Workload,
};
pub use link::{mix64, DeviceLink, Discipline, LinkMix, LinkProfile, LinkSpec, StragglerConfig};
pub use report::{completion_percentile, stage_stats, StageStats};
pub use trace::{fingerprint, fnv1a, TraceEvent, FNV_BASIS};
pub use wheel::TimerWheel;
