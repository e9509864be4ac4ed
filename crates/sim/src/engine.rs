//! The discrete-event engine: virtual clock, timer-wheel event queue,
//! shared-bandwidth links, timeouts and retry-with-backoff.
//!
//! A [`JobSpec`] is a sequence of [`Stage`]s — fixed-duration compute or a
//! byte transfer over one of the simulator's links — executed strictly in
//! order. Transfers contend: a [`Discipline::Fifo`] link serves one
//! transfer at a time in arrival order, a [`Discipline::FairShare`] link
//! drains every in-flight transfer at `bandwidth / n`. Each transfer
//! attempt can carry a timeout (measured from submission, so an attempt
//! can expire while still queued) and a [`RetryPolicy`] that resubmits
//! with exponential backoff until attempts run out.
//!
//! Simulators are built with [`Simulator::builder`] and run through one
//! entry point, [`Simulator::run`], generic over a [`Workload`]. A closed
//! replay passes [`Passive`] (every job known up front); a reactive
//! workload observes every job ending *at virtual time* and may inject
//! new jobs and timer events mid-run, which is what lets schedulers seal
//! batches on the virtual clock and training loops react to network
//! failures instead of replaying a finished run.
//!
//! Fleet scale: the event queue is a hierarchical
//! [timer wheel](crate::wheel) (O(1) schedule/fire instead of a binary
//! heap's O(log n)), and there is one of it: every run, passive or
//! reactive, drains a single queue on the calling thread.
//!
//! Layout: at 10⁵ devices more than half of an event's cost is waiting
//! for memory, so what the loop touches per event is kept small and
//! flat. The public [`Stage`] (72 bytes, a 40-byte [`TransferPolicy`]
//! inside) is what callers write; the loop runs on private records.
//!
//! * An event is 16 bytes — `u32` job / stage / link indices, a `u64`
//!   token, epoch or timer key — so a wheel entry is 32.
//! * A job is a 32-byte row, a stage a 24-byte record (compute: a
//!   duration; transfer: bytes, link, and an index into the run's table
//!   of distinct policies), each in its own arena; a job's stages are
//!   contiguous. A stage's label goes straight into its
//!   [`StageReport`] slot at admission — nothing else reads it.
//! * A link's state carries the link's latency and bandwidth, so no
//!   handler walks the link table; a link id is its state's index.
//!
//! The `u32` indices put a ceiling on a run: fewer than 2³² links, jobs
//! and stages (initial and injected together). Every narrowing goes
//! through one checked helper, so a run that would cross the ceiling
//! panics naming the arena instead of wrapping an index.
//!
//! Allocation: the loop makes no allocator call per event. The three
//! arenas are sized for the initial jobs before any is admitted; an idle
//! FIFO link with an empty queue puts an arrival straight into service,
//! so a link's queue exists only once two transfers have contended for
//! it; finished fair-share flows leave through one scratch buffer the
//! runner owns. What remains is amortised growth, in two places: a FIFO
//! queue or a fair link's flow list deepening under contention, and a
//! wheel slot seeing a bigger batch than it has held before. (Injected
//! jobs grow the arenas by doubling, like any `Vec`.)
//!
//! A FIFO link serves one transfer at a time at full bandwidth, so what
//! it charges for service is the transfer's uncontended cost — the very
//! `ideal_us` the stage's report was given when the stage was entered.
//! The loop reads it back from the report instead of dividing again.
//!
//! Determinism: the event queue orders by `(time, insertion sequence)`,
//! so simultaneous events resolve in scheduling order and the entire run
//! — event trace included — is a pure function of the links, job specs
//! and (in reactive mode) the workload's deterministic responses. A
//! closed run is exactly a reactive run with a workload that never
//! reacts, so replaying the same specs through either produces
//! bit-identical traces and fingerprints. There is no randomness anywhere
//! in the engine; seeds only enter through what callers build (e.g.
//! [`crate::LinkMix::assign`]).

use std::collections::{HashMap, VecDeque};

use crate::link::{transfer_us, Discipline, LinkSpec};
use crate::trace::{self, TraceEvent};
use crate::wheel::TimerWheel;

/// Retry-with-backoff policy for failed (timed-out) transfer attempts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed (>= 1; 1 means no retries).
    pub max_attempts: u32,
    /// Backoff before the second attempt, in microseconds.
    pub backoff_us: u64,
    /// Multiplier applied to the backoff after each further failure.
    pub backoff_factor: f64,
}

impl RetryPolicy {
    /// No retries: one attempt, fail on timeout.
    pub fn none() -> Self {
        Self { max_attempts: 1, backoff_us: 0, backoff_factor: 1.0 }
    }

    /// Exponential backoff: up to `max_attempts` attempts, waiting
    /// `backoff_us * factor^(k-1)` after the `k`-th failure.
    pub fn exponential(max_attempts: u32, backoff_us: u64, factor: f64) -> Self {
        Self { max_attempts, backoff_us, backoff_factor: factor }
    }

    /// Backoff after `failed_attempts` failures (1-based).
    fn backoff_after(&self, failed_attempts: u32) -> u64 {
        let exp = failed_attempts.saturating_sub(1) as i32;
        (self.backoff_us as f64 * self.backoff_factor.powi(exp)).round() as u64
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// Timeout + retry knobs of one transfer stage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TransferPolicy {
    /// Per-attempt timeout measured from submission (`None` = never).
    pub timeout_us: Option<u64>,
    /// What happens after a timeout.
    pub retry: RetryPolicy,
}

/// One step of a job's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stage {
    /// Occupy the job (not any link) for a fixed simulated duration.
    Compute {
        /// Stage label for reports (`train`, `audit`, ...).
        label: &'static str,
        /// Duration in microseconds.
        duration_us: u64,
    },
    /// Move bytes across a link, contending with other transfers.
    Transfer {
        /// Stage label for reports (`download`, `upload`, ...).
        label: &'static str,
        /// Index into the simulator's link table.
        link: usize,
        /// Payload size.
        bytes: u64,
        /// Timeout/retry policy.
        policy: TransferPolicy,
    },
}

impl Stage {
    /// The stage's report label.
    fn label(&self) -> &'static str {
        match self {
            Stage::Compute { label, .. } | Stage::Transfer { label, .. } => label,
        }
    }
}

/// One job: released at a time, then runs its stages strictly in order.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Caller-assigned id carried through traces and reports.
    pub id: u64,
    /// Simulated release time (µs).
    pub release_us: u64,
    /// Stages, executed front to back.
    pub stages: Vec<Stage>,
}

/// How a job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobStatus {
    /// Every stage finished.
    #[default]
    Completed,
    /// A transfer stage exhausted its attempts.
    TimedOut {
        /// Index of the failed stage.
        stage: usize,
    },
}

/// Per-stage accounting of one finished (or failed) stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageReport {
    /// The stage's label.
    pub label: &'static str,
    /// When the stage was first submitted (µs).
    pub submitted_us: u64,
    /// When it completed or was abandoned (µs).
    pub completed_us: u64,
    /// Uncontended single-attempt cost: `duration_us` for compute,
    /// latency + serialization for transfers (the empty-link FIFO bound).
    pub ideal_us: u64,
    /// Transfer attempts spent (1 for compute stages).
    pub attempts: u32,
}

impl StageReport {
    /// Wall span of the stage (includes queueing, sharing and backoffs).
    pub fn span_us(&self) -> u64 {
        self.completed_us - self.submitted_us
    }

    /// Contention-added delay: span minus the uncontended ideal.
    pub fn wait_us(&self) -> u64 {
        self.span_us().saturating_sub(self.ideal_us)
    }
}

/// A stage's report slot before the stage runs (admission fills in the
/// label); never visible through a [`JobView`] — record ranges stop at
/// the last stage actually entered.
const UNENTERED_REPORT: StageReport =
    StageReport { label: "", submitted_us: 0, completed_us: 0, ideal_us: 0, attempts: 0 };

/// One job's outcome, as an owned snapshot. This is what reactive
/// [`Workload`] callbacks receive; finished simulations expose the same
/// data zero-copy through [`JobView`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobReport {
    /// The spec's id.
    pub id: u64,
    /// Release time (µs).
    pub release_us: u64,
    /// Completion (or failure) time (µs).
    pub end_us: u64,
    /// Completed or timed out.
    pub status: JobStatus,
    /// Stage-by-stage accounting, up to and including the failing stage.
    pub stages: Vec<StageReport>,
}

impl JobReport {
    /// End-to-end span from release to completion/failure.
    pub fn total_us(&self) -> u64 {
        self.end_us - self.release_us
    }
}

/// How much of the event trace a run retains.
///
/// The determinism fingerprint is streamed either way; the level only
/// controls whether the full [`TraceEvent`] sequence is kept in memory —
/// at fleet scale (10⁵–10⁶ devices) retaining every transition dominates
/// the footprint, so scale runs use [`TraceLevel::Fingerprint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// Keep every engine transition in [`SimOutcome::trace`].
    #[default]
    Full,
    /// Keep only the streamed FNV fingerprint; the trace stays empty.
    Fingerprint,
}

/// One job's terminal record inside a [`SimOutcome`]: plain data plus a
/// `(base, len)` range into the outcome's stage-report arena.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct JobRecord {
    /// The spec's id.
    pub id: u64,
    /// Release time (µs).
    pub release_us: u64,
    /// Completion (or failure) time (µs).
    pub end_us: u64,
    /// Completed or timed out.
    pub status: JobStatus,
    pub(crate) stage_base: u32,
    pub(crate) stage_len: u32,
}

/// Zero-copy view of one job in a finished [`SimOutcome`].
#[derive(Debug, Clone, Copy)]
pub struct JobView<'a> {
    record: &'a JobRecord,
    stages: &'a [StageReport],
}

impl<'a> JobView<'a> {
    /// The spec's id.
    pub fn id(&self) -> u64 {
        self.record.id
    }

    /// Release time (µs).
    pub fn release_us(&self) -> u64 {
        self.record.release_us
    }

    /// Completion (or failure) time (µs).
    pub fn end_us(&self) -> u64 {
        self.record.end_us
    }

    /// Completed or timed out.
    pub fn status(&self) -> JobStatus {
        self.record.status
    }

    /// End-to-end span from release to completion/failure.
    pub fn total_us(&self) -> u64 {
        self.record.end_us - self.record.release_us
    }

    /// Stage-by-stage accounting, up to and including the failing stage.
    pub fn stages(&self) -> &'a [StageReport] {
        self.stages
    }
}

/// A finished simulation: per-job records (spec order, injected jobs
/// after every initial one) backed by one stage-report arena, plus the
/// event trace (empty under [`TraceLevel::Fingerprint`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    pub(crate) records: Vec<JobRecord>,
    pub(crate) stage_arena: Vec<StageReport>,
    /// Every engine transition, in execution order ([`TraceLevel::Full`]
    /// runs only).
    pub trace: Vec<TraceEvent>,
    pub(crate) fingerprint: u64,
    pub(crate) events: u64,
}

impl SimOutcome {
    /// Determinism fingerprint of the trace (see [`crate::fingerprint`]),
    /// streamed during the run — available at every [`TraceLevel`].
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of trace-visible engine transitions (counted at every
    /// [`TraceLevel`]).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Number of jobs that ran.
    pub fn job_count(&self) -> usize {
        self.records.len()
    }

    /// The `index`-th job, in spec order.
    pub fn job(&self, index: usize) -> JobView<'_> {
        let record = &self.records[index];
        let base = record.stage_base as usize;
        JobView { record, stages: &self.stage_arena[base..base + record.stage_len as usize] }
    }

    /// Every job, in spec order.
    pub fn jobs(&self) -> impl ExactSizeIterator<Item = JobView<'_>> + '_ {
        (0..self.records.len()).map(|i| self.job(i))
    }

    /// Jobs that completed every stage.
    pub fn completed(&self) -> impl Iterator<Item = JobView<'_>> + '_ {
        self.jobs().filter(|j| j.status() == JobStatus::Completed)
    }

    /// Number of jobs that failed (exhausted transfer retries).
    pub fn timed_out(&self) -> usize {
        self.records.iter().filter(|r| matches!(r.status, JobStatus::TimedOut { .. })).count()
    }
}

/// Reactive-mode hook: observes jobs ending at virtual time and injects
/// new jobs and timers into the running simulation.
///
/// Both callbacks receive a [`SimControl`] handle scoped to the current
/// virtual instant. Determinism is preserved as long as the workload
/// itself is deterministic: injected events receive insertion sequence
/// numbers in call order, so the same inputs always replay to the same
/// `(time, seq)` schedule and the same trace.
pub trait Workload {
    /// Called the moment a job reaches a terminal state — every stage
    /// completed, or a transfer exhausted its retries (`job.status` tells
    /// which). Jobs end in virtual-time order, ties in scheduling order.
    fn on_job_end(&mut self, job: &JobReport, sim: &mut SimControl);

    /// Called when a timer set via [`SimControl::set_timer`] fires. The
    /// engine never cancels timers; workloads that re-arm deadlines
    /// should carry an epoch in `key` and ignore stale firings.
    fn on_timer(&mut self, key: u64, sim: &mut SimControl) {
        let _ = (key, sim);
    }

    /// Declares that this workload never reacts (its callbacks are
    /// no-ops). Passive runs skip report materialization, without
    /// changing a single trace event. Reactive workloads must leave this
    /// `false`.
    fn passive(&self) -> bool {
        false
    }
}

/// The workload of a closed replay: never reacts, so a run is a pure
/// function of links and specs. This is what `sim.run(&specs, &mut
/// Passive)` passes where the old closed-mode `run(&specs)` was used.
pub struct Passive;

impl Workload for Passive {
    fn on_job_end(&mut self, _job: &JobReport, _sim: &mut SimControl) {}

    fn passive(&self) -> bool {
        true
    }
}

/// The caller's handle into a running reactive simulation, valid for one
/// callback invocation.
pub struct SimControl<'c> {
    now: u64,
    runner: &'c mut Runner,
}

impl SimControl<'_> {
    /// The current virtual time (µs).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Injects a new job. The spec is taken by value and never mutated:
    /// all internal stamping happens in one place (`Runner::admit`),
    /// which clamps a release time in the past up to the current virtual
    /// instant (the clock never rewinds); the clamped time is what the
    /// job's report and trace carry.
    ///
    /// Ordering contract: the injected release is sequenced *after*
    /// every event already scheduled — including events at the current
    /// instant and jobs submitted earlier in the same callback — so
    /// same-instant injections release in call order, deterministically.
    /// The job's record appears in [`SimOutcome`] after every initial
    /// job, in injection order.
    ///
    /// # Panics
    ///
    /// Panics if a transfer references a link outside the table or a
    /// retry policy allows zero attempts — or if the run would then hold
    /// 2³² jobs, or 2³² stages over all its jobs: the engine indexes
    /// both with `u32` and stops rather than let an index wrap.
    pub fn submit(&mut self, spec: JobSpec) {
        validate(self.runner.link_states.len(), &spec);
        self.runner.admit(&spec, self.now);
    }

    /// Schedules [`Workload::on_timer`] to fire with `key` at virtual
    /// time `at` (clamped to the current instant if already past).
    pub fn set_timer(&mut self, at: u64, key: u64) {
        self.runner.push(at.max(self.now), Ev::Timer { key });
    }
}

/// Panics unless every transfer stage references a link below
/// `link_count` and allows at least one attempt.
fn validate(link_count: usize, spec: &JobSpec) {
    for stage in &spec.stages {
        if let Stage::Transfer { link, policy, .. } = stage {
            assert!(*link < link_count, "transfer references unknown link {link}");
            assert!(policy.retry.max_attempts >= 1, "retry policy needs >= 1 attempt");
        }
    }
}

/// Narrows an arena length or index to the `u32` the engine's events and
/// records store it in. This is the one place a `usize` becomes a `u32`:
/// past 2³² entries a bare `as` cast would wrap and the run would read
/// another job's stage, so the run stops here instead.
///
/// # Panics
///
/// Panics, naming the arena and the length it reached, if `n` does not
/// fit.
fn arena_u32(n: usize, arena: &str) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| {
        panic!(
            "the {arena} arena reached {n} entries; the engine indexes it with u32 and \
             holds fewer than 2^32"
        )
    })
}

/// The discrete-event simulator over a fixed link table. Built with
/// [`Simulator::builder`]; run with [`Simulator::run`].
#[derive(Debug, Clone)]
pub struct Simulator {
    links: Vec<LinkSpec>,
    trace: TraceLevel,
}

/// Builder for [`Simulator`]: the link table plus trace retention,
/// composed without positional arguments.
///
/// ```
/// use pelican_sim::{LinkProfile, LinkSpec, Simulator, TraceLevel};
///
/// let sim = Simulator::builder()
///     .links(vec![LinkSpec::fifo(LinkProfile::wifi())])
///     .trace(TraceLevel::Fingerprint)
///     .build();
/// assert_eq!(sim.link_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SimulatorBuilder {
    links: Vec<LinkSpec>,
    trace: TraceLevel,
}

impl Default for SimulatorBuilder {
    fn default() -> Self {
        Self { links: Vec::new(), trace: TraceLevel::Full }
    }
}

impl SimulatorBuilder {
    /// Sets the link table (transfers index into it). Replaces any links
    /// set earlier. The engine stores link ids as `u32`, so a table
    /// holds fewer than 2³² links; [`SimulatorBuilder::build`] panics on
    /// a longer one.
    pub fn links(mut self, links: impl IntoIterator<Item = LinkSpec>) -> Self {
        self.links = links.into_iter().collect();
        self
    }

    /// Trace retention level (default [`TraceLevel::Full`]).
    pub fn trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }

    /// Builds the simulator.
    ///
    /// # Panics
    ///
    /// Panics if the link table holds 2³² links or more.
    pub fn build(self) -> Simulator {
        arena_u32(self.links.len(), "link");
        Simulator { links: self.links, trace: self.trace }
    }
}

impl Simulator {
    /// Starts building a simulator.
    pub fn builder() -> SimulatorBuilder {
        SimulatorBuilder::default()
    }

    /// Number of links in the table.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Runs the simulation: `initial` jobs release as specified, and
    /// `workload` observes every job ending (and every timer firing) at
    /// virtual time, injecting further jobs and timers through the
    /// provided [`SimControl`]. A closed replay is `run(&specs, &mut
    /// Passive)` — with a workload that never reacts the run is a pure
    /// function of links and specs, bit-identical trace included.
    ///
    /// Pure: identical inputs (and a deterministic workload) give
    /// bit-identical outputs.
    ///
    /// # Panics
    ///
    /// Panics if a transfer (initial or injected) references a link
    /// outside the table or a retry policy allows zero attempts, or if
    /// the run would hold 2³² jobs or stages (see [`SimControl::submit`]).
    pub fn run<W: Workload + ?Sized>(&self, initial: &[JobSpec], workload: &mut W) -> SimOutcome {
        for spec in initial {
            validate(self.links.len(), spec);
        }
        let mut runner = Runner::new(&self.links, self.trace == TraceLevel::Full);
        runner.admit_initial(initial.iter());
        runner.run(workload);
        runner.into_outcome()
    }
}

// ---------------------------------------------------------------------
// Engine internals.
// ---------------------------------------------------------------------

/// A scheduled event: 16 bytes, so a wheel entry (`at`, `seq`, event) is
/// 32. Jobs, stages and links are `u32` arena indices ([`arena_u32`]);
/// a `FairJoin` names no link because its stage record does.
#[derive(Debug)]
enum Ev {
    Release { job: u32 },
    ComputeDone { job: u32, stage: u32 },
    FifoDone { link: u32, token: u64 },
    FairJoin(Xfer),
    FairCheck { link: u32, epoch: u64 },
    Timeout(Xfer),
    Resubmit { job: u32, stage: u32 },
    Timer { key: u64 },
}

/// One attempt at one transfer stage of one job: what a FIFO link queues
/// and serves, a fair-share flow drains, and a `FairJoin` or `Timeout`
/// is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Xfer {
    job: u32,
    stage: u32,
    attempt: u32,
}

#[derive(Debug, Clone, Copy)]
struct Flow {
    xfer: Xfer,
    remaining: f64,
}

/// One link as the loop sees it: its shape (copied from the
/// [`LinkSpec`] at [`Runner::new`], so no handler walks the link table)
/// beside its queue state.
#[derive(Debug)]
struct LinkState {
    latency_us: u64,
    bytes_per_sec: f64,
    sharing: Sharing,
}

#[derive(Debug)]
enum Sharing {
    /// `queue` holds what arrived while the link was busy; an idle link
    /// with an empty queue serves an arrival without touching it, so a
    /// link that never sees contention never allocates one.
    Fifo {
        queue: VecDeque<Xfer>,
        current: Option<Xfer>,
        token: u64,
    },
    Fair {
        flows: Vec<Flow>,
        last_us: u64,
        epoch: u64,
    },
}

impl LinkState {
    fn new(spec: &LinkSpec) -> Self {
        let sharing = match spec.discipline {
            Discipline::Fifo => Sharing::Fifo { queue: VecDeque::new(), current: None, token: 0 },
            Discipline::FairShare => Sharing::Fair { flows: Vec::new(), last_us: 0, epoch: 0 },
        };
        Self {
            latency_us: spec.profile.latency_us,
            bytes_per_sec: spec.profile.bytes_per_sec,
            sharing,
        }
    }

    /// Drains every active fair-share flow up to `t` at the equal-share
    /// rate. Must run before any flow-set mutation.
    fn fair_advance(&mut self, t: u64) {
        let Sharing::Fair { flows, last_us, .. } = &mut self.sharing else {
            unreachable!("fair_advance on a FIFO link");
        };
        let elapsed = t - *last_us;
        *last_us = t;
        if flows.is_empty() || elapsed == 0 {
            return;
        }
        let drained = elapsed as f64 * self.bytes_per_sec / flows.len() as f64 / 1e6;
        for flow in flows.iter_mut() {
            flow.remaining -= drained;
        }
    }

    /// When the flow set's next completion check is due, and the epoch
    /// it is valid for (`None` with no flows).
    fn fair_next_check(&self, t: u64) -> Option<(u64, u64)> {
        let Sharing::Fair { flows, epoch, .. } = &self.sharing else {
            unreachable!("fair_next_check on a FIFO link");
        };
        let min_remaining = flows.iter().map(|f| f.remaining).reduce(f64::min)?;
        let per_flow_us = self.bytes_per_sec / flows.len() as f64 / 1e6;
        let dt = (min_remaining.max(0.0) / per_flow_us).ceil() as u64;
        Some((t + dt, *epoch))
    }
}

/// One stage as the loop reads it: 24 bytes against [`Stage`]'s 72. The
/// label is not here — admission writes it into the stage's report slot,
/// the only place it is read from — and the 40-byte [`TransferPolicy`]
/// is an index into the run's [`PolicyTable`].
#[derive(Debug, Clone, Copy)]
enum StageRec {
    Compute { duration_us: u64 },
    Transfer { bytes: u64, link: u32, policy: u32 },
}

/// The distinct [`TransferPolicy`]s of a run, interned at admission. A
/// fleet deals one or two policies to all its stages, but nothing stops
/// a caller dealing thousands, so lookup is a hash map — keyed on the
/// policy's **bit pattern**: `backoff_factor` is an `f64`, and a NaN,
/// which `==` never finds again, would grow a table searched with `==`
/// by one entry per stage.
#[derive(Debug, Default)]
struct PolicyTable {
    policies: Vec<TransferPolicy>,
    ids: HashMap<[u64; 4], u32>,
    /// The previous lookup: consecutive stages usually share a policy.
    last: Option<([u64; 4], u32)>,
}

impl PolicyTable {
    fn intern(&mut self, policy: &TransferPolicy) -> u32 {
        let key = [
            policy.timeout_us.unwrap_or(0),
            u64::from(policy.retry.max_attempts) << 1 | u64::from(policy.timeout_us.is_some()),
            policy.retry.backoff_us,
            policy.retry.backoff_factor.to_bits(),
        ];
        if let Some((last_key, id)) = self.last {
            if last_key == key {
                return id;
            }
        }
        let policies = &mut self.policies;
        let id = *self.ids.entry(key).or_insert_with(|| {
            policies.push(*policy);
            arena_u32(policies.len() - 1, "transfer-policy")
        });
        self.last = Some((key, id));
        id
    }

    fn get(&self, id: u32) -> &TransferPolicy {
        &self.policies[id as usize]
    }
}

/// Per-job run state: 32 bytes of plain indices, so the job table is one
/// flat `Vec` of `Copy` rows, two to a cache line.
#[derive(Debug, Clone, Copy)]
struct JobRun {
    id: u64,
    release_us: u64,
    /// The job's first slot in both the stage arena and the stage-report
    /// arena (they grow in step, one slot per stage).
    base: u32,
    len: u32,
    cursor: u32,
    /// Attempt number of the current transfer stage, from 1 — and 0 once
    /// the job is terminal. No event carries attempt 0, so every
    /// staleness check fails on a finished job without a status field;
    /// `cursor` then tells how it ended (see [`JobRun::status`]).
    attempt: u32,
}

impl JobRun {
    /// The arena slot of the job's `stage`.
    fn slot(&self, stage: u32) -> usize {
        self.base as usize + stage as usize
    }

    fn running(&self) -> bool {
        self.attempt != 0
    }

    /// Marks the job terminal where its cursor stands: past the last
    /// stage it completed, on a stage it timed out there.
    fn end(&mut self) {
        self.attempt = 0;
    }

    fn status(&self) -> Option<JobStatus> {
        if self.running() {
            None
        } else if self.cursor == self.len {
            Some(JobStatus::Completed)
        } else {
            Some(JobStatus::TimedOut { stage: self.cursor as usize })
        }
    }

    /// Stage reports actually entered (terminal jobs only).
    fn filled_len(&self, status: JobStatus) -> u32 {
        match status {
            JobStatus::Completed => self.len,
            JobStatus::TimedOut { .. } => self.cursor + 1,
        }
    }
}

/// End time of a terminal job given its filled stage reports.
fn end_of(release_us: u64, status: JobStatus, stages: &[StageReport]) -> u64 {
    match status {
        JobStatus::Completed => stages.last().map_or(release_us, |s| s.completed_us),
        JobStatus::TimedOut { .. } => {
            stages.last().expect("failed job has a failing stage").completed_us
        }
    }
}

/// Streams every trace event into the running FNV fingerprint, storing
/// the event itself only when the caller asked for a full trace.
struct TraceSink {
    store: bool,
    events: Vec<TraceEvent>,
    hash: u64,
    count: u64,
}

impl TraceSink {
    fn new(store: bool) -> Self {
        Self { store, events: Vec::new(), hash: trace::FNV_BASIS, count: 0 }
    }

    fn push(&mut self, event: TraceEvent) {
        self.hash = trace::extend(self.hash, &event);
        self.count += 1;
        if self.store {
            self.events.push(event);
        }
    }
}

struct Runner {
    queue: TimerWheel<Ev>,
    seq: u64,
    /// One state per link of the table, indexed by link id.
    link_states: Vec<LinkState>,
    jobs: Vec<JobRun>,
    /// Stage records of every admitted job, flattened.
    stages: Vec<StageRec>,
    /// Stage-report arena, slot for slot beside `stages`: each job owns
    /// `[base, base + len)`, written (labels included) at admission.
    stage_reports: Vec<StageReport>,
    policies: PolicyTable,
    sink: TraceSink,
    /// Jobs that reached a terminal state during the current event,
    /// awaiting their `on_job_end` callback (drained in order).
    finished: VecDeque<u32>,
    /// `fair_check`'s finished flows; empty between events.
    done_flows: Vec<Flow>,
}

impl Runner {
    fn new(links: &[LinkSpec], store_trace: bool) -> Self {
        Self {
            queue: TimerWheel::new(),
            seq: 0,
            link_states: links.iter().map(LinkState::new).collect(),
            jobs: Vec::new(),
            stages: Vec::new(),
            stage_reports: Vec::new(),
            policies: PolicyTable::default(),
            sink: TraceSink::new(store_trace),
            finished: VecDeque::new(),
            done_flows: Vec::new(),
        }
    }

    /// Admits a run's initial jobs, in order, after sizing the three
    /// arenas for them once.
    fn admit_initial<'s>(&mut self, specs: impl Iterator<Item = &'s JobSpec> + Clone) {
        let (jobs, stages) = specs
            .clone()
            .fold((0, 0), |(jobs, stages), spec| (jobs + 1, stages + spec.stages.len()));
        self.jobs.reserve(jobs);
        self.stages.reserve(stages);
        self.stage_reports.reserve(stages);
        for spec in specs {
            self.admit(spec, 0);
        }
    }

    /// Registers a job (initial or injected) and schedules its release.
    /// This is the single stamping point for internal fields: the
    /// caller's spec is read, never mutated, and the release time is
    /// clamped to `floor_us` (0 for initial jobs, the current virtual
    /// instant for injections).
    fn admit(&mut self, spec: &JobSpec, floor_us: u64) {
        let job = arena_u32(self.jobs.len(), "job");
        let base = arena_u32(self.stages.len(), "stage");
        let len = arena_u32(spec.stages.len(), "stage");
        for stage in &spec.stages {
            self.stages.push(match *stage {
                Stage::Compute { duration_us, .. } => StageRec::Compute { duration_us },
                Stage::Transfer { link, bytes, ref policy, .. } => StageRec::Transfer {
                    bytes,
                    // `validate` bounded the link by a table `build` bounded.
                    link: arena_u32(link, "link"),
                    policy: self.policies.intern(policy),
                },
            });
            self.stage_reports.push(StageReport { label: stage.label(), ..UNENTERED_REPORT });
        }
        let release_us = spec.release_us.max(floor_us);
        self.jobs.push(JobRun { id: spec.id, release_us, base, len, cursor: 0, attempt: 1 });
        self.push(release_us, Ev::Release { job });
    }

    fn push(&mut self, at: u64, ev: Ev) {
        self.seq += 1;
        self.queue.push(at, self.seq, ev);
    }

    /// Whether an event for `(job, stage)` still refers to the stage the
    /// job is in.
    fn in_stage(&self, j: u32, stage: u32) -> bool {
        let job = &self.jobs[j as usize];
        job.running() && job.cursor == stage
    }

    /// Whether an event for `xfer` still refers to its job's live
    /// transfer attempt (never, once the job is terminal: see
    /// [`JobRun::attempt`]).
    fn live(&self, xfer: Xfer) -> bool {
        let job = &self.jobs[xfer.job as usize];
        job.cursor == xfer.stage && job.attempt == xfer.attempt
    }

    fn run<W: Workload + ?Sized>(&mut self, workload: &mut W) {
        let passive = workload.passive();
        let mut scratch = JobReport::default();
        while let Some(entry) = self.queue.pop() {
            let at = entry.at;
            match entry.item {
                Ev::Timer { key } => {
                    self.sink.push(TraceEvent::TimerFired { t: at, key });
                    let mut sim = SimControl { now: at, runner: self };
                    workload.on_timer(key, &mut sim);
                }
                Ev::Release { job } => {
                    let id = self.jobs[job as usize].id;
                    self.sink.push(TraceEvent::JobReleased { t: at, job: id });
                    self.start_stage(job, at);
                }
                Ev::ComputeDone { job, stage } => {
                    if self.in_stage(job, stage) {
                        self.sink.push(TraceEvent::ComputeFinished {
                            t: at,
                            job: self.jobs[job as usize].id,
                            stage: stage as usize,
                        });
                        self.complete_stage(job, at);
                    }
                }
                Ev::FifoDone { link, token } => self.fifo_done(link, token, at),
                Ev::FairJoin(xfer) => {
                    if self.live(xfer) {
                        self.fair_join(xfer, at);
                    }
                }
                Ev::FairCheck { link, epoch } => self.fair_check(link, epoch, at),
                Ev::Timeout(xfer) => {
                    if self.live(xfer) {
                        self.timeout(xfer, at);
                    }
                }
                Ev::Resubmit { job, stage } => {
                    if self.in_stage(job, stage) {
                        self.resubmit(job, at);
                    }
                }
            }
            // Jobs that just ended surface to the workload while the
            // clock still reads their end instant; reactions (submit,
            // set_timer) schedule behind every event already queued for
            // this instant, preserving `(time, seq)` determinism.
            if passive {
                self.finished.clear();
            } else {
                while let Some(j) = self.finished.pop_front() {
                    self.fill_report(j, &mut scratch);
                    let mut sim = SimControl { now: at, runner: self };
                    workload.on_job_end(&scratch, &mut sim);
                }
            }
        }
    }

    /// Fills `out` with one terminal job's report, reusing its stage
    /// buffer (no allocation after the first few callbacks).
    fn fill_report(&self, j: u32, out: &mut JobReport) {
        let run = &self.jobs[j as usize];
        let status = run.status().expect("fill_report only runs on terminal jobs");
        let stages = &self.stage_reports[run.slot(0)..run.slot(run.filled_len(status))];
        out.id = run.id;
        out.release_us = run.release_us;
        out.end_us = end_of(run.release_us, status, stages);
        out.status = status;
        out.stages.clear();
        out.stages.extend_from_slice(stages);
    }

    /// Enters the job's current stage at time `t` (or completes the job
    /// if no stages remain).
    fn start_stage(&mut self, j: u32, t: u64) {
        let run = self.jobs[j as usize];
        if run.cursor >= run.len {
            self.jobs[j as usize].end();
            self.sink.push(TraceEvent::JobCompleted { t, job: run.id });
            self.finished.push_back(j);
            return;
        }
        let slot = run.slot(run.cursor);
        match self.stages[slot] {
            StageRec::Compute { duration_us } => {
                let report = &mut self.stage_reports[slot];
                report.submitted_us = t;
                report.ideal_us = duration_us;
                report.attempts = 1;
                self.sink.push(TraceEvent::ComputeStarted {
                    t,
                    job: run.id,
                    stage: run.cursor as usize,
                });
                self.push(t + duration_us, Ev::ComputeDone { job: j, stage: run.cursor });
            }
            StageRec::Transfer { bytes, link, policy } => {
                let link_state = &self.link_states[link as usize];
                let ideal_us = transfer_us(link_state.latency_us, link_state.bytes_per_sec, bytes);
                let report = &mut self.stage_reports[slot];
                report.submitted_us = t;
                report.ideal_us = ideal_us;
                report.attempts = 1;
                // `attempt` is 1 here: admission and `complete_stage` set it.
                let xfer = Xfer { job: j, stage: run.cursor, attempt: 1 };
                self.submit_transfer(xfer, run.id, link, policy, ideal_us, t);
            }
        }
    }

    /// Submits the job's next attempt at its current transfer stage
    /// after a backoff (the stage report keeps its first submission
    /// time).
    fn resubmit(&mut self, j: u32, t: u64) {
        let run = self.jobs[j as usize];
        let slot = run.slot(run.cursor);
        let StageRec::Transfer { link, policy, .. } = self.stages[slot] else {
            unreachable!("resubmit on a compute stage");
        };
        let report = &mut self.stage_reports[slot];
        report.attempts = run.attempt;
        let ideal_us = report.ideal_us;
        let xfer = Xfer { job: j, stage: run.cursor, attempt: run.attempt };
        self.submit_transfer(xfer, run.id, link, policy, ideal_us, t);
    }

    /// Submits one transfer attempt to its link. `ideal_us` is the
    /// stage's uncontended cost — which is exactly what a FIFO link
    /// charges for service, so it is not computed a second time.
    fn submit_transfer(
        &mut self,
        xfer: Xfer,
        id: u64,
        link: u32,
        policy: u32,
        ideal_us: u64,
        t: u64,
    ) {
        self.sink.push(TraceEvent::TransferQueued {
            t,
            job: id,
            stage: xfer.stage as usize,
            link: link as usize,
            attempt: xfer.attempt,
        });
        if let Some(timeout_us) = self.policies.get(policy).timeout_us {
            self.push(t + timeout_us, Ev::Timeout(xfer));
        }
        let state = &mut self.link_states[link as usize];
        match &mut state.sharing {
            Sharing::Fifo { queue, current, .. } => {
                if current.is_none() && queue.is_empty() {
                    self.fifo_start(link, xfer, id, ideal_us, t);
                } else {
                    queue.push_back(xfer);
                    // Idle with a backlog: a completion on this link is
                    // submitting its job's next stage before it drained
                    // the queue. The backlog goes first.
                    if current.is_none() {
                        self.fifo_start_next(link, t);
                    }
                }
            }
            Sharing::Fair { .. } => {
                let joins_at = t + state.latency_us;
                self.push(joins_at, Ev::FairJoin(xfer));
            }
        }
    }

    /// Puts `xfer` in service on the idle FIFO `link` for `service_us`.
    fn fifo_start(&mut self, link: u32, xfer: Xfer, id: u64, service_us: u64, t: u64) {
        let Sharing::Fifo { current, token, .. } = &mut self.link_states[link as usize].sharing
        else {
            unreachable!("fifo_start on a fair-share link");
        };
        debug_assert!(current.is_none(), "fifo_start on a busy link");
        *current = Some(xfer);
        *token += 1;
        let token = *token;
        self.sink.push(TraceEvent::TransferStarted {
            t,
            job: id,
            stage: xfer.stage as usize,
            link: link as usize,
            attempt: xfer.attempt,
        });
        self.push(t + service_us, Ev::FifoDone { link, token });
    }

    /// Starts the next queued FIFO transfer if the link is idle. (It may
    /// already be busy again: completing a transfer can submit the same
    /// job's next stage to the same link, which restarts service before
    /// the completion handler regains control.)
    fn fifo_start_next(&mut self, link: u32, t: u64) {
        let Sharing::Fifo { queue, current, .. } = &mut self.link_states[link as usize].sharing
        else {
            unreachable!("fifo_start_next on a fair-share link");
        };
        if current.is_some() {
            return;
        }
        let Some(next) = queue.pop_front() else { return };
        let run = &self.jobs[next.job as usize];
        let service_us = self.stage_reports[run.slot(next.stage)].ideal_us;
        self.fifo_start(link, next, run.id, service_us, t);
    }

    fn fifo_done(&mut self, link: u32, token: u64, t: u64) {
        let Sharing::Fifo { current, token: cur_token, .. } =
            &mut self.link_states[link as usize].sharing
        else {
            return;
        };
        if *cur_token != token {
            return; // the in-flight transfer was aborted by a timeout
        }
        let done = current.take().expect("live token implies an in-flight transfer");
        self.sink.push(TraceEvent::TransferCompleted {
            t,
            job: self.jobs[done.job as usize].id,
            stage: done.stage as usize,
            link: link as usize,
            attempt: done.attempt,
        });
        self.complete_stage(done.job, t);
        self.fifo_start_next(link, t);
    }

    /// Schedules the next completion check for the fair-share `link`.
    fn fair_schedule(&mut self, link: u32, t: u64) {
        if let Some((at, epoch)) = self.link_states[link as usize].fair_next_check(t) {
            self.push(at, Ev::FairCheck { link, epoch });
        }
    }

    fn fair_join(&mut self, xfer: Xfer, t: u64) {
        let run = &self.jobs[xfer.job as usize];
        let id = run.id;
        let StageRec::Transfer { bytes, link, .. } = self.stages[run.slot(xfer.stage)] else {
            unreachable!("joined transfer is a transfer stage");
        };
        let state = &mut self.link_states[link as usize];
        state.fair_advance(t);
        self.sink.push(TraceEvent::TransferStarted {
            t,
            job: id,
            stage: xfer.stage as usize,
            link: link as usize,
            attempt: xfer.attempt,
        });
        let Sharing::Fair { flows, epoch, .. } = &mut state.sharing else {
            unreachable!("fair_join on a FIFO link");
        };
        flows.push(Flow { xfer, remaining: bytes as f64 });
        *epoch += 1;
        self.fair_schedule(link, t);
    }

    fn fair_check(&mut self, link: u32, epoch: u64, t: u64) {
        let state = &mut self.link_states[link as usize];
        let Sharing::Fair { epoch: cur, .. } = &state.sharing else { return };
        if *cur != epoch {
            return; // the flow set changed since this check was scheduled
        }
        state.fair_advance(t);
        let Sharing::Fair { flows, epoch, .. } = &mut state.sharing else {
            unreachable!("checked above");
        };
        // Finished flows leave in flow order, in the one pass that
        // removes them. Half a byte of slack absorbs float rounding in
        // the drain.
        let mut done = std::mem::take(&mut self.done_flows);
        flows.retain(|flow| {
            let keep = flow.remaining > 0.5;
            if !keep {
                done.push(*flow);
            }
            keep
        });
        *epoch += 1;
        for Flow { xfer, .. } in done.drain(..) {
            self.sink.push(TraceEvent::TransferCompleted {
                t,
                job: self.jobs[xfer.job as usize].id,
                stage: xfer.stage as usize,
                link: link as usize,
                attempt: xfer.attempt,
            });
            self.complete_stage(xfer.job, t);
        }
        self.done_flows = done;
        self.fair_schedule(link, t);
    }

    fn timeout(&mut self, xfer: Xfer, t: u64) {
        let Xfer { job: j, stage, attempt } = xfer;
        let run = self.jobs[j as usize];
        let slot = run.slot(stage);
        let StageRec::Transfer { link, policy, .. } = self.stages[slot] else {
            unreachable!("timeout on a compute stage");
        };
        let state = &mut self.link_states[link as usize];
        // Withdraw the attempt from wherever it currently lives. A
        // pending FairJoin needs no removal: bumping the attempt below
        // invalidates it.
        match &mut state.sharing {
            Sharing::Fifo { queue, current, token } => {
                if *current == Some(xfer) {
                    *current = None;
                    *token += 1; // orphan the in-flight FifoDone
                    self.fifo_start_next(link, t);
                } else {
                    queue.retain(|queued| *queued != xfer);
                }
            }
            Sharing::Fair { flows, .. } => {
                if flows.iter().any(|f| f.xfer == xfer) {
                    state.fair_advance(t);
                    let Sharing::Fair { flows, epoch, .. } = &mut state.sharing else {
                        unreachable!("matched above");
                    };
                    flows.retain(|f| f.xfer != xfer);
                    *epoch += 1;
                    self.fair_schedule(link, t);
                }
            }
        }
        let (stage_index, link_index) = (stage as usize, link as usize);
        self.sink.push(TraceEvent::TransferTimedOut {
            t,
            job: run.id,
            stage: stage_index,
            link: link_index,
            attempt,
        });
        let retry = self.policies.get(policy).retry;
        if attempt < retry.max_attempts {
            self.jobs[j as usize].attempt = attempt + 1;
            self.push(t + retry.backoff_after(attempt), Ev::Resubmit { job: j, stage });
        } else {
            self.sink.push(TraceEvent::TransferAbandoned {
                t,
                job: run.id,
                stage: stage_index,
                link: link_index,
                attempts: attempt,
            });
            let report = &mut self.stage_reports[slot];
            report.completed_us = t;
            report.attempts = attempt;
            self.jobs[j as usize].end();
            self.finished.push_back(j);
        }
    }

    /// Finishes the job's current stage at `t` and enters the next one.
    fn complete_stage(&mut self, j: u32, t: u64) {
        let run = &mut self.jobs[j as usize];
        let report = &mut self.stage_reports[run.slot(run.cursor)];
        report.completed_us = t;
        report.attempts = run.attempt;
        run.cursor += 1;
        run.attempt = 1;
        self.start_stage(j, t);
    }

    fn records(&self) -> Vec<JobRecord> {
        self.jobs
            .iter()
            .map(|run| {
                let status = run.status().expect("event loop runs every job to a terminal state");
                let len = run.filled_len(status);
                let stages = &self.stage_reports[run.slot(0)..run.slot(len)];
                JobRecord {
                    id: run.id,
                    release_us: run.release_us,
                    end_us: end_of(run.release_us, status, stages),
                    status,
                    stage_base: run.base,
                    stage_len: len,
                }
            })
            .collect()
    }

    fn into_outcome(self) -> SimOutcome {
        SimOutcome {
            records: self.records(),
            stage_arena: self.stage_reports,
            trace: self.sink.events,
            fingerprint: self.sink.hash,
            events: self.sink.count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkProfile;

    fn wifi_fifo() -> LinkSpec {
        LinkSpec::fifo(LinkProfile::wifi())
    }

    fn sim(links: Vec<LinkSpec>) -> Simulator {
        Simulator::builder().links(links).build()
    }

    fn xfer(link: usize, bytes: u64) -> Stage {
        Stage::Transfer { label: "xfer", link, bytes, policy: TransferPolicy::default() }
    }

    #[test]
    fn lone_transfer_pays_exactly_the_ideal() {
        let sim = sim(vec![wifi_fifo(), LinkSpec::fair(LinkProfile::wifi())]);
        for link in [0usize, 1] {
            let out = sim.run(
                &[JobSpec { id: 9, release_us: 100, stages: vec![xfer(link, 1_250_000)] }],
                &mut Passive,
            );
            let job = out.job(0);
            assert_eq!(job.status(), JobStatus::Completed);
            // 8 ms latency + 1.25 MB / 12.5 MB/s = 100 ms.
            assert_eq!(job.total_us(), 108_000, "link {link}");
            assert_eq!(job.stages()[0].wait_us(), 0);
        }
    }

    #[test]
    fn fifo_serializes_and_fair_share_splits() {
        let jobs: Vec<JobSpec> = (0..2)
            .map(|i| JobSpec { id: i, release_us: 0, stages: vec![xfer(0, 1_250_000)] })
            .collect();
        let fifo = sim(vec![wifi_fifo()]).run(&jobs, &mut Passive);
        let fair = sim(vec![LinkSpec::fair(LinkProfile::wifi())]).run(&jobs, &mut Passive);
        // FIFO: first job unaffected, second waits a full service.
        assert_eq!(fifo.job(0).end_us(), 108_000);
        assert_eq!(fifo.job(1).end_us(), 216_000);
        // Fair share: both drain at half rate and finish together, later
        // than either would alone but before the FIFO stern.
        assert_eq!(fair.job(0).end_us(), fair.job(1).end_us());
        assert!(fair.job(0).end_us() > 108_000);
        assert!(fair.job(1).end_us() < 216_000);
        for job in fair.jobs().chain(fifo.jobs()) {
            assert!(job.stages()[0].span_us() >= job.stages()[0].ideal_us);
        }
    }

    #[test]
    fn compute_overlaps_other_jobs_transfers() {
        // Job 0 computes while job 1 transfers; neither delays the other.
        let jobs = vec![
            JobSpec {
                id: 0,
                release_us: 0,
                stages: vec![Stage::Compute { label: "train", duration_us: 50_000 }],
            },
            JobSpec { id: 1, release_us: 0, stages: vec![xfer(0, 125_000)] },
        ];
        let out = sim(vec![wifi_fifo()]).run(&jobs, &mut Passive);
        assert_eq!(out.job(0).end_us(), 50_000);
        assert_eq!(out.job(1).end_us(), 18_000);
    }

    #[test]
    fn timeout_without_retry_fails_the_job() {
        let policy = TransferPolicy { timeout_us: Some(10_000), retry: RetryPolicy::none() };
        // 1.25 MB at 12.5 MB/s needs 108 ms total, far past the 10 ms cap.
        let jobs = vec![JobSpec {
            id: 0,
            release_us: 0,
            stages: vec![Stage::Transfer { label: "up", link: 0, bytes: 1_250_000, policy }],
        }];
        let out = sim(vec![wifi_fifo()]).run(&jobs, &mut Passive);
        assert_eq!(out.job(0).status(), JobStatus::TimedOut { stage: 0 });
        assert_eq!(out.job(0).end_us(), 10_000);
        assert_eq!(out.timed_out(), 1);
        assert!(out.trace.iter().any(|e| matches!(e, TraceEvent::TransferAbandoned { .. })));
    }

    #[test]
    fn retries_back_off_and_eventually_succeed_when_the_link_clears() {
        // A fat transfer hogs the FIFO link; a small one behind it times
        // out twice in queue, then succeeds on the third attempt.
        let small_policy = TransferPolicy {
            timeout_us: Some(30_000),
            retry: RetryPolicy::exponential(5, 20_000, 2.0),
        };
        let jobs = vec![
            JobSpec { id: 0, release_us: 0, stages: vec![xfer(0, 1_250_000)] },
            JobSpec {
                id: 1,
                release_us: 0,
                stages: vec![Stage::Transfer {
                    label: "up",
                    link: 0,
                    bytes: 12_500,
                    policy: small_policy,
                }],
            },
        ];
        let out = sim(vec![wifi_fifo()]).run(&jobs, &mut Passive);
        assert_eq!(out.job(1).status(), JobStatus::Completed);
        assert!(out.job(1).stages()[0].attempts > 1, "first attempt must have timed out");
        let timeouts = out
            .trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::TransferTimedOut { job: 1, .. }))
            .count();
        assert_eq!(timeouts as u32 + 1, out.job(1).stages()[0].attempts);
        assert_eq!(out.timed_out(), 0);
    }

    #[test]
    fn stages_run_strictly_in_order() {
        let jobs = vec![JobSpec {
            id: 3,
            release_us: 1_000,
            stages: vec![
                xfer(0, 125_000),
                Stage::Compute { label: "train", duration_us: 40_000 },
                xfer(0, 12_500),
            ],
        }];
        let out = sim(vec![wifi_fifo()]).run(&jobs, &mut Passive);
        let job = out.job(0);
        assert_eq!(job.status(), JobStatus::Completed);
        assert_eq!(job.stages().len(), 3);
        for pair in job.stages().windows(2) {
            assert_eq!(pair[1].submitted_us, pair[0].completed_us, "stages chain without gaps");
        }
        let total: u64 = job.stages().iter().map(|s| s.span_us()).sum();
        assert_eq!(job.total_us(), total, "per-stage spans add up to the whole job");
    }

    #[test]
    fn empty_stage_lists_and_zero_byte_transfers_complete() {
        let out = sim(vec![wifi_fifo(), LinkSpec::fair(LinkProfile::wifi())]).run(
            &[
                JobSpec { id: 0, release_us: 5, stages: Vec::new() },
                JobSpec { id: 1, release_us: 5, stages: vec![xfer(0, 0)] },
                JobSpec { id: 2, release_us: 5, stages: vec![xfer(1, 0)] },
            ],
            &mut Passive,
        );
        assert_eq!(out.timed_out(), 0);
        assert_eq!(out.job(0).end_us(), 5);
        // Zero bytes still pay propagation latency.
        assert_eq!(out.job(1).end_us(), 5 + 8_000);
        assert_eq!(out.job(2).end_us(), 5 + 8_000);
    }

    #[test]
    fn identical_inputs_give_bit_identical_traces() {
        let jobs: Vec<JobSpec> = (0..8)
            .map(|i| JobSpec {
                id: i,
                release_us: i * 500,
                stages: vec![
                    xfer(1, 40_000 + i * 1_000),
                    Stage::Compute { label: "train", duration_us: 9_000 },
                    Stage::Transfer {
                        label: "up",
                        link: 0,
                        bytes: 30_000,
                        policy: TransferPolicy {
                            timeout_us: Some(25_000),
                            retry: RetryPolicy::exponential(3, 5_000, 2.0),
                        },
                    },
                ],
            })
            .collect();
        let sim =
            sim(vec![LinkSpec::fifo(LinkProfile::cellular()), LinkSpec::fair(LinkProfile::wifi())]);
        let a = sim.run(&jobs, &mut Passive);
        let b = sim.run(&jobs, &mut Passive);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
    }

    #[test]
    fn noop_reactive_workload_matches_passive_run_bit_for_bit() {
        // A workload that reacts to nothing but does not declare itself
        // passive exercises the callback machinery; the trace must be
        // identical to the passive fast path.
        struct Noop;
        impl Workload for Noop {
            fn on_job_end(&mut self, _job: &JobReport, _sim: &mut SimControl) {}
        }
        let jobs: Vec<JobSpec> = (0..6)
            .map(|i| JobSpec {
                id: i,
                release_us: i * 700,
                stages: vec![
                    xfer(0, 200_000 + i * 7_000),
                    Stage::Compute { label: "train", duration_us: 11_000 },
                ],
            })
            .collect();
        let sim = sim(vec![wifi_fifo()]);
        let closed = sim.run(&jobs, &mut Passive);
        let reactive = sim.run(&jobs, &mut Noop);
        assert_eq!(closed.trace, reactive.trace);
        assert_eq!(closed.fingerprint(), reactive.fingerprint());
        assert_eq!(closed, reactive);
    }

    #[test]
    fn fingerprint_level_drops_the_trace_but_not_the_hash() {
        let jobs: Vec<JobSpec> = (0..4)
            .map(|i| JobSpec { id: i, release_us: i * 100, stages: vec![xfer(0, 50_000)] })
            .collect();
        let links = vec![wifi_fifo()];
        let full = sim(links.clone()).run(&jobs, &mut Passive);
        let slim = Simulator::builder()
            .links(links)
            .trace(TraceLevel::Fingerprint)
            .build()
            .run(&jobs, &mut Passive);
        assert!(slim.trace.is_empty());
        assert_eq!(slim.fingerprint(), full.fingerprint());
        assert_eq!(slim.events(), full.trace.len() as u64);
        assert_eq!(slim.job_count(), full.job_count());
        assert_eq!(slim.job(3).end_us(), full.job(3).end_us());
    }

    #[test]
    fn workload_observes_ends_and_injects_follow_up_jobs() {
        // Each completed transfer spawns a follow-up compute job at its
        // end time; the chain stops after two generations.
        struct Chain {
            seen: Vec<(u64, u64)>,
        }
        impl Workload for Chain {
            fn on_job_end(&mut self, job: &JobReport, sim: &mut SimControl) {
                assert_eq!(job.end_us, sim.now(), "callbacks run at the job's end instant");
                self.seen.push((job.id, job.end_us));
                if job.id < 100 {
                    sim.submit(JobSpec {
                        id: 100 + job.id,
                        release_us: sim.now(),
                        stages: vec![Stage::Compute { label: "follow", duration_us: 5_000 }],
                    });
                }
            }
        }
        let initial = vec![JobSpec { id: 0, release_us: 0, stages: vec![xfer(0, 125_000)] }];
        let mut chain = Chain { seen: Vec::new() };
        let out = sim(vec![wifi_fifo()]).run(&initial, &mut chain);
        // 18 ms transfer, then the injected 5 ms compute.
        assert_eq!(chain.seen, vec![(0, 18_000), (100, 23_000)]);
        assert_eq!(out.job_count(), 2, "injected jobs report after initial ones");
        assert_eq!(out.job(1).id(), 100);
        assert_eq!(out.job(1).release_us(), 18_000);
        assert_eq!(out.job(1).end_us(), 23_000);
        assert!(out.trace.iter().any(|e| matches!(e, TraceEvent::JobReleased { job: 100, .. })));
    }

    #[test]
    fn timers_fire_in_order_and_carry_their_keys() {
        struct Timers {
            fired: Vec<(u64, u64)>,
        }
        impl Workload for Timers {
            fn on_job_end(&mut self, job: &JobReport, sim: &mut SimControl) {
                // Two timers, set out of order; a past deadline clamps to now.
                if job.id == 0 {
                    sim.set_timer(40_000, 2);
                    sim.set_timer(20_000, 1);
                    sim.set_timer(3, 9);
                }
            }
            fn on_timer(&mut self, key: u64, sim: &mut SimControl) {
                self.fired.push((sim.now(), key));
                if key == 1 {
                    sim.submit(JobSpec {
                        id: 7,
                        release_us: sim.now(),
                        stages: vec![Stage::Compute { label: "late", duration_us: 1_000 }],
                    });
                }
            }
        }
        let initial = vec![JobSpec {
            id: 0,
            release_us: 0,
            stages: vec![Stage::Compute { label: "seed", duration_us: 10_000 }],
        }];
        let mut w = Timers { fired: Vec::new() };
        let out = sim(vec![wifi_fifo()]).run(&initial, &mut w);
        assert_eq!(w.fired, vec![(10_000, 9), (20_000, 1), (40_000, 2)]);
        assert_eq!(out.job_count(), 2);
        assert_eq!(out.job(1).end_us(), 21_000);
        let timer_events: Vec<u64> = out
            .trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::TimerFired { key, .. } => Some(*key),
                _ => None,
            })
            .collect();
        assert_eq!(timer_events, vec![9, 1, 2], "timers land in the trace in firing order");
    }

    #[test]
    fn timed_out_jobs_surface_to_the_workload() {
        struct Failures {
            failed: Vec<u64>,
            completed: Vec<u64>,
        }
        impl Workload for Failures {
            fn on_job_end(&mut self, job: &JobReport, _sim: &mut SimControl) {
                match job.status {
                    JobStatus::Completed => self.completed.push(job.id),
                    JobStatus::TimedOut { .. } => self.failed.push(job.id),
                }
            }
        }
        let policy = TransferPolicy { timeout_us: Some(10_000), retry: RetryPolicy::none() };
        let initial = vec![
            JobSpec {
                id: 0,
                release_us: 0,
                stages: vec![Stage::Transfer { label: "up", link: 0, bytes: 1_250_000, policy }],
            },
            JobSpec { id: 1, release_us: 0, stages: vec![xfer(0, 12_500)] },
        ];
        let mut w = Failures { failed: Vec::new(), completed: Vec::new() };
        let out = sim(vec![wifi_fifo()]).run(&initial, &mut w);
        assert_eq!(w.failed, vec![0]);
        assert_eq!(w.completed, vec![1]);
        assert_eq!(out.timed_out(), 1);
    }

    #[test]
    fn reactive_runs_are_deterministic() {
        struct Reinject;
        impl Workload for Reinject {
            fn on_job_end(&mut self, job: &JobReport, sim: &mut SimControl) {
                if job.status == JobStatus::Completed && job.id < 4 {
                    sim.submit(JobSpec {
                        id: 10 + job.id,
                        release_us: sim.now() + 1_000,
                        stages: vec![xfer(0, 50_000)],
                    });
                }
            }
        }
        let initial: Vec<JobSpec> = (0..4)
            .map(|i| JobSpec { id: i, release_us: i * 300, stages: vec![xfer(0, 90_000)] })
            .collect();
        let sim = sim(vec![wifi_fifo()]);
        let a = sim.run(&initial, &mut Reinject);
        let b = sim.run(&initial, &mut Reinject);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
        assert_eq!(a.job_count(), 8);
    }

    #[test]
    fn compute_resource_links_serialize_occupants_exactly() {
        // Two 30 ms "compute" occupancies on one shard resource: the
        // second queues behind the first, and the queue/service split is
        // exact (1 byte == 1 µs, zero latency).
        let shard = LinkSpec::fifo(LinkProfile::compute_resource("shard"));
        let jobs: Vec<JobSpec> = (0..2)
            .map(|i| JobSpec {
                id: i,
                release_us: 0,
                stages: vec![Stage::Transfer {
                    label: "compute",
                    link: 0,
                    bytes: 30_000,
                    policy: TransferPolicy::default(),
                }],
            })
            .collect();
        let out = sim(vec![shard]).run(&jobs, &mut Passive);
        assert_eq!(out.job(0).end_us(), 30_000);
        assert_eq!(out.job(1).end_us(), 60_000, "back-to-back batches queue, never overlap");
        assert_eq!(out.job(1).stages()[0].ideal_us, 30_000);
        assert_eq!(out.job(1).stages()[0].wait_us(), 30_000);
    }

    #[test]
    fn backoff_grows_exponentially() {
        let retry = RetryPolicy::exponential(4, 10_000, 2.0);
        assert_eq!(retry.backoff_after(1), 10_000);
        assert_eq!(retry.backoff_after(2), 20_000);
        assert_eq!(retry.backoff_after(3), 40_000);
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn the_records_the_loop_streams_stay_small() {
        use std::mem::size_of;
        assert_eq!(size_of::<Ev>(), 16);
        assert_eq!(size_of::<crate::wheel::Entry<Ev>>(), 32);
        assert_eq!(size_of::<JobRun>(), 32);
        assert!(size_of::<StageRec>() <= 32);
        assert!(size_of::<StageRec>() < size_of::<Stage>() / 2);
    }

    #[test]
    fn narrowing_accepts_everything_a_u32_holds() {
        assert_eq!(arena_u32(0, "job"), 0);
        assert_eq!(arena_u32(u32::MAX as usize, "job"), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "the stage arena reached 4294967296 entries")]
    fn narrowing_past_a_u32_panics_with_the_arena_and_its_length() {
        // No 4 Gi allocation: the helper sees lengths, not arenas.
        arena_u32(u32::MAX as usize + 1, "stage");
    }

    fn retrying(timeout_us: u64, backoff_factor: f64) -> TransferPolicy {
        TransferPolicy {
            timeout_us: Some(timeout_us),
            retry: RetryPolicy::exponential(3, 4_000, backoff_factor),
        }
    }

    #[test]
    fn policies_that_differ_only_in_backoff_bits_behave_apart() {
        // Two jobs, a link each, transfers that cannot finish inside their
        // timeout; the policies differ in nothing but `backoff_factor`.
        // 2.0 backs off 4 then 8 ms; NaN backs off 4 ms (NaN⁰ = 1) and
        // then not at all (a NaN duration rounds to 0).
        let nan = f64::NAN;
        let other_nan = f64::from_bits(nan.to_bits() ^ 1);
        assert!(other_nan.is_nan() && other_nan.to_bits() != nan.to_bits());
        let links = vec![wifi_fifo(), wifi_fifo(), wifi_fifo()];
        let jobs: Vec<JobSpec> = [2.0, nan, other_nan]
            .into_iter()
            .enumerate()
            .map(|(i, factor)| JobSpec {
                id: i as u64,
                release_us: 0,
                stages: vec![Stage::Transfer {
                    label: "up",
                    link: i,
                    bytes: 1_250_000,
                    policy: retrying(10_000, factor),
                }],
            })
            .collect();
        let mut runner = Runner::new(&links, true);
        runner.admit_initial(jobs.iter());
        assert_eq!(runner.policies.policies.len(), 3, "one entry per bit pattern");
        runner.run(&mut Passive);
        let out = runner.into_outcome();
        let queued_at = |job| -> Vec<u64> {
            out.trace
                .iter()
                .filter_map(|e| match *e {
                    TraceEvent::TransferQueued { t, job: j, .. } if j == job => Some(t),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(queued_at(0), vec![0, 14_000, 32_000]);
        assert_eq!(queued_at(1), vec![0, 14_000, 24_000]);
        assert_eq!(queued_at(2), queued_at(1));
        assert_eq!(out.timed_out(), 3);
    }

    #[test]
    fn interning_is_by_bit_pattern_so_the_table_is_as_long_as_the_policies_are_many() {
        let links = vec![wifi_fifo()];
        let stages = |policy_of: &dyn Fn(u64) -> TransferPolicy| -> Vec<Stage> {
            (0..10_000)
                .map(|i| Stage::Transfer { label: "up", link: 0, bytes: 1, policy: policy_of(i) })
                .collect()
        };
        // 10 000 distinct timeouts: 10 000 entries, found through the map
        // (followed by a repeat of each, which must add nothing).
        let mut distinct = stages(&|i| retrying(1_000 + i, 2.0));
        distinct.extend(stages(&|i| retrying(1_000 + i, 2.0)));
        // One NaN policy 10 000 times: one entry. A table searched with
        // `==` would never find it again and would hold 10 000.
        let same_nan = stages(&|_| retrying(1_000, f64::NAN));
        let jobs = [
            JobSpec { id: 0, release_us: 0, stages: distinct },
            JobSpec { id: 1, release_us: 0, stages: same_nan },
        ];
        let mut runner = Runner::new(&links, false);
        runner.admit_initial(jobs.iter());
        assert_eq!(runner.policies.policies.len(), 10_001);
        assert_eq!(runner.policies.ids.len(), 10_001);
        assert_eq!(runner.stages.len(), 30_000);
        // `None` and `Some(0)` are different policies.
        let mut table = PolicyTable::default();
        let never = table.intern(&TransferPolicy::default());
        let at_once = table.intern(&TransferPolicy { timeout_us: Some(0), ..Default::default() });
        assert_ne!(never, at_once);
        assert_eq!(table.intern(&TransferPolicy::default()), never);
        assert_eq!(table.get(at_once).timeout_us, Some(0));
    }

    #[test]
    fn an_uncontended_fifo_link_bumps_its_token_per_start_and_never_builds_a_queue() {
        // Job 0 starts on arrival (token 1) and times out in flight
        // (token 2, orphaning its FifoDone); job 1 starts on arrival on
        // the idle link (token 3) and completes; the orphan then fires
        // into an idle link.
        let policy = TransferPolicy { timeout_us: Some(10_000), retry: RetryPolicy::none() };
        let jobs = [
            JobSpec {
                id: 0,
                release_us: 0,
                stages: vec![Stage::Transfer { label: "up", link: 0, bytes: 1_250_000, policy }],
            },
            JobSpec { id: 1, release_us: 20_000, stages: vec![xfer(0, 12_500)] },
        ];
        let links = vec![wifi_fifo()];
        let mut runner = Runner::new(&links, true);
        runner.admit_initial(jobs.iter());
        runner.run(&mut Passive);
        let Sharing::Fifo { queue, current, token } = &runner.link_states[0].sharing else {
            panic!("link 0 is FIFO");
        };
        assert_eq!(*token, 3, "one bump per start, one per in-flight timeout");
        assert!(current.is_none());
        assert_eq!(queue.capacity(), 0, "no transfer ever waited, so no queue was allocated");
        let out = runner.into_outcome();
        assert_eq!(out.job(0).status(), JobStatus::TimedOut { stage: 0 });
        assert_eq!(out.job(1).end_us(), 29_000);
    }
}
