//! The batch scheduler as a reactive workload on the simulator's virtual
//! clock — one timeline for arrivals, batching, compute and responses.
//!
//! This is the only scheduler the product has: on-device or cloud, a
//! serving latency comes out of [`simulate_serving`], which runs the
//! whole serving tier inside one reactive [`pelican_sim::Simulator::run`]
//! pass:
//!
//! * every query **arrival** is a sim job — a transfer over the client's
//!   own (seeded, heterogeneous) uplink when a [`CloudNetwork`] is
//!   configured, a zero-stage job releasing at the client send time when
//!   serving on-device — so the scheduler sees *ingress* times that
//!   already include contention, jitter and drops;
//! * shard buffers seal on **sim timer events**: the `max_delay`
//!   deadline is an [`pelican_sim::SimControl::set_timer`] timer on the
//!   virtual clock, and a `max_batch` fill seals inline at the filling
//!   arrival's virtual instant;
//! * fused batch compute **occupies the shard**: each sealed batch is
//!   executed through [`ServeEngine`] and its simulated cost becomes a
//!   FIFO transfer on the shard's
//!   [`pelican_sim::LinkProfile::compute_resource`] link, so
//!   back-to-back batches queue instead of overlapping and every
//!   completion carries the real [`Completion::queue_us`] /
//!   [`Completion::service_us`] split;
//! * **responses** return over the shared contended egress link, closing
//!   the round trip on the same event heap.
//!
//! With no network the sealed compositions are a pure function of the
//! arrival times — `tests/scheduler_props.rs` compares them against a
//! replay-the-timestamps reference on random streams; under network
//! jitter the compositions genuinely change — batching reacts to the
//! network.
//!
//! # Composing on the serving tier
//!
//! The live loop, the A/B loop and the rollback drill run their own jobs
//! on the heap of one [`serve_harness`]: each decodes job ends with
//! [`ServeJob::of`], hands serving's to the inner [`ServeFlow`], and runs
//! its own one-transfer jobs through a [`Lane`]. Serving's part of the
//! trace stays bit-identical to [`simulate_serving`]'s if a loop's job
//! kinds sit above serving's 0–2 ([`Lane::new`] asserts it; the drill
//! uses 3–5, live 8, A/B 9–10), its links come after serving's, and its
//! timer keys are at or above the shard count.

use std::collections::HashMap;

use pelican::platform::ComputeTier;
use pelican_nn::ModelCodecError;
use pelican_sim::{
    JobReport, JobSpec, JobStatus, LinkProfile, LinkSpec, SimControl, SimOutcome, Simulator, Stage,
    TransferPolicy, Workload,
};

use crate::fleet::CloudNetwork;
use crate::registry::ShardedRegistry;
use crate::scheduler::{Batch, Completion, Request, SchedulerConfig, ServeEngine};

/// Everything the sim-driven serving pass needs besides the requests.
#[derive(Debug, Clone, Copy)]
pub struct SimServeConfig {
    /// Coalescing knobs; the deadline lives on the virtual clock.
    pub scheduler: SchedulerConfig,
    /// Tier fused batches are costed on.
    pub tier: ComputeTier,
    /// Device↔cloud network. `None` feeds arrivals straight into the
    /// scheduler at their send times (no uplink, no egress): on-device
    /// serving, where only batching and shard occupancy cost time.
    pub network: Option<CloudNetwork>,
}

impl Default for SimServeConfig {
    /// Default coalescing, cloud-tier compute, no network.
    fn default() -> Self {
        Self { scheduler: SchedulerConfig::default(), tier: ComputeTier::Cloud, network: None }
    }
}

/// One request's life on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedRequest {
    /// The request id.
    pub request_id: usize,
    /// The querying user.
    pub user_id: usize,
    /// Client send time (µs).
    pub sent_us: u64,
    /// When the query reached the scheduler (µs) — after the uplink, if
    /// one is configured.
    pub ingress_us: u64,
    /// When the answer was done (µs): response delivered over the
    /// egress, or fused compute finished when serving without a network.
    pub done_us: u64,
}

impl ServedRequest {
    /// End-to-end round trip on the virtual clock (µs).
    pub fn rtt_us(&self) -> u64 {
        self.done_us - self.sent_us
    }
}

/// A finished sim-driven serving pass.
#[derive(Debug, Clone)]
pub struct SimServeOutcome {
    /// Sealed batches, in seal order on the virtual clock.
    pub batches: Vec<Batch>,
    /// Per-batch completions (parallel to `batches`), with the
    /// queue/service split filled in from the shard occupancy.
    pub completions: Vec<Vec<Completion>>,
    /// Per-request round trips, ascending by request id.
    pub served: Vec<ServedRequest>,
    /// Queries dropped on the uplink (timeout retries exhausted).
    pub dropped: usize,
    /// The underlying simulation: every event of every phase on one heap.
    pub sim: SimOutcome,
}

impl SimServeOutcome {
    /// Determinism fingerprint of the unified event trace.
    pub fn fingerprint(&self) -> u64 {
        self.sim.fingerprint()
    }

    /// Each batch's scheduling identity — `(shard, dispatched_us, member
    /// request ids in order)` — for comparing scheduling decisions across
    /// network conditions (and against the test oracle).
    pub fn compositions(&self) -> Vec<(usize, u64, Vec<usize>)> {
        self.batches
            .iter()
            .map(|b| (b.shard, b.dispatched_us, b.requests.iter().map(|r| r.id).collect()))
            .collect()
    }
}

/// Job-id namespace width on the shared heap: the top byte tags the job
/// class, the low 56 bits carry the request/batch index. Serving owns
/// kinds 0–2 ([`ServeJob`]); composing loops take higher ones.
const KIND_SHIFT: u32 = 56;
const KIND_ARRIVAL: u64 = 0;
const KIND_BATCH: u64 = 1;
const KIND_RESPONSE: u64 = 2;

/// Builds a namespaced job id: `kind` in the top byte, `payload` in the
/// low 56 bits.
///
/// # Panics
///
/// Debug-panics if `payload` overflows the 56-bit namespace.
pub fn job_id(kind: u64, payload: u64) -> u64 {
    debug_assert!(payload < 1 << KIND_SHIFT);
    (kind << KIND_SHIFT) | payload
}

/// Splits a namespaced job id into `(kind, payload)` — the inverse of
/// [`job_id`].
pub fn split_job_id(id: u64) -> (u64, u64) {
    (id >> KIND_SHIFT, id & ((1 << KIND_SHIFT) - 1))
}

fn assert_request_id(id: usize) {
    assert!((id as u64) < 1 << KIND_SHIFT, "request id {id} outside job-id namespace");
}

/// A serving-tier job, decoded from its id on the shared heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeJob {
    /// Request `id` reached the scheduler, or was dropped on its uplink
    /// (the job's status says which).
    Arrival(usize),
    /// Batch `index` finished occupying its shard: its completions in
    /// [`ServeFlow::completions`] are final once the flow has seen the end.
    Batch(usize),
    /// Request `id`'s response crossed the egress.
    Response(usize),
}

impl ServeJob {
    /// Decodes a job id; `None` when the kind is a composing loop's own.
    pub fn of(id: u64) -> Option<Self> {
        let (kind, payload) = split_job_id(id);
        let payload = payload as usize;
        match kind {
            KIND_ARRIVAL => Some(Self::Arrival(payload)),
            KIND_BATCH => Some(Self::Batch(payload)),
            KIND_RESPONSE => Some(Self::Response(payload)),
            _ => None,
        }
    }
}

/// One class of a composing loop's own jobs: each moves bytes over one
/// link in a single transfer stage and holds a payload until it ends.
/// Job ids are `(kind, sequence number)`, numbered from 0.
#[derive(Debug)]
pub struct Lane<T> {
    kind: u64,
    label: &'static str,
    link: usize,
    next_seq: u64,
    in_flight: HashMap<u64, T>,
}

impl<T> Lane<T> {
    /// A lane of job kind `kind` whose transfers are labelled `label` and
    /// cross link `link`. Panics if `kind` is serving's (0–2) or does not
    /// fit the job id's top byte.
    pub fn new(kind: u64, label: &'static str, link: usize) -> Self {
        assert!(
            kind > KIND_RESPONSE && kind >> (64 - KIND_SHIFT) == 0,
            "lane kind {kind} outside the composing loops' namespace"
        );
        Self { kind, label, link, next_seq: 0, in_flight: HashMap::new() }
    }

    /// The next job of this lane — `bytes` over the lane's link, released
    /// at `release_us` — with `payload` held until it ends.
    pub fn job(&mut self, release_us: u64, bytes: u64, payload: T) -> JobSpec {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.in_flight.insert(seq, payload);
        JobSpec {
            id: job_id(self.kind, seq),
            release_us,
            stages: vec![Stage::Transfer {
                label: self.label,
                link: self.link,
                bytes,
                policy: TransferPolicy::default(),
            }],
        }
    }

    /// Submits the next job of this lane, released now.
    pub fn submit(&mut self, bytes: u64, payload: T, sim: &mut SimControl) {
        let job = self.job(sim.now(), bytes, payload);
        sim.submit(job);
    }

    /// The payload of an ended job of this lane (panics if it is not in
    /// flight); `None` for any other job id.
    pub fn take(&mut self, id: u64) -> Option<T> {
        let (kind, seq) = split_job_id(id);
        (kind == self.kind).then(|| self.in_flight.remove(&seq).expect("one end per lane job"))
    }

    /// Jobs submitted and not yet ended.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }
}

/// Runs the serving tier on the simulator's virtual clock: arrivals
/// (optionally over client uplinks), deadline/fill sealing, shard-serial
/// fused compute and egress responses all on one event heap.
///
/// Requests are normalized to `(arrival, id)` order first, so the
/// outcome is invariant under permutation of the input vector. Identical
/// inputs produce bit-identical outcomes, trace included.
///
/// # Errors
///
/// Returns [`ModelCodecError`] if a stored envelope fails to decode.
///
/// # Panics
///
/// Panics if `config.scheduler.max_batch` is zero or a request id is
/// outside the 56-bit job-id namespace.
pub fn simulate_serving(
    registry: &ShardedRegistry,
    requests: &[Request],
    config: &SimServeConfig,
) -> Result<SimServeOutcome, ModelCodecError> {
    let ServeHarness { links, jobs, mut flow } = serve_harness(registry, requests, config);
    let sim = Simulator::builder().links(links).build().run(&jobs, &mut flow);
    flow.into_outcome(sim)
}

/// Bytes of one query on its client's uplink: two encoded steps of f32
/// features (229 each on the paper's 150-building campus, 1 832 B) plus
/// framing.
const QUERY_BYTES: u64 = 2_048;
/// Bytes of one response on the cloud egress: one f32 confidence per
/// location (600 B on the paper's campus) plus framing.
const RESPONSE_BYTES: u64 = 1_024;

/// The disassembled serving pass: the link table, the initial arrival
/// jobs and the scheduler-as-workload, *before* the simulator runs.
///
/// [`simulate_serving`] assembles exactly these three pieces and runs
/// them as-is; a composing workload appends its own links and jobs,
/// wraps [`ServeHarness::flow`] in its own [`Workload`], and drives the
/// union on one event heap (see the module docs for the rules) — when
/// nothing extra is submitted, the trace is bit-identical to
/// [`simulate_serving`]'s.
pub struct ServeHarness<'a> {
    /// Shard compute resources first (link `i` = shard `i`), then — in
    /// cloud mode — the shared egress and one uplink per distinct
    /// client. Composing workloads append after these.
    pub links: Vec<LinkSpec>,
    /// One arrival job per request, already namespaced.
    pub jobs: Vec<JobSpec>,
    /// The serving workload, ready for [`Simulator::run`].
    pub flow: ServeFlow<'a>,
}

/// Disassembles one sim-driven serving pass — see [`ServeHarness`].
///
/// # Panics
///
/// Panics if `config.scheduler.max_batch` is zero or a request id is
/// outside the 56-bit job-id namespace.
pub fn serve_harness<'a>(
    registry: &'a ShardedRegistry,
    requests: &[Request],
    config: &SimServeConfig,
) -> ServeHarness<'a> {
    assert!(config.scheduler.max_batch > 0, "max_batch must be positive");
    let n_shards = registry.shard_count();
    let mut requests: Vec<Request> = requests.to_vec();
    requests.sort_by_key(|r| (r.arrival_us, r.id));

    // Link table: shard compute resources first (one FIFO lane per
    // shard), then — in cloud mode — the shared egress and one uplink
    // per distinct client, dealt from the seeded mix.
    let mut links: Vec<LinkSpec> =
        (0..n_shards).map(|_| LinkSpec::fifo(LinkProfile::compute_resource("shard"))).collect();
    let mut egress_link = None;
    let mut uplink_of: HashMap<usize, usize> = HashMap::new();
    if let Some(cloud) = &config.network {
        egress_link = Some(links.len());
        // One WAN link out of the cloud, shared fairly: concurrent
        // responses slow each other down instead of queueing in order.
        links.push(LinkSpec::fair(LinkProfile::wan()));
        let mut users: Vec<usize> = requests.iter().map(|r| r.user_id).collect();
        users.sort_unstable();
        users.dedup();
        for uid in users {
            uplink_of.insert(uid, links.len());
            links.push(LinkSpec::fair(cloud.mix.assign(cloud.seed, uid as u64).profile));
        }
    }

    // Arrival jobs: an uplink transfer in cloud mode, a zero-stage job
    // (completes at release) otherwise — either way the scheduler hears
    // about the query through `on_job_end`, on the virtual clock.
    let initial: Vec<JobSpec> = requests
        .iter()
        .map(|r| {
            assert_request_id(r.id);
            let stages = match &config.network {
                Some(cloud) => vec![Stage::Transfer {
                    label: "uplink",
                    link: uplink_of[&r.user_id],
                    bytes: QUERY_BYTES,
                    policy: cloud.uplink_policy,
                }],
                None => Vec::new(),
            };
            JobSpec { id: job_id(KIND_ARRIVAL, r.id as u64), release_us: r.arrival_us, stages }
        })
        .collect();

    let flow = ServeFlow {
        engine: ServeEngine::new(registry, config.tier),
        config: config.scheduler,
        n_shards,
        egress_link,
        pending: requests.iter().map(|r| (r.id, r.clone())).collect(),
        sent_us: requests.iter().map(|r| (r.id, r.arrival_us)).collect(),
        ingested: HashMap::new(),
        buffers: vec![Vec::new(); n_shards],
        deadlines: vec![u64::MAX; n_shards],
        batches: Vec::new(),
        completions: Vec::new(),
        served: Vec::new(),
        dropped: 0,
        error: None,
    };
    ServeHarness { links, jobs: initial, flow }
}

/// The scheduler-as-workload driving one serving pass. Built by
/// [`serve_harness`]; either run directly (that is [`simulate_serving`])
/// or delegated to from a composing [`Workload`] for every job id
/// [`ServeJob::of`] decodes and every timer key below the shard count.
pub struct ServeFlow<'a> {
    engine: ServeEngine<'a>,
    config: SchedulerConfig,
    n_shards: usize,
    egress_link: Option<usize>,
    /// Requests not yet ingested, by request id.
    pending: HashMap<usize, Request>,
    /// Client send times, by request id (ingress rewrites `arrival_us`).
    sent_us: HashMap<usize, u64>,
    /// `(user, ingress time)` of every ingested request, by request id.
    ingested: HashMap<usize, (usize, u64)>,
    /// Per-shard open buffers, in ingress order.
    buffers: Vec<Vec<Request>>,
    /// Per-shard open-buffer deadlines (`u64::MAX` = no open buffer).
    /// Sealing decisions are made from this table, never from event
    /// arrival order, so same-instant ties (an arrival landing exactly
    /// on a deadline, two shards expiring together) resolve the same
    /// way whichever event the heap pops first.
    deadlines: Vec<u64>,
    batches: Vec<Batch>,
    completions: Vec<Vec<Completion>>,
    served: Vec<ServedRequest>,
    dropped: usize,
    error: Option<ModelCodecError>,
}

impl ServeFlow<'_> {
    /// Hands the flow a request that did not exist when the harness was
    /// built — the dynamic-traffic entry point for composing workloads
    /// (e.g. an A/B experiment's adversary, whose next queries depend on
    /// answers to earlier ones). The request is ingested at the current
    /// virtual instant exactly as if its arrival job had just completed;
    /// the composing workload models whatever uplink it wants with its
    /// own job class and injects when that job ends. `request.arrival_us`
    /// is kept as the client send time for the round-trip record.
    ///
    /// # Panics
    ///
    /// Panics if the id collides with a request this flow already knows
    /// or is outside the 56-bit job-id namespace.
    pub fn inject(&mut self, request: Request, sim: &mut SimControl) {
        assert_request_id(request.id);
        assert!(
            !self.sent_us.contains_key(&request.id) && !self.pending.contains_key(&request.id),
            "injected request id {} collides with an existing request",
            request.id
        );
        self.sent_us.insert(request.id, request.arrival_us);
        self.ingest(request, sim.now(), sim);
    }

    /// Client send time of a request this flow knows, injected or not.
    pub fn sent_us(&self, request_id: usize) -> u64 {
        self.sent_us[&request_id]
    }

    /// Sealed batches so far, in seal order on the virtual clock — a
    /// composing workload reads these mid-run to react to traffic.
    pub fn batches(&self) -> &[Batch] {
        &self.batches
    }

    /// Per-batch completions, parallel to [`Self::batches`]. The
    /// queue/service split of a batch is back-filled when its shard
    /// occupancy job finishes (so it is final by the time a composing
    /// workload sees that batch's [`ServeJob::Batch`] end).
    pub fn completions(&self) -> &[Vec<Completion>] {
        &self.completions
    }

    /// Finalizes the pass: surfaces any envelope-decode error and
    /// assembles the outcome around the finished simulation.
    ///
    /// # Errors
    ///
    /// Returns [`ModelCodecError`] if a stored envelope failed to decode
    /// during the run.
    pub fn into_outcome(self, sim: SimOutcome) -> Result<SimServeOutcome, ModelCodecError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let mut served = self.served;
        served.sort_unstable_by_key(|s| s.request_id);
        Ok(SimServeOutcome {
            batches: self.batches,
            completions: self.completions,
            served,
            dropped: self.dropped,
            sim,
        })
    }

    /// Seals every buffer whose deadline has passed, in deterministic
    /// `(deadline, shard)` order — run before any buffering at the same
    /// instant so an arrival landing exactly on a deadline opens a
    /// *fresh* buffer.
    fn flush_expired(&mut self, now: u64, sim: &mut SimControl) {
        let mut due: Vec<(u64, usize)> = self
            .deadlines
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != u64::MAX && d <= now)
            .map(|(shard, &d)| (d, shard))
            .collect();
        due.sort_unstable();
        for (deadline, shard) in due {
            self.seal(shard, deadline, sim);
        }
    }

    /// A query reached the scheduler at virtual time `now`: flush
    /// anything already due, buffer it, arm the shard's deadline if the
    /// buffer just opened, seal on fill.
    fn ingest(&mut self, mut request: Request, now: u64, sim: &mut SimControl) {
        self.flush_expired(now, sim);
        let shard = request.user_id % self.n_shards;
        request.arrival_us = now;
        self.ingested.insert(request.id, (request.user_id, now));
        if self.buffers[shard].is_empty() {
            let deadline = now.saturating_add(self.config.max_delay_us);
            self.deadlines[shard] = deadline;
            sim.set_timer(deadline, shard as u64);
        }
        self.buffers[shard].push(request);
        if self.buffers[shard].len() >= self.config.max_batch {
            self.seal(shard, now, sim);
        }
    }

    /// Seals the shard's buffer, dispatched at virtual time `now` (the
    /// deadline itself for deadline seals): execute the fused batch
    /// host-side, then occupy the shard's compute resource for the
    /// measured simulated cost.
    fn seal(&mut self, shard: usize, now: u64, sim: &mut SimControl) {
        self.deadlines[shard] = u64::MAX;
        if self.error.is_some() {
            self.buffers[shard].clear();
            return;
        }
        let batch =
            Batch { shard, dispatched_us: now, requests: std::mem::take(&mut self.buffers[shard]) };
        match self.engine.execute(&batch) {
            Ok(completions) => {
                // Every member shares the fused kernel, so any member's
                // service time is the batch's compute occupancy.
                let service_us = completions.first().map_or(0, |c| c.service_us);
                let index = self.batches.len() as u64;
                sim.submit(JobSpec {
                    id: job_id(KIND_BATCH, index),
                    release_us: now,
                    stages: vec![Stage::Transfer {
                        label: "compute",
                        link: shard,
                        bytes: service_us,
                        policy: TransferPolicy::default(),
                    }],
                });
                self.batches.push(batch);
                self.completions.push(completions);
            }
            Err(e) => self.error = Some(e),
        }
    }

    /// A batch's shard occupancy finished: back-fill the queue/service
    /// split and send every response down the egress (or finish the
    /// requests in place when serving without a network).
    fn batch_done(&mut self, index: usize, job: &JobReport, sim: &mut SimControl) {
        let stage = job.stages.first().expect("batch jobs have exactly one compute stage");
        for c in &mut self.completions[index] {
            c.queue_us = stage.wait_us();
        }
        let ids: Vec<usize> = self.batches[index].requests.iter().map(|r| r.id).collect();
        for id in ids {
            match self.egress_link {
                Some(egress) => sim.submit(JobSpec {
                    id: job_id(KIND_RESPONSE, id as u64),
                    release_us: sim.now(),
                    stages: vec![Stage::Transfer {
                        label: "response",
                        link: egress,
                        bytes: RESPONSE_BYTES,
                        policy: TransferPolicy::default(),
                    }],
                }),
                None => self.finish(id, sim.now()),
            }
        }
    }

    fn finish(&mut self, request_id: usize, done_us: u64) {
        let (user_id, ingress_us) = self.ingested[&request_id];
        let sent_us = self.sent_us[&request_id];
        self.served.push(ServedRequest { request_id, user_id, sent_us, ingress_us, done_us });
    }
}

impl Workload for ServeFlow<'_> {
    fn on_job_end(&mut self, job: &JobReport, sim: &mut SimControl) {
        match ServeJob::of(job.id).expect("a serving job") {
            ServeJob::Arrival(id) => {
                let request =
                    self.pending.remove(&id).expect("one arrival job per pending request");
                if job.status == JobStatus::Completed {
                    self.ingest(request, job.end_us, sim);
                } else {
                    self.dropped += 1;
                }
            }
            ServeJob::Batch(index) => self.batch_done(index, job, sim),
            ServeJob::Response(id) => self.finish(id, job.end_us),
        }
    }

    fn on_timer(&mut self, _key: u64, sim: &mut SimControl) {
        // A timer is only a wake-up at a moment some deadline was armed
        // for; the deadline table decides what actually seals. A stale
        // timer (its buffer sealed early on a `max_batch` fill, or
        // replaced by a younger buffer with a later deadline) flushes
        // nothing.
        self.flush_expired(sim.now(), sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryConfig;
    use pelican_sim::{LinkMix, RetryPolicy, StragglerConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn registry(shards: usize) -> ShardedRegistry {
        let mut rng = StdRng::seed_from_u64(9);
        let general = pelican_nn::SequenceModel::single_lstm(4, 6, 3, 0.0, &mut rng);
        let registry = ShardedRegistry::new(general, RegistryConfig { shards, hot_capacity: 4 });
        for uid in 0..6 {
            let personalized = pelican_nn::SequenceModel::single_lstm(4, 6, 3, 0.0, &mut rng);
            registry.enroll(uid, &personalized);
        }
        registry
    }

    fn request(id: usize, user_id: usize, arrival_us: u64) -> Request {
        Request { id, user_id, arrival_us, xs: vec![vec![0.1; 4]; 2] }
    }

    fn stream(n: usize) -> Vec<Request> {
        (0..n).map(|i| request(i, i % 6, 137 * i as u64 + (i as u64 % 3) * 41)).collect()
    }

    fn config(scheduler: SchedulerConfig, network: Option<CloudNetwork>) -> SimServeConfig {
        SimServeConfig { scheduler, tier: ComputeTier::Cloud, network }
    }

    #[test]
    fn same_instant_ties_match_the_offline_scheduler() {
        let registry = registry(2);
        // An arrival landing exactly on its shard's deadline must not
        // join the sealing batch: the expired buffer is flushed first,
        // whichever of the two same-instant events the heap pops first.
        let scheduler_config = SchedulerConfig { max_batch: 100, max_delay_us: 100 };
        let requests = vec![request(0, 0, 0), request(1, 0, 100)];
        let sim = simulate_serving(&registry, &requests, &config(scheduler_config, None))
            .expect("envelopes decode");
        assert_eq!(sim.batches.len(), 2, "the tie arrival opens a fresh buffer");
        assert_eq!(sim.batches[0].dispatched_us, 100);
        assert_eq!(sim.batches[1].dispatched_us, 200);

        // Deadlines on different shards expiring at the same instant
        // seal in (deadline, shard) order, not buffer-open order.
        let scheduler_config = SchedulerConfig { max_batch: 100, max_delay_us: 50 };
        let requests = vec![request(0, 1, 0), request(1, 0, 0)];
        let sim = simulate_serving(&registry, &requests, &config(scheduler_config, None))
            .expect("envelopes decode");
        assert_eq!(sim.batches[0].shard, 0, "shard 0 seals first on equal deadlines");
        assert_eq!(sim.batches[1].shard, 1);
    }

    #[test]
    fn network_jitter_changes_the_batch_compositions() {
        let registry = registry(2);
        let requests = stream(40);
        let scheduler_config = SchedulerConfig { max_batch: 4, max_delay_us: 900 };
        let jittery = CloudNetwork {
            mix: LinkMix::cellular_heavy()
                .with_stragglers(StragglerConfig { fraction: 0.3, slowdown: 6.0 }),
            ..CloudNetwork::default()
        };
        let quiet = simulate_serving(&registry, &requests, &config(scheduler_config, None))
            .expect("envelopes decode");
        let shaken =
            simulate_serving(&registry, &requests, &config(scheduler_config, Some(jittery)))
                .expect("envelopes decode");
        assert_ne!(
            quiet.compositions(),
            shaken.compositions(),
            "uplink jitter must reshape the batches"
        );
        // Every request still served exactly once.
        let mut ids: Vec<usize> =
            shaken.batches.iter().flat_map(|b| b.requests.iter().map(|r| r.id)).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..40).collect::<Vec<_>>());
        // Responses pay the egress: every round trip ends after ingress.
        for s in &shaken.served {
            assert!(s.done_us > s.ingress_us);
            assert!(s.ingress_us > s.sent_us, "uplinks take time");
        }
    }

    #[test]
    fn back_to_back_batches_queue_on_the_shard() {
        // One shard, simultaneous arrivals, singleton batches: all six
        // seal at t = 0, so five of them must wait for the shard, and
        // the split must surface in the completions.
        let registry = registry(1);
        let requests: Vec<Request> = (0..6).map(|i| request(i, 0, 0)).collect();
        let scheduler_config = SchedulerConfig { max_batch: 1, max_delay_us: 10 };
        let out = simulate_serving(&registry, &requests, &config(scheduler_config, None))
            .expect("envelopes decode");
        assert_eq!(out.batches.len(), 6, "max_batch 1 seals every arrival instantly");
        let queued: Vec<u64> =
            out.completions.iter().flat_map(|cs| cs.iter().map(|c| c.queue_us)).collect();
        assert_eq!(queued[0], 0, "first batch finds the shard idle");
        assert!(
            queued[1..].iter().any(|&q| q > 0),
            "later batches must wait for the shard: {queued:?}"
        );
        for cs in &out.completions {
            for c in cs {
                assert!(c.service_us > 0);
                assert_eq!(c.finish_us(), c.dispatched_us + c.queue_us + c.service_us);
            }
        }
    }

    #[test]
    fn sim_serving_is_deterministic_and_permutation_invariant() {
        let registry = registry(2);
        let requests = stream(24);
        let mut reversed = requests.clone();
        reversed.reverse();
        let cfg = config(SchedulerConfig { max_batch: 3, max_delay_us: 500 }, None);
        let a = simulate_serving(&registry, &requests, &cfg).expect("envelopes decode");
        let b = simulate_serving(&registry, &requests, &cfg).expect("envelopes decode");
        let c = simulate_serving(&registry, &reversed, &cfg).expect("envelopes decode");
        assert_eq!(a.sim.trace, b.sim.trace);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), c.fingerprint(), "input order is normalized away");
        assert_eq!(a.compositions(), c.compositions());
    }

    #[test]
    fn injected_requests_join_the_stream_mid_run() {
        // A composing workload that injects one extra request when its
        // own (kind-9) job completes — the dynamic-traffic pattern the
        // A/B adversary uses.
        struct Injector<'a> {
            serve: ServeFlow<'a>,
        }
        impl Workload for Injector<'_> {
            fn on_job_end(&mut self, job: &JobReport, sim: &mut SimControl) {
                match ServeJob::of(job.id) {
                    Some(_) => self.serve.on_job_end(job, sim),
                    None => self.serve.inject(request(100, 0, sim.now()), sim),
                }
            }
            fn on_timer(&mut self, key: u64, sim: &mut SimControl) {
                self.serve.on_timer(key, sim);
            }
        }

        let registry = registry(2);
        let cfg = config(SchedulerConfig { max_batch: 4, max_delay_us: 900 }, None);
        let harness = serve_harness(&registry, &stream(8), &cfg);
        let ServeHarness { links, mut jobs, flow } = harness;
        jobs.push(JobSpec { id: job_id(9, 0), release_us: 500, stages: Vec::new() });
        let mut injector = Injector { serve: flow };
        let sim = Simulator::builder().links(links).build().run(&jobs, &mut injector);
        assert!(!injector.serve.batches().is_empty(), "mid-run accessor sees sealed batches");
        assert_eq!(injector.serve.batches().len(), injector.serve.completions().len());
        let out = injector.serve.into_outcome(sim).expect("envelopes decode");
        assert_eq!(out.served.len(), 9, "8 initial + 1 injected");
        let injected = out.served.iter().find(|s| s.request_id == 100).expect("injected served");
        assert_eq!(injected.sent_us, 500, "send time is the inject instant");
        assert!(injected.done_us > injected.sent_us);
    }

    /// Serves four requests through a probe workload that injects request
    /// `id` on the first arrival it sees.
    fn inject_on_first_arrival(id: usize) {
        let registry = registry(2);
        let cfg = config(SchedulerConfig { max_batch: 4, max_delay_us: 900 }, None);
        let ServeHarness { links, jobs, flow } = serve_harness(&registry, &stream(4), &cfg);
        struct Prober<'a>(ServeFlow<'a>, usize);
        impl Workload for Prober<'_> {
            fn on_job_end(&mut self, job: &JobReport, sim: &mut SimControl) {
                self.0.on_job_end(job, sim);
                self.0.inject(request(self.1, 0, sim.now()), sim);
            }
            fn on_timer(&mut self, key: u64, sim: &mut SimControl) {
                self.0.on_timer(key, sim);
            }
        }
        Simulator::builder().links(links).build().run(&jobs, &mut Prober(flow, id));
    }

    #[test]
    #[should_panic(expected = "collides")]
    fn injecting_a_known_request_id_panics() {
        inject_on_first_arrival(0);
    }

    #[test]
    #[should_panic(expected = "outside job-id namespace")]
    fn injecting_an_id_outside_the_namespace_panics() {
        // `job_id` only debug-asserts its payload: in a release build this
        // id's response job would land in another kind.
        inject_on_first_arrival(1 << KIND_SHIFT);
    }

    #[test]
    #[should_panic(expected = "outside the composing loops' namespace")]
    fn a_lane_cannot_take_a_serving_kind() {
        Lane::<()>::new(KIND_RESPONSE, "probe", 0);
    }

    #[test]
    fn uplink_timeouts_drop_queries_before_batching() {
        let registry = registry(2);
        let requests = stream(12);
        let strangled = CloudNetwork {
            mix: LinkMix::all_wifi()
                .with_stragglers(StragglerConfig { fraction: 0.4, slowdown: 50.0 }),
            uplink_policy: TransferPolicy { timeout_us: Some(30_000), retry: RetryPolicy::none() },
            ..CloudNetwork::default()
        };
        let cfg = config(SchedulerConfig { max_batch: 4, max_delay_us: 900 }, Some(strangled));
        let out = simulate_serving(&registry, &requests, &cfg).expect("envelopes decode");
        assert!(out.dropped > 0, "50x stragglers cannot beat a 30 ms uplink timeout");
        let batched: usize = out.batches.iter().map(|b| b.requests.len()).sum();
        assert_eq!(batched + out.dropped, 12, "dropped queries never reach a batch");
        assert_eq!(out.served.len(), batched);
    }
}
