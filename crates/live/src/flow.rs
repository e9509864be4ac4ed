//! The personalize-while-serve loop on one virtual clock.
//!
//! [`run_live`] composes four existing subsystems into a single reactive
//! [`Workload`] on the simulator's event heap:
//!
//! 1. **Bootstrap** — the unmodified one-shot pipeline
//!    ([`FleetTrainer::run`]) personalizes every user on their enrollment
//!    window and publishes durably through the registry's write-ahead
//!    store; the [`LogitCache`] each user's admission filled stays with
//!    the loop, warm.
//! 2. **Serve** — post-enrollment sessions from the mobility generator
//!    become query arrivals ([`MobilityTraffic`]) into the sim-driven
//!    batch scheduler ([`serve_harness`]): diurnal rhythm, churn and
//!    network jitter included. Every arrival doubles as a labeled drift
//!    sample (the session's true location is the ground truth the
//!    published model should have predicted).
//! 3. **Re-train** — when a user's [`DriftDetector`] fires, a retrain
//!    round timer collects marked users and dispatches warm-start jobs
//!    on the work-stealing [`TrainerPool`]: fetch the published envelope
//!    (and rollback target) from the durable store, re-train on the
//!    fresh samples, re-audit through
//!    [`AuditGate::admit_inheriting`](pelican_train::AuditGate::admit_inheriting).
//!    A re-train cannot move the frozen base of a transfer-learned
//!    model, so each job takes along its user's prefix tier — what that
//!    base answered the audit's queries last time — and the admission
//!    runs only the layers above it, at the same simulated cost. Each
//!    job's exact simulated device cost then occupies a shared trainer
//!    resource on the event heap, so publication instants are on the
//!    same clock the queries flow on.
//! 4. **Publish / rollback** — passing candidates publish through the
//!    registry's durable hot-swap path *while queries keep flowing*; a
//!    candidate that regresses against its predecessor on the very
//!    window that triggered it is reverted with
//!    [`ShardedRegistry::rollback`] — the user keeps the predecessor's
//!    logits, and gets the prefix tier back, which fits predecessor and
//!    successor alike. When a round's last job lands, every
//!    *unchanged* user is re-audited from their warm logit cache — zero
//!    forward passes.
//!
//! The loop composes on the serving tier by the rules in
//! [`pelican_serve::simserve`]: it decodes job ends with [`ServeJob::of`],
//! watching [`ServeJob::Arrival`]s for drift samples; its re-train
//! occupancies are a [`Lane`] of kind 8 on one trainer link after
//! serving's; its round timer key is `u64::MAX`, above every shard key.
//! It fails with the serving tier's [`UpdateError`].
//!
//! Determinism: weights, verdicts, publication instants and the unified
//! trace are bit-identical for any trainer-pool width (per-user seeds,
//! job-order submission, width-invariant simulated durations). When no
//! drift fires the loop schedules nothing — no timer, no job, no store
//! write — and the run reduces exactly to bootstrap + serving.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Mutex;

use pelican::platform::{ComputeTier, ResourceUsage};
use pelican_mobility::{FeatureSpace, MobilityDataset, Session, SessionCursor, TRAIN_FRACTION};
use pelican_nn::{ModelEnvelope, PrefixTier, Sample, SequenceModel};
use pelican_serve::{
    serve_harness, Lane, MobilityTraffic, MobilityTrafficConfig, Request, ServeFlow, ServeHarness,
    ServeJob, ShardedRegistry, SimServeConfig, UpdateError,
};
use pelican_sim::{
    fnv1a, JobReport, JobStatus, LinkProfile, LinkSpec, SimControl, Simulator, Workload, FNV_BASIS,
};
use pelican_store::StoreError;
use pelican_train::{
    fresh_job, AuditSubject, FleetTrainer, GateOutcome, JobKind, LogitCache, PipelineConfig,
    TrainJob, TrainerPool,
};

use crate::drift::{DriftConfig, DriftDetector};
use crate::report::{LiveOutcome, ReauditStats, RetrainRecord};

/// Job kind of re-train occupancy jobs (the serving flow owns 0–2).
const KIND_RETRAIN: u64 = 8;

/// Timer key of the retrain round — the serving flow's keys are shard
/// indices, always below the shard count.
const ROUND_KEY: u64 = u64::MAX;

/// Everything one live run needs beyond the dataset and the registry.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Bootstrap pipeline and warm re-train knobs (pool width, per-user
    /// seeds, personalization, audit gate).
    pub pipeline: PipelineConfig,
    /// Sim-driven serving knobs (scheduler, tier, optional network).
    pub serve: SimServeConfig,
    /// The per-user drift trigger.
    pub drift: DriftConfig,
    /// Virtual microseconds per trace minute (60 s/min replays the trace
    /// in real time; smaller values compress it).
    pub us_per_minute: u64,
    /// Trace minutes consumed by the bootstrap pipeline; serving (and
    /// drift accumulation) starts after this cutoff, at virtual time 0.
    pub bootstrap_minutes: u64,
    /// Trace minute the stream ends at.
    pub horizon_minutes: u64,
    /// Delay between a first drift mark and the round that serves it —
    /// the batching window for coalescing multiple drifted users into
    /// one pool dispatch.
    pub round_interval_us: u64,
    /// The safety net: a re-trained model may underperform its
    /// predecessor's top-1 accuracy on the triggering window by at most
    /// this much before the publication is rolled back.
    pub rollback_tolerance: f64,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            pipeline: PipelineConfig::default(),
            serve: SimServeConfig::default(),
            drift: DriftConfig::default(),
            us_per_minute: 60_000_000,
            bootstrap_minutes: 7 * 24 * 60,
            horizon_minutes: 14 * 24 * 60,
            round_interval_us: 300_000_000,
            rollback_tolerance: 0.5,
        }
    }
}

/// Fresh personalization jobs over each user's *bootstrap window* —
/// triples whose sessions all fall at or before `bootstrap_minutes` —
/// split train/holdout at [`TRAIN_FRACTION`] like
/// [`pelican_train::cohort_jobs`]; the holdout stays held out for every
/// later re-audit. This is the cohort the quiescent live loop is
/// equivalent to: feeding these jobs to [`pelican_train::run_pipeline`]
/// publishes bit-identical envelopes.
pub fn bootstrap_jobs(
    dataset: &MobilityDataset,
    users: Range<usize>,
    config: &LiveConfig,
) -> Vec<TrainJob> {
    users
        .filter_map(|user_id| {
            let triples: Vec<[Session; 3]> = dataset.users[user_id]
                .triples
                .iter()
                .filter(|t| t[2].absolute_entry() <= config.bootstrap_minutes)
                .cloned()
                .collect();
            fresh_job(dataset, user_id, &triples, TRAIN_FRACTION)
        })
        .collect()
}

/// The post-bootstrap event stream, precomputed host-side: one serving
/// [`Request`] per session with two predecessors of context, plus — in
/// lockstep — the drift sample (context → true next location) and the
/// session itself. `requests[i]`, `samples[i]` and `sessions[i]` all
/// describe the same event.
#[derive(Debug, Clone)]
pub struct LiveStream {
    /// Query arrivals for the serving tier, ids dense from 0 in stream
    /// order.
    pub requests: Vec<Request>,
    /// The labeled drift sample each arrival reveals.
    pub samples: Vec<Sample>,
    /// The underlying mobility session of each arrival.
    pub sessions: Vec<Session>,
}

/// Builds the live event stream: every user's trace is resumed *after*
/// the bootstrap window with a [`SessionCursor`] (context seeds from the
/// window's tail), then all post-window sessions merge into one
/// chronological arrival stream via [`MobilityTraffic`].
pub fn live_stream(
    dataset: &MobilityDataset,
    users: Range<usize>,
    config: &LiveConfig,
) -> LiveStream {
    let space = &dataset.space;
    // Per-user context: the last two sessions of the bootstrap window,
    // encoded — the first post-window query already has full context.
    let mut context: HashMap<usize, Vec<Vec<f32>>> = HashMap::new();
    for user_id in users.clone() {
        let mut cursor = SessionCursor::from_trace(&dataset.users[user_id].trace);
        cursor.resume_after(config.bootstrap_minutes);
        let consumed = cursor.consumed();
        let tail = &consumed[consumed.len().saturating_sub(2)..];
        context.insert(user_id, tail.iter().map(|s| space.encode_session(s)).collect());
    }

    let traffic = MobilityTraffic::from_sessions(
        users.flat_map(|u| dataset.users[u].trace.sessions.iter().copied()),
        MobilityTrafficConfig {
            us_per_minute: config.us_per_minute,
            start_minute: config.bootstrap_minutes,
            end_minute: config.horizon_minutes,
        },
    );

    let mut stream = LiveStream { requests: Vec::new(), samples: Vec::new(), sessions: Vec::new() };
    for (arrival, session) in traffic.arrivals().iter().zip(traffic.sessions()) {
        let ctx = context.entry(session.user).or_default();
        if ctx.len() >= 2 {
            let xs: Vec<Vec<f32>> = ctx[ctx.len() - 2..].to_vec();
            let id = stream.requests.len();
            stream.requests.push(Request {
                id,
                user_id: session.user,
                arrival_us: arrival.at_us,
                xs: xs.clone(),
            });
            stream.samples.push(Sample { xs, target: space.location_of(session) });
            stream.sessions.push(*session);
        }
        ctx.push(space.encode_session(session));
        if ctx.len() > 2 {
            ctx.drain(..ctx.len() - 2);
        }
    }
    stream
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UserStatus {
    Idle,
    Marked,
    Inflight,
}

/// One enrolled user's loop state.
struct UserState {
    /// The audit subject of the user's last admitted candidate (history
    /// grows on successful re-trains; the holdout never changes).
    subject: AuditSubject,
    /// Logit cache keyed to the currently published weights. Its prefix
    /// tier travels with the user's in-flight re-train and comes back
    /// with the publication.
    cache: LogitCache,
    detector: DriftDetector,
    /// Sessions observed since the last successful re-train (history
    /// growth for the next one).
    live_sessions: Vec<Session>,
    status: UserStatus,
    /// Virtual time of the pending drift mark.
    marked_us: u64,
}

/// What the round knew about a re-train when it dispatched it.
struct Dispatched {
    user_id: usize,
    marked_us: u64,
    round_us: u64,
    /// Rollback target: the version the warm envelope was fetched as.
    prev_version: u64,
    prior_model: SequenceModel,
    subject: AuditSubject,
    /// The fresh window the re-train consumed (also the rollback
    /// comparison set).
    window: Vec<Sample>,
}

/// A dispatched re-train with its pool result, riding the trainer lane.
type Retrain = (Dispatched, RetrainResult);

/// One warm job's pool result.
struct RetrainResult {
    published_model: SequenceModel,
    envelope: ModelEnvelope,
    gate: GateOutcome,
    cache: LogitCache,
    train_simulated_us: u64,
    audit_simulated_us: u64,
}

/// The composed workload: the serving flow plus the personalization loop.
struct LiveFlow<'a> {
    serve: ServeFlow<'a>,
    registry: &'a ShardedRegistry,
    space: &'a FeatureSpace,
    trainer: &'a FleetTrainer,
    config: &'a LiveConfig,
    general_envelope: ModelEnvelope,
    samples: &'a [Sample],
    sessions: &'a [Session],
    users: HashMap<usize, UserState>,
    round_armed: bool,
    /// Re-trains occupying the shared trainer resource, one job each.
    retrain_lane: Lane<Retrain>,
    round_published: Vec<usize>,
    retrains: Vec<RetrainRecord>,
    reaudit: ReauditStats,
    drift_marks: u64,
    error: Option<UpdateError>,
}

impl LiveFlow<'_> {
    /// Arms the round timer if no round is pending or running.
    fn arm_round(&mut self, now: u64, sim: &mut SimControl) {
        if !self.round_armed && self.retrain_lane.in_flight() == 0 {
            sim.set_timer(now + self.config.round_interval_us, ROUND_KEY);
            self.round_armed = true;
        }
    }

    /// A query reached the scheduler: its session is a fresh labeled
    /// sample for the drift trigger.
    fn observe_arrival(&mut self, id: usize, now: u64, sim: &mut SimControl) {
        if self.error.is_some() {
            return;
        }
        let session = self.sessions[id];
        let Some(state) = self.users.get_mut(&session.user) else {
            return; // never enrolled (empty bootstrap split) — served by fallback
        };
        state.live_sessions.push(session);
        state.detector.observe(self.samples[id].clone());
        if state.status != UserStatus::Idle {
            return;
        }
        let model = match self.registry.get(session.user) {
            Ok((model, _)) => model,
            Err(e) => {
                self.error = Some(e.into());
                return;
            }
        };
        let state = self.users.get_mut(&session.user).expect("checked above");
        if let Some(score) = state.detector.evaluate(&model) {
            if score.drifted {
                state.status = UserStatus::Marked;
                state.marked_us = now;
                self.drift_marks += 1;
                self.arm_round(now, sim);
            }
        }
    }

    /// The round timer fired: drain every marked user into one
    /// warm-start dispatch on the trainer pool, then put each job's
    /// simulated cost on the shared trainer resource.
    fn retrain_round(&mut self, sim: &mut SimControl) {
        self.round_armed = false;
        if self.error.is_some() {
            return;
        }
        let now = sim.now();
        let mut marked: Vec<usize> = self
            .users
            .iter()
            .filter(|(_, s)| s.status == UserStatus::Marked)
            .map(|(&u, _)| u)
            .collect();
        marked.sort_unstable();
        if marked.is_empty() {
            return;
        }
        self.round_published.clear();

        let store = self.registry.store();
        // Each job with its user's prefix tier, for the one worker that
        // runs it to take.
        let mut jobs: Vec<(TrainJob, Mutex<PrefixTier>)> = Vec::with_capacity(marked.len());
        let mut dispatched: Vec<Dispatched> = Vec::with_capacity(marked.len());
        for &user_id in &marked {
            let state = self.users.get_mut(&user_id).expect("marked users are enrolled");
            state.status = UserStatus::Inflight;
            let (prev_version, envelope) = match store.fetch_latest_with_version(user_id as u64) {
                Ok(Some(found)) => found,
                Ok(None) => {
                    self.error = Some(UpdateError::Store(StoreError::UnknownVersion {
                        user: user_id as u64,
                        version: 0,
                    }));
                    return;
                }
                Err(e) => {
                    self.error = Some(e.into());
                    return;
                }
            };
            let prior_model = match envelope.decode() {
                Ok(m) => m,
                Err(e) => {
                    self.error = Some(e.into());
                    return;
                }
            };
            let window = state.detector.drain();
            let mut subject = state.subject.clone();
            subject.history.extend(std::mem::take(&mut state.live_sessions));
            jobs.push((
                TrainJob {
                    user_id,
                    kind: JobKind::WarmStart { envelope },
                    train: window.clone(),
                    subject: subject.clone(),
                },
                Mutex::new(std::mem::take(&mut state.cache.prefix)),
            ));
            dispatched.push(Dispatched {
                user_id,
                marked_us: state.marked_us,
                round_us: now,
                prev_version,
                prior_model,
                subject,
                window,
            });
        }

        // Host-side pool dispatch (virtual clock frozen): train and audit
        // in parallel, collect in job order — weights, verdicts and the
        // priced simulated durations are bit-identical for any width.
        let trainer = self.trainer;
        let space = self.space;
        let general_envelope = &self.general_envelope;
        let pool = TrainerPool::new(trainer.config().workers);
        let results: Vec<RetrainResult> = pool.run(&jobs, |_, (job, prefix)| {
            let (candidate, fit) = trainer.train_candidate(general_envelope, job);
            let prefix = std::mem::take(&mut *prefix.lock().expect("taken once, by this job"));
            let (published, gate, cache) =
                trainer.gate().admit_inheriting(candidate, space, &job.subject, prefix);
            let device_us = |flops| {
                ResourceUsage::priced(ComputeTier::Device, flops).simulated.as_micros() as u64
            };
            RetrainResult {
                envelope: ModelEnvelope::encode(&published),
                published_model: published,
                gate,
                train_simulated_us: device_us(fit.flops),
                audit_simulated_us: device_us(cache.flops),
                cache,
            }
        });

        // Each job's exact device cost occupies the shared trainer
        // resource; publication happens when the occupancy ends.
        for (d, result) in dispatched.into_iter().zip(results) {
            let occupancy_us = result.train_simulated_us + result.audit_simulated_us;
            self.retrain_lane.submit(occupancy_us, (d, result), sim);
        }
    }

    /// A re-train's trainer occupancy ended: publish durably (queries
    /// keep flowing), apply the rollback safety net, and when the round
    /// drains, re-audit every unchanged user from their warm cache.
    fn publish_retrain(&mut self, retrain: Retrain, now: u64, sim: &mut SimControl) {
        if self.error.is_none() {
            if let Err(e) = self.finish_publication(retrain, now) {
                self.error = Some(e);
            }
        }
        if self.retrain_lane.in_flight() == 0 && self.error.is_none() {
            if let Err(e) = self.reaudit_sweep() {
                self.error = Some(e);
            }
            // Users that drifted while the round was in flight start the
            // next one.
            if self.users.values().any(|s| s.status == UserStatus::Marked) {
                self.arm_round(now, sim);
            }
        }
    }

    fn finish_publication(&mut self, (d, r): Retrain, now: u64) -> Result<(), UpdateError> {
        // The safety net compares predecessor and successor on the very
        // window that triggered the re-train (both deterministic model
        // decodes — temperature defenses preserve top-1).
        let prior_acc = top1_accuracy(&d.prior_model, &d.window);
        let new_acc = top1_accuracy(&r.published_model, &d.window);
        let rolled_back = new_acc + self.config.rollback_tolerance < prior_acc;

        self.registry.try_enroll_envelope(d.user_id, r.envelope.clone())?;
        let state = self.users.get_mut(&d.user_id).expect("pending users are enrolled");
        if rolled_back {
            // Revert to the fetched predecessor; the warm logits and
            // subject still describe the (restored) published weights,
            // and the prefix tier the candidate's admission used is as
            // good for them.
            self.registry.rollback(d.user_id, d.prev_version)?;
            state.cache.prefix = r.cache.prefix;
        } else {
            state.subject = d.subject;
            state.cache = r.cache;
        }
        state.status = UserStatus::Idle;
        self.round_published.push(d.user_id);
        self.retrains.push(RetrainRecord {
            user_id: d.user_id,
            detect_us: d.marked_us,
            round_us: d.round_us,
            publish_us: now,
            train_simulated_us: r.train_simulated_us,
            audit_simulated_us: r.audit_simulated_us,
            gate: r.gate,
            rolled_back,
            envelope_bytes: r.envelope.len(),
            envelope_hash: fnv1a(FNV_BASIS, r.envelope.as_bytes()),
        });
        Ok(())
    }

    /// Re-audits every user whose weights did not change this round —
    /// their warm logit caches answer every oracle query, so the sweep
    /// runs the full attack suite without a single forward pass.
    fn reaudit_sweep(&mut self) -> Result<(), UpdateError> {
        let mut ids: Vec<usize> = self.users.keys().copied().collect();
        ids.sort_unstable();
        for user_id in ids {
            if self.round_published.contains(&user_id) {
                continue;
            }
            let model = self.registry.get(user_id)?.0;
            let state = self.users.get_mut(&user_id).expect("iterating enrolled users");
            let (hits, misses) = (state.cache.hits, state.cache.misses);
            let eval = self.trainer.gate().audit_cached(
                &model,
                self.space,
                &state.subject,
                &mut state.cache,
            );
            self.reaudit.audits += 1;
            self.reaudit.queries += eval.queries;
            self.reaudit.hits += state.cache.hits - hits;
            self.reaudit.misses += state.cache.misses - misses;
        }
        Ok(())
    }
}

fn top1_accuracy(model: &SequenceModel, window: &[Sample]) -> f64 {
    if window.is_empty() {
        return 0.0;
    }
    let hits = window.iter().filter(|s| model.predict_top_k(&s.xs, 1).contains(&s.target)).count();
    hits as f64 / window.len() as f64
}

impl Workload for LiveFlow<'_> {
    fn on_job_end(&mut self, job: &JobReport, sim: &mut SimControl) {
        match ServeJob::of(job.id) {
            Some(serve_job) => {
                // An arriving query is also a fresh labeled sample;
                // observe it before the scheduler buffers it, at the same
                // instant.
                if let ServeJob::Arrival(id) = serve_job {
                    if job.status == JobStatus::Completed {
                        self.observe_arrival(id, job.end_us, sim);
                    }
                }
                self.serve.on_job_end(job, sim);
            }
            None => {
                let retrain = self.retrain_lane.take(job.id).expect("the loop's only job kind");
                self.publish_retrain(retrain, job.end_us, sim);
            }
        }
    }

    fn on_timer(&mut self, key: u64, sim: &mut SimControl) {
        if key == ROUND_KEY {
            self.retrain_round(sim);
        } else {
            self.serve.on_timer(key, sim);
        }
    }
}

/// Runs the full streaming loop: bootstrap, then serve-and-personalize
/// over the post-bootstrap event stream. See the module docs for the
/// phases; see [`LiveOutcome`] for what comes back.
///
/// # Errors
///
/// Codec/store/rollback failures surfaced from the loop.
///
/// # Panics
///
/// Panics on invalid configuration (zero workers, inconsistent audit
/// gate, zero `max_batch` — the same contracts as the composed parts).
pub fn run_live(
    dataset: &MobilityDataset,
    users: Range<usize>,
    registry: &ShardedRegistry,
    general: &SequenceModel,
    config: &LiveConfig,
) -> Result<LiveOutcome, UpdateError> {
    let space = &dataset.space;
    let trainer = FleetTrainer::new(config.pipeline.clone());

    // Phase 1: the unmodified one-shot pipeline over the bootstrap
    // window. With no drift this is the whole story — the quiescent loop
    // publishes exactly these envelopes and nothing else.
    // Every user keeps the cache their admission filled: it replays the
    // published model, so a re-audit of unchanged weights pays zero
    // forward passes from the first round on.
    let jobs = bootstrap_jobs(dataset, users.clone(), config);
    let mut caches: HashMap<usize, LogitCache> = HashMap::new();
    let bootstrap = trainer.run_keeping_caches(general, space, &jobs, registry, |user, cache| {
        caches.insert(user, cache);
    });

    // A user whose publication the store refused kept no cache: they get
    // no loop state, so the fallback serves them and no round re-trains
    // them; the failure stays in `bootstrap.publish_failures`.
    let mut states: HashMap<usize, UserState> = HashMap::new();
    for job in &jobs {
        let Some(cache) = caches.remove(&job.user_id) else { continue };
        states.insert(
            job.user_id,
            UserState {
                subject: job.subject.clone(),
                cache,
                detector: DriftDetector::new(config.drift),
                live_sessions: Vec::new(),
                status: UserStatus::Idle,
                marked_us: 0,
            },
        );
    }

    // Phase 2: the post-bootstrap stream through the serving harness,
    // with the personalization loop composed onto the same event heap —
    // one extra FIFO resource serializes re-train occupancies.
    let stream = live_stream(dataset, users, config);
    let ServeHarness { mut links, jobs: arrival_jobs, flow: serve } =
        serve_harness(registry, &stream.requests, &config.serve);
    let trainer_link = links.len();
    links.push(LinkSpec::fifo(LinkProfile::compute_resource("trainer")));

    let mut flow = LiveFlow {
        serve,
        registry,
        space,
        trainer: &trainer,
        config,
        general_envelope: ModelEnvelope::encode(general),
        samples: &stream.samples,
        sessions: &stream.sessions,
        users: states,
        round_armed: false,
        retrain_lane: Lane::new(KIND_RETRAIN, "retrain", trainer_link),
        round_published: Vec::new(),
        retrains: Vec::new(),
        reaudit: ReauditStats::default(),
        drift_marks: 0,
        error: None,
    };
    let sim = Simulator::builder().links(links).build().run(&arrival_jobs, &mut flow);
    if let Some(e) = flow.error {
        return Err(e);
    }
    let serve_outcome = flow.serve.into_outcome(sim)?;
    let pending_at_end = flow.users.values().filter(|s| s.status != UserStatus::Idle).count();
    let tiers = || flow.users.values().map(|s| &s.cache.prefix);
    Ok(LiveOutcome {
        prefix_hits: tiers().map(|t| t.hits).sum(),
        prefix_misses: tiers().map(|t| t.misses).sum(),
        bootstrap,
        serve: serve_outcome,
        retrains: flow.retrains,
        reaudit: flow.reaudit,
        drift_marks: flow.drift_marks,
        pending_at_end,
    })
}
