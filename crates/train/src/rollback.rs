//! Live rollback under traffic: the durable registry's version history
//! as an *operational* tool, measured on the simulation's virtual clock.
//!
//! The scenario reproduces the fleet operator's worst Tuesday. Every
//! user's personalized model is published (v1) through a store-backed
//! [`ShardedRegistry`], and queries flow continuously through the
//! serving tier ([`serve_harness`]: shard batches, deadline seals, shard
//! occupancy on the cloud tier, no network). At a known virtual instant
//! a fleet-wide re-publication goes out with an over-aggressive noise
//! postprocess — the models still decode and serve, but their top-1
//! answers are wrong (exactly the failure mode a type-check can't
//! catch). A canary probe running on a timer compares
//! served top-1 answers against a held-back v1 reference; when
//! agreement drops below the floor, the operator pushes the prior
//! envelope back to every serving replica over one **contended** egress
//! link, and each push completion triggers
//! [`ShardedRegistry::rollback`] — re-publishing the retained v1 bytes
//! under a fresh monotone version. Queries keep flowing the whole time.
//!
//! The quantity of interest is the **staleness window**: the span from
//! detection to the last replica swap, which the shared egress link
//! stretches as pushes queue behind each other. [`RollbackReport`]
//! carries that window, the degraded-answer counts before/after, the
//! push queueing percentiles, and the run's determinism fingerprint.
//!
//! A query is read back from its batch's completion the way the A/B
//! experiment reads its losing cohort: the batch bound the user's model
//! when it sealed, so the query is logged at the batch's `dispatched_us`
//! and judged by the confidences it was served. The drill's own jobs
//! (kinds 3–5) and push link follow the rules of [`pelican_serve::simserve`].
//!
//! Everything is deterministic: models, probes, the regression noise,
//! and the event schedule are pure functions of [`RollbackConfig`] and
//! the drill's constants below.

use std::sync::Arc;

use pelican::platform::ComputeTier;
use pelican_nn::{DefenseKind, ModelEnvelope, SequenceModel, Step};
use pelican_serve::{
    job_id, serve_harness, split_job_id, Lane, RegistryConfig, Request, SchedulerConfig, ServeFlow,
    ServeHarness, ServeJob, ShardedRegistry, SimServeConfig, UpdateError,
};
use pelican_sim::{
    mix64, stage_stats, JobReport, JobSpec, LinkProfile, LinkSpec, SimControl, Simulator, Workload,
};
use pelican_store::{EnvelopeStore, MemBackend, StorageBackend, StoreConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The drill's own job kinds, above serving's 0–2: the regressed fleet
/// publication, the canary chain and the rollback pushes.
const KIND_REGRESS: u64 = 3;
const KIND_CANARY: u64 = 4;
const KIND_PUSH: u64 = 5;

/// Registry and store shard count.
const SHARDS: usize = 4;
/// Sigma of the Gaussian noise the bad publication applies to the output
/// distribution — large enough to scramble top-1 answers.
const REGRESSION_SIGMA: f32 = 2.5;
/// Virtual instant the regressed fleet publication lands (µs): just
/// before the second canary, so detection lags it by a few ms.
const REGRESS_AT_US: u64 = 37_000;
/// Canary probe cadence (µs); the first canary fires one interval in.
const CANARY_INTERVAL_US: u64 = 20_000;
/// Detection threshold: rollback triggers when served-vs-reference top-1
/// agreement drops below this fraction. Clean replicas agree fully;
/// scrambled answers fall far below.
const CANARY_AGREEMENT_FLOOR: f64 = 0.9;
/// Probe sequences per user in the canary set.
const CANARY_PROBES: usize = 4;
/// Total queries; user `i % users` sends probe `i % CANARY_PROBES` at
/// `i * QUERY_GAP_US`.
const QUERIES: usize = 600;
/// Inter-query gap (µs). `QUERIES * QUERY_GAP_US`, 0.9 s of traffic, is
/// also the horizon past which an undetected regression stops the canary.
const QUERY_GAP_US: u64 = 1_500;

/// The answer a client acts on: argmax of the *served confidences*
/// (`predict_proba`), which is where the postprocess applies — a raw
/// top-k over logits would never see the regression. Ties break to the
/// lowest class, deterministically.
fn top1(probs: &[f32]) -> usize {
    let mut best = 0;
    for (i, p) in probs.iter().enumerate() {
        if *p > probs[best] {
            best = i;
        }
    }
    best
}

/// Everything that shapes one rollback study. All fields feed the
/// deterministic schedule; two runs with equal configs produce equal
/// [`RollbackReport`]s, fingerprint included.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RollbackConfig {
    /// Fleet size (one personalized model per user).
    pub users: usize,
    /// Bytes of one rollback push (envelope + transport framing).
    pub push_bytes: u64,
    /// Master seed for models, probes and the regression noise.
    pub seed: u64,
}

impl Default for RollbackConfig {
    fn default() -> Self {
        Self { users: 10, push_bytes: 64 * 1024, seed: 0x0711 }
    }
}

/// What one rollback-under-traffic run measured, all times virtual (µs).
#[derive(Debug, Clone, PartialEq)]
pub struct RollbackReport {
    /// Fleet size.
    pub users: usize,
    /// When the regressed publication landed.
    pub regress_at_us: u64,
    /// When the canary crossed the agreement floor.
    pub detected_at_us: u64,
    /// Detection lag: `detected_at_us - regress_at_us`.
    pub detection_lag_us: u64,
    /// Served-vs-reference top-1 agreement at the detecting canary.
    pub agreement_at_detection: f64,
    /// First replica swapped back (rollback publication visible).
    pub first_swap_us: u64,
    /// Last replica swapped back.
    pub last_swap_us: u64,
    /// The staleness window: `last_swap_us - detected_at_us`. This is
    /// what the contended egress link stretches.
    pub staleness_us: u64,
    /// Full degraded exposure: `last_swap_us - regress_at_us`.
    pub exposure_us: u64,
    /// p95 queueing delay of the rollback pushes on the shared link.
    pub push_wait_p95_us: u64,
    /// Queries served over the whole run.
    pub queries_total: usize,
    /// Queries whose top-1 differed from the v1 reference.
    pub queries_degraded: usize,
    /// Degraded answers served *after* the user's replica swapped —
    /// must be zero: rollback restores exact v1 behavior.
    pub queries_degraded_after_swap: usize,
    /// Publications the registry accepted (v1 fleet + regression +
    /// rollbacks).
    pub publishes: u64,
    /// Rollback publications among them.
    pub rollbacks: u64,
    /// Versions retained in the durable log (full history: the
    /// regression stays on disk for the post-mortem).
    pub history_total: u64,
    /// Determinism fingerprint of the simulation trace.
    pub fingerprint: u64,
}

impl RollbackReport {
    /// Human-readable study summary (the `store-report` experiment's
    /// rollback section).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "rollback under traffic: {} users, regression at {} us\n",
            self.users, self.regress_at_us
        ));
        out.push_str(&format!(
            "  detected at {} us (lag {} us, canary agreement {:.3})\n",
            self.detected_at_us, self.detection_lag_us, self.agreement_at_detection
        ));
        out.push_str(&format!(
            "  swaps {} .. {} us | staleness window {} us | exposure {} us\n",
            self.first_swap_us, self.last_swap_us, self.staleness_us, self.exposure_us
        ));
        out.push_str(&format!("  push wait p95 {} us\n", self.push_wait_p95_us));
        out.push_str(&format!(
            "  queries: {} total, {} degraded, {} degraded after swap\n",
            self.queries_total, self.queries_degraded, self.queries_degraded_after_swap
        ));
        out.push_str(&format!(
            "  log: {} publishes ({} rollbacks), {} versions retained\n",
            self.publishes, self.rollbacks, self.history_total
        ));
        out.push_str(&format!("  fingerprint {:#018x}\n", self.fingerprint));
        out
    }
}

/// A finished study: the report plus the live registry and its backing
/// "disk", so callers (and tests) can keep serving, restart the store
/// over the same bytes, or inspect retained history.
pub struct RollbackOutcome {
    /// The measurements.
    pub report: RollbackReport,
    /// The registry as the run left it (every user on a rolled-back
    /// version newer than the regression).
    pub registry: ShardedRegistry,
    /// The in-memory backend holding the durable log; `clone()` shares
    /// the same bytes, so reopening a store over it is a kill-free
    /// restart.
    pub disk: MemBackend,
    /// The v1 reference models, index = user.
    pub reference: Vec<SequenceModel>,
    /// The probe set the canary and queries used.
    pub probes: Vec<Vec<Step>>,
}

/// The reactive workload driving the study on the virtual clock: the
/// serving tier plus the drill's regression, canary and pushes.
struct RollbackFlow<'a> {
    serve: ServeFlow<'a>,
    cfg: &'a RollbackConfig,
    registry: &'a ShardedRegistry,
    bad: &'a [SequenceModel],
    v1: &'a [u64],
    probes: &'a [Vec<Step>],
    /// `good_top1[user][probe]`: the v1 reference answers.
    good_top1: &'a [Vec<usize>],
    detected_at: Option<u64>,
    agreement_at_detection: f64,
    /// Each user's rollback push on the shared egress link.
    pushes: Lane<usize>,
    /// Per-user swap completion time, once rolled back.
    swaps: Vec<Option<u64>>,
    /// `(dispatched_us, user, degraded)` per served query.
    query_log: Vec<(u64, usize, bool)>,
    /// The first publication, rollback or lookup that failed; the drill
    /// stops acting once it is set, and the study returns it.
    error: Option<UpdateError>,
}

impl RollbackFlow<'_> {
    /// Served-vs-reference top-1 agreement across the canary set.
    fn canary_agreement(&self) -> Result<f64, UpdateError> {
        let mut matches = 0usize;
        let mut total = 0usize;
        for user in 0..self.cfg.users {
            let (served, _) = self.registry.get(user)?;
            for (p, probe) in self.probes.iter().enumerate() {
                total += 1;
                if top1(&served.predict_proba(probe)) == self.good_top1[user][p] {
                    matches += 1;
                }
            }
        }
        Ok(matches as f64 / total.max(1) as f64)
    }

    fn submit_canary(&self, tick: u64, at: u64, sim: &mut SimControl) {
        sim.submit(JobSpec { id: job_id(KIND_CANARY, tick), release_us: at, stages: Vec::new() });
    }

    /// Batch `index` is done: log each of its queries at the instant the
    /// batch sealed and bound its users' models.
    fn log_batch(&mut self, index: usize) {
        let dispatched_us = self.serve.batches()[index].dispatched_us;
        for c in &self.serve.completions()[index] {
            let probe = c.request_id % self.probes.len();
            let degraded = top1(&c.probs) != self.good_top1[c.user_id][probe];
            self.query_log.push((dispatched_us, c.user_id, degraded));
        }
    }
}

impl Workload for RollbackFlow<'_> {
    fn on_job_end(&mut self, job: &JobReport, sim: &mut SimControl) {
        if let Some(serve_job) = ServeJob::of(job.id) {
            self.serve.on_job_end(job, sim);
            if let ServeJob::Batch(index) = serve_job {
                self.log_batch(index);
            }
            return;
        }
        if self.error.is_some() {
            return;
        }
        if let Some(user) = self.pushes.take(job.id) {
            match self.registry.rollback(user, self.v1[user]) {
                Ok(_) => self.swaps[user] = Some(job.end_us),
                Err(e) => self.error = Some(e),
            }
            return;
        }
        let (kind, tick) = split_job_id(job.id);
        match kind {
            KIND_REGRESS => {
                // The bad fleet publication: every user re-published with
                // the over-noised postprocess, through the same durable
                // path as any legitimate update.
                for (user, model) in self.bad.iter().enumerate() {
                    let envelope = ModelEnvelope::encode(model);
                    if let Err(e) = self.registry.try_enroll_envelope(user, envelope) {
                        self.error = Some(e.into());
                        return;
                    }
                }
            }
            KIND_CANARY => {
                if self.detected_at.is_some() {
                    return;
                }
                let agreement = match self.canary_agreement() {
                    Ok(agreement) => agreement,
                    Err(e) => {
                        self.error = Some(e);
                        return;
                    }
                };
                if agreement < CANARY_AGREEMENT_FLOOR {
                    self.detected_at = Some(job.end_us);
                    self.agreement_at_detection = agreement;
                    // Push the prior envelope to every replica over the
                    // one shared egress link — this is where contention
                    // stretches the staleness window.
                    for user in 0..self.cfg.users {
                        self.pushes.submit(self.cfg.push_bytes, user, sim);
                    }
                } else if job.end_us + CANARY_INTERVAL_US <= QUERIES as u64 * QUERY_GAP_US {
                    self.submit_canary(tick + 1, job.end_us + CANARY_INTERVAL_US, sim);
                }
            }
            _ => unreachable!("unknown job kind {kind}"),
        }
    }

    fn on_timer(&mut self, key: u64, sim: &mut SimControl) {
        self.serve.on_timer(key, sim);
    }
}

/// Runs the rollback-under-traffic study on an in-memory disk.
///
/// # Errors
///
/// The first store or decode error of a publication, a rollback or a
/// lookup, as [`UpdateError`].
///
/// # Panics
///
/// Panics if the canary never detects the regression before the query
/// horizon, or if `users` is zero.
pub fn run_rollback_study(cfg: &RollbackConfig) -> Result<RollbackOutcome, UpdateError> {
    let disk = MemBackend::new();
    study(cfg, Arc::new(disk.clone()), disk)
}

/// [`run_rollback_study`] over `backend`, whose bytes `disk` holds.
fn study(
    cfg: &RollbackConfig,
    backend: Arc<dyn StorageBackend>,
    disk: MemBackend,
) -> Result<RollbackOutcome, UpdateError> {
    assert!(cfg.users > 0, "empty study");

    // The durable tier: store-backed registry, v1 fleet published
    // through the write-ahead log before traffic starts.
    let store =
        EnvelopeStore::open(backend, StoreConfig { shards: SHARDS, ..StoreConfig::default() })?;
    let registry = ShardedRegistry::with_store(
        reference_model(cfg.seed, 0),
        RegistryConfig { shards: SHARDS, hot_capacity: (cfg.users / 2).max(2) },
        Arc::new(store),
    );

    let reference: Vec<SequenceModel> =
        (0..cfg.users).map(|u| reference_model(cfg.seed, u as u64 + 1)).collect();
    let v1 = reference
        .iter()
        .enumerate()
        .map(|(u, m)| registry.try_enroll_envelope(u, ModelEnvelope::encode(m)))
        .collect::<Result<Vec<u64>, _>>()?;

    // The regressed variants: same weights, scrambling output noise.
    let bad: Vec<SequenceModel> = reference
        .iter()
        .enumerate()
        .map(|(u, m)| {
            let mut bad = m.clone();
            bad.set_defense(DefenseKind::OutputNoise {
                sigma: REGRESSION_SIGMA,
                seed: mix64(cfg.seed ^ (u as u64).wrapping_mul(0x9E37)),
            });
            bad
        })
        .collect();

    // Deterministic probe set and the v1 reference answers.
    let probes: Vec<Vec<Step>> = (0..CANARY_PROBES)
        .map(|p| {
            (0..2)
                .map(|s| {
                    (0..3)
                        .map(|d| {
                            let h = mix64(cfg.seed ^ ((p * 64 + s * 8 + d) as u64 | 1 << 40));
                            (h >> 40) as f32 / (1u64 << 24) as f32
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let good_top1: Vec<Vec<usize>> = reference
        .iter()
        .map(|m| probes.iter().map(|p| top1(&m.predict_proba(p))).collect())
        .collect();

    // The schedule: queries at a fixed cadence into the serving tier, the
    // regression drop, and the first canary (later canaries chain off
    // completed ones). The push link comes after serving's links.
    let requests: Vec<Request> = (0..QUERIES)
        .map(|i| Request {
            id: i,
            user_id: i % cfg.users,
            arrival_us: i as u64 * QUERY_GAP_US,
            xs: probes[i % probes.len()].clone(),
        })
        .collect();
    let serve_config = SimServeConfig {
        scheduler: SchedulerConfig::default(),
        tier: ComputeTier::Cloud,
        network: None,
    };
    let ServeHarness { mut links, jobs: mut initial, flow: serve } =
        serve_harness(&registry, &requests, &serve_config);
    let pushes = Lane::new(KIND_PUSH, "rollback-push", links.len());
    // One WAN egress, FIFO: pushes serialize, so the fleet's last replica
    // waits for every other push — the widest staleness window.
    links.push(LinkSpec::fifo(LinkProfile::wan()));
    initial.push(JobSpec {
        id: job_id(KIND_REGRESS, 0),
        release_us: REGRESS_AT_US,
        stages: Vec::new(),
    });
    initial.push(JobSpec {
        id: job_id(KIND_CANARY, 0),
        release_us: CANARY_INTERVAL_US,
        stages: Vec::new(),
    });

    let mut flow = RollbackFlow {
        serve,
        cfg,
        registry: &registry,
        bad: &bad,
        v1: &v1,
        probes: &probes,
        good_top1: &good_top1,
        detected_at: None,
        agreement_at_detection: 1.0,
        pushes,
        swaps: vec![None; cfg.users],
        query_log: Vec::with_capacity(QUERIES),
        error: None,
    };
    let sim = Simulator::builder().links(links).build().run(&initial, &mut flow);
    if let Some(e) = flow.error {
        return Err(e);
    }
    let outcome = flow.serve.into_outcome(sim)?;

    let detected_at_us =
        flow.detected_at.expect("canary must detect the regression before the query horizon");
    let swap_times: Vec<u64> =
        flow.swaps.iter().map(|s| s.expect("every replica rolled back")).collect();
    let window = crate::staleness::StalenessWindow::measure(detected_at_us, &swap_times);

    let queries_degraded = flow.query_log.iter().filter(|(_, _, d)| *d).count();
    let queries_degraded_after_swap =
        crate::staleness::count_degraded_after_swap(&flow.query_log, &swap_times);

    let stats = registry.stats();
    let report = RollbackReport {
        users: cfg.users,
        regress_at_us: REGRESS_AT_US,
        detected_at_us,
        detection_lag_us: detected_at_us - REGRESS_AT_US,
        agreement_at_detection: flow.agreement_at_detection,
        first_swap_us: window.first_swap_us,
        last_swap_us: window.last_swap_us,
        staleness_us: window.staleness_us(),
        exposure_us: window.exposure_us(REGRESS_AT_US),
        push_wait_p95_us: stage_stats(&outcome.sim, "rollback-push").wait_p95_us,
        queries_total: flow.query_log.len(),
        queries_degraded,
        queries_degraded_after_swap,
        publishes: stats.publishes,
        rollbacks: stats.rollbacks,
        history_total: stats.history_total(),
        fingerprint: outcome.fingerprint(),
    };
    Ok(RollbackOutcome { report, registry, disk, reference, probes })
}

/// User `u`'s deterministic v1 model (`u == 0` is the fleet fallback).
fn reference_model(seed: u64, u: u64) -> SequenceModel {
    let mut rng = StdRng::seed_from_u64(mix64(seed.wrapping_add(u)));
    SequenceModel::single_lstm(3, 4, 5, 0.0, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelican_store::{Fault, FaultPlan, Method, StoreError};

    #[test]
    fn the_study_is_deterministic() {
        let cfg = RollbackConfig { users: 6, ..RollbackConfig::default() };
        let a = run_rollback_study(&cfg).unwrap();
        let b = run_rollback_study(&cfg).unwrap();
        assert_eq!(a.report, b.report);
        assert_eq!(a.report.fingerprint, b.report.fingerprint);
    }

    #[test]
    fn the_staleness_window_is_ordered_and_paid_for() {
        let out = run_rollback_study(&RollbackConfig::default()).unwrap();
        let r = &out.report;
        assert!(r.regress_at_us < r.detected_at_us, "detection follows the regression");
        assert!(r.detected_at_us < r.first_swap_us, "pushes take link time");
        assert!(r.first_swap_us < r.last_swap_us, "FIFO pushes serialize");
        assert_eq!(r.staleness_us, r.last_swap_us - r.detected_at_us);
        assert!(r.staleness_us > 0);
        assert!(r.push_wait_p95_us > 0, "the shared egress link queues");
        assert!(r.queries_degraded > 0, "the regression was user-visible");
        assert_eq!(r.queries_degraded_after_swap, 0, "rollback restores v1 behavior");
        assert_eq!(r.rollbacks, r.users as u64);
        // v1 fleet + regression + rollbacks, all retained in the log.
        assert_eq!(r.publishes, 3 * r.users as u64);
        assert_eq!(r.history_total, r.publishes);
    }

    #[test]
    fn fatter_pushes_stretch_the_staleness_window() {
        let slim = run_rollback_study(&RollbackConfig::default()).unwrap().report;
        let fat = run_rollback_study(&RollbackConfig {
            push_bytes: 4 * RollbackConfig::default().push_bytes,
            ..RollbackConfig::default()
        })
        .unwrap()
        .report;
        assert!(
            fat.staleness_us > slim.staleness_us,
            "4x push bytes must widen the window: {} vs {}",
            fat.staleness_us,
            slim.staleness_us
        );
    }

    #[test]
    fn rolled_back_serving_matches_v1_and_survives_a_restart() {
        let cfg = RollbackConfig { users: 5, ..RollbackConfig::default() };
        let out = run_rollback_study(&cfg).unwrap();

        // Live registry: every user answers exactly like their v1 model
        // again, under a version newer than the regression's.
        for (user, reference) in out.reference.iter().enumerate() {
            let (served, _) = out.registry.get(user).unwrap();
            for probe in &out.probes {
                assert_eq!(served.predict_proba(probe), reference.predict_proba(probe));
            }
            // v1 fleet (users) + bad fleet (users) precede any rollback.
            assert!(out.registry.version_of(user).unwrap() > 2 * cfg.users as u64);
        }

        // Kill-free restart over the same bytes: history (including the
        // regression, for the post-mortem) and the rollback all survive.
        let disk: &dyn StorageBackend = &out.disk;
        assert!(disk.list().unwrap().iter().any(|n| n.ends_with(".plog")));
        let store = EnvelopeStore::open(
            Arc::new(out.disk.clone()),
            StoreConfig { shards: SHARDS, ..StoreConfig::default() },
        )
        .unwrap();
        assert_eq!(store.recovery().torn_segments, 0);
        let reborn = ShardedRegistry::with_store(
            out.registry.general().clone(),
            RegistryConfig { shards: SHARDS, hot_capacity: 4 },
            Arc::new(store),
        );
        for (user, reference) in out.reference.iter().enumerate() {
            assert_eq!(reborn.version_of(user), out.registry.version_of(user));
            let (served, _) = reborn.get(user).unwrap();
            for probe in &out.probes {
                assert_eq!(served.predict_proba(probe), reference.predict_proba(probe));
            }
        }
    }

    #[test]
    fn a_failed_publication_is_an_error_not_a_panic() {
        let cfg = RollbackConfig { users: 4, ..RollbackConfig::default() };
        let disk = MemBackend::new();
        let plan = Arc::new(FaultPlan::new(disk.clone()));
        // One append per publication: the v1 fleet's, then the first
        // regressed one, which fails.
        plan.arm(Method::Append, cfg.users + 1, Fault::Error);
        let result = study(&cfg, plan, disk);
        assert!(
            matches!(result, Err(UpdateError::Store(StoreError::Io(_)))),
            "the regressed publication's failed append must surface as a store error"
        );
    }

    #[test]
    fn a_failed_rollback_is_an_error_not_a_panic() {
        let cfg = RollbackConfig { users: 4, ..RollbackConfig::default() };
        let disk = MemBackend::new();
        let plan = Arc::new(FaultPlan::new(disk.clone()));
        // The v1 fleet and the regression publish first; the first
        // rollback's re-publication fails.
        plan.arm(Method::Append, 2 * cfg.users + 1, Fault::Error);
        let result = study(&cfg, plan, disk);
        assert!(matches!(result, Err(UpdateError::Store(StoreError::Io(_)))));
    }
}
