//! The closed A/B loop on one virtual clock.
//!
//! [`run_abx`] stages a complete defense-rung experiment as a reactive
//! [`Workload`] composed onto the sim-driven serving tier:
//!
//! 1. **Split** — the enrolled users partition into A / B / holdout
//!    cohorts by seeded hash ([`CohortSplitter`]); the partition is
//!    asserted disjoint and exhaustive before anything trains.
//! 2. **Publish** — every user personalizes once on the trainer pool and
//!    publishes through the registry's durable-before-visible path
//!    ([`publish_arms`]): treatment users carry their own arm's rung
//!    active and the *other* arm's rung as a retained shadow version, so
//!    the eventual losing-cohort flip is a store rollback, not a retrain.
//! 3. **Attack through the front door** — a [`ServedAdversary`] per
//!    attacked user mounts the time-based inversion attack strictly
//!    through the serving interface: its query batches ride a WAN uplink
//!    job onto the event heap, get injected into the scheduler
//!    ([`ServeFlow::inject`]), wait in shard batches behind background
//!    traffic, and come back as top-k truncated served vectors after
//!    real virtual-clock latency. No adversary ever holds a model.
//! 4. **Verdict** — a checkpoint timer fires on the same clock; once
//!    every attack is home the [`VerdictEngine`] compares per-arm
//!    *advantage* (attack hit rate minus each user's own prior baseline)
//!    under a latency guard and either declares the arms
//!    indistinguishable ([`Verdict::Null`] — the A/A contract) or
//!    promotes a winner.
//! 5. **Flip / promote** — on a promotion, every losing-cohort user's
//!    flip-back (a [`ShardedRegistry::rollback`] to their shadow
//!    version) and every holdout promotion rides its own WAN push job;
//!    queries keep flowing throughout. Because batches bind the registry
//!    model at seal time, a response can only carry the losing rung if
//!    its batch *dispatched* before the flip landed — the run counts
//!    those as (expected, bounded) exposure and asserts the
//!    degraded-*after*-swap count is zero, reusing the exact
//!    [`count_degraded_after_swap`] definition the rollback study uses.
//!
//! The loop composes on the serving tier by the rules in
//! [`pelican_serve::simserve`]: job ends decode with [`ServeJob::of`], and
//! every [`ServeJob::Batch`] end is scanned for per-arm traffic
//! ([`crate::ArmStats::served`]), adversary answers and the losing
//! cohort's log. Attack uplinks (the opening batches included) and flip
//! pushes are [`Lane`]s of kinds 9 and 10 on two WAN links after
//! serving's; the checkpoint timer key is `u64::MAX - 1`. The run fails
//! with the serving tier's [`UpdateError`].
//!
//! Determinism: the split is a pure hash, training is width-invariant,
//! attack query sets are answer-independent and everything else is a
//! deterministic event heap — the outcome [`fingerprint`] is
//! bit-identical for any trainer-pool width.
//!
//! [`fingerprint`]: crate::report::AbxOutcome::fingerprint

use std::collections::HashMap;
use std::ops::Range;

use pelican::DefenseKind;
use pelican_attacks::{truncate_top_k, ServedAdversary, ServedAnswer, ServedQuery};
use pelican_live::{bootstrap_jobs, live_stream, LiveConfig};
use pelican_mobility::MobilityDataset;
use pelican_nn::{ModelEnvelope, SequenceModel};
use pelican_serve::{
    serve_harness, Lane, Request, ServeFlow, ServeHarness, ServeJob, ShardedRegistry,
    SimServeConfig, UpdateError,
};
use pelican_sim::{JobReport, JobSpec, LinkProfile, LinkSpec, SimControl, Simulator, Workload};
use pelican_train::{count_degraded_after_swap, FleetTrainer, PipelineConfig, StalenessWindow};

use crate::publisher::{defended, publish_arms, ArmPublication};
use crate::report::{AbxOutcome, AttackRecord, PublicationRecord, SwapKind, SwapRecord};
use crate::splitter::{Arm, CohortSplit, CohortSplitter};
use crate::verdict::{Verdict, VerdictConfig, VerdictEngine};

/// Job kind of adversary uplink batches (the serving flow owns 0–2; the
/// live loop uses 8).
const KIND_ATTACK: u64 = 9;

/// Job kind of post-verdict flip / promotion pushes.
const KIND_FLIP: u64 = 10;

/// Timer key of the verdict checkpoint — distinct from the serving
/// flow's shard keys and the live loop's round key (`u64::MAX`).
const CHECKPOINT_KEY: u64 = u64::MAX - 1;

/// Cohort-split seed: any fixed value will do, since the split is a pure
/// hash of it and the user id.
pub const SPLIT_SEED: u64 = 0xAB5_EED;
/// Target fractions of `(arm A, arm B)`; the rest, a third, is the
/// holdout.
pub const FRACTIONS: (f64, f64) = (0.34, 0.33);
/// Served confidence vectors are truncated to this many entries — the
/// serving tier's answer minimization, a little above the audit's top-3
/// cutoff.
const RESPONSE_TOP_K: usize = 5;
/// Wire size of one adversary query on its uplink.
const QUERY_BYTES: u64 = 256;
/// Virtual microseconds per trace minute: a compact timeline, 1 ms per
/// mobility minute, so a week of campus traffic serves in 10 virtual s.
const US_PER_MINUTE: u64 = 1_000;
/// Trace minutes consumed by enrollment — the first week; serving starts
/// after this cutoff, at virtual time 0.
const BOOTSTRAP_MINUTES: u64 = 7 * 24 * 60;
/// Trace minute the background stream ends at: two days into the second
/// week, 2.9 virtual s of background traffic.
const HORIZON_MINUTES: u64 = 9 * 24 * 60;
/// Verdict checkpoint period on the virtual clock (50 virtual s); the
/// checkpoint re-arms until every attack is home, then decides exactly
/// once.
const CHECKPOINT_INTERVAL_US: u64 = 50_000_000;
/// Maximum p95 latency regression the winning rung may cost: 1 virtual
/// second, so the guard trips only on a rung that slows serving grossly.
const LATENCY_MARGIN_US: u64 = 1_000_000;

/// Everything one experiment needs beyond the dataset and the registry.
#[derive(Debug, Clone)]
pub struct AbxConfig {
    /// Trainer pool and audit red-team knobs. The served adversary runs
    /// the red-team recipe of `pipeline.audit` — its instances, prior,
    /// probes, method and cutoffs — so the front-door attack audits with
    /// the same configuration the offline gate would. Its prior may not
    /// be [`PriorKind::Predict`](pelican_attacks::PriorKind::Predict),
    /// which needs the model in hand.
    pub pipeline: PipelineConfig,
    /// Sim-driven serving knobs (scheduler, tier, optional network).
    pub serve: SimServeConfig,
    /// The two defense rungs under test, `[A, B]`.
    pub arms: [DefenseKind; 2],
    /// Users attacked through the serving interface per arm (lowest user
    /// ids of each cohort).
    pub attacked_per_arm: usize,
    /// Advantage gap below which the arms are indistinguishable.
    pub null_margin: f64,
}

impl Default for AbxConfig {
    fn default() -> Self {
        Self {
            pipeline: PipelineConfig::default(),
            serve: SimServeConfig::default(),
            arms: [DefenseKind::None, DefenseKind::Temperature { temperature: 1e-5 }],
            attacked_per_arm: 2,
            null_margin: 0.05,
        }
    }
}

/// One attacked user's front-door attack in flight.
struct AttackState {
    user_id: usize,
    arm: Arm,
    adversary: ServedAdversary,
    done: bool,
}

/// What a flip push does when it lands.
enum FlipAction {
    /// Losing-cohort rollback to the retained shadow version.
    FlipBack { user_id: usize, slot: usize, shadow_version: u64 },
    /// Holdout adoption of the winning rung via a fresh publication.
    Promote { user_id: usize, envelope: ModelEnvelope },
}

/// The composed workload: the serving flow plus the experiment loop.
struct AbxFlow<'a> {
    serve: ServeFlow<'a>,
    registry: &'a ShardedRegistry,
    split: &'a CohortSplit,
    publications: &'a [ArmPublication],
    /// user id → index into `publications`.
    pub_index: HashMap<usize, usize>,
    config: &'a AbxConfig,
    attacks: Vec<AttackState>,
    engine: VerdictEngine,
    /// Injected attack request id → (attack slot, adversary query id).
    rid_map: HashMap<usize, (usize, usize)>,
    next_rid: usize,
    /// Adversary query batches on the shared WAN uplink, with their
    /// attack slot.
    uplinks: Lane<(usize, Vec<ServedQuery>)>,
    /// Post-verdict flip / promotion pushes on the FIFO WAN push link.
    flips: Lane<FlipAction>,
    checkpoint_armed: bool,
    checkpoints: u64,
    verdict: Option<(Verdict, [crate::verdict::ArmStats; 2])>,
    verdict_us: u64,
    /// Losing-cohort user → replica slot into `swap_times`.
    losing_slot: HashMap<usize, usize>,
    /// Flip landing time per losing-cohort slot.
    swap_times: Vec<u64>,
    /// Expected post-flip model per losing-cohort user.
    expected: HashMap<usize, SequenceModel>,
    /// `(dispatched_us, slot, served-the-losing-rung)` per losing-cohort
    /// response after the verdict — the shared staleness log shape.
    flip_log: Vec<(u64, usize, bool)>,
    attack_records: Vec<AttackRecord>,
    swaps: Vec<SwapRecord>,
    error: Option<UpdateError>,
}

impl AbxFlow<'_> {
    /// Keeps exactly one checkpoint timer armed until the decision.
    fn ensure_checkpoint(&mut self, sim: &mut SimControl) {
        if !self.checkpoint_armed && self.verdict.is_none() {
            sim.set_timer(sim.now() + CHECKPOINT_INTERVAL_US, CHECKPOINT_KEY);
            self.checkpoint_armed = true;
        }
    }

    /// The job carrying an adversary's next query batch up its uplink,
    /// if it has one.
    fn next_uplink(&mut self, slot: usize, release_us: u64) -> Option<JobSpec> {
        let batch = self.attacks[slot].adversary.next_queries();
        (!batch.is_empty()).then(|| {
            let bytes = QUERY_BYTES * batch.len() as u64;
            self.uplinks.job(release_us, bytes, (slot, batch))
        })
    }

    /// Drains an adversary's next batch onto its uplink, or records its
    /// finished evaluation.
    fn pump_attack(&mut self, slot: usize, sim: &mut SimControl) {
        if self.attacks[slot].done {
            return;
        }
        if let Some(job) = self.next_uplink(slot, sim.now()) {
            sim.submit(job);
            return;
        }
        if self.attacks[slot].adversary.is_done() {
            let state = &mut self.attacks[slot];
            state.done = true;
            let eval = state.adversary.evaluation();
            let audit_k = self.config.pipeline.audit.audit_k;
            let accuracy = eval.accuracy(audit_k);
            let baseline = state.adversary.baseline(audit_k);
            let wire = state.adversary.queries_sent() as u64;
            self.engine.record_attack(state.arm, accuracy, baseline, wire);
            self.attack_records.push(AttackRecord {
                user_id: state.user_id,
                arm: state.arm,
                accuracy,
                baseline,
                wire_queries: wire,
                logical_queries: eval.queries,
                done_us: sim.now(),
            });
        }
    }

    /// An uplink batch sent at `sent_us` reached the front door: inject
    /// every query into the scheduler at the current virtual instant.
    fn uplink_arrived(
        &mut self,
        (slot, batch): (usize, Vec<ServedQuery>),
        sent_us: u64,
        sim: &mut SimControl,
    ) {
        let user_id = self.attacks[slot].user_id;
        for q in batch {
            let rid = self.next_rid;
            self.next_rid += 1;
            self.rid_map.insert(rid, (slot, q.id));
            self.serve.inject(Request { id: rid, user_id, arrival_us: sent_us, xs: q.xs }, sim);
        }
    }

    /// A batch's compute finished (queue split back-filled): feed the
    /// verdict accumulators, route served answers to their adversaries,
    /// and — after the verdict — keep the losing cohort's staleness log.
    fn scan_batch(&mut self, index: usize, sim: &mut SimControl) {
        let batch = self.serve.batches()[index].clone();
        let completions = self.serve.completions()[index].clone();
        let mut touched: Vec<usize> = Vec::new();
        for c in &completions {
            let latency_us = c.finish_us().saturating_sub(self.serve.sent_us(c.request_id));
            if let Some(arm @ (Arm::A | Arm::B)) = self.split.arm_of(c.user_id) {
                self.engine.observe_completion(arm, c.queue_us, c.service_us, latency_us);
            }
            if let Some(&(slot, query_id)) = self.rid_map.get(&c.request_id) {
                self.attacks[slot].adversary.absorb(ServedAnswer {
                    id: query_id,
                    probs: truncate_top_k(&c.probs, RESPONSE_TOP_K),
                });
                touched.push(slot);
            }
            if let Some(&slot) = self.losing_slot.get(&c.user_id) {
                // The batch bound its models at seal time, so the probs
                // are stale exactly when the batch dispatched before the
                // flip landed — logged under the shared
                // `count_degraded_after_swap` definition.
                let expected = &self.expected[&c.user_id];
                let xs = &batch
                    .requests
                    .iter()
                    .find(|r| r.id == c.request_id)
                    .expect("completions come from their own batch")
                    .xs;
                let degraded = expected.predict_proba(xs) != c.probs;
                self.flip_log.push((batch.dispatched_us, slot, degraded));
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for slot in touched {
            self.pump_attack(slot, sim);
        }
    }

    /// The checkpoint fired: decide once every attack is home, else
    /// re-arm.
    fn checkpoint(&mut self, sim: &mut SimControl) {
        self.checkpoint_armed = false;
        self.checkpoints += 1;
        if self.verdict.is_some() || self.error.is_some() {
            return;
        }
        if self.attacks.iter().all(|a| a.done) {
            self.decide(sim);
        } else {
            self.ensure_checkpoint(sim);
        }
    }

    /// Freezes the verdict and — on a promotion — launches one flip /
    /// promotion push per affected user while queries keep flowing.
    fn decide(&mut self, sim: &mut SimControl) {
        let now = sim.now();
        let (verdict, stats) = self.engine.decide();
        self.verdict_us = now;
        if let Some(winner) = verdict.winner() {
            let rung = self.config.arms[winner.index()];
            for &user_id in self.split.arm(winner.other()) {
                let p = &self.publications[self.pub_index[&user_id]];
                let slot = self.swap_times.len();
                self.losing_slot.insert(user_id, slot);
                self.swap_times.push(0);
                self.expected.insert(user_id, defended(&p.base, rung));
                let shadow_version =
                    p.shadow_version.expect("treatment users carry a shadow version");
                let flip = FlipAction::FlipBack { user_id, slot, shadow_version };
                self.flips.submit(p.envelope_bytes, flip, sim);
            }
            for &user_id in &self.split.holdout {
                let p = &self.publications[self.pub_index[&user_id]];
                let envelope = ModelEnvelope::encode(&defended(&p.base, rung));
                let bytes = envelope.len() as u64;
                self.flips.submit(bytes, FlipAction::Promote { user_id, envelope }, sim);
            }
        }
        self.verdict = Some((verdict, stats));
    }

    /// A flip push landed: execute the swap through the registry's
    /// durable path and stamp the landing time.
    fn flip_landed(&mut self, action: FlipAction, landed_us: u64) {
        if self.error.is_some() {
            return;
        }
        match action {
            FlipAction::FlipBack { user_id, slot, shadow_version } => {
                match self.registry.rollback(user_id, shadow_version) {
                    Ok(version) => {
                        self.swap_times[slot] = landed_us;
                        self.swaps.push(SwapRecord {
                            user_id,
                            kind: SwapKind::FlipBack,
                            landed_us,
                            version,
                        });
                    }
                    Err(e) => self.error = Some(e),
                }
            }
            FlipAction::Promote { user_id, envelope } => {
                match self.registry.try_enroll_envelope(user_id, envelope) {
                    Ok(version) => self.swaps.push(SwapRecord {
                        user_id,
                        kind: SwapKind::Promotion,
                        landed_us,
                        version,
                    }),
                    Err(e) => self.error = Some(e.into()),
                }
            }
        }
    }
}

impl Workload for AbxFlow<'_> {
    fn on_job_end(&mut self, job: &JobReport, sim: &mut SimControl) {
        self.ensure_checkpoint(sim);
        if let Some(serve_job) = ServeJob::of(job.id) {
            self.serve.on_job_end(job, sim);
            // A batch's queue/service split is final once the inner flow
            // processed its end.
            if let ServeJob::Batch(index) = serve_job {
                if self.error.is_none() {
                    self.scan_batch(index, sim);
                }
            }
        } else if let Some(uplink) = self.uplinks.take(job.id) {
            self.uplink_arrived(uplink, job.release_us, sim);
        } else {
            let flip = self.flips.take(job.id).expect("the loop's last job kind");
            self.flip_landed(flip, job.end_us);
        }
    }

    fn on_timer(&mut self, key: u64, sim: &mut SimControl) {
        if key == CHECKPOINT_KEY {
            self.checkpoint(sim);
        } else {
            self.serve.on_timer(key, sim);
        }
    }
}

/// Runs one closed-loop A/B experiment: split, per-arm publication,
/// background serving with front-door attacks, checkpoint verdict, and
/// the promote / flip-back rollout. See the module docs for the phases;
/// see [`AbxOutcome`] for what comes back.
///
/// # Errors
///
/// Codec / store / rollback failures surfaced from the loop.
///
/// # Panics
///
/// Panics on invalid configuration (zero `max_batch`, a
/// gradient-descent audit method — the served interface exposes no
/// gradients — or a predicted audit prior, which is built from a model
/// in hand) and if the cohort split fails its disjointness check.
pub fn run_abx(
    dataset: &MobilityDataset,
    users: Range<usize>,
    registry: &ShardedRegistry,
    general: &SequenceModel,
    config: &AbxConfig,
) -> Result<AbxOutcome, UpdateError> {
    let space = &dataset.space;
    let live_config = LiveConfig {
        pipeline: config.pipeline.clone(),
        serve: config.serve,
        us_per_minute: US_PER_MINUTE,
        bootstrap_minutes: BOOTSTRAP_MINUTES,
        horizon_minutes: HORIZON_MINUTES,
        ..LiveConfig::default()
    };

    // Phase 1: split the enrollable users and hard-check the partition —
    // a broken split silently corrupts every downstream number.
    let jobs = bootstrap_jobs(dataset, users.clone(), &live_config);
    let enrolled: Vec<usize> = jobs.iter().map(|j| j.user_id).collect();
    let splitter = CohortSplitter::new(SPLIT_SEED, FRACTIONS.0, FRACTIONS.1);
    let split = splitter.split(enrolled.iter().copied());
    split.assert_partitions(enrolled.iter().copied());

    // Phase 2: train once, publish shadow-then-active per cohort.
    let trainer = FleetTrainer::new(config.pipeline.clone());
    let publications = publish_arms(&trainer, general, &jobs, &split, config.arms, registry)?;
    let pub_index: HashMap<usize, usize> =
        publications.iter().enumerate().map(|(i, p)| (p.user_id, i)).collect();

    // Phase 3: front-door adversaries over the lowest user ids of each
    // treatment cohort, red-teamed with the audit gate's recipe.
    let audit = &config.pipeline.audit;
    let mut attacks: Vec<AttackState> = Vec::new();
    for arm in [Arm::A, Arm::B] {
        for &user_id in split.arm(arm).iter().take(config.attacked_per_arm) {
            let subject = &jobs[enrolled
                .binary_search(&user_id)
                .unwrap_or_else(|_| panic!("attacked user {user_id} is enrolled"))]
            .subject;
            let adversary = ServedAdversary::new(*space, audit, subject);
            attacks.push(AttackState { user_id, arm, adversary, done: false });
        }
    }

    // Phase 4: the background stream through the serving harness, plus
    // one fair WAN uplink for adversary queries and one FIFO WAN push
    // lane for post-verdict flips.
    let stream = live_stream(dataset, users, &live_config);
    let ServeHarness { mut links, jobs: mut sim_jobs, flow: serve } =
        serve_harness(registry, &stream.requests, &config.serve);
    let uplinks = Lane::new(KIND_ATTACK, "abx-uplink", links.len());
    links.push(LinkSpec::fair(LinkProfile::wan()));
    let flips = Lane::new(KIND_FLIP, "flip-push", links.len());
    links.push(LinkSpec::fifo(LinkProfile::wan()));

    let mut flow = AbxFlow {
        serve,
        registry,
        split: &split,
        publications: &publications,
        pub_index,
        config,
        attacks,
        engine: VerdictEngine::new(
            VerdictConfig {
                audit_k: audit.audit_k,
                null_margin: config.null_margin,
                latency_margin_us: LATENCY_MARGIN_US,
            },
            [split.a.len(), split.b.len()],
        ),
        rid_map: HashMap::new(),
        next_rid: stream.requests.len(),
        uplinks,
        flips,
        checkpoint_armed: false,
        checkpoints: 0,
        verdict: None,
        verdict_us: 0,
        losing_slot: HashMap::new(),
        swap_times: Vec::new(),
        expected: HashMap::new(),
        flip_log: Vec::new(),
        attack_records: Vec::new(),
        swaps: Vec::new(),
        error: None,
    };

    // Each adversary's opening probe batch rides an uplink job released
    // at time zero, alongside the background arrivals.
    sim_jobs.extend((0..flow.attacks.len()).filter_map(|slot| flow.next_uplink(slot, 0)));

    let sim = Simulator::builder().links(links).build().run(&sim_jobs, &mut flow);
    if let Some(e) = flow.error {
        return Err(e);
    }
    assert!(
        flow.attacks.iter().all(|a| a.done),
        "every front-door attack drains before the event heap does"
    );
    // A heap with no events at all (empty stream, zero attacks) never
    // fires the checkpoint; decide on the drained clock instead.
    let (verdict, arm_stats) = flow.verdict.unwrap_or_else(|| flow.engine.decide());
    let serve_outcome = flow.serve.into_outcome(sim)?;

    let flip_window = (!flow.swap_times.is_empty())
        .then(|| StalenessWindow::measure(flow.verdict_us, &flow.swap_times));
    let exposed_responses = flow.flip_log.iter().filter(|(_, _, degraded)| *degraded).count();
    let degraded_after_swap = count_degraded_after_swap(&flow.flip_log, &flow.swap_times);

    Ok(AbxOutcome {
        split: split.clone(),
        publications: publications
            .iter()
            .map(|p| PublicationRecord {
                user_id: p.user_id,
                arm: p.arm,
                active_hash: p.active_hash,
                shadow_hash: p.shadow_hash,
                active_version: p.active_version,
                shadow_version: p.shadow_version,
                train_simulated_us: p.train_simulated_us,
            })
            .collect(),
        attacks: flow.attack_records,
        verdict,
        arms: arm_stats,
        verdict_us: flow.verdict_us,
        checkpoints: flow.checkpoints,
        swaps: flow.swaps,
        flip_window,
        exposed_responses,
        degraded_after_swap,
        serve: serve_outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelican::{PersonalizationConfig, PAPER_DEFENSE};
    use pelican_mobility::{CampusConfig, DatasetBuilder, Scale, SpatialLevel};
    use pelican_nn::TrainConfig;
    use pelican_serve::{RegistryConfig, SchedulerConfig};
    use pelican_train::AuditConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setting() -> (MobilityDataset, SequenceModel) {
        let dataset = DatasetBuilder::new(CampusConfig::for_scale(Scale::Tiny), 21)
            .build(SpatialLevel::Building);
        let mut rng = StdRng::seed_from_u64(21);
        let general = SequenceModel::general_lstm(
            dataset.space.dim(),
            12,
            dataset.n_locations(),
            0.1,
            &mut rng,
        );
        (dataset, general)
    }

    fn registry(general: &SequenceModel) -> ShardedRegistry {
        ShardedRegistry::new(
            general.clone(),
            RegistryConfig { shards: 2, ..RegistryConfig::default() },
        )
    }

    fn config(workers: usize) -> AbxConfig {
        AbxConfig {
            pipeline: PipelineConfig {
                workers,
                personalization: PersonalizationConfig {
                    train: TrainConfig { epochs: 1, ..TrainConfig::default() },
                    hidden_dim: 12,
                    ..PersonalizationConfig::default()
                },
                audit: AuditConfig { max_instances: 4, probe_count: 8, ..AuditConfig::default() },
                ..PipelineConfig::default()
            },
            serve: SimServeConfig {
                scheduler: SchedulerConfig { max_batch: 4, max_delay_us: 900 },
                ..SimServeConfig::default()
            },
            attacked_per_arm: 4,
            // Calibrated to separate tiny-scale cohort-composition noise
            // (A/A |Δ| ≈ 0.19 here) from the real None-vs-temperature
            // effect (|Δ| ≈ 0.31).
            null_margin: 0.25,
            ..AbxConfig::default()
        }
    }

    #[test]
    fn the_experiment_is_deterministic_and_never_serves_stale_after_a_flip() {
        let (dataset, general) = setting();
        let n = dataset.users.len();
        let run = |workers| {
            let registry = registry(&general);
            run_abx(&dataset, 0..n, &registry, &general, &config(workers)).unwrap()
        };
        let narrow = run(1);
        let wide = run(2);

        assert_eq!(
            narrow.fingerprint(),
            wide.fingerprint(),
            "pool width must not leak into the experiment"
        );
        narrow.split.assert_partitions(narrow.publications.iter().map(|p| p.user_id));
        assert_eq!(narrow.attacks.len(), 8, "four front-door attacks per arm");
        assert!(narrow.attacks.iter().all(|a| a.wire_queries > 0));
        assert_eq!(narrow.degraded_after_swap, 0, "no stale answer after a landed flip");
        match narrow.verdict.winner() {
            Some(winner) => {
                let loser_cohort = narrow.split.arm(winner.other()).len();
                assert_eq!(narrow.flip_backs(), loser_cohort);
                assert_eq!(narrow.promotions(), narrow.split.holdout.len());
                let window = narrow.flip_window.expect("promotions measure a window");
                assert!(window.detected_at_us == narrow.verdict_us);
            }
            None => {
                assert!(narrow.swaps.is_empty(), "a null verdict moves nobody");
                assert!(narrow.flip_window.is_none());
            }
        }
        // Both treatment arms served traffic.
        assert!(narrow.arms.iter().all(|arm| arm.served > 0));
        let render = narrow.render();
        assert!(render.contains("verdict"), "render mentions the verdict: {render}");
    }

    #[test]
    fn an_aa_run_reads_null_and_moves_nobody() {
        let (dataset, general) = setting();
        let n = dataset.users.len();
        let mut cfg = config(2);
        cfg.arms = [PAPER_DEFENSE; 2];
        let registry = registry(&general);
        let outcome = run_abx(&dataset, 0..n, &registry, &general, &cfg).unwrap();
        assert!(
            outcome.verdict.is_null(),
            "identical rungs must be indistinguishable: {}",
            outcome.verdict
        );
        assert!(outcome.swaps.is_empty());
        assert_eq!(outcome.exposed_responses, 0);
        // Identical rungs ⇒ each user's active and shadow envelopes are
        // byte-identical.
        for p in &outcome.publications {
            if let Some(shadow) = p.shadow_hash {
                assert_eq!(shadow, p.active_hash);
            }
        }
    }
}
