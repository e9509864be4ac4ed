//! Network/compute co-simulation of fleet training — one round or many,
//! with the network's outcomes optionally feeding back into what gets
//! trained.
//!
//! [`cosimulate_fleet`] runs R training rounds through the reactive
//! engine ([`pelican_sim::Simulator::run`]) on one event heap:
//!
//! * every device's round is a four-stage sim job — **download** the
//!   general envelope over the device's own (seeded, heterogeneous) link,
//!   **train** and **audit** for that round's exact simulated durations
//!   (from its deterministic [`TrainReport`]), then **upload** the
//!   published envelope over that link or queued on one *shared* cloud
//!   uplink ([`UplinkMode`]) — so downloads overlap other devices'
//!   training, uploads contend, stragglers straggle, and transfers can
//!   time out and retry with backoff;
//! * a device's round `r + 1` is **injected at the virtual instant its
//!   round `r` ended** — retries and contention reorder those arrivals,
//!   so publication order is a network outcome, not a list order;
//! * in [`LoopMode::Closed`], a round that timed out ends the device's
//!   participation: no publication, and its remaining rounds are simply
//!   absent from the timeline (and the trace);
//! * in [`LoopMode::Open`], failures are ignored — the finished run is
//!   replayed round after round, chained at the same instants — which
//!   makes the two modes **bit-identical whenever nothing fails** and
//!   divergent exactly when a timeout fires. The `cosim-report`
//!   experiment asserts both directions on every run.
//!
//! Pricing one *finished* round (what `net-report` does) is the
//! one-round case, where the two modes cannot differ. Across rounds the
//! open loop is wrong by construction: a device whose download timed out
//! never produced a model, yet its warm-start round is priced anyway.
//!
//! Because every per-round input is bit-identical across trainer-pool
//! widths (compute priced from what each job ran, per-user seeds, link
//! assignment from the fleet seed), the event trace, every
//! [`RoundRecord`] and the fingerprint are too: pool width is a
//! host-compute knob that must not change the simulated timeline.

use std::collections::HashMap;

use pelican_sim::{
    DeviceLink, Discipline, JobReport, JobSpec, JobStatus, LinkMix, LinkProfile, LinkSpec,
    SimControl, SimOutcome, Simulator, Stage, TransferPolicy, Workload,
};
use pelican_tensor::nearest_rank;

use crate::report::TrainReport;

/// Where publication uploads go.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UplinkMode {
    /// Each device uploads over its own link — the uncontended baseline.
    PerDevice,
    /// Every device queues its upload on one shared cloud-ingress link.
    Shared {
        /// Shape of the shared uplink.
        profile: LinkProfile,
        /// How contending uploads share it.
        discipline: Discipline,
    },
}

/// Network shape of a fleet-training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Per-device link assignment (wifi/WAN/cellular mix + stragglers).
    pub mix: LinkMix,
    /// Upload routing: per-device or shared-contended.
    pub uplink: UplinkMode,
    /// Timeout/retry policy of general-model downloads.
    pub download: TransferPolicy,
    /// Timeout/retry policy of publication uploads.
    pub upload: TransferPolicy,
    /// Fleet seed for link assignment.
    pub seed: u64,
}

impl Default for NetworkConfig {
    /// A campus mix uploading to one shared fair-share WAN uplink, no
    /// timeouts.
    fn default() -> Self {
        Self {
            mix: LinkMix::campus(),
            uplink: UplinkMode::Shared {
                profile: LinkProfile::wan(),
                discipline: Discipline::FairShare,
            },
            download: TransferPolicy::default(),
            upload: TransferPolicy::default(),
            seed: 0x11EE7,
        }
    }
}

/// Whether network outcomes feed back into the training timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopMode {
    /// Post-hoc pricing of a finished run: every device's every round
    /// replays, chained at whatever instant the previous round ended,
    /// success or failure.
    Open,
    /// Network outcomes feed back: a timed-out round ends the device's
    /// participation — it never trains that round, publishes nothing,
    /// and its remaining rounds are absent from the timeline.
    Closed,
}

/// One published envelope on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Publication {
    /// Virtual publish time (upload completed), µs.
    pub t_us: u64,
    /// The publishing user.
    pub user_id: usize,
    /// Training round (0-based).
    pub round: usize,
}

/// One device-round that actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundRecord {
    /// The device's user.
    pub user_id: usize,
    /// Training round (0-based).
    pub round: usize,
    /// Whether straggler injection degraded this device's link.
    pub straggler: bool,
    /// When the round entered the system (µs) — 0 for round 0, the
    /// previous round's end otherwise.
    pub release_us: u64,
    /// When the round completed or failed (µs).
    pub end_us: u64,
    /// Contention + retry/backoff delay across both transfers (µs). With
    /// the three components below it tiles a completed round's
    /// [`Self::span_us`] exactly.
    pub queue_us: u64,
    /// Uncontended transfer cost of download + upload (µs).
    pub transfer_us: u64,
    /// Simulated on-device training (µs).
    pub train_us: u64,
    /// Simulated privacy audit (µs).
    pub audit_us: u64,
    /// Transfer attempts spent (2 = no retries anywhere).
    pub attempts: u32,
    /// Whether the round completed (false: retries exhausted).
    pub completed: bool,
}

impl RoundRecord {
    /// Release → publication (or failure), end to end (µs).
    pub fn span_us(&self) -> u64 {
        self.end_us - self.release_us
    }
}

/// A finished co-simulation.
#[derive(Debug, Clone)]
pub struct CosimReport {
    /// Whether failures fed back.
    pub mode: LoopMode,
    /// Rounds requested.
    pub rounds: usize,
    /// Devices in the cohort.
    pub devices: usize,
    /// Every device-round that ran, in virtual submission order.
    pub records: Vec<RoundRecord>,
    /// Publications in virtual-time order — the order a registry would
    /// assign versions, reshuffled by retries and contention.
    pub publications: Vec<Publication>,
    /// The raw simulation (trace + per-job stage reports).
    pub sim: SimOutcome,
}

impl CosimReport {
    /// Determinism fingerprint of the event trace.
    pub fn fingerprint(&self) -> u64 {
        self.sim.fingerprint()
    }

    /// Rounds that failed (a transfer exhausted its attempts).
    pub fn timed_out(&self) -> usize {
        self.sim.timed_out()
    }

    /// Device-rounds that ran (closed loops run fewer after failures).
    pub fn scheduled(&self) -> usize {
        self.records.len()
    }

    /// Device-rounds that never ran because the device dropped out — the
    /// rounds a post-hoc replay would have priced anyway.
    pub fn skipped(&self) -> usize {
        self.devices * self.rounds - self.records.len()
    }

    /// Completed device-rounds in round `r`.
    pub fn completed_in_round(&self, round: usize) -> usize {
        self.records.iter().filter(|r| r.round == round && r.completed).count()
    }

    /// Straggler devices in the cohort (every device has a round 0).
    pub fn stragglers(&self) -> usize {
        self.records.iter().filter(|r| r.round == 0 && r.straggler).count()
    }

    /// Nearest-rank percentile of `field` — [`RoundRecord::span_us`] for
    /// the release→publish span, `|r| r.queue_us` for one component —
    /// over round `round`'s completed device-rounds (µs; 0 if none).
    pub fn round_percentile_us(
        &self,
        round: usize,
        field: impl Fn(&RoundRecord) -> u64,
        q: f64,
    ) -> u64 {
        self.percentile_us(|r| r.round == round, field, q)
    }

    /// p95 release→publish span of round `round`'s completed stragglers
    /// (µs; 0 if none).
    pub fn straggler_p95_us(&self, round: usize) -> u64 {
        self.percentile_us(|r| r.round == round && r.straggler, RoundRecord::span_us, 0.95)
    }

    fn percentile_us(
        &self,
        subset: impl Fn(&RoundRecord) -> bool,
        field: impl Fn(&RoundRecord) -> u64,
        q: f64,
    ) -> u64 {
        let mut values: Vec<u64> =
            self.records.iter().filter(|r| r.completed && subset(r)).map(field).collect();
        values.sort_unstable();
        nearest_rank(&values, q).unwrap_or(0)
    }

    /// Multi-line human-readable summary.
    pub fn render(&self) -> String {
        let ms = |us: u64| us as f64 / 1e3;
        let mut out = format!(
            "{:?} loop: {} devices ({} stragglers) x {} rounds -> {} scheduled, {} skipped, {} timed out; trace {:016x}\n",
            self.mode,
            self.devices,
            self.stragglers(),
            self.rounds,
            self.scheduled(),
            self.skipped(),
            self.timed_out(),
            self.fingerprint(),
        );
        type Field = fn(&RoundRecord) -> u64;
        let components: [(&str, Field); 4] = [
            ("queue", |r| r.queue_us),
            ("transfer", |r| r.transfer_us),
            ("train", |r| r.train_us),
            ("audit", |r| r.audit_us),
        ];
        for round in 0..self.rounds {
            out.push_str(&format!(
                "  round {round}: {} published, span p50 {:.1} ms  p95 {:.1} ms\n",
                self.completed_in_round(round),
                ms(self.round_percentile_us(round, RoundRecord::span_us, 0.50)),
                ms(self.round_percentile_us(round, RoundRecord::span_us, 0.95)),
            ));
            for (name, field) in components {
                out.push_str(&format!(
                    "    {name:<9} p50 {:.1} ms  p95 {:.1} ms\n",
                    ms(self.round_percentile_us(round, field, 0.50)),
                    ms(self.round_percentile_us(round, field, 0.95)),
                ));
            }
        }
        out
    }
}

/// Round index rides in the job id's high bits so round 0 ids are plain
/// user ids — a one-round trace names its jobs by user alone.
const ROUND_SHIFT: u32 = 48;

fn job_id(round: usize, user_id: usize) -> u64 {
    ((round as u64) << ROUND_SHIFT) | user_id as u64
}

/// Runs `rounds.len()` training rounds through the reactive engine.
///
/// `rounds[r]` supplies round `r`'s deterministic per-device inputs
/// (simulated train/audit durations, upload sizes); every report must
/// cover the same users in the same order. Round 0 releases every device
/// at t = 0; each later round releases per device when its previous
/// round ends. See [`LoopMode`] for what failures do.
///
/// # Panics
///
/// Panics if `rounds` is empty, the reports disagree on the cohort, or a
/// user id overflows the 48-bit job-id namespace.
pub fn cosimulate_fleet(
    rounds: &[&TrainReport],
    general_bytes: u64,
    config: &NetworkConfig,
    mode: LoopMode,
) -> CosimReport {
    assert!(!rounds.is_empty(), "co-simulation needs at least one round");
    for round in &rounds[1..] {
        assert!(
            round
                .outcomes
                .iter()
                .map(|o| o.user_id)
                .eq(rounds[0].outcomes.iter().map(|o| o.user_id)),
            "every round must cover the same cohort in the same order"
        );
    }
    let devices: Vec<DeviceLink> = rounds[0]
        .outcomes
        .iter()
        .map(|o| config.mix.assign(config.seed, o.user_id as u64))
        .collect();

    // Link table: the shared uplink (if any) is link 0; per-device FIFO
    // links follow.
    let mut links: Vec<LinkSpec> = Vec::with_capacity(devices.len() + 1);
    let shared_uplink = match config.uplink {
        UplinkMode::Shared { profile, discipline } => {
            links.push(LinkSpec { profile, discipline });
            true
        }
        UplinkMode::PerDevice => false,
    };
    let device_link_base = links.len();
    links.extend(devices.iter().map(|d| LinkSpec::fifo(d.profile)));

    let mut flow = CosimFlow {
        rounds,
        general_bytes,
        config,
        mode,
        devices: &devices,
        device_of: rounds[0]
            .outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| {
                assert!((o.user_id as u64) < 1 << ROUND_SHIFT, "user id overflows job-id space");
                (o.user_id, i)
            })
            .collect(),
        shared_uplink,
        device_link_base,
        records: Vec::new(),
        publications: Vec::new(),
    };
    let initial: Vec<JobSpec> =
        (0..devices.len()).map(|device| flow.spec_for(device, 0, 0)).collect();
    let sim = Simulator::builder().links(links).build().run(&initial, &mut flow);
    CosimReport {
        mode,
        rounds: rounds.len(),
        devices: devices.len(),
        records: flow.records,
        publications: flow.publications,
        sim,
    }
}

/// The training loop as a reactive workload.
struct CosimFlow<'a> {
    rounds: &'a [&'a TrainReport],
    general_bytes: u64,
    config: &'a NetworkConfig,
    mode: LoopMode,
    devices: &'a [DeviceLink],
    device_of: HashMap<usize, usize>,
    shared_uplink: bool,
    device_link_base: usize,
    records: Vec<RoundRecord>,
    publications: Vec<Publication>,
}

impl CosimFlow<'_> {
    /// The four-stage job of `device`'s round `round`, released at
    /// `release_us`: download the general envelope over the device's own
    /// link, train and audit for the round's exact simulated durations,
    /// upload the published envelope over the (possibly shared) uplink.
    fn spec_for(&self, device: usize, round: usize, release_us: u64) -> JobSpec {
        let outcome = &self.rounds[round].outcomes[device];
        let device_link = self.device_link_base + device;
        let uplink = if self.shared_uplink { 0 } else { device_link };
        JobSpec {
            id: job_id(round, outcome.user_id),
            release_us,
            stages: vec![
                Stage::Transfer {
                    label: "download",
                    link: device_link,
                    bytes: self.general_bytes,
                    policy: self.config.download,
                },
                Stage::Compute {
                    label: "train",
                    duration_us: outcome.train_simulated.as_micros() as u64,
                },
                Stage::Compute {
                    label: "audit",
                    duration_us: outcome.audit_simulated.as_micros() as u64,
                },
                Stage::Transfer {
                    label: "upload",
                    link: uplink,
                    bytes: outcome.envelope_bytes as u64,
                    policy: self.config.upload,
                },
            ],
        }
    }
}

impl Workload for CosimFlow<'_> {
    fn on_job_end(&mut self, job: &JobReport, sim: &mut SimControl) {
        let round = (job.id >> ROUND_SHIFT) as usize;
        let user_id = (job.id & ((1 << ROUND_SHIFT) - 1)) as usize;
        let device = self.device_of[&user_id];
        let completed = job.status == JobStatus::Completed;
        // Attempts count transfer stages only: compute stages always
        // report one attempt and would inflate the retry accounting.
        let (mut queue_us, mut transfer_us, mut attempts) = (0, 0, 0);
        let (mut train_us, mut audit_us) = (0, 0);
        for s in &job.stages {
            match s.label {
                "download" | "upload" => {
                    queue_us += s.wait_us();
                    transfer_us += s.ideal_us;
                    attempts += s.attempts;
                }
                "train" => train_us = s.span_us(),
                "audit" => audit_us = s.span_us(),
                _ => {}
            }
        }
        self.records.push(RoundRecord {
            user_id,
            round,
            straggler: self.devices[device].straggler,
            release_us: job.release_us,
            end_us: job.end_us,
            queue_us,
            transfer_us,
            train_us,
            audit_us,
            attempts,
            completed,
        });
        if completed {
            self.publications.push(Publication { t_us: job.end_us, user_id, round });
        }
        // Closed loop: a failed round ends the device's participation —
        // its later rounds never enter the timeline. Open loop replays
        // the finished run regardless.
        let proceed = match self.mode {
            LoopMode::Open => true,
            LoopMode::Closed => completed,
        };
        if proceed && round + 1 < self.rounds.len() {
            sim.submit(self.spec_for(device, round + 1, job.end_us));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{GateOutcome, GateVerdict};
    use crate::report::JobOutcome;
    use pelican::DefenseKind;
    use pelican_nn::FitReport;
    use pelican_sim::{RetryPolicy, StragglerConfig};
    use std::time::Duration;

    /// A synthetic round: deterministic per-device durations and upload
    /// sizes without paying for real training.
    fn synthetic_round(n: usize, salt: u64) -> TrainReport {
        let outcomes: Vec<JobOutcome> = (0..n)
            .map(|i| JobOutcome {
                user_id: 100 + i,
                version: i as u64 + 1,
                warm: salt > 0,
                gate: GateOutcome {
                    verdict: GateVerdict::Passed,
                    defense: DefenseKind::None,
                    rungs_climbed: 0,
                    initial_leakage: 0.1,
                    final_leakage: 0.1,
                    audits: 1,
                    queries: 10,
                    cached: 0,
                    cache_misses: 10,
                },
                fit: FitReport {
                    epoch_losses: vec![0.5],
                    steps: 4,
                    samples_per_epoch: 4,
                    flops: 0,
                },
                enroll_latency: Duration::from_millis(5),
                train_simulated: Duration::from_millis(4 + (i as u64 + salt) % 3),
                audit_simulated: Duration::from_millis(2),
                envelope_bytes: 60_000 + 1_000 * salt as usize,
            })
            .collect();
        TrainReport::new(2, outcomes, Duration::from_millis(40), 1_000)
    }

    fn straggling(fraction: f64, slowdown: f64) -> NetworkConfig {
        NetworkConfig {
            mix: LinkMix::all_wifi().with_stragglers(StragglerConfig { fraction, slowdown }),
            download: TransferPolicy { timeout_us: Some(40_000), retry: RetryPolicy::none() },
            seed: 3,
            ..NetworkConfig::default()
        }
    }

    /// One finished round priced on its own — what `net-report` runs.
    fn one_round(report: &TrainReport, config: &NetworkConfig) -> CosimReport {
        cosimulate_fleet(&[report], 80_000, config, LoopMode::Open)
    }

    #[test]
    fn components_partition_the_enroll_latency_exactly() {
        let fresh = synthetic_round(6, 0);
        let warm = synthetic_round(6, 1);
        let net =
            cosimulate_fleet(&[&fresh, &warm], 80_000, &NetworkConfig::default(), LoopMode::Open);
        assert_eq!(net.records.len(), 12);
        assert_eq!(net.timed_out(), 0);
        for r in &net.records {
            assert!(r.completed);
            assert_eq!(
                r.queue_us + r.transfer_us + r.train_us + r.audit_us,
                r.span_us(),
                "the four components tile the end-to-end latency"
            );
            assert_eq!(r.attempts, 2, "no timeouts ⇒ one attempt per transfer");
        }
    }

    #[test]
    fn shared_uplink_contention_raises_p95_strictly() {
        let report = synthetic_round(8, 0);
        let wifi_fleet = |uplink| NetworkConfig {
            mix: LinkMix::all_wifi(),
            uplink,
            seed: 5,
            ..NetworkConfig::default()
        };
        let baseline = one_round(&report, &wifi_fleet(UplinkMode::PerDevice));
        let contended = one_round(
            &report,
            &wifi_fleet(UplinkMode::Shared {
                profile: LinkProfile::wifi(),
                discipline: Discipline::Fifo,
            }),
        );
        // Same link class, so any increase is pure queueing — and with
        // every device releasing at t = 0, uploads must collide.
        let span_p95 = |net: &CosimReport| net.round_percentile_us(0, RoundRecord::span_us, 0.95);
        assert!(
            span_p95(&contended) > span_p95(&baseline),
            "contended {} µs must beat uncontended {} µs",
            span_p95(&contended),
            span_p95(&baseline)
        );
        assert!(contended.round_percentile_us(0, |r| r.queue_us, 0.95) > 0);
        assert_eq!(baseline.round_percentile_us(0, |r| r.queue_us, 0.95), 0);
        // Train/audit components are untouched by the network shape.
        for q in [0.5, 0.95] {
            assert_eq!(
                contended.round_percentile_us(0, |r| r.train_us, q),
                baseline.round_percentile_us(0, |r| r.train_us, q)
            );
            assert_eq!(
                contended.round_percentile_us(0, |r| r.audit_us, q),
                baseline.round_percentile_us(0, |r| r.audit_us, q)
            );
        }
    }

    #[test]
    fn the_simulated_timeline_is_independent_of_pool_width() {
        // Two reports that differ only in schedule-dependent fields
        // (worker count, host wall clock, versions) must run to
        // bit-identical traces and records.
        let a = synthetic_round(5, 0);
        let mut outcomes = a.outcomes.clone();
        for o in &mut outcomes {
            o.version += 7; // publication order differs across widths
            o.enroll_latency = Duration::from_millis(99); // host time differs
        }
        let b = TrainReport::new(8, outcomes, Duration::from_millis(123), 1_000);
        let config = NetworkConfig::default();
        let net_a = one_round(&a, &config);
        let net_b = one_round(&b, &config);
        assert_eq!(net_a.fingerprint(), net_b.fingerprint());
        assert_eq!(net_a.sim.trace, net_b.sim.trace);
        assert_eq!(net_a.records, net_b.records);
    }

    #[test]
    fn stragglers_are_marked_and_slower() {
        let report = synthetic_round(24, 0);
        let config = NetworkConfig {
            uplink: UplinkMode::PerDevice,
            download: TransferPolicy::default(),
            ..straggling(0.3, 20.0)
        };
        let net = one_round(&report, &config);
        let stragglers = net.stragglers();
        assert!(stragglers > 0, "30% injection over 24 devices");
        assert!(stragglers < 24);
        let worst_normal =
            net.records.iter().filter(|r| !r.straggler).map(RoundRecord::span_us).max().unwrap();
        for r in net.records.iter().filter(|r| r.straggler) {
            assert!(
                r.span_us() > worst_normal,
                "a 20x straggler ({} µs) must trail every normal device ({} µs)",
                r.span_us(),
                worst_normal
            );
        }
        assert!(net.straggler_p95_us(0) > worst_normal);
    }

    #[test]
    fn tight_timeouts_without_retries_fail_stragglers() {
        let report = synthetic_round(16, 0);
        // Downloads must finish within 40 ms: fine on wifi (~72 kB in
        // ~14 ms), hopeless at 50x slowdown.
        let config = NetworkConfig { uplink: UplinkMode::PerDevice, ..straggling(0.25, 50.0) };
        let net = one_round(&report, &config);
        assert_eq!(net.timed_out(), net.stragglers(), "exactly the stragglers fail");
        assert!(net.timed_out() > 0);
        let completed = net.records.iter().filter(|r| r.completed).count();
        assert_eq!(completed + net.timed_out(), 16);
        assert!(!net.render().is_empty());
    }

    #[test]
    fn open_and_closed_loops_are_bit_identical_without_failures() {
        let fresh = synthetic_round(6, 0);
        let warm = synthetic_round(6, 1);
        let rounds = [&fresh, &warm];
        let config = NetworkConfig::default();
        let open = cosimulate_fleet(&rounds, 80_000, &config, LoopMode::Open);
        let closed = cosimulate_fleet(&rounds, 80_000, &config, LoopMode::Closed);
        assert_eq!(open.timed_out(), 0);
        assert_eq!(open.sim.trace, closed.sim.trace, "no failures ⇒ nothing to feed back");
        assert_eq!(open.fingerprint(), closed.fingerprint());
        assert_eq!(open.records, closed.records);
        assert_eq!(open.publications, closed.publications);
        assert_eq!(closed.scheduled(), 12);
        assert_eq!(closed.skipped(), 0);
    }

    #[test]
    fn closed_loop_drops_a_timed_out_devices_remaining_rounds() {
        let fresh = synthetic_round(12, 0);
        let warm = synthetic_round(12, 1);
        let rounds = [&fresh, &warm];
        // 40 ms downloads are hopeless at a 50x slowdown, fine on wifi.
        let config = straggling(0.25, 50.0);
        let open = cosimulate_fleet(&rounds, 80_000, &config, LoopMode::Open);
        let closed = cosimulate_fleet(&rounds, 80_000, &config, LoopMode::Closed);
        assert!(closed.timed_out() > 0, "stragglers must fail their downloads");
        assert_ne!(open.fingerprint(), closed.fingerprint(), "failures must diverge the loops");
        assert!(closed.skipped() > 0);
        assert_eq!(open.skipped(), 0, "the open loop prices every round regardless");
        // The failed device's warm round exists only in the open loop.
        let failed_round0: Vec<usize> = closed
            .records
            .iter()
            .filter(|r| r.round == 0 && !r.completed)
            .map(|r| r.user_id)
            .collect();
        assert!(!failed_round0.is_empty());
        for user in failed_round0 {
            assert!(
                !closed.records.iter().any(|r| r.user_id == user && r.round == 1),
                "closed loop: user {user}'s round 1 must be absent"
            );
            assert!(
                open.records.iter().any(|r| r.user_id == user && r.round == 1),
                "open loop: user {user}'s round 1 must still be priced"
            );
        }
        // Traces agree on that absence too, via the round-tagged job ids.
        let closed_round1_jobs = closed.sim.jobs().filter(|j| j.id() >> ROUND_SHIFT == 1).count();
        assert_eq!(closed_round1_jobs, 12 - closed.timed_out_round0());
    }

    #[test]
    fn retries_reorder_warm_start_arrivals() {
        let fresh = synthetic_round(10, 0);
        let warm = synthetic_round(10, 1);
        let rounds = [&fresh, &warm];
        // Ten uploads collide on one shared FIFO uplink with a timeout
        // tight enough that queued attempts expire and retry with
        // backoff. The contention is transient, so every retry
        // eventually lands — but the backoff lottery decides who
        // publishes (and therefore warm-starts) first.
        let config = NetworkConfig {
            mix: LinkMix::all_wifi()
                .with_stragglers(StragglerConfig { fraction: 0.3, slowdown: 2.0 }),
            uplink: UplinkMode::Shared {
                profile: LinkProfile::wifi(),
                discipline: Discipline::Fifo,
            },
            upload: TransferPolicy {
                timeout_us: Some(30_000),
                retry: RetryPolicy::exponential(12, 10_000, 1.5),
            },
            seed: 3,
            ..NetworkConfig::default()
        };
        let closed = cosimulate_fleet(&rounds, 80_000, &config, LoopMode::Closed);
        assert_eq!(closed.timed_out(), 0, "transient contention ⇒ retries eventually succeed");
        let retries: u32 =
            closed.records.iter().map(|r| r.attempts).sum::<u32>() - 2 * closed.scheduled() as u32;
        assert!(retries > 0, "queued uploads must have timed out and retried");
        // Some round publishes out of device order.
        let rank: HashMap<usize, usize> =
            fresh.outcomes.iter().enumerate().map(|(i, o)| (o.user_id, i)).collect();
        let reordered = (0..closed.rounds).any(|round| {
            let ranks: Vec<usize> = closed
                .publications
                .iter()
                .filter(|p| p.round == round)
                .map(|p| rank[&p.user_id])
                .collect();
            ranks.windows(2).any(|w| w[0] > w[1])
        });
        assert!(reordered, "retries must reorder publication order");
        assert_eq!(closed.publications.len(), 20);
        // Publications are in virtual-time order.
        for w in closed.publications.windows(2) {
            assert!(w[0].t_us <= w[1].t_us);
        }
    }

    #[test]
    fn cosimulation_is_deterministic() {
        let fresh = synthetic_round(8, 0);
        let warm = synthetic_round(8, 1);
        let rounds = [&fresh, &warm];
        let config = straggling(0.25, 50.0);
        let a = cosimulate_fleet(&rounds, 80_000, &config, LoopMode::Closed);
        let b = cosimulate_fleet(&rounds, 80_000, &config, LoopMode::Closed);
        assert_eq!(a.sim.trace, b.sim.trace);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.records, b.records);
        assert!(!a.render().is_empty());
    }

    impl CosimReport {
        /// Round-0 failures (test helper).
        fn timed_out_round0(&self) -> usize {
            self.records.iter().filter(|r| r.round == 0 && !r.completed).count()
        }
    }
}
