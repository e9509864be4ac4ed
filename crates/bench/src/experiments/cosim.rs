//! Closed-loop co-simulation experiment (`cosim-report`): the open-loop
//! replay and the closed-loop co-simulation of the same two-round
//! training run, plus the sim-driven serving scheduler, all on one
//! virtual clock.
//!
//! Four contracts are asserted on every run, not just in tests:
//!
//! * **Agreement** — on a configuration with zero timeouts, the open and
//!   closed loops produce bit-identical event traces: with nothing to
//!   feed back, co-simulation *is* replay.
//! * **Divergence** — on a configuration that injects download timeouts,
//!   the loops diverge, and exactly as the closed loop says they should:
//!   the timed-out device's next round is absent from the closed-loop
//!   timeline while the open-loop replay still prices it.
//! * **Width invariance** — the closed-loop trace fingerprint is
//!   identical whether the underlying rounds were trained by a 1-, 2- or
//!   8-worker pool.
//! * **Scheduler reactivity** — the sim-driven batch scheduler produces
//!   *different* compositions once uplink jitter shifts ingress times.

use pelican::workbench::Scenario;
use pelican_mobility::Scale;
use pelican_nn::{ModelEnvelope, SequenceModel};
use pelican_serve::{
    simulate_serving, CloudNetwork, RegistryConfig, Request, SchedulerConfig, ShardedRegistry,
    SimServeConfig, SimServeOutcome, TrafficConfig, TrafficGenerator,
};
use pelican_sim::{LinkMix, LinkProfile, RetryPolicy, StragglerConfig, TransferPolicy};
use pelican_train::{
    cosimulate_fleet, CosimReport, FleetTrainer, LoopMode, NetworkConfig, RoundRecord, TrainJob,
    TrainReport, UplinkMode,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Table;
use crate::RunConfig;

/// Everything `cosim-report` produces.
#[derive(Debug, Clone)]
pub struct CosimRun {
    /// General-envelope download size (bytes).
    pub general_bytes: u64,
    /// Open-loop replay on the clean (no-timeout) network.
    pub clean_open: CosimReport,
    /// Closed-loop co-simulation on the clean network (bit-identical to
    /// the open loop, asserted).
    pub clean_closed: CosimReport,
    /// Open-loop replay on the failure-injecting network.
    pub failed_open: CosimReport,
    /// Closed-loop co-simulation on the failure-injecting network
    /// (diverges from the open loop, asserted).
    pub failed_closed: CosimReport,
    /// `(workers, closed-loop fingerprint)` per trainer-pool width — all
    /// fingerprints equal, asserted.
    pub width_fingerprints: Vec<(usize, u64)>,
    /// Sim-driven scheduler without a network.
    pub serve_quiet: SimServeOutcome,
    /// Sim-driven scheduler under uplink jitter (compositions differ
    /// from quiet, asserted).
    pub serve_jitter: SimServeOutcome,
}

/// Trains the two rounds (fresh, then warm-start from the published
/// envelopes) at the given pool width. Every deterministic field of both
/// reports is bit-identical across widths — the property the width
/// sweep leans on.
fn rounds_at(
    scenario: &Scenario,
    jobs: &[TrainJob],
    config: &RunConfig,
    workers: usize,
) -> (TrainReport, TrainReport) {
    let registry = ShardedRegistry::new(scenario.general.clone(), RegistryConfig::default());
    let trainer = FleetTrainer::new(super::fleet_pipeline(config, workers));
    let fresh = trainer.run(&scenario.general, &scenario.dataset.space, jobs, &registry);
    let warm_jobs: Vec<TrainJob> = jobs
        .iter()
        .map(|j| {
            let model = registry.get(j.user_id).expect("published envelopes decode").0;
            j.clone().into_warm(ModelEnvelope::encode(&model))
        })
        .collect();
    let warm = trainer.run(&scenario.general, &scenario.dataset.space, &warm_jobs, &registry);
    (fresh, warm)
}

/// The failure-injecting network: half the fleet straggles at 50x, and
/// the download timeout sits at twice the healthy wifi transfer time —
/// guaranteed fatal for a straggler (its propagation latency alone
/// exceeds it), guaranteed harmless for everyone else. The fleet seed is
/// scanned (deterministically) until the dealt fleet contains both kinds.
fn failing_network(config: &RunConfig, jobs: &[TrainJob], general_bytes: u64) -> NetworkConfig {
    let mix =
        LinkMix::all_wifi().with_stragglers(StragglerConfig { fraction: 0.5, slowdown: 50.0 });
    let seed = (0u64..)
        .map(|k| config.seed ^ 0xFA11 ^ (k << 8))
        .find(|&s| {
            let dealt: Vec<bool> =
                jobs.iter().map(|j| mix.assign(s, j.user_id as u64).straggler).collect();
            dealt.iter().any(|&x| x) && dealt.iter().any(|&x| !x)
        })
        .expect("some seed deals a mixed fleet");
    NetworkConfig {
        mix,
        uplink: UplinkMode::PerDevice,
        download: TransferPolicy {
            timeout_us: Some(LinkProfile::wifi().transfer_us(general_bytes) * 2),
            retry: RetryPolicy::none(),
        },
        seed,
        ..NetworkConfig::default()
    }
}

/// Scheduler leg: a synthetic registry under seeded traffic, scheduled
/// without a network and under heavy uplink jitter.
fn serve_side(config: &RunConfig) -> (SimServeOutcome, SimServeOutcome) {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5E12);
    let general = SequenceModel::single_lstm(6, 8, 4, 0.0, &mut rng);
    let registry = ShardedRegistry::new(general, RegistryConfig { shards: 4, hot_capacity: 8 });
    for uid in 0..12 {
        let personalized = SequenceModel::single_lstm(6, 8, 4, 0.0, &mut rng);
        registry.enroll(uid, &personalized);
    }
    let requests: usize = match config.scale {
        Scale::Tiny => 400,
        Scale::Small => 2_000,
        Scale::Paper => 10_000,
    };
    let traffic =
        TrafficConfig { requests, users: 12, seed: config.seed, ..TrafficConfig::default() };
    let requests: Vec<Request> = TrafficGenerator::new(traffic)
        .enumerate()
        .map(|(id, arrival)| Request {
            id,
            user_id: arrival.user_index,
            arrival_us: arrival.at_us,
            xs: vec![vec![0.1; 6]; 3],
        })
        .collect();
    let scheduler = SchedulerConfig { max_batch: 8, max_delay_us: 1_733 };
    let sim_config = |network| SimServeConfig {
        scheduler,
        tier: pelican::platform::ComputeTier::Cloud,
        network,
    };
    let quiet = simulate_serving(&registry, &requests, &sim_config(None))
        .expect("registry envelopes decode");
    let jitter = CloudNetwork {
        mix: LinkMix::cellular_heavy()
            .with_stragglers(StragglerConfig { fraction: 0.3, slowdown: 6.0 }),
        seed: config.seed ^ 0x1177,
        ..CloudNetwork::default()
    };
    let shaken = simulate_serving(&registry, &requests, &sim_config(Some(jitter)))
        .expect("registry envelopes decode");
    assert_ne!(
        quiet.compositions(),
        shaken.compositions(),
        "uplink jitter must change the batch compositions"
    );
    (quiet, shaken)
}

/// Runs the experiment: trains a two-round cohort at three pool widths,
/// co-simulates open vs. closed on clean and failure-injecting networks,
/// and drives the sim-driven scheduler with and without jitter.
///
/// # Panics
///
/// Panics if any of the four contracts in the module docs fails.
pub fn run(config: &RunConfig) -> CosimRun {
    let (scenario, jobs) = super::fleet_cohort(config);
    let general_bytes = ModelEnvelope::encode(&scenario.general).len() as u64;

    let (fresh, warm) = rounds_at(&scenario, &jobs, config, 1);
    let rounds = [&fresh, &warm];

    // Contract 1: no failures ⇒ the loops are bit-identical.
    let clean = NetworkConfig { seed: config.seed ^ 0xC051, ..NetworkConfig::default() };
    let clean_open = cosimulate_fleet(&rounds, general_bytes, &clean, LoopMode::Open);
    let clean_closed = cosimulate_fleet(&rounds, general_bytes, &clean, LoopMode::Closed);
    assert_eq!(clean_open.timed_out(), 0, "the clean network must not time anything out");
    assert_eq!(
        clean_open.sim.trace, clean_closed.sim.trace,
        "zero timeouts ⇒ open and closed loops must be bit-identical"
    );
    assert_eq!(clean_open.fingerprint(), clean_closed.fingerprint());

    // Contract 2: injected timeouts ⇒ divergence, and the timed-out
    // device's warm round is absent from the closed loop only.
    let failing = failing_network(config, &jobs, general_bytes);
    let failed_open = cosimulate_fleet(&rounds, general_bytes, &failing, LoopMode::Open);
    let failed_closed = cosimulate_fleet(&rounds, general_bytes, &failing, LoopMode::Closed);
    assert!(failed_closed.timed_out() > 0, "the failing network must time out a straggler");
    assert_ne!(
        failed_open.fingerprint(),
        failed_closed.fingerprint(),
        "timeouts must diverge the closed loop from the open replay"
    );
    assert_eq!(failed_open.skipped(), 0, "the open loop prices every round regardless");
    assert!(failed_closed.skipped() > 0, "the closed loop must drop the failed device's round");
    for record in failed_closed.records.iter().filter(|r| !r.completed) {
        let user = record.user_id;
        assert!(
            !failed_closed.records.iter().any(|r| r.user_id == user && r.round > record.round),
            "closed loop: user {user} must have no rounds after its failure"
        );
        assert!(
            failed_open.records.iter().any(|r| r.user_id == user && r.round == record.round + 1),
            "open loop: user {user}'s next round must still be priced"
        );
    }

    // Contract 3: the closed-loop fingerprint ignores trainer-pool width.
    let width_fingerprints: Vec<(usize, u64)> = [1usize, 2, 8]
        .into_iter()
        .map(|workers| {
            let (f, w) = if workers == 1 {
                (fresh.clone(), warm.clone())
            } else {
                rounds_at(&scenario, &jobs, config, workers)
            };
            (
                workers,
                cosimulate_fleet(&[&f, &w], general_bytes, &failing, LoopMode::Closed)
                    .fingerprint(),
            )
        })
        .collect();
    for &(workers, fingerprint) in &width_fingerprints {
        assert_eq!(
            fingerprint,
            failed_closed.fingerprint(),
            "closed-loop fingerprint must be identical at {workers} workers"
        );
    }

    // Contract 4: scheduler reactivity (asserts inside).
    let (serve_quiet, serve_jitter) = serve_side(config);

    CosimRun {
        general_bytes,
        clean_open,
        clean_closed,
        failed_open,
        failed_closed,
        width_fingerprints,
        serve_quiet,
        serve_jitter,
    }
}

/// Open vs. closed table over both network conditions.
pub fn table(run: &CosimRun) -> Table {
    let mut t = Table::new(&[
        "network",
        "loop",
        "scheduled",
        "skipped",
        "timed-out",
        "r0-published",
        "r1-published",
        "r1-p95(ms)",
        "trace",
    ]);
    let rows: [(&str, &str, &CosimReport); 4] = [
        ("clean", "open", &run.clean_open),
        ("clean", "closed", &run.clean_closed),
        ("failing", "open", &run.failed_open),
        ("failing", "closed", &run.failed_closed),
    ];
    for (network, mode, report) in rows {
        t.row(&[
            network.to_string(),
            mode.to_string(),
            report.scheduled().to_string(),
            report.skipped().to_string(),
            report.timed_out().to_string(),
            report.completed_in_round(0).to_string(),
            report.completed_in_round(1).to_string(),
            format!(
                "{:.1}",
                report.round_percentile_us(1, RoundRecord::span_us, 0.95) as f64 / 1e3
            ),
            format!("{:016x}", report.fingerprint()),
        ]);
    }
    t
}

/// Width-invariance table: one row per trainer-pool width.
pub fn width_table(run: &CosimRun) -> Table {
    let mut t = Table::new(&["workers", "closed-loop trace"]);
    for &(workers, fingerprint) in &run.width_fingerprints {
        t.row(&[workers.to_string(), format!("{fingerprint:016x}")]);
    }
    t
}

/// Scheduler table: the sim-driven scheduler with and without uplink
/// jitter.
pub fn serve_table(run: &CosimRun) -> Table {
    let mut t = Table::new(&["network", "batches", "mean-batch", "queue-p95(us)", "dropped"]);
    for (name, outcome) in [("none", &run.serve_quiet), ("jittery", &run.serve_jitter)] {
        let served: usize = outcome.batches.iter().map(|b| b.requests.len()).sum();
        let mean = if outcome.batches.is_empty() {
            0.0
        } else {
            served as f64 / outcome.batches.len() as f64
        };
        let mut queues: Vec<u64> =
            outcome.completions.iter().flat_map(|cs| cs.iter().map(|c| c.queue_us)).collect();
        queues.sort_unstable();
        t.row(&[
            name.to_string(),
            outcome.batches.len().to_string(),
            format!("{mean:.2}"),
            pelican_tensor::nearest_rank(&queues, 0.95).unwrap_or(0).to_string(),
            outcome.dropped.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosim_report_runs_and_holds_its_contracts_at_tiny_scale() {
        // run() itself asserts agreement, divergence, width invariance
        // and scheduler reactivity — reaching the tables is the test.
        let config = RunConfig {
            scale: Scale::Tiny,
            users: Some(4),
            instances_per_user: 2,
            ..RunConfig::default()
        };
        let run = run(&config);
        assert!(run.general_bytes > 0);
        assert_eq!(run.width_fingerprints.len(), 3);
        let rendered = table(&run).render();
        assert!(rendered.contains("failing") && rendered.contains("closed"));
        assert!(width_table(&run).render().contains("8"));
        assert!(serve_table(&run).render().contains("jittery"));
    }
}
