//! Fleet-network experiment (`net-report`): one fleet-training run
//! priced as a one-round co-simulation (`cosimulate_fleet`) on the
//! `pelican-sim` virtual clock across a link-mix × retry-policy sweep,
//! plus the cloud-serving round-trip path.
//!
//! Three contracts are asserted on every run, not just in tests:
//!
//! * **Determinism** — the pipeline is run at two trainer-pool widths;
//!   both co-simulations must produce bit-identical event traces and
//!   latency breakdowns (per-job simulated compute is priced from what
//!   the job ran, so pool width is invisible to the network).
//! * **Contention** — a shared cloud uplink must yield strictly higher
//!   p95 enroll latency than the uncontended per-device baseline, with
//!   real queueing (non-zero p95 queue component).
//! * **Round trips** — a cloud-deployed query's p95 round trip exceeds
//!   on-device serving's p95, and nothing drops.

use pelican_mobility::SpatialLevel;
use pelican_nn::ModelEnvelope;
use pelican_serve::{
    run_fleet, CloudNetwork, FleetConfig, RegistryConfig, ShardedRegistry, SimServeConfig,
};
use pelican_sim::{Discipline, LinkMix, LinkProfile, RetryPolicy, StragglerConfig, TransferPolicy};
use pelican_train::{
    cosimulate_fleet, CosimReport, FleetTrainer, LoopMode, NetworkConfig, RoundRecord, TrainReport,
    UplinkMode,
};

use crate::report::Table;
use crate::RunConfig;

/// One sweep cell: a link mix × retry policy, simulated over the same
/// training run.
#[derive(Debug, Clone)]
pub struct NetOutcome {
    /// Link-mix row label.
    pub mix: &'static str,
    /// Retry-policy column label.
    pub retry: &'static str,
    /// The one-round co-simulation of the fleet on that network.
    pub report: CosimReport,
}

/// Everything `net-report` produces.
#[derive(Debug, Clone)]
pub struct NetworkRun {
    /// The training report the simulations price (width-1 reference).
    pub train: TrainReport,
    /// General-envelope download size (bytes).
    pub general_bytes: u64,
    /// The link-mix × retry-policy sweep.
    pub sweep: Vec<NetOutcome>,
    /// Uncontended per-device baseline (all-wifi).
    pub baseline: CosimReport,
    /// Same fleet on a shared FIFO wifi uplink.
    pub contended: CosimReport,
}

/// The sweep's link mixes. Stragglers ride along in every row so the
/// straggler column is meaningful.
fn mixes() -> Vec<(&'static str, LinkMix)> {
    let stragglers = StragglerConfig { fraction: 0.15, slowdown: 8.0 };
    vec![
        ("all-wifi", LinkMix::all_wifi().with_stragglers(stragglers)),
        ("campus", LinkMix::campus().with_stragglers(stragglers)),
        ("cellular", LinkMix::cellular_heavy().with_stragglers(stragglers)),
    ]
}

/// The sweep's retry policies, applied to *both* transfers of every
/// device. The `retry` column bounds each attempt to 500 ms with
/// exponential backoff — generous for a healthy link, hopeless for an
/// 8× straggler's download on cellular, so the timed-out column fills.
fn retries() -> Vec<(&'static str, TransferPolicy)> {
    vec![
        ("none", TransferPolicy::default()),
        (
            "timeout+backoff",
            TransferPolicy {
                timeout_us: Some(500_000),
                retry: RetryPolicy::exponential(3, 100_000, 2.0),
            },
        ),
    ]
}

/// Runs the experiment: trains one cohort (at two pool widths, asserting
/// network-level determinism), then sweeps link mixes × retry policies.
///
/// # Panics
///
/// Panics if the two pool widths produce different event traces or
/// latency breakdowns, or if the contended uplink fails to raise p95
/// strictly above the per-device baseline (the acceptance contract).
pub fn run(config: &RunConfig) -> NetworkRun {
    let (scenario, jobs) = super::fleet_cohort(config);
    let general_bytes = ModelEnvelope::encode(&scenario.general).len() as u64;

    let train_at = |workers: usize| {
        let registry = ShardedRegistry::new(scenario.general.clone(), RegistryConfig::default());
        FleetTrainer::new(super::fleet_pipeline(config, workers)).run(
            &scenario.general,
            &scenario.dataset.space,
            &jobs,
            &registry,
        )
    };

    // One finished round, so open vs. closed is moot.
    let simulate = |train: &TrainReport, net: &NetworkConfig| {
        cosimulate_fleet(&[train], general_bytes, net, LoopMode::Open)
    };

    // Acceptance contract 1: different trainer-pool widths run to
    // bit-identical traces and breakdowns.
    let train = train_at(1);
    let train_wide = train_at(2);
    let net_config = NetworkConfig { seed: config.seed ^ 0x11E7, ..NetworkConfig::default() };
    let narrow = simulate(&train, &net_config);
    let wide = simulate(&train_wide, &net_config);
    assert_eq!(
        narrow.sim.trace, wide.sim.trace,
        "1- and 2-worker runs must produce bit-identical event traces"
    );
    assert_eq!(narrow.fingerprint(), wide.fingerprint());
    assert_eq!(narrow.records, wide.records, "latency breakdowns must match across widths");

    // Acceptance contract 2: shared-uplink contention strictly raises
    // p95 over the uncontended per-device baseline (same link class, so
    // the difference is pure queueing).
    let wifi = |uplink| NetworkConfig {
        mix: LinkMix::all_wifi(),
        uplink,
        seed: config.seed ^ 0x11E7,
        ..NetworkConfig::default()
    };
    let baseline = simulate(&train, &wifi(UplinkMode::PerDevice));
    let contended = simulate(
        &train,
        &wifi(UplinkMode::Shared { profile: LinkProfile::wifi(), discipline: Discipline::Fifo }),
    );
    assert!(
        enroll_us(&contended, 0.95) > enroll_us(&baseline, 0.95),
        "shared uplink must strictly raise p95: {} vs {} µs",
        enroll_us(&contended, 0.95),
        enroll_us(&baseline, 0.95)
    );
    if jobs.len() >= 2 {
        assert!(
            contended.round_percentile_us(0, |r| r.queue_us, 0.95) > 0,
            "a shared uplink with simultaneous releases must queue"
        );
    }

    let sweep = mixes()
        .into_iter()
        .flat_map(|(mix_name, mix)| {
            retries()
                .into_iter()
                .map(move |(retry_name, policy)| (mix_name, mix, retry_name, policy))
        })
        .map(|(mix_name, mix, retry_name, policy)| {
            let cell = NetworkConfig {
                mix,
                download: policy,
                upload: policy,
                seed: config.seed ^ 0x11E7,
                ..NetworkConfig::default()
            };
            NetOutcome { mix: mix_name, retry: retry_name, report: simulate(&train, &cell) }
        })
        .collect();

    NetworkRun { train, general_bytes, sweep, baseline, contended }
}

/// Percentile of release → publication over the one round's completed
/// devices (µs).
fn enroll_us(report: &CosimReport, q: f64) -> u64 {
    report.round_percentile_us(0, RoundRecord::span_us, q)
}

/// Main sweep table: one row per link-mix × retry-policy cell.
pub fn table(run: &NetworkRun) -> Table {
    let mut t = Table::new(&[
        "mix",
        "retry",
        "p50(ms)",
        "p95(ms)",
        "queue-p95",
        "xfer-p95",
        "train-p95",
        "audit-p95",
        "stragglers",
        "strag-p95(ms)",
        "timed-out",
    ]);
    let ms = |us: u64| format!("{:.1}", us as f64 / 1e3);
    for cell in &run.sweep {
        let r = &cell.report;
        t.row(&[
            cell.mix.to_string(),
            cell.retry.to_string(),
            ms(enroll_us(r, 0.50)),
            ms(enroll_us(r, 0.95)),
            ms(r.round_percentile_us(0, |d| d.queue_us, 0.95)),
            ms(r.round_percentile_us(0, |d| d.transfer_us, 0.95)),
            ms(r.round_percentile_us(0, |d| d.train_us, 0.95)),
            ms(r.round_percentile_us(0, |d| d.audit_us, 0.95)),
            r.stragglers().to_string(),
            ms(r.straggler_p95_us(0)),
            r.timed_out().to_string(),
        ]);
    }
    t
}

/// Contention table: the uncontended baseline vs. the shared uplink.
pub fn contention_table(run: &NetworkRun) -> Table {
    let mut t = Table::new(&["uplink", "p50(ms)", "p95(ms)", "queue-p95(ms)", "trace"]);
    let ms = |us: u64| format!("{:.1}", us as f64 / 1e3);
    for (name, report) in [("per-device", &run.baseline), ("shared-fifo", &run.contended)] {
        t.row(&[
            name.to_string(),
            ms(enroll_us(report, 0.50)),
            ms(enroll_us(report, 0.95)),
            ms(report.round_percentile_us(0, |r| r.queue_us, 0.95)),
            format!("{:016x}", report.fingerprint()),
        ]);
    }
    t
}

/// Cloud-serving round trips: on-device vs. cloud-deployed (same
/// traffic, same registry shape).
///
/// # Panics
///
/// Panics if the cloud round trip's p95 does not exceed on-device
/// serving's, or if a query drops (no timeout is configured).
pub fn cloud_table(config: &RunConfig) -> Table {
    let scenario = super::scenario(config, SpatialLevel::Building);
    let fleet = |cloud| FleetConfig {
        traffic: pelican_serve::TrafficConfig {
            requests: 2_000,
            seed: config.seed,
            ..pelican_serve::TrafficConfig::default()
        },
        unenrolled_clients: scenario.personal.len().max(2),
        serve: SimServeConfig { network: cloud, ..SimServeConfig::default() },
        ..FleetConfig::default()
    };
    let on_device = run_fleet(&scenario, &fleet(None)).expect("envelopes decode");
    let cloud = run_fleet(
        &scenario,
        &fleet(Some(CloudNetwork { seed: config.seed ^ 0xC10D, ..CloudNetwork::default() })),
    )
    .expect("envelopes decode");

    let mut t = Table::new(&[
        "deployment",
        "p50(ms)",
        "p95(ms)",
        "p99(ms)",
        "uplink-wait-p95",
        "egress-wait-p95",
        "dropped",
    ]);
    let ms = |us: u64| format!("{:.2}", us as f64 / 1e3);
    t.row(&[
        "on-device".into(),
        ms(on_device.report.p50_us),
        ms(on_device.report.p95_us),
        ms(on_device.report.p99_us),
        "-".into(),
        "-".into(),
        "0".into(),
    ]);
    let rtt = cloud.network.expect("cloud path produces a round-trip summary");
    assert!(rtt.rtt_p95_us > on_device.report.p95_us, "a cloud round trip must pay the network");
    assert_eq!(rtt.dropped, 0, "no timeout is configured, so nothing drops");
    t.row(&[
        "cloud".into(),
        ms(rtt.rtt_p50_us),
        ms(rtt.rtt_p95_us),
        ms(rtt.rtt_p99_us),
        ms(rtt.uplink_wait_p95_us),
        ms(rtt.egress_wait_p95_us),
        rtt.dropped.to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelican_mobility::Scale;

    fn tiny() -> RunConfig {
        RunConfig {
            scale: Scale::Tiny,
            users: Some(3),
            instances_per_user: 2,
            ..RunConfig::default()
        }
    }

    #[test]
    fn net_report_runs_and_holds_its_contracts_at_tiny_scale() {
        // run() itself asserts determinism across widths and strict p95
        // contention — reaching the table is the test.
        let run = run(&tiny());
        assert_eq!(run.sweep.len(), 6, "3 mixes x 2 retry policies");
        assert!(run.general_bytes > 0);
        for cell in &run.sweep {
            assert_eq!(cell.report.records.len(), run.train.outcomes.len());
        }
        let rendered = table(&run).render();
        assert!(rendered.contains("all-wifi") && rendered.contains("timeout+backoff"));
        assert!(contention_table(&run).render().contains("shared-fifo"));
    }

    #[test]
    fn cloud_serving_table_has_both_deployments() {
        let rendered = cloud_table(&tiny()).render();
        assert!(rendered.contains("on-device"));
        assert!(rendered.contains("cloud"));
    }
}
