//! Fleet-serving experiment (`serve-report`): drives the `pelican-serve`
//! subsystem against a scenario population and tabulates throughput,
//! batching, cache behaviour and simulated latency per compute tier.
//!
//! This is the serving-side counterpart of the §V-C2 overhead experiment:
//! the same FLOP-accounted simulation, applied to query traffic instead
//! of training.

use pelican::platform::ComputeTier;
use pelican::workbench::Scenario;
use pelican_mobility::{Scale, SpatialLevel};
use pelican_serve::{
    run_fleet, FleetConfig, FleetOutcome, RegistryConfig, SchedulerConfig, SimServeConfig,
    TrafficConfig,
};

use crate::report::Table;
use crate::RunConfig;

/// Requests driven per scale: enough for stable percentiles without
/// making `tiny` (the CI scale) slow.
fn requests_for(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 2_000,
        Scale::Small => 10_000,
        Scale::Paper => 100_000,
    }
}

/// One serving run per compute tier (same traffic, same registry shape).
///
/// The full fleet is deliberately re-executed per tier rather than
/// re-costing one run's FLOPs: the engine prices each batch on its tier
/// at execution time and the batch then occupies its shard for that long, so a tier changes what queues
/// behind what; even at `paper` scale the second run costs only a few
/// extra seconds.
pub fn run(config: &RunConfig) -> Vec<FleetOutcome> {
    let scenario: Scenario = super::scenario(config, SpatialLevel::Building);
    let fleet = |tier: ComputeTier| FleetConfig {
        registry: RegistryConfig { shards: 8, hot_capacity: 4 },
        serve: SimServeConfig {
            scheduler: SchedulerConfig { max_batch: 16, max_delay_us: 2_000 },
            tier,
            network: None,
        },
        traffic: TrafficConfig {
            requests: requests_for(config.scale),
            seed: config.seed,
            ..TrafficConfig::default()
        },
        unenrolled_clients: scenario.personal.len().max(2),
        queries_per_user: 32,
    };
    [ComputeTier::Cloud, ComputeTier::Device]
        .into_iter()
        .map(|tier| run_fleet(&scenario, &fleet(tier)).expect("registry envelopes decode"))
        .collect()
}

/// Main metrics table: one row per tier.
pub fn table(outcomes: &[FleetOutcome]) -> Table {
    let mut t = Table::new(&[
        "tier",
        "requests",
        "batches",
        "mean-batch",
        "qps(sim)",
        "hit-%",
        "fallback-%",
        "p50(us)",
        "p95(us)",
        "p99(us)",
    ]);
    for outcome in outcomes {
        let r = &outcome.report;
        t.row(&[
            r.tier.to_string(),
            r.requests.to_string(),
            r.batches.to_string(),
            format!("{:.2}", r.mean_batch),
            format!("{:.0}", r.throughput_qps),
            format!("{:.1}", outcome.stats.hit_rate() * 100.0),
            format!("{:.1}", r.fallback_share * 100.0),
            r.p50_us.to_string(),
            r.p95_us.to_string(),
            r.p99_us.to_string(),
        ]);
    }
    t
}

/// Batch-size histogram of the first outcome (batching is identical
/// across tiers — only simulated compute time differs).
pub fn histogram_table(outcomes: &[FleetOutcome]) -> Table {
    let mut t = Table::new(&["batch-size", "batches"]);
    if let Some(first) = outcomes.first() {
        for &(size, count) in &first.report.batch_histogram {
            t.row(&[size.to_string(), count.to_string()]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_report_runs_at_tiny_scale() {
        let config = RunConfig {
            scale: Scale::Tiny,
            users: Some(2),
            instances_per_user: 2,
            ..RunConfig::default()
        };
        let outcomes = run(&config);
        assert_eq!(outcomes.len(), 2, "one run per tier");
        assert_eq!(outcomes[0].report.requests, requests_for(Scale::Tiny));
        // Same traffic, same batching; only simulated time differs.
        assert_eq!(outcomes[0].report.batches, outcomes[1].report.batches);
        assert!(
            outcomes[0].report.p95_us <= outcomes[1].report.p95_us,
            "cloud tier must not be slower than device tier"
        );
        let rendered = table(&outcomes).render();
        assert!(rendered.contains("cloud") && rendered.contains("device"));
        assert!(!histogram_table(&outcomes).render().is_empty());
    }
}
