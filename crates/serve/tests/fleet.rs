//! End-to-end fleet serving against a real (tiny) scenario: the harness
//! must be deterministic, lossless, and must serve unenrolled users a
//! valid general-model answer instead of an error.

use pelican::platform::ComputeTier;
use pelican::workbench::Scenario;
use pelican_mobility::{Scale, SpatialLevel};
use pelican_serve::{
    run_fleet, CloudNetwork, FleetConfig, RegistryConfig, SchedulerConfig, SimServeConfig,
    TrafficConfig,
};

fn scenario() -> Scenario {
    Scenario::builder(Scale::Tiny, SpatialLevel::Building).seed(19).personal_users(3).build()
}

fn config(requests: usize) -> FleetConfig {
    FleetConfig {
        registry: RegistryConfig { shards: 4, hot_capacity: 2 },
        serve: SimServeConfig {
            scheduler: SchedulerConfig { max_batch: 8, max_delay_us: 1_500 },
            ..SimServeConfig::default()
        },
        traffic: TrafficConfig { requests, seed: 5, ..TrafficConfig::default() },
        unenrolled_clients: 3,
        queries_per_user: 8,
    }
}

#[test]
fn fleet_run_is_deterministic_and_lossless() {
    let s = scenario();
    let a = run_fleet(&s, &config(600)).expect("fleet runs");
    let b = run_fleet(&s, &config(600)).expect("fleet runs");

    assert_eq!(a.report.requests, 600, "every generated request is served");
    assert_eq!(a.report.requests, b.report.requests);
    assert_eq!(a.report.batches, b.report.batches);
    assert_eq!(a.report.batch_histogram, b.report.batch_histogram);
    assert_eq!(
        (a.report.p50_us, a.report.p95_us, a.report.p99_us),
        (b.report.p50_us, b.report.p95_us, b.report.p99_us),
        "simulated latency must be a pure function of the seeds"
    );
    assert_eq!(a.stats, b.stats);
}

#[test]
fn fleet_exercises_cache_and_fallback_paths() {
    let s = scenario();
    let outcome = run_fleet(&s, &config(800)).expect("fleet runs");
    let stats = outcome.stats;

    assert!(stats.hits > 0, "Zipf-skewed traffic must re-hit hot models");
    assert!(stats.misses > 0, "cold decodes happen on first touch");
    assert!(stats.fallbacks > 0, "unenrolled clients are served by the general model");
    assert!(stats.hit_rate() > 0.5, "hot traffic should mostly hit: {stats:?}");
    assert!(outcome.report.fallback_share > 0.0 && outcome.report.fallback_share < 1.0);
    assert_eq!(stats.cold_models, 3, "all personalization users stay enrolled");
    assert!(outcome.report.throughput_qps > 0.0);
    assert!(outcome.report.p50_us <= outcome.report.p95_us);
    assert!(outcome.report.p95_us <= outcome.report.p99_us);
}

#[test]
fn coalescing_forms_real_batches_under_load() {
    let s = scenario();
    // Dense arrivals: mean gap far below the flush deadline, so buffers
    // fill to max_batch instead of timing out.
    let mut cfg = config(1_000);
    cfg.traffic.mean_interarrival_us = 20.0;
    let outcome = run_fleet(&s, &cfg).expect("fleet runs");
    assert!(
        outcome.report.mean_batch > 2.0,
        "dense traffic must coalesce (mean batch {})",
        outcome.report.mean_batch
    );
    let max_size = outcome.report.batch_histogram.iter().map(|&(s, _)| s).max().unwrap_or(0);
    assert_eq!(max_size, 8, "full batches dispatch at max_batch");
}

#[test]
fn cloud_deployment_pays_rtt_deterministically() {
    let s = scenario();
    let cloud = |seed| {
        let mut cfg = config(400);
        cfg.serve.network = Some(CloudNetwork { seed, ..CloudNetwork::default() });
        cfg
    };
    let on_device = run_fleet(&s, &config(400)).expect("fleet runs");
    let a = run_fleet(&s, &cloud(11)).expect("fleet runs");
    let b = run_fleet(&s, &cloud(11)).expect("fleet runs");

    assert!(on_device.network.is_none());
    let (net_a, net_b) = (a.network.expect("cloud path"), b.network.expect("cloud path"));
    assert_eq!(net_a, net_b, "round trips are a pure function of the seeds");
    assert_eq!(net_a.requests, 400, "no timeouts configured, nothing drops");
    assert_eq!(net_a.dropped, 0);

    // The round trip strictly dominates cloud-side serving latency: it
    // adds two transfers (uplink + shared egress) around the compute.
    assert!(net_a.rtt_p95_us > a.report.p95_us);
    assert!(net_a.rtt_p50_us <= net_a.rtt_p95_us && net_a.rtt_p95_us <= net_a.rtt_p99_us);
    // Bursty arrivals on a shared egress must actually queue.
    assert!(net_a.egress_wait_p95_us > 0, "shared egress must see contention");

    // A different fleet seed deals different links and changes the trace.
    let c = run_fleet(&s, &cloud(12)).expect("fleet runs");
    assert_ne!(net_a.fingerprint, c.network.expect("cloud path").fingerprint);
}

#[test]
fn saturated_on_device_serving_queues_on_its_shard() {
    let s = scenario();
    // One shard, singleton batches, arrivals far closer together than
    // one device-tier inference: batches seal faster than the shard can
    // run them, so they must wait for it — on-device too.
    let mut cfg = config(300);
    cfg.registry.shards = 1;
    cfg.serve.scheduler.max_batch = 1;
    cfg.serve.tier = ComputeTier::Device;
    cfg.traffic.mean_interarrival_us = 1.0;
    let report = run_fleet(&s, &cfg).expect("fleet runs").report;
    assert!(report.service_p50_us > 10, "arrivals outpace service: {report:?}");
    assert!(report.queue_p95_us > 0, "back-to-back batches wait for the shard");
    assert!(
        report.p95_us > report.queue_p95_us,
        "a latency contains its own queueing and a non-zero service"
    );
}
