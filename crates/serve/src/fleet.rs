//! End-to-end fleet harness: enroll a scenario, synthesize traffic,
//! serve it on the virtual clock, report.
//!
//! This is the piece the `serve-report` experiment and the serving
//! benchmarks drive: one deterministic function from (scenario, knobs)
//! to a [`ServeReport`].
//!
//! Every run goes through [`crate::simserve::simulate_serving`]: shard
//! buffers seal on sim timer events and fused batches occupy their
//! shard's compute resource (back-to-back batches queue), on-device and
//! in the cloud alike. [`SimServeConfig::network`] describes the
//! deployment, not the scheduler: when set, each query also crosses its
//! client's own (seeded, heterogeneous) uplink before it can be batched
//! and responses return over one shared, contended cloud egress link —
//! so batch compositions genuinely react to network jitter — and the
//! round-trip summary lands in [`FleetOutcome::network`].

use pelican::workbench::Scenario;
use pelican_nn::{ModelCodecError, Sequence};
use pelican_sim::{stage_stats, LinkMix, TransferPolicy};
use pelican_tensor::nearest_rank;

use crate::metrics::{MetricsSink, ServeReport};
use crate::registry::{RegistryConfig, RegistryStats, ShardedRegistry};
use crate::scheduler::Request;
use crate::simserve::{simulate_serving, SimServeConfig};
use crate::traffic::{TrafficConfig, TrafficGenerator};

/// Everything a fleet run needs besides the scenario.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Registry sharding and hot-cache sizing.
    pub registry: RegistryConfig,
    /// Batch coalescing, the tier fused batches are costed on, and the
    /// cloud-deployment network path: `None` serves on-device (queries
    /// pay no network, only batching and shard occupancy); `Some` adds
    /// each client's uplink and the shared egress to the same timeline.
    pub serve: SimServeConfig,
    /// Traffic shape. `users` is overridden with the harness's client
    /// pool size.
    pub traffic: TrafficConfig,
    /// How many contributor (unenrolled) users join the client pool and
    /// exercise the general-model fallback.
    pub unenrolled_clients: usize,
    /// Distinct query sequences cached per client (cycled round-robin).
    pub queries_per_user: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            registry: RegistryConfig::default(),
            serve: SimServeConfig::default(),
            traffic: TrafficConfig::default(),
            unenrolled_clients: 4,
            queries_per_user: 32,
        }
    }
}

/// Network shape of cloud-deployed serving. Every query crosses its
/// client's uplink as 2 KiB and every response returns as 1 KiB over one
/// fair-share WAN egress that all responses contend on; those constants
/// sit beside their one use in [`serve_harness`](crate::serve_harness).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloudNetwork {
    /// Per-client uplink assignment (wifi/WAN/cellular mix, stragglers).
    pub mix: LinkMix,
    /// Timeout/retry policy of query uplink transfers (a timed-out query
    /// is dropped before reaching the cloud).
    pub uplink_policy: TransferPolicy,
    /// Fleet seed for link assignment.
    pub seed: u64,
}

impl Default for CloudNetwork {
    /// Campus client mix, no timeouts.
    fn default() -> Self {
        Self { mix: LinkMix::campus(), uplink_policy: TransferPolicy::default(), seed: 0xC10D }
    }
}

/// Round-trip summary of cloud-deployed serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CloudRtt {
    /// Queries that completed the full round trip.
    pub requests: usize,
    /// Queries dropped on the uplink (timeout retries exhausted).
    pub dropped: usize,
    /// Median end-to-end latency: client send → response delivered (µs).
    pub rtt_p50_us: u64,
    /// 95th-percentile end-to-end latency (µs).
    pub rtt_p95_us: u64,
    /// 99th-percentile end-to-end latency (µs).
    pub rtt_p99_us: u64,
    /// 95th-percentile contention wait on client uplinks (µs).
    pub uplink_wait_p95_us: u64,
    /// 95th-percentile contention wait on the shared egress (µs).
    pub egress_wait_p95_us: u64,
    /// Determinism fingerprint of the unified serving timeline (uplink,
    /// batching timers, shard compute and egress share one event heap).
    pub fingerprint: u64,
}

/// Result of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Throughput / latency / batching / cache report (cloud-side: its
    /// latencies start when the query reaches the cloud).
    pub report: ServeReport,
    /// Final registry counters (also embedded in the report).
    pub stats: RegistryStats,
    /// End-to-end round-trip summary when serving through
    /// [`SimServeConfig::network`]; `None` for on-device serving.
    pub network: Option<CloudRtt>,
}

/// Runs a full serving experiment against a scenario's population.
///
/// The client pool is the scenario's personalization users (most popular
/// first, matching the Zipf head) plus `unenrolled_clients` contributors
/// who never uploaded a model and therefore hit the general fallback.
/// Each client's queries are real held-out sequences from the dataset,
/// cycled deterministically. Identical inputs yield identical reports.
///
/// # Errors
///
/// Returns [`ModelCodecError`] if a stored envelope fails to decode
/// (impossible for envelopes the registry itself encoded).
pub fn run_fleet(
    scenario: &Scenario,
    config: &FleetConfig,
) -> Result<FleetOutcome, ModelCodecError> {
    let registry = ShardedRegistry::new(scenario.general.clone(), config.registry);
    registry.enroll_scenario(scenario);

    // Client pool: personalized users first (Zipf head), then unenrolled
    // contributors exercising the fallback path.
    let mut pool: Vec<usize> = scenario.personal.iter().map(|u| u.user_id).collect();
    pool.extend((0..scenario.first_personal_user).take(config.unenrolled_clients));

    let queries_per_user = config.queries_per_user.max(1);
    let query_pool: Vec<Vec<Sequence>> = pool
        .iter()
        .map(|&uid| {
            scenario
                .dataset
                .user_samples(uid)
                .into_iter()
                .take(queries_per_user)
                .map(|sample| sample.xs)
                .collect()
        })
        .collect();
    // Keep only clients that have at least one recorded session to query
    // with (everyone, in practice, but guard tiny scenarios).
    let (pool, query_pool): (Vec<usize>, Vec<Vec<Sequence>>) =
        pool.into_iter().zip(query_pool).filter(|(_, queries)| !queries.is_empty()).unzip();
    assert!(!pool.is_empty(), "fleet needs at least one client with data");

    let mut traffic = config.traffic;
    traffic.users = pool.len();
    let mut cursors = vec![0usize; pool.len()];
    let requests: Vec<Request> = TrafficGenerator::new(traffic)
        .enumerate()
        .map(|(id, arrival)| {
            let queries = &query_pool[arrival.user_index];
            let xs = queries[cursors[arrival.user_index] % queries.len()].clone();
            cursors[arrival.user_index] += 1;
            Request { id, user_id: pool[arrival.user_index], arrival_us: arrival.at_us, xs }
        })
        .collect();

    // One timeline for both deployments: arrivals (over client uplinks
    // when there is a network), deadline timers, shard-serial fused
    // compute and egress responses all run on the sim's event heap.
    let outcome = simulate_serving(&registry, &requests, &config.serve)?;
    let mut sink = MetricsSink::default();
    for (batch, completions) in outcome.batches.iter().zip(&outcome.completions) {
        sink.record(batch, completions);
    }
    let network = config.serve.network.map(|_| {
        let mut rtts: Vec<u64> = outcome.served.iter().map(|s| s.rtt_us()).collect();
        rtts.sort_unstable();
        CloudRtt {
            requests: rtts.len(),
            dropped: outcome.dropped,
            rtt_p50_us: nearest_rank(&rtts, 0.50).unwrap_or(0),
            rtt_p95_us: nearest_rank(&rtts, 0.95).unwrap_or(0),
            rtt_p99_us: nearest_rank(&rtts, 0.99).unwrap_or(0),
            uplink_wait_p95_us: stage_stats(&outcome.sim, "uplink").wait_p95_us,
            egress_wait_p95_us: stage_stats(&outcome.sim, "response").wait_p95_us,
            fingerprint: outcome.fingerprint(),
        }
    });

    let stats = registry.stats();
    Ok(FleetOutcome { report: sink.report(config.serve.tier, stats.clone()), stats, network })
}
