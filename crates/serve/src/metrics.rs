//! Serving metrics: throughput, latency percentiles, batch shape and
//! cache behaviour.
//!
//! All times are *simulated* (priced from model shapes on the platform
//! tiers, plus scheduler queueing), so reports are deterministic and
//! machine-independent — the same property the rest of the reproduction
//! relies on for its overhead numbers.

use std::collections::BTreeMap;

use pelican::platform::ComputeTier;

use crate::registry::{Lookup, RegistryStats};
use crate::scheduler::{Batch, Completion};

/// Accumulates per-batch observations during a serving run.
#[derive(Debug, Clone, Default)]
pub struct MetricsSink {
    latencies_us: Vec<u64>,
    queues_us: Vec<u64>,
    services_us: Vec<u64>,
    batch_sizes: BTreeMap<usize, usize>,
    batches: usize,
    requests: usize,
    first_arrival_us: Option<u64>,
    last_finish_us: u64,
    hot: u64,
    cold: u64,
    fallback: u64,
}

impl MetricsSink {
    /// Records one executed batch and its completions.
    pub fn record(&mut self, batch: &Batch, completions: &[Completion]) {
        self.batches += 1;
        *self.batch_sizes.entry(batch.requests.len()).or_insert(0) += 1;
        for c in completions {
            self.requests += 1;
            let finish = c.finish_us();
            self.latencies_us.push(finish.saturating_sub(c.arrival_us));
            self.queues_us.push(c.queue_us);
            self.services_us.push(c.service_us);
            self.first_arrival_us =
                Some(self.first_arrival_us.map_or(c.arrival_us, |f| f.min(c.arrival_us)));
            self.last_finish_us = self.last_finish_us.max(finish);
            match c.lookup {
                Lookup::Hot => self.hot += 1,
                Lookup::Cold => self.cold += 1,
                Lookup::Fallback => self.fallback += 1,
            }
        }
    }

    /// Snapshots the run into a report.
    pub fn report(&self, tier: ComputeTier, registry: RegistryStats) -> ServeReport {
        let sorted = |xs: &[u64]| {
            let mut xs = xs.to_vec();
            xs.sort_unstable();
            xs
        };
        let latencies = sorted(&self.latencies_us);
        let queues = sorted(&self.queues_us);
        let services = sorted(&self.services_us);
        let span_us = self.last_finish_us.saturating_sub(self.first_arrival_us.unwrap_or(0));
        let throughput_qps =
            if span_us == 0 { 0.0 } else { self.requests as f64 / (span_us as f64 / 1e6) };
        ServeReport {
            tier,
            requests: self.requests,
            batches: self.batches,
            mean_batch: if self.batches == 0 {
                0.0
            } else {
                self.requests as f64 / self.batches as f64
            },
            batch_histogram: self.batch_sizes.iter().map(|(&s, &n)| (s, n)).collect(),
            throughput_qps,
            p50_us: percentile(&latencies, 0.50),
            p95_us: percentile(&latencies, 0.95),
            p99_us: percentile(&latencies, 0.99),
            queue_p50_us: percentile(&queues, 0.50),
            queue_p95_us: percentile(&queues, 0.95),
            service_p50_us: percentile(&services, 0.50),
            service_p95_us: percentile(&services, 0.95),
            fallback_share: if self.requests == 0 {
                0.0
            } else {
                self.fallback as f64 / self.requests as f64
            },
            registry,
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted slice (0 if empty).
/// Thin wrapper over the workspace-shared [`pelican_tensor::nearest_rank`]
/// so serving, training and the network simulator agree on one
/// percentile definition.
fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    pelican_tensor::nearest_rank(sorted_us, q).unwrap_or(0)
}

/// A finished serving run, ready to print or tabulate.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Tier the fused batches were costed on.
    pub tier: ComputeTier,
    /// Requests served.
    pub requests: usize,
    /// Batches dispatched.
    pub batches: usize,
    /// Mean coalesced batch size.
    pub mean_batch: f64,
    /// `(batch size, count)` pairs, ascending by size.
    pub batch_histogram: Vec<(usize, usize)>,
    /// Served queries per simulated second.
    pub throughput_qps: f64,
    /// Median simulated latency (queueing + fused compute), µs.
    pub p50_us: u64,
    /// 95th-percentile simulated latency, µs.
    pub p95_us: u64,
    /// 99th-percentile simulated latency, µs.
    pub p99_us: u64,
    /// Median shard-compute queueing per request, µs (see
    /// [`Completion::queue_us`]; non-zero whenever a sealed batch found
    /// its shard busy, on-device as in the cloud).
    pub queue_p50_us: u64,
    /// 95th-percentile shard-compute queueing, µs.
    pub queue_p95_us: u64,
    /// Median fused-batch service time per request, µs.
    pub service_p50_us: u64,
    /// 95th-percentile fused-batch service time, µs.
    pub service_p95_us: u64,
    /// Share of requests answered by the general fallback model.
    pub fallback_share: f64,
    /// Registry cache counters at the end of the run.
    pub registry: RegistryStats,
}

impl ServeReport {
    /// Multi-line human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "tier {} | {} requests in {} batches (mean batch {:.2})\n",
            self.tier, self.requests, self.batches, self.mean_batch
        ));
        out.push_str(&format!(
            "throughput {:>10.0} q/s (simulated)\nlatency    p50 {} µs  p95 {} µs  p99 {} µs\n",
            self.throughput_qps, self.p50_us, self.p95_us, self.p99_us
        ));
        out.push_str(&format!(
            "compute    queue p50 {} µs  p95 {} µs | service p50 {} µs  p95 {} µs\n",
            self.queue_p50_us, self.queue_p95_us, self.service_p50_us, self.service_p95_us
        ));
        out.push_str(&format!(
            "cache      {:.1}% hot-hit, {} evictions, {:.1}% fallback traffic\n",
            self.registry.hit_rate() * 100.0,
            self.registry.evictions,
            self.fallback_share * 100.0
        ));
        out.push_str("batch-size histogram: ");
        let total: usize = self.batch_histogram.iter().map(|&(_, n)| n).sum();
        for &(size, count) in &self.batch_histogram {
            out.push_str(&format!("{size}×{count} "));
        }
        out.push_str(&format!("({total} batches)\n"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Request;

    fn completion(id: usize, arrival: u64, dispatched: u64, compute_us: u64) -> Completion {
        Completion {
            request_id: id,
            user_id: 0,
            arrival_us: arrival,
            dispatched_us: dispatched,
            queue_us: 0,
            service_us: compute_us,
            lookup: Lookup::Hot,
            probs: vec![1.0],
        }
    }

    fn batch(n: usize) -> Batch {
        let requests = (0..n)
            .map(|i| Request { id: i, user_id: 0, arrival_us: 0, xs: vec![vec![0.0]] })
            .collect();
        Batch { shard: 0, dispatched_us: 10, requests }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50);
        assert_eq!(percentile(&sorted, 0.95), 95);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn report_aggregates_latency_and_shape() {
        let mut sink = MetricsSink::default();
        let completions: Vec<Completion> = (0..4).map(|i| completion(i, i as u64, 10, 5)).collect();
        sink.record(&batch(4), &completions);
        let report = sink.report(ComputeTier::Device, RegistryStats::default());
        assert_eq!(report.requests, 4);
        assert_eq!(report.batches, 1);
        assert_eq!(report.mean_batch, 4.0);
        assert_eq!(report.batch_histogram, vec![(4, 1)]);
        // Latencies: finish 15 minus arrivals 0..3 -> 15, 14, 13, 12.
        assert_eq!(report.p50_us, 13);
        assert_eq!(report.p99_us, 15);
        assert_eq!(report.service_p95_us, 5, "service split mirrors the completions");
        assert_eq!(report.queue_p95_us, 0, "these completions found their shard idle");
        assert!(report.throughput_qps > 0.0);
        assert!(!report.render().is_empty());
    }
}
