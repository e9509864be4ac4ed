//! Pipeline reporting: throughput, audit outcomes, enroll latency.
//!
//! Model weights and audit verdicts in a report are deterministic; the
//! wall-clock fields (`wall`, `enroll_latency`, and everything derived
//! from them) measure the *host* machine, since parallel speedup is
//! exactly the thing simulated time cannot show.

use std::sync::Arc;
use std::time::Duration;

use pelican_nn::FitReport;
use pelican_store::StoreError;
use pelican_tensor::nearest_rank;

use crate::audit::{GateOutcome, GateVerdict};

/// One published model's record.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The personalized user.
    pub user_id: usize,
    /// Publication version the registry assigned (schedule-dependent).
    pub version: u64,
    /// Whether this was a warm-start update.
    pub warm: bool,
    /// The audit gate's record (deterministic).
    pub gate: GateOutcome,
    /// Fit report of the on-device training (deterministic).
    pub fit: FitReport,
    /// Host time from job steal to registry publication.
    pub enroll_latency: Duration,
    /// Simulated device-tier time of this job's training, priced from its
    /// fit's FLOPs (deterministic for any pool width) — the `train` stage
    /// of the network simulation.
    pub train_simulated: Duration,
    /// Simulated device-tier time of this job's privacy audit
    /// (deterministic) — the `audit` stage of the network simulation.
    pub audit_simulated: Duration,
    /// Size of the published envelope in bytes — the payload the
    /// network simulation uploads.
    pub envelope_bytes: usize,
}

/// A trained and audited model the durable store refused: it was never
/// visible, and the registry still serves the user's previous version.
#[derive(Debug, Clone)]
pub struct PublishFailure {
    /// The user whose publication failed.
    pub user_id: usize,
    /// Why the store refused it.
    pub error: Arc<StoreError>,
}

/// Aggregate result of one pipeline run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Trainer-pool width of the run.
    pub workers: usize,
    /// Per-job outcomes of the published jobs, in job order regardless of
    /// completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Jobs whose publication failed, in job order; empty unless the
    /// registry's durable store returned an error.
    pub publish_failures: Vec<PublishFailure>,
    /// Host wall-clock time of the whole run.
    pub wall: Duration,
    /// Total floating-point operations the jobs are priced at, training
    /// and audits, each a function of what its job ran.
    pub flops: u64,
    /// Enroll latencies sorted ascending, built once at construction so
    /// percentile queries never re-clone or re-sort the outcomes.
    sorted_latencies: Vec<Duration>,
}

impl TrainReport {
    /// Builds a report, sorting the enroll latencies exactly once.
    pub fn new(workers: usize, outcomes: Vec<JobOutcome>, wall: Duration, flops: u64) -> Self {
        let mut sorted_latencies: Vec<Duration> =
            outcomes.iter().map(|o| o.enroll_latency).collect();
        sorted_latencies.sort_unstable();
        Self { workers, outcomes, publish_failures: Vec::new(), wall, flops, sorted_latencies }
    }

    /// Models published per host second.
    pub fn models_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.outcomes.len() as f64 / secs
        }
    }

    /// Published models whose first audit already passed.
    pub fn passed(&self) -> usize {
        self.count(GateVerdict::Passed)
    }

    /// Published models that needed at least one escalation rung.
    pub fn escalated(&self) -> usize {
        self.count(GateVerdict::Escalated)
    }

    /// Published models still above budget at the top of the ladder
    /// (flagged for the operator).
    pub fn exhausted(&self) -> usize {
        self.count(GateVerdict::Exhausted)
    }

    /// Warm-start updates in this run.
    fn warm_starts(&self) -> usize {
        self.outcomes.iter().filter(|o| o.warm).count()
    }

    /// Total black-box queries the audits spent.
    pub fn audit_queries(&self) -> u64 {
        self.outcomes.iter().map(|o| o.gate.queries).sum()
    }

    /// Forward passes the audits actually ran (cache misses summed
    /// across every gate).
    pub fn audit_forward_passes(&self) -> u64 {
        self.outcomes.iter().map(|o| o.gate.cache_misses).sum()
    }

    /// Forward passes the logit caches saved (cache hits summed across
    /// every gate) — escalation rungs and incremental re-audits replay
    /// these instead of re-querying the model.
    pub fn forward_passes_saved(&self) -> u64 {
        self.outcomes.iter().map(|o| o.gate.cached).sum()
    }

    /// Median end-to-end enroll latency (job steal → publication).
    pub fn enroll_latency_p50(&self) -> Duration {
        self.latency_percentile(0.50)
    }

    /// 95th-percentile end-to-end enroll latency.
    fn enroll_latency_p95(&self) -> Duration {
        self.latency_percentile(0.95)
    }

    fn count(&self, verdict: GateVerdict) -> usize {
        self.outcomes.iter().filter(|o| o.gate.verdict == verdict).count()
    }

    /// Nearest-rank percentile over the pre-sorted enroll latencies
    /// (zero if empty). O(1): the sort happened once in
    /// [`TrainReport::new`].
    fn latency_percentile(&self, q: f64) -> Duration {
        nearest_rank(&self.sorted_latencies, q).unwrap_or(Duration::ZERO)
    }

    /// Multi-line human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} models published by {} workers in {:.2?} ({:.2} models/s, {:.1}e9 flops)\n",
            self.outcomes.len(),
            self.workers,
            self.wall,
            self.models_per_sec(),
            self.flops as f64 / 1e9,
        ));
        out.push_str(&format!(
            "audit gate  {} passed, {} escalated, {} exhausted ({} queries: {} forward passes, {} cached)\n",
            self.passed(),
            self.escalated(),
            self.exhausted(),
            self.audit_queries(),
            self.audit_forward_passes(),
            self.forward_passes_saved(),
        ));
        out.push_str(&format!(
            "enroll      p50 {:.2?}  p95 {:.2?}  ({} warm starts)\n",
            self.enroll_latency_p50(),
            self.enroll_latency_p95(),
            self.warm_starts(),
        ));
        for failure in &self.publish_failures {
            out.push_str(&format!(
                "publish     user {} failed: {}\n",
                failure.user_id, failure.error
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelican::DefenseKind;

    fn outcome(verdict: GateVerdict, latency_ms: u64, warm: bool) -> JobOutcome {
        JobOutcome {
            user_id: 0,
            version: 1,
            warm,
            gate: GateOutcome {
                verdict,
                defense: DefenseKind::None,
                rungs_climbed: 0,
                initial_leakage: 0.5,
                final_leakage: 0.2,
                audits: 1,
                queries: 10,
                cached: 4,
                cache_misses: 6,
            },
            fit: FitReport { epoch_losses: vec![1.0], steps: 1, samples_per_epoch: 1, flops: 0 },
            enroll_latency: Duration::from_millis(latency_ms),
            train_simulated: Duration::from_millis(2),
            audit_simulated: Duration::from_millis(1),
            envelope_bytes: 1_000,
        }
    }

    #[test]
    fn report_aggregates_verdicts_and_latency() {
        let report = TrainReport::new(
            4,
            vec![
                outcome(GateVerdict::Passed, 10, false),
                outcome(GateVerdict::Escalated, 20, false),
                outcome(GateVerdict::Escalated, 30, true),
                outcome(GateVerdict::Exhausted, 40, false),
            ],
            Duration::from_secs(2),
            4_000_000_000,
        );
        assert_eq!((report.passed(), report.escalated(), report.exhausted()), (1, 2, 1));
        assert_eq!(report.warm_starts(), 1);
        assert_eq!(report.audit_queries(), 40);
        assert_eq!(report.audit_forward_passes(), 24);
        assert_eq!(report.forward_passes_saved(), 16);
        assert_eq!(report.models_per_sec(), 2.0);
        assert_eq!(report.enroll_latency_p50(), Duration::from_millis(20));
        assert_eq!(report.enroll_latency_p95(), Duration::from_millis(40));
        let rendered = report.render();
        assert!(rendered.contains("1 passed, 2 escalated, 1 exhausted"));
        assert!(rendered.contains("1 warm starts"));
    }

    #[test]
    fn empty_report_is_well_defined() {
        let report = TrainReport::new(1, Vec::new(), Duration::ZERO, 0);
        assert_eq!(report.models_per_sec(), 0.0);
        assert_eq!(report.enroll_latency_p50(), Duration::ZERO);
        assert!(!report.render().is_empty());
    }

    #[test]
    fn percentiles_ignore_outcome_order() {
        // The latencies are sorted once at construction, not on every
        // call — shuffled outcome order must not change any percentile.
        let latencies = [40, 10, 30, 20];
        let outcomes: Vec<JobOutcome> =
            latencies.iter().map(|&ms| outcome(GateVerdict::Passed, ms, false)).collect();
        let report = TrainReport::new(2, outcomes, Duration::from_secs(1), 1);
        assert_eq!(report.enroll_latency_p50(), Duration::from_millis(20));
        assert_eq!(report.enroll_latency_p95(), Duration::from_millis(40));
        // Outcome order itself is preserved for callers.
        assert_eq!(report.outcomes[0].enroll_latency, Duration::from_millis(40));
    }
}
