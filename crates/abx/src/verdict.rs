//! Per-arm accumulation and the promote / flip-back decision.
//!
//! The engine ingests two streams while the experiment serves: every
//! completion of a treatment-arm user (the latency evidence, split into
//! queue and service like the serving report) and every finished
//! served-interface attack (the leakage evidence). At a checkpoint with
//! all attacks home, [`VerdictEngine::decide`] turns the accumulators
//! into one [`Verdict`]:
//!
//! * leakage per arm is the mean attack hit rate at the audit cutoff
//!   **minus the prior baseline** — the advantage over an adversary who
//!   never queried the model. Differencing out each attacked user's own
//!   baseline removes the between-cohort composition noise an A/A run
//!   would otherwise read as signal;
//! * if the arms' advantages are within `null_margin`, the verdict is
//!   [`Verdict::Null`] — the rungs are indistinguishable under live
//!   traffic and nobody moves (the A/A contract);
//! * otherwise the lower-advantage arm wins — unless its p95 latency is
//!   more than `latency_margin_us` worse than the loser's, in which case
//!   the privacy win costs too much tail latency and the verdict is
//!   null too.

use crate::splitter::Arm;

/// Decision thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerdictConfig {
    /// The top-k cutoff leakage is judged at (must be in the attack's
    /// evaluated grid).
    pub audit_k: usize,
    /// Advantage gap below which the arms are declared indistinguishable.
    pub null_margin: f64,
    /// Maximum p95 latency regression the winning rung may cost.
    pub latency_margin_us: u64,
}

/// One treatment arm's accumulated evidence, frozen at decision time.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmStats {
    /// Users assigned to the arm.
    pub cohort: usize,
    /// Users actually attacked through the serving interface.
    pub attacked: usize,
    /// Deduplicated attack queries that crossed the wire.
    pub wire_queries: u64,
    /// Mean attack hit rate at the audit cutoff.
    pub leakage: f64,
    /// Mean prior-only baseline at the same cutoff.
    pub baseline: f64,
    /// `leakage - baseline` — the decision statistic.
    pub advantage: f64,
    /// Completions observed for the arm's users.
    pub served: usize,
    /// Median end-to-end scheduler latency, µs.
    pub latency_p50_us: u64,
    /// 95th-percentile end-to-end scheduler latency, µs.
    pub latency_p95_us: u64,
    /// Median shard queueing, µs.
    pub queue_p50_us: u64,
    /// 95th-percentile shard queueing, µs.
    pub queue_p95_us: u64,
    /// Median fused service time, µs.
    pub service_p50_us: u64,
    /// 95th-percentile fused service time, µs.
    pub service_p95_us: u64,
}

/// The checkpoint decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// The arms are indistinguishable (or the winner failed the latency
    /// guard): nobody moves.
    Null {
        /// `advantage(A) - advantage(B)` at decision time.
        delta: f64,
    },
    /// One rung demonstrably leaks less at acceptable latency: the
    /// losing cohort flips to it and the holdout adopts it.
    Promote {
        /// The arm whose rung is deployed fleet-wide.
        winner: Arm,
        /// `advantage(A) - advantage(B)` at decision time.
        delta: f64,
    },
}

impl Verdict {
    /// The winning arm, if the verdict promotes one.
    pub fn winner(&self) -> Option<Arm> {
        match self {
            Verdict::Null { .. } => None,
            Verdict::Promote { winner, .. } => Some(*winner),
        }
    }

    /// The advantage gap the decision was made on.
    pub fn delta(&self) -> f64 {
        match self {
            Verdict::Null { delta } | Verdict::Promote { delta, .. } => *delta,
        }
    }

    /// Whether nobody moves.
    pub fn is_null(&self) -> bool {
        matches!(self, Verdict::Null { .. })
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Null { delta } => write!(f, "null (Δadvantage {delta:+.4})"),
            Verdict::Promote { winner, delta } => {
                write!(f, "promote arm {winner} (Δadvantage {delta:+.4})")
            }
        }
    }
}

#[derive(Debug, Clone, Default)]
struct ArmAcc {
    cohort: usize,
    latencies_us: Vec<u64>,
    queues_us: Vec<u64>,
    services_us: Vec<u64>,
    accuracies: Vec<f64>,
    baselines: Vec<f64>,
    wire_queries: u64,
}

/// Accumulates per-arm evidence during the run and renders the decision.
#[derive(Debug, Clone)]
pub struct VerdictEngine {
    config: VerdictConfig,
    arms: [ArmAcc; 2],
}

impl VerdictEngine {
    /// An empty engine over cohorts of the given sizes (`[A, B]`).
    pub fn new(config: VerdictConfig, cohorts: [usize; 2]) -> Self {
        let mut arms = [ArmAcc::default(), ArmAcc::default()];
        arms[0].cohort = cohorts[0];
        arms[1].cohort = cohorts[1];
        Self { config, arms }
    }

    fn acc(&mut self, arm: Arm) -> &mut ArmAcc {
        assert_ne!(arm, Arm::Holdout, "the holdout is not under test");
        &mut self.arms[arm.index()]
    }

    /// Ingests one completion of an arm user: the scheduler's
    /// queue/service split plus the end-to-end latency.
    pub fn observe_completion(
        &mut self,
        arm: Arm,
        queue_us: u64,
        service_us: u64,
        latency_us: u64,
    ) {
        let acc = self.acc(arm);
        acc.queues_us.push(queue_us);
        acc.services_us.push(service_us);
        acc.latencies_us.push(latency_us);
    }

    /// Ingests one finished served-interface attack: hit rate at the
    /// audit cutoff, that user's prior baseline, and the wire cost.
    pub fn record_attack(&mut self, arm: Arm, accuracy: f64, baseline: f64, wire_queries: u64) {
        let acc = self.acc(arm);
        acc.accuracies.push(accuracy);
        acc.baselines.push(baseline);
        acc.wire_queries += wire_queries;
    }

    /// Freezes the accumulators and decides; see the module docs for the
    /// rules.
    pub fn decide(&self) -> (Verdict, [ArmStats; 2]) {
        let stats: [ArmStats; 2] = [self.stats_of(0), self.stats_of(1)];
        let delta = stats[0].advantage - stats[1].advantage;
        let verdict = if delta.abs() <= self.config.null_margin {
            Verdict::Null { delta }
        } else {
            let winner = if delta > 0.0 { Arm::B } else { Arm::A };
            let (w, l) = (&stats[winner.index()], &stats[winner.other().index()]);
            if w.latency_p95_us > l.latency_p95_us.saturating_add(self.config.latency_margin_us) {
                Verdict::Null { delta }
            } else {
                Verdict::Promote { winner, delta }
            }
        };
        (verdict, stats)
    }

    fn stats_of(&self, index: usize) -> ArmStats {
        let acc = &self.arms[index];
        let mean = |xs: &[f64]| {
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        let pct = |xs: &[u64], q: f64| {
            let mut sorted = xs.to_vec();
            sorted.sort_unstable();
            pelican_tensor::nearest_rank(&sorted, q).unwrap_or(0)
        };
        let leakage = mean(&acc.accuracies);
        let baseline = mean(&acc.baselines);
        ArmStats {
            cohort: acc.cohort,
            attacked: acc.accuracies.len(),
            wire_queries: acc.wire_queries,
            leakage,
            baseline,
            advantage: leakage - baseline,
            served: acc.latencies_us.len(),
            latency_p50_us: pct(&acc.latencies_us, 0.50),
            latency_p95_us: pct(&acc.latencies_us, 0.95),
            queue_p50_us: pct(&acc.queues_us, 0.50),
            queue_p95_us: pct(&acc.queues_us, 0.95),
            service_p50_us: pct(&acc.services_us, 0.50),
            service_p95_us: pct(&acc.services_us, 0.95),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(null_margin: f64) -> VerdictEngine {
        VerdictEngine::new(
            VerdictConfig { audit_k: 3, null_margin, latency_margin_us: 1_000 },
            [4, 4],
        )
    }

    #[test]
    fn close_arms_read_null_and_distant_arms_promote() {
        let mut e = engine(0.1);
        e.record_attack(Arm::A, 0.50, 0.25, 100);
        e.record_attack(Arm::B, 0.45, 0.25, 90);
        let (verdict, stats) = e.decide();
        assert!(verdict.is_null(), "0.05 gap is inside a 0.1 margin: {verdict}");
        assert_eq!(stats[0].attacked, 1);
        assert!((stats[0].advantage - 0.25).abs() < 1e-12);

        let mut e = engine(0.1);
        e.record_attack(Arm::A, 0.80, 0.20, 100);
        e.record_attack(Arm::B, 0.25, 0.20, 90);
        let (verdict, _) = e.decide();
        assert_eq!(verdict.winner(), Some(Arm::B), "the less-leaky arm wins");
        assert!(verdict.delta() > 0.0);
    }

    #[test]
    fn baselines_difference_out_cohort_composition() {
        // Arm A's users are simply easier to guess from the prior alone;
        // raw hit rates differ but advantages agree — an A/A must be null.
        let mut e = engine(0.05);
        e.record_attack(Arm::A, 0.60, 0.55, 10);
        e.record_attack(Arm::B, 0.20, 0.15, 10);
        assert!(e.decide().0.is_null());
    }

    #[test]
    fn a_latency_regression_vetoes_the_promotion() {
        let mut e = engine(0.05);
        e.record_attack(Arm::A, 0.9, 0.1, 10);
        e.record_attack(Arm::B, 0.1, 0.1, 10);
        // Arm B wins on leakage but its p95 is 5 ms worse than A's
        // against a 1 ms margin.
        for _ in 0..20 {
            e.observe_completion(Arm::A, 10, 100, 1_000);
            e.observe_completion(Arm::B, 10, 100, 6_000);
        }
        let (verdict, stats) = e.decide();
        assert!(verdict.is_null(), "a 5 ms tail regression must veto: {verdict}");
        assert_eq!(stats[1].latency_p95_us, 6_000);
        assert_eq!(stats[1].served, 20);
    }

    #[test]
    #[should_panic(expected = "not under test")]
    fn the_holdout_has_no_accumulator() {
        engine(0.1).observe_completion(Arm::Holdout, 0, 0, 0);
    }
}
