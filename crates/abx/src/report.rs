//! The experiment record: what ran, what was decided, what moved, and a
//! determinism fingerprint over all of it.

use pelican_serve::SimServeOutcome;
use pelican_sim::fnv1a;
use pelican_train::StalenessWindow;

use crate::splitter::{Arm, CohortSplit};
use crate::verdict::{ArmStats, Verdict};

fn fold(h: &mut u64, value: u64) {
    *h = fnv1a(*h, &value.to_le_bytes());
}

/// One user's publication, reduced to what reports and fingerprints
/// need. Version numbers are deliberately absent from the fingerprint —
/// they are registry bookkeeping, not experiment content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublicationRecord {
    /// The enrolled user.
    pub user_id: usize,
    /// The user's cohort.
    pub arm: Arm,
    /// Hash of the envelope serving traffic.
    pub active_hash: u64,
    /// Hash of the retained flip-back envelope (treatment arms only).
    pub shadow_hash: Option<u64>,
    /// Active publication version.
    pub active_version: u64,
    /// Shadow publication version (treatment arms only).
    pub shadow_version: Option<u64>,
    /// Simulated device cost of the personalization, µs.
    pub train_simulated_us: u64,
}

/// One finished served-interface attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackRecord {
    /// The attacked user.
    pub user_id: usize,
    /// The user's (treatment) arm.
    pub arm: Arm,
    /// Hit rate at the audit cutoff, from served answers alone.
    pub accuracy: f64,
    /// The user's prior-only baseline at the same cutoff.
    pub baseline: f64,
    /// Deduplicated queries that crossed the serving interface.
    pub wire_queries: u64,
    /// Logical oracle queries the attack scored with.
    pub logical_queries: u64,
    /// Virtual instant the last served answer arrived.
    pub done_us: u64,
}

/// Why a registry publication happened after the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapKind {
    /// A losing-cohort user rolled back to their shadow version — the
    /// winning rung, retained since enrollment.
    FlipBack,
    /// A holdout user adopted the winning rung via a fresh publication.
    Promotion,
}

/// One post-verdict registry swap, as it landed on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapRecord {
    /// The swapped user.
    pub user_id: usize,
    /// Flip-back or promotion.
    pub kind: SwapKind,
    /// When the push landed and the swap became visible, µs.
    pub landed_us: u64,
    /// The new publication version (excluded from the fingerprint).
    pub version: u64,
}

/// A finished A/B experiment.
#[derive(Debug, Clone)]
pub struct AbxOutcome {
    /// The cohort partition the experiment ran on.
    pub split: CohortSplit,
    /// Per-user publication state, ascending by user.
    pub publications: Vec<PublicationRecord>,
    /// Finished attacks, in completion order.
    pub attacks: Vec<AttackRecord>,
    /// The checkpoint decision.
    pub verdict: Verdict,
    /// Frozen per-arm evidence (`[A, B]`) behind the verdict.
    pub arms: [ArmStats; 2],
    /// Virtual instant of the decision.
    pub verdict_us: u64,
    /// Checkpoint timer firings (the last one decided).
    pub checkpoints: u64,
    /// Post-verdict swaps in landing order (empty on a null verdict).
    pub swaps: Vec<SwapRecord>,
    /// Detection→last-flip window of the losing cohort (measured with
    /// the shared [`pelican_train::StalenessWindow`]); `None` on a null
    /// verdict.
    pub flip_window: Option<StalenessWindow>,
    /// Losing-cohort responses served from the losing rung between the
    /// verdict and that user's flip landing — the (expected, bounded)
    /// exposure.
    pub exposed_responses: usize,
    /// Losing-cohort responses bound to the losing rung *after* the flip
    /// landed. The durable hot-swap contract makes this zero; the
    /// `ab-report` experiment asserts it.
    pub degraded_after_swap: usize,
    /// The underlying serving pass (batches, completions, sim trace).
    pub serve: SimServeOutcome,
}

impl AbxOutcome {
    /// Determinism fingerprint: the sim trace, the split, every envelope
    /// hash, every attack result, the verdict and every swap instant —
    /// everything the experiment *decided*, nothing the registry merely
    /// *numbered* (publication versions are schedule bookkeeping and are
    /// excluded, like the live loop's fingerprint).
    pub fn fingerprint(&self) -> u64 {
        let mut h = self.serve.fingerprint();
        for p in &self.publications {
            fold(&mut h, p.user_id as u64);
            fold(&mut h, p.arm.index() as u64);
            fold(&mut h, p.active_hash);
            fold(&mut h, p.shadow_hash.unwrap_or(0));
            fold(&mut h, p.train_simulated_us);
        }
        for a in &self.attacks {
            fold(&mut h, a.user_id as u64);
            fold(&mut h, a.arm.index() as u64);
            fold(&mut h, a.accuracy.to_bits());
            fold(&mut h, a.baseline.to_bits());
            fold(&mut h, a.wire_queries);
            fold(&mut h, a.logical_queries);
            fold(&mut h, a.done_us);
        }
        fold(
            &mut h,
            match self.verdict.winner() {
                None => 0,
                Some(arm) => 1 + arm.index() as u64,
            },
        );
        fold(&mut h, self.verdict.delta().to_bits());
        fold(&mut h, self.verdict_us);
        for s in &self.swaps {
            fold(&mut h, s.user_id as u64);
            fold(&mut h, matches!(s.kind, SwapKind::Promotion) as u64);
            fold(&mut h, s.landed_us);
        }
        fold(&mut h, self.exposed_responses as u64);
        fold(&mut h, self.degraded_after_swap as u64);
        h
    }

    /// Flip-back swaps only (the losing cohort's rollbacks).
    pub fn flip_backs(&self) -> usize {
        self.swaps.iter().filter(|s| s.kind == SwapKind::FlipBack).count()
    }

    /// Promotion swaps only (the holdout's adoptions).
    pub fn promotions(&self) -> usize {
        self.swaps.iter().filter(|s| s.kind == SwapKind::Promotion).count()
    }

    /// Multi-line human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cohorts    A {} | B {} | holdout {} (enrolled {})\n",
            self.split.a.len(),
            self.split.b.len(),
            self.split.holdout.len(),
            self.publications.len(),
        ));
        for (name, s) in [("A", &self.arms[0]), ("B", &self.arms[1])] {
            out.push_str(&format!(
                "arm {name}      leakage {:.3} (baseline {:.3}, advantage {:+.3}) \
                 from {} attacks, {} wire queries\n",
                s.leakage, s.baseline, s.advantage, s.attacked, s.wire_queries,
            ));
            out.push_str(&format!(
                "           {} served | latency p50 {} µs p95 {} µs | queue p95 {} µs | \
                 service p95 {} µs\n",
                s.served, s.latency_p50_us, s.latency_p95_us, s.queue_p95_us, s.service_p95_us,
            ));
        }
        out.push_str(&format!(
            "verdict    {} at {} µs (checkpoint {})\n",
            self.verdict, self.verdict_us, self.checkpoints,
        ));
        if let Some(w) = &self.flip_window {
            out.push_str(&format!(
                "flips      {} flip-backs + {} promotions | staleness {} µs | \
                 exposed {} | degraded-after-swap {}\n",
                self.flip_backs(),
                self.promotions(),
                w.staleness_us(),
                self.exposed_responses,
                self.degraded_after_swap,
            ));
        }
        out.push_str(&format!("fingerprint {:#018x}\n", self.fingerprint()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelican_sim::FNV_BASIS;

    #[test]
    fn fold_is_order_sensitive() {
        let mut a = FNV_BASIS;
        fold(&mut a, 1);
        fold(&mut a, 2);
        let mut b = FNV_BASIS;
        fold(&mut b, 2);
        fold(&mut b, 1);
        assert_ne!(a, b);
    }
}
