//! Outcome of one live personalization run: the serving pass, every
//! drift-triggered re-train, and the zero-cost re-audit sweeps.

use pelican_serve::SimServeOutcome;
use pelican_sim::{fnv1a, FNV_BASIS};
use pelican_tensor::nearest_rank;
use pelican_train::{GateOutcome, TrainReport};

/// One drift-triggered incremental re-train, from detection to durable
/// publication on the virtual clock.
#[derive(Debug, Clone)]
pub struct RetrainRecord {
    /// The re-trained user.
    pub user_id: usize,
    /// Virtual time the drift trigger fired.
    pub detect_us: u64,
    /// Virtual time the retrain round dispatched the job.
    pub round_us: u64,
    /// Virtual time the re-trained envelope became service-visible.
    pub publish_us: u64,
    /// Simulated device-tier training time (µs) — the job's occupancy of
    /// the trainer resource, bit-identical for any pool width.
    pub train_simulated_us: u64,
    /// Simulated device-tier audit time (µs).
    pub audit_simulated_us: u64,
    /// The audit gate's record for the warm candidate.
    pub gate: GateOutcome,
    /// Whether the safety net reverted this publication (the re-trained
    /// model regressed against its predecessor on the fresh window).
    pub rolled_back: bool,
    /// Size of the published envelope in bytes.
    pub envelope_bytes: usize,
    /// FNV-1a over the published envelope bytes (fingerprint input —
    /// version numbers are schedule-dependent, bytes are not).
    pub envelope_hash: u64,
}

impl RetrainRecord {
    /// Round dispatch → publication (µs): how long the re-train held the
    /// trainer resource plus its queueing.
    pub fn latency_us(&self) -> u64 {
        self.publish_us - self.round_us
    }

    /// Drift detection → publication (µs): how long queries kept being
    /// answered by the stale model.
    pub fn staleness_us(&self) -> u64 {
        self.publish_us - self.detect_us
    }
}

/// Aggregate counters of the post-round re-audit sweeps: every user
/// whose weights did *not* change this round is re-verified against the
/// gate's attack suite from their warm logit cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReauditStats {
    /// Re-audits run across all sweeps.
    pub audits: u64,
    /// Black-box attack queries those re-audits issued.
    pub queries: u64,
    /// Oracle queries answered from the warm caches.
    pub hits: u64,
    /// Oracle queries that ran a forward pass — zero when every
    /// re-audited candidate was truly unchanged.
    pub misses: u64,
}

/// Everything one [`crate::run_live`] call produced.
#[derive(Debug, Clone)]
pub struct LiveOutcome {
    /// The one-shot bootstrap pipeline's report (enrollment era).
    pub bootstrap: TrainReport,
    /// The serving pass: batches, completions, round trips and the
    /// unified sim trace the whole loop ran on.
    pub serve: SimServeOutcome,
    /// Every re-train, in publication order on the virtual clock.
    pub retrains: Vec<RetrainRecord>,
    /// Re-audit sweep counters.
    pub reaudit: ReauditStats,
    /// Drift-trigger firings (marks), including ones still unserved when
    /// the stream ended.
    pub drift_marks: u64,
    /// Users still marked or in-flight when the event heap drained.
    pub pending_at_end: usize,
    /// Audit queries, summed over every user, whose frozen-prefix
    /// activations were already in the user's prefix tier — work the
    /// re-trains' admissions did not repeat. Host-side bookkeeping: what
    /// a hit saves is not priced on the virtual clock, so neither counter
    /// is part of [`LiveOutcome::fingerprint`].
    pub prefix_hits: u64,
    /// Audit queries that ran the frozen prefix (each user's first
    /// admission, and any query a later one asked for the first time).
    pub prefix_misses: u64,
}

impl LiveOutcome {
    /// Determinism fingerprint of the whole loop: the serving trace, plus
    /// every publication's (user, virtual times, rollback flag, envelope
    /// bytes) and the re-audit counters. Registry *version numbers* are
    /// deliberately excluded — the bootstrap pipeline assigns them in
    /// host completion order — so the fingerprint is bit-identical
    /// across trainer-pool widths.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv1a(FNV_BASIS, &self.serve.fingerprint().to_le_bytes());
        for r in &self.retrains {
            h = fnv1a(h, &(r.user_id as u64).to_le_bytes());
            h = fnv1a(h, &r.detect_us.to_le_bytes());
            h = fnv1a(h, &r.round_us.to_le_bytes());
            h = fnv1a(h, &r.publish_us.to_le_bytes());
            h = fnv1a(h, &[u8::from(r.rolled_back)]);
            h = fnv1a(h, &r.envelope_hash.to_le_bytes());
            h = fnv1a(h, &r.gate.queries.to_le_bytes());
            h = fnv1a(h, &r.gate.cache_misses.to_le_bytes());
        }
        h = fnv1a(h, &self.reaudit.audits.to_le_bytes());
        h = fnv1a(h, &self.reaudit.hits.to_le_bytes());
        h = fnv1a(h, &self.reaudit.misses.to_le_bytes());
        h = fnv1a(h, &self.drift_marks.to_le_bytes());
        h
    }

    /// Publications the safety net reverted.
    pub fn rollbacks(&self) -> usize {
        self.retrains.iter().filter(|r| r.rolled_back).count()
    }

    /// Forward passes the re-trains' audits actually ran.
    pub fn retrain_forward_passes(&self) -> u64 {
        self.retrains.iter().map(|r| r.gate.cache_misses).sum()
    }

    /// Forward passes saved across re-train ladders and re-audit sweeps.
    pub fn forward_passes_saved(&self) -> u64 {
        self.retrains.iter().map(|r| r.gate.cached).sum::<u64>() + self.reaudit.hits
    }

    /// Median round-dispatch → publication latency (µs).
    pub fn retrain_latency_p50_us(&self) -> u64 {
        self.latency_percentile(|r| r.latency_us(), 0.50)
    }

    /// 95th-percentile round-dispatch → publication latency (µs).
    pub fn retrain_latency_p95_us(&self) -> u64 {
        self.latency_percentile(|r| r.latency_us(), 0.95)
    }

    /// Median drift-detection → publication staleness (µs).
    pub fn staleness_p50_us(&self) -> u64 {
        self.latency_percentile(|r| r.staleness_us(), 0.50)
    }

    /// 95th-percentile drift-detection → publication staleness (µs).
    pub fn staleness_p95_us(&self) -> u64 {
        self.latency_percentile(|r| r.staleness_us(), 0.95)
    }

    fn latency_percentile(&self, f: impl Fn(&RetrainRecord) -> u64, q: f64) -> u64 {
        let mut values: Vec<u64> = self.retrains.iter().map(f).collect();
        values.sort_unstable();
        nearest_rank(&values, q).unwrap_or(0)
    }

    /// Multi-line human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "live loop   {} served, {} dropped, {} batches (fingerprint {:016x})\n",
            self.serve.served.len(),
            self.serve.dropped,
            self.serve.batches.len(),
            self.fingerprint(),
        ));
        out.push_str(&format!(
            "retrains    {} published ({} rolled back, {} marks, {} pending at end)\n",
            self.retrains.len(),
            self.rollbacks(),
            self.drift_marks,
            self.pending_at_end,
        ));
        out.push_str(&format!(
            "latency     retrain p50 {}us p95 {}us, staleness p50 {}us p95 {}us\n",
            self.retrain_latency_p50_us(),
            self.retrain_latency_p95_us(),
            self.staleness_p50_us(),
            self.staleness_p95_us(),
        ));
        out.push_str(&format!(
            "re-audits   {} runs, {} queries: {} cached, {} forward passes; \
             frozen prefix reused for {} audit queries, run for {}\n",
            self.reaudit.audits,
            self.reaudit.queries,
            self.reaudit.hits,
            self.reaudit.misses,
            self.prefix_hits,
            self.prefix_misses,
        ));
        out
    }
}
