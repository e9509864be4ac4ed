//! Event traces and their determinism fingerprint.
//!
//! Every state transition the engine makes is appended to a trace in
//! execution order. Because the event queue breaks time ties by insertion
//! sequence, the trace is a pure function of the simulator's inputs —
//! [`fingerprint`] collapses it to one comparable word, which is what the
//! end-to-end determinism assertions (same seed, different trainer-pool
//! widths ⇒ bit-identical traces) compare.

/// One engine transition. `job` is the caller-assigned [`crate::JobSpec`]
/// id; `stage` indexes the job's stage list; `attempt` counts transfer
/// attempts from 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A job entered the system.
    JobReleased {
        /// Simulated time (µs).
        t: u64,
        /// Job id.
        job: u64,
    },
    /// A transfer attempt was submitted to its link.
    TransferQueued {
        /// Simulated time (µs).
        t: u64,
        /// Job id.
        job: u64,
        /// Stage index within the job.
        stage: usize,
        /// Link index.
        link: usize,
        /// Attempt number (1-based).
        attempt: u32,
    },
    /// A transfer attempt started moving bytes (FIFO: service start;
    /// fair-share: flow join after propagation latency).
    TransferStarted {
        /// Simulated time (µs).
        t: u64,
        /// Job id.
        job: u64,
        /// Stage index within the job.
        stage: usize,
        /// Link index.
        link: usize,
        /// Attempt number (1-based).
        attempt: u32,
    },
    /// A transfer attempt delivered its last byte.
    TransferCompleted {
        /// Simulated time (µs).
        t: u64,
        /// Job id.
        job: u64,
        /// Stage index within the job.
        stage: usize,
        /// Link index.
        link: usize,
        /// Attempt number (1-based).
        attempt: u32,
    },
    /// A transfer attempt hit its timeout (in queue or in flight).
    TransferTimedOut {
        /// Simulated time (µs).
        t: u64,
        /// Job id.
        job: u64,
        /// Stage index within the job.
        stage: usize,
        /// Link index.
        link: usize,
        /// Attempt number (1-based).
        attempt: u32,
    },
    /// Retries are exhausted; the transfer (and its job) failed.
    TransferAbandoned {
        /// Simulated time (µs).
        t: u64,
        /// Job id.
        job: u64,
        /// Stage index within the job.
        stage: usize,
        /// Link index.
        link: usize,
        /// Attempts spent.
        attempts: u32,
    },
    /// A compute stage started.
    ComputeStarted {
        /// Simulated time (µs).
        t: u64,
        /// Job id.
        job: u64,
        /// Stage index within the job.
        stage: usize,
    },
    /// A compute stage finished.
    ComputeFinished {
        /// Simulated time (µs).
        t: u64,
        /// Job id.
        job: u64,
        /// Stage index within the job.
        stage: usize,
    },
    /// A job ran out of stages — it completed.
    JobCompleted {
        /// Simulated time (µs).
        t: u64,
        /// Job id.
        job: u64,
    },
    /// A reactive-mode timer fired (see
    /// [`crate::engine::SimControl::set_timer`]). Closed replays never
    /// produce this event, so their fingerprints are unchanged.
    TimerFired {
        /// Simulated time (µs).
        t: u64,
        /// Caller-chosen timer key.
        key: u64,
    },
}

impl TraceEvent {
    /// Packs the event into hashable words: a discriminant code followed
    /// by every field.
    fn words(&self) -> [u64; 6] {
        match *self {
            TraceEvent::JobReleased { t, job } => [0, t, job, 0, 0, 0],
            TraceEvent::TransferQueued { t, job, stage, link, attempt } => {
                [1, t, job, stage as u64, link as u64, attempt as u64]
            }
            TraceEvent::TransferStarted { t, job, stage, link, attempt } => {
                [2, t, job, stage as u64, link as u64, attempt as u64]
            }
            TraceEvent::TransferCompleted { t, job, stage, link, attempt } => {
                [3, t, job, stage as u64, link as u64, attempt as u64]
            }
            TraceEvent::TransferTimedOut { t, job, stage, link, attempt } => {
                [4, t, job, stage as u64, link as u64, attempt as u64]
            }
            TraceEvent::TransferAbandoned { t, job, stage, link, attempts } => {
                [5, t, job, stage as u64, link as u64, attempts as u64]
            }
            TraceEvent::ComputeStarted { t, job, stage } => [6, t, job, stage as u64, 0, 0],
            TraceEvent::ComputeFinished { t, job, stage } => [7, t, job, stage as u64, 0, 0],
            TraceEvent::JobCompleted { t, job } => [8, t, job, 0, 0, 0],
            TraceEvent::TimerFired { t, key } => [9, t, key, 0, 0, 0],
        }
    }

    /// The event's simulated timestamp.
    pub fn time(&self) -> u64 {
        self.words()[1]
    }
}

/// FNV-1a offset basis — the fingerprint of an empty trace, and the
/// hash every [`fnv1a`] fold starts from.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running 64-bit FNV-1a hash — the one byte fold
/// behind every sim, live and abx fingerprint. Folding two slices in
/// turn equals folding their concatenation.
#[inline]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Folds one event into a running FNV-1a hash. The engine streams every
/// transition through this, so fingerprints are available even when the
/// trace itself is not retained ([`crate::TraceLevel::Fingerprint`]).
pub(crate) fn extend(h: u64, event: &TraceEvent) -> u64 {
    event.words().iter().fold(h, |h, word| fnv1a(h, &word.to_le_bytes()))
}

/// FNV-1a over the packed trace: equal fingerprints ⇔ (with overwhelming
/// probability) bit-identical traces. Cheap enough to assert on every run.
pub fn fingerprint(trace: &[TraceEvent]) -> u64 {
    trace.iter().fold(FNV_BASIS, extend)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_separates_traces() {
        let a = vec![
            TraceEvent::JobReleased { t: 0, job: 1 },
            TraceEvent::JobCompleted { t: 5, job: 1 },
        ];
        let mut b = a.clone();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        b[1] = TraceEvent::JobCompleted { t: 6, job: 1 };
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&a[..1]));
        assert_ne!(fingerprint(&[]), fingerprint(&a));
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_BASIS, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(FNV_BASIS, b"ab"), fnv1a(FNV_BASIS, b"ba"));
        assert_eq!(fnv1a(fnv1a(FNV_BASIS, b"a"), b"b"), fnv1a(FNV_BASIS, b"ab"));
    }

    #[test]
    fn events_are_timestamped() {
        let e = TraceEvent::TransferQueued { t: 42, job: 3, stage: 1, link: 0, attempt: 2 };
        assert_eq!(e.time(), 42);
    }
}
