//! Event traces and their determinism fingerprint.
//!
//! Every state transition the engine makes is appended to a trace in
//! execution order. Because the event queue breaks time ties by insertion
//! sequence, the trace is a pure function of the simulator's inputs —
//! [`fingerprint`] collapses it to one comparable word, which is what the
//! end-to-end determinism assertions (same seed, different trainer-pool
//! widths ⇒ bit-identical traces) compare.
//!
//! The fingerprint is FNV-1a over each event's six 64-bit words, eight
//! little-endian bytes a word — a definition, pinned by literals in
//! `tests/golden_traces.rs` and across the workspace, that the engine's
//! streaming hash (`extend`) must reproduce bit for bit. It does so in
//! fewer steps than 48 byte folds, exactly: folding a zero byte is one
//! multiply by the FNV prime, so the zero high bytes of a small word
//! collapse into one multiply by a power of it (see `fold_word`).
//! [`fnv1a`] itself, which `pelican-live` and `pelican-abx` fold byte
//! slices through, is the plain byte loop.

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

/// The 64-bit FNV prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running 64-bit FNV-1a hash — the one byte fold
/// behind every sim, live and abx fingerprint. Folding two slices in
/// turn equals folding their concatenation.
#[inline]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// One FNV-1a step.
#[inline]
fn fold_byte(h: u64, byte: u64) -> u64 {
    (h ^ byte).wrapping_mul(FNV_PRIME)
}

/// `fnv1a(h, &w.to_le_bytes())`, in fewer multiplies when `w` is small.
///
/// Exact, not approximate: an FNV-1a step over a zero byte is `(h ^ 0) *
/// P`, one multiply by the prime, so a run of `k` zero bytes is one
/// wrapping multiply by `Pᵏ` — and the high bytes of a little-endian
/// word below 2⁸ (2²⁴) are a run of seven (five). Event words are mostly
/// that small (a discriminant, a stage index, an attempt count, ids and
/// link indices of a 10⁵-device fleet, timestamps of a run's first 16
/// virtual seconds), which takes an event from 48 dependent multiplies
/// to about 18. The two cut points are fixed so the branches predict;
/// a loop that stops at the word's highest set byte does not.
#[inline]
fn fold_word(h: u64, w: u64) -> u64 {
    const P5: u64 = FNV_PRIME.wrapping_pow(5);
    const P7: u64 = FNV_PRIME.wrapping_pow(7);
    let h = fold_byte(h, w & 0xff);
    if w < 1 << 8 {
        return h.wrapping_mul(P7);
    }
    let h = fold_byte(fold_byte(h, w >> 8 & 0xff), w >> 16 & 0xff);
    if w < 1 << 24 {
        return h.wrapping_mul(P5);
    }
    (3..8).fold(h, |h, byte| fold_byte(h, w >> (8 * byte) & 0xff))
}

/// Folds one event into a running FNV-1a hash. The engine streams every
/// transition through this, so fingerprints are available even when the
/// trace itself is not retained ([`crate::TraceLevel::Fingerprint`]).
pub(crate) fn extend(h: u64, event: &TraceEvent) -> u64 {
    event.words().iter().fold(h, |h, &word| fold_word(h, word))
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
    fn the_word_fold_is_the_byte_fold() {
        let bytewise = |h: u64, w: u64| fnv1a(h, &w.to_le_bytes());
        // Both sides of both cut points, and the ends of the range.
        for w in [0, 1, 255, 256, 257, (1 << 24) - 1, 1 << 24, (1 << 24) + 1, u64::MAX] {
            for h in [FNV_BASIS, 0, u64::MAX] {
                assert_eq!(fold_word(h, w), bytewise(h, w), "h {h:#x} w {w:#x}");
            }
        }
        // 200 000 LCG words, each shifted down to every bit length, folded
        // into one running hash so every call starts from a fresh state.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let (mut fast, mut slow) = (FNV_BASIS, FNV_BASIS);
        for i in 0..200_000u32 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let w = state >> (i % 64);
            fast = fold_word(fast, w);
            slow = bytewise(slow, w);
            assert_eq!(fast, slow, "word {i}: {w:#x}");
        }
    }

    #[test]
    fn extend_folds_six_little_endian_words_per_event() {
        // One event per word shape: all-small, 2⁸..2²⁴, and the long
        // branch on every field a live 7-day stream puts there.
        let week = 7 * 86_400 * 1_000_000;
        let events = [
            TraceEvent::JobReleased { t: 0, job: 0 },
            TraceEvent::TransferQueued {
                t: 70_000,
                job: 99_999,
                stage: 2,
                link: 101_562,
                attempt: 1,
            },
            TraceEvent::TransferAbandoned {
                t: week,
                job: 1 << 56 | 17,
                stage: 1 << 24,
                link: u32::MAX as usize,
                attempts: u32::MAX,
            },
            TraceEvent::TimerFired { t: u64::MAX, key: u64::MAX },
        ];
        let mut expected = FNV_BASIS;
        for event in &events {
            for word in event.words() {
                expected = fnv1a(expected, &word.to_le_bytes());
            }
        }
        assert_eq!(fingerprint(&events), expected);
    }

    #[test]
    fn events_are_timestamped() {
        let e = TraceEvent::TransferQueued { t: 42, job: 3, stage: 1, link: 0, attempt: 2 };
        assert_eq!(e.time(), 42);
    }
}
