//! Event-stream resumption: devices keep emitting sessions after
//! enrollment, and a consumer picks the stream up exactly where it left
//! off.
//!
//! The one-shot pipeline reads a user's whole trace at once; the live
//! personalization loop cannot — a device's sessions arrive over
//! (virtual) time, and every consumer (the drift trigger, the warm-start
//! re-trainer, the query builder) wants "everything new since I last
//! looked". [`SessionCursor`] is that resumable read position: a cursor
//! over one user's chronologically ordered sessions that yields each
//! session exactly once, in order, no matter how the polling instants
//! are spaced. Two cursors driven to the same minute — in one jump or a
//! thousand small ones — have consumed exactly the same prefix, which is
//! what makes the downstream drift schedule a pure function of the
//! seeded trace.

use crate::generator::UserTrace;
use crate::session::Session;

/// A resumable read position in one user's session stream.
///
/// Sessions are ordered by [`Session::absolute_entry`] (minutes since
/// the trace epoch); the cursor hands out the sessions that became
/// visible since the previous poll.
#[derive(Debug, Clone)]
pub struct SessionCursor {
    sessions: Vec<Session>,
    pos: usize,
}

impl SessionCursor {
    /// Creates a cursor at the start of a session stream. The sessions
    /// are sorted by entry time (stable for equal times) so resumption
    /// order never depends on the caller's ordering.
    pub fn new(mut sessions: Vec<Session>) -> Self {
        sessions.sort_by_key(|s| s.absolute_entry());
        Self { sessions, pos: 0 }
    }

    /// Creates a cursor over a generated trace.
    pub fn from_trace(trace: &UserTrace) -> Self {
        Self::new(trace.sessions.clone())
    }

    /// Everything that entered the stream since the last poll, up to and
    /// including minute `minute`. Each session is yielded exactly once
    /// across the cursor's lifetime; polling with a non-increasing
    /// minute yields nothing.
    fn take_through(&mut self, minute: u64) -> &[Session] {
        let start = self.pos;
        while self.pos < self.sessions.len() && self.sessions[self.pos].absolute_entry() <= minute {
            self.pos += 1;
        }
        &self.sessions[start..self.pos]
    }

    /// Skips (without yielding) everything up to and including minute
    /// `minute` — resuming a device mid-stream, e.g. after its
    /// enrollment window was consumed by the one-shot pipeline.
    pub fn resume_after(&mut self, minute: u64) {
        let _ = self.take_through(minute);
    }

    /// Sessions already consumed (yielded or skipped), oldest first.
    pub fn consumed(&self) -> &[Session] {
        &self.sessions[..self.pos]
    }

    /// Sessions still ahead of the cursor.
    pub fn remaining(&self) -> usize {
        self.sessions.len() - self.pos
    }

    /// Whether the stream is exhausted.
    pub fn is_done(&self) -> bool {
        self.pos == self.sessions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campus::CampusConfig;
    use crate::generator::TraceGenerator;
    use crate::Scale;

    fn trace() -> UserTrace {
        TraceGenerator::new(CampusConfig::for_scale(Scale::Tiny), 7).user_trace(3)
    }

    #[test]
    fn polling_cadence_does_not_change_what_is_consumed() {
        let trace = trace();
        let mut coarse = SessionCursor::from_trace(&trace);
        let mut fine = SessionCursor::from_trace(&trace);

        let horizon = trace.sessions.last().unwrap().absolute_entry();
        let jump: Vec<Session> = coarse.take_through(horizon).to_vec();
        let mut stepped = Vec::new();
        for minute in (0..=horizon).step_by(97) {
            stepped.extend_from_slice(fine.take_through(minute));
        }
        stepped.extend_from_slice(fine.take_through(horizon));

        assert_eq!(jump, stepped, "one jump and many small polls see the same stream");
        assert_eq!(jump.len(), trace.sessions.len());
        assert!(coarse.is_done() && fine.is_done());
    }

    #[test]
    fn each_session_is_yielded_exactly_once() {
        let trace = trace();
        let mut cursor = SessionCursor::from_trace(&trace);
        let horizon = trace.sessions.last().unwrap().absolute_entry();
        let first = cursor.take_through(horizon / 2).len();
        assert!(cursor.take_through(horizon / 2).is_empty(), "re-polling yields nothing");
        assert!(cursor.take_through(0).is_empty(), "time never runs backwards");
        let second = cursor.take_through(horizon).len();
        assert_eq!(first + second, trace.sessions.len());
        assert_eq!(cursor.consumed().len(), trace.sessions.len());
        assert_eq!(cursor.remaining(), 0);
    }

    #[test]
    fn resume_after_skips_the_enrollment_window() {
        let trace = trace();
        let cutoff = 7 * crate::session::MINUTES_PER_DAY as u64;
        let mut cursor = SessionCursor::from_trace(&trace);
        cursor.resume_after(cutoff);
        let before = cursor.consumed().len();
        assert_eq!(before, trace.sessions.iter().filter(|s| s.absolute_entry() <= cutoff).count());
        let rest = cursor.take_through(u64::MAX);
        assert!(rest.iter().all(|s| s.absolute_entry() > cutoff));
        assert_eq!(before + rest.len(), trace.sessions.len());
    }

    #[test]
    fn unsorted_input_is_normalized() {
        let trace = trace();
        let mut reversed: Vec<Session> = trace.sessions.clone();
        reversed.reverse();
        let mut a = SessionCursor::new(reversed);
        let mut b = SessionCursor::from_trace(&trace);
        assert_eq!(a.take_through(u64::MAX), b.take_through(u64::MAX));
    }
}
