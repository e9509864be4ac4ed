//! WiFi sessions and the paper's discretization rules.
//!
//! A [`Session`] is one stay of one user at one location — the unit the
//! paper extracts from WiFi association logs. Discretization follows §IV-A
//! exactly: session-entry in 30-minute slots, session-duration in 10-minute
//! bins capped at 4 hours ("less than 10% of users spend more time in a
//! single building"), plus day-of-week.

use serde::{Deserialize, Serialize};

/// Minutes in a day.
pub const MINUTES_PER_DAY: u32 = 24 * 60;

/// Number of 30-minute session-entry slots per day.
pub const ENTRY_SLOTS: usize = 48;

/// Duration cap in minutes (4 hours, per §IV-A).
const DURATION_CAP_MINUTES: u32 = 240;

/// Number of 10-minute duration bins (`240 / 10`).
pub const DURATION_BINS: usize = (DURATION_CAP_MINUTES / 10) as usize;

/// Days per week.
pub const DAYS_PER_WEEK: usize = 7;

/// Discretizes an entry time (minutes since midnight) into a 30-minute slot.
///
/// # Panics
///
/// Panics if `minutes_since_midnight >= 1440`.
pub fn entry_slot(minutes_since_midnight: u32) -> usize {
    assert!(
        minutes_since_midnight < MINUTES_PER_DAY,
        "entry time {minutes_since_midnight} outside a day"
    );
    (minutes_since_midnight / 30) as usize
}

/// Discretizes a duration in minutes into a 10-minute bin, capping at 4 h.
///
/// Durations of zero fall into bin 0; anything ≥ 240 minutes lands in the
/// last bin.
pub fn duration_bin(minutes: u32) -> usize {
    let capped = minutes.min(DURATION_CAP_MINUTES.saturating_sub(1));
    (capped / 10) as usize
}

/// One contiguous stay of a user at a location.
///
/// Times are kept in raw minutes so downstream code can both reproduce the
/// paper's discretization and exploit the continuity constraint
/// (`entry_next = entry + duration`) that powers the time-based inversion
/// attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Session {
    /// Index of the user this session belongs to.
    pub user: usize,
    /// Building index within the campus.
    pub building: usize,
    /// Access-point index within the campus (global, not per-building).
    pub ap: usize,
    /// Day index since the start of the trace (0-based).
    pub day: u32,
    /// Entry time in minutes since that day's midnight.
    pub entry_minutes: u32,
    /// Stay duration in minutes (uncapped; see [`duration_bin`]).
    pub duration_minutes: u32,
}

impl Session {
    /// The paper's 30-minute session-entry slot.
    pub fn entry_slot(&self) -> usize {
        entry_slot(self.entry_minutes)
    }

    /// The paper's 10-minute duration bin (capped at 4 h).
    pub fn duration_bin(&self) -> usize {
        duration_bin(self.duration_minutes)
    }

    /// Day of week, 0 = Monday (traces start on a Monday).
    pub fn day_of_week(&self) -> usize {
        (self.day as usize) % DAYS_PER_WEEK
    }

    /// Absolute entry time in minutes since the trace began.
    pub fn absolute_entry(&self) -> u64 {
        self.day as u64 * MINUTES_PER_DAY as u64 + self.entry_minutes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_slots_cover_the_day() {
        assert_eq!(entry_slot(0), 0);
        assert_eq!(entry_slot(29), 0);
        assert_eq!(entry_slot(30), 1);
        assert_eq!(entry_slot(MINUTES_PER_DAY - 1), ENTRY_SLOTS - 1);
    }

    #[test]
    #[should_panic(expected = "outside a day")]
    fn entry_slot_rejects_out_of_day() {
        entry_slot(MINUTES_PER_DAY);
    }

    #[test]
    fn duration_bins_cap_at_four_hours() {
        assert_eq!(duration_bin(0), 0);
        assert_eq!(duration_bin(9), 0);
        assert_eq!(duration_bin(10), 1);
        assert_eq!(duration_bin(239), DURATION_BINS - 1);
        assert_eq!(duration_bin(240), DURATION_BINS - 1, "cap applies");
        assert_eq!(duration_bin(10_000), DURATION_BINS - 1);
    }

    #[test]
    fn day_of_week_wraps() {
        let mut s = Session {
            user: 0,
            building: 0,
            ap: 0,
            day: 0,
            entry_minutes: 60,
            duration_minutes: 30,
        };
        assert_eq!(s.day_of_week(), 0);
        s.day = 7;
        assert_eq!(s.day_of_week(), 0);
        s.day = 8;
        assert_eq!(s.day_of_week(), 1);
    }

    #[test]
    fn absolute_entry_orders_sessions() {
        let a = Session {
            user: 0,
            building: 0,
            ap: 0,
            day: 0,
            entry_minutes: 100,
            duration_minutes: 10,
        };
        let b =
            Session { user: 0, building: 1, ap: 1, day: 1, entry_minutes: 0, duration_minutes: 10 };
        assert!(a.absolute_entry() < b.absolute_entry());
    }
}
