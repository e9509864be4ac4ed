//! The campus trace generator.
//!
//! Produces per-user session trajectories that substitute for the paper's
//! proprietary WiFi syslog data. Sessions within a day are *nearly
//! contiguous* — consecutive sessions are separated only by short walking
//! gaps — which is exactly the cross-correlation the paper's time-based
//! inversion attack exploits ("we can assume that there exists
//! cross-correlation between consequent sequences and continuity", §III-B2).

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::campus::{Campus, CampusConfig};
use crate::session::{Session, DAYS_PER_WEEK, MINUTES_PER_DAY};
use crate::user::UserProfile;

/// Maximum walking gap between consecutive sessions, in minutes.
const MAX_TRAVEL_MINUTES: u32 = 10;

/// End of the generated day: users are back in their dorm by midnight.
const DAY_END_MINUTES: u32 = 23 * 60;

/// A user's complete trajectory plus the profile that generated it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserTrace {
    /// The behavioural profile.
    pub profile: UserProfile,
    /// Sessions in chronological order.
    pub sessions: Vec<Session>,
}

impl UserTrace {
    /// Number of distinct buildings visited — the paper's "degree of
    /// mobility" (Fig. 3b).
    pub fn distinct_buildings(&self) -> usize {
        let mut seen: Vec<usize> = self.sessions.iter().map(|s| s.building).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }
}

/// Deterministic synthetic-trace generator for one campus.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    campus: Campus,
    seed: u64,
}

impl TraceGenerator {
    /// Creates a generator over the campus described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (see [`Campus::new`]).
    pub fn new(config: CampusConfig, seed: u64) -> Self {
        Self { campus: Campus::new(config), seed }
    }

    /// The underlying campus topology.
    pub fn campus(&self) -> &Campus {
        &self.campus
    }

    /// Generates the full trace for one user, deterministic in
    /// `(seed, user_id)`.
    ///
    /// # Panics
    ///
    /// Panics if `user_id` exceeds the configured user count.
    pub fn user_trace(&mut self, user_id: usize) -> UserTrace {
        let config = self.campus.config().clone();
        assert!(user_id < config.users, "user {user_id} out of range for {} users", config.users);
        let profile = UserProfile::sample(user_id, &self.campus, self.seed);
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ 0xC0FF_EE00 ^ (user_id as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        let mut sessions = Vec::new();
        let total_days = (config.weeks * DAYS_PER_WEEK) as u32;
        for day in 0..total_days {
            self.generate_day(&profile, day, &mut rng, &mut sessions);
        }
        UserTrace { profile, sessions }
    }

    /// Generates all users' traces.
    pub fn all_traces(&mut self) -> Vec<UserTrace> {
        (0..self.campus.config().users).map(|u| self.user_trace(u)).collect()
    }

    fn generate_day(
        &self,
        profile: &UserProfile,
        day: u32,
        rng: &mut StdRng,
        out: &mut Vec<Session>,
    ) {
        let weekday = (day as usize) % DAYS_PER_WEEK;
        let anchors: Vec<_> = profile.anchors_for(weekday).into_iter().copied().collect();

        let day_start = out.len();
        let wake = 7 * 60 + rng.random_range(0..120);
        // Morning dorm session, stretched later to meet the first anchor.
        let mut current = wake;
        self.push_session(profile, day, profile.home, current, 30, rng, out);

        for anchor in &anchors {
            // Stretch the previous session to fill the gap up to the anchor
            // (students linger where they are), keeping near-contiguity.
            let travel = rng.random_range(2..=MAX_TRAVEL_MINUTES);
            let prev = out.last_mut().expect("day always starts with a dorm session");
            let prev_end = prev.entry_minutes + prev.duration_minutes;
            if anchor.entry_minutes > prev_end + travel {
                prev.duration_minutes = anchor.entry_minutes - travel - prev.entry_minutes;
            }
            current = prev.entry_minutes + prev.duration_minutes + travel;
            if current >= DAY_END_MINUTES {
                break;
            }

            // Fidelity decision: follow the routine or deviate. Deviations
            // preferentially follow the user's errand chain from wherever
            // they are now, so the *previous* location shapes the next one.
            let here = out.last().expect("nonempty day").building;
            let building = if rng.random_range(0.0..1.0) < profile.routine_fidelity {
                anchor.building
            } else if rng.random_range(0.0..1.0) < 0.6 {
                profile.transitions[here]
            } else if !profile.haunts.is_empty() && rng.random_range(0.0..1.0) < 0.7 {
                profile.haunts[rng.random_range(0..profile.haunts.len())]
            } else {
                rng.random_range(0..self.campus.buildings().len())
            };
            let kind = self.campus.buildings()[building].kind;
            let duration = if building == anchor.building {
                let jitter = rng.random_range(0..=20);
                anchor.duration_minutes.saturating_add(jitter).max(15)
            } else {
                let (lo, hi) = kind.duration_range();
                rng.random_range(lo..=hi)
            };
            self.push_session(profile, day, building, current, duration, rng, out);

            // Habitual chained errand: after this visit, continue to the
            // personal successor of the visited building (first-order
            // Markov structure; see `UserProfile::transitions`).
            if rng.random_range(0.0..1.0) < profile.chain_prob {
                let prev_end = {
                    let prev = out.last().expect("just pushed");
                    prev.entry_minutes + prev.duration_minutes
                };
                let travel = rng.random_range(2..=MAX_TRAVEL_MINUTES);
                let entry = prev_end + travel;
                if entry < DAY_END_MINUTES {
                    let next = profile.transitions[building];
                    if next != building {
                        let (lo, hi) = self.campus.buildings()[next].kind.duration_range();
                        let duration = rng.random_range(lo..=hi);
                        self.push_session(profile, day, next, entry, duration, rng, out);
                    }
                }
            }
        }

        // Evening: return home until the day ends.
        let prev = out.last().expect("at least the morning session exists");
        let travel = rng.random_range(2..=MAX_TRAVEL_MINUTES);
        let mut entry = prev.entry_minutes + prev.duration_minutes + travel;
        if entry < DAY_END_MINUTES {
            if out[day_start..].last().map(|s| s.building) == Some(profile.home) {
                // Already home; extend instead of opening a zero-move session.
                let last = out.last_mut().expect("nonempty");
                last.duration_minutes = DAY_END_MINUTES.saturating_sub(last.entry_minutes);
            } else {
                entry = entry.min(MINUTES_PER_DAY - 1);
                let duration = DAY_END_MINUTES.saturating_sub(entry).max(30);
                self.push_session(profile, day, profile.home, entry, duration, rng, out);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_session(
        &self,
        profile: &UserProfile,
        day: u32,
        building: usize,
        entry: u32,
        duration: u32,
        rng: &mut StdRng,
        out: &mut Vec<Session>,
    ) {
        let entry = entry.min(MINUTES_PER_DAY - 1);
        let b = &self.campus.buildings()[building];
        // Mostly the preferred AP; sometimes a random one in the building.
        let ap = if rng.random_range(0.0..1.0) < 0.75 {
            b.ap_range.start + profile.ap_affinity[building] % b.ap_range.len()
        } else {
            b.ap_range.start + rng.random_range(0..b.ap_range.len())
        };
        out.push(Session {
            user: profile.id,
            building,
            ap,
            day,
            entry_minutes: entry,
            duration_minutes: duration.max(5),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    fn generator() -> TraceGenerator {
        TraceGenerator::new(CampusConfig::for_scale(Scale::Tiny), 1234)
    }

    #[test]
    fn traces_are_deterministic() {
        let a = generator().user_trace(0);
        let b = generator().user_trace(0);
        assert_eq!(a, b);
    }

    #[test]
    fn sessions_are_chronological_and_within_day() {
        let trace = generator().user_trace(1);
        for pair in trace.sessions.windows(2) {
            assert!(pair[0].absolute_entry() <= pair[1].absolute_entry());
        }
        for s in &trace.sessions {
            assert!(s.entry_minutes < MINUTES_PER_DAY);
            assert!(s.duration_minutes >= 5);
        }
    }

    #[test]
    fn same_day_sessions_are_nearly_contiguous() {
        let trace = generator().user_trace(2);
        for pair in trace.sessions.windows(2) {
            if pair[0].day == pair[1].day {
                let end = pair[0].entry_minutes + pair[0].duration_minutes;
                let gap = pair[1].entry_minutes as i64 - end as i64;
                assert!(
                    (0..=MAX_TRAVEL_MINUTES as i64).contains(&gap),
                    "gap of {gap} minutes between contiguous sessions"
                );
            }
        }
    }

    #[test]
    fn day_starts_and_ends_at_home() {
        let trace = generator().user_trace(3);
        let home = trace.profile.home;
        let total_days = trace.sessions.iter().map(|s| s.day).max().unwrap() + 1;
        for day in 0..total_days {
            let day_sessions: Vec<_> = trace.sessions.iter().filter(|s| s.day == day).collect();
            assert!(!day_sessions.is_empty(), "every day has sessions");
            assert_eq!(day_sessions[0].building, home, "day {day} starts at home");
            assert_eq!(
                day_sessions.last().unwrap().building,
                home,
                "day {day} ends at home (the paper's dorm filter)"
            );
        }
    }

    #[test]
    fn most_time_is_spent_at_few_buildings() {
        // The paper: "users tend to spend a majority of their time at a
        // single location". Check the generator reproduces that skew.
        let trace = generator().user_trace(4);
        let mut per_building = std::collections::HashMap::new();
        let mut total = 0u64;
        for s in &trace.sessions {
            *per_building.entry(s.building).or_insert(0u64) += s.duration_minutes as u64;
            total += s.duration_minutes as u64;
        }
        let max = per_building.values().max().copied().unwrap_or(0);
        assert!(max as f64 / total as f64 > 0.35, "top building should dominate ({max}/{total})");
    }

    #[test]
    fn aps_belong_to_their_building() {
        let mut generator = generator();
        let campus_total = generator.campus().total_aps();
        let trace = generator.user_trace(5);
        for s in &trace.sessions {
            assert!(s.ap < campus_total);
            assert_eq!(generator.campus().building_of_ap(s.ap), Some(s.building));
        }
    }

    #[test]
    fn higher_fidelity_users_repeat_themselves_more() {
        // Correlation sanity for Fig. 3c: across users, routine fidelity
        // should track trajectory regularity. Compare extreme users.
        let mut generator = TraceGenerator::new(CampusConfig::for_scale(Scale::Small), 5);
        let traces = generator.all_traces();
        let mut lo_f: Option<&UserTrace> = None;
        let mut hi_f: Option<&UserTrace> = None;
        for t in &traces {
            if lo_f.is_none_or(|l| t.profile.routine_fidelity < l.profile.routine_fidelity) {
                lo_f = Some(t);
            }
            if hi_f.is_none_or(|h| t.profile.routine_fidelity > h.profile.routine_fidelity) {
                hi_f = Some(t);
            }
        }
        let regularity = |t: &UserTrace| {
            // Fraction of weekday sessions at the user's modal building for
            // that (weekday, entry-slot) cell.
            use std::collections::HashMap;
            let mut cells: HashMap<(usize, usize), HashMap<usize, usize>> = HashMap::new();
            for s in &t.sessions {
                *cells
                    .entry((s.day_of_week(), s.entry_slot()))
                    .or_default()
                    .entry(s.building)
                    .or_insert(0) += 1;
            }
            let (mut hits, mut total) = (0usize, 0usize);
            for counts in cells.values() {
                let max = counts.values().max().copied().unwrap_or(0);
                let sum: usize = counts.values().sum();
                hits += max;
                total += sum;
            }
            hits as f64 / total.max(1) as f64
        };
        assert!(
            regularity(hi_f.unwrap()) > regularity(lo_f.unwrap()),
            "clockwork user should be more regular"
        );
    }
}
