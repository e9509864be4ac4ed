//! Trajectory extraction from raw WiFi events.
//!
//! Rebuilds per-device sessions from an AP event stream — the paper's
//! "well known methods for extracting device trajectories from WiFi logs"
//! (Trivedi et al., cited in §IV-A). The extractor handles the noise real
//! controller logs exhibit:
//!
//! * keep-alive reassociations while dwelling (merged into the open stay),
//! * missing disassociations (a stay is closed when the device shows up at
//!   a different AP, or after an idle timeout),
//! * short AP flaps (stays below a minimum dwell are discarded, matching
//!   the standard practice of filtering pass-by associations).

use crate::campus::Campus;
use crate::events::{ApEvent, EventKind};
use crate::session::{Session, MINUTES_PER_DAY};

/// Close an open stay if no event arrives for this many minutes: an hour,
/// above the default 45-minute keep-alive cadence of
/// [`EventNoise`](crate::events::EventNoise), so a device that stays put
/// is never split.
const IDLE_TIMEOUT: u64 = 60;
/// Discard stays shorter than this many minutes — pass-by associations
/// of a device walking past an AP.
const MIN_DWELL: u32 = 5;

/// One open stay being assembled.
#[derive(Debug, Clone, Copy)]
struct OpenStay {
    ap: usize,
    start: u64,
    last_seen: u64,
}

/// Reconstructs one device's chronological sessions from its event stream.
///
/// `events` must belong to a single device and be timestamp-sorted (as
/// produced by [`crate::events::sessions_to_events`]). The campus maps APs
/// back to buildings.
///
/// # Panics
///
/// Panics if an event references an AP outside the campus.
pub fn extract_sessions(events: &[ApEvent], campus: &Campus) -> Vec<Session> {
    let mut sessions = Vec::new();
    let mut open: Option<OpenStay> = None;
    for e in events {
        let building = campus
            .building_of_ap(e.ap)
            .unwrap_or_else(|| panic!("event references unknown AP {}", e.ap));
        let _ = building;
        match (&mut open, e.kind) {
            (Some(stay), EventKind::Disassociation) if stay.ap == e.ap => {
                // Explicit end: trust the controller's timestamp.
                let closed = *stay;
                close(&mut sessions, closed, e.timestamp, campus, e.device);
                open = None;
            }
            (Some(stay), _) if stay.ap == e.ap => {
                // Same AP, device still alive: extend — unless the silence
                // exceeded the idle timeout, in which case the old stay
                // ended at its last sighting and a new one begins.
                if e.timestamp.saturating_sub(stay.last_seen) > IDLE_TIMEOUT {
                    let closed = *stay;
                    close(&mut sessions, closed, closed.last_seen, campus, e.device);
                    open = Some(OpenStay { ap: e.ap, start: e.timestamp, last_seen: e.timestamp });
                } else {
                    stay.last_seen = e.timestamp;
                }
            }
            (Some(stay), kind) => {
                // Device surfaced at a different AP: close the old stay at
                // its last sighting (handles missing disassociations).
                let closed = *stay;
                close(&mut sessions, closed, closed.last_seen.max(closed.start), campus, e.device);
                open = match kind {
                    EventKind::Disassociation => None,
                    _ => Some(OpenStay { ap: e.ap, start: e.timestamp, last_seen: e.timestamp }),
                };
            }
            (None, EventKind::Association) | (None, EventKind::Reassociation) => {
                open = Some(OpenStay { ap: e.ap, start: e.timestamp, last_seen: e.timestamp });
            }
            (None, EventKind::Disassociation) => {
                // Orphan disassociation (trace started mid-stay); ignore.
            }
        }
    }
    if let Some(stay) = open {
        let device = events.last().map_or(0, |e| e.device);
        close(&mut sessions, stay, stay.last_seen, campus, device);
    }
    sessions
}

fn close(sessions: &mut Vec<Session>, stay: OpenStay, end: u64, campus: &Campus, device: usize) {
    let duration = end.saturating_sub(stay.start) as u32;
    if duration < MIN_DWELL {
        return;
    }
    let day = (stay.start / MINUTES_PER_DAY as u64) as u32;
    let entry_minutes = (stay.start % MINUTES_PER_DAY as u64) as u32;
    let building = campus.building_of_ap(stay.ap).expect("validated in extract_sessions");
    sessions.push(Session {
        user: device,
        building,
        ap: stay.ap,
        day,
        entry_minutes,
        duration_minutes: duration,
    });
}

/// Extraction fidelity: how closely reconstructed sessions match ground
/// truth (used to validate the pipeline, and interesting in its own right
/// as the paper's preprocessing step).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtractionReport {
    /// Ground-truth session count.
    pub truth: usize,
    /// Reconstructed session count.
    pub extracted: usize,
    /// Sessions whose (ap, day, entry slot) match a ground-truth session.
    pub matched: usize,
}

impl ExtractionReport {
    /// Fraction of ground-truth sessions recovered.
    pub fn recall(&self) -> f64 {
        if self.truth == 0 {
            return 1.0;
        }
        self.matched as f64 / self.truth as f64
    }
}

/// Compares reconstructed sessions against ground truth at the paper's
/// discretization granularity.
pub fn compare(truth: &[Session], extracted: &[Session]) -> ExtractionReport {
    let key = |s: &Session| (s.ap, s.day, s.entry_slot());
    let mut truth_keys: Vec<_> = truth.iter().map(key).collect();
    truth_keys.sort_unstable();
    let matched = extracted.iter().filter(|s| truth_keys.binary_search(&key(s)).is_ok()).count();
    ExtractionReport { truth: truth.len(), extracted: extracted.len(), matched }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{sessions_to_events, EventNoise};
    use crate::{CampusConfig, Scale, TraceGenerator};

    fn setup() -> (Campus, Vec<Session>) {
        let mut generator = TraceGenerator::new(CampusConfig::for_scale(Scale::Tiny), 9);
        let trace = generator.user_trace(1);
        (generator.campus().clone(), trace.sessions)
    }

    #[test]
    fn clean_events_round_trip_exactly() {
        let (campus, truth) = setup();
        let events = sessions_to_events(&truth, EventNoise::none());
        let extracted = extract_sessions(&events, &campus);
        assert_eq!(extracted.len(), truth.len());
        for (t, e) in truth.iter().zip(&extracted) {
            assert_eq!(t.ap, e.ap);
            assert_eq!(t.day, e.day);
            assert_eq!(t.entry_minutes, e.entry_minutes);
            assert_eq!(t.duration_minutes, e.duration_minutes);
        }
    }

    #[test]
    fn noisy_events_recover_most_sessions() {
        let (campus, truth) = setup();
        let events = sessions_to_events(&truth, EventNoise::default());
        let extracted = extract_sessions(&events, &campus);
        let report = compare(&truth, &extracted);
        assert!(
            report.recall() > 0.9,
            "extraction should recover >90% of sessions, got {:.2} ({} of {})",
            report.recall(),
            report.matched,
            report.truth
        );
    }

    #[test]
    fn keepalives_extend_instead_of_splitting() {
        let (campus, _) = setup();
        let truth = vec![Session {
            user: 0,
            building: 0,
            ap: 0,
            day: 0,
            entry_minutes: 100,
            duration_minutes: 200,
        }];
        let noise = EventNoise { reassoc_interval: 30, drop_every_nth_disassoc: usize::MAX };
        let events = sessions_to_events(&truth, noise);
        let extracted = extract_sessions(&events, &campus);
        assert_eq!(extracted.len(), 1, "keep-alives must not split the stay");
        assert_eq!(extracted[0].duration_minutes, 200);
    }

    #[test]
    fn missing_disassociation_closes_at_next_ap() {
        let (campus, _) = setup();
        let truth = vec![
            Session {
                user: 0,
                building: 0,
                ap: 0,
                day: 0,
                entry_minutes: 60,
                duration_minutes: 50,
            },
            Session {
                user: 0,
                building: 0,
                ap: 1,
                day: 0,
                entry_minutes: 115,
                duration_minutes: 40,
            },
        ];
        let noise = EventNoise { reassoc_interval: 20, drop_every_nth_disassoc: 1 };
        // Every disassociation dropped; keep-alives keep last_seen fresh.
        let events = sessions_to_events(&truth, noise);
        let extracted = extract_sessions(&events, &campus);
        assert_eq!(extracted.len(), 2);
        assert_eq!(extracted[0].ap, 0);
        assert_eq!(extracted[1].ap, 1);
    }

    #[test]
    fn short_flaps_are_filtered() {
        let (campus, _) = setup();
        let truth = vec![Session {
            user: 0,
            building: 0,
            ap: 0,
            day: 0,
            entry_minutes: 60,
            duration_minutes: 2,
        }];
        let events = sessions_to_events(&truth, EventNoise::none());
        let extracted = extract_sessions(&events, &campus);
        assert!(extracted.is_empty(), "2-minute flap is below min dwell");
    }

    #[test]
    fn orphan_disassociation_is_ignored() {
        let (campus, _) = setup();
        let events =
            vec![ApEvent { device: 0, ap: 0, kind: EventKind::Disassociation, timestamp: 100 }];
        let extracted = extract_sessions(&events, &campus);
        assert!(extracted.is_empty());
    }
}
