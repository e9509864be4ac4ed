//! Trajectory statistics used by the paper's analyses.
//!
//! Quantifies the properties the paper leans on: skewed stay-time
//! distributions ("users tend to spend a majority of their time at a
//! single location"), degree of mobility (Fig. 3b) and trajectory
//! regularity (the mechanism behind Fig. 3c's predictability axis).

use std::collections::HashMap;

use crate::session::Session;

/// Summary statistics of one user's trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Total sessions.
    pub sessions: usize,
    /// Distinct buildings visited (the paper's degree of mobility).
    pub distinct_buildings: usize,
    /// Distinct APs visited.
    pub distinct_aps: usize,
    /// Fraction of total dwell time spent in the single most-visited
    /// building.
    pub top_building_share: f64,
    /// Shannon entropy (bits) of the building dwell-time distribution.
    pub location_entropy: f64,
    /// Fraction of sessions at the modal building for their
    /// `(weekday, entry slot)` cell — a regularity score in `[0, 1]`.
    pub regularity: f64,
    /// Mean session duration in minutes.
    pub mean_duration: f64,
}

/// Computes [`TraceStats`] for a session list.
///
/// Returns a zeroed summary for an empty trajectory.
pub fn trace_stats(sessions: &[Session]) -> TraceStats {
    if sessions.is_empty() {
        return TraceStats {
            sessions: 0,
            distinct_buildings: 0,
            distinct_aps: 0,
            top_building_share: 0.0,
            location_entropy: 0.0,
            regularity: 0.0,
            mean_duration: 0.0,
        };
    }
    let mut dwell: HashMap<usize, u64> = HashMap::new();
    let mut aps: Vec<usize> = Vec::new();
    let mut total_dwell = 0u64;
    let mut total_duration = 0u64;
    for s in sessions {
        *dwell.entry(s.building).or_insert(0) += s.duration_minutes as u64;
        total_dwell += s.duration_minutes as u64;
        total_duration += s.duration_minutes as u64;
        aps.push(s.ap);
    }
    aps.sort_unstable();
    aps.dedup();

    let top = dwell.values().max().copied().unwrap_or(0);
    let entropy = dwell
        .values()
        .map(|&d| {
            let p = d as f64 / total_dwell as f64;
            if p > 0.0 {
                -p * p.log2()
            } else {
                0.0
            }
        })
        .sum();

    let mut cells: HashMap<(usize, usize), HashMap<usize, usize>> = HashMap::new();
    for s in sessions {
        *cells
            .entry((s.day_of_week(), s.entry_slot()))
            .or_default()
            .entry(s.building)
            .or_insert(0) += 1;
    }
    let (mut modal_hits, mut cell_total) = (0usize, 0usize);
    for counts in cells.values() {
        modal_hits += counts.values().max().copied().unwrap_or(0);
        cell_total += counts.values().sum::<usize>();
    }

    TraceStats {
        sessions: sessions.len(),
        distinct_buildings: dwell.len(),
        distinct_aps: aps.len(),
        top_building_share: top as f64 / total_dwell as f64,
        location_entropy: entropy,
        regularity: modal_hits as f64 / cell_total.max(1) as f64,
        mean_duration: total_duration as f64 / sessions.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CampusConfig, Scale, TraceGenerator};

    fn sessions() -> Vec<Session> {
        TraceGenerator::new(CampusConfig::for_scale(Scale::Tiny), 77).user_trace(2).sessions
    }

    #[test]
    fn stats_are_internally_consistent() {
        let s = sessions();
        let stats = trace_stats(&s);
        assert_eq!(stats.sessions, s.len());
        assert!(stats.distinct_buildings >= 1);
        assert!(stats.distinct_aps >= stats.distinct_buildings / 2);
        assert!((0.0..=1.0).contains(&stats.top_building_share));
        assert!((0.0..=1.0).contains(&stats.regularity));
        assert!(stats.location_entropy >= 0.0);
        assert!(stats.mean_duration > 0.0);
    }

    #[test]
    fn generated_traces_are_skewed_like_the_paper() {
        let stats = trace_stats(&sessions());
        assert!(
            stats.top_building_share > 0.3,
            "dominant building should hold a big dwell share, got {}",
            stats.top_building_share
        );
    }

    #[test]
    fn entropy_bounds() {
        let s = sessions();
        let stats = trace_stats(&s);
        let max_entropy = (stats.distinct_buildings as f64).log2();
        assert!(stats.location_entropy <= max_entropy + 1e-9);
    }

    #[test]
    fn empty_trace_is_zeroed() {
        let stats = trace_stats(&[]);
        assert_eq!(stats.sessions, 0);
        assert_eq!(stats.top_building_share, 0.0);
    }

    #[test]
    fn single_session_has_zero_entropy() {
        let one = vec![Session {
            user: 0,
            building: 3,
            ap: 9,
            day: 0,
            entry_minutes: 60,
            duration_minutes: 45,
        }];
        let stats = trace_stats(&one);
        assert_eq!(stats.location_entropy, 0.0);
        assert_eq!(stats.top_building_share, 1.0);
        assert_eq!(stats.regularity, 1.0);
    }
}
