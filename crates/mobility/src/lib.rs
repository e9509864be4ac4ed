//! Synthetic campus mobility traces and the dataset pipeline.
//!
//! The Pelican paper evaluates on a proprietary campus-scale WiFi dataset
//! (156 buildings, 5104 access points, 300 users over Sep–Nov 2019). That
//! dataset cannot be redistributed, so this crate implements the closest
//! synthetic equivalent: a parameterized **campus simulator** that produces
//! per-user session trajectories with the statistical structure the paper's
//! results depend on —
//!
//! * routine-driven temporal correlation (class schedules, meals, dorms),
//! * heavily skewed stay-time distributions (most time in few buildings),
//! * per-user idiosyncrasy (personalized models beat a general model),
//! * controllable **degree of mobility** (how many distinct places a user
//!   visits — Fig. 3b) and **predictability** (how faithfully they follow
//!   their routine — Fig. 3c),
//! * a building→AP hierarchy for the two spatial scales of Fig. 3a.
//!
//! Sessions carry the paper's exact feature tuple: session-entry `e`
//! (discretized to 30-minute slots), session-duration `d` (10-minute bins,
//! capped at 4 hours), location `l` (building or AP) and day-of-week `w`
//! (§IV-A).
//!
//! # Example
//!
//! ```
//! use pelican_mobility::{CampusConfig, TraceGenerator, Scale};
//!
//! let config = CampusConfig::for_scale(Scale::Tiny);
//! let mut generator = TraceGenerator::new(config, 42);
//! let trace = generator.user_trace(0);
//! assert!(!trace.sessions.is_empty());
//! ```

pub mod campus;
pub mod dataset;
pub mod events;
pub mod extract;
pub mod generator;
pub mod session;
pub mod stats;
pub mod stream;
pub mod user;

pub use campus::{Building, BuildingKind, Campus, CampusConfig};
pub use dataset::{
    encode_session, train_test_split, within_weeks, DatasetBuilder, FeatureSpace, MobilityDataset,
    SpatialLevel, UserData,
};
pub use events::{sessions_to_events, ApEvent, EventKind, EventNoise};
pub use extract::{compare, extract_sessions, ExtractionReport};
pub use generator::{TraceGenerator, UserTrace};
pub use session::{
    duration_bin, entry_slot, Session, DURATION_BINS, DURATION_CAP_MINUTES, ENTRY_SLOTS,
    MINUTES_PER_DAY,
};
pub use stats::{dwell_histogram, trace_stats, TraceStats};
pub use stream::SessionCursor;
pub use user::UserProfile;

/// Problem-size presets.
///
/// | preset | buildings | APs/bldg | users | weeks |
/// |---|---|---|---|---|
/// | `Tiny` | 12 | 3 | 20 | 2 |
/// | `Small` | 40 | 8 | 60 | 8 |
/// | `Paper` | 150 | 20 | 300 | 10 |
///
/// `Paper` matches the paper's population (150 buildings with trajectories,
/// ~3000 APs vs the paper's 2956, 300 users); `Tiny` keeps unit tests fast;
/// `Small` is the default for examples and local runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Minimal topology for unit tests.
    Tiny,
    /// Laptop-friendly default.
    Small,
    /// The paper's population sizes.
    Paper,
}

impl Scale {
    /// Parses a scale name (`tiny`, `small`, `paper`), case-insensitive.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Paper => "paper",
        };
        write!(f, "{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse_round_trips() {
        for s in [Scale::Tiny, Scale::Small, Scale::Paper] {
            assert_eq!(Scale::parse(&s.to_string()), Some(s));
        }
        assert_eq!(Scale::parse("TINY"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("huge"), None);
    }
}
