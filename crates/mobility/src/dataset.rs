//! Feature encoding and dataset assembly.
//!
//! Turns session trajectories into the paper's learning task (§IV-A): the
//! model `M : x_{t−2}, x_{t−1} → l_t` consumes two consecutive sessions,
//! each encoded as the one-hot concatenation `[location | entry-slot |
//! duration-bin | day-of-week]`, and predicts the next location.
//!
//! The same [`FeatureSpace`] that encodes training data also *decodes*
//! candidate vectors for the inversion attacks, which must enumerate or
//! reconstruct feature blocks.

use serde::{Deserialize, Serialize};

use pelican_nn::{Sample, Sequence, Step};

use crate::campus::CampusConfig;
use crate::generator::{TraceGenerator, UserTrace};
use crate::session::{Session, DAYS_PER_WEEK, DURATION_BINS, ENTRY_SLOTS};

/// The paper's two spatial resolutions (Fig. 3a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpatialLevel {
    /// Coarse: building-level locations (150 classes at paper scale).
    Building,
    /// Fine: access-point-level locations (~3000 classes at paper scale).
    Ap,
}

impl std::fmt::Display for SpatialLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpatialLevel::Building => write!(f, "bldg"),
            SpatialLevel::Ap => write!(f, "ap"),
        }
    }
}

/// Layout of the one-hot feature vector for one timestep.
///
/// Blocks, in order: location (`n_locations` wide), entry slot (48),
/// duration bin (24), day-of-week (7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureSpace {
    /// Spatial resolution of the location block.
    pub level: SpatialLevel,
    /// Number of location classes (domain-equalized across users, §III-A3).
    pub n_locations: usize,
}

impl FeatureSpace {
    /// Creates a feature space over `n_locations` location classes.
    ///
    /// # Panics
    ///
    /// Panics if `n_locations == 0`.
    pub fn new(level: SpatialLevel, n_locations: usize) -> Self {
        assert!(n_locations > 0, "need at least one location class");
        Self { level, n_locations }
    }

    /// Total feature dimension per timestep.
    pub fn dim(&self) -> usize {
        self.n_locations + ENTRY_SLOTS + DURATION_BINS + DAYS_PER_WEEK
    }

    /// Offset of the entry-slot block.
    pub fn entry_offset(&self) -> usize {
        self.n_locations
    }

    /// Offset of the duration-bin block.
    pub fn duration_offset(&self) -> usize {
        self.n_locations + ENTRY_SLOTS
    }

    /// Offset of the day-of-week block.
    pub fn dow_offset(&self) -> usize {
        self.n_locations + ENTRY_SLOTS + DURATION_BINS
    }

    /// The location index a session maps to at this spatial level.
    pub fn location_of(&self, s: &Session) -> usize {
        match self.level {
            SpatialLevel::Building => s.building,
            SpatialLevel::Ap => s.ap,
        }
    }

    /// Encodes discrete features into a one-hot step vector.
    ///
    /// # Panics
    ///
    /// Panics if any index exceeds its block width.
    pub fn encode(
        &self,
        location: usize,
        entry_slot: usize,
        duration_bin: usize,
        dow: usize,
    ) -> Step {
        let mut x = vec![0.0; self.dim()];
        self.encode_into(location, entry_slot, duration_bin, dow, &mut x);
        x
    }

    /// [`FeatureSpace::encode`] into a caller's all-zero buffer (e.g. one
    /// row of a candidate matrix): sets the four hot entries.
    ///
    /// # Panics
    ///
    /// Panics if any index exceeds its block width or `x.len() != self.dim()`.
    pub fn encode_into(
        &self,
        location: usize,
        entry_slot: usize,
        duration_bin: usize,
        dow: usize,
        x: &mut [f32],
    ) {
        assert!(location < self.n_locations, "location {location} out of range");
        assert!(entry_slot < ENTRY_SLOTS, "entry slot {entry_slot} out of range");
        assert!(duration_bin < DURATION_BINS, "duration bin {duration_bin} out of range");
        assert!(dow < DAYS_PER_WEEK, "day of week {dow} out of range");
        assert_eq!(x.len(), self.dim(), "buffer is not one step wide");
        x[location] = 1.0;
        x[self.entry_offset() + entry_slot] = 1.0;
        x[self.duration_offset() + duration_bin] = 1.0;
        x[self.dow_offset() + dow] = 1.0;
    }

    /// Encodes a session.
    pub fn encode_session(&self, s: &Session) -> Step {
        self.encode(self.location_of(s), s.entry_slot(), s.duration_bin(), s.day_of_week())
    }

    /// Decodes the hottest index of each block:
    /// `(location, entry_slot, duration_bin, dow)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn decode(&self, x: &[f32]) -> (usize, usize, usize, usize) {
        assert_eq!(x.len(), self.dim(), "feature vector has wrong dimension");
        let loc = pelican_tensor::argmax(&x[..self.n_locations]).expect("nonempty block");
        let entry = pelican_tensor::argmax(&x[self.entry_offset()..self.duration_offset()])
            .expect("nonempty block");
        let dur = pelican_tensor::argmax(&x[self.duration_offset()..self.dow_offset()])
            .expect("nonempty block");
        let dow = pelican_tensor::argmax(&x[self.dow_offset()..]).expect("nonempty block");
        (loc, entry, dur, dow)
    }
}

/// Encodes a session at the given spatial level within `space`.
///
/// Convenience free function mirroring [`FeatureSpace::encode_session`].
pub fn encode_session(space: &FeatureSpace, s: &Session) -> Step {
    space.encode_session(s)
}

/// Per-user data: the raw session triples the learning task is built from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserData {
    /// User index.
    pub user_id: usize,
    /// The generating trace (profile + sessions).
    pub trace: UserTrace,
    /// Consecutive same-day session triples `(x_{t−2}, x_{t−1}, x_t)`.
    pub triples: Vec<[Session; 3]>,
}

/// Whether a triple's target session falls in the trace's first `weeks`
/// weeks — Table IV's training-size cut.
pub fn within_weeks(triple: &[Session; 3], weeks: usize) -> bool {
    triple[2].day < (weeks * DAYS_PER_WEEK) as u32
}

/// A complete dataset: traces, triples and the feature space to encode them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MobilityDataset {
    /// Feature layout shared by all samples.
    pub space: FeatureSpace,
    /// Per-user data, indexed by user id.
    pub users: Vec<UserData>,
}

impl MobilityDataset {
    /// Converts a triple into a labelled training sample.
    pub fn sample_of(&self, triple: &[Session; 3]) -> Sample {
        let xs: Sequence =
            vec![self.space.encode_session(&triple[0]), self.space.encode_session(&triple[1])];
        Sample::new(xs, self.space.location_of(&triple[2]))
    }

    /// All samples for one user, time-ordered.
    pub fn user_samples(&self, user_id: usize) -> Vec<Sample> {
        self.users[user_id].triples.iter().map(|t| self.sample_of(t)).collect()
    }

    /// Pools the samples of a range of users (the contributor set `G` that
    /// trains the general model).
    pub fn pooled_samples(&self, users: std::ops::Range<usize>) -> Vec<Sample> {
        users.flat_map(|u| self.users[u].triples.iter().map(|t| self.sample_of(t))).collect()
    }

    /// Number of location classes.
    pub fn n_locations(&self) -> usize {
        self.space.n_locations
    }
}

/// Builds [`MobilityDataset`]s from a campus configuration.
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    config: CampusConfig,
    seed: u64,
}

impl DatasetBuilder {
    /// Creates a builder for the given campus and seed.
    pub fn new(config: CampusConfig, seed: u64) -> Self {
        Self { config, seed }
    }

    /// Generates the dataset at a spatial level.
    ///
    /// The location domain is *domain-equalized* (§III-A3): every user's
    /// feature space spans all campus locations, not just those the user
    /// visited — the paper's prerequisite for transfer learning between the
    /// general and personal domains.
    pub fn build(&self, level: SpatialLevel) -> MobilityDataset {
        let mut generator = TraceGenerator::new(self.config.clone(), self.seed);
        let n_locations = match level {
            SpatialLevel::Building => self.config.buildings,
            SpatialLevel::Ap => self.config.total_aps(),
        };
        let space = FeatureSpace::new(level, n_locations);
        let users = generator
            .all_traces()
            .into_iter()
            .enumerate()
            .map(|(user_id, trace)| {
                let triples = extract_triples(&trace.sessions);
                UserData { user_id, trace, triples }
            })
            .collect();
        MobilityDataset { space, users }
    }
}

/// Extracts all same-day consecutive session triples from a trajectory.
fn extract_triples(sessions: &[Session]) -> Vec<[Session; 3]> {
    sessions
        .windows(3)
        .filter(|w| w[0].day == w[1].day && w[1].day == w[2].day)
        .map(|w| [w[0], w[1], w[2]])
        .collect()
}

/// Splits samples into time-ordered train/test partitions.
///
/// The first `train_fraction` of each user's (already chronological)
/// samples become training data; the rest are test data — the paper's
/// 80/20 protocol without temporal leakage.
///
/// # Panics
///
/// Panics unless `0 < train_fraction < 1`.
pub fn train_test_split<T: Clone>(items: &[T], train_fraction: f64) -> (Vec<T>, Vec<T>) {
    assert!(
        train_fraction > 0.0 && train_fraction < 1.0,
        "train fraction must be in (0, 1), got {train_fraction}"
    );
    let cut = ((items.len() as f64) * train_fraction).round() as usize;
    let cut = cut.min(items.len());
    (items[..cut].to_vec(), items[cut..].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    fn dataset(level: SpatialLevel) -> MobilityDataset {
        DatasetBuilder::new(CampusConfig::for_scale(Scale::Tiny), 7).build(level)
    }

    #[test]
    fn encode_decode_round_trips() {
        let space = FeatureSpace::new(SpatialLevel::Building, 12);
        for (loc, entry, dur, dow) in [(0, 0, 0, 0), (11, 47, 23, 6), (5, 20, 10, 3)] {
            let x = space.encode(loc, entry, dur, dow);
            assert_eq!(space.decode(&x), (loc, entry, dur, dow));
            assert_eq!(x.iter().filter(|&&v| v != 0.0).count(), 4, "exactly four hot bits");
        }
    }

    #[test]
    fn feature_dim_matches_paper_layout() {
        let space = FeatureSpace::new(SpatialLevel::Building, 150);
        assert_eq!(space.dim(), 150 + 48 + 24 + 7);
    }

    #[test]
    fn triples_stay_within_one_day() {
        let ds = dataset(SpatialLevel::Building);
        for u in &ds.users {
            for t in &u.triples {
                assert_eq!(t[0].day, t[2].day);
                assert!(t[0].absolute_entry() <= t[1].absolute_entry());
            }
        }
    }

    #[test]
    fn samples_have_two_steps_and_valid_targets() {
        let ds = dataset(SpatialLevel::Building);
        let samples = ds.user_samples(0);
        assert!(!samples.is_empty());
        for s in &samples {
            assert_eq!(s.xs.len(), 2);
            assert_eq!(s.xs[0].len(), ds.space.dim());
            assert!(s.target < ds.n_locations());
        }
    }

    #[test]
    fn ap_level_has_larger_domain() {
        let b = dataset(SpatialLevel::Building);
        let a = dataset(SpatialLevel::Ap);
        assert!(a.n_locations() > b.n_locations());
        assert_eq!(a.n_locations(), b.n_locations() * 3, "tiny preset has 3 APs per building");
    }

    #[test]
    fn pooled_samples_concatenate_users() {
        let ds = dataset(SpatialLevel::Building);
        let pooled = ds.pooled_samples(0..3);
        let expect: usize = (0..3).map(|u| ds.users[u].triples.len()).sum();
        assert_eq!(pooled.len(), expect);
    }

    #[test]
    fn split_is_time_ordered() {
        let items: Vec<usize> = (0..10).collect();
        let (train, test) = train_test_split(&items, 0.8);
        assert_eq!(train, (0..8).collect::<Vec<_>>());
        assert_eq!(test, vec![8, 9]);
    }

    #[test]
    #[should_panic(expected = "train fraction")]
    fn split_rejects_bad_fraction() {
        let _ = train_test_split(&[1, 2, 3], 1.5);
    }

    #[test]
    fn weeks_filter_shrinks_triples() {
        let ds = dataset(SpatialLevel::Building);
        let all = ds.users[0].triples.len();
        let one = ds.users[0].triples.iter().filter(|t| within_weeks(t, 1)).count();
        assert!(one < all);
        assert!(one > 0);
    }
}
