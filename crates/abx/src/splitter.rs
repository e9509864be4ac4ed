//! Seeded, stable, disjoint cohort assignment.
//!
//! An A/B experiment is only as trustworthy as its split. The splitter
//! hashes `(seed, user_id)` through the same [`mix64`] finalizer the
//! simulator's link mixes use and thresholds the result, which buys the
//! three properties every downstream verdict leans on:
//!
//! * **disjoint and exhaustive** — every user lands in exactly one of
//!   [`Arm::A`], [`Arm::B`] or [`Arm::Holdout`];
//! * **stable** — assignment is a pure function of `(seed, user_id)`:
//!   re-running the experiment, adding users, or asking twice never moves
//!   anyone between arms;
//! * **permutation-invariant** — the split of a user set does not depend
//!   on the order the users are presented in.
//!
//! These are asserted as property tests in `tests/splitter_props.rs` and
//! re-checked (on the concrete cohort) by the `ab-report` experiment
//! before any leakage number is trusted.

use pelican_sim::mix64;

/// Which cohort a user serves their experiment from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arm {
    /// First treatment arm (defense rung `arms[0]`).
    A,
    /// Second treatment arm (defense rung `arms[1]`).
    B,
    /// Out of the experiment: base publication, untouched until a winner
    /// is promoted fleet-wide.
    Holdout,
}

impl Arm {
    /// Dense cohort index: A = 0, B = 1, holdout = 2 — the index into
    /// per-arm accumulators and the arm's entry in fingerprints.
    pub fn index(self) -> usize {
        match self {
            Arm::A => 0,
            Arm::B => 1,
            Arm::Holdout => 2,
        }
    }

    /// The opposite treatment arm.
    ///
    /// # Panics
    ///
    /// Panics on [`Arm::Holdout`] — the holdout has no counterpart.
    pub fn other(self) -> Arm {
        match self {
            Arm::A => Arm::B,
            Arm::B => Arm::A,
            Arm::Holdout => panic!("the holdout arm has no counterpart"),
        }
    }

    /// Human-readable arm name.
    pub fn name(self) -> &'static str {
        match self {
            Arm::A => "A",
            Arm::B => "B",
            Arm::Holdout => "holdout",
        }
    }
}

impl std::fmt::Display for Arm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Hash-based A/B/holdout assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CohortSplitter {
    seed: u64,
    fraction_a: f64,
    fraction_b: f64,
}

impl CohortSplitter {
    /// A splitter sending roughly `fraction_a` of users to arm A,
    /// `fraction_b` to arm B and the rest to the holdout.
    ///
    /// # Panics
    ///
    /// Panics unless both fractions are in `[0, 1]` and sum to at most 1.
    pub fn new(seed: u64, fraction_a: f64, fraction_b: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction_a)
                && (0.0..=1.0).contains(&fraction_b)
                && fraction_a + fraction_b <= 1.0,
            "arm fractions must be in [0, 1] and sum to at most 1 \
             (got {fraction_a} + {fraction_b})"
        );
        Self { seed, fraction_a, fraction_b }
    }

    /// The splitter's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The user's unit-interval coordinate — the quantity the thresholds
    /// cut. Exposed so tests can reason about the distribution directly.
    pub fn unit(&self, user_id: usize) -> f64 {
        // Finalize the seed and the user id separately before combining:
        // consecutive user ids must land far apart, and two splitters
        // with different seeds must disagree on most users.
        let h = mix64(mix64(self.seed) ^ mix64(user_id as u64 ^ 0xA5A5_5A5A_0BAD_CAFE));
        // 53 explicit mantissa bits keep the conversion exact.
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The user's arm — pure in `(seed, user_id)`.
    pub fn assign(&self, user_id: usize) -> Arm {
        let u = self.unit(user_id);
        if u < self.fraction_a {
            Arm::A
        } else if u < self.fraction_a + self.fraction_b {
            Arm::B
        } else {
            Arm::Holdout
        }
    }

    /// Splits a user set into its three cohorts, each sorted ascending.
    /// The result is invariant under permutation (and duplication) of
    /// the input.
    pub fn split(&self, users: impl IntoIterator<Item = usize>) -> CohortSplit {
        let mut split = CohortSplit::default();
        for user_id in users {
            match self.assign(user_id) {
                Arm::A => split.a.push(user_id),
                Arm::B => split.b.push(user_id),
                Arm::Holdout => split.holdout.push(user_id),
            }
        }
        for cohort in [&mut split.a, &mut split.b, &mut split.holdout] {
            cohort.sort_unstable();
            cohort.dedup();
        }
        split
    }
}

/// A concrete three-way partition of a user set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CohortSplit {
    /// Arm-A users, ascending.
    pub a: Vec<usize>,
    /// Arm-B users, ascending.
    pub b: Vec<usize>,
    /// Holdout users, ascending.
    pub holdout: Vec<usize>,
}

impl CohortSplit {
    /// Total users across the three cohorts.
    pub fn len(&self) -> usize {
        self.a.len() + self.b.len() + self.holdout.len()
    }

    /// Whether the split is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The arm a user was assigned, or `None` for users outside the
    /// split.
    pub fn arm_of(&self, user_id: usize) -> Option<Arm> {
        if self.a.binary_search(&user_id).is_ok() {
            Some(Arm::A)
        } else if self.b.binary_search(&user_id).is_ok() {
            Some(Arm::B)
        } else if self.holdout.binary_search(&user_id).is_ok() {
            Some(Arm::Holdout)
        } else {
            None
        }
    }

    /// The treatment cohort of an arm.
    ///
    /// # Panics
    ///
    /// Panics on [`Arm::Holdout`] — use the field directly.
    pub fn arm(&self, arm: Arm) -> &[usize] {
        match arm {
            Arm::A => &self.a,
            Arm::B => &self.b,
            Arm::Holdout => panic!("arm() is for treatment cohorts; read .holdout directly"),
        }
    }

    /// Asserts the three cohorts are pairwise disjoint and cover exactly
    /// `expected` (any order, duplicates ignored). The `ab-report`
    /// experiment runs this on every run — a broken split silently
    /// corrupts every downstream number, so it is a hard stop.
    ///
    /// # Panics
    ///
    /// Panics if any user appears in two cohorts or the union differs
    /// from `expected`.
    pub fn assert_partitions(&self, expected: impl IntoIterator<Item = usize>) {
        let mut union: Vec<usize> =
            self.a.iter().chain(&self.b).chain(&self.holdout).copied().collect();
        union.sort_unstable();
        assert!(union.windows(2).all(|w| w[0] != w[1]), "cohorts overlap: {union:?}");
        let mut expected: Vec<usize> = expected.into_iter().collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(union, expected, "cohorts must cover the user set exactly");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_is_stable_and_partitions() {
        let splitter = CohortSplitter::new(0xAB, 0.4, 0.4);
        let split = splitter.split(0..100);
        split.assert_partitions(0..100);
        assert_eq!(split.len(), 100);
        for user in 0..100 {
            assert_eq!(split.arm_of(user), Some(splitter.assign(user)), "user {user}");
            assert_eq!(splitter.assign(user), splitter.assign(user));
        }
        assert_eq!(split.arm_of(100), None);
        // All three cohorts are populated at these fractions and size.
        assert!(!split.a.is_empty() && !split.b.is_empty() && !split.holdout.is_empty());
    }

    #[test]
    fn permutation_and_duplicates_do_not_move_anyone() {
        let splitter = CohortSplitter::new(7, 0.3, 0.3);
        let forward = splitter.split(0..50);
        let backward = splitter.split((0..50).rev());
        let doubled = splitter.split((0..50).chain(0..50));
        assert_eq!(forward, backward);
        assert_eq!(forward, doubled);
    }

    #[test]
    fn different_seeds_disagree() {
        let a = CohortSplitter::new(1, 0.4, 0.4).split(0..200);
        let b = CohortSplitter::new(2, 0.4, 0.4).split(0..200);
        assert_ne!(a, b, "two seeds agreeing on 200 users means the hash ignores the seed");
    }

    #[test]
    fn fractions_steer_the_split() {
        let all_a = CohortSplitter::new(3, 1.0, 0.0).split(0..64);
        assert_eq!(all_a.a.len(), 64);
        let all_holdout = CohortSplitter::new(3, 0.0, 0.0).split(0..64);
        assert_eq!(all_holdout.holdout.len(), 64);
        let units: Vec<f64> = (0..64).map(|u| CohortSplitter::new(3, 0.5, 0.5).unit(u)).collect();
        assert!(units.iter().all(|&u| (0.0..1.0).contains(&u)));
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn overfull_fractions_are_rejected() {
        CohortSplitter::new(0, 0.7, 0.7);
    }

    #[test]
    fn arm_helpers() {
        assert_eq!(Arm::A.other(), Arm::B);
        assert_eq!(Arm::B.other(), Arm::A);
        assert_eq!(Arm::A.index(), 0);
        assert_eq!(Arm::Holdout.index(), 2);
        assert_eq!(format!("{}", Arm::Holdout), "holdout");
    }
}
