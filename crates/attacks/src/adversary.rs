//! Adversary models (Table I) and concrete attack instances.

use serde::{Deserialize, Serialize};

use pelican_mobility::Session;

/// The adversaries of Table I. All have black-box model access, a prior
/// `p` over the sensitive variable, and the observed output `l_t`; they
/// differ in which input timesteps they additionally observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Adversary {
    /// Knows `x_{t−2}`; reconstructs `l_{t−1}`.
    A1,
    /// Knows `x_{t−1}`; reconstructs `l_{t−2}`.
    A2,
    /// Knows neither input timestep (only `l_t`); reconstructs `l_{t−1}`.
    A3,
}

impl Adversary {
    /// Index of the timestep being reconstructed (0 = `x_{t−2}`,
    /// 1 = `x_{t−1}`).
    pub fn target_step(self) -> usize {
        match self {
            Adversary::A1 | Adversary::A3 => 1,
            Adversary::A2 => 0,
        }
    }

    /// Index of the known timestep, if any.
    fn known_step(self) -> Option<usize> {
        match self {
            Adversary::A1 => Some(0),
            Adversary::A2 => Some(1),
            Adversary::A3 => None,
        }
    }

    /// Builds the attack instance this adversary sees for a ground-truth
    /// session triple `(x_{t−2}, x_{t−1}, x_t)`.
    ///
    /// `observed_output` is the location index of `x_t` at the attack's
    /// spatial level (the adversary observes the service's prediction or
    /// the user's actual next location; the paper treats both as `l_t`).
    pub fn instance(self, triple: &[Session; 3], observed_output: usize) -> Instance {
        let mut known = [None, None];
        if let Some(k) = self.known_step() {
            known[k] = Some(triple[k]);
        }
        Instance {
            adversary: self,
            known,
            observed_output,
            day_of_week: triple[2].day_of_week(),
            truth: triple[self.target_step()],
        }
    }
}

impl std::fmt::Display for Adversary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Adversary::A1 => write!(f, "A1"),
            Adversary::A2 => write!(f, "A2"),
            Adversary::A3 => write!(f, "A3"),
        }
    }
}

/// One concrete attack problem: what the adversary knows and (for
/// evaluation only) the hidden ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// Which adversary constructed this instance.
    pub adversary: Adversary,
    /// Known input sessions by step index (`[x_{t−2}, x_{t−1}]`).
    pub known: [Option<Session>; 2],
    /// The observed model output `l_t` (location index).
    pub observed_output: usize,
    /// Day of week of the sequence (public calendar context).
    pub day_of_week: usize,
    /// Ground truth for the hidden step — used only to score the attack,
    /// never revealed to attack methods.
    pub truth: Session,
}

impl Instance {
    /// Index of the hidden step to reconstruct.
    pub fn target_step(&self) -> usize {
        self.adversary.target_step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triple() -> [Session; 3] {
        let mk = |building: usize, entry: u32| Session {
            user: 0,
            building,
            ap: building,
            day: 3,
            entry_minutes: entry,
            duration_minutes: 60,
        };
        [mk(1, 540), mk(2, 610), mk(3, 680)]
    }

    #[test]
    fn a1_hides_the_middle_step() {
        let inst = Adversary::A1.instance(&triple(), 3);
        assert_eq!(inst.known[0].unwrap().building, 1);
        assert!(inst.known[1].is_none());
        assert_eq!(inst.truth.building, 2);
        assert_eq!(inst.target_step(), 1);
    }

    #[test]
    fn a2_hides_the_first_step() {
        let inst = Adversary::A2.instance(&triple(), 3);
        assert!(inst.known[0].is_none());
        assert_eq!(inst.known[1].unwrap().building, 2);
        assert_eq!(inst.truth.building, 1);
        assert_eq!(inst.target_step(), 0);
    }

    #[test]
    fn a3_knows_nothing_but_the_output() {
        let inst = Adversary::A3.instance(&triple(), 3);
        assert!(inst.known[0].is_none() && inst.known[1].is_none());
        assert_eq!(inst.observed_output, 3);
        assert_eq!(inst.truth.building, 2);
    }

    #[test]
    fn day_of_week_is_propagated() {
        let inst = Adversary::A1.instance(&triple(), 3);
        assert_eq!(inst.day_of_week, 3);
    }
}
