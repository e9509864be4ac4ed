//! Fig. 2b (adversarial knowledge) and Fig. 2c (nature of the prior).

use pelican::DefenseKind;
use pelican_attacks::{Adversary, AttackMethod, PriorKind, TimeBased};
use pelican_mobility::SpatialLevel;

use crate::report::{pct, Table};
use crate::RunConfig;

/// Top-k grid for Fig. 2b.
const KS_2B: [usize; 4] = [1, 3, 5, 7];

/// Top-k grid for Fig. 2c (the paper plots k = 1..10).
const KS_2C: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];

/// Fig. 2b: time-based attack accuracy for adversaries A1/A2/A3.
pub fn fig2b(config: &RunConfig) -> Table {
    let scenario = super::scenario(config, SpatialLevel::Building);
    let method = AttackMethod::TimeBased(TimeBased::default());
    let mut t = Table::new(&["adversary", "top-1", "top-3", "top-5", "top-7"]);
    for adversary in [Adversary::A1, Adversary::A2, Adversary::A3] {
        let eval = scenario.attack_all(
            adversary,
            &method,
            PriorKind::True,
            &KS_2B,
            config.instances_per_user,
            DefenseKind::None,
        );
        let mut cells = vec![adversary.to_string()];
        for &k in &KS_2B {
            cells.push(pct(eval.accuracy(k)));
        }
        t.row(&cells);
    }
    t
}

/// Fig. 2c: impact of how the adversary obtained its prior
/// (true / none / predict / estimate) under A1.
pub fn fig2c(config: &RunConfig) -> Table {
    let scenario = super::scenario(config, SpatialLevel::Building);
    let method = AttackMethod::TimeBased(TimeBased::default());
    let mut header = vec!["prior".to_string()];
    header.extend(KS_2C.iter().map(|k| format!("top-{k}")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&header_refs);
    for prior in [PriorKind::True, PriorKind::None, PriorKind::Predict, PriorKind::Estimate] {
        let eval = scenario.attack_all(
            Adversary::A1,
            &method,
            prior,
            &KS_2C,
            config.instances_per_user,
            DefenseKind::None,
        );
        let mut cells = vec![prior.to_string()];
        for &k in &KS_2C {
            cells.push(pct(eval.accuracy(k)));
        }
        t.row(&cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelican_mobility::Scale;

    fn tiny() -> RunConfig {
        RunConfig {
            scale: Scale::Tiny,
            users: Some(1),
            instances_per_user: 2,
            ..RunConfig::default()
        }
    }

    #[test]
    fn fig2b_covers_three_adversaries() {
        let rendered = fig2b(&tiny()).render();
        for a in ["A1", "A2", "A3"] {
            assert!(rendered.contains(a), "missing adversary {a}");
        }
    }

    #[test]
    fn fig2c_covers_four_priors() {
        let rendered = fig2c(&tiny()).render();
        for p in ["true", "none", "predict", "estimate"] {
            assert!(rendered.contains(p), "missing prior {p}");
        }
    }
}
