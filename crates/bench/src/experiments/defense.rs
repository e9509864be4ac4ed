//! Fig. 5: efficacy of the Pelican privacy layer.

use pelican::{
    reduction_in_leakage, DefenseKind, PersonalizationMethod, PAPER_DEFENSE, PAPER_TEMPERATURES,
};
use pelican_attacks::{Adversary, AttackMethod, PriorKind, TimeBased};
use pelican_mobility::SpatialLevel;

use crate::report::Table;
use crate::RunConfig;

/// Top-k grid for Fig. 5a (the paper plots k = 1..9).
const KS_5A: [usize; 5] = [1, 3, 5, 7, 9];

/// Top-k grid for Fig. 5c (k = 1..10).
const KS_5C: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];

/// Fig. 5a: reduction in privacy leakage for the two transfer-learning
/// personalization methods, by top-k.
pub fn fig5a(config: &RunConfig) -> Table {
    let method = AttackMethod::TimeBased(TimeBased::default());
    let mut header = vec!["personalization".to_string()];
    header.extend(KS_5A.iter().map(|k| format!("top-{k}")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&header_refs);
    for pm in [PersonalizationMethod::TlFeatureExtract, PersonalizationMethod::TlFineTune] {
        let scenario = super::scenario_with(config, SpatialLevel::Building, pm);
        let before = scenario.attack_all(
            Adversary::A1,
            &method,
            PriorKind::True,
            &KS_5A,
            config.instances_per_user,
            DefenseKind::None,
        );
        let after = scenario.attack_all(
            Adversary::A1,
            &method,
            PriorKind::True,
            &KS_5A,
            config.instances_per_user,
            PAPER_DEFENSE,
        );
        let mut cells = vec![pm.name().to_string()];
        for &k in &KS_5A {
            cells.push(format!(
                "{:.1}",
                reduction_in_leakage(before.accuracy(k), after.accuracy(k))
            ));
        }
        t.row(&cells);
    }
    t
}

/// Fig. 5b: reduction in leakage (top-3) as the privacy temperature is
/// swept from 1e-1 down to 1e-5.
pub fn fig5b(config: &RunConfig) -> Table {
    let scenario = super::scenario(config, SpatialLevel::Building);
    let method = AttackMethod::TimeBased(TimeBased::default());
    let before = scenario.attack_all(
        Adversary::A1,
        &method,
        PriorKind::True,
        &[3],
        config.instances_per_user,
        DefenseKind::None,
    );
    let mut t = Table::new(&["temperature", "attack top-3 (%)", "reduction (%)"]);
    for temperature in PAPER_TEMPERATURES {
        let after = scenario.attack_all(
            Adversary::A1,
            &method,
            PriorKind::True,
            &[3],
            config.instances_per_user,
            DefenseKind::Temperature { temperature },
        );
        t.row(&[
            format!("{temperature:.0e}"),
            format!("{:.1}", after.accuracy(3) * 100.0),
            format!("{:.1}", reduction_in_leakage(before.accuracy(3), after.accuracy(3))),
        ]);
    }
    t
}

/// Fig. 5c: reduction in leakage by spatial level, by top-k.
pub fn fig5c(config: &RunConfig) -> Table {
    let method = AttackMethod::TimeBased(TimeBased::default());
    let mut header = vec!["level".to_string()];
    header.extend(KS_5C.iter().map(|k| format!("top-{k}")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&header_refs);
    for level in [SpatialLevel::Ap, SpatialLevel::Building] {
        let scenario = super::scenario(config, level);
        let before = scenario.attack_all(
            Adversary::A1,
            &method,
            PriorKind::True,
            &KS_5C,
            config.instances_per_user,
            DefenseKind::None,
        );
        let after = scenario.attack_all(
            Adversary::A1,
            &method,
            PriorKind::True,
            &KS_5C,
            config.instances_per_user,
            PAPER_DEFENSE,
        );
        let mut cells = vec![level.to_string()];
        for &k in &KS_5C {
            cells.push(format!(
                "{:.1}",
                reduction_in_leakage(before.accuracy(k), after.accuracy(k))
            ));
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
    fn fig5b_sweeps_five_temperatures() {
        let rendered = fig5b(&tiny()).render();
        assert_eq!(rendered.lines().count(), 2 + 5);
        assert!(rendered.contains("1e-5"));
    }

    #[test]
    fn fig5c_covers_both_levels() {
        let rendered = fig5c(&tiny()).render();
        assert!(rendered.contains("ap"));
        assert!(rendered.contains("bldg"));
    }
}
