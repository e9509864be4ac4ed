//! Fig. 3: spatial scales, degree of mobility, and mobility predictability.

use pelican::stats::{pearson, pearson_p_value};
use pelican::DefenseKind;
use pelican_attacks::{Adversary, AttackMethod, PriorKind, TimeBased};
use pelican_mobility::SpatialLevel;

use crate::report::{pct, Table};
use crate::RunConfig;

/// Top-k grid for Fig. 3a.
const KS_3A: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];

/// Fig. 3a: attack accuracy by spatial level (building vs AP).
pub fn fig3a(config: &RunConfig) -> Table {
    let method = AttackMethod::TimeBased(TimeBased::default());
    let mut header = vec!["level".to_string()];
    header.extend(KS_3A.iter().map(|k| format!("top-{k}")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&header_refs);
    for level in [SpatialLevel::Ap, SpatialLevel::Building] {
        let scenario = super::scenario(config, level);
        let eval = scenario.attack_all(
            Adversary::A1,
            &method,
            PriorKind::True,
            &KS_3A,
            config.instances_per_user,
            DefenseKind::None,
        );
        let mut cells = vec![level.to_string()];
        for &k in &KS_3A {
            cells.push(pct(eval.accuracy(k)));
        }
        t.row(&cells);
    }
    t
}

/// A per-user scatter point for the regression analyses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScatterPoint {
    /// User id.
    pub user_id: usize,
    /// X value (mobility degree for 3b, model accuracy for 3c).
    pub x: f64,
    /// Aggregate top-3 attack accuracy against this user.
    pub attack_accuracy: f64,
}

/// Per-level regression result (Fig. 3b / 3c).
#[derive(Debug, Clone)]
pub struct Regression {
    /// Spatial level.
    pub level: SpatialLevel,
    /// Scatter points, one per personalization user.
    pub points: Vec<ScatterPoint>,
    /// Pearson correlation coefficient.
    pub r: f64,
    /// Two-sided p-value (normal approximation).
    pub p: f64,
}

fn per_user_attack(
    config: &RunConfig,
    level: SpatialLevel,
    x_of: impl Fn(&pelican::workbench::Scenario, usize) -> f64,
) -> Regression {
    let scenario = super::scenario(config, level);
    let method = AttackMethod::TimeBased(TimeBased::default());
    let mut points = Vec::new();
    for (idx, user) in scenario.personal.iter().enumerate() {
        let eval = scenario.attack_user(
            user,
            Adversary::A1,
            &method,
            PriorKind::True,
            &[3],
            config.instances_per_user,
            DefenseKind::None,
        );
        points.push(ScatterPoint {
            user_id: user.user_id,
            x: x_of(&scenario, idx),
            attack_accuracy: eval.accuracy(3),
        });
    }
    let xs: Vec<f64> = points.iter().map(|p| p.x).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.attack_accuracy).collect();
    let r = pearson(&xs, &ys);
    let p = pearson_p_value(r, xs.len());
    Regression { level, points, r, p }
}

/// Fig. 3b: degree of mobility (distinct buildings visited) vs attack
/// accuracy, with the paper's correlation analysis.
pub fn fig3b(config: &RunConfig) -> Vec<Regression> {
    [SpatialLevel::Ap, SpatialLevel::Building]
        .into_iter()
        .map(|level| {
            per_user_attack(config, level, |scenario, idx| {
                let user = &scenario.personal[idx];
                scenario.dataset.users[user.user_id].trace.distinct_buildings() as f64
            })
        })
        .collect()
}

/// Fig. 3c: mobility predictability (proxied, as in the paper, by the
/// personalized model's top-1 test accuracy) vs attack accuracy.
pub fn fig3c(config: &RunConfig) -> Vec<Regression> {
    [SpatialLevel::Ap, SpatialLevel::Building]
        .into_iter()
        .map(|level| {
            per_user_attack(config, level, |scenario, idx| scenario.personal[idx].test_accuracy(1))
        })
        .collect()
}

/// Renders a regression result as a scatter table plus summary line.
pub fn regression_table(reg: &Regression) -> (Table, String) {
    let mut t = Table::new(&["user", "x", "attack top-3 (%)"]);
    for p in &reg.points {
        t.row(&[p.user_id.to_string(), format!("{:.3}", p.x), pct(p.attack_accuracy)]);
    }
    let summary =
        format!("level={} r={:.3} p={:.3e} n={}", reg.level, reg.r, reg.p, reg.points.len());
    (t, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelican_mobility::Scale;

    fn tiny() -> RunConfig {
        RunConfig {
            scale: Scale::Tiny,
            users: Some(2),
            instances_per_user: 2,
            ..RunConfig::default()
        }
    }

    #[test]
    fn fig3a_reports_both_levels() {
        let rendered = fig3a(&tiny()).render();
        assert!(rendered.contains("ap"));
        assert!(rendered.contains("bldg"));
    }

    #[test]
    fn regressions_have_points_per_user() {
        let regs = fig3b(&tiny());
        assert_eq!(regs.len(), 2);
        for reg in &regs {
            assert_eq!(reg.points.len(), 2);
            assert!((-1.0..=1.0).contains(&reg.r));
            let (t, summary) = regression_table(reg);
            assert!(t.render().contains("attack top-3"));
            assert!(summary.contains("r="));
        }
    }
}
