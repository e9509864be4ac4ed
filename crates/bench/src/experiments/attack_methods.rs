//! Fig. 2a (attack accuracy per method) and Table II (attack runtimes).

use pelican::DefenseKind;
use pelican_attacks::{Adversary, AttackMethod, BruteForce, GradientDescent, PriorKind, TimeBased};
use pelican_mobility::SpatialLevel;

use crate::report::{pct, Table};
use crate::RunConfig;

/// Result of the attack-method comparison.
#[derive(Debug)]
pub struct MethodComparison {
    /// `(method name, k, accuracy)` series — Fig. 2a.
    pub accuracy: Vec<(String, usize, f64)>,
    /// `(method name, mean queries/instance, mean host ms/instance)` —
    /// Table II's cost axis.
    pub cost: Vec<(String, f64, f64)>,
}

/// The paper's top-k grid for Fig. 2a.
const KS: [usize; 4] = [1, 3, 5, 7];

/// Runs brute-force, gradient-descent and time-based attacks under
/// adversary A1 with the true prior (the paper's defaults) and reports
/// accuracy by top-k plus per-instance cost.
pub fn run(config: &RunConfig) -> MethodComparison {
    let scenario = super::scenario(config, SpatialLevel::Building);
    let methods: Vec<(AttackMethod, usize)> = vec![
        (AttackMethod::BruteForce(BruteForce::default()), config.brute_instances()),
        (AttackMethod::GradientDescent(GradientDescent::default()), config.instances_per_user),
        (AttackMethod::TimeBased(TimeBased::default()), config.instances_per_user),
    ];
    let mut accuracy = Vec::new();
    let mut cost = Vec::new();
    for (method, instances) in &methods {
        let eval = scenario.attack_all(
            Adversary::A1,
            method,
            PriorKind::True,
            &KS,
            *instances,
            DefenseKind::None,
        );
        for &k in &KS {
            accuracy.push((method.name().to_string(), k, eval.accuracy(k)));
        }
        let ms = eval.elapsed.as_secs_f64() * 1e3 / eval.total.max(1) as f64;
        cost.push((method.name().to_string(), eval.queries_per_instance(), ms));
    }
    MethodComparison { accuracy, cost }
}

/// Formats Fig. 2a as a table (methods × top-k accuracy, %).
pub fn fig2a_table(result: &MethodComparison) -> Table {
    let mut t = Table::new(&["attack method", "top-1", "top-3", "top-5", "top-7"]);
    for name in ["brute force", "gradient descent", "time-based"] {
        let mut cells = vec![name.to_string()];
        for &k in &KS {
            let acc = result
                .accuracy
                .iter()
                .find(|(n, kk, _)| n == name && *kk == k)
                .map(|(_, _, a)| *a)
                .unwrap_or(0.0);
            cells.push(pct(acc));
        }
        t.row(&cells);
    }
    t
}

/// Formats Table II: per-instance cost and the relative runtime factor
/// against the time-based method (the paper reports 82.18 h / 6.27 h /
/// 0.68 h for 100 users; we report the machine-independent query counts and
/// the measured factor).
pub fn table2(result: &MethodComparison) -> Table {
    let time_based_ms = result
        .cost
        .iter()
        .find(|(n, _, _)| n == "time-based")
        .map(|(_, _, ms)| *ms)
        .unwrap_or(1.0)
        .max(1e-9);
    let mut t = Table::new(&["method", "queries/instance", "ms/instance", "x time-based"]);
    for (name, q, ms) in &result.cost {
        t.row(&[
            name.clone(),
            format!("{q:.0}"),
            format!("{ms:.1}"),
            format!("{:.1}", ms / time_based_ms),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelican_mobility::Scale;

    #[test]
    fn tiny_run_produces_all_series() {
        let config = RunConfig {
            scale: Scale::Tiny,
            users: Some(1),
            instances_per_user: 2,
            ..RunConfig::default()
        };
        let r = run(&config);
        assert_eq!(r.accuracy.len(), 3 * KS.len());
        assert_eq!(r.cost.len(), 3);
        let rendered = fig2a_table(&r).render();
        assert!(rendered.contains("time-based"));
        let t2 = table2(&r).render();
        assert!(t2.contains("queries/instance"));
    }
}
