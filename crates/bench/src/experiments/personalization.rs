//! Table III (personalization efficacy), Table IV (training-data size) and
//! the §V-C2 overhead comparison.

use pelican::workbench::Scenario;
use pelican::{personalize, PersonalizationConfig, PersonalizationMethod};
use pelican_mobility::{within_weeks, SpatialLevel};
use pelican_nn::metrics::evaluate_top_k;
use pelican_nn::TrainConfig;

use crate::report::{pct, Table};
use crate::RunConfig;

/// Accuracy summary of one personalization method over all users.
#[derive(Debug, Clone)]
pub struct MethodAccuracy {
    /// Method evaluated.
    pub method: PersonalizationMethod,
    /// Mean top-1 accuracy on training data (overfitting indicator).
    pub train_top1: f64,
    /// Mean test accuracy at k = 1, 2, 3.
    pub test: [f64; 3],
}

/// Re-personalizes every user of `scenario` with `method` and aggregates
/// train/test accuracy — sharing one general model across all four methods
/// exactly as the paper's Table III does.
pub fn evaluate_method(
    scenario: &Scenario,
    method: PersonalizationMethod,
    weeks: Option<usize>,
) -> MethodAccuracy {
    let config = PersonalizationConfig {
        train: TrainConfig { epochs: 8, batch_size: 16, ..TrainConfig::default() },
        hidden_dim: hidden_of(scenario),
        dropout: 0.1,
        seed: scenario.seed ^ 0xABCD,
    };
    let mut train_top1 = 0.0;
    let mut test = [0.0f64; 3];
    let mut counted = 0usize;
    for user in &scenario.personal {
        let train: Vec<_> = match weeks {
            Some(w) => user
                .train_triples
                .iter()
                .filter(|t| within_weeks(t, w))
                .map(|t| scenario.dataset.sample_of(t))
                .collect(),
            None => user.train.clone(),
        };
        if train.is_empty() || user.test.is_empty() {
            continue;
        }
        let (model, _) = personalize(&scenario.general, &train, method, &config);
        train_top1 += evaluate_top_k(&model, &train, &[1]).accuracy(1);
        let acc = evaluate_top_k(&model, &user.test, &[1, 2, 3]);
        for (slot, &k) in [1usize, 2, 3].iter().enumerate() {
            test[slot] += acc.accuracy(k);
        }
        counted += 1;
    }
    let n = counted.max(1) as f64;
    MethodAccuracy {
        method,
        train_top1: train_top1 / n,
        test: [test[0] / n, test[1] / n, test[2] / n],
    }
}

fn hidden_of(scenario: &Scenario) -> usize {
    scenario
        .general
        .layers()
        .iter()
        .find_map(|l| match l {
            pelican_nn::Layer::Lstm(lstm) => Some(lstm.output_dim()),
            _ => None,
        })
        .expect("general model has an LSTM")
}

/// Table III: all four methods at both spatial levels.
pub fn table3(config: &RunConfig) -> Table {
    let mut t = Table::new(&[
        "location",
        "method",
        "train top-1",
        "test top-1",
        "test top-2",
        "test top-3",
    ]);
    for level in [SpatialLevel::Building, SpatialLevel::Ap] {
        let scenario = super::scenario(config, level);
        for method in PersonalizationMethod::all() {
            let acc = evaluate_method(&scenario, method, None);
            t.row(&[
                level.to_string(),
                method.name().to_string(),
                pct(acc.train_top1),
                pct(acc.test[0]),
                pct(acc.test[1]),
                pct(acc.test[2]),
            ]);
        }
    }
    t
}

/// Table IV: training-data size sweep (2/4/6/8 weeks) at building level
/// for the three trained methods.
pub fn table4(config: &RunConfig) -> Table {
    let scenario = super::scenario(config, SpatialLevel::Building);
    let mut t = Table::new(&[
        "train weeks",
        "method",
        "train top-1",
        "test top-1",
        "test top-2",
        "test top-3",
    ]);
    for weeks in [2usize, 4, 6, 8] {
        for method in [
            PersonalizationMethod::Lstm,
            PersonalizationMethod::TlFeatureExtract,
            PersonalizationMethod::TlFineTune,
        ] {
            let acc = evaluate_method(&scenario, method, Some(weeks));
            t.row(&[
                weeks.to_string(),
                method.name().to_string(),
                pct(acc.train_top1),
                pct(acc.test[0]),
                pct(acc.test[1]),
                pct(acc.test[2]),
            ]);
        }
    }
    t
}

/// §V-C2: cloud training vs device personalization overhead, in simulated
/// cycles (the paper reports ~43,000 billion vs ~15 billion).
pub fn overhead(config: &RunConfig) -> Table {
    let scenario = super::scenario(config, SpatialLevel::Building);
    let mut t = Table::new(&["phase", "tier", "cycles (1e9)", "simulated time", "flops"]);
    t.row(&[
        "general training".into(),
        "cloud".into(),
        format!("{:.2}", scenario.general_usage.cycles_billions()),
        format!("{:.2?}", scenario.general_usage.simulated),
        scenario.general_usage.flops.to_string(),
    ]);
    let mut personal = pelican::ResourceUsage::zero();
    for user in &scenario.personal {
        personal.accumulate(&user.usage);
    }
    let n = scenario.personal.len().max(1) as f64;
    t.row(&[
        format!("personalization (mean of {})", scenario.personal.len()),
        "device".into(),
        format!("{:.3}", personal.cycles_billions() / n),
        format!("{:.2?}", personal.simulated.div_f64(n)),
        format!("{:.0}", personal.flops as f64 / n),
    ]);
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
    fn method_evaluation_reports_sane_accuracies() {
        let scenario = super::super::scenario(&tiny(), SpatialLevel::Building);
        let acc = evaluate_method(&scenario, PersonalizationMethod::Reuse, None);
        assert!((0.0..=1.0).contains(&acc.train_top1));
        assert!(acc.test.iter().all(|a| (0.0..=1.0).contains(a)));
        assert!(acc.test[0] <= acc.test[2], "top-k accuracy is monotone");
    }

    #[test]
    fn overhead_shows_cloud_dominates() {
        let t = overhead(&tiny()).render();
        assert!(t.contains("general training"));
        assert!(t.contains("personalization"));
    }
}
