//! The four personalization methods of Table III.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use pelican_nn::{fit, FitReport, Layer, Lstm, Sample, SequenceModel, TrainConfig};

/// How a user's model is derived from the general model and personal data
/// (§V-C1's four compared methods).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PersonalizationMethod {
    /// Use the general model unchanged (baseline).
    Reuse,
    /// Train a fresh single-layer LSTM from scratch on personal data only.
    Lstm,
    /// Transfer learning, feature extraction (Fig. 1b): freeze the general
    /// stack, insert a fresh LSTM before the linear head, train the new
    /// LSTM and the head.
    TlFeatureExtract,
    /// Transfer learning, fine tuning (Fig. 1c): freeze the first LSTM,
    /// retrain the second LSTM and the linear head.
    TlFineTune,
}

impl PersonalizationMethod {
    /// All four methods, in the paper's table order.
    pub fn all() -> [PersonalizationMethod; 4] {
        [
            PersonalizationMethod::Reuse,
            PersonalizationMethod::Lstm,
            PersonalizationMethod::TlFeatureExtract,
            PersonalizationMethod::TlFineTune,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            PersonalizationMethod::Reuse => "Reuse",
            PersonalizationMethod::Lstm => "LSTM",
            PersonalizationMethod::TlFeatureExtract => "TL FE",
            PersonalizationMethod::TlFineTune => "TL FT",
        }
    }
}

impl std::fmt::Display for PersonalizationMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Configuration for device-side personalization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PersonalizationConfig {
    /// Training hyperparameters for the trainable part.
    pub train: TrainConfig,
    /// Hidden size of the from-scratch LSTM baseline (and of the surplus
    /// layer in feature extraction, which must match the general model's
    /// hidden width).
    pub hidden_dim: usize,
    /// Dropout rate of the from-scratch LSTM baseline.
    pub dropout: f32,
    /// Seed for new-layer initialization.
    pub seed: u64,
}

impl Default for PersonalizationConfig {
    fn default() -> Self {
        Self {
            train: TrainConfig { epochs: 8, ..TrainConfig::default() },
            hidden_dim: 64,
            dropout: 0.1,
            seed: 0xBEEF,
        }
    }
}

/// Derives a personalized model from `general` using `method` and the
/// user's private training samples.
///
/// Returns the personalized model and the fit report of the on-device
/// training, whose `flops` is what the personalization is priced at
/// (empty, and free, for [`PersonalizationMethod::Reuse`]).
///
/// # Panics
///
/// Panics if `samples` is empty for a method that trains, or if the sample
/// feature dimension does not match the general model.
pub fn personalize(
    general: &SequenceModel,
    samples: &[Sample],
    method: PersonalizationMethod,
    config: &PersonalizationConfig,
) -> (SequenceModel, FitReport) {
    let mut model = prepare(general, method, config);
    let report = match method {
        PersonalizationMethod::Reuse => {
            FitReport { epoch_losses: Vec::new(), steps: 0, samples_per_epoch: 0, flops: 0 }
        }
        _ => fit(&mut model, samples, &config.train),
    };
    (model, report)
}

/// Builds the to-be-trained model for `method` without training it —
/// the deterministic prefix of [`personalize`].
///
/// `personalize(g, s, m, c)` ≡ `prepare(g, m, c)` followed by
/// [`pelican_nn::fit`] with `c.train` (for methods that train). It
/// consumes the init RNG seeded from `c.seed` and nothing else, so the
/// untrained model is a pure function of its arguments.
pub fn prepare(
    general: &SequenceModel,
    method: PersonalizationMethod,
    config: &PersonalizationConfig,
) -> SequenceModel {
    match method {
        PersonalizationMethod::Reuse => general.clone(),
        PersonalizationMethod::Lstm => {
            let mut rng = StdRng::seed_from_u64(config.seed);
            SequenceModel::single_lstm(
                general.input_dim(),
                config.hidden_dim,
                general.output_dim(),
                config.dropout,
                &mut rng,
            )
        }
        PersonalizationMethod::TlFeatureExtract => {
            let mut model = general.clone();
            model.freeze_all();
            let hidden = hidden_width(&model);
            let mut rng = StdRng::seed_from_u64(config.seed);
            model.insert_before_head(Layer::Lstm(Lstm::new(hidden, hidden, &mut rng)));
            // The fresh LSTM trains; so does the head it feeds.
            let last = model.layers().len() - 1;
            model.layers_mut()[last].set_trainable(true);
            model
        }
        PersonalizationMethod::TlFineTune => {
            let mut model = general.clone();
            model.freeze_all();
            // Unfreeze everything from the *second* LSTM onward (Fig. 1c).
            let mut lstm_seen = 0;
            for layer in model.layers_mut() {
                if matches!(layer, Layer::Lstm(_)) {
                    lstm_seen += 1;
                }
                if lstm_seen >= 2 {
                    layer.set_trainable(true);
                }
            }
            model
        }
    }
}

/// Hidden width of the last LSTM in the stack.
fn hidden_width(model: &SequenceModel) -> usize {
    model
        .layers()
        .iter()
        .rev()
        .find_map(|l| match l {
            Layer::Lstm(lstm) => Some(lstm.output_dim()),
            _ => None,
        })
        .expect("general model contains an LSTM")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelican_nn::Sample;
    use rand::{RngExt as _, SeedableRng};

    fn general() -> SequenceModel {
        let mut rng = StdRng::seed_from_u64(1);
        SequenceModel::general_lstm(10, 12, 6, 0.1, &mut rng)
    }

    fn samples(n: usize) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(2);
        (0..n)
            .map(|_| {
                let c = rng.random_range(0..6);
                let mut x = vec![0.0; 10];
                x[c] = 1.0;
                Sample::new(vec![x.clone(), x], c)
            })
            .collect()
    }

    fn config() -> PersonalizationConfig {
        PersonalizationConfig {
            train: TrainConfig { epochs: 4, lr: 5e-3, ..TrainConfig::default() },
            hidden_dim: 12,
            ..PersonalizationConfig::default()
        }
    }

    #[test]
    fn reuse_returns_the_general_model_unchanged() {
        let g = general();
        let (m, report) = personalize(&g, &samples(10), PersonalizationMethod::Reuse, &config());
        let xs = vec![vec![0.1; 10]; 2];
        assert_eq!(g.logits(&xs), m.logits(&xs));
        assert_eq!(report.steps, 0);
    }

    #[test]
    fn feature_extraction_freezes_the_general_stack() {
        let g = general();
        let n_general = g.layers().len();
        let (m, report) =
            personalize(&g, &samples(40), PersonalizationMethod::TlFeatureExtract, &config());
        assert_eq!(m.layers().len(), n_general + 1, "surplus LSTM inserted");
        // Original LSTM layers are frozen; inserted LSTM + head trainable.
        assert!(!m.layers()[0].is_trainable());
        assert!(m.layers()[n_general - 1].is_trainable(), "inserted LSTM trains");
        assert!(m.layers()[n_general].is_trainable(), "head trains");
        assert!(report.steps > 0);
    }

    #[test]
    fn fine_tune_freezes_only_the_first_lstm() {
        let g = general();
        let (m, _) = personalize(&g, &samples(40), PersonalizationMethod::TlFineTune, &config());
        assert_eq!(m.layers().len(), g.layers().len(), "no layers added");
        assert!(!m.layers()[0].is_trainable(), "first LSTM frozen");
        let trainable: Vec<bool> = m.layers().iter().map(|l| l.is_trainable()).collect();
        assert!(trainable.iter().any(|&t| t), "something must train");
    }

    #[test]
    fn fine_tune_preserves_first_layer_weights() {
        let g = general();
        let (m, _) = personalize(&g, &samples(40), PersonalizationMethod::TlFineTune, &config());
        let (g0, m0) = (&g.layers()[0], &m.layers()[0]);
        match (g0, m0) {
            (Layer::Lstm(a), Layer::Lstm(b)) => assert_eq!(a.weight_ih(), b.weight_ih()),
            _ => panic!("first layer should be an LSTM"),
        }
    }

    #[test]
    fn scratch_lstm_is_single_layer() {
        let g = general();
        let (m, _) = personalize(&g, &samples(40), PersonalizationMethod::Lstm, &config());
        let lstm_count = m.layers().iter().filter(|l| matches!(l, Layer::Lstm(_))).count();
        assert_eq!(lstm_count, 1);
        assert_eq!(m.output_dim(), g.output_dim());
    }

    #[test]
    fn tl_methods_learn_the_personal_task() {
        // A user whose next location is always class 3: transfer learning
        // should adapt to that bias quickly.
        let g = general();
        let biased: Vec<Sample> = samples(60)
            .into_iter()
            .map(|mut s| {
                s.target = 3;
                s
            })
            .collect();
        for method in [PersonalizationMethod::TlFeatureExtract, PersonalizationMethod::TlFineTune] {
            let (m, _) = personalize(&g, &biased, method, &config());
            let p = m.predict_proba(&biased[0].xs);
            assert_eq!(
                pelican_tensor::argmax(&p),
                Some(3),
                "{method} should learn the user's bias"
            );
        }
    }

    #[test]
    fn method_names_match_the_paper() {
        let names: Vec<&str> = PersonalizationMethod::all().iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["Reuse", "LSTM", "TL FE", "TL FT"]);
    }
}
