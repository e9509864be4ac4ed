//! Step 1 of the Pelican system (Fig. 4): cloud training of the general
//! model `M_G`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use pelican_nn::{fit, FitReport, Sample, SequenceModel, TrainConfig};

use crate::platform::{ComputeTier, ResourceUsage};

/// Step 1: cloud-based initial training of the general model `M_G`.
#[derive(Debug, Clone)]
pub struct CloudTrainer {
    /// Training hyperparameters.
    pub config: TrainConfig,
    /// LSTM hidden width (the paper uses 128).
    pub hidden_dim: usize,
    /// Dropout between the LSTM layers (the paper uses 0.1).
    pub dropout: f32,
}

impl CloudTrainer {
    /// Creates a trainer with the given architecture.
    pub fn new(config: TrainConfig, hidden_dim: usize, dropout: f32) -> Self {
        Self { config, hidden_dim, dropout }
    }

    /// Trains the general model on pooled contributor samples and prices
    /// the fit on the cloud tier.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn train(
        &self,
        input_dim: usize,
        n_classes: usize,
        samples: &[Sample],
        seed: u64,
    ) -> (SequenceModel, FitReport, ResourceUsage) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = SequenceModel::general_lstm(
            input_dim,
            self.hidden_dim,
            n_classes,
            self.dropout,
            &mut rng,
        );
        let report = fit(&mut model, samples, &self.config);
        let usage = ResourceUsage::priced(ComputeTier::Cloud, report.flops);
        (model, report, usage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::personalize::{personalize, PersonalizationConfig, PersonalizationMethod};
    use rand::RngExt as _;

    fn samples(n: usize, dim: usize, classes: usize) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(3);
        (0..n)
            .map(|_| {
                let c = rng.random_range(0..classes);
                let mut x = vec![0.0; dim];
                x[c % dim] = 1.0;
                Sample::new(vec![x.clone(), x], c)
            })
            .collect()
    }

    fn trained_general() -> (SequenceModel, FitReport, ResourceUsage) {
        let trainer =
            CloudTrainer::new(TrainConfig { epochs: 2, ..TrainConfig::default() }, 8, 0.1);
        trainer.train(6, 4, &samples(30, 6, 4), 1)
    }

    #[test]
    fn cloud_training_accounts_compute() {
        let (model, report, usage) = trained_general();
        assert!(usage.flops > 0);
        assert!(usage.cycles > 0);
        assert_eq!(report.epoch_losses.len(), 2);
        assert_eq!(model.output_dim(), 4);
    }

    #[test]
    fn personalization_is_much_cheaper_than_general_training() {
        let (general, _, general_usage) = trained_general();
        let config = PersonalizationConfig {
            train: TrainConfig { epochs: 2, ..TrainConfig::default() },
            hidden_dim: 8,
            ..PersonalizationConfig::default()
        };
        let personal = samples(10, 6, 4);
        let method = PersonalizationMethod::TlFeatureExtract;
        let (_, fit) = personalize(&general, &personal, method, &config);
        assert!(
            fit.flops < general_usage.flops,
            "personal {} vs general {}",
            fit.flops,
            general_usage.flops
        );
    }
}
