//! The end-to-end Pelican service (Fig. 4): cloud training, device
//! personalization, deployment and model updates.

use std::collections::HashMap;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use pelican_nn::{
    fit, FitReport, ModelCodecError, ModelEnvelope, Sample, SequenceModel, TrainConfig,
};

use crate::personalize::{personalize, PersonalizationConfig, PersonalizationMethod};
use crate::platform::{measure_thread, ComputeTier, NetworkLink, ResourceUsage};
use crate::privacy::PrivacyLayer;

/// Errors surfaced by the Pelican service API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// No model is enrolled for the requested user.
    UnknownUser(usize),
    /// The query's feature dimension does not match the user's model.
    DimensionMismatch {
        /// Dimension the model expects.
        expected: usize,
        /// Dimension the query provided.
        got: usize,
    },
    /// A model envelope failed to decode.
    Codec(ModelCodecError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownUser(u) => write!(f, "no model enrolled for user {u}"),
            ServiceError::DimensionMismatch { expected, got } => {
                write!(f, "query has {got} features but the model expects {expected}")
            }
            ServiceError::Codec(e) => write!(f, "model envelope error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelCodecError> for ServiceError {
    fn from(e: ModelCodecError) -> Self {
        ServiceError::Codec(e)
    }
}

/// Where a personalized model executes (§V-A3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Deployment {
    /// The model stays on the user's device; queries run locally.
    OnDevice,
    /// The model is uploaded and served from the cloud; queries traverse
    /// the network.
    Cloud,
}

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

    /// Trains the general model on pooled contributor samples, attributing
    /// the work to the cloud tier.
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
        let ((model, report), usage) = measure_thread(ComputeTier::Cloud, || {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut model = SequenceModel::general_lstm(
                input_dim,
                self.hidden_dim,
                n_classes,
                self.dropout,
                &mut rng,
            );
            let report = fit(&mut model, samples, &self.config);
            (model, report)
        });
        (model, report, usage)
    }
}

/// Steps 2 & 4: device-based personalization and model updates.
#[derive(Debug, Clone)]
pub struct DevicePersonalizer {
    /// Personalization hyperparameters.
    pub config: PersonalizationConfig,
    /// The device↔cloud link used for the model download.
    pub link: NetworkLink,
}

/// Outcome of a device-side personalization round.
#[derive(Debug, Clone)]
pub struct PersonalizationOutcome {
    /// The personalized model `M_P`.
    pub model: SequenceModel,
    /// Training report of the on-device fit.
    pub fit: FitReport,
    /// Device compute spent.
    pub usage: ResourceUsage,
    /// Simulated time to download the general model.
    pub download_time: Duration,
}

impl DevicePersonalizer {
    /// Creates a personalizer over a network link.
    pub fn new(config: PersonalizationConfig, link: NetworkLink) -> Self {
        Self { config, link }
    }

    /// Downloads `general` (simulated) and derives a personalized model
    /// from the user's private `samples`, attributing compute to the
    /// device tier. The raw samples never leave this function — mirroring
    /// Pelican's on-device data residency.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Codec`] if the envelope is malformed.
    pub fn personalize(
        &self,
        general: &ModelEnvelope,
        samples: &[Sample],
        method: PersonalizationMethod,
    ) -> Result<PersonalizationOutcome, ServiceError> {
        let download_time = self.link.model_transfer_time(general);
        let general_model = general.decode()?;
        let ((model, fit), usage) = measure_thread(ComputeTier::Device, || {
            personalize(&general_model, samples, method, &self.config)
        });
        Ok(PersonalizationOutcome { model, fit, usage, download_time })
    }

    /// Step 4: model update — re-invokes training *from the current
    /// personalized parameters* with newly accumulated data, preserving the
    /// model's freeze pattern (the paper's §V-A4 semantics).
    pub fn update(
        &self,
        model: &mut SequenceModel,
        new_samples: &[Sample],
    ) -> (FitReport, ResourceUsage) {
        measure_thread(ComputeTier::Device, || fit(model, new_samples, &self.config.train))
    }
}

/// A deployed per-user model inside the service.
#[derive(Debug, Clone)]
struct Enrollment {
    model: SequenceModel,
    deployment: Deployment,
}

/// Step 3: the serving tier. Holds the general model and black-box
/// per-user personalized models; the service provider can query outputs
/// and confidence scores but never sees training data or the user's
/// privacy temperature.
#[derive(Debug, Clone)]
pub struct PelicanService {
    general: SequenceModel,
    users: HashMap<usize, Enrollment>,
    link: NetworkLink,
}

impl PelicanService {
    /// Creates a service around a trained general model.
    pub fn new(general: SequenceModel, link: NetworkLink) -> Self {
        Self { general, users: HashMap::new(), link }
    }

    /// Borrows the general model.
    pub fn general(&self) -> &SequenceModel {
        &self.general
    }

    /// Enrolls a user's personalized model, optionally installing their
    /// privacy layer before the model becomes service-visible.
    pub fn enroll(
        &mut self,
        user_id: usize,
        mut model: SequenceModel,
        deployment: Deployment,
        privacy: Option<PrivacyLayer>,
    ) {
        if let Some(layer) = privacy {
            layer.apply(&mut model);
        }
        self.users.insert(user_id, Enrollment { model, deployment });
    }

    /// Number of enrolled users.
    pub fn enrolled(&self) -> usize {
        self.users.len()
    }

    /// Queries a user's model: returns the confidence vector plus the
    /// simulated round-trip time (zero for on-device deployments).
    ///
    /// Routed through the batched inference path with a batch of one — the
    /// same kernels `pelican-serve` fuses fleet traffic through — so a
    /// query answered alone is bit-identical to the same query answered
    /// inside a coalesced batch. The query slice is borrowed, never cloned.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownUser`] if the user is not enrolled;
    /// [`ServiceError::DimensionMismatch`] if the query shape is wrong.
    pub fn query(
        &self,
        user_id: usize,
        xs: &[Vec<f32>],
    ) -> Result<(Vec<f32>, Duration), ServiceError> {
        let enrollment = self.users.get(&user_id).ok_or(ServiceError::UnknownUser(user_id))?;
        let expected = enrollment.model.input_dim();
        if xs.iter().any(|step| step.len() != expected) {
            let got = xs.first().map_or(0, |s| s.len());
            return Err(ServiceError::DimensionMismatch { expected, got });
        }
        let probs = enrollment
            .model
            .predict_proba_batch(std::slice::from_ref(&xs))
            .pop()
            .expect("a batch of one yields one answer");
        let rtt = match enrollment.deployment {
            Deployment::OnDevice => Duration::ZERO,
            Deployment::Cloud => {
                // Request + response over the link; payloads are small
                // relative to the model, so latency dominates.
                self.link.transfer_time(expected * 4) + self.link.transfer_time(probs.len() * 4)
            }
        };
        Ok((probs, rtt))
    }

    /// The `k` most likely next locations for a user.
    ///
    /// When only the ranking-preserving temperature layer is deployed, the
    /// serving runtime ranks directly from the logits — the "appropriate
    /// precision" the paper assumes (§V-B), immune to the `f32` underflow
    /// that sharpened confidences exhibit. Perturbation-style defenses
    /// (noise, rounding) intentionally change the exported scores, so the
    /// ranking is computed from the perturbed confidences instead.
    ///
    /// # Errors
    ///
    /// Same as [`PelicanService::query`].
    pub fn top_k(
        &self,
        user_id: usize,
        xs: &[Vec<f32>],
        k: usize,
    ) -> Result<Vec<usize>, ServiceError> {
        let enrollment = self.users.get(&user_id).ok_or(ServiceError::UnknownUser(user_id))?;
        if enrollment.model.postprocess() == pelican_nn::Postprocess::None {
            let expected = enrollment.model.input_dim();
            if xs.iter().any(|step| step.len() != expected) {
                let got = xs.first().map_or(0, |s| s.len());
                return Err(ServiceError::DimensionMismatch { expected, got });
            }
            return Ok(enrollment
                .model
                .predict_top_k_batch(std::slice::from_ref(&xs), k)
                .pop()
                .expect("a batch of one yields one ranking"));
        }
        let (probs, _) = self.query(user_id, xs)?;
        Ok(pelican_tensor::top_k(&probs, k))
    }

    /// Replaces a user's model after an on-device update (step 4).
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownUser`] if the user was never enrolled.
    pub fn redeploy(
        &mut self,
        user_id: usize,
        mut model: SequenceModel,
        privacy: Option<PrivacyLayer>,
    ) -> Result<(), ServiceError> {
        let enrollment = self.users.get_mut(&user_id).ok_or(ServiceError::UnknownUser(user_id))?;
        if let Some(layer) = privacy {
            layer.apply(&mut model);
        }
        enrollment.model = model;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt as _, SeedableRng};

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
        let personalizer = DevicePersonalizer::new(
            PersonalizationConfig {
                train: TrainConfig { epochs: 2, ..TrainConfig::default() },
                hidden_dim: 8,
                ..PersonalizationConfig::default()
            },
            NetworkLink::wifi(),
        );
        let envelope = ModelEnvelope::encode(&general);
        let outcome = personalizer
            .personalize(&envelope, &samples(10, 6, 4), PersonalizationMethod::TlFeatureExtract)
            .expect("personalization succeeds");
        assert!(
            outcome.usage.flops < general_usage.flops,
            "personal {} vs general {}",
            outcome.usage.flops,
            general_usage.flops
        );
        assert!(outcome.download_time > Duration::ZERO);
    }

    #[test]
    fn service_queries_enrolled_users_only() {
        let (general, _, _) = trained_general();
        let mut service = PelicanService::new(general.clone(), NetworkLink::wifi());
        service.enroll(7, general.clone(), Deployment::OnDevice, None);
        assert_eq!(service.enrolled(), 1);

        let xs = vec![vec![0.0; 6]; 2];
        let (probs, rtt) = service.query(7, &xs).expect("enrolled user");
        assert_eq!(probs.len(), 4);
        assert_eq!(rtt, Duration::ZERO, "on-device queries have no network cost");

        assert!(matches!(service.query(8, &xs), Err(ServiceError::UnknownUser(8))));
    }

    #[test]
    fn cloud_deployment_pays_latency() {
        let (general, _, _) = trained_general();
        let mut service = PelicanService::new(general.clone(), NetworkLink::wan());
        service.enroll(1, general.clone(), Deployment::Cloud, None);
        let (_, rtt) = service.query(1, &vec![vec![0.0; 6]; 2]).unwrap();
        assert!(rtt >= Duration::from_millis(80), "two WAN traversals");
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let (general, _, _) = trained_general();
        let mut service = PelicanService::new(general.clone(), NetworkLink::wifi());
        service.enroll(1, general, Deployment::OnDevice, None);
        let err = service.query(1, &vec![vec![0.0; 5]; 2]).unwrap_err();
        assert_eq!(err, ServiceError::DimensionMismatch { expected: 6, got: 5 });
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn privacy_layer_applies_at_enrollment() {
        let (general, _, _) = trained_general();
        let mut service = PelicanService::new(general.clone(), NetworkLink::wifi());
        service.enroll(1, general, Deployment::OnDevice, Some(PrivacyLayer::new(1e-3)));
        let (probs, _) = service.query(1, &vec![vec![0.3; 6]; 2]).unwrap();
        let max = probs.iter().cloned().fold(0.0f32, f32::max);
        assert!(max > 0.999, "enrolled model serves sharpened confidences");
    }

    #[test]
    fn tied_confidences_rank_by_index_deterministically() {
        // Coarse rounding collapses most confidences to equal values, the
        // worst case for top-k stability. Ties must order by class index so
        // re-runs (and the batched serving path) agree exactly.
        let (general, _, _) = trained_general();
        let mut service = PelicanService::new(general.clone(), NetworkLink::wifi());
        let mut model = general.clone();
        model.set_postprocess(pelican_nn::Postprocess::Round { decimals: 0 });
        service.enroll(1, model, Deployment::OnDevice, None);
        let xs = vec![vec![0.2; 6]; 2];
        let first = service.top_k(1, &xs, 4).unwrap();
        let second = service.top_k(1, &xs, 4).unwrap();
        assert_eq!(first, second, "re-running a tied ranking must not reorder it");
        // With a perturbation defense deployed the service ranks from the
        // postprocessed confidences; the ranking must be exactly the
        // index-tie-broken top-k of those scores.
        let (probs, _) = service.query(1, &xs).unwrap();
        assert_eq!(first, pelican_tensor::top_k(&probs, 4));
        assert!(
            probs.iter().filter(|&&p| p == probs[first[1]]).count() > 1,
            "coarse rounding should actually produce ties, got {probs:?}"
        );
    }

    #[test]
    fn updates_redeploy() {
        let (general, _, _) = trained_general();
        let personalizer = DevicePersonalizer::new(
            PersonalizationConfig {
                train: TrainConfig { epochs: 2, ..TrainConfig::default() },
                hidden_dim: 8,
                ..PersonalizationConfig::default()
            },
            NetworkLink::wifi(),
        );
        let envelope = ModelEnvelope::encode(&general);
        let mut outcome = personalizer
            .personalize(&envelope, &samples(12, 6, 4), PersonalizationMethod::TlFineTune)
            .unwrap();
        let (report, usage) = personalizer.update(&mut outcome.model, &samples(12, 6, 4));
        assert!(report.steps > 0);
        assert!(usage.flops > 0);

        let mut service = PelicanService::new(general, NetworkLink::wifi());
        service.enroll(2, outcome.model.clone(), Deployment::OnDevice, None);
        service.redeploy(2, outcome.model, None).expect("redeploy enrolled user");
        assert!(matches!(
            service.redeploy(99, service.general().clone(), None),
            Err(ServiceError::UnknownUser(99))
        ));
    }
}
