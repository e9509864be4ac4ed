//! Experiment harness: builds end-to-end scenarios shared by the examples,
//! integration tests and the benchmark suite.
//!
//! A [`Scenario`] reproduces the paper's experimental setting (§IV-A):
//! contributors `G` pool their trajectories to train the general model in
//! the cloud; a disjoint set of personalization users `P` adapt it on their
//! devices; attacks then target the personalized models.

use pelican_attacks::{
    evaluate_attack, interest_locations, Adversary, AttackEvaluation, AttackMethod, Instance,
    Prior, PriorKind, INTEREST_THRESHOLD,
};
use pelican_mobility::{
    train_test_split, within_weeks, CampusConfig, DatasetBuilder, MobilityDataset, Scale, Session,
    SpatialLevel, TRAIN_FRACTION,
};
use pelican_nn::metrics::evaluate_top_k;
use pelican_nn::{FitReport, ModelEnvelope, Sample, SequenceModel, TrainConfig};

use crate::defenses::DefenseKind;
use crate::personalize::{personalize, PersonalizationConfig, PersonalizationMethod};
use crate::platform::{ComputeTier, ResourceUsage};
use crate::system::CloudTrainer;

/// Sizing knobs derived from a [`Scale`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioSizing {
    /// LSTM hidden width.
    pub hidden_dim: usize,
    /// Epochs for cloud training of the general model.
    pub general_epochs: usize,
    /// Epochs for on-device personalization.
    pub personal_epochs: usize,
}

impl ScenarioSizing {
    /// Defaults per scale (the paper's 128-wide LSTM at `Paper` scale).
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            // Tiny pools only ~500 contributor samples, so at batch 128
            // an epoch is ~4 optimizer steps; 8 epochs left the general
            // model at the uniform plateau. 40 epochs (~160 steps) gets
            // it clearly past chance while staying fast for unit tests.
            Scale::Tiny => Self { hidden_dim: 24, general_epochs: 40, personal_epochs: 12 },
            Scale::Small => Self { hidden_dim: 64, general_epochs: 15, personal_epochs: 25 },
            Scale::Paper => Self { hidden_dim: 128, general_epochs: 15, personal_epochs: 25 },
        }
    }
}

/// One personalization user: their private data splits and trained model.
#[derive(Debug, Clone)]
pub struct PersonalUser {
    /// User index within the dataset.
    pub user_id: usize,
    /// The personalized model (no privacy layer installed).
    pub model: SequenceModel,
    /// Training samples (the user's private history).
    pub train: Vec<Sample>,
    /// Held-out samples for accuracy measurement.
    pub test: Vec<Sample>,
    /// The session triples behind `train` (ground truth for priors).
    pub train_triples: Vec<[Session; 3]>,
    /// The session triples behind `test` (attack instances come from here).
    pub test_triples: Vec<[Session; 3]>,
    /// Fit report of the personalization run.
    pub fit: FitReport,
    /// Device compute spent personalizing.
    pub usage: ResourceUsage,
}

impl PersonalUser {
    /// The user's training sessions (hidden-step marginals for the true
    /// prior are computed from these).
    fn train_sessions(&self) -> Vec<Session> {
        self.train_triples.iter().flat_map(|t| t.iter().copied()).collect()
    }

    /// Top-k test accuracy of the personalized model.
    pub fn test_accuracy(&self, k: usize) -> f64 {
        evaluate_top_k(&self.model, &self.test, &[k]).accuracy(k)
    }
}

/// A complete experimental setting.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The synthetic dataset (traces, triples, feature space).
    pub dataset: MobilityDataset,
    /// The cloud-trained general model `M_G`.
    pub general: SequenceModel,
    /// Cloud compute spent training `M_G`.
    pub general_usage: ResourceUsage,
    /// Fit report of the general training run.
    pub general_fit: FitReport,
    /// Index of the first personalization user (users before this are
    /// contributors).
    pub first_personal_user: usize,
    /// The personalization users `P` with their models.
    pub personal: Vec<PersonalUser>,
    /// The personalization method used for `personal`.
    pub method: PersonalizationMethod,
    /// Seed the scenario was built from.
    pub seed: u64,
}

impl Scenario {
    /// Starts configuring a scenario.
    pub fn builder(scale: Scale, level: SpatialLevel) -> ScenarioBuilder {
        ScenarioBuilder {
            scale,
            level,
            seed: 42,
            personal_users: None,
            method: PersonalizationMethod::TlFeatureExtract,
            sizing: None,
            weeks: None,
        }
    }

    /// Builds the attack instances an adversary sees for one user's
    /// held-out triples, capped at `max_instances`.
    pub fn attack_instances(
        &self,
        user: &PersonalUser,
        adversary: Adversary,
        max_instances: usize,
    ) -> Vec<Instance> {
        user.test_triples
            .iter()
            .take(max_instances)
            .map(|t| adversary.instance(t, self.dataset.space.location_of(&t[2])))
            .collect()
    }

    /// Builds the prior of `kind` for one user.
    pub fn prior(&self, user: &PersonalUser, kind: PriorKind) -> Prior {
        Prior::of_kind(
            kind,
            &self.dataset.space,
            &user.train_sessions(),
            &user.model,
            self.seed ^ 0x9d,
        )
    }

    /// Runs an attack against one user's personalized model, with
    /// `defense` installed on a copy of it, and aggregates top-k attack
    /// accuracy.
    #[allow(clippy::too_many_arguments)]
    pub fn attack_user(
        &self,
        user: &PersonalUser,
        adversary: Adversary,
        method: &AttackMethod,
        prior_kind: PriorKind,
        ks: &[usize],
        max_instances: usize,
        defense: DefenseKind,
    ) -> AttackEvaluation {
        let mut model = user.model.clone();
        model.set_defense(defense);
        let prior = self.prior(user, prior_kind);
        let probes =
            pelican_attacks::prior::random_probes(&self.dataset.space, 24, self.seed ^ 0x1f);
        let interest = interest_locations(&mut model, &probes, INTEREST_THRESHOLD);
        let instances = self.attack_instances(user, adversary, max_instances);
        evaluate_attack(method, &mut model, &self.dataset.space, &prior, &interest, &instances, ks)
    }

    /// Runs an attack across all personalization users and merges results —
    /// the paper's "aggregate inversion attack accuracy".
    #[allow(clippy::too_many_arguments)]
    pub fn attack_all(
        &self,
        adversary: Adversary,
        method: &AttackMethod,
        prior_kind: PriorKind,
        ks: &[usize],
        max_instances_per_user: usize,
        defense: DefenseKind,
    ) -> AttackEvaluation {
        let mut total = AttackEvaluation::empty(ks);
        for user in &self.personal {
            let eval = self.attack_user(
                user,
                adversary,
                method,
                prior_kind,
                ks,
                max_instances_per_user,
                defense,
            );
            total.merge(&eval);
        }
        total
    }
}

/// Configures and builds a [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scale: Scale,
    level: SpatialLevel,
    seed: u64,
    personal_users: Option<usize>,
    method: PersonalizationMethod,
    sizing: Option<ScenarioSizing>,
    weeks: Option<usize>,
}

impl ScenarioBuilder {
    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps how many personalization users are trained (default: all
    /// non-contributor users).
    pub fn personal_users(mut self, n: usize) -> Self {
        self.personal_users = Some(n);
        self
    }

    /// Chooses the personalization method (default: TL feature extraction,
    /// the paper's §IV default).
    pub fn method(mut self, method: PersonalizationMethod) -> Self {
        self.method = method;
        self
    }

    /// Overrides model sizing.
    pub fn sizing(mut self, sizing: ScenarioSizing) -> Self {
        self.sizing = Some(sizing);
        self
    }

    /// Restricts personal training data to the first `weeks` weeks
    /// (Table IV's sweep). Test data is unaffected.
    pub fn personal_weeks(mut self, weeks: usize) -> Self {
        self.weeks = Some(weeks);
        self
    }

    /// Builds the scenario: generates traces, trains the general model on
    /// the contributor two-thirds of users, then personalizes models for
    /// the remaining users on the simulated device tier.
    pub fn build(self) -> Scenario {
        let config = CampusConfig::for_scale(self.scale);
        let sizing = self.sizing.unwrap_or_else(|| ScenarioSizing::for_scale(self.scale));
        let dataset = DatasetBuilder::new(config.clone(), self.seed).build(self.level);

        let first_personal_user = (config.users * 2) / 3;
        let contributor_samples = dataset.pooled_samples(0..first_personal_user);

        let trainer = CloudTrainer::new(
            TrainConfig {
                epochs: sizing.general_epochs,
                batch_size: 128,
                shuffle_seed: self.seed,
                ..TrainConfig::default()
            },
            sizing.hidden_dim,
            0.1,
        );
        let (general, general_fit, general_usage) = trainer.train(
            dataset.space.dim(),
            dataset.n_locations(),
            &contributor_samples,
            self.seed,
        );

        let personal_count = self
            .personal_users
            .unwrap_or(config.users - first_personal_user)
            .min(config.users - first_personal_user);
        // What a device personalizes is M_G as downloaded: decoding the
        // envelope resets every dropout seed, and the training masks of
        // every personalization are drawn from those seeds.
        let on_device = ModelEnvelope::encode(&general).decode().expect("a fresh envelope decodes");
        let config = PersonalizationConfig {
            train: TrainConfig {
                epochs: sizing.personal_epochs,
                batch_size: 16,
                shuffle_seed: self.seed ^ 0x77,
                ..TrainConfig::default()
            },
            hidden_dim: sizing.hidden_dim,
            dropout: 0.1,
            seed: self.seed ^ 0xABCD,
        };

        let mut personal = Vec::with_capacity(personal_count);
        for user_id in first_personal_user..first_personal_user + personal_count {
            let user_data = &dataset.users[user_id];
            let all_triples = &user_data.triples;
            let (mut train_triples, test_triples) = train_test_split(all_triples, TRAIN_FRACTION);
            if let Some(weeks) = self.weeks {
                train_triples.retain(|t| within_weeks(t, weeks));
            }
            let train: Vec<Sample> = train_triples.iter().map(|t| dataset.sample_of(t)).collect();
            let test: Vec<Sample> = test_triples.iter().map(|t| dataset.sample_of(t)).collect();
            if train.is_empty() || test.is_empty() {
                continue;
            }
            let (model, fit) = personalize(&on_device, &train, self.method, &config);
            let usage = ResourceUsage::priced(ComputeTier::Device, fit.flops);
            personal.push(PersonalUser {
                user_id,
                model,
                train,
                test,
                train_triples,
                test_triples,
                fit,
                usage,
            });
        }

        Scenario {
            dataset,
            general,
            general_usage,
            general_fit,
            first_personal_user,
            personal,
            method: self.method,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenario() -> Scenario {
        Scenario::builder(Scale::Tiny, SpatialLevel::Building).seed(11).personal_users(2).build()
    }

    #[test]
    fn scenario_separates_contributors_from_personal_users() {
        let s = tiny_scenario();
        assert!(s.first_personal_user > 0);
        for u in &s.personal {
            assert!(u.user_id >= s.first_personal_user, "personal users are disjoint from G");
        }
        assert_eq!(s.personal.len(), 2);
    }

    #[test]
    fn personalized_models_run_and_report() {
        let s = tiny_scenario();
        let u = &s.personal[0];
        assert!(u.fit.steps > 0);
        assert!(u.usage.flops > 0);
        let acc = u.test_accuracy(3);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn attack_pipeline_produces_accuracy() {
        let s = tiny_scenario();
        let method = AttackMethod::TimeBased(pelican_attacks::TimeBased::default());
        let eval = s.attack_user(
            &s.personal[0],
            Adversary::A1,
            &method,
            PriorKind::True,
            &[1, 3],
            5,
            DefenseKind::None,
        );
        assert!(eval.total > 0);
        assert!(eval.accuracy(3) >= eval.accuracy(1));
    }

    #[test]
    fn attack_all_merges_users() {
        let s = tiny_scenario();
        let method = AttackMethod::TimeBased(pelican_attacks::TimeBased::default());
        let eval =
            s.attack_all(Adversary::A1, &method, PriorKind::True, &[1], 3, DefenseKind::None);
        assert_eq!(eval.total, s.personal.iter().map(|u| u.test_triples.len().min(3)).sum());
    }

    #[test]
    fn weeks_cap_shrinks_training_data() {
        let full = Scenario::builder(Scale::Tiny, SpatialLevel::Building)
            .seed(11)
            .personal_users(1)
            .build();
        let short = Scenario::builder(Scale::Tiny, SpatialLevel::Building)
            .seed(11)
            .personal_users(1)
            .personal_weeks(1)
            .build();
        assert!(short.personal[0].train.len() < full.personal[0].train.len());
    }

    #[test]
    fn scenarios_are_deterministic() {
        let a = tiny_scenario();
        let b = tiny_scenario();
        let xs = &a.personal[0].test[0].xs;
        assert_eq!(a.personal[0].model.logits(xs), b.personal[0].model.logits(xs));
    }
}
