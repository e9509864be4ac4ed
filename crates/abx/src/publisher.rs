//! Per-arm training and durable publication.
//!
//! [`publish_arms`] personalizes every enrolled user once on the
//! work-stealing [`TrainerPool`] (bit-identical for any width — per-user
//! seeds, job-order collection, device-tier cost priced from each fit) and
//! publishes each user's envelopes through the registry's
//! durable-before-visible path:
//!
//! * a **treatment** user gets *two* publications from the same base
//!   weights — first the **shadow** (the *other* arm's rung), then the
//!   **active** (their own arm's rung). The store's version history
//!   retains both, which is the whole trick: if this user's arm loses the
//!   experiment, flipping them to the winning rung is a
//!   [`ShardedRegistry::rollback`] to the shadow version — durable,
//!   atomic, zero retraining;
//! * a **holdout** user gets one base-defense publication and is not
//!   touched again until a winner is promoted fleet-wide.
//!
//! The undefended base weights ride along in each [`ArmPublication`] so
//! the flow can later derive the *expected* post-flip model (base +
//! winning rung) and check served responses against it exactly.

use pelican::platform::{ComputeTier, ResourceUsage};
use pelican::DefenseKind;
use pelican_nn::{ModelEnvelope, SequenceModel};
use pelican_serve::ShardedRegistry;
use pelican_sim::{fnv1a, FNV_BASIS};
use pelican_store::StoreError;
use pelican_train::{FleetTrainer, TrainJob, TrainerPool, BASE_DEFENSE};

use crate::splitter::{Arm, CohortSplit};

/// One user's experiment publication state.
#[derive(Debug, Clone)]
pub struct ArmPublication {
    /// The enrolled user.
    pub user_id: usize,
    /// The user's cohort.
    pub arm: Arm,
    /// The undefended personalized weights both rungs derive from.
    pub base: SequenceModel,
    /// Version serving traffic (own rung; base defense for the holdout).
    pub active_version: u64,
    /// Retained flip-back target (the other arm's rung); `None` for the
    /// holdout.
    pub shadow_version: Option<u64>,
    /// FNV-1a hash of the active envelope bytes.
    pub active_hash: u64,
    /// FNV-1a hash of the shadow envelope bytes.
    pub shadow_hash: Option<u64>,
    /// Active envelope size — the bytes a flip push pays on the wire.
    pub envelope_bytes: u64,
    /// Simulated device cost of the personalization, µs.
    pub train_simulated_us: u64,
}

/// Applies a defense rung to a copy of the base weights.
pub fn defended(base: &SequenceModel, rung: DefenseKind) -> SequenceModel {
    let mut model = base.clone();
    model.set_defense(rung);
    model
}

/// Trains every job on the pool and publishes per-cohort envelopes; see
/// the module docs for the shadow/active scheme. Jobs are processed in
/// input order, so versions — the only schedule-sensitive output of a
/// registry publication — are deterministic here too.
///
/// # Errors
///
/// Returns [`StoreError`] if a durable append fails; publications up to
/// that point remain (durably) visible.
///
/// # Panics
///
/// Panics if a job's user is outside `split` — the cohort partition must
/// cover every trained user.
pub fn publish_arms(
    trainer: &FleetTrainer,
    general: &SequenceModel,
    jobs: &[TrainJob],
    split: &CohortSplit,
    arms: [DefenseKind; 2],
    registry: &ShardedRegistry,
) -> Result<Vec<ArmPublication>, StoreError> {
    let general_envelope = ModelEnvelope::encode(general);
    let pool = TrainerPool::new(trainer.config().workers);
    let candidates: Vec<(SequenceModel, u64)> = pool.run(jobs, |_, job| {
        let (model, fit) = trainer.train_candidate(&general_envelope, job);
        (model, ResourceUsage::priced(ComputeTier::Device, fit.flops).simulated.as_micros() as u64)
    });

    let mut publications = Vec::with_capacity(jobs.len());
    for (job, (base, train_simulated_us)) in jobs.iter().zip(candidates) {
        let arm = split
            .arm_of(job.user_id)
            .unwrap_or_else(|| panic!("user {} trained but not in the split", job.user_id));
        let own_rung = match arm {
            Arm::A => arms[0],
            Arm::B => arms[1],
            Arm::Holdout => BASE_DEFENSE,
        };
        // Shadow first: by the time the active version is visible, the
        // flip-back target is already durable.
        let (shadow_version, shadow_hash) = match arm {
            Arm::A | Arm::B => {
                let other = match arm.other() {
                    Arm::A => arms[0],
                    Arm::B => arms[1],
                    Arm::Holdout => unreachable!("other() never yields the holdout"),
                };
                let envelope = ModelEnvelope::encode(&defended(&base, other));
                let hash = fnv1a(FNV_BASIS, envelope.as_bytes());
                (Some(registry.try_enroll_envelope(job.user_id, envelope)?), Some(hash))
            }
            Arm::Holdout => (None, None),
        };
        let active = ModelEnvelope::encode(&defended(&base, own_rung));
        let active_hash = fnv1a(FNV_BASIS, active.as_bytes());
        let envelope_bytes = active.len() as u64;
        let active_version = registry.try_enroll_envelope(job.user_id, active)?;
        publications.push(ArmPublication {
            user_id: job.user_id,
            arm,
            base,
            active_version,
            shadow_version,
            active_hash,
            shadow_hash,
            envelope_bytes,
            train_simulated_us,
        });
    }
    Ok(publications)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitter::CohortSplitter;
    use pelican::PersonalizationConfig;
    use pelican_mobility::{CampusConfig, DatasetBuilder, Scale, SpatialLevel, TRAIN_FRACTION};
    use pelican_nn::TrainConfig;
    use pelican_serve::RegistryConfig;
    use pelican_store::{EnvelopeStore, MemBackend, StoreConfig};
    use pelican_train::{cohort_jobs, AuditConfig, PipelineConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn setting() -> (SequenceModel, pelican_mobility::MobilityDataset, Vec<TrainJob>) {
        let dataset = DatasetBuilder::new(CampusConfig::for_scale(Scale::Tiny), 11)
            .build(SpatialLevel::Building);
        let mut rng = StdRng::seed_from_u64(11);
        let general = SequenceModel::general_lstm(
            dataset.space.dim(),
            12,
            dataset.n_locations(),
            0.1,
            &mut rng,
        );
        let n = dataset.users.len();
        let jobs = cohort_jobs(&dataset, (n - 3)..n, TRAIN_FRACTION);
        (general, dataset, jobs)
    }

    fn config(workers: usize) -> PipelineConfig {
        PipelineConfig {
            workers,
            personalization: PersonalizationConfig {
                train: TrainConfig { epochs: 1, ..TrainConfig::default() },
                hidden_dim: 12,
                ..PersonalizationConfig::default()
            },
            audit: AuditConfig { max_instances: 2, ..AuditConfig::default() },
            ..PipelineConfig::default()
        }
    }

    fn registry(general: &SequenceModel) -> ShardedRegistry {
        let store = EnvelopeStore::open(
            Arc::new(MemBackend::new()),
            StoreConfig { shards: 2, ..StoreConfig::default() },
        )
        .unwrap();
        ShardedRegistry::with_store(
            general.clone(),
            RegistryConfig { shards: 2, ..RegistryConfig::default() },
            Arc::new(store),
        )
    }

    const ARMS: [DefenseKind; 2] =
        [DefenseKind::None, DefenseKind::Temperature { temperature: 1e-5 }];

    #[test]
    fn treatment_users_get_a_durable_shadow_and_holdouts_do_not() {
        let (general, _dataset, jobs) = setting();
        let users: Vec<usize> = jobs.iter().map(|j| j.user_id).collect();
        // A seed whose tiny split puts at least one user in each class is
        // not guaranteed; force the partition instead.
        let split = CohortSplit { a: vec![users[0]], b: vec![users[1]], holdout: vec![users[2]] };
        let registry = registry(&general);
        let trainer = FleetTrainer::new(config(2));
        let pubs = publish_arms(&trainer, &general, &jobs, &split, ARMS, &registry).unwrap();
        assert_eq!(pubs.len(), 3);
        for p in &pubs {
            assert_eq!(registry.version_of(p.user_id), Some(p.active_version));
            match p.arm {
                Arm::A | Arm::B => {
                    let shadow = p.shadow_version.expect("treatment users carry a shadow");
                    assert!(shadow < p.active_version, "shadow is durable before active");
                    assert_ne!(p.shadow_hash.unwrap(), p.active_hash, "rungs differ on the wire");
                    // The flip is free: rollback to the shadow re-serves
                    // the other arm's rung with no retraining.
                    registry.rollback(p.user_id, shadow).expect("shadow version is retained");
                }
                Arm::Holdout => {
                    assert!(p.shadow_version.is_none() && p.shadow_hash.is_none());
                }
            }
            assert!(p.envelope_bytes > 0);
            assert!(p.train_simulated_us > 0);
        }
    }

    #[test]
    fn publication_is_width_invariant() {
        let (general, _dataset, jobs) = setting();
        let split = CohortSplitter::new(0xAB, 0.34, 0.33).split(jobs.iter().map(|j| j.user_id));
        let run = |workers| {
            let registry = registry(&general);
            let trainer = FleetTrainer::new(config(workers));
            publish_arms(&trainer, &general, &jobs, &split, ARMS, &registry).unwrap()
        };
        let narrow = run(1);
        let wide = run(4);
        for (a, b) in narrow.iter().zip(&wide) {
            assert_eq!(a.user_id, b.user_id);
            assert_eq!(a.active_hash, b.active_hash, "user {} weights drifted", a.user_id);
            assert_eq!(a.shadow_hash, b.shadow_hash);
            assert_eq!(a.active_version, b.active_version, "publication order is job order");
            assert_eq!(a.train_simulated_us, b.train_simulated_us);
        }
    }
}
