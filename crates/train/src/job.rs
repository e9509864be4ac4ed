//! Per-user training jobs and cohort construction.

use std::ops::Range;

use pelican_attacks::AuditSubject;
use pelican_mobility::{train_test_split, MobilityDataset, Session};
use pelican_nn::{ModelEnvelope, Sample};

/// Whether a job trains from scratch or warm-starts a deployed model.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// Derive a fresh personalized model from the general model (Fig. 4
    /// step 2).
    Fresh,
    /// Step 4: warm-start from the user's currently published envelope and
    /// re-train on newly accumulated data, preserving the freeze pattern
    /// (which survives the envelope round trip). Any deployed defense is
    /// stripped before training and re-decided by the audit gate.
    WarmStart {
        /// The user's currently published model.
        envelope: ModelEnvelope,
    },
}

/// One user's personalization job: their private data plus everything the
/// audit gate needs.
#[derive(Debug, Clone)]
pub struct TrainJob {
    /// The user being personalized.
    pub user_id: usize,
    /// Fresh personalization or warm-start update.
    pub kind: JobKind,
    /// The user's private training samples (never leave the worker —
    /// Pelican's on-device data residency, simulated).
    pub train: Vec<Sample>,
    /// Training sessions (audit prior marginals) and held-out triples
    /// (audit attack instances).
    pub subject: AuditSubject,
}

impl TrainJob {
    /// Converts a fresh job into a warm-start update from a published
    /// envelope (the data fields carry over).
    pub fn into_warm(self, envelope: ModelEnvelope) -> Self {
        Self { kind: JobKind::WarmStart { envelope }, ..self }
    }

    /// Whether this is a warm-start update.
    pub fn is_warm(&self) -> bool {
        matches!(self.kind, JobKind::WarmStart { .. })
    }
}

/// Builds fresh personalization jobs for a cohort of dataset users,
/// splitting each user's triples into training data and audit holdout
/// exactly like the experiment workbench does (so a pipeline-trained
/// cohort is comparable to a `Scenario`-trained one). Users whose split
/// leaves either side empty are skipped.
pub fn cohort_jobs(
    dataset: &MobilityDataset,
    users: Range<usize>,
    train_fraction: f64,
) -> Vec<TrainJob> {
    users
        .filter_map(|user_id| {
            fresh_job(dataset, user_id, &dataset.users[user_id].triples, train_fraction)
        })
        .collect()
}

/// A fresh personalization job over one user's time-ordered `triples`:
/// the first `train_fraction` of them are the training data and the
/// audit's history, the rest the audit holdout. `None` when either side
/// is empty.
pub fn fresh_job(
    dataset: &MobilityDataset,
    user_id: usize,
    triples: &[[Session; 3]],
    train_fraction: f64,
) -> Option<TrainJob> {
    let (train_triples, holdout) = train_test_split(triples, train_fraction);
    let train: Vec<Sample> = train_triples.iter().map(|t| dataset.sample_of(t)).collect();
    if train.is_empty() || holdout.is_empty() {
        return None;
    }
    let history: Vec<Session> = train_triples.iter().flat_map(|t| t.iter().copied()).collect();
    Some(TrainJob {
        user_id,
        kind: JobKind::Fresh,
        train,
        subject: AuditSubject { history, holdout },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelican_mobility::{CampusConfig, DatasetBuilder, Scale, SpatialLevel, TRAIN_FRACTION};

    #[test]
    fn cohort_jobs_split_train_and_holdout() {
        let dataset = DatasetBuilder::new(CampusConfig::for_scale(Scale::Tiny), 9)
            .build(SpatialLevel::Building);
        let n = dataset.users.len();
        let jobs = cohort_jobs(&dataset, (n - 3)..n, TRAIN_FRACTION);
        assert!(!jobs.is_empty());
        for job in &jobs {
            assert!(!job.train.is_empty());
            assert!(!job.subject.holdout.is_empty());
            assert!(!job.is_warm());
            assert_eq!(job.subject.history.len(), job.train.len() * 3);
        }
        let warm = jobs[0].clone().into_warm(ModelEnvelope::from_bytes(vec![0u8]));
        assert!(warm.is_warm());
    }
}
