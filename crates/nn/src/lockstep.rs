//! Training a cohort of user models: [`crate::fit`] on each job in turn.
//!
//! The fleet personalization pipeline trains one [`SequenceModel`] per
//! user and can hand a worker a *cohort* of jobs at once. Nothing crosses
//! users: the optimizer (and its Adam moments), the shuffle RNG, the
//! dropout draws and the frozen-prefix cache all belong to one job,
//! gradients are averaged per user, and no kernel spans two users'
//! mini-batches. Advancing the jobs of a cohort together is therefore
//! unobservable, and the cohort driver is a map over [`crate::fit`] —
//! which is where every mini-batch meets the packed chunk kernels — that
//! takes, around each call, the per-job measurement the pipeline prices
//! device time from.

use std::time::{Duration, Instant};

use pelican_tensor::ThreadFlopGuard;

use crate::train::{fit, FitReport};
use crate::{Sample, SequenceModel, TrainConfig};

/// One user's training job in a cohort.
#[derive(Debug)]
pub struct LockstepJob<'a> {
    /// The user's model, trained in place.
    pub model: &'a mut SequenceModel,
    /// The user's training samples.
    pub samples: &'a [Sample],
    /// The user's hyperparameters (including their private shuffle seed).
    pub config: TrainConfig,
}

/// Per-user outcome of a [`fit_lockstep`] cohort.
#[derive(Debug, Clone, PartialEq)]
pub struct LockstepOutcome {
    /// The user's training report — what [`crate::fit`] returned.
    pub fit: FitReport,
    /// FLOPs this thread recorded during the job's [`crate::fit`] call.
    pub flops: u64,
    /// Host wall-clock time of that call.
    pub host_elapsed: Duration,
}

/// Trains every job of a cohort with [`crate::fit`], in job order,
/// measuring each call.
///
/// # Panics
///
/// Panics if any job has no samples or a zero batch size (the
/// preconditions of [`crate::fit`]).
pub fn fit_lockstep(jobs: &mut [LockstepJob<'_>]) -> Vec<LockstepOutcome> {
    jobs.iter_mut()
        .map(|job| {
            let wall = Instant::now();
            let flops = ThreadFlopGuard::start();
            let fit = fit(job.model, job.samples, &job.config);
            LockstepOutcome { fit, flops: flops.stop(), host_elapsed: wall.elapsed() }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    fn toy_samples(n: usize, classes: usize, seed: u64) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let c = rng.random_range(0..classes);
                let mut x = vec![0.0; classes];
                x[c] = 1.0;
                Sample::new(vec![x.clone(), x], c)
            })
            .collect()
    }

    fn toy_model(classes: usize, seed: u64) -> SequenceModel {
        let mut rng = StdRng::seed_from_u64(seed);
        SequenceModel::general_lstm(classes, 12, classes, 0.1, &mut rng)
    }

    #[test]
    fn empty_cohort_is_fine() {
        assert!(fit_lockstep(&mut []).is_empty());
    }

    #[test]
    fn singleton_cohort_matches_fit_bitwise() {
        let samples = toy_samples(23, 4, 7);
        let config = TrainConfig { epochs: 3, batch_size: 8, ..TrainConfig::default() };

        let mut seq_model = toy_model(4, 5);
        let seq_report = fit(&mut seq_model, &samples, &config);

        let mut lock_model = toy_model(4, 5);
        let outcomes = fit_lockstep(&mut [LockstepJob {
            model: &mut lock_model,
            samples: &samples,
            config: config.clone(),
        }]);

        assert_eq!(outcomes[0].fit, seq_report);
        assert_eq!(
            crate::ModelEnvelope::encode(&seq_model),
            crate::ModelEnvelope::encode(&lock_model),
            "lockstep weights diverged from sequential fit"
        );
    }

    #[test]
    fn ragged_cohort_epochs_and_chunks_drop_out() {
        // Users with different sample counts and epoch counts: each must
        // still match its own sequential run exactly.
        let users: Vec<(Vec<Sample>, TrainConfig, u64)> = vec![
            (
                toy_samples(5, 3, 1),
                TrainConfig { epochs: 1, batch_size: 4, shuffle_seed: 11, ..Default::default() },
                21,
            ),
            (
                toy_samples(17, 3, 2),
                TrainConfig { epochs: 4, batch_size: 4, shuffle_seed: 12, ..Default::default() },
                22,
            ),
            (
                toy_samples(9, 3, 3),
                TrainConfig { epochs: 2, batch_size: 16, shuffle_seed: 13, ..Default::default() },
                23,
            ),
        ];
        let mut seq_models: Vec<SequenceModel> =
            users.iter().map(|&(_, _, ms)| toy_model(3, ms)).collect();
        let seq_reports: Vec<FitReport> = seq_models
            .iter_mut()
            .zip(&users)
            .map(|(m, (samples, config, _))| fit(m, samples, config))
            .collect();

        let mut lock_models: Vec<SequenceModel> =
            users.iter().map(|&(_, _, ms)| toy_model(3, ms)).collect();
        let mut jobs: Vec<LockstepJob> = lock_models
            .iter_mut()
            .zip(&users)
            .map(|(model, (samples, config, _))| LockstepJob {
                model,
                samples,
                config: config.clone(),
            })
            .collect();
        let outcomes = fit_lockstep(&mut jobs);

        for ((seq, lock), (outcome, report)) in
            seq_models.iter().zip(&lock_models).zip(outcomes.iter().zip(&seq_reports))
        {
            assert_eq!(&outcome.fit, report);
            assert_eq!(crate::ModelEnvelope::encode(seq), crate::ModelEnvelope::encode(lock));
        }
    }
}
