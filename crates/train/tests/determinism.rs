//! Parallel-vs-sequential determinism: the same cohort personalized with
//! 1, 2 and 8 workers must produce bit-identical model weights, audit
//! verdicts, fit reports, FLOP counts and simulated device durations (the
//! input every network replay consumes). This is the contract that makes the
//! trainer pool safe to scale — worker count is a pure throughput knob,
//! never a behaviour knob.

use pelican::PersonalizationConfig;
use pelican_mobility::{CampusConfig, DatasetBuilder, MobilityDataset, Scale, SpatialLevel};
use pelican_nn::{ModelEnvelope, SequenceModel, TrainConfig};
use pelican_serve::{RegistryConfig, ShardedRegistry};
use pelican_train::{
    cohort_jobs, cosimulate_fleet, AuditConfig, FleetTrainer, LoopMode, NetworkConfig,
    PipelineConfig, TrainJob, TrainReport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setting() -> (SequenceModel, MobilityDataset, Vec<TrainJob>) {
    let dataset =
        DatasetBuilder::new(CampusConfig::for_scale(Scale::Tiny), 31).build(SpatialLevel::Building);
    let mut rng = StdRng::seed_from_u64(31);
    let general =
        SequenceModel::general_lstm(dataset.space.dim(), 16, dataset.n_locations(), 0.1, &mut rng);
    let n = dataset.users.len();
    let jobs = cohort_jobs(&dataset, n.saturating_sub(4)..n, 0.8);
    assert!(jobs.len() >= 2, "need a real cohort to exercise stealing");
    (general, dataset, jobs)
}

fn config(workers: usize) -> PipelineConfig {
    PipelineConfig {
        workers,
        base_seed: 77,
        personalization: PersonalizationConfig {
            train: TrainConfig { epochs: 3, ..TrainConfig::default() },
            hidden_dim: 16,
            ..PersonalizationConfig::default()
        },
        audit: AuditConfig { max_instances: 3, ..AuditConfig::default() },
    }
}

/// Runs the pipeline and returns (report, per-user published envelope
/// bytes in job order).
fn run(
    workers: usize,
    general: &SequenceModel,
    dataset: &MobilityDataset,
    jobs: &[TrainJob],
) -> (TrainReport, Vec<Vec<u8>>) {
    let registry = ShardedRegistry::new(general.clone(), RegistryConfig::default());
    let report = FleetTrainer::new(config(workers)).run(general, &dataset.space, jobs, &registry);
    let envelopes = jobs
        .iter()
        .map(|job| {
            let (model, _) = registry.get(job.user_id).expect("published envelope decodes");
            ModelEnvelope::encode(&model).as_bytes().to_vec()
        })
        .collect();
    (report, envelopes)
}

#[test]
fn one_two_and_eight_workers_publish_bit_identical_models() {
    let (general, dataset, jobs) = setting();
    let (sequential, sequential_envelopes) = run(1, &general, &dataset, &jobs);

    for workers in [2usize, 8] {
        let (parallel, parallel_envelopes) = run(workers, &general, &dataset, &jobs);
        assert_eq!(
            sequential_envelopes, parallel_envelopes,
            "{workers}-worker published weights must be bit-identical to sequential"
        );
        for (seq, par) in sequential.outcomes.iter().zip(&parallel.outcomes) {
            assert_eq!(seq.user_id, par.user_id, "outcomes stay in job order");
            assert_eq!(
                seq.gate, par.gate,
                "audit verdict for user {} must not depend on worker count",
                seq.user_id
            );
            assert_eq!(seq.fit, par.fit);
            assert_eq!(
                seq.train_simulated, par.train_simulated,
                "simulated training duration for user {} must not depend on worker count",
                seq.user_id
            );
            assert_eq!(seq.audit_simulated, par.audit_simulated);
            assert_eq!(seq.envelope_bytes, par.envelope_bytes);
        }
        assert_eq!(sequential.flops, parallel.flops, "FLOP parity broken at {workers} workers");
    }
}

#[test]
fn network_replay_fingerprint_is_width_invariant() {
    // A report runs through the discrete-event network co-simulation to
    // the same timeline whatever pool produced it: every download, upload
    // and publication instant derives from the per-job simulated
    // durations, which do not depend on the worker count.
    let (general, dataset, jobs) = setting();
    let general_bytes = ModelEnvelope::encode(&general).len() as u64;
    let net = NetworkConfig::default();
    let replay = |workers: usize| {
        let (report, _) = run(workers, &general, &dataset, &jobs);
        cosimulate_fleet(&[&report], general_bytes, &net, LoopMode::Open).fingerprint()
    };
    let sequential = replay(1);
    for workers in [2usize, 8] {
        assert_eq!(replay(workers), sequential, "network timeline moved at {workers} workers");
    }
}

#[test]
fn distinct_users_get_distinct_models() {
    // The per-user seed derivation must actually separate users: two
    // users with the same general model and method still train different
    // parameters (different data *and* different init seeds).
    let (general, dataset, jobs) = setting();
    let (_, envelopes) = run(2, &general, &dataset, &jobs);
    for (i, a) in envelopes.iter().enumerate() {
        for b in &envelopes[i + 1..] {
            assert_ne!(a, b, "two users published identical weights");
        }
    }
}
