//! Closed-loop co-simulation: the whole fleet on one virtual clock.
//!
//! Trains a small cohort for two rounds (fresh, then warm-start), then
//! runs the same rounds through the reactive engine twice — once as an
//! open-loop replay that ignores failures, once as a closed-loop
//! co-simulation where a timed-out download ends the device's
//! participation — and demonstrates all four unified-clock contracts:
//!
//! 1. with zero timeouts the two loops are bit-identical;
//! 2. with injected timeouts they diverge, and the failed device's warm
//!    round is absent from the closed-loop timeline only;
//! 3. the closed-loop trace fingerprint is identical across 1/2/8-worker
//!    trainer pools;
//! 4. the sim-driven batch scheduler reshapes its batches under uplink
//!    jitter.
//!
//! Run with: `cargo run --release --example fleet_cosim`

use pelican::workbench::{Scenario, ScenarioSizing};
use pelican::PersonalizationConfig;
use pelican_mobility::{Scale, SpatialLevel};
use pelican_nn::{ModelEnvelope, SequenceModel, TrainConfig};
use pelican_serve::{
    simulate_serving, CloudNetwork, RegistryConfig, Request, SchedulerConfig, ShardedRegistry,
    SimServeConfig,
};
use pelican_sim::{LinkMix, LinkProfile, RetryPolicy, StragglerConfig, TransferPolicy};
use pelican_train::{
    cohort_jobs, cosimulate_fleet, AuditConfig, FleetTrainer, LoopMode, NetworkConfig,
    PipelineConfig, TrainJob, TrainReport, UplinkMode,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn train_rounds(
    scenario: &Scenario,
    jobs: &[TrainJob],
    workers: usize,
) -> (TrainReport, TrainReport) {
    let sizing = ScenarioSizing::for_scale(Scale::Tiny);
    let registry = ShardedRegistry::new(scenario.general.clone(), RegistryConfig::default());
    let trainer = FleetTrainer::new(PipelineConfig {
        workers,
        base_seed: 42,
        personalization: PersonalizationConfig {
            train: TrainConfig { epochs: sizing.personal_epochs, ..TrainConfig::default() },
            hidden_dim: sizing.hidden_dim,
            ..PersonalizationConfig::default()
        },
        audit: AuditConfig { max_instances: 4, ..AuditConfig::default() },
        ..PipelineConfig::default()
    });
    let fresh = trainer.run(&scenario.general, &scenario.dataset.space, jobs, &registry);
    let warm_jobs: Vec<TrainJob> = jobs
        .iter()
        .map(|j| {
            let model = registry.get(j.user_id).expect("published envelopes decode").0;
            j.clone().into_warm(ModelEnvelope::encode(&model))
        })
        .collect();
    let warm = trainer.run(&scenario.general, &scenario.dataset.space, &warm_jobs, &registry);
    (fresh, warm)
}

fn main() {
    let scenario =
        Scenario::builder(Scale::Tiny, SpatialLevel::Building).seed(42).personal_users(0).build();
    let cohort_start = scenario.first_personal_user;
    let jobs = cohort_jobs(&scenario.dataset, cohort_start..cohort_start + 4, 0.8);
    let general_bytes = ModelEnvelope::encode(&scenario.general).len() as u64;
    println!(
        "cohort        : {} devices x 2 rounds, general envelope {} kB",
        jobs.len(),
        general_bytes / 1024
    );

    let (fresh, warm) = train_rounds(&scenario, &jobs, 1);
    let rounds = [&fresh, &warm];

    // 1. Clean network: open and closed loops must be bit-identical.
    let clean = NetworkConfig { seed: 0xC051, ..NetworkConfig::default() };
    let open = cosimulate_fleet(&rounds, general_bytes, &clean, LoopMode::Open);
    let closed = cosimulate_fleet(&rounds, general_bytes, &clean, LoopMode::Closed);
    assert_eq!(open.timed_out(), 0);
    assert_eq!(open.sim.trace, closed.sim.trace, "no failures ⇒ nothing to feed back");
    println!("agreement     : clean seed, open == closed, trace {:016x} ✓", open.fingerprint());

    // 2. Failure injection: a straggler's download cannot meet a timeout
    // set at twice the healthy wifi transfer, so the loops diverge.
    let mix =
        LinkMix::all_wifi().with_stragglers(StragglerConfig { fraction: 0.5, slowdown: 50.0 });
    let seed = (0u64..)
        .map(|k| 0xFA11 ^ (k << 8))
        .find(|&s| {
            let dealt: Vec<bool> =
                jobs.iter().map(|j| mix.assign(s, j.user_id as u64).straggler).collect();
            dealt.iter().any(|&x| x) && dealt.iter().any(|&x| !x)
        })
        .expect("some seed deals a mixed fleet");
    let failing = NetworkConfig {
        mix,
        uplink: UplinkMode::PerDevice,
        download: TransferPolicy {
            timeout_us: Some(LinkProfile::wifi().transfer_us(general_bytes) * 2),
            retry: RetryPolicy::none(),
        },
        seed,
        ..NetworkConfig::default()
    };
    let open = cosimulate_fleet(&rounds, general_bytes, &failing, LoopMode::Open);
    let closed = cosimulate_fleet(&rounds, general_bytes, &failing, LoopMode::Closed);
    assert!(closed.timed_out() > 0);
    assert_ne!(open.fingerprint(), closed.fingerprint(), "failures must diverge the loops");
    assert!(closed.skipped() > 0 && open.skipped() == 0);
    println!(
        "divergence    : {} download timeout(s), closed loop skips {} round(s) the open loop priced ✓",
        closed.timed_out(),
        closed.skipped(),
    );
    println!("\nclosed-loop co-simulation under the failing network:");
    println!("{}", closed.render());

    // 3. Width invariance: the closed-loop fingerprint must not know how
    // many host threads trained the rounds.
    for workers in [2usize, 8] {
        let (f, w) = train_rounds(&scenario, &jobs, workers);
        let wide = cosimulate_fleet(&[&f, &w], general_bytes, &failing, LoopMode::Closed);
        assert_eq!(wide.fingerprint(), closed.fingerprint(), "width {workers} must match");
    }
    println!("determinism   : closed-loop trace identical at 1, 2 and 8 workers ✓");

    // 4. Sim-driven scheduler: batches reshaped under jitter.
    let mut rng = StdRng::seed_from_u64(0x5E12);
    let general = SequenceModel::single_lstm(6, 8, 4, 0.0, &mut rng);
    let registry = ShardedRegistry::new(general, RegistryConfig { shards: 4, hot_capacity: 8 });
    for uid in 0..12 {
        let personalized = SequenceModel::single_lstm(6, 8, 4, 0.0, &mut rng);
        registry.enroll(uid, &personalized);
    }
    let requests: Vec<Request> = (0..600)
        .map(|i| Request {
            id: i,
            user_id: i % 12,
            arrival_us: (i as u64) * 217,
            xs: vec![vec![0.1; 6]; 3],
        })
        .collect();
    let scheduler = SchedulerConfig { max_batch: 8, max_delay_us: 1_733 };
    let sim_config = |network| SimServeConfig {
        scheduler,
        tier: pelican::platform::ComputeTier::Cloud,
        network,
    };
    let quiet =
        simulate_serving(&registry, &requests, &sim_config(None)).expect("envelopes decode");
    let jitter = CloudNetwork {
        mix: LinkMix::cellular_heavy()
            .with_stragglers(StragglerConfig { fraction: 0.3, slowdown: 6.0 }),
        seed: 0x1177,
        ..CloudNetwork::default()
    };
    let shaken = simulate_serving(&registry, &requests, &sim_config(Some(jitter)))
        .expect("envelopes decode");
    assert_ne!(quiet.compositions(), shaken.compositions(), "jitter must reshape batches");
    println!(
        "scheduler     : {} batches without a network -> {} batches under jitter ({} dropped) ✓",
        quiet.batches.len(),
        shaken.batches.len(),
        shaken.dropped,
    );
}
