//! Criterion bench for the reactive engine's two big consumers: the
//! closed-loop training co-simulation and the sim-driven serving
//! scheduler.
//!
//! Both sit inside experiment loops (`cosim-report` sweeps them per
//! configuration), so their host cost matters independently of the
//! training they model. Rounds are synthetic — deterministic per-device
//! durations and upload sizes — so the bench times the event engine and
//! the scheduler workload, not LSTM training. Determinism is asserted
//! before timing starts.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use pelican::DefenseKind;
use pelican_nn::{FitReport, SequenceModel};
use pelican_serve::{
    simulate_serving, RegistryConfig, Request, SchedulerConfig, ShardedRegistry, SimServeConfig,
};
use pelican_sim::{LinkMix, RetryPolicy, StragglerConfig, TransferPolicy};
use pelican_train::{
    cosimulate_fleet, GateOutcome, GateVerdict, JobOutcome, LoopMode, NetworkConfig, TrainReport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A synthetic training round over `n` devices.
fn synthetic_round(n: usize, salt: u64) -> TrainReport {
    let outcomes: Vec<JobOutcome> = (0..n)
        .map(|i| JobOutcome {
            user_id: 100 + i,
            version: i as u64 + 1,
            warm: salt > 0,
            gate: GateOutcome {
                verdict: GateVerdict::Passed,
                defense: DefenseKind::None,
                rungs_climbed: 0,
                initial_leakage: 0.1,
                final_leakage: 0.1,
                audits: 1,
                queries: 10,
                cached: 0,
                cache_misses: 10,
            },
            fit: FitReport { epoch_losses: vec![0.5], steps: 4, samples_per_epoch: 4, flops: 0 },
            enroll_latency: Duration::from_millis(5),
            train_simulated: Duration::from_millis(4 + (i as u64 + salt) % 7),
            audit_simulated: Duration::from_millis(2),
            envelope_bytes: 60_000 + (i % 5) * 1_000,
        })
        .collect();
    TrainReport::new(2, outcomes, Duration::from_millis(40), 1_000)
}

/// A retrying, straggling network that exercises timeouts and backoff.
fn network() -> NetworkConfig {
    NetworkConfig {
        mix: LinkMix::campus().with_stragglers(StragglerConfig { fraction: 0.2, slowdown: 8.0 }),
        download: TransferPolicy {
            timeout_us: Some(400_000),
            retry: RetryPolicy::exponential(3, 50_000, 2.0),
        },
        seed: 0xC051,
        ..NetworkConfig::default()
    }
}

fn bench_fleet_cosim(c: &mut Criterion) {
    // Determinism gate before timing.
    let fresh = synthetic_round(64, 0);
    let warm = synthetic_round(64, 1);
    let rounds = [&fresh, &warm];
    let a = cosimulate_fleet(&rounds, 80_000, &network(), LoopMode::Closed);
    let b = cosimulate_fleet(&rounds, 80_000, &network(), LoopMode::Closed);
    assert_eq!(a.fingerprint(), b.fingerprint());

    let mut group = c.benchmark_group("fleet_cosim");
    for devices in [64usize, 256] {
        let fresh = synthetic_round(devices, 0);
        let warm = synthetic_round(devices, 1);
        let config = network();
        group.bench_function(format!("closed-loop/{devices}"), |b| {
            b.iter(|| cosimulate_fleet(&[&fresh, &warm], 80_000, &config, LoopMode::Closed))
        });
        group.bench_function(format!("open-loop/{devices}"), |b| {
            b.iter(|| cosimulate_fleet(&[&fresh, &warm], 80_000, &config, LoopMode::Open))
        });
    }
    group.finish();

    // The sim-driven scheduler over a synthetic registry: the cost of
    // running batching on the virtual clock, fused kernels included.
    let mut rng = StdRng::seed_from_u64(7);
    let general = SequenceModel::single_lstm(6, 8, 4, 0.0, &mut rng);
    let registry = ShardedRegistry::new(general, RegistryConfig { shards: 4, hot_capacity: 8 });
    for uid in 0..16 {
        let personalized = SequenceModel::single_lstm(6, 8, 4, 0.0, &mut rng);
        registry.enroll(uid, &personalized);
    }
    let requests: Vec<Request> = (0..512)
        .map(|i| Request {
            id: i,
            user_id: i % 16,
            arrival_us: (i as u64) * 230,
            xs: vec![vec![0.1; 6]; 3],
        })
        .collect();
    let config = SimServeConfig {
        scheduler: SchedulerConfig { max_batch: 8, max_delay_us: 1_500 },
        tier: pelican::platform::ComputeTier::Cloud,
        network: None,
    };
    let mut group = c.benchmark_group("sim_serve");
    group.bench_function("no-network/512", |b| {
        b.iter(|| simulate_serving(&registry, &requests, &config).expect("envelopes decode"))
    });
    group.finish();
}

criterion_group!(benches, bench_fleet_cosim);
criterion_main!(benches);
