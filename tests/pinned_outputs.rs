//! Exact outputs, pinned across commits.
//!
//! The fingerprints and virtual-clock metrics are pure functions of the
//! seed, and the benchmark's `check` holds two runs of *one* commit to
//! that — nothing else compares a commit with its parent. These constants
//! were recorded at the commit before the code under them was rewritten
//! for speed — the live loop and the gate outcomes before the audit
//! sweeps landed (PR 11, `ea62e73`), the serving pass before the sparse
//! inference step did (PR 12, `f08af5b`), the enrolment before `fit`
//! stopped running the per-sample loop (PR 13, `56e340b`), the A/B
//! experiment and the rollback drill before the update studies were
//! recomposed on the serving tier (PR 25, `12b4d0c`): a change that only
//! makes the host faster, or only deletes code, must leave every one of
//! them as it is. A change that means to move the reproduction re-records them and
//! says so. The workbench scenario was recorded at `955ff11`, before its
//! personalizer wrapper and second serving tier were deleted; its
//! from-scratch LSTM and Reuse rows and the predicted-prior admission at
//! `56c9d2d`, before compute was priced from shapes instead of counted.

use pelican::platform::{ComputeTier, ResourceUsage};
use pelican::workbench::Scenario;
use pelican::{DefenseKind, PersonalizationConfig, PersonalizationMethod};
use pelican_attacks::PriorKind;
use pelican_bench::experiments::abx;
use pelican_bench::RunConfig;
use pelican_live::{bootstrap_jobs, run_live, DriftConfig, DriftMetric, LiveConfig};
use pelican_mobility::{CampusConfig, DatasetBuilder, MobilityDataset, Scale, SpatialLevel};
use pelican_nn::{ModelEnvelope, SequenceModel, TrainConfig};
use pelican_serve::{
    run_fleet, simulate_serving, CloudNetwork, CloudRtt, FleetConfig, RegistryConfig, Request,
    SchedulerConfig, ShardedRegistry, SimServeConfig, TrafficConfig, TrafficGenerator,
};
use pelican_train::{
    cohort_jobs, run_pipeline, run_rollback_study, AuditConfig, AuditGate, GateOutcome,
    GateVerdict, PipelineConfig, RollbackConfig, RollbackReport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_setting() -> (MobilityDataset, SequenceModel, std::ops::Range<usize>) {
    let dataset =
        DatasetBuilder::new(CampusConfig::for_scale(Scale::Tiny), 13).build(SpatialLevel::Building);
    let mut rng = StdRng::seed_from_u64(13);
    let general =
        SequenceModel::general_lstm(dataset.space.dim(), 12, dataset.n_locations(), 0.1, &mut rng);
    let n = dataset.users.len();
    (dataset, general, (n - 3)..n)
}

/// The eager-trigger live loop of `crates/live/tests/live_loop.rs`, one
/// trainer wide.
fn live_config() -> LiveConfig {
    LiveConfig {
        pipeline: PipelineConfig {
            workers: 1,
            personalization: PersonalizationConfig {
                train: TrainConfig { epochs: 2, ..TrainConfig::default() },
                hidden_dim: 12,
                ..PersonalizationConfig::default()
            },
            audit: AuditConfig { max_instances: 3, ..AuditConfig::default() },
            ..PipelineConfig::default()
        },
        serve: SimServeConfig {
            scheduler: SchedulerConfig { max_batch: 4, max_delay_us: 900 },
            tier: ComputeTier::Cloud,
            network: None,
        },
        drift: DriftConfig {
            metric: DriftMetric::TopKAgreement { k: 1, min_agreement: 1.01 },
            min_new_samples: 4,
            window: 6,
        },
        us_per_minute: 1_000,
        bootstrap_minutes: 7 * 24 * 60,
        horizon_minutes: 14 * 24 * 60,
        round_interval_us: 200_000,
        rollback_tolerance: 0.5,
    }
}

#[test]
fn tiny_live_loop_fingerprint_is_the_recorded_one() {
    let (dataset, general, users) = tiny_setting();
    let registry =
        ShardedRegistry::new(general.clone(), RegistryConfig { shards: 2, hot_capacity: 8 });
    let live = run_live(&dataset, users, &registry, &general, &live_config()).expect("live run");
    assert_eq!(live.fingerprint(), 0xb4d5_3f02_aefe_9d7d, "the live-loop reproduction moved");
    assert_eq!(live.retrains.len(), 23);
    let reaudit = &live.reaudit;
    assert_eq!(
        (reaudit.audits, reaudit.queries, reaudit.hits, reaudit.misses),
        (7, 936, 1104, 0),
        "the warm re-audits moved"
    );
}

#[test]
fn fixed_seed_gate_outcomes_are_the_recorded_ones() {
    let (dataset, general, users) = tiny_setting();
    let subject = bootstrap_jobs(&dataset, users, &live_config()).remove(0).subject;
    let admit = |config: AuditConfig| -> GateOutcome {
        AuditGate::new(config).admit_with_cache(general.clone(), &dataset.space, &subject).1
    };

    // The untrained general model leaks at the base defense and passes
    // two rungs up, on logits cached by the first audit.
    assert_eq!(
        admit(AuditConfig::default()),
        GateOutcome {
            verdict: GateVerdict::Escalated,
            defense: DefenseKind::Temperature { temperature: 1e-3 },
            rungs_climbed: 2,
            initial_leakage: 0.75,
            final_leakage: 0.25,
            audits: 3,
            queries: 3456,
            cached: 2352,
            cache_misses: 1176,
        }
    );
    // A zero budget at k = every location: leakage is 1.0 under any
    // defense, so the gate climbs the whole ladder and comes out flagged.
    let n = dataset.n_locations();
    assert_eq!(
        admit(AuditConfig {
            max_leakage: 0.0,
            ks: vec![1, n],
            audit_k: n,
            ..AuditConfig::default()
        }),
        GateOutcome {
            verdict: GateVerdict::Exhausted,
            defense: DefenseKind::Temperature { temperature: 1e-5 },
            rungs_climbed: 3,
            initial_leakage: 1.0,
            final_leakage: 1.0,
            audits: 4,
            queries: 4416,
            cached: 3336,
            cache_misses: 1176,
        }
    );
}

#[test]
fn predicted_prior_admission_is_priced_as_recorded() {
    // A prior predicted from 32 probes of the candidate itself, under a
    // zero budget that climbs the whole ladder: the probes run beside the
    // oracle, uncached, on each of the four audits.
    let (dataset, general, users) = tiny_setting();
    let subject = bootstrap_jobs(&dataset, users, &live_config()).remove(0).subject;
    let n = dataset.n_locations();
    let gate = AuditGate::new(AuditConfig {
        prior: PriorKind::Predict,
        max_leakage: 0.0,
        ks: vec![1, n],
        audit_k: n,
        ..AuditConfig::default()
    });
    let (_, outcome, cache) = gate.admit_with_cache(general.clone(), &dataset.space, &subject);
    let usage = ResourceUsage::priced(ComputeTier::Device, cache.flops);
    assert_eq!(outcome.audits, 4, "the admission's ladder moved");
    assert_eq!(
        (usage.flops, usage.simulated.as_nanos()),
        (32_770_560, 7_447_855),
        "the admission's priced device time moved"
    );
}

#[test]
fn tiny_serving_pass_is_the_recorded_one() {
    // Twelve enrolled users with a model each and two clients on the
    // general fallback, behind a registry that keeps four models decoded:
    // most lookups decode cold bytes. 600 Zipf/burst arrivals carrying
    // real encoded sessions, over the default cloud network.
    let (dataset, general, _) = tiny_setting();
    let (enrolled, clients) = (12, 14);
    let registry =
        ShardedRegistry::new(general.clone(), RegistryConfig { shards: 2, hot_capacity: 2 });
    for user in 0..enrolled {
        let mut rng = StdRng::seed_from_u64(100 + user as u64);
        let (dim, classes) = (dataset.space.dim(), dataset.n_locations());
        registry.enroll(user, &SequenceModel::general_lstm(dim, 12, classes, 0.1, &mut rng));
    }
    let samples: Vec<_> = (0..dataset.users.len()).map(|u| dataset.user_samples(u)).collect();
    let mut cursors = vec![0usize; clients];
    let traffic = TrafficConfig { requests: 600, users: clients, seed: 13, ..Default::default() };
    let requests: Vec<Request> = TrafficGenerator::new(traffic)
        .enumerate()
        .map(|(id, arrival)| {
            let client = arrival.user_index;
            let pool = &samples[client % samples.len()];
            let xs = pool[cursors[client] % pool.len()].xs.clone();
            cursors[client] += 1;
            Request { id, user_id: client, arrival_us: arrival.at_us, xs }
        })
        .collect();
    let config = SimServeConfig {
        scheduler: SchedulerConfig { max_batch: 4, max_delay_us: 900 },
        tier: ComputeTier::Cloud,
        network: Some(CloudNetwork { seed: 13, ..CloudNetwork::default() }),
    };
    let served = simulate_serving(&registry, &requests, &config).expect("envelopes decode");

    assert_eq!(served.served.len(), requests.len(), "every query is answered");
    assert_eq!(served.fingerprint(), 0xcf90_97f3_1aba_8b16, "the serving trace moved");
    // FNV-1a over the bits of every confidence served, in seal order.
    let mut fnv = 0xcbf2_9ce4_8422_2325u64;
    for completion in served.completions.iter().flatten() {
        for p in &completion.probs {
            fnv = (fnv ^ p.to_bits() as u64).wrapping_mul(0x1000_0000_01b3);
        }
    }
    assert_eq!(fnv, 0x47e1_0a70_b8ed_fc54, "a served confidence moved");
    let stats = registry.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.evictions, stats.fallbacks, stats.cold_models),
        (210, 170, 166, 24, 12),
        "the registry's lookup counters moved"
    );
}

#[test]
fn tiny_fleet_runs_are_the_recorded_ones() {
    // `run_fleet` end to end, on-device and in the cloud: a tiny scenario
    // enrolled behind the default privacy layer, 600 Zipf/burst arrivals,
    // and for the cloud run the default uplink mix, shared egress and
    // payload sizes. Recorded at `dbebfc8`, before those settings became
    // constants.
    let scenario =
        Scenario::builder(Scale::Tiny, SpatialLevel::Building).seed(19).personal_users(3).build();
    let fleet = |cloud| FleetConfig {
        traffic: TrafficConfig { requests: 600, seed: 5, ..TrafficConfig::default() },
        serve: SimServeConfig { network: cloud, ..SimServeConfig::default() },
        ..FleetConfig::default()
    };
    let on_device = run_fleet(&scenario, &fleet(None)).expect("envelopes decode");
    let cloud =
        run_fleet(&scenario, &fleet(Some(CloudNetwork { seed: 13, ..CloudNetwork::default() })))
            .expect("envelopes decode");
    for (outcome, recorded) in [(&on_device, ON_DEVICE), (&cloud, CLOUD)] {
        let r = &outcome.report;
        let s = &r.registry;
        assert_eq!(
            (
                r.requests,
                r.batches,
                r.mean_batch,
                r.throughput_qps,
                (r.p50_us, r.p95_us, r.p99_us),
                (r.queue_p50_us, r.queue_p95_us, r.service_p50_us, r.service_p95_us),
                r.fallback_share,
                (s.hits, s.misses, s.evictions, s.fallbacks, s.cold_models),
            ),
            recorded,
            "a fleet run's report moved"
        );
    }
    assert_eq!(on_device.network, None);
    assert_eq!(
        cloud.network,
        Some(CloudRtt {
            requests: 600,
            dropped: 0,
            rtt_p50_us: 338_534,
            rtt_p95_us: 791_385,
            rtt_p99_us: 793_533,
            uplink_wait_p95_us: 685_887,
            egress_wait_p95_us: 14_724,
            fingerprint: 0x9491_4f3a_6a63_2e68,
        }),
        "the cloud round trips moved"
    );
}

/// `(requests, batches, mean batch, throughput, latency µs, queue/service
/// µs, fallback share, registry counters)` of a
/// [`ServeReport`](pelican_serve::ServeReport).
type ReportPin = (
    usize,
    usize,
    f64,
    f64,
    (u64, u64, u64),
    (u64, u64, u64, u64),
    f64,
    (u64, u64, u64, u64, usize),
);
const ON_DEVICE: ReportPin = (
    600,
    231,
    2.597_402_597_402_597_4,
    3_634.447_291_428_156,
    (1655, 2002, 2004),
    (0, 0, 2, 8),
    0.286_666_666_666_666_7,
    (130, 3, 0, 98, 3),
);
const CLOUD: ReportPin = (
    600,
    251,
    2.390_438_247_011_952_3,
    698.150_134_859_334_3,
    (1746, 2002, 2004),
    (0, 0, 2, 8),
    0.286_666_666_666_666_7,
    (149, 3, 0, 99, 3),
);

#[test]
fn tiny_enrolment_is_the_recorded_one() {
    // The one-shot pipeline on the last three users: TL-FE from the
    // general model — a frozen stack under one fresh LSTM and the head —
    // three epochs each, audited and published.
    let (dataset, general, users) = tiny_setting();
    let jobs = cohort_jobs(&dataset, users, 0.8);
    let registry =
        ShardedRegistry::new(general.clone(), RegistryConfig { shards: 2, hot_capacity: 8 });
    let mut config = live_config().pipeline;
    config.personalization.train.epochs = 3;
    let report = run_pipeline(config, &general, &dataset.space, &jobs, &registry);

    // FNV-1a over the bytes of every published envelope, in job order.
    let mut fnv = 0xcbf2_9ce4_8422_2325u64;
    for job in &jobs {
        let (model, _) = registry.get(job.user_id).expect("published model decodes");
        for &byte in ModelEnvelope::encode(&model).as_bytes() {
            fnv = (fnv ^ byte as u64).wrapping_mul(0x1000_0000_01b3);
        }
    }
    assert_eq!(fnv, 0x79d9_6c3c_7fc3_5633, "a published weight moved");
    assert_eq!(report.flops, 102_382_668, "the FLOPs training and audits record moved");
    let train_ns: Vec<u128> =
        report.outcomes.iter().map(|o| o.train_simulated.as_nanos()).collect();
    assert_eq!(train_ns, [1_667_405, 1_886_801, 1_755_164], "a job's simulated device time moved");
}

#[test]
fn tiny_scenario_is_the_recorded_one() {
    // The workbench's Fig. 4 steps 1–2: M_G trained on the cloud tier,
    // shipped as an envelope and personalized for three users on the
    // device tier, once per transfer-learning method. Decoding resets
    // every dropout seed, so both methods' masks depend on that round
    // trip.
    let cases = [
        (
            PersonalizationMethod::TlFeatureExtract,
            0x1382_f9c2_56dc_5059,
            4_529_226_240,
            251_673_696,
            [22_578_382, 19_066_189, 15_553_996],
        ),
        (
            PersonalizationMethod::TlFineTune,
            0x4031_4129_d924_edf8,
            4_529_226_240,
            201_243_744,
            [18_054_164, 15_245_738, 12_437_313],
        ),
        (
            PersonalizationMethod::Lstm,
            0x40de_ac29_bbe7_b1a1,
            4_529_226_240,
            186_009_696,
            [16_687_473, 14_091_644, 11_495_815],
        ),
        (PersonalizationMethod::Reuse, 0x2e20_e760_7ab9_4905, 4_529_226_240, 0, [0, 0, 0]),
    ];
    for (method, envelopes, general_flops, personal_flops, personal_ns) in cases {
        let scenario = Scenario::builder(Scale::Tiny, SpatialLevel::Building)
            .seed(42)
            .personal_users(3)
            .method(method)
            .build();
        // FNV-1a over the bytes of M_G's envelope, then each user's.
        let mut fnv = 0xcbf2_9ce4_8422_2325u64;
        let personal = scenario.personal.iter().map(|u| &u.model);
        for model in std::iter::once(&scenario.general).chain(personal) {
            for &byte in ModelEnvelope::encode(model).as_bytes() {
                fnv = (fnv ^ byte as u64).wrapping_mul(0x1000_0000_01b3);
            }
        }
        assert_eq!(fnv, envelopes, "{method:?}: a model weight moved");
        assert_eq!(scenario.general_usage.flops, general_flops, "{method:?}: M_G's FLOPs moved");
        let usage = scenario.personal.iter().map(|u| u.usage);
        let flops: u64 = usage.clone().map(|u| u.flops).sum();
        assert_eq!(flops, personal_flops, "{method:?}: the device FLOPs moved");
        let ns: Vec<u128> = usage.map(|u| u.simulated.as_nanos()).collect();
        assert_eq!(ns, personal_ns, "{method:?}: a user's simulated device time moved");
    }
}

#[test]
fn tiny_ab_experiment_fingerprint_is_the_recorded_one() {
    // `repro ab-report --scale tiny`: the whole seed-42 tiny campus,
    // undefended arm A against the hard rung in arm B, at 1/2/8 workers
    // plus the A/A run.
    let run = abx::run(&RunConfig { scale: Scale::Tiny, ..RunConfig::default() });
    assert_eq!(run.outcome.fingerprint(), 0xef07_ed95_4145_405a, "the A/B experiment moved");
}

#[test]
fn fleet_rollback_drill_is_the_recorded_one() {
    // The 8-user drill at the default seed. Recorded at `12b4d0c`;
    // serving its queries through the serving tier moved only the
    // fingerprint (was 0x481e…da8a).
    let report = run_rollback_study(&RollbackConfig { users: 8, ..RollbackConfig::default() })
        .expect("the drill's in-memory disk fails no call");
    assert_eq!(
        report.report,
        RollbackReport {
            users: 8,
            regress_at_us: 37_000,
            detected_at_us: 40_000,
            detection_lag_us: 3_000,
            agreement_at_detection: 0.125,
            first_swap_us: 100_972,
            last_swap_us: 527_776,
            staleness_us: 487_776,
            exposure_us: 490_776,
            push_wait_p95_us: 426_804,
            queries_total: 600,
            queries_degraded: 151,
            queries_degraded_after_swap: 0,
            publishes: 24,
            rollbacks: 8,
            history_total: 24,
            fingerprint: 0x7887_dc47_c462_6e96,
        },
        "the rollback drill moved"
    );
}
