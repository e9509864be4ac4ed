//! `serve_steady` — open loop on the virtual clock, one op per query
//! served; the host runs the simulation as fast as it can.
//!
//! 20 000 `TrafficGenerator` requests (Zipf 1.1, 8× bursts for 128 of
//! every 512, mean gap 400 µs) from 256 enrolled hidden-64 models and 16
//! unenrolled clients that fall back to M_G, through
//! `simulate_serving` with the default cloud network and a 16-wide, 2 ms
//! scheduler. 8 shards × 8 hot models is far below the population, so
//! the registry's cold path stays busy. No training and no audit run:
//! this is the no-change control for `enroll_fleet` and `live_retrain`,
//! and the target for serving-path work.

use std::hint::black_box;
use std::sync::Arc;

use pelican::ComputeTier;
use pelican_live::LiveConfig;
use pelican_nn::{ModelEnvelope, SequenceModel};
use pelican_serve::{
    simulate_serving, CloudNetwork, Lookup, Request, SchedulerConfig, ServeEngine, ShardedRegistry,
    SimServeConfig, TrafficConfig, TrafficGenerator,
};
use pelican_store::EnvelopeStore;
use pelican_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{in_top_k, query_latency, store_backed_registry, World};
use crate::probes;
use crate::row::{Iteration, Metrics};
use crate::runner::{Clock, Timed, Workload};
use crate::spans::Tracer;
use crate::stats::{percentile, sorted};

const SHARDS: usize = 8;
/// Answers re-computed unbatched and compared bit for bit.
const SAMPLED_ANSWERS: usize = 64;

pub struct ServeSteady {
    world: World,
    hidden: usize,
    /// Decoded models a registry shard keeps; far fewer than its users.
    hot_per_shard: usize,
    /// Envelope of enrolled user `i`; clients past the end are unenrolled.
    envelopes: Vec<ModelEnvelope>,
    requests: Vec<Request>,
    /// True next location of each request's session, by request id.
    targets: Vec<usize>,
    config: SimServeConfig,
}

impl Workload for ServeSteady {
    const NAME: &'static str = "serve_steady";
    const OP: &'static str = "query served";
    type Fresh = (Arc<EnvelopeStore>, ShardedRegistry);

    fn setup(seed: u64, quick: bool, tracer: &mut Tracer) -> Self {
        let (hidden, enrolled, unenrolled, hot_per_shard, n_requests) =
            if quick { (16, 32, 4, 2, 2_000) } else { (64, 256, 16, 8, 20_000) };
        let world = World::build(seed, hidden, quick, tracer);
        let (dim, classes) = (world.dataset.space.dim(), world.dataset.n_locations());
        let envelopes = (0..enrolled as u64)
            .map(|user| {
                let mut rng =
                    StdRng::seed_from_u64(seed ^ (user + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                ModelEnvelope::encode(&SequenceModel::general_lstm(
                    dim, hidden, classes, 0.1, &mut rng,
                ))
            })
            .collect();

        // Query bodies are real encoded sessions: client `c` cycles
        // through the samples of dataset user `c mod users`.
        let samples: Vec<_> =
            (0..world.dataset.users.len()).map(|u| world.dataset.user_samples(u)).collect();
        let samples: Vec<_> = samples.into_iter().filter(|s| !s.is_empty()).collect();
        let clients = enrolled + unenrolled;
        let mut cursors = vec![0usize; clients];
        let traffic = TrafficConfig {
            requests: n_requests,
            users: clients,
            seed,
            ..TrafficConfig::default()
        };
        let mut targets = Vec::with_capacity(n_requests);
        let requests = TrafficGenerator::new(traffic)
            .enumerate()
            .map(|(id, arrival)| {
                let client = arrival.user_index;
                let pool = &samples[client % samples.len()];
                let sample = &pool[cursors[client] % pool.len()];
                cursors[client] += 1;
                targets.push(sample.target);
                Request { id, user_id: client, arrival_us: arrival.at_us, xs: sample.xs.clone() }
            })
            .collect();
        let config = SimServeConfig {
            scheduler: SchedulerConfig { max_batch: 16, max_delay_us: 2_000 },
            network: Some(CloudNetwork { seed, ..CloudNetwork::default() }),
            ..LiveConfig::default().serve
        };
        Self { world, hidden, hot_per_shard, envelopes, requests, targets, config }
    }

    fn fresh(&self) -> Self::Fresh {
        let (store, registry) =
            store_backed_registry(&self.world.general, SHARDS, self.hot_per_shard);
        for (user, envelope) in self.envelopes.iter().enumerate() {
            registry.try_enroll_envelope(user, envelope.clone()).expect("in-memory publish");
        }
        (store, registry)
    }

    fn iterate(&self, (_store, registry): Self::Fresh, clock: &mut Clock) -> Iteration {
        let served = clock.timed(|t| {
            t.span("serve.simulate_serving", |_| {
                simulate_serving(&registry, &self.requests, &self.config)
            })
        });
        let served = match served {
            Ok(served) => served,
            Err(e) => {
                let all = self.requests.len() as u64;
                return Iteration::failed(all, format!("simulate_serving failed: {e}"));
            }
        };
        let stats = registry.stats(); // before the answer check below looks models up

        let attempted = self.requests.len() as u64;
        let mut out = Iteration {
            attempted,
            failed: attempted - served.served.len() as u64,
            fingerprint: served.fingerprint(),
            ..Iteration::default()
        };
        if served.dropped > 0 {
            out.violations.push(format!("{} queries dropped on the uplink", served.dropped));
        }
        let answers: Vec<_> = served.completions.iter().flatten().collect();
        let stride = (answers.len() / SAMPLED_ANSWERS).max(1);
        for answer in answers.iter().step_by(stride).take(SAMPLED_ANSWERS) {
            let model = registry.get(answer.user_id).expect("envelopes decode").0;
            if model.predict_proba(&self.requests[answer.request_id].xs) != answer.probs {
                out.violations.push(format!(
                    "request {} differs from its unbatched answer",
                    answer.request_id
                ));
            }
        }

        let m = &mut out.metrics;
        query_latency(m, &served.served);
        let hits =
            answers.iter().filter(|c| in_top_k(&c.probs, self.targets[c.request_id], 3)).count();
        m.exact("served_top3_acc", hits as f64 / answers.len().max(1) as f64);
        m.exact("registry.hit_rate", stats.hit_rate());
        m.exact("serve.mean_batch", answers.len() as f64 / served.batches.len().max(1) as f64);
        let queue = sorted(answers.iter().map(|c| c.queue_us));
        let service = sorted(answers.iter().map(|c| c.service_us));
        m.exact("serve.v_queue_p95_us", percentile(&queue, 0.95) as f64);
        m.exact("serve.v_service_p95_us", percentile(&service, 0.95) as f64);
        out
    }

    fn probe(&self, timed: Timed, tracer: &mut Tracer, metrics: &mut Metrics) {
        // The batches one pass seals, replayed through `ServeEngine`
        // alone on a fresh registry: inference plus registry, without
        // the scheduler or the simulator. What is left of the pass is
        // the harness.
        let (_store, registry) = self.fresh();
        let pass =
            simulate_serving(&registry, &self.requests, &self.config).expect("envelopes decode");
        let (_store, registry) = self.fresh();
        let engine = ServeEngine::new(&registry, ComputeTier::Cloud);
        tracer.span("serve.execute_replay", |t| {
            for batch in &pass.batches {
                t.span("serve.execute", |_| {
                    black_box(engine.execute(batch).expect("envelopes decode"))
                });
            }
        });
        let replay_s = tracer.seconds_of("serve.execute_replay")[0];
        metrics.measured(
            "serve.execute_us_per_query",
            replay_s * 1e6 / pass.served.len().max(1) as f64,
        );
        metrics.measured("serve.harness_share", 1.0 - replay_s / timed.wall_s);

        // Hot: the same user again. Cold: the second lap of a sweep wider
        // than the hot set, where every lookup decodes.
        let (_store, registry) = self.fresh();
        registry.get(0).expect("envelopes decode");
        for _ in 0..21 {
            tracer.span("registry.get_hot", |_| {
                (0..1000).for_each(|_| drop(black_box(registry.get(black_box(0)))));
            });
        }
        metrics.timing("registry.get_hot_ns", &tracer.seconds_of("registry.get_hot"), 1e9 / 1000.0);
        let users = 0..self.envelopes.len();
        users.clone().for_each(|user| drop(registry.get(user)));
        for user in users {
            let (_, lookup) =
                tracer.span("registry.get_cold", |_| registry.get(user).expect("envelopes decode"));
            assert_eq!(lookup, Lookup::Cold, "the sweep must outrun the hot set");
        }
        metrics.timing("registry.get_cold_us", &tracer.seconds_of("registry.get_cold"), 1e6);

        let model = registry.get(0).expect("envelopes decode").0;
        let batch: Vec<_> = self.requests.iter().take(16).map(|r| &r.xs).collect();
        for _ in 0..101 {
            tracer.span("nn.logits_batch_b16", |_| black_box(model.logits_batch(&batch)));
        }
        let per_query = 1e6 / batch.len().max(1) as f64;
        metrics.timing(
            "nn.logits_b16_us_per_query",
            &tracer.seconds_of("nn.logits_batch_b16"),
            per_query,
        );
        let (rows, dim) = (4 * self.hidden, self.world.dataset.space.dim());
        let gates = Matrix::from_vec(rows, dim, probes::values(rows * dim, 1));
        metrics.measured("tensor.gemm_nt_gflops", probes::gemm_nt_gflops(tracer, &gates));
        probes::envelope_codec(tracer, metrics, &model);
        probes::dataset_build(tracer, metrics);
    }
}
