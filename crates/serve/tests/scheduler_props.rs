//! Property tests for the sim-driven scheduler's sealing decisions.
//!
//! The oracle is [`coalesce`] below: the size/deadline batcher replayed
//! on recorded timestamps alone — no event heap, no timers, no compute.
//! With no network, `simulate_serving` must seal exactly the batches it
//! does, including on same-instant ties; and the sealed batches must be a
//! pure function of the request *set* (requests are normalized to
//! `(arrival, id)` order first, so no permutation of the input vector may
//! change a single batch) with no request duplicated or dropped.

use proptest::prelude::*;

use pelican::platform::ComputeTier;
use pelican_nn::SequenceModel;
use pelican_serve::{
    simulate_serving, RegistryConfig, Request, SchedulerConfig, ShardedRegistry, SimServeConfig,
    SimServeOutcome,
};
use pelican_sim::mix64;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A batch's identity: shard, dispatch time and member ids in order.
type Composition = (usize, u64, Vec<usize>);

fn requests(arrivals: &[(usize, u64)]) -> Vec<Request> {
    arrivals
        .iter()
        .enumerate()
        .map(|(id, &(user_id, arrival_us))| Request {
            id,
            user_id,
            arrival_us,
            xs: vec![vec![0.1; 2]; 1],
        })
        .collect()
}

/// Seeded Fisher-Yates so the permutation is a pure function of `seed`.
fn permute<T>(xs: &mut [T], seed: u64) {
    for i in (1..xs.len()).rev() {
        let j = (mix64(seed ^ (i as u64) << 17) % (i as u64 + 1)) as usize;
        xs.swap(i, j);
    }
}

/// The reference batcher: coalesces a request stream into dispatch-ordered
/// batches by walking the arrival timestamps. A batch dispatches the
/// moment it fills (`max_batch`) or when its oldest request's deadline
/// (`arrival + max_delay`) expires; buffers due at an arrival's instant
/// flush, in `(deadline, shard)` order, before that arrival is buffered.
fn coalesce(config: SchedulerConfig, n_shards: usize, requests: &[Request]) -> Vec<Composition> {
    fn flush_expired(
        buffers: &mut [Vec<usize>],
        deadlines: &mut [u64],
        now: u64,
        batches: &mut Vec<Composition>,
    ) {
        let mut due: Vec<(u64, usize)> = deadlines
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != u64::MAX && d <= now)
            .map(|(shard, &d)| (d, shard))
            .collect();
        due.sort_unstable();
        for (deadline, shard) in due {
            batches.push((shard, deadline, std::mem::take(&mut buffers[shard])));
            deadlines[shard] = u64::MAX;
        }
    }

    let mut order: Vec<&Request> = requests.iter().collect();
    order.sort_by_key(|r| (r.arrival_us, r.id));
    let mut buffers: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
    let mut deadlines: Vec<u64> = vec![u64::MAX; n_shards];
    let mut batches: Vec<Composition> = Vec::new();
    for request in order {
        let now = request.arrival_us;
        flush_expired(&mut buffers, &mut deadlines, now, &mut batches);
        let shard = request.user_id % n_shards;
        if buffers[shard].is_empty() {
            deadlines[shard] = now.saturating_add(config.max_delay_us);
        }
        buffers[shard].push(request.id);
        if buffers[shard].len() >= config.max_batch {
            batches.push((shard, now, std::mem::take(&mut buffers[shard])));
            deadlines[shard] = u64::MAX;
        }
    }
    flush_expired(&mut buffers, &mut deadlines, u64::MAX, &mut batches);
    batches
}

/// One sim-driven pass with no network over a fresh `shards`-shard
/// registry (every user falls back to the general model: the answers do
/// not matter here, the sealing does).
fn serve(config: SchedulerConfig, shards: usize, requests: &[Request]) -> SimServeOutcome {
    let general = SequenceModel::single_lstm(2, 2, 2, 0.0, &mut StdRng::seed_from_u64(1));
    let registry = ShardedRegistry::new(general, RegistryConfig { shards, hot_capacity: 1 });
    let config = SimServeConfig { scheduler: config, tier: ComputeTier::Cloud, network: None };
    simulate_serving(&registry, requests, &config).expect("envelopes decode")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sim_driven_sealing_matches_the_reference_coalesce(
        // Arrivals and the deadline share a coarse grid, so same-instant
        // arrivals, arrivals landing exactly on a deadline and two shards
        // expiring together are the common case, not the lucky one.
        arrivals in prop::collection::vec((0usize..9, 0u64..40), 1..80),
        max_batch in 1usize..6,
        delay_steps in 0u64..6,
        shards in 1usize..5,
    ) {
        let arrivals: Vec<(usize, u64)> = arrivals.iter().map(|&(u, t)| (u, t * 100)).collect();
        let config = SchedulerConfig { max_batch, max_delay_us: delay_steps * 100 };
        let stream = requests(&arrivals);
        let sim = serve(config, shards, &stream);
        prop_assert_eq!(
            sim.compositions(),
            coalesce(config, shards, &stream),
            "with no network the virtual clock seals what the timestamps say"
        );
        prop_assert_eq!(sim.dropped, 0);
        prop_assert_eq!(sim.served.len(), stream.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn coalesce_is_invariant_under_input_permutation(
        arrivals in prop::collection::vec((0usize..7, 0u64..50_000), 1..80),
        max_batch in 1usize..6,
        max_delay_us in 0u64..3_000,
        shards in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let config = SchedulerConfig { max_batch, max_delay_us };
        let ordered = requests(&arrivals);
        let mut shuffled = ordered.clone();
        permute(&mut shuffled, seed);
        prop_assert_eq!(
            serve(config, shards, &ordered).compositions(),
            serve(config, shards, &shuffled).compositions(),
            "sealing must not depend on input vector order"
        );
    }

    #[test]
    fn coalesce_is_lossless_and_respects_both_limits(
        arrivals in prop::collection::vec((0usize..9, 0u64..50_000), 1..80),
        max_batch in 1usize..6,
        max_delay_us in 0u64..3_000,
        shards in 1usize..4,
    ) {
        let config = SchedulerConfig { max_batch, max_delay_us };
        let batches = serve(config, shards, &requests(&arrivals)).batches;
        let mut seen: Vec<usize> = Vec::new();
        for batch in &batches {
            prop_assert!(!batch.requests.is_empty(), "empty batches never dispatch");
            prop_assert!(batch.requests.len() <= max_batch);
            for r in &batch.requests {
                prop_assert_eq!(r.user_id % shards, batch.shard, "batches stay shard-local");
                // A batch dispatches no later than its oldest member's
                // deadline and no earlier than its newest member's arrival.
                prop_assert!(batch.dispatched_us >= r.arrival_us);
                prop_assert!(
                    batch.dispatched_us <= batch.requests[0].arrival_us + max_delay_us,
                    "the oldest member's deadline caps the dispatch time"
                );
                seen.push(r.id);
            }
        }
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..arrivals.len()).collect::<Vec<_>>());
    }
}
