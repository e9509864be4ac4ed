//! Request coalescing vocabulary and fused batch execution.
//!
//! The scheduler turns an open-loop arrival stream into shard-local
//! batches: requests for the same registry shard accumulate until either
//! `max_batch` requests are waiting or the oldest has waited `max_delay`,
//! the classic throughput/latency trade of batched serving. The sealing
//! itself runs on the simulator's virtual clock ([`crate::simserve`]);
//! this module holds what it seals ([`Request`], [`SchedulerConfig`],
//! [`Batch`], [`Completion`]) and the engine that executes a batch by
//! grouping its requests per user model and driving each group through
//! the fused [`SequenceModel::predict_proba_batch`] path, attributing the
//! simulated compute to a [`ComputeTier`].
//!
//! [`SequenceModel::predict_proba_batch`]: pelican_nn::SequenceModel::predict_proba_batch

use std::collections::HashMap;

use pelican::platform::{ComputeTier, ResourceUsage};
use pelican_nn::{ModelCodecError, Sequence, Step};

use crate::registry::{Lookup, ShardedRegistry};

/// One query waiting to be served.
#[derive(Debug, Clone)]
pub struct Request {
    /// Stable request id (assigned by the harness, unique per run).
    pub id: usize,
    /// The user whose model should answer.
    pub user_id: usize,
    /// Arrival time in simulated microseconds.
    pub arrival_us: u64,
    /// The query sequence.
    pub xs: Sequence,
}

/// Coalescing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Flush a shard's buffer as soon as it holds this many requests.
    /// Must be positive ([`crate::serve_harness`] panics on zero — an
    /// empty batch could never dispatch).
    pub max_batch: usize,
    /// Flush a shard's buffer once its oldest request has waited this many
    /// simulated microseconds.
    ///
    /// `0` is accepted and degenerates to **one batch per arrival**: a
    /// request's deadline expires the instant it is buffered, so the
    /// next event to look at the shard (a later arrival or end of
    /// stream) flushes it as a singleton. Batching is effectively
    /// disabled — `max_batch` can never fill — which makes `0` the
    /// latency-over-throughput extreme rather than an error.
    pub max_delay_us: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self { max_batch: 16, max_delay_us: 2_000 }
    }
}

/// A shard-local batch ready for fused execution.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Registry shard every request in the batch maps to.
    pub shard: usize,
    /// Simulated time the batch was sealed and handed to the engine.
    pub dispatched_us: u64,
    /// The coalesced requests, in arrival order.
    pub requests: Vec<Request>,
}

/// A served request: its answer plus everything needed for latency and
/// cache accounting.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The originating request id.
    pub request_id: usize,
    /// The user whose model answered.
    pub user_id: usize,
    /// When the request arrived (simulated µs).
    pub arrival_us: u64,
    /// When its batch was dispatched (simulated µs).
    pub dispatched_us: u64,
    /// Simulated µs the sealed batch waited for its shard's compute
    /// resource after dispatch, mirroring the sim's
    /// [`pelican_sim::StageReport`] queue/service split. Zero as
    /// [`ServeEngine::execute`] returns it; the sim-driven scheduler
    /// back-fills the real queueing when the batch's shard occupancy ends
    /// (back-to-back batches occupy the shard and cannot overlap).
    pub queue_us: u64,
    /// Simulated compute time of the whole fused batch, in µs — the
    /// batch completes together, so every member pays the same service.
    pub service_us: u64,
    /// How the registry found the answering model.
    pub lookup: Lookup,
    /// The confidence vector, bit-identical to an unbatched query.
    pub probs: Step,
}

impl Completion {
    /// When the request's fused batch finished computing (µs):
    /// dispatch + shard queueing + fused service.
    pub fn finish_us(&self) -> u64 {
        self.dispatched_us + self.queue_us + self.service_us
    }
}

/// Executes batches against a registry on a simulated compute tier.
///
/// The engine only needs `&ShardedRegistry`: registry bookkeeping is
/// interior-mutable, so many engines (and the training pipeline's
/// publisher) can share one registry concurrently.
#[derive(Debug)]
pub struct ServeEngine<'a> {
    registry: &'a ShardedRegistry,
    tier: ComputeTier,
}

impl<'a> ServeEngine<'a> {
    /// Creates an engine over the registry, attributing compute to `tier`.
    pub fn new(registry: &'a ShardedRegistry, tier: ComputeTier) -> Self {
        Self { registry, tier }
    }

    /// Runs one batch: requests are grouped by the *model* that will
    /// answer them (per enrolled user, first-appearance order, with every
    /// unenrolled user's request folded into one shared general-model
    /// group), each group is answered through its model's fused batch
    /// path and priced from the model's shape and the rows it served
    /// ([`pelican_nn::SequenceModel::infer_cost`]); the batch's FLOPs are
    /// converted to simulated time on the engine's tier. Completions come
    /// back in request order.
    ///
    /// # Errors
    ///
    /// Returns [`ModelCodecError`] if a stored envelope fails to decode.
    pub fn execute(&self, batch: &Batch) -> Result<Vec<Completion>, ModelCodecError> {
        // Grouping key: Some(user) for enrolled users, None for the shared
        // fallback — distinct unenrolled users all resolve to the same
        // general model, so their requests fuse into one batch row set.
        let mut group_of: HashMap<Option<usize>, usize> = HashMap::new();
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, request) in batch.requests.iter().enumerate() {
            let key = self.registry.is_enrolled(request.user_id).then_some(request.user_id);
            match group_of.get(&key) {
                Some(&g) => groups[g].1.push(i),
                None => {
                    group_of.insert(key, groups.len());
                    groups.push((request.user_id, vec![i]));
                }
            }
        }

        let mut flops = 0;
        let mut answered: Vec<(usize, Step, Lookup)> = Vec::with_capacity(batch.requests.len());
        for (user_id, members) in &groups {
            let (model, lookup) = self.registry.get(*user_id)?;
            let rows: Vec<&[Step]> =
                members.iter().map(|&i| batch.requests[i].xs.as_slice()).collect();
            flops += model.infer_cost(rows.iter().map(|xs| xs.len()).sum(), rows.len());
            for (&i, p) in members.iter().zip(model.predict_proba_batch(&rows)) {
                answered.push((i, p, lookup));
            }
        }
        let usage = ResourceUsage::priced(self.tier, flops);
        answered.sort_by_key(|&(i, _, _)| i);

        Ok(answered
            .into_iter()
            .map(|(i, probs, lookup)| {
                let request = &batch.requests[i];
                Completion {
                    request_id: request.id,
                    user_id: request.user_id,
                    arrival_us: request.arrival_us,
                    dispatched_us: batch.dispatched_us,
                    queue_us: 0,
                    // Ceil to whole µs (the sim clock's granularity) so
                    // nonzero work always occupies the shard.
                    service_us: (usage.simulated.as_nanos() as u64).div_ceil(1_000),
                    lookup,
                    probs,
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryConfig;
    use crate::simserve::{simulate_serving, SimServeConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn request(id: usize, user_id: usize, arrival_us: u64) -> Request {
        Request { id, user_id, arrival_us, xs: vec![vec![0.1; 4]; 2] }
    }

    /// The batches the sim-driven scheduler seals over a two-shard
    /// registry with no network, in seal order.
    fn batches(max_batch: usize, max_delay_us: u64, requests: Vec<Request>) -> Vec<Batch> {
        let mut rng = StdRng::seed_from_u64(5);
        let general = pelican_nn::SequenceModel::single_lstm(4, 6, 3, 0.0, &mut rng);
        let registry = ShardedRegistry::new(general, RegistryConfig { shards: 2, hot_capacity: 4 });
        let config = SimServeConfig {
            scheduler: SchedulerConfig { max_batch, max_delay_us },
            tier: ComputeTier::Cloud,
            network: None,
        };
        simulate_serving(&registry, &requests, &config).expect("envelopes decode").batches
    }

    #[test]
    fn full_buffers_dispatch_immediately() {
        let batches =
            batches(2, 1_000_000, vec![request(0, 0, 10), request(1, 2, 20), request(2, 4, 30)]);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].dispatched_us, 20, "filled at the second arrival");
        assert_eq!(batches[0].requests.len(), 2);
        assert_eq!(batches[1].requests.len(), 1, "leftover flushes at its deadline");
    }

    #[test]
    fn deadlines_bound_waiting() {
        let batches = batches(100, 50, vec![request(0, 0, 0), request(1, 0, 500)]);
        assert_eq!(batches.len(), 2, "50µs deadline splits arrivals 500µs apart");
        assert_eq!(batches[0].dispatched_us, 50);
        assert_eq!(batches[1].dispatched_us, 550);
    }

    #[test]
    fn late_flushes_still_report_the_deadline_as_dispatch_time() {
        // A batch sealed by its deadline reports the deadline itself as
        // its dispatch time, whatever the next event on the clock is.
        // Next event: a much-later arrival on the other shard.
        let sealed = batches(100, 50, vec![request(0, 0, 10), request(1, 1, 9_000)]);
        assert_eq!(sealed[0].dispatched_us, 60, "not 9000: the deadline sealed it");
        // Next event: none, the stream ends.
        let sealed = batches(100, 50, vec![request(0, 0, 10)]);
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].dispatched_us, 60, "end-of-stream flush reports the deadline");
    }

    #[test]
    fn zero_max_delay_degenerates_to_one_batch_per_arrival() {
        // max_delay_us == 0 is legal: every request's deadline expires on
        // arrival, so each flushes as a singleton and max_batch never
        // fills — batching disabled, not a panic.
        let batches = batches(16, 0, vec![request(0, 0, 5), request(1, 0, 5), request(2, 0, 40)]);
        assert_eq!(batches.len(), 3, "one batch per arrival, even for simultaneous ones");
        for (batch, (id, at)) in batches.iter().zip([(0, 5), (1, 5), (2, 40)]) {
            assert_eq!(batch.requests.len(), 1);
            assert_eq!(batch.requests[0].id, id);
            assert_eq!(batch.dispatched_us, at, "deadline == arrival when max_delay is 0");
        }
    }

    #[test]
    fn batches_are_shard_local_and_lossless() {
        let requests: Vec<Request> = (0..20).map(|i| request(i, i % 5, (i as u64) * 10)).collect();
        let batches = batches(4, 100, requests);
        let mut seen: Vec<usize> = Vec::new();
        for batch in &batches {
            for r in &batch.requests {
                assert_eq!(r.user_id % 2, batch.shard);
                seen.push(r.id);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<_>>(), "every request served exactly once");
    }

    #[test]
    fn engine_answers_match_unbatched_queries() {
        let mut rng = StdRng::seed_from_u64(5);
        let general = pelican_nn::SequenceModel::single_lstm(4, 6, 3, 0.0, &mut rng);
        let personalized = pelican_nn::SequenceModel::single_lstm(4, 6, 3, 0.0, &mut rng);
        let registry =
            ShardedRegistry::new(general.clone(), RegistryConfig { shards: 2, hot_capacity: 4 });
        registry.enroll(2, &personalized);

        let mut requests: Vec<Request> = (0..6).map(|i| request(i, 2, i as u64)).collect();
        requests.push(request(6, 8, 3)); // unenrolled, same shard -> fallback
        requests.push(request(7, 10, 4)); // second distinct unenrolled user
        let batch = Batch { shard: 0, dispatched_us: 10, requests };

        let engine = ServeEngine::new(&registry, ComputeTier::Cloud);
        let completions = engine.execute(&batch).expect("envelopes decode");
        assert_eq!(completions.len(), 8);
        for c in &completions {
            let expected = if c.user_id == 2 { &personalized } else { &general };
            assert_eq!(
                c.probs,
                expected.predict_proba(&batch.requests[c.request_id].xs),
                "fused answers must be bit-identical to unbatched ones"
            );
            assert!(c.service_us > 0);
            assert_eq!(c.queue_us, 0, "queueing is the scheduler's to fill in");
            assert_eq!(c.finish_us(), c.dispatched_us + c.service_us);
        }
        assert_eq!(completions[6].lookup, Lookup::Fallback);
        assert_eq!(completions[7].lookup, Lookup::Fallback);
        // Distinct unenrolled users share the general model, so the whole
        // fallback group costs a single registry lookup.
        assert_eq!(registry.stats().fallbacks, 1, "fallback rows fuse into one group");
    }
}
