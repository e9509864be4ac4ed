//! The five workloads, and the inputs and checks they share.
//!
//! Each workload drives the stack only through entry points the ROADMAP
//! treats as product contracts, builds every config with
//! `..Default::default()`, and names nothing the ROADMAP plans to delete
//! (`tests/api_surface.rs` scans for those names), so later changes to
//! the crates can be measured without editing this directory.

pub mod enroll_fleet;
pub mod live_retrain;
pub mod serve_steady;
pub mod sim_fleet;
pub mod store_churn;

use std::sync::Arc;

use pelican::CloudTrainer;
use pelican_mobility::{CampusConfig, DatasetBuilder, MobilityDataset, Scale, SpatialLevel};
use pelican_nn::{SequenceModel, TrainConfig};
use pelican_serve::{RegistryConfig, ServedRequest, ShardedRegistry};
use pelican_store::{EnvelopeStore, MemBackend, StoreConfig};

use crate::row::Metrics;
use crate::runner::Workload;
use crate::spans::Tracer;
use crate::stats::{percentile, sorted};

/// In the order `BENCHMARK.json` declares them.
pub const NAMES: [&str; 5] = [
    enroll_fleet::EnrollFleet::NAME,
    live_retrain::LiveRetrain::NAME,
    serve_steady::ServeSteady::NAME,
    store_churn::StoreChurn::NAME,
    sim_fleet::SimFleet::NAME,
];

/// A seeded campus and the general model M_G trained on its contributor
/// half — the product always warm-starts from a *trained* M_G, and its
/// weights change how fast the kernels run, so no workload starts from a
/// random one.
pub struct World {
    pub dataset: MobilityDataset,
    pub general: SequenceModel,
}

impl World {
    /// Small campus (40 buildings, 60 users, 8 weeks) and M_G trained for
    /// 3 epochs on at most 4000 pooled contributor samples; `quick`
    /// shrinks both.
    pub fn build(seed: u64, hidden: usize, quick: bool, tracer: &mut Tracer) -> World {
        let (scale, pool) = if quick { (Scale::Tiny, 400) } else { (Scale::Small, 4000) };
        let dataset = tracer.span("mobility.dataset_build", |_| {
            DatasetBuilder::new(CampusConfig::for_scale(scale), seed).build(SpatialLevel::Building)
        });
        let mut pooled = dataset.pooled_samples(0..dataset.users.len() / 2);
        pooled.truncate(pool);
        let trainer =
            CloudTrainer::new(TrainConfig { epochs: 3, ..TrainConfig::default() }, hidden, 0.1);
        let (general, _, _) = tracer.span("nn.cloud_train", |_| {
            trainer.train(dataset.space.dim(), dataset.n_locations(), &pooled, seed)
        });
        World { dataset, general }
    }

    /// The `count` users at the tail of the population: the personal
    /// users, disjoint from the contributors M_G saw.
    pub fn personal_users(&self, count: usize) -> std::ops::Range<usize> {
        let n = self.dataset.users.len();
        n - count.min(n / 2)..n
    }
}

/// An empty in-memory durable store and a registry publishing through
/// it, `shards` wide each. The store handle is returned too: workloads
/// read back what was published through it.
pub fn store_backed_registry(
    general: &SequenceModel,
    shards: usize,
    hot_capacity: usize,
) -> (Arc<EnvelopeStore>, ShardedRegistry) {
    let config = StoreConfig { shards, ..StoreConfig::default() };
    let store = Arc::new(
        EnvelopeStore::open(Arc::new(MemBackend::new()), config).expect("an empty store opens"),
    );
    let registry = ShardedRegistry::with_store(
        general.clone(),
        RegistryConfig { shards, hot_capacity },
        Arc::clone(&store),
    );
    (store, registry)
}

/// FNV-1a, for fingerprinting outputs that have no fingerprint of their
/// own.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

/// Whether `target` is among the `k` most confident classes, ties going
/// to the lower index (the crates' own `top_k` order).
pub fn in_top_k(probs: &[f32], target: usize, k: usize) -> bool {
    let Some(&mine) = probs.get(target) else { return false };
    let ahead =
        probs.iter().enumerate().filter(|&(i, &p)| p > mine || (p == mine && i < target)).count();
    ahead < k
}

/// Served-query round trips on the virtual clock, as the `v_query_*`
/// metrics; p99 only where a thousand samples stand behind it.
pub fn query_latency(metrics: &mut Metrics, served: &[ServedRequest]) {
    let rtts = sorted(served.iter().map(ServedRequest::rtt_us));
    metrics.exact("v_query_p50_us", percentile(&rtts, 0.50) as f64);
    metrics.exact("v_query_p95_us", percentile(&rtts, 0.95) as f64);
    if rtts.len() >= 1000 {
        metrics.exact("v_query_p99_us", percentile(&rtts, 0.99) as f64);
    }
}
