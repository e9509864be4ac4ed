//! Sharded model registry with a bounded hot cache over cold envelopes.
//!
//! A fleet provider cannot keep millions of decoded per-user LSTMs
//! resident: parameters live as compact [`ModelEnvelope`] bytes (the same
//! wire format devices upload in Fig. 4 step 3) and are decoded on demand.
//! The registry splits the user-id space into `N` shards, each with its
//! own bounded LRU cache of live [`SequenceModel`]s, so a production
//! deployment could put every shard behind its own lock or process without
//! changing the data layout. Users without a personalized model fall back
//! to the shared general model — a degraded-but-valid answer instead of an
//! unknown-user error.
//!
//! All bookkeeping (LRU ticks, hit/miss counters) lives behind per-shard
//! mutexes and atomics, so lookups and publications both work through
//! `&self`: the serving path and the training pipeline's publication
//! channel share one registry without either needing `&mut`. Decoded
//! models are handed out as [`Arc`]s — a reader keeps serving the version
//! it fetched even while a publisher hot-swaps the user's entry, and every
//! publication bumps a monotone version counter so `get` after a publish
//! always observes the newest envelope.
//!
//! # Durable tier
//!
//! Every registry keeps a third tier below the in-memory envelopes: a
//! crash-safe [`pelican_store::EnvelopeStore`] retaining every user's
//! full version history. [`ShardedRegistry::new`] opens one over a fresh
//! in-memory backend; [`ShardedRegistry::with_store`] takes a caller's
//! own (a directory, a fault-injecting wrapper, or a surviving disk on
//! reopen). Publications are **write-through** — the envelope passes
//! the store's durability barrier *before* it becomes service-visible,
//! so an acknowledged publish survives any crash — and lookups are
//! **read-through**: after a restart the in-memory maps start empty and
//! refill from the log on first touch. History retention is what powers
//! [`ShardedRegistry::rollback`]: re-publishing any retained prior
//! version through the same versioned hot-swap path readers already
//! tolerate.
//!
//! Lock order is registry shard → store shard, everywhere; the store
//! never calls back into the registry, so the pair cannot deadlock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use pelican::workbench::Scenario;
use pelican::PAPER_DEFENSE;
use pelican_nn::{ModelCodecError, ModelEnvelope, SequenceModel};
use pelican_store::{EnvelopeStore, MemBackend, StoreConfig, StoreError};

/// Sizing knobs for [`ShardedRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryConfig {
    /// Number of shards the user-id space is split across.
    pub shards: usize,
    /// Maximum decoded models resident per shard.
    pub hot_capacity: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self { shards: 8, hot_capacity: 64 }
    }
}

/// Where a lookup found the user's model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Served from the shard's decoded hot cache.
    Hot,
    /// Decoded from cold envelope bytes on this lookup (a cache miss).
    Cold,
    /// The user has no personalized model; the shared general model
    /// answered.
    Fallback,
}

/// Aggregate cache counters across all shards.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegistryStats {
    /// Lookups answered from a hot cache.
    pub hits: u64,
    /// Lookups that had to decode cold bytes.
    pub misses: u64,
    /// Hot-cache evictions performed.
    pub evictions: u64,
    /// Lookups answered by the general fallback model.
    pub fallbacks: u64,
    /// Envelope publications (initial enrollments and hot-swap updates).
    pub publishes: u64,
    /// Rollbacks performed (each also counts as a publish).
    pub rollbacks: u64,
    /// Decoded models currently resident.
    pub hot_models: usize,
    /// Enrolled envelopes in cold storage.
    pub cold_models: usize,
    /// Version-history depth per shard: the committed versions the
    /// durable store retains.
    pub history_by_shard: Vec<u64>,
}

impl RegistryStats {
    /// Hot-cache hit rate over personalized lookups (hits + misses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total version-history depth across shards.
    pub fn history_total(&self) -> u64 {
        self.history_by_shard.iter().sum()
    }
}

/// Why a loop that updates models under live serving — the re-train
/// loop of `pelican-live`, the A/B experiment of `pelican-abx` — or a
/// [`ShardedRegistry::rollback`] could not complete.
#[derive(Debug)]
pub enum UpdateError {
    /// A stored envelope failed to decode.
    Codec(ModelCodecError),
    /// The durable store failed an append or fetch.
    Store(StoreError),
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::Codec(e) => write!(f, "envelope decode failed: {e}"),
            UpdateError::Store(e) => write!(f, "durable store failed: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<ModelCodecError> for UpdateError {
    fn from(e: ModelCodecError) -> Self {
        UpdateError::Codec(e)
    }
}

impl From<StoreError> for UpdateError {
    fn from(e: StoreError) -> Self {
        UpdateError::Store(e)
    }
}

#[derive(Debug, Clone)]
struct HotEntry {
    model: Arc<SequenceModel>,
    last_used: u64,
}

#[derive(Debug, Clone)]
struct ColdEntry {
    envelope: ModelEnvelope,
    version: u64,
}

#[derive(Debug, Default)]
struct Shard {
    cold: HashMap<usize, ColdEntry>,
    hot: HashMap<usize, HotEntry>,
    /// Monotone per-shard logical clock; each lookup gets a unique tick,
    /// so LRU ordering is total and eviction is deterministic.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The fleet's model store: `N` shards of cold envelopes with bounded
/// per-shard hot caches, plus the shared general fallback model.
///
/// Every operation — [`get`](ShardedRegistry::get) on the serving path,
/// [`enroll`](ShardedRegistry::enroll) on the publication path — takes
/// `&self`; a shard's state is guarded by its own mutex, so concurrent
/// readers and one (or more) publishers interleave safely and a published
/// model becomes visible atomically: the cold envelope is replaced and
/// the stale hot copy dropped under one shard lock.
#[derive(Debug)]
pub struct ShardedRegistry {
    shards: Vec<Mutex<Shard>>,
    general: Arc<SequenceModel>,
    hot_capacity: usize,
    fallbacks: AtomicU64,
    /// Monotone publication counter; each enrollment gets the next value.
    /// It is seeded past the store's highest committed version, so
    /// monotonicity survives restarts.
    versions: AtomicU64,
    rollbacks: AtomicU64,
    /// Durable cold tier retaining full version history.
    store: Arc<EnvelopeStore>,
}

impl ShardedRegistry {
    /// Creates a registry around the shared general (fallback) model,
    /// durable over a fresh in-memory [`EnvelopeStore`] with one store
    /// shard per registry shard.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` or `config.hot_capacity` is zero.
    pub fn new(general: SequenceModel, config: RegistryConfig) -> Self {
        // Before the store opens, which has its own zero-shard assert.
        assert!(config.shards > 0, "registry needs at least one shard");
        let store = EnvelopeStore::open(
            Arc::new(MemBackend::new()),
            StoreConfig { shards: config.shards, ..StoreConfig::default() },
        )
        .expect("an empty in-memory store opens");
        Self::with_store(general, config, Arc::new(store))
    }

    /// Creates a registry over a caller's own durable [`EnvelopeStore`]:
    /// publications are write-through (durable before visible), lookups
    /// read through to the log on an in-memory miss, and the publication
    /// version counter resumes past the highest committed version the
    /// store replayed — so a registry reopened over yesterday's log
    /// serves yesterday's models at tomorrow's version numbers.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` or `config.hot_capacity` is zero, and
    /// when the store's shard count differs from `config.shards` — both
    /// sides shard by `user % shards`, and aligned shards keep
    /// [`RegistryStats::history_by_shard`] meaningful.
    pub fn with_store(
        general: SequenceModel,
        config: RegistryConfig,
        store: Arc<EnvelopeStore>,
    ) -> Self {
        assert!(config.hot_capacity > 0, "hot cache capacity must be positive");
        assert_eq!(
            store.shard_count(),
            config.shards,
            "store and registry must agree on the shard count"
        );
        Self {
            shards: (0..config.shards).map(|_| Mutex::new(Shard::default())).collect(),
            general: Arc::new(general),
            hot_capacity: config.hot_capacity,
            fallbacks: AtomicU64::new(0),
            versions: AtomicU64::new(store.max_version()),
            rollbacks: AtomicU64::new(0),
            store,
        }
    }

    /// The durable store behind this registry.
    pub fn store(&self) -> &Arc<EnvelopeStore> {
        &self.store
    }

    /// A shard's state, taken back if a panic poisoned its lock. No
    /// holder leaves a shard half-changed: `publish` mutates it only after
    /// the store's append returns, each of `get`'s updates (the tick, the
    /// counters, the cold and hot inserts after a decode) stands on its
    /// own, and every other holder only reads.
    fn lock<'a>(&'a self, shard: &'a Mutex<Shard>) -> MutexGuard<'a, Shard> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of shards. The scheduler must coalesce with the same shard
    /// function ([`ShardedRegistry::shard_of`]) for batches to stay
    /// shard-local.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a user's model lives on.
    pub fn shard_of(&self, user_id: usize) -> usize {
        user_id % self.shards.len()
    }

    /// Borrows the shared general fallback model.
    pub fn general(&self) -> &SequenceModel {
        &self.general
    }

    /// The single internal publication path every enrollment, hot-swap
    /// update and rollback funnels through.
    ///
    /// Under the shard lock: allocate the next monotone version, make it
    /// durable ([`EnvelopeStore::append`] returns only after its
    /// durability barrier — the envelope is on "disk" *before* it is
    /// service-visible), then atomically swap the cold envelope and drop
    /// the stale hot copy. Two publishers racing on one user serialize
    /// on the shard lock and commit in version order; a failed durable
    /// append burns the version number but publishes nothing.
    fn publish(&self, user_id: usize, envelope: ModelEnvelope) -> Result<u64, StoreError> {
        let mut shard = self.lock(&self.shards[self.shard_of(user_id)]);
        // Allocate the version *under* the shard lock: two publishers
        // racing on the same user then commit in version order, so the
        // entry that wins the map insert is always the higher version.
        let version = self.versions.fetch_add(1, Ordering::Relaxed) + 1;
        self.store.append(user_id as u64, version, &envelope)?;
        shard.cold.insert(user_id, ColdEntry { envelope, version });
        shard.hot.remove(&user_id);
        Ok(version)
    }

    /// Enrolls (or replaces) a user's personalized model: the model is
    /// encoded to cold envelope bytes and any stale hot copy is dropped,
    /// so the next lookup decodes the fresh parameters. Returns the
    /// publication version assigned to this model (monotone across the
    /// whole registry).
    ///
    /// # Panics
    ///
    /// Panics if the durable store's backend fails (use
    /// [`ShardedRegistry::try_enroll_envelope`] to handle that).
    pub fn enroll(&self, user_id: usize, model: &SequenceModel) -> u64 {
        self.publish(user_id, ModelEnvelope::encode(model)).expect("durable publication failed")
    }

    /// Enrolls a user directly from uploaded envelope bytes (the on-device
    /// personalization upload path, and the training pipeline's hot-swap
    /// publication channel). The swap is atomic with respect to lookups:
    /// under the shard lock, the cold envelope is replaced and the stale
    /// hot copy removed, so no subsequent `get` can observe an older
    /// version. Returns the assigned publication version.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when the durable append fails; the
    /// publication is not visible in that case.
    pub fn try_enroll_envelope(
        &self,
        user_id: usize,
        envelope: ModelEnvelope,
    ) -> Result<u64, StoreError> {
        self.publish(user_id, envelope)
    }

    /// Rolls a user back to a retained historical version by
    /// re-publishing that envelope through the same versioned hot-swap
    /// path as any other publication: the rollback gets a **new**
    /// monotone version number (history records what was served when),
    /// becomes durable before visible, and in-flight readers finish on
    /// whatever version they already hold. Returns the new version.
    ///
    /// # Errors
    ///
    /// [`UpdateError::Store`] with [`StoreError::UnknownVersion`] when the
    /// target version is not retained (never published or compacted
    /// away), or with the backend's error on a failure.
    pub fn rollback(&self, user_id: usize, version: u64) -> Result<u64, UpdateError> {
        // Fetch outside the registry shard lock (lock order is registry
        // shard -> store shard; this takes only the latter).
        let envelope = self.store.fetch(user_id as u64, version)?;
        let new_version = self.publish(user_id, envelope)?;
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
        Ok(new_version)
    }

    /// Bulk enrollment from an experiment [`Scenario`]: every
    /// personalization user's model is installed behind
    /// [`PAPER_DEFENSE`], the paper's evaluated temperature layer,
    /// applied *before* the model becomes service-visible (the general
    /// fallback stays unsharpened — it is provider-owned and holds no
    /// personal data). Returns the number of users enrolled.
    pub fn enroll_scenario(&self, scenario: &Scenario) -> usize {
        for user in &scenario.personal {
            let mut model = user.model.clone();
            model.set_defense(PAPER_DEFENSE);
            self.enroll(user.user_id, &model);
        }
        scenario.personal.len()
    }

    /// Whether a personalized model is enrolled for the user (in memory
    /// or, after a restart, still waiting in the durable log).
    pub fn is_enrolled(&self, user_id: usize) -> bool {
        if self.lock(&self.shards[self.shard_of(user_id)]).cold.contains_key(&user_id) {
            return true;
        }
        self.store.contains(user_id as u64)
    }

    /// The publication version of the user's current model, or `None` if
    /// the user never enrolled. Consults the durable log when the
    /// in-memory tier has not been warmed since a restart.
    pub fn version_of(&self, user_id: usize) -> Option<u64> {
        let from_memory =
            self.lock(&self.shards[self.shard_of(user_id)]).cold.get(&user_id).map(|e| e.version);
        from_memory.or_else(|| self.store.latest_version(user_id as u64))
    }

    /// Looks up the model that should answer a user's query, decoding cold
    /// bytes (and evicting the least-recently-used hot entry) on a miss.
    /// Unenrolled users get the shared general model.
    ///
    /// The returned [`Arc`] stays valid even if the user's model is
    /// re-published mid-request — the reader finishes on the version it
    /// fetched, the next lookup observes the new one.
    ///
    /// A read-through that the store fails — a backend I/O error, or a
    /// record failing its CRC ([`StoreError::Corrupt`]) — answers with
    /// the general model as a [`Lookup::Fallback`]; the user stays
    /// enrolled and the next lookup reads through again.
    ///
    /// # Errors
    ///
    /// Returns [`ModelCodecError`] if the user's envelope bytes (intact
    /// on disk) fail to decode.
    pub fn get(&self, user_id: usize) -> Result<(Arc<SequenceModel>, Lookup), ModelCodecError> {
        let capacity = self.hot_capacity;
        let mut shard = self.lock(&self.shards[self.shard_of(user_id)]);
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(entry) = shard.hot.get_mut(&user_id) {
            entry.last_used = tick;
            let model = Arc::clone(&entry.model);
            shard.hits += 1;
            return Ok((model, Lookup::Hot));
        }
        // In-memory cold miss: read through to the durable log (a
        // restarted registry starts with empty maps and refills them on
        // first touch). The store fetch happens under the registry shard
        // lock, so no publisher can interleave a newer version between
        // the fetch and the cache fill. Store I/O failures degrade to
        // the fallback model rather than erroring the serving path.
        let found = match shard.cold.get(&user_id) {
            Some(entry) => Some((entry.envelope.clone(), None)),
            None => self
                .store
                .fetch_latest_with_version(user_id as u64)
                .ok()
                .flatten()
                .map(|(version, envelope)| (envelope, Some(version))),
        };
        if let Some((envelope, fetched_version)) = found {
            let model = Arc::new(envelope.decode()?);
            // Only bytes that came from the store are new to the cold map.
            if let Some(version) = fetched_version {
                shard.cold.insert(user_id, ColdEntry { envelope, version });
            }
            shard.misses += 1;
            if shard.hot.len() >= capacity {
                let (&lru, _) = shard
                    .hot
                    .iter()
                    .min_by_key(|(&uid, entry)| (entry.last_used, uid))
                    .expect("cache at capacity is nonempty");
                shard.hot.remove(&lru);
                shard.evictions += 1;
            }
            shard.hot.insert(user_id, HotEntry { model: Arc::clone(&model), last_used: tick });
            return Ok((model, Lookup::Cold));
        }
        drop(shard);
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        Ok((Arc::clone(&self.general), Lookup::Fallback))
    }

    /// Aggregate counters across all shards.
    pub fn stats(&self) -> RegistryStats {
        let mut stats = RegistryStats {
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            publishes: self.versions.load(Ordering::Relaxed),
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
            // Shard counts are aligned (asserted in `with_store`), so the
            // store's retained-history depths line up shard for shard.
            history_by_shard: self.store.stats().retained_by_shard,
            ..RegistryStats::default()
        };
        for shard in &self.shards {
            let shard = self.lock(shard);
            stats.hits += shard.hits;
            stats.misses += shard.misses;
            stats.evictions += shard.evictions;
            stats.hot_models += shard.hot.len();
            stats.cold_models += shard.cold.len();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(seed: u64) -> SequenceModel {
        let mut rng = StdRng::seed_from_u64(seed);
        SequenceModel::single_lstm(4, 5, 3, 0.0, &mut rng)
    }

    fn registry(shards: usize, hot_capacity: usize) -> ShardedRegistry {
        ShardedRegistry::new(model(0), RegistryConfig { shards, hot_capacity })
    }

    #[test]
    fn lookup_paths_hit_miss_fallback() {
        let r = registry(4, 2);
        r.enroll(9, &model(9));
        assert!(r.is_enrolled(9));

        let (_, first) = r.get(9).unwrap();
        assert_eq!(first, Lookup::Cold, "first touch decodes cold bytes");
        let (_, second) = r.get(9).unwrap();
        assert_eq!(second, Lookup::Hot);

        let (fallback, kind) = r.get(1234).unwrap();
        assert_eq!(kind, Lookup::Fallback);
        assert_eq!(fallback.output_dim(), r.general().output_dim());

        let stats = r.stats();
        assert_eq!((stats.hits, stats.misses, stats.fallbacks), (1, 1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn lookups_work_through_a_shared_reference() {
        // The whole point of the interior-mutability refactor: concurrent
        // serving threads and a publisher share one `&ShardedRegistry`.
        let r = registry(2, 2);
        r.enroll(1, &model(1));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        r.get(1).unwrap();
                        r.get(99).unwrap();
                    }
                });
            }
            s.spawn(|| {
                for round in 0..20 {
                    r.enroll(1, &model(round));
                }
            });
        });
        let stats = r.stats();
        assert_eq!(stats.hits + stats.misses, 200, "every personalized lookup is counted");
        assert_eq!(stats.fallbacks, 200);
        assert_eq!(stats.publishes, 21);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Users 0, 4, 8 all land on shard 0 of a 4-shard registry.
        let r = registry(4, 2);
        for uid in [0usize, 4, 8] {
            r.enroll(uid, &model(uid as u64));
        }
        r.get(0).unwrap();
        r.get(4).unwrap();
        r.get(0).unwrap(); // 0 is now more recent than 4
        r.get(8).unwrap(); // capacity 2: must evict 4
        let stats = r.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.hot_models, 2);
        let (_, kind) = r.get(0).unwrap();
        assert_eq!(kind, Lookup::Hot, "recently used survivor stays hot");
        let (_, kind) = r.get(4).unwrap();
        assert_eq!(kind, Lookup::Cold, "evicted model decodes again");
    }

    #[test]
    fn decoded_model_answers_like_the_original() {
        let r = registry(2, 4);
        let mut m = model(7);
        // The deployed defense must survive the cold-storage round trip,
        // not just the weights.
        m.set_defense(pelican::DefenseKind::Rounding { decimals: 2 });
        r.enroll(3, &m);
        let xs = vec![vec![0.2; 4]; 2];
        let (served, _) = r.get(3).unwrap();
        assert_eq!(served.predict_proba(&xs), m.predict_proba(&xs));
    }

    #[test]
    fn re_enrollment_replaces_the_hot_copy_and_bumps_the_version() {
        let r = registry(2, 4);
        let v1 = r.enroll(5, &model(1));
        r.get(5).unwrap();
        let replacement = model(2);
        let v2 = r.enroll(5, &replacement);
        assert!(v2 > v1, "publication versions are monotone");
        assert_eq!(r.version_of(5), Some(v2));
        assert_eq!(r.version_of(1234), None);
        let xs = vec![vec![0.1; 4]];
        let (served, kind) = r.get(5).unwrap();
        assert_eq!(kind, Lookup::Cold, "stale hot copy was dropped");
        assert_eq!(served.predict_proba(&xs), replacement.predict_proba(&xs));
    }

    #[test]
    fn readers_keep_their_version_across_a_hot_swap() {
        let r = registry(2, 4);
        let old = model(3);
        r.enroll(6, &old);
        let (held, _) = r.get(6).unwrap();
        r.enroll(6, &model(4)); // hot-swap while `held` is still in use
        let xs = vec![vec![0.3; 4]; 2];
        assert_eq!(held.predict_proba(&xs), old.predict_proba(&xs), "reader finishes on v1");
        let (fresh, _) = r.get(6).unwrap();
        assert_eq!(fresh.predict_proba(&xs), model(4).predict_proba(&xs), "next get sees v2");
    }

    #[test]
    fn shard_function_partitions_users() {
        let r = registry(4, 2);
        assert_eq!(r.shard_count(), 4);
        for uid in 0..16 {
            assert_eq!(r.shard_of(uid), uid % 4);
        }
    }

    mod durable {
        use super::*;
        use pelican_store::{MemBackend, StoreConfig};

        fn durable_registry(disk: &MemBackend, shards: usize) -> ShardedRegistry {
            let store = EnvelopeStore::open(
                Arc::new(disk.clone()),
                StoreConfig { shards, ..StoreConfig::default() },
            )
            .expect("open store");
            ShardedRegistry::with_store(
                model(0),
                RegistryConfig { shards, hot_capacity: 4 },
                Arc::new(store),
            )
        }

        #[test]
        fn publications_survive_a_restart_with_monotone_versions() {
            let disk = MemBackend::new();
            let r = durable_registry(&disk, 2);
            let m = model(9);
            let v1 = r.enroll(9, &m);
            let v2 = r.enroll(9, &model(10));
            assert!(v2 > v1);
            drop(r); // the process "exits"; the disk survives

            let r = durable_registry(&disk, 2);
            assert!(r.is_enrolled(9), "durable log answers before any warmup");
            assert_eq!(r.version_of(9), Some(v2));
            let (_, kind) = r.get(9).unwrap();
            assert_eq!(kind, Lookup::Cold, "read-through refill from the log");
            let (_, kind) = r.get(9).unwrap();
            assert_eq!(kind, Lookup::Hot);
            // Versions keep climbing from where the log left off.
            let v3 = r.enroll(9, &model(11));
            assert!(v3 > v2, "restarted counter resumes past the log's max");
        }

        #[test]
        fn rollback_republishes_history_through_the_hot_swap_path() {
            let disk = MemBackend::new();
            let r = durable_registry(&disk, 2);
            let good = model(1);
            let v1 = r.enroll(4, &good);
            r.get(4).unwrap(); // warm the hot cache with v1... then regress:
            let v2 = r.enroll(4, &model(2));
            assert_eq!(r.version_of(4), Some(v2));

            let v3 = r.rollback(4, v1).expect("v1 is retained");
            assert!(v3 > v2, "rollback is a fresh publication, not a rewind");
            assert_eq!(r.version_of(4), Some(v3));
            let xs = vec![vec![0.2; 4]; 2];
            let (served, kind) = r.get(4).unwrap();
            assert_eq!(kind, Lookup::Cold, "rollback dropped the stale hot copy");
            assert_eq!(served.predict_proba(&xs), good.predict_proba(&xs));

            let stats = r.stats();
            assert_eq!(stats.rollbacks, 1);
            assert_eq!(stats.publishes, 3);
            assert_eq!(stats.history_total(), 3, "all three publications retained");
            assert_eq!(stats.history_by_shard.len(), 2);

            // The rollback itself is durable: a restart serves v1's weights.
            drop(r);
            let r = durable_registry(&disk, 2);
            let (served, _) = r.get(4).unwrap();
            assert_eq!(served.predict_proba(&xs), good.predict_proba(&xs));
        }

        #[test]
        fn rollback_errors_are_precise() {
            let disk = MemBackend::new();
            let r = durable_registry(&disk, 2);
            assert!(matches!(
                r.rollback(1, 1),
                Err(UpdateError::Store(StoreError::UnknownVersion { user: 1, version: 1 }))
            ));
        }

        #[test]
        fn a_new_registry_is_durable() {
            let r = registry(3, 2);
            assert_eq!(r.store().shard_count(), 3);
            let good = model(1);
            let v1 = r.enroll(4, &good);
            let v2 = r.enroll(4, &model(2));
            let v3 = r.rollback(4, v1).expect("v1 is retained by the in-memory store");
            assert!(v3 > v2);
            let xs = vec![vec![0.2; 4]; 2];
            let (served, _) = r.get(4).unwrap();
            assert_eq!(served.predict_proba(&xs), good.predict_proba(&xs));
            let stats = r.stats();
            assert_eq!(stats.history_by_shard.len(), 3);
            assert_eq!(stats.history_total(), 3, "every publication is retained");
        }
    }
}
