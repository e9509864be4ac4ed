//! `store_churn` — closed loop, writes beside reads; one op per store
//! operation.
//!
//! A fresh in-memory durable store per iteration (4 shards, compression
//! off — the product default — two versions retained). 32 rounds, each
//! publishing a 32 KB envelope (the live loop's hidden-12 model) for each of 256 users through the
//! registry's durable path, then fetching every user's latest back and
//! comparing bytes; every fourth round compacts. Then every user is
//! rolled back to the version before, and the backend is reopened and
//! every retained version verified. WAL framing, CRC, index, compaction
//! and recovery dominate nowhere else. Append, fetch and recovery are
//! timed together, so a win on one that costs another shows.

use std::sync::Arc;

use pelican_nn::{ModelEnvelope, SequenceModel};
use pelican_serve::{RegistryConfig, ShardedRegistry};
use pelican_store::{compress, DirBackend, EnvelopeStore, MemBackend, StoreConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::Fnv;
use crate::probes;
use crate::row::{Iteration, Metrics};
use crate::runner::{Clock, Timed, Workload};
use crate::spans::Tracer;
use crate::stats::{percentile, sorted};

const SHARDS: usize = 4;
const RETAIN: usize = 2;
const COMPACT_EVERY: usize = 4;
/// Distinct envelopes in rotation, so a fetch that returns another
/// user's or another round's bytes is caught.
const DISTINCT: usize = 8;

pub struct StoreChurn {
    rounds: usize,
    users: usize,
    general: SequenceModel,
    envelopes: Vec<ModelEnvelope>,
}

impl StoreChurn {
    fn store_config() -> StoreConfig {
        let mut config = StoreConfig { shards: SHARDS, compress: false, ..StoreConfig::default() };
        config.compaction.retain_versions = RETAIN;
        config
    }

    /// What user `user` publishes in round `round`.
    fn envelope(&self, user: usize, round: usize) -> &ModelEnvelope {
        &self.envelopes[(user + round) % DISTINCT]
    }
}

/// Op counts of one iteration, and the hash of everything observed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    hash: Fnv,
    violations: Vec<String>,
}

impl Tally {
    /// Counts one op; a failed one is described once per kind.
    fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if !self.violations.iter().any(|v| v == what) {
                self.violations.push(what.to_owned());
            }
        }
    }
}

impl Workload for StoreChurn {
    const NAME: &'static str = "store_churn";
    const OP: &'static str = "store operation";
    type Fresh = MemBackend;

    fn setup(seed: u64, quick: bool, _tracer: &mut Tracer) -> Self {
        let (rounds, users, hidden) = if quick { (4, 32, 4) } else { (32, 256, 12) };
        // Small-campus building-level shapes; the store never looks inside.
        let model = |salt: u64| {
            let mut rng = StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            SequenceModel::general_lstm(119, hidden, 40, 0.1, &mut rng)
        };
        let envelopes =
            (1..=DISTINCT as u64).map(|salt| ModelEnvelope::encode(&model(salt))).collect();
        Self { rounds, users, general: model(0), envelopes }
    }

    fn fresh(&self) -> MemBackend {
        MemBackend::new()
    }

    fn iterate(&self, backend: MemBackend, clock: &mut Clock) -> Iteration {
        let mut tally = Tally::default();
        let reclaimed = clock.timed(|t| {
            let store = t.span("store.open", |_| {
                EnvelopeStore::open(Arc::new(backend.clone()), Self::store_config())
            });
            let store = Arc::new(store.expect("an empty store opens"));
            let registry = ShardedRegistry::with_store(
                self.general.clone(),
                RegistryConfig { shards: SHARDS, ..RegistryConfig::default() },
                Arc::clone(&store),
            );
            // versions[user] = every version published for the user, oldest first.
            let mut versions: Vec<Vec<(u64, &ModelEnvelope)>> = vec![Vec::new(); self.users];
            for round in 0..self.rounds {
                for (user, history) in versions.iter_mut().enumerate() {
                    let envelope = self.envelope(user, round);
                    let version = t.span("registry.try_enroll_envelope", |_| {
                        registry.try_enroll_envelope(user, envelope.clone())
                    });
                    tally.op(version.is_ok(), "a publish failed");
                    if let Ok(version) = version {
                        tally.hash.u64(version);
                        history.push((version, envelope));
                    }
                }
                for (user, history) in versions.iter().enumerate() {
                    let latest = t.span("store.fetch_latest", |_| store.fetch_latest(user as u64));
                    let expected = history.last().map(|(_, e)| e.as_bytes());
                    let got = latest.as_ref().ok().and_then(|e| e.as_ref()).map(|e| e.as_bytes());
                    tally.op(
                        got.is_some() && got == expected,
                        "a fetch did not return the bytes published",
                    );
                }
                if (round + 1) % COMPACT_EVERY == 0 {
                    let freed = t.span("store.compact", |_| store.compact());
                    tally.op(freed.is_ok(), "a compaction failed");
                    for history in &mut versions {
                        history.drain(..history.len().saturating_sub(RETAIN));
                    }
                }
            }
            for (user, history) in versions.iter_mut().enumerate() {
                let Some(&(prior, envelope)) = history.iter().rev().nth(1) else { continue };
                let version = t.span("registry.rollback", |_| registry.rollback(user, prior));
                tally.op(version.is_ok(), "a rollback failed");
                if let Ok(version) = version {
                    tally.hash.u64(version);
                    history.push((version, envelope));
                }
            }
            let stats = store.stats();
            for counter in [
                stats.appended_records,
                stats.appended_bytes,
                stats.retained_versions,
                stats.reclaimed_bytes,
            ] {
                tally.hash.u64(counter);
            }
            drop((registry, store));

            // A restart: replay the log the backend holds, then every
            // version the index says it kept.
            let reopened = t.span("store.open", |_| {
                EnvelopeStore::open(Arc::new(backend), Self::store_config())
            });
            tally.op(reopened.is_ok(), "the reopen failed");
            if let Ok(reopened) = reopened {
                let torn = reopened.recovery().torn_bytes;
                if torn != 0 {
                    tally.violations.push(format!("{torn} torn bytes on reopen"));
                }
                for (user, history) in versions.iter().enumerate() {
                    for &(version, envelope) in history {
                        let got = t.span("store.fetch", |_| reopened.fetch(user as u64, version));
                        let same = got.is_ok_and(|e| e.as_bytes() == envelope.as_bytes());
                        tally.op(same, "a retained version did not survive the reopen");
                    }
                }
            }
            stats.reclaimed_bytes as f64 / stats.appended_bytes.max(1) as f64
        });

        let mut out = Iteration {
            attempted: tally.attempted,
            failed: tally.failed,
            fingerprint: tally.hash.0,
            violations: tally.violations,
            ..Iteration::default()
        };
        out.metrics.exact("store.reclaimed_share", reclaimed);
        out
    }

    fn probe(&self, _timed: Timed, tracer: &mut Tracer, metrics: &mut Metrics) {
        // From the traced iterations' own spans: the registry's durable
        // publish and rollback, the store's reads, compaction and the
        // recovery scan (the second `open` of each iteration; the first
        // finds an empty backend).
        metrics.timing(
            "registry.publish_us",
            &tracer.seconds_of("registry.try_enroll_envelope"),
            1e6,
        );
        metrics.timing("registry.rollback_us", &tracer.seconds_of("registry.rollback"), 1e6);
        let fetches =
            [tracer.seconds_of("store.fetch_latest"), tracer.seconds_of("store.fetch")].concat();
        metrics.measured("store.fetch_per_s", fetches.len() as f64 / fetches.iter().sum::<f64>());
        metrics.timing("store.compact_ms", &tracer.seconds_of("store.compact"), 1e3);
        let reopens: Vec<f64> =
            tracer.seconds_of("store.open").into_iter().skip(1).step_by(2).collect();
        metrics.timing("store.recover_ms", &reopens, 1e3);

        // `append` by itself, below the registry.
        let envelope = &self.envelopes[0];
        let appends = self.users * 4;
        let store = EnvelopeStore::open(Arc::new(MemBackend::new()), Self::store_config())
            .expect("empty store");
        for i in 0..appends {
            let (user, version) = ((i % self.users) as u64, i as u64 + 1);
            tracer.span("store.append", |_| {
                store.append(user, version, envelope).expect("in-memory append")
            });
        }
        let append_s: f64 = tracer.seconds_of("store.append").iter().sum();
        metrics.measured("store.append_per_s", appends as f64 / append_s);
        metrics.measured("store.append_mb_s", (appends * envelope.len()) as f64 / 1e6 / append_s);

        let packed = tracer.span("store.compress", |_| compress(envelope.as_bytes()));
        let compress_s = tracer.seconds_of("store.compress")[0];
        metrics.measured("store.lzss_mb_s", envelope.len() as f64 / 1e6 / compress_s);
        metrics.measured("store.lzss_ratio", envelope.len() as f64 / packed.len().max(1) as f64);

        // The same append against a real directory, where every record
        // is followed by `sync_all`. The number belongs to this host's
        // disk: informational, never a regression guard.
        let dir = crate::runner::spans_path(Self::NAME, 0)
            .with_file_name(format!("dir-{}", std::process::id()));
        let disk = DirBackend::create(&dir).and_then(|backend| {
            EnvelopeStore::open(Arc::new(backend), Self::store_config())
                .map_err(std::io::Error::other)
        });
        if let Ok(disk) = disk {
            for i in 0..500u64 {
                tracer.span("store.append_dir", |_| {
                    disk.append(i % 64, i + 1, envelope).expect("disk append")
                });
            }
            let syncs =
                sorted(tracer.seconds_of("store.append_dir").iter().map(|s| (s * 1e9) as u64));
            metrics.measured("store.dir_sync_p50_us", percentile(&syncs, 0.50) as f64 / 1e3);
            metrics.measured("store.dir_sync_p99_us", percentile(&syncs, 0.99) as f64 / 1e3);
        }
        // Best effort: a leftover directory only costs disk in `out/`.
        let _ = std::fs::remove_dir_all(&dir);
        probes::envelope_codec(tracer, metrics, &self.general);
    }
}
