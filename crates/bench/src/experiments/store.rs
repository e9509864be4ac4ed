//! Durable model-store report: log throughput, compression, compaction
//! reclaim, exhaustive crash-recovery probing, and the rollback-under-
//! traffic study on the simulation's virtual clock.
//!
//! Three sections:
//!
//! 1. **Log throughput** — envelope publications appended through the
//!    write-ahead commit path, with and without LZSS compression, plus
//!    what compaction reclaims once version history piles up.
//! 2. **Crash recovery** — a small log is torn at *every* byte offset;
//!    each truncation is reopened and checked against the
//!    committed-prefix contract (the same exhaustive loop as the
//!    `crash-recovery` test suite, summarized as a count). A compressed
//!    store-backed registry is then dropped and reopened over the same
//!    bytes: every user must serve bit-identically from the log alone.
//! 3. **Rollback under traffic** — [`pelican_train::rollback`]'s study:
//!    a regressed fleet publication is canary-detected and rolled back
//!    over a contended egress link while queries keep flowing; the
//!    staleness window is the headline number.
//!
//! Every section's contract is asserted on every run, not just in tests.

use std::sync::Arc;
use std::time::Instant;

use pelican_nn::{ModelEnvelope, SequenceModel};
use pelican_serve::{RegistryConfig, ShardedRegistry};
use pelican_store::{EnvelopeStore, MemBackend, StoreConfig};
use pelican_train::{run_rollback_study, RollbackConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::report::Table;
use crate::RunConfig;

/// One log-throughput measurement row.
#[derive(Debug, Clone)]
pub struct LogRun {
    /// Whether LZSS compression was on.
    pub compress: bool,
    /// Publications appended.
    pub appends: u64,
    /// Appends per wall-clock second.
    pub appends_per_sec: f64,
    /// stored/raw byte ratio across live payloads (1.0 = incompressible).
    pub compression_ratio: f64,
    /// Bytes reclaimed by compacting down to the retention policy.
    pub reclaimed_bytes: u64,
}

/// The whole experiment's results.
#[derive(Debug, Clone)]
pub struct StoreResult {
    /// Throughput rows (compression off, then on).
    pub log_runs: Vec<LogRun>,
    /// Crash-recovery probe: byte offsets torn (== log length + 1).
    pub crash_points: u64,
    /// Crash points where the reopened store served exactly the last
    /// committed version (must equal `crash_points`).
    pub crash_points_correct: u64,
    /// The rollback-under-traffic study report.
    pub rollback: pelican_train::RollbackReport,
}

/// Envelope payloads that look like model bytes: mostly structured
/// (quantized weights repeat) with a noisy tail, so compression has
/// something real to chew on.
fn payload(rng: &mut StdRng, bytes: usize) -> ModelEnvelope {
    let body: Vec<u8> = (0..bytes)
        .map(|i| if i % 32 == 0 { (rng.random::<u32>() & 0xFF) as u8 } else { (i % 251) as u8 })
        .collect();
    ModelEnvelope::from_bytes(body)
}

/// Runs all three sections at the config's scale.
///
/// # Panics
///
/// Panics if a crash point recovers anything but the committed prefix,
/// if a user serves differently after the restart, or if the rollback
/// study serves a degraded answer after a swap or measures no staleness
/// window.
pub fn run(config: &RunConfig) -> StoreResult {
    let users = config.personal_users().max(4) as u64;
    let versions_per_user = 6u64;
    let payload_bytes = 4 * 1024;

    // Section 1: append throughput, compression off and on.
    let log_runs = [false, true]
        .into_iter()
        .map(|compress| {
            let store = EnvelopeStore::open(
                Arc::new(MemBackend::new()),
                StoreConfig {
                    shards: 4,
                    compress,
                    compaction: pelican_store::CompactionPolicy { retain_versions: 2 },
                    ..StoreConfig::default()
                },
            )
            .expect("fresh backend opens");
            let mut rng = StdRng::seed_from_u64(config.seed ^ compress as u64);
            let started = Instant::now();
            let mut version = 0;
            for _ in 0..versions_per_user {
                for user in 0..users {
                    version += 1;
                    store
                        .append(user, version, &payload(&mut rng, payload_bytes))
                        .expect("append succeeds");
                }
            }
            let elapsed = started.elapsed().as_secs_f64();
            let stats = store.stats();
            let reclaimed = store.compact().expect("compaction succeeds");
            LogRun {
                compress,
                appends: stats.appended_records,
                appends_per_sec: stats.appended_records as f64 / elapsed.max(1e-9),
                compression_ratio: stats.compression_ratio(),
                reclaimed_bytes: reclaimed,
            }
        })
        .collect();

    // Section 2: exhaustive crash probe over a 3-version log, then a
    // kill-free restart of a compressed store-backed registry.
    let (crash_points, crash_points_correct) = crash_probe(config.seed);
    assert_eq!(
        crash_points_correct, crash_points,
        "a crash point violated the committed-prefix contract"
    );
    restart_probe(config.seed, users as usize);

    // Section 3: the rollback study, fleet size tied to the scale.
    let rollback = run_rollback_study(&RollbackConfig {
        users: (users as usize).clamp(4, 24),
        seed: config.seed,
        ..RollbackConfig::default()
    })
    .expect("the rollback drill's in-memory disk fails no call")
    .report;
    assert_eq!(rollback.queries_degraded_after_swap, 0, "a degraded answer after the swap");
    assert!(rollback.staleness_us > 0, "the rollback paid no staleness window on the link");

    StoreResult { log_runs, crash_points, crash_points_correct, rollback }
}

/// Tears a 3-version single-shard log at every byte offset and counts
/// the truncations whose reopened store served exactly the newest
/// version committed inside the cut.
fn crash_probe(seed: u64) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let disk = MemBackend::new();
    let config = StoreConfig { shards: 1, ..StoreConfig::default() };
    let store = EnvelopeStore::open(Arc::new(disk.clone()), config).expect("open");
    let mut ends = Vec::new();
    let mut payloads = Vec::new();
    for v in 1..=3u64 {
        let envelope = payload(&mut rng, 512);
        let entry = store.append(7, v, &envelope).expect("append");
        ends.push(entry.offset + entry.stored_len as u64);
        payloads.push(envelope);
    }
    drop(store);

    use pelican_store::StorageBackend;
    let segment = "shard0000-seg00000000.plog";
    let full = disk.size(segment).expect("segment exists");
    let mut correct = 0u64;
    for cut in 0..=full {
        let crash = disk.snapshot();
        crash.truncate(segment, cut).expect("truncate");
        let Ok(recovered) = EnvelopeStore::open(Arc::new(crash), config) else { continue };
        let committed = ends.iter().filter(|&&end| end <= cut).count() as u64;
        let ok = match committed {
            0 => recovered.latest_version(7).is_none(),
            v => {
                recovered.latest_version(7) == Some(v)
                    && recovered
                        .fetch(7, v)
                        .map(|e| e.as_bytes() == payloads[v as usize - 1].as_bytes())
                        .unwrap_or(false)
            }
        };
        correct += ok as u64;
    }
    (full + 1, correct)
}

/// Publishes one model per user through a compressed store-backed
/// registry, drops it, reopens the same backend bytes and checks that
/// every user serves its version bit-identically from the log alone.
fn restart_probe(seed: u64, users: usize) {
    const SHARDS: usize = 4;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = || SequenceModel::single_lstm(3, 6, 5, 0.0, &mut rng);
    let general = model();
    let disk = MemBackend::new();
    let config = StoreConfig { shards: SHARDS, compress: true, ..StoreConfig::default() };
    let open = || {
        let store = EnvelopeStore::open(Arc::new(disk.clone()), config).expect("log opens");
        assert_eq!(store.recovery().torn_segments, 0, "a clean shutdown leaves nothing torn");
        let registry = RegistryConfig { shards: SHARDS, ..RegistryConfig::default() };
        ShardedRegistry::with_store(general.clone(), registry, Arc::new(store))
    };

    let probe = vec![vec![0.4f32, 0.1, 0.7], vec![0.2, 0.9, 0.3]];
    let registry = open();
    let published: Vec<(u64, Vec<f32>)> = (0..users)
        .map(|user| {
            let version = registry.enroll(user, &model());
            (version, registry.get(user).expect("decodes").0.predict_proba(&probe))
        })
        .collect();
    drop(registry);

    let reopened = open();
    for (user, (version, answer)) in published.iter().enumerate() {
        assert_eq!(reopened.version_of(user), Some(*version), "user {user}'s version was lost");
        assert_eq!(
            &reopened.get(user).expect("decodes").0.predict_proba(&probe),
            answer,
            "user {user} serves differently after the restart"
        );
    }
}

/// The log-throughput and crash-probe table.
pub fn table(result: &StoreResult) -> Table {
    let mut table =
        Table::new(&["compress", "appends", "appends/s", "stored/raw", "compaction reclaimed"]);
    for run in &result.log_runs {
        table.row(&[
            if run.compress { "lzss" } else { "off" }.to_string(),
            run.appends.to_string(),
            format!("{:.0}", run.appends_per_sec),
            format!("{:.3}", run.compression_ratio),
            format!("{} B", run.reclaimed_bytes),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelican_mobility::Scale;

    #[test]
    fn store_report_runs_at_tiny_scale() {
        // run() itself asserts the crash probe, the restart and the
        // rollback study's contracts — reaching the table is the test.
        let result = run(&RunConfig { scale: Scale::Tiny, ..RunConfig::default() });
        assert!(table(&result).render().contains("lzss"));
    }
}
