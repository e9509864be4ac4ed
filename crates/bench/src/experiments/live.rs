//! Streaming personalization loop: retrain latency and staleness on the
//! virtual clock, width invariance at 1/2/8 pool workers, zero-cost
//! re-audit sweeps, and the quiescent-case equivalence gate.
//!
//! Four contracts are **asserted** before any number is reported:
//!
//! * the loop's fingerprint is bit-identical for every pool width in
//!   [`WIDTHS`] — host scheduling must never leak into the virtual
//!   timeline;
//! * every admission, bootstrap or re-train, and the re-audit sweeps
//!   attack (they spend queries), and the sweeps of unchanged candidates
//!   pay **zero** forward passes (every oracle query answers from a warm
//!   logit cache);
//! * the per-user prefix tiers count the same hits and misses at every
//!   width (reported as `prefix`: audit queries whose frozen-prefix
//!   activations a re-train's admission found already computed);
//! * with a drift trigger that can never fire, the loop reduces exactly
//!   to the one-shot pipeline plus serving pass: same durable envelope
//!   bytes per user, same serving-trace fingerprint.
//!
//! Results go to stdout and to `BENCH_live_loop.json`, which the CI
//! `live-report` step checks with `crates/bench/tests/tracked_records.rs`.
//! The record is stamped with its host, and when the file it replaces
//! recorded the same run under another stamp, that file's per-width wall
//! times stay in the new one as the `before` block.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use pelican::platform::ComputeTier;
use pelican::PersonalizationConfig;
use pelican_live::{
    bootstrap_jobs, live_stream, run_live, DriftConfig, DriftMetric, LiveConfig, LiveOutcome,
};
use pelican_mobility::{CampusConfig, DatasetBuilder, MobilityDataset, SpatialLevel};
use pelican_nn::{SequenceModel, TrainConfig};
use pelican_serve::{
    simulate_serving, RegistryConfig, SchedulerConfig, ShardedRegistry, SimServeConfig,
};
use pelican_store::{EnvelopeStore, MemBackend, StoreConfig};
use pelican_train::{run_pipeline, AuditConfig, PipelineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::json::Value;
use crate::report::{fixed, hex, int, RecordKeys, Table};
use crate::RunConfig;

/// Trainer-pool widths every run is checked across.
pub const WIDTHS: [usize; 3] = [1, 2, 8];
/// Registry/store shards (fixed).
const SHARDS: usize = 4;

/// One `(pool width)` timed run of the drifting loop.
#[derive(Debug, Clone, Copy)]
pub struct WidthRun {
    /// Trainer-pool workers.
    pub workers: usize,
    /// Host wall-clock of the whole `run_live` call, in milliseconds.
    pub wall_ms: f64,
    /// Loop fingerprint (must match the other widths).
    pub fingerprint: u64,
    /// Publications this run produced (must match the other widths).
    pub retrains: usize,
}

/// A finished live-report sweep.
#[derive(Debug)]
pub struct LiveReportRun {
    /// Master seed.
    pub seed: u64,
    /// Cohort size.
    pub users: usize,
    /// The width-1 outcome all other widths were checked against.
    pub outcome: LiveOutcome,
    /// Per-width timings.
    pub runs: Vec<WidthRun>,
    /// Whether the quiescent loop matched the one-shot pipeline
    /// byte-for-byte (asserted, so always true in a returned value).
    pub quiescent_equivalent: bool,
    /// Queries the quiescent loop served while staying quiescent.
    pub quiescent_served: usize,
}

/// The benchmark setting: a seeded campus, a general model, and the
/// cohort of personalized users (the tail of the population).
fn setting(config: &RunConfig) -> (MobilityDataset, SequenceModel, Range<usize>) {
    let dataset = DatasetBuilder::new(CampusConfig::for_scale(config.scale), config.seed)
        .build(SpatialLevel::Building);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let general =
        SequenceModel::general_lstm(dataset.space.dim(), 12, dataset.n_locations(), 0.1, &mut rng);
    let n = dataset.users.len();
    let cohort = config.personal_users().min(n);
    (dataset, general, (n - cohort)..n)
}

fn store_backed_registry(general: &SequenceModel) -> ShardedRegistry {
    let store = EnvelopeStore::open(
        Arc::new(MemBackend::new()),
        StoreConfig { shards: SHARDS, ..StoreConfig::default() },
    )
    .expect("open empty store");
    ShardedRegistry::with_store(
        general.clone(),
        RegistryConfig { shards: SHARDS, hot_capacity: 16 },
        Arc::new(store),
    )
}

/// The loop configuration: a compact virtual timeline (1 ms per
/// mobility minute), one bootstrap week, one live week, and a small
/// warm-start training budget — the experiment measures loop mechanics,
/// not model quality.
fn live_config(workers: usize, metric: DriftMetric) -> LiveConfig {
    LiveConfig {
        pipeline: PipelineConfig {
            workers,
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
        drift: DriftConfig { metric, min_new_samples: 4, window: 6 },
        us_per_minute: 1_000,
        bootstrap_minutes: 7 * 24 * 60,
        horizon_minutes: 14 * 24 * 60,
        round_interval_us: 200_000,
        rollback_tolerance: 0.5,
    }
}

/// An always-stale trigger: agreement never reaches 1.01, so every user
/// re-trains each time `min_new_samples` fresh sessions accumulate —
/// the worst-case retrain load for the latency/staleness columns.
fn eager() -> DriftMetric {
    DriftMetric::TopKAgreement { k: 1, min_agreement: 1.01 }
}

/// A trigger that can never fire: finite loss never exceeds +inf.
fn quiescent() -> DriftMetric {
    DriftMetric::Loss { max_loss: f64::INFINITY }
}

/// Runs the sweep: the drifting loop at every width in [`WIDTHS`], then
/// the quiescent loop against the one-shot reference.
///
/// # Panics
///
/// Panics if any width's fingerprint diverges, if a re-audit sweep ran
/// a forward pass, or if the quiescent loop differs from the one-shot
/// pipeline — the loop's contracts are preconditions of the perf
/// numbers, not soft metrics.
pub fn run(config: &RunConfig) -> LiveReportRun {
    let (dataset, general, cohort) = setting(config);

    let mut runs: Vec<WidthRun> = Vec::new();
    let mut outcome: Option<LiveOutcome> = None;
    for workers in WIDTHS {
        let registry = store_backed_registry(&general);
        let started = Instant::now();
        let live =
            run_live(&dataset, cohort.clone(), &registry, &general, &live_config(workers, eager()))
                .expect("live run");
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        runs.push(WidthRun {
            workers,
            wall_ms,
            fingerprint: live.fingerprint(),
            retrains: live.retrains.len(),
        });
        if let Some(reference) = &outcome {
            assert_eq!(
                live.fingerprint(),
                reference.fingerprint(),
                "{workers}-worker loop fingerprint diverged from 1-worker"
            );
            assert_eq!(live.retrains.len(), reference.retrains.len());
            assert_eq!(
                (live.prefix_hits, live.prefix_misses),
                (reference.prefix_hits, reference.prefix_misses),
                "{workers}-worker prefix-tier counters diverged from 1-worker"
            );
        } else {
            assert!(!live.retrains.is_empty(), "the eager trigger must re-train");
            assert_eq!(live.reaudit.misses, 0, "a re-audit sweep ran a forward pass");
            assert!(live.reaudit.hits > 0, "re-audit sweeps must replay warm caches");
            assert!(live.reaudit.queries > 0, "the re-audit sweeps attacked nothing");
            let bootstrap = live.bootstrap.outcomes.iter().map(|o| (o.user_id, &o.gate));
            let retrains = live.retrains.iter().map(|r| (r.user_id, &r.gate));
            for (user, gate) in bootstrap.chain(retrains) {
                assert!(gate.queries > 0, "an admission of user {user} attacked nothing");
            }
            outcome = Some(live);
        }
    }
    let outcome = outcome.expect("at least one width ran");

    // Quiescent gate: an impossible trigger must reduce the loop to the
    // unmodified one-shot pipeline plus serving pass.
    let loop_registry = store_backed_registry(&general);
    let quiet_config = live_config(WIDTHS[0], quiescent());
    let quiet = run_live(&dataset, cohort.clone(), &loop_registry, &general, &quiet_config)
        .expect("quiescent run");
    assert!(quiet.retrains.is_empty(), "an impossible trigger scheduled a re-train");
    let reference_registry = store_backed_registry(&general);
    let jobs = bootstrap_jobs(&dataset, cohort.clone(), &quiet_config);
    run_pipeline(
        quiet_config.pipeline.clone(),
        &general,
        &dataset.space,
        &jobs,
        &reference_registry,
    );
    let stream = live_stream(&dataset, cohort.clone(), &quiet_config);
    let serve = simulate_serving(&reference_registry, &stream.requests, &quiet_config.serve)
        .expect("envelopes decode");
    assert_eq!(
        quiet.serve.fingerprint(),
        serve.fingerprint(),
        "quiescent serving trace diverged from the one-shot pipeline"
    );
    let loop_store = loop_registry.store().expect("store-backed");
    let reference_store = reference_registry.store().expect("store-backed");
    assert_eq!(loop_store.max_version(), reference_store.max_version());
    for job in &jobs {
        let a = loop_store.fetch_latest(job.user_id as u64).unwrap().expect("published");
        let b = reference_store.fetch_latest(job.user_id as u64).unwrap().expect("published");
        assert_eq!(a.as_bytes(), b.as_bytes(), "user {} envelope differs", job.user_id);
    }

    LiveReportRun {
        seed: config.seed,
        users: cohort.len(),
        outcome,
        runs,
        quiescent_equivalent: true,
        quiescent_served: quiet.serve.served.len(),
    }
}

/// The stdout table: one row per pool width.
pub fn table(run: &LiveReportRun) -> Table {
    let mut t = Table::new(&["workers", "wall ms", "retrains", "rollbacks", "fingerprint"]);
    for r in &run.runs {
        t.row(&[
            r.workers.to_string(),
            format!("{:.1}", r.wall_ms),
            r.retrains.to_string(),
            run.outcome.rollbacks().to_string(),
            format!("{:#018x}", r.fingerprint),
        ]);
    }
    t
}

/// How [`crate::report::before`] matches a live-report record: the same
/// seed, cohort and fingerprint, rows by pool width.
pub const KEYS: RecordKeys =
    RecordKeys { identity: &["seed", "users", "fingerprint"], rows: "runs", row_id: "workers" };

/// The sweep as the documented `BENCH_live_loop.json` record. `host` is
/// [`crate::host::stamp`]; `before` is left `null` for
/// [`crate::report::write_tracked`] to fill in.
pub fn record(run: &LiveReportRun, host: Value) -> Value {
    let o = &run.outcome;
    let percentiles = |p50: u64, p95: u64| Value::obj([("p50", int(p50)), ("p95", int(p95))]);
    let runs = run.runs.iter().map(|r| {
        Value::obj([
            ("workers", int(r.workers)),
            ("wall_ms", fixed(r.wall_ms, 3)),
            ("retrains", int(r.retrains)),
            ("fingerprint", hex(r.fingerprint)),
        ])
    });
    Value::obj([
        ("experiment", Value::str("live-report")),
        ("seed", int(run.seed)),
        ("users", int(run.users)),
        ("host", host),
        ("before", Value::Null),
        ("widths", Value::Arr(WIDTHS.into_iter().map(int).collect())),
        ("fingerprint", hex(o.fingerprint())),
        ("fingerprints_match", Value::Bool(true)),
        ("served", int(o.serve.served.len())),
        ("retrains", int(o.retrains.len())),
        ("rollbacks", int(o.rollbacks())),
        ("drift_marks", int(o.drift_marks)),
        ("pending_at_end", int(o.pending_at_end)),
        ("retrain_latency_us", percentiles(o.retrain_latency_p50_us(), o.retrain_latency_p95_us())),
        ("staleness_us", percentiles(o.staleness_p50_us(), o.staleness_p95_us())),
        (
            "reaudit",
            Value::obj([
                ("audits", int(o.reaudit.audits)),
                ("queries", int(o.reaudit.queries)),
                ("hits", int(o.reaudit.hits)),
                ("misses", int(o.reaudit.misses)),
            ]),
        ),
        ("prefix", Value::obj([("hits", int(o.prefix_hits)), ("misses", int(o.prefix_misses))])),
        ("retrain_forward_passes", int(o.retrain_forward_passes())),
        ("forward_passes_saved", int(o.forward_passes_saved())),
        ("quiescent_equivalent", Value::Bool(run.quiescent_equivalent)),
        ("quiescent_served", int(run.quiescent_served)),
        ("runs", Value::Arr(runs.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelican_mobility::Scale;

    #[test]
    fn tiny_sweep_holds_every_contract_and_serializes() {
        let config = RunConfig { scale: Scale::Tiny, users: Some(3), ..RunConfig::default() };
        let run = run(&config);
        assert_eq!(run.users, 3);
        assert_eq!(run.runs.len(), WIDTHS.len());
        let fp = run.outcome.fingerprint();
        assert!(run.runs.iter().all(|r| r.fingerprint == fp));
        assert!(run.quiescent_equivalent);
        assert!(run.quiescent_served > 0);
        let host = Value::obj([("cores", Value::Int(2)), ("commit", Value::str("bbbbbbb"))]);
        let record = record(&run, host.clone());
        let text = crate::report::render(&record);
        assert_eq!(Value::parse(&text), Ok(record.clone()), "the writer's output parses back");
        let field = |key: &str| record.get(key).unwrap_or_else(|| panic!("no {key}: {text}"));
        assert_eq!((field("host"), field("before")), (&host, &Value::Null));
        assert_eq!((field("users"), field("fingerprint")), (&Value::Int(3), &hex(fp)));
        assert_eq!(field("reaudit").get("misses"), Some(&Value::Int(0)));
        assert!(run.outcome.prefix_hits > 0, "re-train admissions must reuse the frozen prefix");
        assert_eq!(field("prefix").get("hits"), Some(&int(run.outcome.prefix_hits)));
        assert!(field("runs").as_arr().iter().all(|r| r.get("fingerprint") == Some(&hex(fp))));
        assert!(table(&run).render().contains("workers"));
    }
}
