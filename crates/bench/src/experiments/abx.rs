//! Closed-loop A/B experimentation of defense rungs under live traffic:
//! the `ab-report` experiment drives [`run_abx`] end-to-end and asserts
//! its contracts before reporting a single number.
//!
//! Four contracts are **asserted** on every run:
//!
//! * the cohort split is a disjoint, exhaustive partition of the
//!   enrolled users, and it is seed-stable — every width, the A/A
//!   control, and a fresh [`CohortSplitter`] all reproduce the exact
//!   same cohorts;
//! * an A/A control (both arms serving the *same* rung) decides
//!   [`Verdict::Null`](pelican_abx::Verdict::Null) and moves nobody —
//!   the verdict engine cannot manufacture a winner out of
//!   cohort-composition noise;
//! * the experiment fingerprint is bit-identical across 1/2/8
//!   trainer-pool workers — host scheduling never leaks into the
//!   virtual timeline;
//! * zero losing-rung responses after a flip lands
//!   (`degraded_after_swap == 0`) — the durable hot-swap contract holds
//!   while the verdict rolls out under live queries.
//!
//! The treatment comparison is the ladder's extremes — an undefended
//! arm A against a hard-temperature arm B — attacked strictly through
//! the serving interface (top-k truncated answers over a shared WAN
//! uplink). Results go to stdout and `BENCH_ab_leakage.json`, which the
//! CI `ab-report` step checks with `crates/bench/tests/tracked_records.rs`.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use pelican::platform::ComputeTier;
use pelican::{DefenseKind, PersonalizationConfig, PAPER_DEFENSE};
use pelican_abx::{run_abx, AbxConfig, AbxOutcome, CohortSplitter, FRACTIONS, SPLIT_SEED};
use pelican_mobility::{CampusConfig, DatasetBuilder, MobilityDataset, Scale, SpatialLevel};
use pelican_nn::{SequenceModel, TrainConfig};
use pelican_serve::{RegistryConfig, SchedulerConfig, ShardedRegistry, SimServeConfig};
use pelican_store::{EnvelopeStore, MemBackend, StoreConfig};
use pelican_train::{AuditConfig, PipelineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::json::Value;
use crate::report::{fixed, hex, int, RecordKeys, Table};
use crate::RunConfig;

/// Trainer-pool widths every experiment is checked across.
pub const WIDTHS: [usize; 3] = [1, 2, 8];
/// Registry/store shards (must agree).
const SHARDS: usize = 2;
/// The treatment comparison: undefended vs. the ladder's hard rung.
const TREATMENT: [DefenseKind; 2] =
    [DefenseKind::None, DefenseKind::Temperature { temperature: 1e-5 }];
/// The A/A control rung, served by both arms: the paper's defense.
const CONTROL: DefenseKind = PAPER_DEFENSE;

/// One `(pool width)` timed A/B run.
#[derive(Debug, Clone, Copy)]
pub struct WidthRun {
    /// Trainer-pool workers.
    pub workers: usize,
    /// Host wall-clock of the whole `run_abx` call, in milliseconds.
    pub wall_ms: f64,
    /// Experiment fingerprint (must match the other widths).
    pub fingerprint: u64,
}

/// A finished ab-report sweep.
#[derive(Debug)]
pub struct AbReportRun {
    /// Master seed.
    pub seed: u64,
    /// Enrolled users (the union of all three cohorts).
    pub enrolled: usize,
    /// The width-1 A/B outcome all other widths were checked against.
    pub outcome: AbxOutcome,
    /// Per-width timings.
    pub runs: Vec<WidthRun>,
    /// The A/A control's advantage gap (inside the null margin).
    pub aa_delta: f64,
    /// Whether the A/A control decided null (asserted, so always true
    /// in a returned value).
    pub aa_null: bool,
}

/// The benchmark setting: a seeded campus, a general model, and the
/// enrolled cohort — the whole campus population by default (an A/B
/// verdict wants cohorts, not a handful of users); `--users` caps it.
fn setting(config: &RunConfig) -> (MobilityDataset, SequenceModel, Range<usize>) {
    let dataset = DatasetBuilder::new(CampusConfig::for_scale(config.scale), config.seed)
        .build(SpatialLevel::Building);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let general =
        SequenceModel::general_lstm(dataset.space.dim(), 12, dataset.n_locations(), 0.1, &mut rng);
    let n = dataset.users.len();
    let cohort = config.users.map_or(n, |u| u.min(n));
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
        RegistryConfig { shards: SHARDS, ..RegistryConfig::default() },
        Arc::new(store),
    )
}

/// The experiment configuration: a compact virtual timeline (1 ms per
/// mobility minute), a warm-start training budget, and the audit gate's
/// red-team knobs pinned — the experiment measures the decision loop,
/// not model quality. The null margin is calibrated against the A/A
/// control: composition noise at these cohort sizes stays under it
/// while the undefended-vs-hard-rung effect clears it.
fn abx_config(workers: usize, arms: [DefenseKind; 2], scale: Scale) -> AbxConfig {
    AbxConfig {
        pipeline: PipelineConfig {
            workers,
            personalization: PersonalizationConfig {
                train: TrainConfig { epochs: 1, ..TrainConfig::default() },
                hidden_dim: 12,
                ..PersonalizationConfig::default()
            },
            audit: AuditConfig { max_instances: 8, probe_count: 8, ..AuditConfig::default() },
            ..PipelineConfig::default()
        },
        serve: SimServeConfig {
            scheduler: SchedulerConfig { max_batch: 4, max_delay_us: 900 },
            tier: ComputeTier::Cloud,
            network: None,
        },
        arms,
        attacked_per_arm: match scale {
            Scale::Tiny => 4,
            Scale::Small | Scale::Paper => 16,
        },
        // Calibrated against the A/A control at both bundled scales:
        // composition noise lands at |Δ| ≈ 0.00 (tiny) / 0.08 (small)
        // while the undefended-vs-hard-rung effect clears +0.12 at
        // either scale.
        null_margin: 0.10,
    }
}

/// Runs the sweep: the treatment A/B at every width in [`WIDTHS`], the
/// seed-stability re-split, then the A/A control.
///
/// # Panics
///
/// Panics if any contract fails: a non-partition or seed-unstable
/// split, a width-divergent fingerprint, a stale post-flip response, or
/// an A/A run that promotes a winner. The contracts are preconditions
/// of the reported numbers, not soft metrics.
pub fn run(config: &RunConfig) -> AbReportRun {
    let (dataset, general, cohort) = setting(config);

    let mut runs: Vec<WidthRun> = Vec::new();
    let mut outcome: Option<AbxOutcome> = None;
    for workers in WIDTHS {
        let registry = store_backed_registry(&general);
        let started = Instant::now();
        let abx = run_abx(
            &dataset,
            cohort.clone(),
            &registry,
            &general,
            &abx_config(workers, TREATMENT, config.scale),
        )
        .expect("A/B run");
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        abx.split.assert_partitions(abx.publications.iter().map(|p| p.user_id));
        assert_eq!(abx.degraded_after_swap, 0, "a losing-rung response landed after its flip");
        runs.push(WidthRun { workers, wall_ms, fingerprint: abx.fingerprint() });
        if let Some(reference) = &outcome {
            assert_eq!(
                abx.fingerprint(),
                reference.fingerprint(),
                "{workers}-worker experiment fingerprint diverged from 1-worker"
            );
            assert_eq!(abx.split, reference.split, "the cohort split drifted between runs");
        } else {
            assert!(!abx.attacks.is_empty(), "the front-door red team must attack");
            for attack in &abx.attacks {
                assert!(
                    attack.logical_queries > 0,
                    "the attack on user {} scored nothing",
                    attack.user_id
                );
            }
            outcome = Some(abx);
        }
    }
    let outcome = outcome.expect("at least one width ran");

    // Seed stability: a fresh splitter over the same enrolled set
    // reproduces the partition exactly.
    let resplit = CohortSplitter::new(SPLIT_SEED, FRACTIONS.0, FRACTIONS.1)
        .split(outcome.publications.iter().map(|p| p.user_id));
    assert_eq!(resplit, outcome.split, "the split is not a pure function of (seed, users)");

    // A/A control: identical rungs must read null and move nobody, and
    // the arms under test must not perturb the split itself.
    let registry = store_backed_registry(&general);
    let aa = run_abx(
        &dataset,
        cohort.clone(),
        &registry,
        &general,
        &abx_config(WIDTHS[0], [CONTROL; 2], config.scale),
    )
    .expect("A/A run");
    assert!(aa.verdict.is_null(), "identical rungs must be indistinguishable: {}", aa.verdict);
    assert!(aa.swaps.is_empty(), "a null verdict moves nobody");
    assert_eq!(aa.exposed_responses, 0);
    assert_eq!(aa.split, outcome.split, "the rungs under test leaked into the split");

    AbReportRun {
        seed: config.seed,
        enrolled: outcome.publications.len(),
        outcome,
        runs,
        aa_delta: aa.verdict.delta(),
        aa_null: true,
    }
}

/// The stdout table: one row per pool width.
pub fn table(run: &AbReportRun) -> Table {
    let o = &run.outcome;
    let mut t =
        Table::new(&["workers", "wall ms", "verdict", "flips", "promotions", "fingerprint"]);
    for r in &run.runs {
        t.row(&[
            r.workers.to_string(),
            format!("{:.1}", r.wall_ms),
            o.verdict.to_string(),
            o.flip_backs().to_string(),
            o.promotions().to_string(),
            format!("{:#018x}", r.fingerprint),
        ]);
    }
    t
}

/// How [`crate::report::before`] matches an ab-report record: the same
/// seed, enrolment and fingerprint, rows by pool width.
pub const KEYS: RecordKeys =
    RecordKeys { identity: &["seed", "enrolled", "fingerprint"], rows: "runs", row_id: "workers" };

/// The sweep as the documented `BENCH_ab_leakage.json` record. `host` is
/// [`crate::host::stamp`]; `before` is left `null` for
/// [`crate::report::write_tracked`] to fill in.
pub fn record(run: &AbReportRun, host: Value) -> Value {
    let o = &run.outcome;
    let arms = [("A", &o.arms[0]), ("B", &o.arms[1])].map(|(name, s)| {
        Value::obj([
            ("name", Value::str(name)),
            ("cohort", int(s.cohort)),
            ("attacked", int(s.attacked)),
            ("wire_queries", int(s.wire_queries)),
            ("leakage", fixed(s.leakage, 6)),
            ("baseline", fixed(s.baseline, 6)),
            ("advantage", fixed(s.advantage, 6)),
            ("served", int(s.served)),
            ("latency_p95_us", int(s.latency_p95_us)),
            ("queue_p95_us", int(s.queue_p95_us)),
            ("service_p95_us", int(s.service_p95_us)),
        ])
    });
    let runs = run.runs.iter().map(|r| {
        Value::obj([
            ("workers", int(r.workers)),
            ("wall_ms", fixed(r.wall_ms, 3)),
            ("fingerprint", hex(r.fingerprint)),
        ])
    });
    let winner = o.verdict.winner().map_or(Value::Null, |w| Value::str(w.name()));
    let staleness = o.flip_window.as_ref().map_or(Value::Null, |w| int(w.staleness_us()));
    Value::obj([
        ("experiment", Value::str("ab-report")),
        ("seed", int(run.seed)),
        ("enrolled", int(run.enrolled)),
        ("host", host),
        ("before", Value::Null),
        ("widths", Value::Arr(WIDTHS.into_iter().map(int).collect())),
        ("fingerprint", hex(o.fingerprint())),
        ("fingerprints_match", Value::Bool(true)),
        (
            "cohorts",
            Value::obj([
                ("a", int(o.split.a.len())),
                ("b", int(o.split.b.len())),
                ("holdout", int(o.split.holdout.len())),
                ("disjoint", Value::Bool(true)),
                ("seed_stable", Value::Bool(true)),
            ]),
        ),
        ("arms", Value::Arr(arms.into())),
        (
            "verdict",
            Value::obj([
                ("winner", winner),
                ("delta", fixed(o.verdict.delta(), 6)),
                ("decided_us", int(o.verdict_us)),
                ("checkpoints", int(o.checkpoints)),
            ]),
        ),
        (
            "rollout",
            Value::obj([
                ("flip_backs", int(o.flip_backs())),
                ("promotions", int(o.promotions())),
                ("staleness_us", staleness),
                ("exposed_responses", int(o.exposed_responses)),
                ("degraded_after_swap", int(o.degraded_after_swap)),
            ]),
        ),
        ("aa", Value::obj([("null", Value::Bool(run.aa_null)), ("delta", fixed(run.aa_delta, 6))])),
        ("runs", Value::Arr(runs.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_holds_every_contract_and_serializes() {
        let config = RunConfig { scale: Scale::Tiny, ..RunConfig::default() };
        let run = run(&config);
        assert!(run.enrolled > 0);
        assert_eq!(run.runs.len(), WIDTHS.len());
        let fp = run.outcome.fingerprint();
        assert!(run.runs.iter().all(|r| r.fingerprint == fp));
        assert!(run.aa_null && run.aa_delta.abs() <= 0.10);
        assert_eq!(run.outcome.degraded_after_swap, 0);
        // At the bundled seed the undefended arm loses to the hard rung
        // and the rollout path actually runs: the losing cohort flips
        // back and the holdout adopts the winner.
        assert_eq!(run.outcome.verdict.winner(), Some(pelican_abx::Arm::B));
        assert_eq!(run.outcome.flip_backs(), run.outcome.split.a.len());
        assert_eq!(run.outcome.promotions(), run.outcome.split.holdout.len());
        let host = Value::obj([("cores", Value::Int(2)), ("commit", Value::str("bbbbbbb"))]);
        let record = record(&run, host.clone());
        let text = crate::report::render(&record);
        assert_eq!(Value::parse(&text), Ok(record.clone()), "the writer's output parses back");
        let field = |key: &str| record.get(key).unwrap_or_else(|| panic!("no {key}: {text}"));
        assert_eq!((field("host"), field("before")), (&host, &Value::Null));
        assert_eq!((field("enrolled"), field("fingerprint")), (&int(run.enrolled), &hex(fp)));
        assert_eq!(field("verdict").get("winner"), Some(&Value::str("B")));
        assert_eq!(field("rollout").get("degraded_after_swap"), Some(&Value::Int(0)));
        assert_eq!(field("aa").get("null"), Some(&Value::Bool(true)));
        assert!(field("runs").as_arr().iter().all(|r| r.get("fingerprint") == Some(&hex(fp))));
        assert!(table(&run).render().contains("verdict"));
    }
}
