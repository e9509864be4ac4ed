//! Sim-core scaling: events/sec, memory and tail latency of the
//! timer-wheel engine at 10⁴–10⁶ devices.
//!
//! The fleet under test mirrors the paper's topology at population
//! scale: every device owns a FIFO last-hop link and shares a
//! fair-share WAN uplink with its 64-device group, and every device runs
//! one download → train → upload enrollment job. Each population is
//! simulated with [`TraceLevel::Fingerprint`] (the hash streams, events
//! are not retained).
//!
//! Every population gets one discarded warm-up run before its timed
//! one: in a fresh process the first run pays the first touch of the
//! population's memory (~1 GB at 10⁶ devices), and without the warm-up
//! that bill lands on the row the record tracks.
//!
//! Results go to stdout as a table and to `BENCH_sim_scale.json` in the
//! working directory; the record this one replaces, if it was taken at
//! another commit or on another host, stays in the new one as the
//! `before` block. The JSON schema is documented in the repository
//! README under "Scaling & perf baseline"; the CI `sim-scale` step runs
//! `crates/bench/tests/tracked_records.rs`, which fails when a
//! fingerprint diverges from the tracked record's `before`.

use std::time::Instant;

use pelican_sim::{
    completion_percentile, JobSpec, LinkMix, LinkProfile, LinkSpec, Passive, Simulator, Stage,
    TraceLevel, TransferPolicy,
};

use crate::host;
use crate::json::Value;
use crate::report::{fixed, hex, int, RecordKeys, Table};
use crate::RunConfig;

/// Devices per shared fair-share uplink group.
const GROUP: usize = 64;
/// Default population ladder (overridden by `--devices`).
const POPULATIONS: [usize; 3] = [10_000, 100_000, 1_000_000];

/// One population's measurements.
#[derive(Debug, Clone)]
pub struct PopulationResult {
    /// Device count.
    pub devices: usize,
    /// Events processed.
    pub events: u64,
    /// Trace fingerprint.
    pub fingerprint: u64,
    /// p95 job round trip (release → end) in µs of virtual time.
    pub p95_rtt_us: u64,
    /// Jobs that timed out (0 for this workload).
    pub timed_out: usize,
    /// Process peak RSS in kB (`VmHWM`) after this population ran.
    /// Populations run ascending, so the delta against the previous
    /// entry bounds the population's own footprint.
    pub peak_rss_kb: u64,
    /// Wall-clock time of the `Simulator::run` call, in milliseconds.
    pub wall_ms: f64,
    /// Simulator events processed per wall-clock second.
    pub events_per_sec: f64,
}

/// A finished sim-scale sweep.
#[derive(Debug, Clone)]
pub struct SimScaleRun {
    /// Master seed (link-mix assignment).
    pub seed: u64,
    /// Populations measured, ascending.
    pub populations: Vec<PopulationResult>,
}

/// The scaling fleet: per-device FIFO last-hop links, one fair-share WAN
/// uplink per 64-device group, one three-stage enrollment job per
/// device with releases spread over ~250 ms of virtual time — ten trace
/// events per device. (The repo benchmark's `sim_fleet` workload runs
/// this shape at 100 000 devices.)
pub fn fleet(devices: usize, seed: u64) -> (Vec<LinkSpec>, Vec<JobSpec>) {
    let groups = devices.div_ceil(GROUP);
    let mix = LinkMix::campus();
    let mut links: Vec<LinkSpec> =
        (0..devices).map(|d| LinkSpec::fifo(mix.assign(seed, d as u64).profile)).collect();
    links.extend((0..groups).map(|_| LinkSpec::fair(LinkProfile::wan())));
    let specs = (0..devices)
        .map(|d| {
            let uplink = devices + d / GROUP;
            JobSpec {
                id: d as u64,
                release_us: (d as u64 % 997) * 250,
                stages: vec![
                    Stage::Transfer {
                        label: "download",
                        link: uplink,
                        bytes: 120_000,
                        policy: TransferPolicy::default(),
                    },
                    Stage::Compute { label: "train", duration_us: 4_000 + (d as u64 % 37) * 300 },
                    Stage::Transfer {
                        label: "upload",
                        link: d,
                        bytes: 40_000 + (d as u64 % 11) * 2_000,
                        policy: TransferPolicy::default(),
                    },
                ],
            }
        })
        .collect();
    (links, specs)
}

/// Runs the sweep: every population in `--devices` (or the default
/// 10k/100k/1M ladder), one warm-up and one timed run each.
pub fn run(config: &RunConfig) -> SimScaleRun {
    let populations: Vec<usize> = match config.devices {
        Some(n) => vec![n],
        None => POPULATIONS.to_vec(),
    };
    let mut results = Vec::new();
    for &devices in &populations {
        let (links, specs) = fleet(devices, config.seed);
        let sim = Simulator::builder().links(links).trace(TraceLevel::Fingerprint).build();
        // Discarded: first touch of this population's memory.
        drop(sim.run(&specs, &mut Passive));
        let started = Instant::now();
        let out = sim.run(&specs, &mut Passive);
        let wall = started.elapsed();
        results.push(PopulationResult {
            devices,
            events: out.events(),
            fingerprint: out.fingerprint(),
            p95_rtt_us: completion_percentile(&out, 0.95),
            timed_out: out.timed_out(),
            peak_rss_kb: (host::peak_rss_mb() * 1024.0) as u64,
            wall_ms: wall.as_secs_f64() * 1e3,
            events_per_sec: out.events() as f64 / wall.as_secs_f64().max(1e-9),
        });
    }
    SimScaleRun { seed: config.seed, populations: results }
}

/// The stdout table: one row per population.
pub fn table(run: &SimScaleRun) -> Table {
    let mut t = Table::new(&[
        "devices",
        "events",
        "wall ms",
        "events/s",
        "p95 rtt ms",
        "peak rss MB",
        "fingerprint",
    ]);
    for pop in &run.populations {
        t.row(&[
            pop.devices.to_string(),
            pop.events.to_string(),
            format!("{:.1}", pop.wall_ms),
            format!("{:.0}", pop.events_per_sec),
            format!("{:.1}", pop.p95_rtt_us as f64 / 1e3),
            format!("{:.0}", pop.peak_rss_kb as f64 / 1024.0),
            format!("{:#018x}", pop.fingerprint),
        ]);
    }
    t
}

/// How `report::before` matches a sim-scale record: the same
/// seed, rows by population.
pub const KEYS: RecordKeys =
    RecordKeys { identity: &["seed"], rows: "populations", row_id: "devices" };

/// The sweep as the documented `BENCH_sim_scale.json` record. `host` is
/// [`host::stamp`]: a wall time means nothing without the box and
/// commit it was taken on. `before` is left `null` for
/// [`crate::report::write_tracked`] to fill in.
pub fn record(run: &SimScaleRun, host: Value) -> Value {
    let populations = run.populations.iter().map(|pop| {
        Value::obj([
            ("devices", int(pop.devices)),
            ("events", int(pop.events)),
            ("fingerprint", hex(pop.fingerprint)),
            ("p95_rtt_us", int(pop.p95_rtt_us)),
            ("timed_out", int(pop.timed_out)),
            ("peak_rss_kb", int(pop.peak_rss_kb)),
            ("wall_ms", fixed(pop.wall_ms, 3)),
            ("events_per_sec", fixed(pop.events_per_sec, 1)),
        ])
    });
    Value::obj([
        ("experiment", Value::str("sim-scale")),
        ("seed", int(run.seed)),
        ("host", host),
        ("before", Value::Null),
        ("populations", Value::Arr(populations.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_deterministic_and_serializes() {
        // The tracked record's first population: its literals (parent
        // commit's `BENCH_sim_scale.json`) pin the fleet across commits.
        let config = RunConfig { devices: Some(10_000), seed: 42, ..RunConfig::default() };
        let run = run(&config);
        assert_eq!(run.populations.len(), 1);
        let pop = &run.populations[0];
        assert_eq!(pop.devices, 10_000);
        assert_eq!(pop.fingerprint, 0x8cca_3f28_caff_b76a);
        assert_eq!(pop.events, 100_000);
        assert_eq!(pop.p95_rtt_us, 2_636_350);
        assert_eq!(pop.timed_out, 0);
        let host = Value::obj([("cores", Value::Int(2)), ("commit", Value::str("bbbbbbb"))]);
        let record = record(&run, host.clone());
        let text = crate::report::render(&record);
        assert_eq!(Value::parse(&text), Ok(record.clone()), "the writer's output parses back");
        assert!(text.contains("\n    {\"devices\": 10000, "), "one line per population: {text}");
        assert_eq!(record.get("host"), Some(&host));
        assert_eq!(record.get("before"), Some(&Value::Null), "filled in only when written");
        let row = record.get("populations").map(|rows| &rows.as_arr()[0]);
        assert_eq!(row.and_then(|row| row.get("fingerprint")), Some(&hex(pop.fingerprint)));
        assert!(table(&run).render().contains("10000"));
    }
}
