//! Sim-core scaling: events/sec, memory and tail latency of the
//! timer-wheel engine at 10⁴–10⁶ devices, with shard invariance checked
//! at every population.
//!
//! The fleet under test mirrors the paper's topology at population
//! scale: every device owns a FIFO last-hop link and shares a
//! fair-share WAN uplink with its 64-device group, and every device runs
//! one download → train → upload enrollment job. Each population is
//! simulated at 1, 2 and 8 shards with [`TraceLevel::Fingerprint`] (the
//! hash streams, events are not retained); the run **asserts** that all
//! three fingerprints are bit-identical before any number is reported —
//! a perf figure from a nondeterministic engine would be worthless.
//!
//! Every population gets one discarded warm-up run before its timed
//! rows: in a fresh process the first run pays the first touch of the
//! population's memory (~1 GB at 10⁶ devices), and without the warm-up
//! that bill lands on whichever shard count is timed first — the
//! 1-shard row every other row is compared with.
//!
//! Results go to stdout as a table and to `BENCH_sim_scale.json` in the
//! working directory; the record this one replaces, if it was taken at
//! another commit or on another host, stays in the new one as the
//! `before` block. The JSON schema is documented in the repository
//! README under "Scaling & perf baseline"; the CI `sim-scale` step
//! parses it and fails on fingerprint divergence — across shard counts,
//! and against the tracked record's `before`.

use std::time::Instant;

use pelican_sim::{
    completion_percentile, JobSpec, LinkMix, LinkProfile, LinkSpec, Passive, Simulator, Stage,
    TraceLevel, TransferPolicy,
};

use crate::report::{field, Table};
use crate::RunConfig;

/// Devices per shared fair-share uplink group.
const GROUP: usize = 64;
/// Shard counts every population is checked across.
pub const SHARDS: [usize; 3] = [1, 2, 8];
/// Default population ladder (overridden by `--devices`).
pub const POPULATIONS: [usize; 3] = [10_000, 100_000, 1_000_000];

/// One `(population, shards)` timed run.
#[derive(Debug, Clone, Copy)]
pub struct ShardRun {
    /// Shard count of this run.
    pub shards: usize,
    /// Wall-clock time of the `Simulator::run` call, in milliseconds.
    pub wall_ms: f64,
    /// Simulator events processed per wall-clock second.
    pub events_per_sec: f64,
    /// Trace fingerprint (must match the population's other runs).
    pub fingerprint: u64,
}

/// One population's measurements.
#[derive(Debug, Clone)]
pub struct PopulationResult {
    /// Device count.
    pub devices: usize,
    /// Events processed (identical across shard counts).
    pub events: u64,
    /// The shared fingerprint all shard counts agreed on.
    pub fingerprint: u64,
    /// p95 job round trip (release → end) in µs of virtual time.
    pub p95_rtt_us: u64,
    /// Jobs that timed out (0 for this workload).
    pub timed_out: usize,
    /// Process peak RSS in kB (`VmHWM`) after this population ran.
    /// Populations run ascending, so the delta against the previous
    /// entry bounds the population's own footprint.
    pub peak_rss_kb: u64,
    /// Per-shard-count timings.
    pub runs: Vec<ShardRun>,
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
/// events per device. (The `sim_engine` criterion rows time this shape
/// too.)
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

/// Process peak RSS (`VmHWM`) in kB, or 0 where `/proc` is unavailable.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Runs the sweep: every population in `--devices` (or the default
/// 10k/100k/1M ladder) at 1, 2 and 8 shards.
///
/// # Panics
///
/// Panics if any shard count's fingerprint or event count diverges from
/// the population's 1-shard run — determinism is a precondition of the
/// perf numbers, not a soft metric.
pub fn run(config: &RunConfig) -> SimScaleRun {
    let populations: Vec<usize> = match config.devices {
        Some(n) => vec![n],
        None => POPULATIONS.to_vec(),
    };
    let mut results = Vec::new();
    for &devices in &populations {
        let (links, specs) = fleet(devices, config.seed);
        let simulator = |shards| {
            Simulator::builder()
                .links(links.clone())
                .shards(shards)
                .trace(TraceLevel::Fingerprint)
                .build()
        };
        // Discarded: first touch of this population's memory.
        drop(simulator(1).run(&specs, &mut Passive));
        let mut runs: Vec<ShardRun> = Vec::new();
        let mut baseline = None;
        for shards in SHARDS {
            let sim = simulator(shards);
            let started = Instant::now();
            let out = sim.run(&specs, &mut Passive);
            let wall = started.elapsed();
            let wall_ms = wall.as_secs_f64() * 1e3;
            runs.push(ShardRun {
                shards,
                wall_ms,
                events_per_sec: out.events() as f64 / wall.as_secs_f64().max(1e-9),
                fingerprint: out.fingerprint(),
            });
            if let Some(prior) = &baseline {
                let prior: &pelican_sim::SimOutcome = prior;
                assert_eq!(
                    out.fingerprint(),
                    prior.fingerprint(),
                    "{devices}-device fleet: {shards}-shard fingerprint diverged from 1-shard"
                );
                assert_eq!(
                    out.events(),
                    prior.events(),
                    "{devices}-device fleet: {shards}-shard event count diverged"
                );
            } else {
                baseline = Some(out);
            }
        }
        let baseline = baseline.expect("at least one shard count ran");
        results.push(PopulationResult {
            devices,
            events: baseline.events(),
            fingerprint: baseline.fingerprint(),
            p95_rtt_us: completion_percentile(&baseline, 0.95),
            timed_out: baseline.timed_out(),
            peak_rss_kb: peak_rss_kb(),
            runs,
        });
    }
    SimScaleRun { seed: config.seed, populations: results }
}

/// The stdout table: one row per `(population, shards)` run.
pub fn table(run: &SimScaleRun) -> Table {
    let mut t = Table::new(&[
        "devices",
        "shards",
        "events",
        "wall ms",
        "events/s",
        "p95 rtt ms",
        "peak rss MB",
        "fingerprint",
    ]);
    for pop in &run.populations {
        for r in &pop.runs {
            t.row(&[
                pop.devices.to_string(),
                r.shards.to_string(),
                pop.events.to_string(),
                format!("{:.1}", r.wall_ms),
                format!("{:.0}", r.events_per_sec),
                format!("{:.1}", pop.p95_rtt_us as f64 / 1e3),
                format!("{:.0}", pop.peak_rss_kb as f64 / 1024.0),
                format!("{:#018x}", pop.fingerprint),
            ]);
        }
    }
    t
}

/// The `before` block of a new record: what `previous` (the file about
/// to be replaced) measured for the populations of `run`, if it was
/// taken with the same seed on another host stamp — its host, and per
/// population the fingerprint and the wall times in shard order. A
/// re-run at the same stamp keeps the `before` it already had. `null`
/// with nothing to compare with. One line, like every top-level field.
fn before_block(previous: Option<&str>, host: &str, run: &SimScaleRun) -> String {
    let null = || "null".to_owned();
    let Some(previous) = previous.filter(|p| field(p, "seed") == Some(&run.seed.to_string()))
    else {
        return null();
    };
    let previous_host = field(previous, "host").unwrap_or("null");
    if previous_host == host {
        return field(previous, "before").map_or_else(null, str::to_owned);
    }
    // The previous record's own `before` line names populations too.
    let body: Vec<&str> =
        previous.lines().filter(|l| !l.trim_start().starts_with("\"before\"")).collect();
    let body = body.join("\n");
    let populations: Vec<String> = run
        .populations
        .iter()
        .filter_map(|pop| {
            let block = body.split("\"devices\": ").skip(1).find(|block| {
                block.split(',').next().map(str::trim) == Some(&pop.devices.to_string())
            })?;
            let walls: Vec<&str> = block
                .lines()
                .filter(|l| l.contains("\"shards\": "))
                .filter_map(|l| field(l, "wall_ms")?.split(',').next())
                .collect();
            Some(format!(
                "{{\"devices\": {}, \"fingerprint\": {}, \"wall_ms\": [{}]}}",
                pop.devices,
                field(block, "fingerprint")?,
                walls.join(", ")
            ))
        })
        .collect();
    if populations.is_empty() {
        return null();
    }
    format!("{{\"host\": {previous_host}, \"populations\": [{}]}}", populations.join(", "))
}

/// Serializes the sweep to the documented `BENCH_sim_scale.json` schema.
/// Fingerprints are hex strings (u64 does not survive JSON doubles).
/// `host` is [`crate::report::host_stamp`]: the shard speedups mean
/// nothing without the core count they were taken on. `previous` is the
/// tracked file this record replaces, for the `before` block.
pub fn to_json(run: &SimScaleRun, host: &str, previous: Option<&str>) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"sim-scale\",\n");
    out.push_str(&format!("  \"seed\": {},\n", run.seed));
    out.push_str(&format!("  \"host\": {host},\n"));
    out.push_str(&format!("  \"before\": {},\n", before_block(previous, host, run)));
    out.push_str(&format!("  \"shards\": [{}],\n", SHARDS.map(|s| s.to_string()).join(", ")));
    out.push_str("  \"populations\": [\n");
    for (i, pop) in run.populations.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"devices\": {},\n", pop.devices));
        out.push_str(&format!("      \"events\": {},\n", pop.events));
        out.push_str(&format!("      \"fingerprint\": \"{:#018x}\",\n", pop.fingerprint));
        out.push_str("      \"fingerprints_match\": true,\n");
        out.push_str(&format!("      \"p95_rtt_us\": {},\n", pop.p95_rtt_us));
        out.push_str(&format!("      \"timed_out\": {},\n", pop.timed_out));
        out.push_str(&format!("      \"peak_rss_kb\": {},\n", pop.peak_rss_kb));
        out.push_str("      \"runs\": [\n");
        for (j, r) in pop.runs.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"shards\": {}, \"wall_ms\": {:.3}, \"events_per_sec\": {:.1}, \
                 \"fingerprint\": \"{:#018x}\"}}{}\n",
                r.shards,
                r.wall_ms,
                r.events_per_sec,
                r.fingerprint,
                if j + 1 < pop.runs.len() { "," } else { "" },
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!("    }}{}\n", if i + 1 < run.populations.len() { "," } else { "" }));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_deterministic_and_serializes() {
        let config = RunConfig { devices: Some(600), ..RunConfig::default() };
        let run = run(&config);
        assert_eq!(run.populations.len(), 1);
        let pop = &run.populations[0];
        assert_eq!(pop.devices, 600);
        assert_eq!(pop.runs.len(), SHARDS.len());
        assert!(pop.runs.iter().all(|r| r.fingerprint == pop.fingerprint));
        assert!(pop.events > 0);
        assert_eq!(pop.timed_out, 0);
        assert!(pop.p95_rtt_us > 0);
        let host = r#"{"cores": 2, "commit": "bbbbbbb"}"#;
        let json = to_json(&run, host, None);
        assert!(json.contains(r#""host": {"cores": 2, "commit": "bbbbbbb"},"#));
        assert!(json.contains("\"before\": null,"), "nothing tracked to compare with");
        assert!(json.contains("\"devices\": 600"));
        assert!(json.contains("\"fingerprints_match\": true"));
        assert!(json.contains(&format!("{:#018x}", pop.fingerprint)));
        // Balanced braces/brackets — a cheap well-formedness check; CI
        // parses the file for real.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
        let table = table(&run).render();
        assert!(table.contains("600"));

        // The same sweep recorded at another commit becomes the before
        // block: its host, and per population this run also covers its
        // fingerprint and its wall times in shard order…
        let older = to_json(&run, r#"{"cores": 4, "commit": "aaaaaaa"}"#, None);
        let newer = to_json(&run, host, Some(&older));
        let walls: Vec<String> = pop.runs.iter().map(|r| format!("{:.3}", r.wall_ms)).collect();
        let before = format!(
            "\"before\": {{\"host\": {{\"cores\": 4, \"commit\": \"aaaaaaa\"}}, \"populations\": \
             [{{\"devices\": 600, \"fingerprint\": \"{:#018x}\", \"wall_ms\": [{}]}}]}},",
            pop.fingerprint,
            walls.join(", ")
        );
        assert!(newer.contains(&before), "{newer}");
        // …a re-run at the same stamp keeps it (and is not confused by the
        // populations the before line itself names)…
        assert!(to_json(&run, host, Some(&newer)).contains(&before));
        // …and a record of other populations, or another seed, is no
        // comparison at all.
        let other = RunConfig { devices: Some(300), ..RunConfig::default() };
        let other = super::run(&other);
        assert!(to_json(&other, host, Some(&older)).contains("\"before\": null,"));
        let reseeded = SimScaleRun { seed: run.seed + 1, ..run.clone() };
        assert!(to_json(&reseeded, host, Some(&older)).contains("\"before\": null,"));
    }
}
