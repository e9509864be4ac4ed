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
//! README under "Scaling & perf baseline"; the CI `sim-scale` step
//! parses it and fails when a fingerprint diverges from the tracked
//! record's `before`.

use std::time::Instant;

use pelican_sim::{
    completion_percentile, JobSpec, LinkMix, LinkProfile, LinkSpec, Passive, Simulator, Stage,
    TraceLevel, TransferPolicy,
};

use crate::report::{field, Table};
use crate::RunConfig;

/// Devices per shared fair-share uplink group.
const GROUP: usize = 64;
/// Default population ladder (overridden by `--devices`).
pub const POPULATIONS: [usize; 3] = [10_000, 100_000, 1_000_000];

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
            peak_rss_kb: peak_rss_kb(),
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

/// The `before` block of a new record: what `previous` (the file about
/// to be replaced) measured for the populations of `run`, if it was
/// taken with the same seed on another host stamp — its host, and per
/// population the fingerprint and the wall time. A re-run at the same
/// stamp keeps the `before` it already had. `null` with nothing to
/// compare with. One line, like every top-level field.
///
/// The wall time is the population block's first `wall_ms`, which in a
/// record from before the sharded simulator was deleted (three `runs`
/// rows per population) is the 1-shard row's.
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
            Some(format!(
                "{{\"devices\": {}, \"fingerprint\": {}, \"wall_ms\": {}}}",
                pop.devices,
                field(block, "fingerprint")?,
                field(block, "wall_ms")?.split(',').next()?
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
/// `host` is [`crate::report::host_stamp`]: a wall time means nothing
/// without the box and commit it was taken on. `previous` is the
/// tracked file this record replaces, for the `before` block.
pub fn to_json(run: &SimScaleRun, host: &str, previous: Option<&str>) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"sim-scale\",\n");
    out.push_str(&format!("  \"seed\": {},\n", run.seed));
    out.push_str(&format!("  \"host\": {host},\n"));
    out.push_str(&format!("  \"before\": {},\n", before_block(previous, host, run)));
    out.push_str("  \"populations\": [\n");
    for (i, pop) in run.populations.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"devices\": {},\n", pop.devices));
        out.push_str(&format!("      \"events\": {},\n", pop.events));
        out.push_str(&format!("      \"fingerprint\": \"{:#018x}\",\n", pop.fingerprint));
        out.push_str(&format!("      \"p95_rtt_us\": {},\n", pop.p95_rtt_us));
        out.push_str(&format!("      \"timed_out\": {},\n", pop.timed_out));
        out.push_str(&format!("      \"peak_rss_kb\": {},\n", pop.peak_rss_kb));
        out.push_str(&format!("      \"wall_ms\": {:.3},\n", pop.wall_ms));
        out.push_str(&format!("      \"events_per_sec\": {:.1}\n", pop.events_per_sec));
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
        let host = r#"{"cores": 2, "commit": "bbbbbbb"}"#;
        let json = to_json(&run, host, None);
        assert!(json.contains(r#""host": {"cores": 2, "commit": "bbbbbbb"},"#));
        assert!(json.contains("\"before\": null,"), "nothing tracked to compare with");
        assert!(json.contains("\"devices\": 10000"));
        assert!(json.contains("\"fingerprint\": \"0x8cca3f28caffb76a\""));
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
        assert!(table.contains("10000"));

        // The same sweep recorded at another commit becomes the before
        // block: its host, and per population this run also covers its
        // fingerprint and its wall time…
        let older = to_json(&run, r#"{"cores": 4, "commit": "aaaaaaa"}"#, None);
        let newer = to_json(&run, host, Some(&older));
        let before = format!(
            "\"before\": {{\"host\": {{\"cores\": 4, \"commit\": \"aaaaaaa\"}}, \"populations\": \
             [{{\"devices\": 10000, \"fingerprint\": \"0x8cca3f28caffb76a\", \"wall_ms\": {:.3}}}]}},",
            pop.wall_ms
        );
        assert!(newer.contains(&before), "{newer}");
        // …a re-run at the same stamp keeps it (and is not confused by the
        // populations the before line itself names)…
        assert!(to_json(&run, host, Some(&newer)).contains(&before));
        // …a record in the three-rows-per-population layout of before the
        // sharded simulator was deleted gives its 1-shard wall time…
        let old_layout = r#"{
  "experiment": "sim-scale",
  "seed": 42,
  "host": {"cores": 2, "commit": "1047931+dirty"},
  "before": {"host": {"cores": 2, "commit": "1047931"}, "populations": [{"devices": 10000, "fingerprint": "0x8cca3f28caffb76a", "wall_ms": [28.611, 41.044, 32.747]}]},
  "shards": [1, 2, 8],
  "populations": [
    {
      "devices": 10000,
      "events": 100000,
      "fingerprint": "0x8cca3f28caffb76a",
      "fingerprints_match": true,
      "p95_rtt_us": 2636350,
      "timed_out": 0,
      "peak_rss_kb": 25700,
      "runs": [
        {"shards": 1, "wall_ms": 17.916, "events_per_sec": 5581696.5, "fingerprint": "0x8cca3f28caffb76a"},
        {"shards": 2, "wall_ms": 21.245, "events_per_sec": 4706899.3, "fingerprint": "0x8cca3f28caffb76a"},
        {"shards": 8, "wall_ms": 16.141, "events_per_sec": 6195427.2, "fingerprint": "0x8cca3f28caffb76a"}
      ]
    }
  ]
}
"#;
        assert!(to_json(&run, host, Some(old_layout)).contains(
            r#""before": {"host": {"cores": 2, "commit": "1047931+dirty"}, "populations": [{"devices": 10000, "fingerprint": "0x8cca3f28caffb76a", "wall_ms": 17.916}]},"#
        ));
        // …and a record of other populations, or another seed, is no
        // comparison at all.
        let other = RunConfig { devices: Some(300), ..RunConfig::default() };
        let other = super::run(&other);
        assert!(to_json(&other, host, Some(&older)).contains("\"before\": null,"));
        let reseeded = SimScaleRun { seed: run.seed + 1, ..run.clone() };
        assert!(to_json(&reseeded, host, Some(&older)).contains("\"before\": null,"));
    }
}
