//! Criterion bench behind the `pelican-sim` engine: host cost of
//! simulating a contended fleet.
//!
//! The simulator sits inside every network-aware experiment loop, so its
//! own throughput matters: a link-mix sweep re-simulates the same cohort
//! many times. Scenarios cover the two sharing disciplines on one shared
//! uplink plus the uncontended per-device layout, at fleet sizes big
//! enough for the event queue (not setup) to dominate. Determinism is
//! asserted before timing starts: identical inputs must produce
//! bit-identical traces.
//!
//! The `sim_engine` rows are the engine's own layer row, as nn, audit
//! and store have theirs: one passive fingerprint-level run of the
//! tracked `sim-scale` fleet shape, ten trace events per device, so a
//! row divided by its event count (50 000 and 1 000 000) is the cost of
//! an event. At 5 000 devices everything the loop touches stays in a
//! 2 MB L2; at 100 000 it does not, and the difference between the two
//! per-event costs is what the memory system charges.

use criterion::{criterion_group, criterion_main, Criterion};

use pelican_sim::{
    Discipline, JobSpec, LinkMix, LinkSpec, Passive, Simulator, Stage, StragglerConfig, TraceLevel,
    TransferPolicy,
};

/// A download → train → upload fleet over `devices` devices. Uploads all
/// target link 0; device links follow.
fn fleet(devices: usize, shared_uplink: bool) -> (Simulator, Vec<JobSpec>) {
    let mix = LinkMix::campus().with_stragglers(StragglerConfig { fraction: 0.1, slowdown: 8.0 });
    let mut links = vec![LinkSpec {
        profile: pelican_sim::LinkProfile::wan(),
        discipline: Discipline::FairShare,
    }];
    links.extend((0..devices).map(|d| LinkSpec::fifo(mix.assign(17, d as u64).profile)));
    let specs = (0..devices)
        .map(|d| JobSpec {
            id: d as u64,
            release_us: 0,
            stages: vec![
                Stage::Transfer {
                    label: "download",
                    link: 1 + d,
                    bytes: 200_000,
                    policy: TransferPolicy::default(),
                },
                Stage::Compute { label: "train", duration_us: 5_000 + (d as u64 % 7) * 1_000 },
                Stage::Transfer {
                    label: "upload",
                    link: if shared_uplink { 0 } else { 1 + d },
                    bytes: 60_000,
                    policy: TransferPolicy::default(),
                },
            ],
        })
        .collect();
    (Simulator::builder().links(links).build(), specs)
}

fn bench_network_contention(c: &mut Criterion) {
    // Determinism gate: the engine must replay bit-identically before we
    // bother timing it.
    let (sim, specs) = fleet(64, true);
    assert_eq!(sim.run(&specs, &mut Passive).trace, sim.run(&specs, &mut Passive).trace);

    let mut group = c.benchmark_group("network_contention");
    for devices in [64usize, 256] {
        let (shared, shared_specs) = fleet(devices, true);
        group.bench_function(format!("shared-uplink/{devices}"), |b| {
            b.iter(|| std::hint::black_box(shared.run(&shared_specs, &mut Passive).job_count()))
        });
        let (dedicated, dedicated_specs) = fleet(devices, false);
        group.bench_function(format!("per-device/{devices}"), |b| {
            b.iter(|| {
                std::hint::black_box(dedicated.run(&dedicated_specs, &mut Passive).job_count())
            })
        });
    }
    // Discipline comparison at fixed size: fair-share pays extra
    // recheck events per membership change.
    for discipline in [Discipline::Fifo, Discipline::FairShare] {
        let flat: Vec<JobSpec> = (0..128)
            .map(|d| JobSpec {
                id: d,
                release_us: d * 200,
                stages: vec![Stage::Transfer {
                    label: "upload",
                    link: 0,
                    bytes: 60_000,
                    policy: TransferPolicy::default(),
                }],
            })
            .collect();
        let sim = Simulator::builder()
            .link(LinkSpec { profile: pelican_sim::LinkProfile::wan(), discipline })
            .build();
        group.bench_function(format!("{discipline:?}/128-uploads"), |b| {
            b.iter(|| std::hint::black_box(sim.run(&flat, &mut Passive).timed_out()))
        });
    }
    group.finish();
}

fn bench_sim_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_engine");
    for (name, devices) in [("5k", 5_000usize), ("100k", 100_000)] {
        let (links, specs) = pelican_bench::experiments::sim_scale::fleet(devices, 42);
        let sim = Simulator::builder().links(links).trace(TraceLevel::Fingerprint).build();
        assert_eq!(sim.run(&specs, &mut Passive).events(), 10 * devices as u64);
        group.bench_function(format!("{name}-devices"), |b| {
            b.iter(|| std::hint::black_box(sim.run(&specs, &mut Passive).fingerprint()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_network_contention, bench_sim_engine);
criterion_main!(benches);
