//! Fingerprint invariance of sharded execution at fleet scale: a
//! 10k-device passive run must produce bit-identical trace fingerprints
//! (and job outcomes) across 1-, 2- and 8-shard simulators — the same
//! contract the trainer-pool width invariance pins for the training
//! pipeline, here for the sim core itself.

mod common;

use common::fleet;
use pelican_sim::{
    completion_percentile, JobSpec, LinkProfile, LinkSpec, Passive, Simulator, Stage, TraceLevel,
    TransferPolicy,
};

const DEVICES: usize = 10_000;

#[test]
fn fingerprints_are_invariant_across_1_2_and_8_shards_at_10k_devices() {
    let (links, specs) = fleet(DEVICES);
    let mut outcomes = Vec::new();
    for shards in [1usize, 2, 8] {
        let sim = Simulator::builder()
            .links(links.clone())
            .shards(shards)
            .trace(TraceLevel::Fingerprint)
            .build();
        outcomes.push((shards, sim.run(&specs, &mut Passive)));
    }
    let (_, baseline) = &outcomes[0];
    assert_eq!(baseline.job_count(), DEVICES);
    assert_eq!(baseline.timed_out(), 0);
    assert!(completion_percentile(baseline, 0.95) > 0);
    for (shards, outcome) in &outcomes[1..] {
        assert_eq!(
            outcome.fingerprint(),
            baseline.fingerprint(),
            "{shards}-shard fingerprint diverged from 1-shard"
        );
        assert_eq!(outcome.events(), baseline.events(), "{shards}-shard event count diverged");
        assert_eq!(outcome.job_count(), baseline.job_count());
        for (a, b) in outcome.jobs().zip(baseline.jobs()) {
            assert_eq!(a.id(), b.id());
            assert_eq!(a.end_us(), b.end_us());
            assert_eq!(a.status(), b.status());
            assert_eq!(a.stages(), b.stages());
        }
    }
}

#[test]
fn sharded_full_traces_match_event_for_event() {
    // Smaller population, full trace retention: the merged trace (not
    // just its hash) must equal the sequential one.
    let (links, specs) = fleet(512);
    let run = |shards| {
        Simulator::builder().links(links.clone()).shards(shards).build().run(&specs, &mut Passive)
    };
    let seq = run(1);
    let two = run(2);
    let eight = run(8);
    assert_eq!(seq.trace, two.trace);
    assert_eq!(seq.trace, eight.trace);
    assert_eq!(seq.fingerprint(), eight.fingerprint());
}

#[test]
fn shard_counts_beyond_components_still_replay_exactly() {
    // One shared link couples every job into a single component: 8
    // shards degenerate to 1 working shard + 7 idle ones, and the
    // outcome must not notice.
    let links = vec![LinkSpec::fair(LinkProfile::wifi())];
    let specs: Vec<JobSpec> = (0..200)
        .map(|i| JobSpec {
            id: i,
            release_us: i * 111,
            stages: vec![Stage::Transfer {
                label: "up",
                link: 0,
                bytes: 10_000 + i * 97,
                policy: TransferPolicy::default(),
            }],
        })
        .collect();
    let run = |shards| {
        Simulator::builder().links(links.clone()).shards(shards).build().run(&specs, &mut Passive)
    };
    let seq = run(1);
    let wide = run(8);
    assert_eq!(seq.trace, wide.trace);
    assert_eq!(seq.fingerprint(), wide.fingerprint());
}
