//! Fleet networking: train a cohort, then price it as a one-round
//! co-simulation on the discrete-event device↔cloud simulator.
//!
//! Drives the full `pelican-sim` integration end to end: the trainer
//! pool personalizes and audits a small cohort (per-job simulated device
//! costs measured exactly per thread), the simulator runs the fleet —
//! general-model downloads over heterogeneous seeded links overlapping
//! other devices' training, publication uploads queued on one shared
//! cloud uplink, stragglers injected — and cloud-deployed serving pays
//! the same contended network per query round trip. Determinism is
//! asserted throughout: traces are bit-identical across runs and across
//! trainer-pool widths.
//!
//! Run with: `cargo run --release --example fleet_network`

use pelican::workbench::{Scenario, ScenarioSizing};
use pelican::PersonalizationConfig;
use pelican_mobility::{Scale, SpatialLevel};
use pelican_nn::{ModelEnvelope, TrainConfig};
use pelican_serve::{run_fleet, CloudNetwork, FleetConfig, RegistryConfig, ShardedRegistry};
use pelican_sim::{Discipline, LinkMix, LinkProfile, StragglerConfig};
use pelican_train::{
    cohort_jobs, cosimulate_fleet, AuditConfig, CosimReport, FleetTrainer, LoopMode, NetworkConfig,
    PipelineConfig, RoundRecord, TrainReport, UplinkMode,
};

/// p95 of release → publication over the round's completed devices (µs).
fn enroll_p95_us(report: &CosimReport) -> u64 {
    report.round_percentile_us(0, RoundRecord::span_us, 0.95)
}

fn main() {
    let scenario =
        Scenario::builder(Scale::Tiny, SpatialLevel::Building).seed(42).personal_users(0).build();
    let cohort_start = scenario.first_personal_user;
    let jobs = cohort_jobs(&scenario.dataset, cohort_start..cohort_start + 4, 0.8);
    let general_bytes = ModelEnvelope::encode(&scenario.general).len() as u64;
    println!("cohort        : {} devices, general envelope {} kB", jobs.len(), {
        general_bytes / 1024
    });

    let sizing = ScenarioSizing::for_scale(Scale::Tiny);
    let train_at = |workers: usize| {
        let registry = ShardedRegistry::new(scenario.general.clone(), RegistryConfig::default());
        FleetTrainer::new(PipelineConfig {
            workers,
            base_seed: 42,
            personalization: PersonalizationConfig {
                train: TrainConfig { epochs: sizing.personal_epochs, ..TrainConfig::default() },
                hidden_dim: sizing.hidden_dim,
                ..PersonalizationConfig::default()
            },
            audit: AuditConfig { max_instances: 4, ..AuditConfig::default() },
            ..PipelineConfig::default()
        })
        .run(&scenario.general, &scenario.dataset.space, &jobs, &registry)
    };

    // Determinism across trainer-pool widths: the simulated network
    // timeline must not know how many host threads trained the fleet.
    let report = train_at(1);
    let wide = train_at(4);
    let net = NetworkConfig {
        mix: LinkMix::campus().with_stragglers(StragglerConfig { fraction: 0.5, slowdown: 8.0 }),
        seed: 0xF1EE7,
        ..NetworkConfig::default()
    };
    // One finished round, so open vs. closed is moot.
    let simulate = |report: &TrainReport, net: &NetworkConfig| {
        cosimulate_fleet(&[report], general_bytes, net, LoopMode::Open)
    };
    let narrow_sim = simulate(&report, &net);
    let wide_sim = simulate(&wide, &net);
    assert_eq!(narrow_sim.sim.trace, wide_sim.sim.trace, "trace must ignore pool width");
    assert_eq!(narrow_sim.records, wide_sim.records, "breakdowns must ignore pool width");
    assert_eq!(
        narrow_sim.fingerprint(),
        simulate(&report, &net).fingerprint(),
        "same inputs must run bit-identically"
    );
    println!(
        "determinism   : trace {:016x} identical at 1 and 4 workers ✓\n",
        narrow_sim.fingerprint()
    );
    println!("campus mix, shared WAN uplink, 50% stragglers at 8x:");
    println!("{}", narrow_sim.render());

    // Contention: the same all-wifi fleet, per-device vs. one shared
    // FIFO uplink — queueing alone must raise the p95.
    let wifi =
        |uplink| NetworkConfig { mix: LinkMix::all_wifi(), uplink, ..NetworkConfig::default() };
    let baseline = simulate(&report, &wifi(UplinkMode::PerDevice));
    let contended = simulate(
        &report,
        &wifi(UplinkMode::Shared { profile: LinkProfile::wifi(), discipline: Discipline::Fifo }),
    );
    assert!(
        enroll_p95_us(&contended) > enroll_p95_us(&baseline),
        "shared uplink must strictly raise p95 enroll latency"
    );
    assert!(contended.round_percentile_us(0, |r| r.queue_us, 0.95) > 0);
    println!(
        "contention    : p95 {:.1} ms per-device -> {:.1} ms shared uplink ✓",
        enroll_p95_us(&baseline) as f64 / 1e3,
        enroll_p95_us(&contended) as f64 / 1e3,
    );

    // Stragglers straggle: every straggler trails every normal device.
    if narrow_sim.stragglers() > 0 {
        let worst_normal = narrow_sim
            .records
            .iter()
            .filter(|r| !r.straggler)
            .map(RoundRecord::span_us)
            .max()
            .unwrap_or(0);
        for r in narrow_sim.records.iter().filter(|r| r.straggler) {
            assert!(r.span_us() > worst_normal, "8x stragglers must finish last");
        }
        println!(
            "stragglers    : {} of {} devices, p95 {:.1} ms ✓",
            narrow_sim.stragglers(),
            narrow_sim.devices,
            narrow_sim.straggler_p95_us(0) as f64 / 1e3,
        );
    }

    // Cloud-deployed serving: queries pay the same contended network.
    let serving_scenario =
        Scenario::builder(Scale::Tiny, SpatialLevel::Building).seed(42).personal_users(3).build();
    let fleet = |cloud| FleetConfig {
        traffic: pelican_serve::TrafficConfig {
            requests: 2_000,
            seed: 42,
            ..pelican_serve::TrafficConfig::default()
        },
        cloud,
        ..FleetConfig::default()
    };
    let on_device = run_fleet(&serving_scenario, &fleet(None)).expect("envelopes decode");
    let cloud = run_fleet(&serving_scenario, &fleet(Some(CloudNetwork::default())))
        .expect("envelopes decode");
    let rtt = cloud.network.expect("cloud deployment reports round trips");
    assert!(rtt.rtt_p95_us > on_device.report.p95_us, "round trips pay the network");
    assert_eq!(rtt.dropped, 0);
    println!(
        "\ncloud serving : p95 {:.2} ms on-device -> {:.2} ms round trip ({:.2} ms egress wait) ✓",
        on_device.report.p95_us as f64 / 1e3,
        rtt.rtt_p95_us as f64 / 1e3,
        rtt.egress_wait_p95_us as f64 / 1e3,
    );
}
