//! `sim_fleet` — a passive 100 000-device enrolment fleet; one op per
//! simulator event.
//!
//! The tracked `sim-scale` fleet shape: every device owns a FIFO
//! last-hop link dealt from the campus mix and shares a fair-share WAN
//! uplink with its 64-device group, and runs one download → train →
//! upload job. Builder defaults (the single event queue), fingerprint
//! tracing. About 10⁶ events. The timer wheel and the link models
//! dominate nowhere else; this guards the single-queue path, and no nn,
//! serve or store change may move it.

use pelican_sim::{
    completion_percentile, JobSpec, LinkMix, LinkProfile, LinkSpec, Passive, Simulator, Stage,
    TraceLevel, TransferPolicy,
};

use crate::row::{Iteration, Metrics};
use crate::runner::{Clock, Timed, Workload};
use crate::spans::Tracer;
use crate::stats::median;

/// Devices per shared fair-share uplink.
const GROUP: usize = 64;

pub struct SimFleet {
    links: Vec<LinkSpec>,
    jobs: Vec<JobSpec>,
}

impl Workload for SimFleet {
    const NAME: &'static str = "sim_fleet";
    const OP: &'static str = "event";
    /// The builder consumes its links; the copy is made off the clock.
    type Fresh = Vec<LinkSpec>;

    fn setup(seed: u64, quick: bool, _tracer: &mut Tracer) -> Self {
        let devices: usize = if quick { 5_000 } else { 100_000 };
        let mix = LinkMix::campus();
        let mut links: Vec<LinkSpec> =
            (0..devices).map(|d| LinkSpec::fifo(mix.assign(seed, d as u64).profile)).collect();
        links.extend((0..devices.div_ceil(GROUP)).map(|_| LinkSpec::fair(LinkProfile::wan())));
        let transfer = |label, link, bytes| Stage::Transfer {
            label,
            link,
            bytes,
            policy: TransferPolicy::default(),
        };
        let jobs = (0..devices)
            .map(|d| JobSpec {
                id: d as u64,
                release_us: (d as u64 % 997) * 250,
                stages: vec![
                    transfer("download", devices + d / GROUP, 120_000),
                    Stage::Compute { label: "train", duration_us: 4_000 + (d as u64 % 37) * 300 },
                    transfer("upload", d, 40_000 + (d as u64 % 11) * 2_000),
                ],
            })
            .collect();
        Self { links, jobs }
    }

    fn fresh(&self) -> Vec<LinkSpec> {
        self.links.clone()
    }

    fn iterate(&self, links: Vec<LinkSpec>, clock: &mut Clock) -> Iteration {
        let outcome = clock.timed(|t| {
            let sim = t.span("sim.build", |_| {
                Simulator::builder().links(links).trace(TraceLevel::Fingerprint).build()
            });
            t.span("sim.run", |_| sim.run(&self.jobs, &mut Passive))
        });
        let timed_out = outcome.timed_out() as u64;
        let mut out = Iteration {
            attempted: outcome.events(),
            // A timed-out job is the only way this fleet can fail; its
            // events still ran, so it is reported, not subtracted.
            failed: 0,
            fingerprint: outcome.fingerprint() ^ outcome.events(),
            ..Iteration::default()
        };
        if timed_out > 0 || outcome.job_count() != self.jobs.len() {
            out.violations.push(format!(
                "{timed_out} jobs timed out, {} of {} finished",
                outcome.job_count(),
                self.jobs.len()
            ));
        }
        out.metrics.exact("sim.v_p95_rtt_us", completion_percentile(&outcome, 0.95) as f64);
        out
    }

    fn probe(&self, timed: Timed, tracer: &mut Tracer, metrics: &mut Metrics) {
        metrics
            .measured("sim.events_per_s", timed.ops as f64 / median(&tracer.seconds_of("sim.run")));
        metrics.timing("sim.build_ms", &tracer.seconds_of("sim.build"), 1e3);
    }
}
