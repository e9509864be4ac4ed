//! Golden traces: fingerprints, event counts and failure counts of
//! seeded fleets, recorded as literals so a rearrangement of the engine
//! is checked against what the engine *did*, not against itself.
//!
//! `sim_props.rs` holds properties and `tests/pinned_outputs.rs` pins
//! flows that never time out; nothing else pins the timeout / retry /
//! queued-FIFO paths. Every literal below was produced by the engine of
//! commit `1047931` (PR 18), before the event, stage and link-state
//! layouts were touched, and this file passes unchanged on that commit.
//! A mismatch means the timeline moved: never re-record a literal to
//! make an engine change pass.
//!
//! * 32 seeded passive fleets from `sim_props.rs`'s generator widened to
//!   0–6 stages per job, each run at both trace levels as [`Passive`]
//!   and as a reactive workload that never reacts;
//!   [`the_fleets_reach_every_path_the_goldens_pin`] asserts the set
//!   really exercises what it is here for.
//! * 4 reactive runs whose workload submits jobs and sets timers from
//!   both callbacks.
//! * One scripted FIFO link walked through idle → busy → idle → queued,
//!   and one fair-share link finishing three flows in one completion
//!   check, each compared event for event.
//! * One fleet whose timestamps exceed 2³² µs (and the wheel's horizon).
//!
//! Every retained trace is also folded byte by byte through the public
//! [`fnv1a`] and compared with the streamed hash.

use std::collections::HashMap;

use pelican_sim::{
    fingerprint, fnv1a, mix64, Discipline, JobReport, JobSpec, JobStatus, LinkMix, LinkProfile,
    LinkSpec, Passive, RetryPolicy, SimControl, SimOutcome, Simulator, Stage, StragglerConfig,
    TraceEvent, TraceLevel, TransferPolicy, Workload, FNV_BASIS,
};

/// What one run is pinned by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    fingerprint: u64,
    events: u64,
    timed_out: usize,
}

impl Golden {
    fn of(outcome: &SimOutcome) -> Self {
        Self {
            fingerprint: outcome.fingerprint(),
            events: outcome.events(),
            timed_out: outcome.timed_out(),
        }
    }
}

/// Compares a recorded table with what ran, printing the whole table in
/// source form on a mismatch (that is how the literals were recorded).
fn assert_golden(name: &str, expected: &[Golden], actual: &[Golden]) {
    if expected == actual {
        return;
    }
    let mut table = String::new();
    for g in actual {
        table.push_str(&format!(
            "    Golden {{ fingerprint: {:#018x}, events: {}, timed_out: {} }},\n",
            g.fingerprint, g.events, g.timed_out
        ));
    }
    let first = expected.iter().zip(actual).position(|(e, a)| e != a);
    panic!("{name}: row {first:?} (of {}) moved; the engine produced:\n{table}", actual.len());
}

/// One transfer or compute stage drawn from `hs`. Transfers stay inside
/// the job's `group` of two links except for one draw in 64, which
/// couples groups.
fn stage(hs: u64, links: usize, group: usize) -> Stage {
    if hs.is_multiple_of(3) {
        return Stage::Compute { label: "compute", duration_us: hs % 50_000 };
    }
    let timeout_us = if hs % 5 < 2 { Some(5_000 + (hs >> 8) % 300_000) } else { None };
    let retry = if hs % 7 < 3 {
        RetryPolicy::none()
    } else {
        RetryPolicy::exponential(1 + (hs % 4) as u32, 4_000 + (hs >> 20) % 9_000, 2.0)
    };
    let link = if (hs >> 16).is_multiple_of(64) {
        (hs >> 24) as usize % links
    } else {
        (2 * group + (hs >> 24) as usize % 2) % links
    };
    Stage::Transfer {
        label: if hs & 0x100 == 0 { "download" } else { "upload" },
        link,
        bytes: (hs >> 12) % 600_000,
        policy: TransferPolicy { timeout_us, retry },
    }
}

/// `sim_props.rs`'s generator widened to 0–6 stages per job: a mixed
/// FIFO / fair-share link table with stragglers, timeouts from 5 to
/// 305 ms against transfers of up to 48 ms (uncontended wifi) or 1 s
/// (cellular; six times that on a straggler), and retry policies of one
/// to four attempts.
fn fleet(seed: u64) -> (Vec<LinkSpec>, Vec<JobSpec>) {
    let links = 1 + (mix64(seed) % 8) as usize;
    let jobs = 8 + (mix64(seed ^ 0x0B5) % 40) as usize;
    let mix = LinkMix::campus().with_stragglers(StragglerConfig { fraction: 0.2, slowdown: 6.0 });
    let link_table: Vec<LinkSpec> = (0..links)
        .map(|l| {
            let profile = mix.assign(seed, l as u64).profile;
            if mix64(seed ^ l as u64).is_multiple_of(2) {
                LinkSpec::fifo(profile)
            } else {
                LinkSpec::fair(profile)
            }
        })
        .collect();
    let specs = (0..jobs)
        .map(|j| {
            let h = mix64(seed.wrapping_add(0x10B ^ j as u64));
            let group = (h >> 40) as usize % links.div_ceil(2);
            let stages = (0..h % 7).map(|s| stage(mix64(h ^ (s + 1) << 7), links, group)).collect();
            JobSpec { id: j as u64, release_us: (h >> 8) % 200_000, stages }
        })
        .collect();
    (link_table, specs)
}

fn run_with(
    links: &[LinkSpec],
    specs: &[JobSpec],
    level: TraceLevel,
    workload: &mut impl Workload,
) -> SimOutcome {
    Simulator::builder().links(links.to_vec()).trace(level).build().run(specs, workload)
}

fn run_passive(links: &[LinkSpec], specs: &[JobSpec], level: TraceLevel) -> SimOutcome {
    run_with(links, specs, level, &mut Passive)
}

/// A reactive workload that never reacts: `passive()` stays `false`, so
/// the loop fills a report and calls back for every job that ends.
struct Inert;

impl Workload for Inert {
    fn on_job_end(&mut self, _job: &JobReport, _sim: &mut SimControl) {}
}

/// The fingerprint's definition, restated over the public byte fold: a
/// discriminant word, then every field widened to a word, padded to six
/// words, each folded as eight little-endian bytes.
fn bytewise_fingerprint(trace: &[TraceEvent]) -> u64 {
    trace.iter().fold(FNV_BASIS, |h, event| {
        let words: [u64; 6] = match *event {
            TraceEvent::JobReleased { t, job } => [0, t, job, 0, 0, 0],
            TraceEvent::TransferQueued { t, job, stage, link, attempt } => {
                [1, t, job, stage as u64, link as u64, attempt as u64]
            }
            TraceEvent::TransferStarted { t, job, stage, link, attempt } => {
                [2, t, job, stage as u64, link as u64, attempt as u64]
            }
            TraceEvent::TransferCompleted { t, job, stage, link, attempt } => {
                [3, t, job, stage as u64, link as u64, attempt as u64]
            }
            TraceEvent::TransferTimedOut { t, job, stage, link, attempt } => {
                [4, t, job, stage as u64, link as u64, attempt as u64]
            }
            TraceEvent::TransferAbandoned { t, job, stage, link, attempts } => {
                [5, t, job, stage as u64, link as u64, attempts as u64]
            }
            TraceEvent::ComputeStarted { t, job, stage } => [6, t, job, stage as u64, 0, 0],
            TraceEvent::ComputeFinished { t, job, stage } => [7, t, job, stage as u64, 0, 0],
            TraceEvent::JobCompleted { t, job } => [8, t, job, 0, 0, 0],
            TraceEvent::TimerFired { t, key } => [9, t, key, 0, 0, 0],
        };
        words.iter().fold(h, |h, w| fnv1a(h, &w.to_le_bytes()))
    })
}

/// A retained trace agrees with the streamed hash, with the public
/// re-fold and with the byte-by-byte definition.
fn assert_hash_is_the_trace(outcome: &SimOutcome, what: &str) {
    assert_eq!(outcome.events(), outcome.trace.len() as u64, "{what}: event count");
    assert_eq!(outcome.fingerprint(), fingerprint(&outcome.trace), "{what}: streamed vs re-folded");
    assert_eq!(outcome.fingerprint(), bytewise_fingerprint(&outcome.trace), "{what}: vs bytewise");
}

/// Runs fleet `seed` four ways (both trace levels, [`Passive`] and
/// [`Inert`]), asserts they agree, and returns the full-trace passive
/// outcome: all `passive()` selects is whether reports are filled, and
/// that must not change a trace event.
fn run_four_ways(seed: u64) -> SimOutcome {
    let (links, specs) = fleet(seed);
    let full = run_passive(&links, &specs, TraceLevel::Full);
    assert_hash_is_the_trace(&full, &format!("fleet {seed}"));
    for (inert, level) in [
        (false, TraceLevel::Fingerprint),
        (true, TraceLevel::Full),
        (true, TraceLevel::Fingerprint),
    ] {
        let other = if inert {
            run_with(&links, &specs, level, &mut Inert)
        } else {
            run_passive(&links, &specs, level)
        };
        let what = format!("fleet {seed}, inert reactive: {inert}, {level:?}");
        assert_eq!(Golden::of(&other), Golden::of(&full), "{what}");
        match level {
            TraceLevel::Full => assert_eq!(other.trace, full.trace, "{what}"),
            TraceLevel::Fingerprint => assert!(other.trace.is_empty(), "{what}"),
        }
        assert_eq!(other.job_count(), full.job_count(), "{what}");
        for (a, b) in other.jobs().zip(full.jobs()) {
            assert_eq!(
                (a.id(), a.release_us(), a.end_us(), a.status(), a.stages()),
                (b.id(), b.release_us(), b.end_us(), b.status(), b.stages()),
                "{what}"
            );
        }
    }
    full
}

const FLEET_SEEDS: std::ops::Range<u64> = 0..32;

const FLEET_GOLDEN: [Golden; 32] = [
    Golden { fingerprint: 0xd71d984bf58e75e8, events: 83, timed_out: 3 },
    Golden { fingerprint: 0x4c0580194485ec44, events: 166, timed_out: 5 },
    Golden { fingerprint: 0x77de6bf84f728500, events: 346, timed_out: 13 },
    Golden { fingerprint: 0x779bd16dddfde297, events: 328, timed_out: 8 },
    Golden { fingerprint: 0x3aaaa595382f57a0, events: 319, timed_out: 16 },
    Golden { fingerprint: 0x150592022f7f2801, events: 132, timed_out: 2 },
    Golden { fingerprint: 0x4069f86f58da6b16, events: 170, timed_out: 11 },
    Golden { fingerprint: 0x372882ae4cd11cfe, events: 275, timed_out: 6 },
    Golden { fingerprint: 0xcfae8aec849b5268, events: 332, timed_out: 10 },
    Golden { fingerprint: 0x0aadaa649c242992, events: 268, timed_out: 12 },
    Golden { fingerprint: 0x218b6ea793771e29, events: 285, timed_out: 12 },
    Golden { fingerprint: 0x27133d075679db3d, events: 135, timed_out: 3 },
    Golden { fingerprint: 0x8c2604fb4e129b2b, events: 228, timed_out: 6 },
    Golden { fingerprint: 0xa19168cc299bb491, events: 404, timed_out: 20 },
    Golden { fingerprint: 0xaa3f2e2e87bfa199, events: 326, timed_out: 10 },
    Golden { fingerprint: 0x09e7af770357acc9, events: 96, timed_out: 3 },
    Golden { fingerprint: 0x90ff09c92cf74fa9, events: 242, timed_out: 7 },
    Golden { fingerprint: 0x3a1f15a366018f6c, events: 404, timed_out: 13 },
    Golden { fingerprint: 0x911cdda34b7f7fb6, events: 102, timed_out: 1 },
    Golden { fingerprint: 0xde3ef3bbf4bf9922, events: 396, timed_out: 11 },
    Golden { fingerprint: 0x0c8d5c8e99309a78, events: 422, timed_out: 6 },
    Golden { fingerprint: 0x056707a93f8f7972, events: 385, timed_out: 17 },
    Golden { fingerprint: 0x4cee01a2f64cf0d0, events: 391, timed_out: 17 },
    Golden { fingerprint: 0xeb36608c863d71a2, events: 341, timed_out: 10 },
    Golden { fingerprint: 0xf38581c2c1f9864b, events: 219, timed_out: 5 },
    Golden { fingerprint: 0xb13b2ed9cc1c375d, events: 394, timed_out: 24 },
    Golden { fingerprint: 0x45bf9d5e046fe73c, events: 209, timed_out: 11 },
    Golden { fingerprint: 0x40b314260a7aff06, events: 371, timed_out: 19 },
    Golden { fingerprint: 0x249671bbfdb6999c, events: 201, timed_out: 5 },
    Golden { fingerprint: 0x0ec84232f11fd3fa, events: 142, timed_out: 12 },
    Golden { fingerprint: 0x1a700469e3123bc6, events: 160, timed_out: 4 },
    Golden { fingerprint: 0xeff25119c97818da, events: 342, timed_out: 22 },
];

#[test]
fn seeded_fleets_replay_the_recorded_fingerprints() {
    let actual: Vec<Golden> = FLEET_SEEDS.map(|seed| Golden::of(&run_four_ways(seed))).collect();
    assert_golden("FLEET_GOLDEN", &FLEET_GOLDEN, &actual);
}

/// How the attempts of a fleet's trace ended, by where they were when
/// the timeout fired.
#[derive(Debug, Default)]
struct Coverage {
    fifo_timed_out_queued: usize,
    fifo_timed_out_in_flight: usize,
    fair_timed_out_before_join: usize,
    fair_timed_out_in_flight: usize,
    abandoned: usize,
    completed_on_a_retry: usize,
    fifo_started_on_arrival: usize,
    fifo_started_from_queue: usize,
    empty_jobs: usize,
    six_stage_jobs: usize,
}

#[test]
fn the_fleets_reach_every_path_the_goldens_pin() {
    let mut seen = Coverage::default();
    for seed in FLEET_SEEDS {
        let (links, specs) = fleet(seed);
        let out = run_passive(&links, &specs, TraceLevel::Full);
        seen.empty_jobs += specs.iter().filter(|s| s.stages.is_empty()).count();
        seen.six_stage_jobs += specs.iter().filter(|s| s.stages.len() == 6).count();
        // (job, stage, attempt) -> (queued at, started at).
        let mut attempts: HashMap<(u64, usize, u32), (u64, Option<u64>)> = HashMap::new();
        for event in &out.trace {
            match *event {
                TraceEvent::TransferQueued { t, job, stage, attempt, .. } => {
                    attempts.insert((job, stage, attempt), (t, None));
                }
                TraceEvent::TransferStarted { t, job, stage, link, attempt } => {
                    let entry = attempts.get_mut(&(job, stage, attempt)).expect("queued first");
                    entry.1 = Some(t);
                    if links[link].discipline == Discipline::Fifo {
                        if t == entry.0 {
                            seen.fifo_started_on_arrival += 1;
                        } else {
                            seen.fifo_started_from_queue += 1;
                        }
                    }
                }
                TraceEvent::TransferTimedOut { job, stage, link, attempt, .. } => {
                    let started = attempts[&(job, stage, attempt)].1.is_some();
                    match (links[link].discipline, started) {
                        (Discipline::Fifo, false) => seen.fifo_timed_out_queued += 1,
                        (Discipline::Fifo, true) => seen.fifo_timed_out_in_flight += 1,
                        (Discipline::FairShare, false) => seen.fair_timed_out_before_join += 1,
                        (Discipline::FairShare, true) => seen.fair_timed_out_in_flight += 1,
                    }
                }
                TraceEvent::TransferAbandoned { .. } => seen.abandoned += 1,
                TraceEvent::TransferCompleted { attempt, .. } if attempt > 1 => {
                    seen.completed_on_a_retry += 1;
                }
                _ => {}
            }
        }
    }
    let floor = [
        ("FIFO attempts timed out in queue", seen.fifo_timed_out_queued),
        ("FIFO attempts timed out in flight", seen.fifo_timed_out_in_flight),
        ("fair attempts timed out before their FairJoin", seen.fair_timed_out_before_join),
        ("fair attempts timed out in flight", seen.fair_timed_out_in_flight),
        ("transfers abandoned with retries exhausted", seen.abandoned),
        ("transfers completed on a retry", seen.completed_on_a_retry),
        ("FIFO transfers started on arrival", seen.fifo_started_on_arrival),
        ("FIFO transfers started from the queue", seen.fifo_started_from_queue),
        ("jobs without stages", seen.empty_jobs),
        ("jobs with six stages", seen.six_stage_jobs),
    ];
    for (what, count) in floor {
        assert!(count >= 8, "only {count} {what} across the golden fleets: {seen:?}");
    }
}

/// A workload that reacts from both callbacks: job ends inject follow-up
/// jobs (some released in the past, so the clamp runs) and arm timers;
/// timers inject jobs and re-arm. Every draw is a hash of what the
/// callback was handed, so the run is a pure function of `seed`.
struct Reactor {
    seed: u64,
    links: usize,
    budget: u32,
    next_id: u64,
}

impl Reactor {
    fn inject(&mut self, h: u64, sim: &mut SimControl) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        let stages = (0..1 + h % 3)
            .map(|s| stage(mix64(h ^ (s + 1) << 9), self.links, (h >> 40) as usize))
            .collect();
        // One release in four lies in the past and clamps to `now`.
        let release_us =
            if h.is_multiple_of(4) { sim.now() / 2 } else { sim.now() + (h >> 16) % 20_000 };
        sim.submit(JobSpec { id: self.next_id, release_us, stages });
        self.next_id += 1;
    }
}

impl Workload for Reactor {
    fn on_job_end(&mut self, job: &JobReport, sim: &mut SimControl) {
        let failed = matches!(job.status, JobStatus::TimedOut { .. });
        let h = mix64(self.seed ^ job.id.rotate_left(17) ^ job.end_us ^ u64::from(failed));
        if !h.is_multiple_of(3) {
            self.inject(h, sim);
        }
        if h % 5 < 2 {
            sim.set_timer(sim.now() + (h >> 24) % 30_000, h >> 3);
        }
    }

    fn on_timer(&mut self, key: u64, sim: &mut SimControl) {
        let h = mix64(self.seed ^ key ^ sim.now());
        if key.is_multiple_of(2) {
            self.inject(h, sim);
        }
        if key.is_multiple_of(7) && self.budget > 0 {
            // Re-arming draws on the budget too, so the run ends.
            self.budget -= 1;
            sim.set_timer(sim.now().saturating_sub(5) + h % 9_000, h >> 5);
        }
    }
}

const REACTIVE_GOLDEN: [(Golden, usize); 4] = [
    (Golden { fingerprint: 0xf28cd6522bd21c8b, events: 899, timed_out: 31 }, 96),
    (Golden { fingerprint: 0x3687b8af33056b63, events: 622, timed_out: 31 }, 74),
    (Golden { fingerprint: 0xd87094cdbc82bbee, events: 530, timed_out: 11 }, 62),
    (Golden { fingerprint: 0xb777d12f6a9218e8, events: 667, timed_out: 38 }, 80),
];

#[test]
fn reactive_runs_replay_the_recorded_fingerprints() {
    let mut actual = Vec::new();
    let mut timers = 0;
    for seed in 100..104u64 {
        let (links, specs) = fleet(seed);
        let run = |level| {
            let mut reactor = Reactor { seed, links: links.len(), budget: 60, next_id: 1_000 };
            run_with(&links, &specs, level, &mut reactor)
        };
        let full = run(TraceLevel::Full);
        assert_hash_is_the_trace(&full, &format!("reactive {seed}"));
        let slim = run(TraceLevel::Fingerprint);
        assert_eq!(Golden::of(&slim), Golden::of(&full), "reactive {seed}");
        assert_eq!(slim.job_count(), full.job_count());
        assert!(full.job_count() > specs.len(), "reactive {seed}: nothing was injected");
        timers += full.trace.iter().filter(|e| matches!(e, TraceEvent::TimerFired { .. })).count();
        actual.push((Golden::of(&full), full.job_count()));
    }
    assert!(timers >= 8, "only {timers} timers fired across the reactive goldens");
    let (expected, expected_jobs): (Vec<Golden>, Vec<usize>) = REACTIVE_GOLDEN.into_iter().unzip();
    let (ran, ran_jobs): (Vec<Golden>, Vec<usize>) = actual.into_iter().unzip();
    assert_golden("REACTIVE_GOLDEN", &expected, &ran);
    assert_eq!(ran_jobs, expected_jobs, "reactive job counts");
}

#[test]
fn a_fifo_link_walks_idle_busy_idle_queued_event_for_event() {
    // One wifi FIFO link: 8 ms latency, 12.5 bytes/µs.
    let xfer = |bytes, timeout_us, retry| Stage::Transfer {
        label: "up",
        link: 0,
        bytes,
        policy: TransferPolicy { timeout_us, retry },
    };
    let specs = vec![
        // Idle link, empty queue: starts on arrival, 18 ms of service.
        JobSpec { id: 0, release_us: 0, stages: vec![xfer(125_000, None, RetryPolicy::none())] },
        // Idle again at 30 ms: starts on arrival (108 ms of service),
        // times out in flight at 50 ms and orphans its FifoDone; the
        // retry at 55 ms queues behind job 2, starts from the queue at
        // 60 ms and times out in flight again at 75 ms.
        JobSpec {
            id: 1,
            release_us: 30_000,
            stages: vec![xfer(1_250_000, Some(20_000), RetryPolicy::exponential(2, 5_000, 2.0))],
        },
        // Queues behind job 1 at 35 ms, times out in the queue at 47 ms,
        // retries at 51 ms onto a link job 1's timeout left idle with an
        // empty queue: starts on arrival, 9 ms of service.
        JobSpec {
            id: 2,
            release_us: 35_000,
            stages: vec![xfer(12_500, Some(12_000), RetryPolicy::exponential(3, 4_000, 2.0))],
        },
        // After both orphaned FifoDones (138 ms, 168 ms) fired into an
        // idle link: tokens moved on, the link still serves.
        JobSpec { id: 3, release_us: 200_000, stages: vec![xfer(0, None, RetryPolicy::none())] },
    ];
    let links = [LinkSpec::fifo(LinkProfile::wifi())];
    let out = run_passive(&links, &specs, TraceLevel::Full);
    use TraceEvent::*;
    let (stage, link) = (0, 0);
    let expected = vec![
        JobReleased { t: 0, job: 0 },
        TransferQueued { t: 0, job: 0, stage, link, attempt: 1 },
        TransferStarted { t: 0, job: 0, stage, link, attempt: 1 },
        TransferCompleted { t: 18_000, job: 0, stage, link, attempt: 1 },
        JobCompleted { t: 18_000, job: 0 },
        JobReleased { t: 30_000, job: 1 },
        TransferQueued { t: 30_000, job: 1, stage, link, attempt: 1 },
        TransferStarted { t: 30_000, job: 1, stage, link, attempt: 1 },
        JobReleased { t: 35_000, job: 2 },
        TransferQueued { t: 35_000, job: 2, stage, link, attempt: 1 },
        TransferTimedOut { t: 47_000, job: 2, stage, link, attempt: 1 },
        TransferTimedOut { t: 50_000, job: 1, stage, link, attempt: 1 },
        TransferQueued { t: 51_000, job: 2, stage, link, attempt: 2 },
        TransferStarted { t: 51_000, job: 2, stage, link, attempt: 2 },
        TransferQueued { t: 55_000, job: 1, stage, link, attempt: 2 },
        TransferCompleted { t: 60_000, job: 2, stage, link, attempt: 2 },
        JobCompleted { t: 60_000, job: 2 },
        TransferStarted { t: 60_000, job: 1, stage, link, attempt: 2 },
        TransferTimedOut { t: 75_000, job: 1, stage, link, attempt: 2 },
        TransferAbandoned { t: 75_000, job: 1, stage, link, attempts: 2 },
        JobReleased { t: 200_000, job: 3 },
        TransferQueued { t: 200_000, job: 3, stage, link, attempt: 1 },
        TransferStarted { t: 200_000, job: 3, stage, link, attempt: 1 },
        TransferCompleted { t: 208_000, job: 3, stage, link, attempt: 1 },
        JobCompleted { t: 208_000, job: 3 },
    ];
    assert_eq!(out.trace, expected);
    assert_hash_is_the_trace(&out, "scripted FIFO link");
    assert_eq!(out.fingerprint(), 0xf7d5_acb1_ea28_d6c0, "the scripted link's recorded hash");
    assert_eq!(out.job(1).status(), JobStatus::TimedOut { stage: 0 });
    assert_eq!((out.job(1).stages()[0].attempts, out.job(1).end_us()), (2, 75_000));
    assert_eq!((out.job(2).stages()[0].attempts, out.job(2).stages()[0].submitted_us), (2, 35_000));
    // Queue wait shows up against the ideal the service time is equal to.
    assert_eq!(out.job(2).stages()[0].ideal_us, 9_000);
    assert_eq!(out.job(2).stages()[0].wait_us(), 25_000 - 9_000);
}

#[test]
fn fair_share_flows_that_finish_in_one_check_leave_in_join_order() {
    // One fair wifi link (8 ms, 12.5 bytes/µs), four flows joining at
    // 8 ms in spec order 7, 3, 9, 5. Jobs 7, 9 and 5 carry the same
    // bytes and finish in one completion check, around job 3, which
    // stays: the check must report them in the order they joined, each
    // followed at once by its own next stage.
    let job = |id, bytes| JobSpec {
        id,
        release_us: 0,
        stages: vec![
            Stage::Transfer { label: "down", link: 0, bytes, policy: TransferPolicy::default() },
            Stage::Compute { label: "train", duration_us: 1_000 },
        ],
    };
    let specs = vec![job(7, 100_000), job(3, 400_000), job(9, 100_000), job(5, 100_000)];
    let links = [LinkSpec::fair(LinkProfile::wifi())];
    let out = run_passive(&links, &specs, TraceLevel::Full);
    assert_hash_is_the_trace(&out, "fair-share batch");
    // Four flows at 3.125 bytes/µs each: the three small ones drain in
    // 32 ms, then job 3 has the link to itself for its last 300 kB.
    let tail: Vec<TraceEvent> = out.trace.iter().copied().filter(|e| e.time() >= 40_000).collect();
    use TraceEvent::*;
    let (stage, link, attempt) = (0, 0, 1);
    let expected = vec![
        TransferCompleted { t: 40_000, job: 7, stage, link, attempt },
        ComputeStarted { t: 40_000, job: 7, stage: 1 },
        TransferCompleted { t: 40_000, job: 9, stage, link, attempt },
        ComputeStarted { t: 40_000, job: 9, stage: 1 },
        TransferCompleted { t: 40_000, job: 5, stage, link, attempt },
        ComputeStarted { t: 40_000, job: 5, stage: 1 },
        ComputeFinished { t: 41_000, job: 7, stage: 1 },
        JobCompleted { t: 41_000, job: 7 },
        ComputeFinished { t: 41_000, job: 9, stage: 1 },
        JobCompleted { t: 41_000, job: 9 },
        ComputeFinished { t: 41_000, job: 5, stage: 1 },
        JobCompleted { t: 41_000, job: 5 },
        TransferCompleted { t: 64_000, job: 3, stage, link, attempt },
        ComputeStarted { t: 64_000, job: 3, stage: 1 },
        ComputeFinished { t: 65_000, job: 3, stage: 1 },
        JobCompleted { t: 65_000, job: 3 },
    ];
    assert_eq!(tail, expected);
    assert_eq!(out.fingerprint(), 0x4a67_899e_51c0_e165, "the batch's recorded hash");
}

/// Seven days of virtual time, in µs: beyond 2³² (the long branch of the
/// event fold on every timestamp) and beyond the wheel's 2³⁶ µs horizon
/// (every release waits in the overflow bucket).
const WEEK_US: u64 = 7 * 86_400 * 1_000_000;

#[test]
fn timestamps_beyond_32_bits_replay_the_recorded_fingerprint() {
    let (links, mut specs) = fleet(200);
    for (j, spec) in specs.iter_mut().enumerate() {
        // Three waves: just past 2³², just past the wheel horizon, and a
        // week out; ids past 2²⁴ and 2³² take the fold's long branches
        // on the job word too.
        spec.release_us += [1 << 32, 1 << 36, WEEK_US][j % 3];
        spec.id += [0, 1 << 24, 1 << 40][j % 3];
    }
    let full = run_passive(&links, &specs, TraceLevel::Full);
    assert_hash_is_the_trace(&full, "long timestamps");
    assert!(full.trace.iter().all(|e| e.time() >= 1 << 32));
    assert!(full.trace.iter().any(|e| e.time() >= WEEK_US));
    let slim = run_passive(&links, &specs, TraceLevel::Fingerprint);
    assert_eq!(Golden::of(&slim), Golden::of(&full));
    assert_golden(
        "long timestamps",
        &[Golden { fingerprint: 0x9a64_4e42_479c_d821, events: 210, timed_out: 11 }],
        &[Golden::of(&full)],
    );
}
