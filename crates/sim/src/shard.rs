//! Sharded passive execution with a deterministic cross-shard merge.
//!
//! A passive run has no workload feedback, so the only coupling between
//! jobs is shared link state. Links are grouped into components with a
//! union-find (two links join when one job's stages touch both), whole
//! components are binned onto shards, and each shard runs an ordinary
//! [`Runner`](crate::engine) over its own jobs and links on its own
//! thread — no locks, no cross-shard state.
//!
//! Determinism is recovered by *sequential merge replay*. Each shard
//! records, per popped event in pop order, how many events its handler
//! pushed (and their deadlines) and how many trace events it emitted.
//! The merge then re-runs the global scheduler in miniature: it seeds
//! one token per initial job in global spec order (exactly the
//! admission order of the 1-shard run), repeatedly pops the earliest
//! `(time, seq)` token, consumes that shard's next pop record, assigns
//! fresh global sequence numbers to the events it pushed, and appends
//! its trace slice. Within a shard, relative event order never depends
//! on other shards (handlers read only shard-local state), so the
//! shard-local pop order *is* the global order restricted to that shard
//! — and the replayed `(time, seq)` schedule is therefore bit-identical
//! to the 1-shard run's, trace fingerprint included. This is the same
//! argument, mechanized, as the trainer-pool width invariance.

use std::collections::VecDeque;

use crate::engine::{
    arena_u32, JobSpec, Passive, Runner, ShardRun, SimOutcome, Stage, TraceLevel, TraceSink,
};
use crate::link::LinkSpec;
use crate::wheel::TimerWheel;

/// Union-find over link ids (`u32`, like everywhere in the engine: the
/// `as u32` casts of link ids in this file cannot truncate, because
/// `SimulatorBuilder::build` bounds the table and `validate` every id).
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self { parent: (0..n as u32).collect() }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            cur = std::mem::replace(&mut self.parent[cur as usize], root);
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Smaller root wins so component ids are stable and ordered.
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            self.parent[hi as usize] = lo;
        }
    }
}

/// The static partition of links and jobs onto `shards` bins.
struct Partition {
    /// Global link id → local index within its owning shard.
    link_local: Vec<u32>,
    /// Per shard: owned global link ids, ascending.
    shard_links: Vec<Vec<usize>>,
    /// Per shard: global spec indices, ascending (global admission order
    /// restricted to the shard).
    shard_jobs: Vec<Vec<usize>>,
    /// Global spec index → owning shard.
    shard_of_job: Vec<u32>,
}

fn first_link(spec: &JobSpec) -> Option<usize> {
    spec.stages.iter().find_map(|s| match s {
        Stage::Transfer { link, .. } => Some(*link),
        Stage::Compute { .. } => None,
    })
}

/// Groups links into job-connected components and greedily bins whole
/// components (heaviest first, by total stage count) onto the lightest
/// shard. Jobs with no transfer stage touch no shared state and deal
/// round-robin. Every choice is deterministic, but correctness does not
/// depend on the layout: the merge replay reconstructs the global order
/// for *any* partition that keeps each component on one shard.
fn partition(links: &[LinkSpec], shards: usize, specs: &[JobSpec]) -> Partition {
    let mut uf = UnionFind::new(links.len());
    for spec in specs {
        let mut prev: Option<usize> = None;
        for stage in &spec.stages {
            if let Stage::Transfer { link, .. } = stage {
                if let Some(p) = prev {
                    uf.union(p as u32, *link as u32);
                }
                prev = Some(*link);
            }
        }
    }
    // Component weights (stage count of the jobs it carries, a proxy for
    // event volume), keyed by root link id.
    let mut weight = vec![0u64; links.len()];
    for spec in specs {
        if let Some(link) = first_link(spec) {
            weight[uf.find(link as u32) as usize] += spec.stages.len().max(1) as u64;
        }
    }
    let mut comps: Vec<(u64, u32)> = (0..links.len() as u32)
        .filter(|&l| uf.find(l) == l)
        .map(|root| (weight[root as usize], root))
        .collect();
    // Heaviest first; ties broken by the (unique) root id for stability.
    comps.sort_by_key(|&(w, root)| (std::cmp::Reverse(w), root));
    let mut bin_of_root = vec![0u32; links.len()];
    let mut load = vec![0u64; shards];
    for (w, root) in comps {
        let bin = (0..shards).min_by_key(|&b| (load[b], b)).expect("shards >= 1");
        load[bin] += w.max(1);
        bin_of_root[root as usize] = bin as u32;
    }
    let mut link_local = vec![0u32; links.len()];
    let mut shard_links = vec![Vec::new(); shards];
    for l in 0..links.len() {
        let bin = bin_of_root[uf.find(l as u32) as usize] as usize;
        link_local[l] = shard_links[bin].len() as u32;
        shard_links[bin].push(l);
    }
    let mut shard_jobs = vec![Vec::new(); shards];
    let mut shard_of_job = vec![0u32; specs.len()];
    let mut next_free = 0usize;
    for (j, spec) in specs.iter().enumerate() {
        let bin = match first_link(spec) {
            Some(link) => bin_of_root[uf.find(link as u32) as usize] as usize,
            None => {
                let b = next_free % shards;
                next_free += 1;
                b
            }
        };
        shard_of_job[j] = bin as u32;
        shard_jobs[bin].push(j);
    }
    Partition { link_local, shard_links, shard_jobs, shard_of_job }
}

/// Runs `specs` on `shards` shard-local event queues and merges the
/// results into the exact outcome of the 1-shard run (fingerprint,
/// trace, records and stage reports all bit-identical up to arena
/// layout).
pub(crate) fn run_sharded(
    links: &[LinkSpec],
    shards: usize,
    trace: TraceLevel,
    specs: &[JobSpec],
) -> SimOutcome {
    let part = partition(links, shards, specs);
    // Shard runs store their traces regardless of the trace level: the
    // merge needs the events to hash them in global order.
    let runs: Vec<ShardRun> = std::thread::scope(|scope| {
        let part = &part;
        let handles: Vec<_> = (0..shards)
            .map(|s| {
                scope.spawn(move || {
                    let mut runner = Runner::new(
                        links,
                        Some(&part.link_local),
                        part.shard_links[s].iter().copied(),
                        true,
                    );
                    runner.admit_initial(part.shard_jobs[s].iter().map(|&j| &specs[j]));
                    runner.start_merge_log();
                    runner.run(&mut Passive);
                    runner.into_shard_run()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("shard thread panicked")).collect()
    });
    merge(&part, specs, trace, runs)
}

/// Replays the global `(time, seq)` schedule from the shard logs.
fn merge(
    part: &Partition,
    specs: &[JobSpec],
    trace: TraceLevel,
    runs: Vec<ShardRun>,
) -> SimOutcome {
    let mut sink = TraceSink::new(trace == TraceLevel::Full);
    // One token per in-flight scheduled event: the payload is the shard
    // whose next pop record it is. The wheel is the same structure the
    // shards themselves ran on.
    let mut tokens: TimerWheel<u32> = TimerWheel::new();
    let mut gseq = 0u64;
    // Seed the initial releases in global spec order — exactly the
    // admission order (and seq numbers 1..=n) of the 1-shard run.
    for (j, spec) in specs.iter().enumerate() {
        gseq += 1;
        tokens.push(spec.release_us, gseq, part.shard_of_job[j]);
    }
    let mut pop_cur = vec![0usize; runs.len()];
    let mut push_cur = vec![0usize; runs.len()];
    let mut trace_cur = vec![0usize; runs.len()];
    while let Some(tok) = tokens.pop() {
        let s = tok.item as usize;
        let run = &runs[s];
        let (pushed, traced) = run.log.pops[pop_cur[s]];
        pop_cur[s] += 1;
        for _ in 0..pushed {
            let at = run.log.push_times[push_cur[s]];
            push_cur[s] += 1;
            gseq += 1;
            tokens.push(at, gseq, tok.item);
        }
        for event in &run.trace[trace_cur[s]..trace_cur[s] + traced as usize] {
            sink.push(*event);
        }
        trace_cur[s] += traced as usize;
    }
    for (s, run) in runs.iter().enumerate() {
        debug_assert_eq!(pop_cur[s], run.log.pops.len(), "merge consumed every pop record");
        debug_assert_eq!(trace_cur[s], run.trace.len(), "merge consumed every trace event");
    }
    // Reassemble records in global spec order, rebasing each shard's
    // stage ranges into one concatenated arena.
    let merged_len = runs.iter().map(|r| r.stage_arena.len()).sum();
    // Every rebased range ends inside the merged arena, so bounding its
    // length bounds each offset and each `stage_base + offset` below.
    arena_u32(merged_len, "merged stage-report");
    let mut stage_arena = Vec::with_capacity(merged_len);
    let mut records = vec![None; specs.len()];
    let mut queues: Vec<VecDeque<_>> = Vec::with_capacity(runs.len());
    for run in runs {
        let offset = arena_u32(stage_arena.len(), "merged stage-report");
        stage_arena.extend_from_slice(&run.stage_arena);
        let mut rebased: VecDeque<_> = run.records.into();
        for rec in &mut rebased {
            rec.stage_base += offset;
        }
        queues.push(rebased);
    }
    for (j, slot) in records.iter_mut().enumerate() {
        let s = part.shard_of_job[j] as usize;
        *slot = queues[s].pop_front();
    }
    let records = records.into_iter().map(|r| r.expect("every spec ran on its shard")).collect();
    SimOutcome {
        records,
        stage_arena,
        trace: sink.events,
        fingerprint: sink.hash,
        events: sink.count,
    }
}
