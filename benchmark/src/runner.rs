//! The loop every workload runs in: repeated set-up, one discarded
//! warm-up, timed iterations with per-iteration fresh state built off
//! the clock, the fingerprint check, and — in the traced pass — the
//! span dump and the per-layer probes.

use std::path::PathBuf;
use std::time::Instant;

use crate::host;
use crate::pace::Reference;
use crate::row::{Iteration, Metrics, Row};
use crate::spans::Tracer;
use crate::spec::EXACT_END_TO_END;
use crate::stats::median;

/// Set-up is repeated in a full run, so `setup_s` is a median: at least
/// `SETUPS.0` times, and — a millisecond set-up needs far more samples to
/// be steady than a two-second one — on until `SETUP_BUDGET_S` is spent or
/// `SETUPS.1` are done.
const SETUPS: (usize, usize) = (3, 1001);
const SETUP_BUDGET_S: f64 = 1.0;
/// Fewest timed iterations a full run reports a median of.
const MIN_ITERATIONS: usize = 3;

/// What the clock read over one iteration's timed regions.
#[derive(Debug, Clone, Copy, Default)]
struct Lap {
    /// Host wall and CPU seconds as they passed.
    raw_wall_s: f64,
    raw_cpu_s: f64,
    /// Wall seconds at the reference machine's pace.
    wall_s: f64,
}

/// Times the regions a workload marks, and carries the tracer into them.
pub struct Clock {
    pub tracer: Tracer,
    reference: Reference,
    lap: Lap,
}

impl Clock {
    fn new(tracer: Tracer) -> Self {
        Self { tracer, reference: Reference::new(), lap: Lap::default() }
    }

    /// Runs `f` on the clock. Everything a workload does outside `timed`
    /// — building inputs, checking outputs — costs the iteration nothing.
    ///
    /// A reference pass before and one after give the machine's pace
    /// over the region (see [`crate::pace`]); the region's wall seconds
    /// are divided by it.
    pub fn timed<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let before = self.reference.pace();
        let cpu = host::cpu_seconds();
        let wall = Instant::now();
        let out = f(&mut self.tracer);
        let wall = wall.elapsed().as_secs_f64();
        let cpu = host::cpu_seconds() - cpu;
        let pace = (before + self.reference.pace()) / 2.0;
        self.lap.raw_wall_s += wall;
        self.lap.raw_cpu_s += cpu;
        self.lap.wall_s += wall / pace;
        out
    }

    fn take(&mut self) -> Lap {
        std::mem::take(&mut self.lap)
    }
}

/// One workload: how its inputs are made from the seed, what one
/// iteration calls, and which layers its traced pass probes.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// What one op is.
    const OP: &'static str;
    /// State an iteration consumes, rebuilt before each one off the clock
    /// (a registry to publish into, a store to fill).
    type Fresh;

    /// Builds every input from `seed`. `quick` shrinks the sizes to a
    /// smoke test.
    fn setup(seed: u64, quick: bool, tracer: &mut Tracer) -> Self;

    fn fresh(&self) -> Self::Fresh;

    /// One iteration: the product calls go inside `clock.timed`, reading
    /// the outcome and checking it stay outside.
    fn iterate(&self, fresh: Self::Fresh, clock: &mut Clock) -> Iteration;

    /// Traced pass only: times single public calls of the layers this
    /// workload exercises, and reads the spans the traced iterations left.
    /// `metrics` already holds what the last iteration reported.
    fn probe(&self, timed: Timed, tracer: &mut Tracer, metrics: &mut Metrics);
}

/// What the untraced iterations of a traced pass measured, for probes
/// that report a share of it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Median wall time of one iteration, in host seconds as they passed
    /// — what the probes' own timings are in.
    pub wall_s: f64,
    /// Ops one iteration completed.
    pub ops: u64,
}

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub quick: bool,
    pub trace: bool,
    /// How long to keep timing iterations.
    pub seconds: f64,
}

/// Where the traced pass writes its spans.
pub fn spans_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.jsonl"))
}

/// The violation to report if `iteration` did not reproduce the warm-up's
/// outputs.
fn fingerprint_drift(
    iteration: &Iteration,
    reference: Option<&Iteration>,
    n: usize,
) -> Option<String> {
    let reference = reference?;
    (iteration.fingerprint != reference.fingerprint).then(|| {
        format!(
            "iteration {n} fingerprint {:#018x} differs from the warm-up's {:#018x}",
            iteration.fingerprint, reference.fingerprint
        )
    })
}

/// Runs workload `W` under `options` and returns its row.
pub fn run<W: Workload>(options: &Options) -> Row {
    let trace = options.trace;
    let mut clock = Clock::new(if trace { Tracer::on() } else { Tracer::off() });

    let once = options.quick || trace;
    let mut setup_s = Vec::new();
    let (mut spent, mut unpaced) = (0.0, 0.0);
    let mut pace = clock.reference.pace();
    let workload = loop {
        let started = Instant::now();
        let workload = W::setup(options.seed, options.quick, &mut clock.tracer);
        let took = started.elapsed().as_secs_f64();
        spent += took;
        unpaced += took;
        // A set-up can be a fraction of a millisecond, far shorter than
        // a reference pass: the pace is read again only once a tenth of
        // a second of set-ups has gone by on the last reading.
        let next = if unpaced >= 0.1 { clock.reference.pace() } else { pace };
        setup_s.push(took / ((pace + next) / 2.0));
        if unpaced >= 0.1 {
            (pace, unpaced) = (next, 0.0);
        }
        let n = setup_s.len();
        if once || n >= SETUPS.1 || (n >= SETUPS.0 && spent >= SETUP_BUDGET_S) {
            break workload;
        }
    };

    // Warm-up: fills allocator pools and caches, and is the reference
    // every later iteration's fingerprint must match. Untraced, like
    // every iteration the end-to-end metrics are taken from.
    clock.tracer.pause();
    let reference = if options.quick {
        None
    } else {
        let warm = workload.iterate(workload.fresh(), &mut clock);
        clock.take();
        Some(warm)
    };

    let enough = |n: usize, spent: f64| {
        if options.quick {
            n >= 1
        } else {
            n >= MIN_ITERATIONS && spent >= options.seconds
        }
    };
    let (mut wall, mut raw_cpu, mut raw_wall, mut traced_wall) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut spent = 0.0;
    let mut last: Option<Iteration> = None;
    let mut violations = Vec::new();
    while !enough(wall.len(), spent) {
        // The traced pass alternates an untraced and a traced iteration,
        // so both see the same machine state; their ratio is the
        // tracing overhead.
        let mut latest = workload.iterate(workload.fresh(), &mut clock);
        let lap = clock.take();
        wall.push(lap.wall_s);
        raw_cpu.push(lap.raw_cpu_s);
        raw_wall.push(lap.raw_wall_s);
        spent += lap.raw_wall_s;
        if trace {
            violations.extend(fingerprint_drift(&latest, reference.as_ref(), wall.len()));
            clock.tracer.resume();
            latest = workload.iterate(workload.fresh(), &mut clock);
            clock.tracer.pause();
            let lap = clock.take();
            traced_wall.push(lap.wall_s);
            spent += lap.raw_wall_s;
        }
        violations.extend(fingerprint_drift(&latest, reference.as_ref(), wall.len()));
        last = Some(latest);
    }
    let last = last.expect("at least one iteration ran");
    violations.extend(last.violations);
    if last.failed > 0 {
        violations.push(format!("{} of {} ops failed", last.failed, last.attempted));
    }

    let wall_s = median(&wall);
    let raw_wall_s = median(&raw_wall);
    let mut metrics = Metrics::default();
    let mut samples = Vec::new();
    if trace {
        metrics.extend(last.metrics);
        let timed = Timed { wall_s: raw_wall_s, ops: last.attempted - last.failed };
        clock.tracer.resume();
        workload.probe(timed, &mut clock.tracer, &mut metrics);
        metrics.measured("trace_overhead_share", median(&traced_wall) / wall_s - 1.0);
        samples.push(("traced_wall_s", traced_wall));
        if let Err(e) = clock.tracer.dump(&spans_path(W::NAME, options.seed), W::NAME) {
            violations.push(format!("could not write the spans: {e}"));
        }
    } else {
        metrics.timing("setup_s", &setup_s, 1.0);
        metrics.timing("wall_s", &wall, 1.0);
        // The kernel counts CPU time in 10 ms ticks, too coarse to take
        // a median of single iterations: the process's CPU share of all
        // the timed seconds, times the median iteration. One skewed pace
        // reading moves one wall sample, which the median discards.
        let cpu_share = raw_cpu.iter().sum::<f64>() / raw_wall.iter().sum::<f64>();
        metrics.measured("cpu_s", cpu_share * wall_s);
        metrics.measured("ops_per_s", (last.attempted - last.failed) as f64 / wall_s);
        metrics.measured("peak_rss_mb", host::peak_rss_mb());
        // Per-layer counts read off the outcome belong to the traced pass.
        metrics.extend(last.metrics.only(&EXACT_END_TO_END));
        samples.push(("raw_cpu_s", raw_cpu));
    }
    let iterations = wall.len();
    samples.extend([("wall_s", wall), ("raw_wall_s", raw_wall), ("setup_s", setup_s)]);

    Row {
        workload: W::NAME,
        op: W::OP,
        mode: if trace { "trace" } else { "run" },
        quick: options.quick,
        seed: options.seed,
        iterations,
        attempted: last.attempted,
        failed: last.failed,
        fingerprint: last.fingerprint,
        violations,
        metrics,
        samples,
    }
}
