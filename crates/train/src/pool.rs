//! Work-stealing trainer pool: deterministic parallel execution of
//! per-user jobs.
//!
//! Personalization jobs are embarrassingly parallel — each user's model
//! depends only on the general model and that user's private data — but
//! their *costs* vary wildly (users have different history sizes), so a
//! static partition leaves workers idle. The pool instead keeps one
//! shared queue behind an atomic cursor: an idle worker steals the next
//! unclaimed job, whatever thread would nominally "own" it, which is the
//! classic self-scheduling work-stealing discipline without the
//! per-worker deques a general fork-join runtime needs.
//!
//! Determinism is preserved by construction: a job's *result* is a pure
//! function of the job itself (per-user seeds are derived with
//! [`user_seed`], never from thread identity or steal order), and results
//! are indexed by job position, so the output is bit-identical for any
//! worker count — the property the parallel-vs-sequential tests pin down.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// A fixed-size pool of trainer workers over a shared job queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainerPool {
    workers: usize,
}

impl TrainerPool {
    /// Creates a pool with `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "trainer pool needs at least one worker");
        Self { workers }
    }

    /// Number of worker threads the pool spawns at most.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `worker` over every job, streaming each result to `consume`
    /// **on the calling thread** as soon as it is ready (completion
    /// order). This is the pipeline's publication channel: workers train
    /// and audit, the caller publishes while later jobs are still
    /// running. The pool spawns one thread per job at most; with one
    /// worker or one job no thread is spawned — jobs run inline on the
    /// calling thread in order, which doubles as the sequential reference
    /// the determinism tests compare against.
    pub fn run_streaming<J, R, F, C>(&self, jobs: &[J], worker: F, mut consume: C)
    where
        J: Sync,
        R: Send,
        F: Fn(usize, &J) -> R + Sync,
        C: FnMut(R),
    {
        let threads = self.workers.min(jobs.len());
        if threads <= 1 {
            for (i, job) in jobs.iter().enumerate() {
                consume(worker(i, job));
            }
            return;
        }
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<R>();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let tx = tx.clone();
                let cursor = &cursor;
                let worker = &worker;
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    tx.send(worker(i, job)).expect("consumer outlives the workers");
                });
            }
            drop(tx);
            for result in rx {
                consume(result);
            }
        });
    }

    /// Runs `worker` over every job and returns the results in job order
    /// (independent of which worker ran which job or in what order they
    /// finished).
    pub fn run<J, R, F>(&self, jobs: &[J], worker: F) -> Vec<R>
    where
        J: Sync,
        R: Send,
        F: Fn(usize, &J) -> R + Sync,
    {
        let mut slots: Vec<Option<R>> = jobs.iter().map(|_| None).collect();
        self.run_streaming(jobs, |i, j| (i, worker(i, j)), |(i, r)| slots[i] = Some(r));
        slots.into_iter().map(|slot| slot.expect("every job ran exactly once")).collect()
    }
}

/// Derives a per-user seed from the pipeline's base seed.
///
/// `stream` separates independent uses for the same user (layer init vs.
/// epoch shuffling) so they never correlate. The mix is the workspace's
/// shared splitmix64 ([`pelican_sim::mix64`]) — a bijective avalanche
/// over the packed input, so nearby users get unrelated seeds.
pub fn user_seed(base: u64, user_id: u64, stream: u64) -> u64 {
    pelican_sim::mix64(base ^ user_id.rotate_left(24) ^ stream.rotate_left(48))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn results_come_back_in_job_order_for_any_worker_count() {
        let jobs: Vec<u64> = (0..57).collect();
        let square = |_: usize, j: &u64| j * j;
        let sequential = TrainerPool::new(1).run(&jobs, square);
        for workers in [2, 3, 8] {
            assert_eq!(TrainerPool::new(workers).run(&jobs, square), sequential);
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let jobs: Vec<usize> = (0..40).collect();
        let ran = Mutex::new(Vec::new());
        TrainerPool::new(4).run(&jobs, |i, _| ran.lock().unwrap().push(i));
        let mut ran = ran.into_inner().unwrap();
        ran.sort_unstable();
        assert_eq!(ran, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn streaming_consumes_every_result_on_the_calling_thread() {
        let jobs: Vec<usize> = (0..30).collect();
        let caller = std::thread::current().id();
        let mut seen = Vec::new();
        TrainerPool::new(4).run_streaming(
            &jobs,
            |_, &j| j * 10,
            |r| {
                assert_eq!(std::thread::current().id(), caller);
                seen.push(r);
            },
        );
        seen.sort_unstable();
        assert_eq!(seen, (0..30).map(|j| j * 10).collect::<Vec<_>>());
    }

    #[test]
    fn a_lone_job_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let out = TrainerPool::new(8).run(&[7u64], |_, j| (std::thread::current().id(), j * 3));
        assert_eq!(out, [(caller, 21)], "eight workers spawned a thread for one job");
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out = TrainerPool::new(8).run(&Vec::<u8>::new(), |_, _| 1);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = TrainerPool::new(0);
    }

    #[test]
    fn user_seeds_separate_users_and_streams() {
        let mut seen = HashSet::new();
        for user in 0..100u64 {
            for stream in 0..3 {
                assert!(seen.insert(user_seed(42, user, stream)), "seed collision");
            }
        }
        assert_eq!(user_seed(42, 7, 0), user_seed(42, 7, 0), "pure function");
        assert_ne!(user_seed(42, 7, 0), user_seed(43, 7, 0), "base seed matters");
    }
}
