//! Per-thread floating-point-operation accounting.
//!
//! The Pelican paper compares the *compute cost* of cloud-side general-model
//! training against device-side transfer-learning personalization
//! (≈43,000 billion CPU cycles vs ≈15 billion, §V-C2). We reproduce that
//! comparison on simulated hardware by counting the FLOPs every kernel in
//! this crate performs and letting the platform layer convert counts into
//! simulated cycles.
//!
//! Each thread counts its own work in a thread-local cell and nothing is
//! shared: a measurement reads only what its own thread recorded, so it
//! is exact whatever else the process is running, and a kernel call pays
//! no atomic. Work spread over a pool is summed from the per-job
//! measurements its workers take.

use std::cell::Cell;

thread_local! {
    /// FLOPs this thread has recorded since it started.
    static THREAD_FLOPS: Cell<u64> = const { Cell::new(0) };

    /// The subset of [`THREAD_FLOPS`] recorded by *fused batched*
    /// kernels, which record into both: `batched / total` is the
    /// fraction of work that went through a fused path — the number the
    /// `train-batched` experiment reports.
    static THREAD_BATCHED_FLOPS: Cell<u64> = const { Cell::new(0) };
}

/// Adds `n` floating-point operations to this thread's counter.
///
/// Kernels in this crate call this internally; external code only needs it
/// when implementing custom kernels that should participate in overhead
/// accounting.
#[inline]
pub fn record_flops(n: u64) {
    THREAD_FLOPS.with(|c| c.set(c.get().wrapping_add(n)));
}

/// Tags `n` already-recorded FLOPs as having gone through a fused batched
/// kernel.
///
/// Batched kernels call [`record_flops`] with the same count a sequence of
/// their scalar equivalents would have recorded (the FLOP-parity
/// contract), then call this with that count. The tag is therefore always
/// a subset of the total: `thread_batched_flops_now() <= thread_flops_now()`.
#[inline]
pub fn note_batched_flops(n: u64) {
    THREAD_BATCHED_FLOPS.with(|c| c.set(c.get().wrapping_add(n)));
}

/// FLOPs recorded by fused batched kernels on *this thread* since it
/// started.
#[inline]
pub fn thread_batched_flops_now() -> u64 {
    THREAD_BATCHED_FLOPS.with(Cell::get)
}

/// FLOPs recorded by *this thread* since it started.
#[inline]
pub fn thread_flops_now() -> u64 {
    THREAD_FLOPS.with(Cell::get)
}

/// Measures the FLOPs this thread performs between construction and
/// [`ThreadFlopGuard::stop`].
///
/// The measurement is exact even while other threads record
/// concurrently — each thread counts only its own contributions — which
/// is what makes per-job cost accounting deterministic across
/// trainer-pool widths. The measured closure must stay on one thread;
/// work it spawns elsewhere is not attributed.
///
/// # Example
///
/// ```
/// use pelican_tensor::{Matrix, ThreadFlopGuard};
///
/// let guard = ThreadFlopGuard::start();
/// let a = Matrix::zeros(8, 8);
/// let _ = a.matmul(&a);
/// let spent = guard.stop();
/// assert_eq!(spent, 2 * 8 * 8 * 8); // 2·m·k·n for GEMM
/// ```
#[derive(Debug)]
pub struct ThreadFlopGuard {
    start: u64,
}

impl ThreadFlopGuard {
    /// Begins a scoped per-thread measurement.
    pub fn start() -> Self {
        Self { start: thread_flops_now() }
    }

    /// Ends the measurement and returns this thread's FLOPs in between.
    pub fn stop(self) -> u64 {
        thread_flops_now().wrapping_sub(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_measures_delta() {
        let g = ThreadFlopGuard::start();
        record_flops(123);
        assert_eq!(g.stop(), 123);
    }

    #[test]
    fn counter_accumulates() {
        let before = thread_flops_now();
        record_flops(7);
        record_flops(3);
        assert_eq!(thread_flops_now() - before, 10);
    }

    #[test]
    fn batched_tag_is_a_subset_of_total() {
        let total = ThreadFlopGuard::start();
        let batched_before = thread_batched_flops_now();
        record_flops(40);
        note_batched_flops(40); // a fused kernel tags what it recorded
        record_flops(10); // a scalar kernel records untagged
        let batched = thread_batched_flops_now().wrapping_sub(batched_before);
        assert_eq!(total.stop(), 50);
        assert_eq!(batched, 40);
    }

    #[test]
    fn thread_guard_ignores_other_threads() {
        let guard = ThreadFlopGuard::start();
        record_flops(11);
        // A concurrent thread records into its own counter and must not
        // perturb this thread's measurement.
        std::thread::spawn(|| record_flops(1_000)).join().unwrap();
        record_flops(4);
        assert_eq!(guard.stop(), 15);
    }
}
