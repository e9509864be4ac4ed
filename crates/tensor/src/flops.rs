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
