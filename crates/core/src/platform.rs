//! Simulated device/cloud platform: the compute tiers and what a
//! computation costs on each.
//!
//! The paper's overhead evaluation (§V-C2) compares general-model training
//! on a Titan-X cloud server (~43,000 billion CPU cycles, 4.55 h) against
//! per-user personalization on a low-end 2.2 GHz CPU (~15 billion cycles,
//! ~6.6 s). We have neither machine, so the workspace counts the FLOPs
//! every kernel performs (see [`pelican_tensor::flops`]) and converts them
//! into *simulated* cycles and wall time per tier. The conversion constants
//! are fixed, so the reproduced comparison is deterministic and
//! machine-independent; what carries over from the paper is the *ratio*
//! between tiers, not absolute seconds.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use pelican_tensor::ThreadFlopGuard;

/// Where a computation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComputeTier {
    /// A GPU-equipped cloud server (the paper's Titan-X box).
    Cloud,
    /// A resource-constrained mobile/edge device (the paper's 2.2 GHz CPU).
    Device,
}

impl ComputeTier {
    /// Useful floating-point operations retired per simulated cycle.
    ///
    /// The cloud tier models a GPU-accelerated server (wide SIMD + many
    /// cores fused into one "cycle" budget); the device tier a single
    /// low-power core.
    pub fn flops_per_cycle(self) -> f64 {
        match self {
            ComputeTier::Cloud => 64.0,
            ComputeTier::Device => 2.0,
        }
    }

    /// Simulated clock frequency in Hz.
    pub fn clock_hz(self) -> f64 {
        match self {
            ComputeTier::Cloud => 2.6e9,
            ComputeTier::Device => 2.2e9,
        }
    }
}

impl std::fmt::Display for ComputeTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComputeTier::Cloud => write!(f, "cloud"),
            ComputeTier::Device => write!(f, "device"),
        }
    }
}

/// Resources consumed by one measured computation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceUsage {
    /// Floating-point operations actually performed.
    pub flops: u64,
    /// Simulated CPU cycles on the tier that ran the computation.
    pub cycles: u64,
    /// Simulated wall-clock time on that tier.
    pub simulated: Duration,
    /// Real wall-clock time on the host running the simulation.
    pub host_elapsed: Duration,
}

impl ResourceUsage {
    /// Simulated cycles expressed in billions (the paper's unit).
    pub fn cycles_billions(&self) -> f64 {
        self.cycles as f64 / 1e9
    }

    /// Adds another usage record (e.g. aggregate over users).
    pub fn accumulate(&mut self, other: &ResourceUsage) {
        self.flops += other.flops;
        self.cycles += other.cycles;
        self.simulated += other.simulated;
        self.host_elapsed += other.host_elapsed;
    }

    /// A zeroed record for accumulation.
    pub fn zero() -> Self {
        Self { flops: 0, cycles: 0, simulated: Duration::ZERO, host_elapsed: Duration::ZERO }
    }
}

/// Runs `f`, attributing *this thread's* floating-point work to `tier`.
///
/// Returns the closure's output along with the resources consumed. Each
/// thread mirrors its own FLOP contributions, so work recorded
/// concurrently on other threads — a trainer-pool worker, another test —
/// never leaks into the measurement: a worker pool measures per-job
/// costs, and a serving shard per-batch service times, that are
/// bit-identical whatever else the process is doing. The closure must
/// not spawn threads of its own — work done elsewhere is not attributed.
pub fn measure_thread<T>(tier: ComputeTier, f: impl FnOnce() -> T) -> (T, ResourceUsage) {
    let guard = ThreadFlopGuard::start();
    let wall = std::time::Instant::now();
    let out = f();
    let host_elapsed = wall.elapsed();
    let flops = guard.stop();
    let cycles = (flops as f64 / tier.flops_per_cycle()).ceil() as u64;
    let simulated = Duration::from_secs_f64(cycles as f64 / tier.clock_hz());
    (out, ResourceUsage { flops, cycles, simulated, host_elapsed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelican_tensor::Matrix;

    #[test]
    fn measure_attributes_flops() {
        let a = Matrix::zeros(16, 16);
        let ((), usage) = measure_thread(ComputeTier::Device, || {
            let _ = a.matmul(&a);
        });
        assert_eq!(usage.flops, 2 * 16 * 16 * 16);
        assert_eq!(usage.cycles, usage.flops / 2, "device retires 2 flops/cycle");
        assert!(usage.simulated > Duration::ZERO);
    }

    #[test]
    fn cloud_is_faster_per_flop() {
        let a = Matrix::zeros(32, 32);
        let ((), cloud) = measure_thread(ComputeTier::Cloud, || {
            let _ = a.matmul(&a);
        });
        let ((), device) = measure_thread(ComputeTier::Device, || {
            let _ = a.matmul(&a);
        });
        assert_eq!(cloud.flops, device.flops, "same work");
        assert!(cloud.simulated < device.simulated, "cloud tier simulates faster");
    }

    #[test]
    fn usage_accumulates() {
        let mut total = ResourceUsage::zero();
        let a = Matrix::zeros(8, 8);
        for _ in 0..3 {
            let ((), u) = measure_thread(ComputeTier::Device, || {
                let _ = a.matmul(&a);
            });
            total.accumulate(&u);
        }
        assert_eq!(total.flops, 3 * 2 * 8 * 8 * 8);
    }

    #[test]
    fn measure_thread_is_immune_to_concurrent_work() {
        let a = Matrix::zeros(16, 16);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let ((), usage) = std::thread::scope(|scope| {
            // A noisy neighbour records FLOPs the whole time; the
            // per-thread measurement must not see any of it.
            scope.spawn(|| {
                let b = Matrix::zeros(8, 8);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let _ = b.matmul(&b);
                }
            });
            let out = measure_thread(ComputeTier::Device, || {
                let _ = a.matmul(&a);
            });
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            out
        });
        assert_eq!(usage.flops, 2 * 16 * 16 * 16, "exactly this thread's work");
        assert_eq!(usage.cycles, usage.flops / 2);
    }
}
