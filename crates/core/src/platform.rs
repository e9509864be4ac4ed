//! Simulated device/cloud platform: compute tiers and the network between
//! them.
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

use pelican_nn::ModelEnvelope;
use pelican_sim::LinkProfile;
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

/// A simulated network link between device and cloud.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkLink {
    /// One-way latency.
    pub latency: Duration,
    /// Throughput in bytes per second.
    pub bytes_per_second: f64,
}

impl NetworkLink {
    /// A typical WAN link between a phone and a cloud region
    /// (40 ms, 25 Mbit/s up).
    pub fn wan() -> Self {
        Self { latency: Duration::from_millis(40), bytes_per_second: 25e6 / 8.0 }
    }

    /// A campus WiFi link (8 ms, 100 Mbit/s).
    pub fn wifi() -> Self {
        Self { latency: Duration::from_millis(8), bytes_per_second: 100e6 / 8.0 }
    }

    /// Simulated time to push `bytes` across the link.
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        self.latency + Duration::from_secs_f64(bytes as f64 / self.bytes_per_second)
    }

    /// Simulated time to ship a serialized model across the link — the
    /// cost of Pelican's step-2 model download (and cloud deployment
    /// upload).
    pub fn model_transfer_time(&self, envelope: &ModelEnvelope) -> Duration {
        self.transfer_time(envelope.len())
    }

    /// This link as a [`pelican_sim`] profile, so code that priced
    /// transfers with the synchronous [`NetworkLink::transfer_time`] can
    /// hand the same latency/bandwidth shape to the discrete-event
    /// simulator (where transfers contend, overlap compute, time out and
    /// retry).
    pub fn profile(&self, name: &'static str) -> LinkProfile {
        LinkProfile {
            name,
            latency_us: self.latency.as_micros() as u64,
            bytes_per_sec: self.bytes_per_second,
        }
    }
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
    fn transfer_time_scales_with_bytes() {
        let link = NetworkLink::wifi();
        let small = link.transfer_time(1_000);
        let big = link.transfer_time(10_000_000);
        assert!(big > small);
        assert!(small >= link.latency);
    }

    #[test]
    fn wan_is_slower_than_wifi() {
        let bytes = 5_000_000;
        assert!(NetworkLink::wan().transfer_time(bytes) > NetworkLink::wifi().transfer_time(bytes));
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

    #[test]
    fn sim_profile_mirrors_the_link() {
        let link = NetworkLink::wifi();
        let profile = link.profile("wifi");
        assert_eq!(profile.latency_us, 8_000);
        assert_eq!(profile.bytes_per_sec, link.bytes_per_second);
        // Uncontended sim pricing agrees with the synchronous pricing to
        // within the sim's 1 µs rounding.
        let bytes = 3_000_000;
        let sync_us = link.transfer_time(bytes).as_micros() as u64;
        assert!(profile.transfer_us(bytes as u64).abs_diff(sync_us) <= 1);
    }
}
