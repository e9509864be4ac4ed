//! Simulated device/cloud platform: the compute tiers and what a
//! computation costs on each.
//!
//! The paper's overhead evaluation (§V-C2) compares general-model training
//! on a Titan-X cloud server (~43,000 billion CPU cycles, 4.55 h) against
//! per-user personalization on a low-end 2.2 GHz CPU (~15 billion cycles,
//! ~6.6 s). We have neither machine, so a computation is costed in FLOPs
//! from model shapes ([`pelican_nn::SequenceModel::infer_cost`] and
//! `train_cost`), not by counting kernels, and [`ResourceUsage::priced`]
//! turns them into *simulated* cycles and time per tier. The constants are
//! fixed, so the comparison is deterministic and machine-independent; what
//! carries over from the paper is the *ratio* between tiers.

use std::time::Duration;

use serde::{Deserialize, Serialize};

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
    fn flops_per_cycle(self) -> f64 {
        match self {
            ComputeTier::Cloud => 64.0,
            ComputeTier::Device => 2.0,
        }
    }

    /// Simulated clock frequency in Hz.
    fn clock_hz(self) -> f64 {
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

/// Resources one costed computation consumes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceUsage {
    /// Floating-point operations the computation is costed at.
    pub flops: u64,
    /// Simulated CPU cycles on the tier that ran the computation.
    pub cycles: u64,
    /// Simulated wall-clock time on that tier.
    pub simulated: Duration,
}

impl ResourceUsage {
    /// What `flops` floating-point operations cost on `tier`:
    /// `ceil(flops / flops_per_cycle)` cycles at the tier's clock. Every
    /// simulated compute time — device training and audits, cloud
    /// training, a served batch — is priced here.
    pub fn priced(tier: ComputeTier, flops: u64) -> Self {
        let cycles = (flops as f64 / tier.flops_per_cycle()).ceil() as u64;
        let simulated = Duration::from_secs_f64(cycles as f64 / tier.clock_hz());
        Self { flops, cycles, simulated }
    }

    /// Simulated cycles expressed in billions (the paper's unit).
    pub fn cycles_billions(&self) -> f64 {
        self.cycles as f64 / 1e9
    }

    /// Adds another usage record (e.g. aggregate over users).
    pub fn accumulate(&mut self, other: &ResourceUsage) {
        self.flops += other.flops;
        self.cycles += other.cycles;
        self.simulated += other.simulated;
    }

    /// A zeroed record for accumulation.
    pub fn zero() -> Self {
        Self { flops: 0, cycles: 0, simulated: Duration::ZERO }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_cycles_are_half_the_flops_rounded_up() {
        let usage = ResourceUsage::priced(ComputeTier::Device, 2 * 16 * 16 * 16);
        assert_eq!(usage.cycles, usage.flops / 2, "device retires 2 flops/cycle");
        assert_eq!(usage.simulated, Duration::from_secs_f64(4096.0 / 2.2e9));
        assert_eq!(ResourceUsage::priced(ComputeTier::Device, 3).cycles, 2, "a part cycle is one");
        assert_eq!(ResourceUsage::priced(ComputeTier::Cloud, 0), ResourceUsage::zero());
    }

    #[test]
    fn cloud_is_faster_per_flop() {
        let flops = 2 * 32 * 32 * 32;
        let cloud = ResourceUsage::priced(ComputeTier::Cloud, flops);
        let device = ResourceUsage::priced(ComputeTier::Device, flops);
        assert_eq!(cloud.flops, device.flops, "same work");
        assert!(cloud.simulated < device.simulated, "cloud tier simulates faster");
    }

    #[test]
    fn usage_accumulates() {
        let mut total = ResourceUsage::zero();
        for _ in 0..3 {
            total.accumulate(&ResourceUsage::priced(ComputeTier::Device, 2 * 8 * 8 * 8));
        }
        assert_eq!((total.flops, total.cycles), (3 * 2 * 8 * 8 * 8, 3 * 8 * 8 * 8));
    }
}
