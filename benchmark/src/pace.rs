//! The machine's pace, measured beside every timed region.
//!
//! The boxes this benchmark runs on do not hold one speed. A neighbour
//! on the sibling hyperthread slows arithmetic by a quarter or more for
//! seconds at a time, CPU time stretching with wall time; a neighbour in
//! the shared cache does the same to loads that miss. Back to back,
//! identical 2 s iterations of `enroll_fleet` took 2.17 s in one process
//! and 2.91 s in the next. A ten-second run cannot average that away.
//! What it can do is time fixed work of its own — the reference pass
//! below — just before and just after each timed region, and state the
//! region's time in the seconds it would have taken had the machine run
//! the pass in [`REFERENCE_S`] throughout. On the runs above that
//! brought a 0.28 spread down to 0.08. The correction is partial (a
//! spell can begin mid-region, and no fixed pass has a workload's exact
//! instruction mix), so every row also keeps the raw seconds.
//!
//! The pass is the benchmark's own code and touches nothing of the
//! crates, so no change to them can move it.

use std::hint::black_box;
use std::time::Instant;

/// Time of one reference pass on the reference machine. A definition,
/// not a measurement: the undisturbed spells of the 2.1 GHz Xeon the
/// benchmark was built on run the pass in about this long, so there a
/// pace of 1.0 means "undisturbed" and reference seconds read like that
/// box's own.
pub const REFERENCE_S: f64 = 0.008;

/// The pass: dot products over 64 KB of `f32` — dense arithmetic on a
/// cache-resident array, what the model kernels are made of.
const WEIGHTS: usize = 16 * 1024;
const DOTS: usize = 1000;

pub struct Reference {
    weights: Vec<f32>,
}

impl Reference {
    pub fn new() -> Self {
        Self { weights: (0..WEIGHTS).map(|i| ((i * 37 % 101) as f32 - 50.0) / 64.0).collect() }
    }

    fn dot(&self) -> f32 {
        let w = black_box(&self.weights);
        w.iter().zip(w.iter().rev()).map(|(a, b)| a * b).sum()
    }

    /// How many times longer than [`REFERENCE_S`] the pass takes right
    /// now: above 1 the machine is slower than the reference, below 1
    /// faster.
    pub fn pace(&self) -> f64 {
        // The region before may have emptied the caches; the first sweep
        // refills them off the clock, so the pass times arithmetic, not
        // what the workload left behind.
        black_box(self.dot());
        let started = Instant::now();
        let sum: f32 = (0..DOTS).map(|_| self.dot()).sum();
        black_box(sum);
        started.elapsed().as_secs_f64() / REFERENCE_S
    }
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pace_is_positive_and_of_order_one() {
        let pace = Reference::new().pace();
        assert!(pace > 0.01 && pace < 100.0, "pace {pace}: the pass is mis-sized here");
    }
}
