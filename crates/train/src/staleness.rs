//! The staleness-window bookkeeping shared by every swap-the-fleet-back
//! flow.
//!
//! Both the [`rollback`](crate::rollback) study and the A/B losing-arm
//! flip-back answer the same operational questions after a detection
//! fires: how long until the *last* replica swapped (the staleness
//! window a contended push link stretches), how long were users exposed
//! in total, and — the correctness gate — did any degraded answer slip
//! out *after* its replica had already swapped? Extracting the
//! measurement keeps the two flows honest about using identical
//! definitions — down to the instant a query is logged: both serve their
//! queries through the serving tier and log each one at its batch's
//! `dispatched_us`, the seal that bound the model it was answered by.

/// The detection→swap timeline of one fleet-wide swap-back, all times on
/// the virtual clock (µs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StalenessWindow {
    /// When the detector (canary probe, A/B verdict, …) fired.
    pub detected_at_us: u64,
    /// First replica swapped.
    pub first_swap_us: u64,
    /// Last replica swapped; the fleet is clean from here on.
    pub last_swap_us: u64,
}

impl StalenessWindow {
    /// Measures the window from the detection instant and the per-replica
    /// swap completion times.
    ///
    /// # Panics
    ///
    /// Panics if `swap_times` is empty or any swap precedes detection.
    pub fn measure(detected_at_us: u64, swap_times: &[u64]) -> Self {
        let first_swap_us = *swap_times.iter().min().expect("at least one replica swapped");
        let last_swap_us = *swap_times.iter().max().expect("at least one replica swapped");
        assert!(detected_at_us <= first_swap_us, "a swap cannot precede its detection");
        Self { detected_at_us, first_swap_us, last_swap_us }
    }

    /// `last_swap_us - detected_at_us`: the span contended push links
    /// stretch.
    pub fn staleness_us(&self) -> u64 {
        self.last_swap_us - self.detected_at_us
    }

    /// `last_swap_us - cause_at_us`: total degraded exposure measured
    /// from the instant the bad state landed (regression publication,
    /// losing-rung rollout, …).
    ///
    /// # Panics
    ///
    /// Panics if the cause postdates the last swap.
    pub fn exposure_us(&self, cause_at_us: u64) -> u64 {
        self.last_swap_us
            .checked_sub(cause_at_us)
            .expect("the cause precedes the swap that fixes it")
    }
}

/// Counts log entries that are degraded *and* logged after their
/// replica's swap — the number that must be zero if swapping restores
/// exact prior behavior. `log` entries are `(at_us, replica, degraded)`
/// with `replica` indexing `swap_times` and `at_us` the instant the
/// answering model was bound; entries at exactly the swap instant belong
/// to the old model (the swap is visible only to later lookups).
pub fn count_degraded_after_swap(log: &[(u64, usize, bool)], swap_times: &[u64]) -> usize {
    log.iter().filter(|(at, replica, degraded)| *degraded && *at > swap_times[*replica]).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_spans_min_to_max_swap() {
        let w = StalenessWindow::measure(100, &[250, 180, 300]);
        assert_eq!(w.first_swap_us, 180);
        assert_eq!(w.last_swap_us, 300);
        assert_eq!(w.staleness_us(), 200);
        assert_eq!(w.exposure_us(40), 260);
    }

    #[test]
    fn single_replica_window_can_be_zero_wide() {
        let w = StalenessWindow::measure(50, &[50]);
        assert_eq!(w.staleness_us(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot precede")]
    fn swaps_before_detection_are_rejected() {
        StalenessWindow::measure(100, &[90, 150]);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_swap_sets_are_rejected() {
        StalenessWindow::measure(0, &[]);
    }

    #[test]
    fn degraded_after_swap_counts_strictly_later_entries() {
        let swaps = [200, 400];
        let log = [
            (150, 0, true),  // degraded, but before the swap: exposure, not a bug
            (200, 0, true),  // at the swap instant: still the old model
            (201, 0, true),  // after the swap: counted
            (500, 1, false), // after the swap but clean
            (450, 1, true),  // counted
        ];
        assert_eq!(count_degraded_after_swap(&log, &swaps), 2);
        assert_eq!(count_degraded_after_swap(&[], &swaps), 0);
    }
}
