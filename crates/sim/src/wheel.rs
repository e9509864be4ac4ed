//! Hierarchical timer wheel: the engine's O(1) event queue.
//!
//! A binary heap spends `O(log n)` per schedule/fire, which at 10⁵–10⁶
//! concurrent devices puts the comparator on every profile. The wheel
//! replaces it with the classic hashed-and-hierarchical scheme
//! (Varghese & Lauck): `LEVELS` levels of `SLOTS` slots each, where
//! a level-`l` slot spans `64^l` µs, so level 0 resolves single
//! microseconds and the top level covers ~19 virtual hours. Scheduling
//! hashes the deadline to one slot (a shift and a mask); firing scans a
//! 64-bit occupancy bitmap per level with `trailing_zeros`. Events
//! beyond the wheel's horizon fall back to a sorted far-future bucket
//! that refills the wheel when everything nearer has fired.
//!
//! The wheel preserves the engine's determinism contract exactly: entries
//! pop in `(time, seq)` order, identical to the `BinaryHeap<Reverse<_>>`
//! it replaces (a property test pins this against the reference heap on
//! random schedule/fire interleavings). Same-instant entries in one slot
//! are ordered by `seq` with one sort per batch — amortized O(1) because
//! each entry is sorted at most once.
//!
//! There is no global time authority here: [`TimerWheel::now`] only
//! advances when the caller pops, so the wheel is a pure priority queue
//! over `(at, seq)` with the restriction (natural for discrete-event
//! simulation) that pushes never schedule before the last popped time.

use std::collections::VecDeque;
use std::mem;

/// Bits per level: each level has `2^SLOT_BITS` slots.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel depth. Horizon = `2^(SLOT_BITS * LEVELS)` µs ≈ 19.1 hours.
const LEVELS: usize = 6;
/// Deadlines at or beyond `now + HORIZON_US` may land in the overflow
/// bucket (the exact cutoff is the enclosing `2^36`-aligned window).
const HORIZON_US: u64 = 1 << (SLOT_BITS * LEVELS as u32);

/// One scheduled entry: fires at `at`, ties broken by `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry<T> {
    /// Deadline in µs of virtual time.
    pub at: u64,
    /// Global insertion sequence; the tie-breaker at equal deadlines.
    pub seq: u64,
    /// Caller payload.
    pub item: T,
}

#[derive(Debug, Clone)]
struct Level<T> {
    /// Bit `s` set ⇔ `slots[s]` is non-empty.
    occupied: u64,
    slots: Vec<Vec<Entry<T>>>,
}

impl<T> Level<T> {
    fn new() -> Self {
        Self { occupied: 0, slots: (0..SLOTS).map(|_| Vec::new()).collect() }
    }
}

/// A hierarchical timer wheel ordering entries by `(at, seq)`.
///
/// Pops must be monotone and pushes may not schedule into the past:
/// `push` debug-asserts `at >= now()`, where `now()` is the deadline of
/// the most recently popped entry. Within those rules the pop order is
/// bit-identical to a min-heap over `(at, seq)`.
#[derive(Debug, Clone)]
pub struct TimerWheel<T> {
    now: u64,
    /// Entries currently held in `levels` + `ready` (overflow excluded).
    len: usize,
    levels: Vec<Level<T>>,
    /// The current instant's batch, already sorted by `seq`.
    ready: VecDeque<Entry<T>>,
    /// Beyond-horizon entries; sorted ascending by `(at, seq)` lazily.
    overflow: Vec<Entry<T>>,
    overflow_sorted: bool,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel with the clock at 0.
    pub fn new() -> Self {
        Self {
            now: 0,
            len: 0,
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            ready: VecDeque::new(),
            overflow: Vec::new(),
            overflow_sorted: true,
        }
    }

    /// The deadline of the most recently popped entry (0 before any pop).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of scheduled entries.
    pub fn len(&self) -> usize {
        self.len + self.overflow.len()
    }

    /// Whether no entries are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0 && self.overflow.is_empty()
    }

    /// Schedules `item` at `(at, seq)`.
    ///
    /// `at` must not precede the last popped deadline and `seq` is
    /// expected to be unique and increasing in call order — both hold by
    /// construction inside the engine (the clock never rewinds and seqs
    /// come from one counter).
    pub fn push(&mut self, at: u64, seq: u64, item: T) {
        debug_assert!(at >= self.now, "schedule into the past: at={at} now={}", self.now);
        self.place(Entry { at, seq, item });
    }

    /// Routes an entry to its level/slot, or to the overflow bucket.
    fn place(&mut self, e: Entry<T>) {
        let diff = e.at ^ self.now;
        let level = if diff == 0 { 0 } else { ((63 - diff.leading_zeros()) / SLOT_BITS) as usize };
        if level >= LEVELS {
            // Sorted-order appends (the common refill pattern) keep the
            // bucket sorted without paying a re-sort.
            if self.overflow_sorted {
                if let Some(last) = self.overflow.last() {
                    if (e.at, e.seq) < (last.at, last.seq) {
                        self.overflow_sorted = false;
                    }
                }
            }
            self.overflow.push(e);
            return;
        }
        let slot = ((e.at >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let lv = &mut self.levels[level];
        lv.slots[slot].push(e);
        lv.occupied |= 1 << slot;
        self.len += 1;
    }

    /// Removes and returns the earliest entry (`(at, seq)` order), or
    /// `None` if the wheel is empty. Advances [`TimerWheel::now`] to the
    /// returned deadline.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        loop {
            if let Some(e) = self.ready.pop_front() {
                self.len -= 1;
                self.now = e.at;
                return Some(e);
            }
            if self.len == 0 {
                if self.overflow.is_empty() {
                    return None;
                }
                self.refill();
                continue;
            }
            if self.levels[0].occupied == 0 {
                self.cascade();
                continue;
            }
            // Lowest occupied level-0 slot is the next instant: every
            // entry is >= now, so no slot below now's position is set.
            let slot = self.levels[0].occupied.trailing_zeros() as usize;
            self.levels[0].occupied &= !(1 << slot);
            let mut batch = mem::take(&mut self.levels[0].slots[slot]);
            if batch.len() > 1 {
                batch.sort_unstable_by_key(|e| e.seq);
            }
            debug_assert!(batch.windows(2).all(|w| w[0].at == w[1].at));
            self.ready.extend(batch.drain(..));
            self.levels[0].slots[slot] = batch; // hand the allocation back
        }
    }

    /// Advances the clock to the earliest occupied higher-level slot and
    /// re-places its entries one level (or more) down.
    fn cascade(&mut self) {
        for level in 1..LEVELS {
            if self.levels[level].occupied == 0 {
                continue;
            }
            let slot = self.levels[level].occupied.trailing_zeros() as usize;
            let shift = SLOT_BITS * level as u32;
            // Jump now to the start of that slot's window; entries inside
            // re-place strictly below `level` because their upper bits now
            // match the clock.
            let upper = self.now >> (shift + SLOT_BITS) << (shift + SLOT_BITS);
            self.now = upper | (slot as u64) << shift;
            self.levels[level].occupied &= !(1 << slot);
            let mut batch = mem::take(&mut self.levels[level].slots[slot]);
            self.len -= batch.len();
            for e in batch.drain(..) {
                self.place(e);
            }
            self.levels[level].slots[slot] = batch;
            return;
        }
        unreachable!("cascade with entries on the wheel but no occupied level");
    }

    /// All wheel levels drained: move the overflow prefix that now fits
    /// under the horizon back onto the wheel.
    fn refill(&mut self) {
        debug_assert_eq!(self.len, 0);
        if !self.overflow_sorted {
            self.overflow.sort_unstable_by_key(|e| (e.at, e.seq));
            self.overflow_sorted = true;
        }
        self.now = self.overflow[0].at;
        // The wheel's addressable window is the 2^36-aligned span around
        // `now`; the overflow is sorted, so eligible entries are a prefix.
        let window_end =
            (self.now >> (SLOT_BITS * LEVELS as u32) << (SLOT_BITS * LEVELS as u32)) + HORIZON_US;
        let cut = self.overflow.partition_point(|e| e.at < window_end);
        let rest = self.overflow.split_off(cut);
        let refit = mem::replace(&mut self.overflow, rest);
        for e in refit {
            self.place(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn drain(wheel: &mut TimerWheel<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = wheel.pop() {
            out.push((e.at, e.seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        w.push(50, 1, 0);
        w.push(10, 2, 0);
        w.push(10, 3, 0);
        w.push(0, 4, 0);
        assert_eq!(w.len(), 4);
        assert_eq!(drain(&mut w), vec![(0, 4), (10, 2), (10, 3), (50, 1)]);
        assert!(w.is_empty());
    }

    #[test]
    fn same_instant_pushes_during_pop_fire_after_ready_batch() {
        let mut w = TimerWheel::new();
        w.push(5, 1, 0);
        w.push(5, 2, 0);
        let first = w.pop().unwrap();
        assert_eq!((first.at, first.seq), (5, 1));
        // A handler scheduling at the current instant gets a larger seq
        // and must fire after the already-extracted batch.
        w.push(5, 3, 0);
        assert_eq!(drain(&mut w), vec![(5, 2), (5, 3)]);
    }

    #[test]
    fn far_future_entries_survive_the_overflow_bucket() {
        let mut w = TimerWheel::new();
        let far = HORIZON_US * 3 + 17;
        w.push(far, 1, 0);
        w.push(3, 2, 0);
        w.push(far + 1, 3, 0);
        w.push(far, 4, 0);
        assert_eq!(drain(&mut w), vec![(3, 2), (far, 1), (far, 4), (far + 1, 3)]);
        assert_eq!(w.now(), far + 1);
    }

    #[test]
    fn matches_reference_heap_on_a_mixed_interleaving() {
        // Deterministic pseudo-random schedule/fire interleaving, spanning
        // all levels and the overflow bucket.
        let mut w = TimerWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        let step = |s: &mut u64| {
            *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *s >> 33
        };
        let mut seq = 0u64;
        let mut now = 0u64;
        for round in 0..2_000 {
            let r = step(&mut state);
            if r % 3 != 0 || heap.is_empty() {
                // Bias delays so every level gets traffic.
                let exp = (r / 7) % 40;
                let delay = (step(&mut state) % 64) << exp.min(38);
                seq += 1;
                w.push(now + delay, seq, 0u32);
                heap.push(Reverse((now + delay, seq)));
            } else {
                let Reverse(expect) = heap.pop().unwrap();
                let got = w.pop().unwrap();
                assert_eq!((got.at, got.seq), expect, "round {round}");
                now = got.at;
            }
        }
        while let Some(Reverse(expect)) = heap.pop() {
            let got = w.pop().unwrap();
            assert_eq!((got.at, got.seq), expect);
        }
        assert!(w.pop().is_none());
    }
}
