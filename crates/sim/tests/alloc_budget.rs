//! The event loop's allocator budget, counted.
//!
//! `engine.rs` promises that the loop makes no allocator call per event:
//! what is left inside [`Simulator::run`] is amortised growth (a wheel
//! slot meeting a bigger batch, a fair link's flow list deepening) plus a
//! handful of one-off buffers. This binary installs a counting
//! `#[global_allocator]` — which is why it holds exactly one test: the
//! count is process-wide — and runs the tracked `sim_fleet` shape at
//! 20 000 devices (200 000 trace events).
//!
//! Before the loop was rearranged the same run made more than one call
//! per five events: a `VecDeque` buffer on the first push to each of the
//! 20 000 per-device FIFO links, and a `Vec` of finished flows on every
//! live fair-share completion check.
//!
//! The `GlobalAlloc` impl below is the workspace's only `unsafe`: the
//! trait cannot be implemented without it. It adds a counter to the
//! system allocator and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

mod common;

use pelican_sim::{Passive, Simulator, TraceLevel};

/// Calls that obtain or resize memory (`alloc`, `alloc_zeroed`,
/// `realloc`); frees are not counted.
static CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method passes its arguments unchanged to `System`, whose
// `GlobalAlloc` impl upholds the trait's contract, and returns what it
// returns. The counter is a statistic: it publishes no other data, so
// `Relaxed` suffices.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator —
        // that is, from `System` — with `layout`, and that `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator —
        // that is, from `System` — with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const DEVICES: usize = 20_000;

#[test]
fn a_passive_fleet_run_makes_fewer_than_one_allocator_call_per_twenty_events() {
    let (links, jobs) = common::fleet(DEVICES);
    let sim = Simulator::builder().links(links).trace(TraceLevel::Fingerprint).build();
    let before = CALLS.load(Ordering::Relaxed);
    let outcome = sim.run(&jobs, &mut Passive);
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(outcome.events(), 10 * DEVICES as u64);
    assert_eq!(outcome.timed_out(), 0);
    assert!(
        calls * 20 < outcome.events(),
        "{calls} allocator calls inside Simulator::run for {} events",
        outcome.events()
    );
}
