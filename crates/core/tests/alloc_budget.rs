//! Pins the allocation rate of [`color_edges_local`] per charged round.
//!
//! The Theorem 1.1 recursion runs its rounds on the pooled round engine and
//! keeps its per-level state in buffers sized once per level, so a charged
//! round allocates a small constant independent of `n`. This test wraps
//! the system allocator in a counting shim and colors two random 16-regular
//! graphs a factor of four apart: an O(n) or O(m) allocation regression in
//! a per-round path shows up as hundreds of events per round on the larger
//! graph and fails the fixed budget immediately.
//!
//! The count covers the whole call — setup, every recursion level and the
//! returned coloring — divided by the rounds the run charged. The one-time
//! setup is what lets the larger graph sit a little above the smaller one.
//!
//! The whole battery lives in one `#[test]` because the counter is global:
//! Rust runs tests in parallel by default, and concurrent tests would bleed
//! allocations into each other's windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use distgraph::generators;
use distsim::IdAssignment;
use edgecolor::{color_edges_local, ColoringParams};

/// System allocator shim counting allocation *events* (alloc + realloc);
/// deallocations are free and not counted.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the shim keeps `System`'s guarantees; the counter is a relaxed statistic
// that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; the caller meets the rest of
        // `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocation events per charged round of one `color_edges_local` run on
/// `random_regular(n, 16, 1)`, as a float so the budget sees fractions.
fn allocs_per_round(n: usize) -> f64 {
    let graph = generators::random_regular(n, 16, 1).expect("feasible");
    let ids = IdAssignment::scattered(n, 1);
    let params = ColoringParams::new(0.5);
    let before = ALLOCS.load(Ordering::Relaxed);
    let outcome = color_edges_local(&graph, &ids, &params).expect("coloring succeeds");
    let events = ALLOCS.load(Ordering::Relaxed) - before;
    events as f64 / outcome.metrics.rounds.max(1) as f64
}

#[test]
fn coloring_allocates_a_constant_per_round_independent_of_n() {
    // 16 events per charged round is far below one per node (512 and
    // 2,048) or per edge (4,096 and 16,384).
    let budget = 16.0;
    let small = allocs_per_round(512);
    let large = allocs_per_round(2048);
    for (per_round, n) in [(small, 512), (large, 2048)] {
        assert!(
            per_round <= budget,
            "color_edges_local on random_regular({n},16) allocates {per_round:.2}/round \
             (budget {budget})"
        );
    }
    // O(n)-independence pinned directly: quadrupling the graph must not
    // move the rate by more than the setup's share.
    assert!(
        large <= small + 2.0,
        "allocs per round grew with n: {small:.2} at n = 512 vs {large:.2} at n = 2048"
    );
}
