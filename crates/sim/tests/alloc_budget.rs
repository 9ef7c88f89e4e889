//! Pins the flat-arena delivery path's steady-state allocation budget.
//!
//! The round engine's contract after the allocation-free rework: once the
//! pooled per-round buffers (message arenas, count/slot vectors) have warmed
//! up, a round allocates a small constant independent of `n` and of the
//! per-round message volume. This
//! test wraps the system allocator in a counting shim and measures rounds on
//! two graph sizes a factor of four apart: an O(n) or O(m) regression in the
//! hot path shows up as hundreds of allocations per round on the larger
//! graph and fails the fixed budget immediately.
//!
//! The whole battery lives in one `#[test]` because the counter is global:
//! Rust runs tests in parallel by default, and concurrent tests would bleed
//! allocations into each other's windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use distgraph::{generators, Graph};
use distsim::{Model, Network};

/// System allocator shim counting allocation *events* (alloc + realloc);
/// deallocations are free and not counted.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocation events that happen while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Steady-state allocations per broadcast round, after a warm-up that grows
/// every pooled buffer to capacity.
fn broadcast_allocs_per_round(g: &Graph, rounds: u64) -> u64 {
    let mut net = Network::new(g, Model::Local);
    for _ in 0..8 {
        net.broadcast(|v| v.index() as u64);
    }
    let total = allocs_during(|| {
        for _ in 0..rounds {
            net.broadcast(|v| v.index() as u64);
        }
    });
    total / rounds
}

#[test]
fn steady_state_rounds_allocate_o_chunks_not_o_n() {
    // Two sizes a factor of four apart: 256 and 1024 nodes, all degree 4.
    // A single delivered round moves 4n messages, so any O(n)/O(m) term in
    // the hot path costs thousands of events on the larger torus — far
    // beyond the fixed budget below.
    let small = generators::grid_torus(16, 16);
    let large = generators::grid_torus(32, 32);
    let rounds = 32u64;

    // The Mailboxes handed back each round escape the pool (offsets +
    // entries), plus a few pool-bookkeeping events. Budget 16 ≪ 4·n = 4096
    // messages/round on the large torus.
    let budget = 16;
    let small_rate = broadcast_allocs_per_round(&small, rounds);
    let large_rate = broadcast_allocs_per_round(&large, rounds);
    for (per_round, name) in [(small_rate, "16x16"), (large_rate, "32x32")] {
        assert!(
            per_round <= budget,
            "broadcast on the {name} torus allocates {per_round}/round (budget {budget})"
        );
    }

    // O(n)-independence pinned directly: quadrupling the graph must not
    // move the steady-state rate.
    assert!(
        large_rate <= small_rate + 4,
        "steady-state allocs grew with n: {small_rate}/round at 256 nodes vs \
         {large_rate}/round at 1024 nodes"
    );
}
