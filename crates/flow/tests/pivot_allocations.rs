//! The network-simplex pivot loop makes no heap allocation: two solves of
//! one topology under different costs take different numbers of pivots but
//! make exactly the same allocations. This test binary counts allocations
//! per thread with its own global allocator, so parallel tests do not
//! disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use marqsim_flow::FlowNetwork;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// wrapper only bumps a const-initialized thread-local counter, which
// itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A gate-cancellation-shaped transportation instance over `side` states
/// with the diagonal excluded; `cost(i, j)` prices the inner arcs.
fn transport(side: usize, cost: impl Fn(usize, usize) -> f64) -> FlowNetwork {
    let mut net = FlowNetwork::new(2 * side + 2);
    for i in 0..side {
        net.add_edge(0, 1 + i, 1.0 / side as f64, 0.0);
        net.add_edge(1 + side + i, 2 * side + 1, 1.0 / side as f64, 0.0);
        for j in 0..side {
            if i != j {
                net.add_edge(1 + i, 1 + side + j, 1e18, cost(i, j));
            }
        }
    }
    net
}

/// Pivots and allocations of one cold solve of `net`.
fn pivots_and_allocations(net: &FlowNetwork) -> (u64, u64) {
    let sink = net.num_nodes() - 1;
    let before = ALLOCATIONS.with(Cell::get);
    let (flow, _basis) = net.min_cost_flow_with_basis(0, sink, 1.0).unwrap();
    (flow.profile.pivots, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn solves_allocate_the_same_whatever_their_pivot_count() {
    let side = 24;
    let flat = transport(side, |_, _| 1.0);
    let spread = transport(side, |i, j| ((i * 7 + j * 13) % 11) as f64);
    // The first solve registers the flow instruments; only later solves
    // are compared.
    pivots_and_allocations(&flat);
    let (flat_pivots, flat_allocations) = pivots_and_allocations(&flat);
    let (spread_pivots, spread_allocations) = pivots_and_allocations(&spread);
    assert_ne!(
        flat_pivots, spread_pivots,
        "the instances must pivot differently"
    );
    assert_eq!(
        flat_allocations, spread_allocations,
        "{flat_pivots} pivots made {flat_allocations} allocations, \
         {spread_pivots} pivots made {spread_allocations}"
    );
}
