//! The network-simplex pivot loop makes no heap allocation: two solves of
//! one transportation instance under different costs take different
//! numbers of pivots but make exactly the same allocations, cold and as
//! warm re-pivots from one basis. This test binary counts allocations per
//! thread with its own global allocator, so parallel tests do not disturb
//! each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use marqsim_flow::{bipartite, SpanningBasis};

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

/// States of the test instances, each carrying the same mass.
const SIDE: usize = 24;

/// A gate-cancellation-shaped cost matrix: `cost(i, j)` prices the inner
/// arc from state `i` to state `j` (the diagonal is never an arc).
fn costs(cost: impl Fn(usize, usize) -> f64) -> Vec<Vec<f64>> {
    (0..SIDE)
        .map(|i| (0..SIDE).map(|j| cost(i, j)).collect())
        .collect()
}

/// Pivots and allocations of one solve, warm from `basis` when given.
fn pivots_and_allocations(costs: &[Vec<f64>], basis: Option<&SpanningBasis>) -> (u64, u64) {
    let marginal = vec![1.0 / SIDE as f64; SIDE];
    let before = ALLOCATIONS.with(Cell::get);
    let (flow, _basis) = bipartite::solve(&marginal, costs, basis).unwrap();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(flow.warm_start, basis.is_some());
    (flow.pivots, allocations)
}

/// Asserts that the two solves pivot differently but allocate the same.
fn same_allocations((a_pivots, a_allocations): (u64, u64), (b_pivots, b_allocations): (u64, u64)) {
    assert_ne!(a_pivots, b_pivots, "the solves must pivot differently");
    assert_eq!(
        a_allocations, b_allocations,
        "{a_pivots} pivots made {a_allocations} allocations, \
         {b_pivots} pivots made {b_allocations}"
    );
}

#[test]
fn solves_allocate_the_same_whatever_their_pivot_count() {
    let flat = costs(|_, _| 1.0);
    let spread = costs(|i, j| ((i * 7 + j * 13) % 11) as f64);
    // The first solve registers the flow instruments; only later solves
    // are compared.
    pivots_and_allocations(&flat, None);
    same_allocations(
        pivots_and_allocations(&flat, None),
        pivots_and_allocations(&spread, None),
    );
}

#[test]
fn warm_re_pivots_allocate_the_same_whatever_their_pivot_count() {
    let flat = costs(|_, _| 1.0);
    let marginal = vec![1.0 / SIDE as f64; SIDE];
    let (_, basis) = bipartite::solve(&marginal, &flat, None).unwrap();
    let spread = costs(|i, j| ((i * 7 + j * 13) % 11) as f64);
    let skewed = costs(|i, j| ((i * 5 + j * 3) % 7) as f64);
    same_allocations(
        pivots_and_allocations(&spread, Some(&basis)),
        pivots_and_allocations(&skewed, Some(&basis)),
    );
}
