//! A steady-state apply allocates O(1), on either engine.
//!
//! Pattern workspaces, near-field spectra, the band kernels' sibling rows
//! and the span names are all in place after one warm-up apply; what a
//! second apply still allocates must not depend on how many clusters, levels
//! or columns it traverses. Counted per thread by a wrapping global
//! allocator: the serial engine on a one-thread pool, so every task runs on
//! the counting thread, the distributed engine on a rank without peers (halo
//! blocks and messages are per peer by design).

use ffw_dist::DistMlfma;
use ffw_geometry::Domain;
use ffw_mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw_numerics::{c64, C64};
use ffw_par::Pool;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded to `System` unchanged. The counter is
// a const-initialised thread-local `Cell` without a destructor, so bumping
// it neither allocates nor touches freed thread-local storage.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: same contract as `System.alloc`, to which the call goes.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System.dealloc`, to which the call goes.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout (above).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn panel(n: usize, width: usize) -> Vec<Vec<C64>> {
    (0..width)
        .map(|b| {
            (0..n)
                .map(|i| c64((i % 7) as f64, (b + i % 3) as f64))
                .collect()
        })
        .collect()
}

/// Allocations of the second of two calls of `apply` on this thread.
fn second_call_allocations(mut apply: impl FnMut()) -> u64 {
    apply();
    let before = ALLOCATIONS.get();
    apply();
    ALLOCATIONS.get() - before
}

/// Asserts `count(n_px, width)` is the same at two sizes and two widths.
fn assert_independent_of_size_and_width(count: impl Fn(usize, usize) -> u64) {
    let small = count(64, 1);
    assert!(
        small > 0,
        "the counter must see the panel bookkeeping allocate"
    );
    for (n_px, width) in [(64, 8), (128, 1), (128, 8)] {
        assert_eq!(
            count(n_px, width),
            small,
            "{n_px} x {n_px} px, width {width}"
        );
    }
}

#[test]
fn serial_engine_second_apply_allocates_the_same_at_every_size_and_width() {
    assert_independent_of_size_and_width(|n_px, width| {
        let plan = Arc::new(MlfmaPlan::new(&Domain::new(n_px, 1.0), Accuracy::low()));
        let engine = MlfmaEngine::new(Arc::clone(&plan), Arc::new(Pool::new(1)));
        let xs = panel(plan.n_pixels(), width);
        let refs: Vec<&[C64]> = xs.iter().map(|x| x.as_slice()).collect();
        let mut ys = vec![vec![C64::ZERO; plan.n_pixels()]; width];
        second_call_allocations(|| engine.apply_block(&refs, &mut ys))
    });
}

#[test]
fn one_rank_distributed_second_apply_allocates_the_same_at_every_size_and_width() {
    assert_independent_of_size_and_width(|n_px, width| {
        let plan = Arc::new(MlfmaPlan::new(&Domain::new(n_px, 1.0), Accuracy::low()));
        let xs = panel(plan.n_pixels(), width);
        let (counts, _) = ffw_mpi::run(1, |comm| {
            let engine = DistMlfma::new(&comm, Arc::clone(&plan), vec![0], true);
            let refs: Vec<&[C64]> = xs.iter().map(|x| x.as_slice()).collect();
            let mut ys = vec![vec![C64::ZERO; plan.n_pixels()]; width];
            second_call_allocations(|| engine.try_apply_block(&refs, &mut ys).expect("no peers"))
        });
        counts[0]
    });
}
