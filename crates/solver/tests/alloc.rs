//! Between the applies, a steady-state solve allocates no N-vector.
//!
//! The first solve of a run fills the [`Workspace`] (and the MLFMA engine
//! its pattern buffers); from then on a `solve_block`, a
//! `solve_adjoint_block`, a guarded solve with its audits and snapshots, a
//! verified apply across a window boundary and a whole DBIM outer iteration
//! must lease every vector they need. Counted per thread by a wrapping
//! global allocator that only counts requests of at least `N * 16` bytes —
//! one `C64` vector — on a one-thread pool, so every task of the engine runs
//! on the counting thread.

use ffw_geometry::{Domain, Point2, TransducerArray};
use ffw_inverse::{
    dbim_hooked, synthesize_measurements, DbimConfig, Flow, ImagingSetup, MlfmaG0, Regularizer,
};
use ffw_mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw_numerics::{c64, C64};
use ffw_par::Pool;
use ffw_phantom::{object_from_contrast, Cylinder, Phantom};
use ffw_solver::{
    BicgstabBackend, BlockLinOp, DriftGuard, IterConfig, VerifiedBlockOp, VerifyConfig, Workspace,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Smallest request this thread counts; `usize::MAX` counts nothing.
    static THRESHOLD: Cell<usize> = const { Cell::new(usize::MAX) };
    static BIG_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingBig;

// SAFETY: every request is forwarded to `System` unchanged. The counters are
// const-initialised thread-local `Cell`s without destructors, so reading and
// bumping them neither allocates nor touches freed thread-local storage.
unsafe impl GlobalAlloc for CountingBig {
    // SAFETY: same contract as `System.alloc`, to which the call goes.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= THRESHOLD.get() {
            BIG_ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
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
static GLOBAL: CountingBig = CountingBig;

const N_PX: usize = 64;
const N: usize = N_PX * N_PX;

/// N-vector-sized allocations `f` makes on this thread.
fn n_vector_allocations(f: impl FnOnce()) -> u64 {
    THRESHOLD.set(N * 16);
    let before = BIG_ALLOCATIONS.get();
    f();
    THRESHOLD.set(usize::MAX);
    BIG_ALLOCATIONS.get() - before
}

struct Scene {
    setup: ImagingSetup,
    g0: MlfmaG0,
    object: Vec<C64>,
}

/// A 64 x 64 cylinder strong enough that a solve takes several steps.
fn scene() -> Scene {
    let domain = Domain::new(N_PX, 1.0);
    let ring = 2.0 * domain.side();
    let setup = ImagingSetup::new(
        domain.clone(),
        TransducerArray::ring(4, ring),
        TransducerArray::ring(8, ring),
    );
    let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::low()));
    let g0 = MlfmaG0(Arc::new(MlfmaEngine::new(plan, Arc::new(Pool::new(1)))));
    let truth = Cylinder {
        center: Point2::ZERO,
        radius: 0.3 * domain.side(),
        contrast: 0.3,
    };
    let object = object_from_contrast(&domain, &setup.tree, &truth.rasterize(&domain));
    Scene { setup, g0, object }
}

fn panel(width: usize) -> Vec<Vec<C64>> {
    (0..width)
        .map(|b| {
            (0..N)
                .map(|i| c64(1.0 + (i % 7) as f64, (b + i % 3) as f64))
                .collect()
        })
        .collect()
}

#[test]
fn second_and_later_solves_allocate_no_n_vector() {
    let Scene { g0, object, .. } = scene();
    let ws = Workspace::new();
    // audit every other step: periodic audits, snapshot refreshes and the
    // convergence audit all happen inside one solve
    let guard = DriftGuard::new(2, 1e-8, 2);
    let backend = BicgstabBackend::new(&g0, &object, Some(&guard), None, &ws);
    let cfg = IterConfig {
        tol: 1e-8,
        max_iters: 200,
    };
    let bs = panel(4);
    let b_refs: Vec<&[C64]> = bs.iter().map(|b| b.as_slice()).collect();
    let mut xs = vec![vec![C64::ZERO; N]; 4];
    let mut solve = |adjoint: bool, width: usize| {
        xs.iter_mut().for_each(|x| x.fill(C64::ZERO));
        let (bs, xs) = (&b_refs[..width], &mut xs[..width]);
        let stats = if adjoint {
            backend.solve_adjoint_block(bs, xs, cfg)
        } else {
            backend.solve_block(bs, xs, cfg)
        }
        .expect("solve");
        assert!(stats.iter().all(|s| s.converged), "{stats:?}");
        assert!(
            stats
                .iter()
                .all(|s| s.iterations > 4 && s.verify_matvecs > 2),
            "the solve must reach its periodic audits: {stats:?}"
        );
    };
    let filling = n_vector_allocations(|| solve(false, 4));
    assert!(filling > 0, "the counter must see the first solve allocate");
    for (adjoint, width) in [(false, 4), (true, 4), (false, 1), (true, 3), (false, 4)] {
        let count = n_vector_allocations(|| solve(adjoint, width));
        assert_eq!(count, 0, "adjoint {adjoint}, width {width}");
    }
    assert_eq!(guard.detected(), 0);
}

/// The adjoint solves of a first DBIM iteration: right-hand sides that are
/// all zero are answered before the workspace is touched, the first time
/// included.
#[test]
fn a_zero_right_hand_side_touches_no_workspace() {
    let Scene { g0, object, .. } = scene();
    let ws = Workspace::new();
    let guard = DriftGuard::default();
    let backend = BicgstabBackend::new(&g0, &object, Some(&guard), None, &ws);
    let bs = vec![vec![C64::ZERO; N]; 4];
    let b_refs: Vec<&[C64]> = bs.iter().map(|b| b.as_slice()).collect();
    let mut xs = panel(4);
    let count = n_vector_allocations(|| {
        let stats = backend
            .solve_adjoint_block(&b_refs, &mut xs, IterConfig::default())
            .expect("solve");
        assert!(stats.iter().all(|s| s.converged && s.matvecs == 0));
    });
    assert_eq!(count, 0);
    assert!(xs.iter().all(|x| x.iter().all(|v| *v == C64::ZERO)));
}

#[test]
fn a_verified_apply_across_a_window_boundary_allocates_no_n_vector() {
    let Scene { g0, .. } = scene();
    let verified = VerifiedBlockOp::new(
        &g0,
        VerifyConfig {
            period: 3,
            ..VerifyConfig::default()
        },
    );
    let xs = panel(4);
    let refs: Vec<&[C64]> = xs.iter().map(|x| x.as_slice()).collect();
    let mut ys = vec![vec![C64::ZERO; N]; 4];
    verified.apply_block(&refs, &mut ys);
    // panels 2..=7 cross the boundaries at 3 and 6; the flush closes a
    // partial window
    let count = n_vector_allocations(|| {
        for _ in 0..6 {
            verified.apply_block(&refs, &mut ys);
        }
        verified.flush().expect("clean window");
    });
    assert_eq!(count, 0);
    assert_eq!(verified.detected(), 0);
}

#[test]
fn a_dbim_outer_iteration_allocates_no_n_vector() {
    let Scene { setup, g0, object } = scene();
    let measured = synthesize_measurements(&setup, &g0, &object, IterConfig::default());
    for regularizer in [
        Regularizer::default(),
        Regularizer::WgcvLsqr {
            steps: 3,
            omega: 0.8,
        },
    ] {
        let cfg = DbimConfig {
            iterations: 3,
            regularizer,
            verify: Some(VerifyConfig::default()),
            ..Default::default()
        };
        // the count at the end of every outer iteration, read by the hook
        let at_boundary = std::cell::RefCell::new(Vec::new());
        let hook = |_: &ffw_inverse::LoopState| {
            at_boundary.borrow_mut().push(BIG_ALLOCATIONS.get());
            Ok(Flow::Continue)
        };
        THRESHOLD.set(N * 16);
        let ws = Workspace::new();
        let result = dbim_hooked(&setup, &g0, &measured, &cfg, None, &hook, &ws);
        THRESHOLD.set(usize::MAX);
        let result = result.expect("dbim");
        assert!(result.final_residual < result.residual_history[0]);
        let at_boundary = at_boundary.into_inner();
        assert_eq!(at_boundary.len(), 3);
        assert!(
            at_boundary[0] > 0,
            "the counter must see the first iteration fill the workspace"
        );
        assert_eq!(
            at_boundary[2] - at_boundary[1],
            0,
            "third outer iteration, {regularizer:?}"
        );
    }
}
