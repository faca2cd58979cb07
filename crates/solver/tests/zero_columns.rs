//! All-zero panels through the compute-integrity layer, on the MLFMA engine
//! that answers them without a traversal: the checksum window still
//! verifies, and a fault scheduled on a panel with nothing to corrupt waits
//! for the next panel that has.

use ffw_fault::ComputeFault;
use ffw_geometry::Domain;
use ffw_inverse::MlfmaG0;
use ffw_mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw_numerics::{c64, C64};
use ffw_par::Pool;
use ffw_solver::{
    bicgstab_block_with, BlockLinOp, DriftGuard, IterConfig, ScatteringOp, VerifiedBlockOp,
    VerifyConfig, Workspace,
};
use std::sync::Arc;

fn g0() -> MlfmaG0 {
    let plan = Arc::new(MlfmaPlan::new(&Domain::new(32, 1.0), Accuracy::low()));
    MlfmaG0(Arc::new(MlfmaEngine::new(plan, Arc::new(Pool::new(2)))))
}

fn panel(n: usize, width: usize) -> Vec<Vec<C64>> {
    (0..width)
        .map(|b| {
            (0..n)
                .map(|i| c64(0.5 + (i % 5) as f64, (b + i % 3) as f64 - 1.0))
                .collect()
        })
        .collect()
}

fn apply(op: &impl BlockLinOp, xs: &[Vec<C64>]) -> Vec<Vec<C64>> {
    let refs: Vec<&[C64]> = xs.iter().map(|x| x.as_slice()).collect();
    let mut ys = vec![vec![c64(f64::NAN, 1.0); xs[0].len()]; xs.len()];
    op.apply_block(&refs, &mut ys);
    ys
}

#[test]
fn a_window_holding_all_zero_panels_verifies() {
    let g0 = g0();
    let n = g0.0.n();
    let verified = VerifiedBlockOp::new(
        &g0,
        VerifyConfig {
            period: 4,
            ..VerifyConfig::default()
        },
    );
    let live = panel(n, 3);
    let zero = vec![vec![C64::ZERO; n]; 3];
    let mut mixed = live.clone();
    mixed[1] = zero[0].clone();
    let want = apply(&g0, &live);
    // one window of [live, zero, mixed, zero] (the boundary panel is all
    // zero), then a window of nothing but zero panels
    for xs in [&live, &zero, &mixed, &zero, &zero, &zero, &zero, &zero] {
        let ys = apply(&verified, xs);
        for (b, x) in xs.iter().enumerate() {
            if x.iter().all(|v| *v == C64::ZERO) {
                assert!(ys[b].iter().all(|v| *v == C64::ZERO));
            } else {
                assert_eq!(ys[b], want[b], "verification must not perturb data");
            }
        }
    }
    assert!(verified.flush().is_ok());
    assert_eq!(verified.detected(), 0);
    assert_eq!(verified.escalated(), 0);
}

#[test]
fn a_fault_scheduled_on_an_all_zero_panel_waits_for_the_next_live_one() {
    let g0 = g0();
    let n = g0.0.n();
    let mut cfg = VerifyConfig::default().immediate();
    cfg.injector = Some(Arc::new(|panel| {
        (panel == 2).then_some(ComputeFault {
            slot: 11,
            bit: 55,
            times: 1,
        })
    }));
    let verified = VerifiedBlockOp::new(&g0, cfg);
    let live = panel(n, 2);
    let zero = vec![vec![C64::ZERO; n]; 2];
    let want = apply(&g0, &live);
    assert_eq!(apply(&verified, &live), want); // panel 1
    let ys = apply(&verified, &zero); // panel 2: nothing to corrupt
    assert!(ys.iter().all(|y| y.iter().all(|v| *v == C64::ZERO)));
    assert_eq!(verified.detected(), 0, "a zero panel carries no flip");
    apply(&verified, &zero); // panel 3: still nothing
    assert_eq!(verified.detected(), 0);
    // panel 4 takes the deferred flip, is caught and recomputed in place
    assert_eq!(apply(&verified, &live), want);
    assert_eq!(verified.detected(), 1);
    assert_eq!(verified.recomputed(), 1);
    assert_eq!(verified.escalated(), 0);
    assert_eq!(apply(&verified, &live), want, "the fault fired once");
    assert_eq!(verified.detected(), 1);
}

/// The first DBIM iteration in miniature: with `O = 0` every `G0` product of
/// a guarded solve is of a zero column. The solve must come out as it does
/// on an engine that traverses them — here: on the unskippable identity
/// `A = I`, whose solution is the right-hand side.
#[test]
fn a_guarded_solve_on_the_zero_object_returns_the_right_hand_side() {
    let g0 = g0();
    let n = g0.0.n();
    let verified = VerifiedBlockOp::new(&g0, VerifyConfig::default());
    let object = vec![C64::ZERO; n];
    let ws = Workspace::new();
    let a = ScatteringOp::new(&verified, &object, &ws);
    let bs = panel(n, 3);
    let b_refs: Vec<&[C64]> = bs.iter().map(|b| b.as_slice()).collect();
    let mut xs = vec![vec![C64::ZERO; n]; 3];
    let guard = DriftGuard::default();
    let cfg = IterConfig::default();
    let stats = bicgstab_block_with(&a, &b_refs, &mut xs, cfg, Some(&guard), None, &ws);
    assert!(stats.iter().all(|s| s.converged && s.iterations == 1));
    assert_eq!(xs, bs);
    assert!(verified.flush().is_ok());
    assert_eq!((verified.detected(), guard.detected()), (0, 0));
}
