//! Oracles for the linearised step and the field predictor.
//!
//! Both update paths of the DBIM loop run the two solves of the
//! linearisation at [`LINEAR_STEP_TOL`]: the nonlinear-CG path, which also
//! starts each state solve from the fields the step pass predicted, and the
//! `wgcv-lsqr` path, whose Golub–Kahan recurrence reorthogonalizes both
//! bases. These tests hold that against things that do not depend on the
//! loop: finite differences of the forward map, the adjoint pairing of `F`
//! and `F^H` (on the serial context and on a 2×1 grid), the orthonormality
//! of the Golub–Kahan bases and the step length it implies, the initial
//! residual of the next state solve, and resumed / cold / re-batched runs.

use ffw_fault::{fnv1a64, FaultError};
use ffw_geometry::{Domain, Point2, TransducerArray};
use ffw_inverse::dbim::Passes;
use ffw_inverse::{
    dbim, dbim_hooked, hop_stages, synthesize_measurements, DbimConfig, Flow, ImagingSetup,
    LoopState, MlfmaG0, MultiFreqError, RankContext, Regularizer, SolveCounts, LINEAR_STEP_TOL,
};
use ffw_mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw_numerics::vecops::{norm2, norm2_sqr, rel_diff, zdotc};
use ffw_numerics::{c64, C64};
use ffw_par::Pool;
use ffw_phantom::{object_from_contrast, Cylinder, Phantom};
use ffw_solver::{solve_forward_block, DistOp, IterConfig, ScatteringOp, Workspace};
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::{Arc, Barrier, Mutex};

const N_TX: usize = 4;

struct Scene {
    setup: ImagingSetup,
    plan: Arc<MlfmaPlan>,
    /// A cylinder strong enough that `1e-2` and `1e-4` are several BiCGStab
    /// steps apart.
    object: Vec<C64>,
}

fn scene() -> Scene {
    let domain = Domain::new(32, 1.0);
    let ring = 2.0 * domain.side();
    let setup = ImagingSetup::new(
        domain.clone(),
        TransducerArray::ring(N_TX, ring),
        TransducerArray::ring(8, ring),
    );
    let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::default()));
    let truth = Cylinder {
        center: Point2::ZERO,
        radius: 0.3 * domain.side(),
        contrast: 0.2,
    };
    let object = object_from_contrast(&domain, &setup.tree, &truth.rasterize(&domain));
    Scene {
        setup,
        plan,
        object,
    }
}

fn engine(plan: &Arc<MlfmaPlan>) -> MlfmaG0 {
    MlfmaG0(Arc::new(MlfmaEngine::new(
        Arc::clone(plan),
        Arc::new(Pool::new(1)),
    )))
}

/// Seeded values in `[-0.5, 0.5)²`.
fn noise(n: usize, seed: u64) -> Vec<C64> {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    (0..n).map(|_| c64(next(), next())).collect()
}

/// What the ranks of a `groups × 1` grid sum through: every rank deposits,
/// all wait, every rank adds the deposits in rank order.
struct Exchange {
    barrier: Barrier,
    slots: Vec<Mutex<Vec<C64>>>,
}

impl Exchange {
    fn new(ranks: usize) -> Self {
        Exchange {
            barrier: Barrier::new(ranks),
            slots: (0..ranks).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    fn sum(&self, rank: usize, vals: &mut [C64]) {
        *self.slots[rank].lock().expect("slot") = vals.to_vec();
        self.barrier.wait();
        vals.fill(C64::ZERO);
        for slot in &self.slots {
            for (v, s) in vals.iter_mut().zip(slot.lock().expect("slot").iter()) {
                *v += *s;
            }
        }
        self.barrier.wait();
    }
}

/// One rank of a `groups × 1` grid: the whole pixel range, the group's
/// transmitters, sums with the other groups (`None`: there are none — the
/// serial context).
struct GroupRank<'a> {
    g0: MlfmaG0,
    ws: Workspace,
    n_pixels: usize,
    group: usize,
    txs: Vec<usize>,
    run_txs: Vec<usize>,
    others: Option<&'a Exchange>,
}

impl<'a> GroupRank<'a> {
    fn new(scene: &Scene, group: usize, groups: usize, others: Option<&'a Exchange>) -> Self {
        let per = N_TX / groups;
        GroupRank {
            g0: engine(&scene.plan),
            ws: Workspace::new(),
            n_pixels: scene.setup.n_pixels(),
            group,
            txs: (group * per..(group + 1) * per).collect(),
            run_txs: (0..N_TX).collect(),
            others,
        }
    }
}

impl RankContext for GroupRank<'_> {
    type G0 = MlfmaG0;
    fn g0(&self) -> &MlfmaG0 {
        &self.g0
    }
    fn workspace(&self) -> &Workspace {
        &self.ws
    }
    fn pixels(&self) -> Range<usize> {
        0..self.n_pixels
    }
    fn txs(&self) -> &[usize] {
        &self.txs
    }
    fn run_txs(&self) -> &[usize] {
        &self.run_txs
    }
    fn grid_pos(&self) -> (usize, usize) {
        (self.group, 0)
    }
    fn sum_groups(&self, vals: &mut [C64]) -> Result<(), FaultError> {
        self.sum_all(vals)
    }
    fn sum_all(&self, vals: &mut [C64]) -> Result<(), FaultError> {
        if let Some(ex) = self.others {
            ex.sum(self.group, vals);
        }
        Ok(())
    }
    fn end_of_iteration(&self, _: &LoopState) -> Result<Flow, FaultError> {
        Ok(Flow::Continue)
    }
}

/// The owned transmitters' fields at the passes' object, solved from zero
/// the way pass 1 solves them, and the scattered data `GR (O . phi_t)`.
fn state(pass: &Passes<'_, GroupRank<'_>>, ctx: &GroupRank<'_>) -> (Vec<Vec<C64>>, Vec<Vec<C64>>) {
    let mut fields = vec![vec![C64::ZERO; ctx.n_pixels]; ctx.txs.len()];
    let nothing_measured = vec![vec![C64::ZERO; 8]; N_TX];
    let (scattered, _) = pass
        .residuals(&nothing_measured, &mut fields)
        .expect("state solves");
    (fields, scattered)
}

fn stacked_norm(vs: &[Vec<C64>]) -> f64 {
    vs.iter().map(|v| norm2_sqr(v)).sum::<f64>().sqrt()
}

/// `||a - b|| / ||b||` over stacked per-transmitter vectors.
fn stacked_rel_diff(a: &[Vec<C64>], b: &[Vec<C64>]) -> f64 {
    let diff: f64 = a.iter().zip(b).map(|(x, y)| norm2_sqr(&sub(x, y))).sum();
    diff.sqrt() / stacked_norm(b)
}

fn sub(a: &[C64], b: &[C64]) -> Vec<C64> {
    a.iter().zip(b).map(|(x, y)| *x - *y).collect()
}

/// `F delta` as the loop computes it is the derivative of the forward map
/// `O -> GR (O . phi(O))`: against `(F(O + eps delta) - F(O)) / eps` the
/// mismatch falls like `eps` (the second-order term) until it reaches what
/// the `1e-2` solve inside `F` left, and that plateau is below
/// `LINEAR_STEP_TOL * ||F delta||`.
#[test]
fn the_step_operator_is_the_derivative_of_the_forward_map() {
    let scene = scene();
    let ctx = GroupRank::new(&scene, 0, 1, None);
    let counts = Cell::new(SolveCounts::default());
    // Ten times the object: coherent, so the second-order term is not
    // averaged away, and large enough that it shows at eps = 1e-2.
    let delta: Vec<C64> = scene.object.iter().map(|o| 10.0 * *o).collect();

    let loop_cfg = DbimConfig::default();
    let pass = Passes::new(
        &scene.setup,
        &ctx,
        &loop_cfg,
        &scene.object,
        None,
        None,
        &counts,
    );
    let (fields, _) = state(&pass, &ctx);
    let f_delta = pass.frechet(&fields, &delta, None).expect("F delta");

    // The forward map itself, far tighter than anything it is compared to.
    let tight = DbimConfig {
        forward: IterConfig {
            tol: 1e-12,
            max_iters: 1000,
        },
        ..Default::default()
    };
    let forward_map = |object: &[C64]| {
        let pass = Passes::new(&scene.setup, &ctx, &tight, object, None, None, &counts);
        state(&pass, &ctx).1
    };
    let base = forward_map(&scene.object);
    let mismatch: Vec<f64> = [1e-2, 1e-3, 1e-4, 1e-5]
        .iter()
        .map(|&eps| {
            let moved: Vec<C64> = scene
                .object
                .iter()
                .zip(&delta)
                .map(|(o, d)| *o + eps * *d)
                .collect();
            let quotient: Vec<Vec<C64>> = forward_map(&moved)
                .iter()
                .zip(&base)
                .map(|(a, b)| sub(a, b).iter().map(|v| *v / eps).collect())
                .collect();
            stacked_rel_diff(&quotient, &f_delta)
        })
        .collect();
    println!("finite-difference mismatch at eps = 1e-2 .. 1e-5: {mismatch:?}");
    assert!(
        mismatch[0] > 3.0 * mismatch[1],
        "first order above the plateau: {mismatch:?}"
    );
    for m in &mismatch[2..] {
        assert!(*m < LINEAR_STEP_TOL, "plateau: {mismatch:?}");
    }
    assert!(
        3.0 * mismatch[3] > mismatch[2],
        "and no longer falls like eps there: {mismatch:?}"
    );
}

/// `on_rank` on every rank of a `groups × 1` grid of `scene`, one thread
/// each: the ranks' answers in group order.
fn on_grid<R: Send>(
    scene: &Scene,
    groups: usize,
    on_rank: impl Fn(&GroupRank<'_>) -> R + Sync,
) -> Vec<R> {
    let exchange = Exchange::new(groups);
    let others = (groups > 1).then_some(&exchange);
    let on_rank = &on_rank;
    std::thread::scope(|scope| {
        let ranks: Vec<_> = (0..groups)
            .map(|g| scope.spawn(move || on_rank(&GroupRank::new(scene, g, groups, others))))
            .collect();
        ranks.into_iter().map(|r| r.join().expect("rank")).collect()
    })
}

/// `<F d, r>` and `<d, F^H r>` over the run's transmitters, as every rank of
/// a `groups × 1` grid computes them, and `F^H r` itself.
fn pairing(scene: &Scene, cfg: &DbimConfig, groups: usize) -> (C64, C64, Vec<C64>) {
    let n = scene.setup.n_pixels();
    let d = noise(n, 11);
    let rs: Vec<Vec<C64>> = (0..N_TX).map(|t| noise(8, 100 + t as u64)).collect();
    let mut per_rank = on_grid(scene, groups, |ctx| {
        let counts = Cell::new(SolveCounts::default());
        let pass = Passes::new(&scene.setup, ctx, cfg, &scene.object, None, None, &counts);
        let (fields, _) = state(&pass, ctx);
        let fd = pass.frechet(&fields, &d, None).expect("F d");
        let own_rs: Vec<Vec<C64>> = ctx.txs.iter().map(|&t| rs[t].clone()).collect();
        let mut fd_r = [fd
            .iter()
            .zip(&own_rs)
            .map(|(f, r)| zdotc(r, f))
            .sum::<C64>()];
        ctx.sum_all(&mut fd_r).expect("sum");
        let mut fhr = vec![C64::ZERO; n];
        pass.frechet_adjoint(&fields, &own_rs, &mut fhr)
            .expect("F^H r");
        (fd_r[0], zdotc(&fhr, &d), fhr)
    });
    let first = per_rank.swap_remove(0);
    for other in &per_rank {
        assert_eq!((other.0, other.1), (first.0, first.1), "ranks disagree");
    }
    first
}

/// `F` and `F^H` stay an adjoint pair to the accuracy their solves run at,
/// `3 * LINEAR_STEP_TOL`, on both update paths — and no better: the solves
/// did stop early. The same on a 2×1 grid, which computes the serial numbers
/// to rounding.
#[test]
fn the_step_and_gradient_operators_are_an_adjoint_pair() {
    let scene = scene();
    let hybrid = DbimConfig {
        regularizer: Regularizer::WgcvLsqr {
            steps: 4,
            omega: 0.8,
        },
        ..Default::default()
    };
    let bound = 3.0 * LINEAR_STEP_TOL;
    for (path, cfg) in [
        ("nonlinear-cg", DbimConfig::default()),
        ("wgcv-lsqr", hybrid),
    ] {
        let (fd_r, d_fhr, fhr) = pairing(&scene, &cfg, 1);
        let gap = (fd_r - d_fhr).abs() / fd_r.abs();
        println!("{path}: <F d, r> = {fd_r:?}, <d, F^H r> = {d_fhr:?}, gap {gap:.2e}");
        assert!(gap <= bound, "{path}: adjoint gap {gap:e}");
        assert!(gap > 1e-6, "{path}: the solves did stop early ({gap:e})");
        let (grid_fd_r, grid_d_fhr, grid_fhr) = pairing(&scene, &cfg, 2);
        let grid_gap = (grid_fd_r - grid_d_fhr).abs() / grid_fd_r.abs();
        assert!(grid_gap <= bound, "{path}, 2x1: adjoint gap {grid_gap:e}");
        assert!((grid_fd_r - fd_r).abs() <= 1e-10 * fd_r.abs(), "{path}: F");
        let err = rel_diff(&grid_fhr, &fhr);
        assert!(err <= 1e-10, "{path}: F^H on 2x1 vs serial {err:e}");
    }
}

/// `max |G - I|` over the Gram matrix `G[i][j] = ip(i, j)` of `k` vectors,
/// once `sum` has added the other ranks' parts.
fn orthonormality_loss(
    k: usize,
    ip: impl Fn(usize, usize) -> C64,
    sum: impl FnOnce(&mut [C64]),
) -> f64 {
    let mut gram: Vec<C64> = (0..k * k).map(|ij| ip(ij / k, ij % k)).collect();
    sum(&mut gram);
    gram.iter()
        .enumerate()
        .map(|(ij, g)| {
            let identity = if ij / k == ij % k {
                C64::ONE
            } else {
                C64::ZERO
            };
            (*g - identity).abs()
        })
        .fold(0.0, f64::max)
}

/// Twelve Golub–Kahan steps of the `wgcv-lsqr` update, products at
/// `LINEAR_STEP_TOL`, leave both bases orthonormal to rounding in the inner
/// product the recurrence is adjoint in: the real one under `real_object`,
/// the Hermitian one otherwise. Without reorthogonalization they lose it
/// within a few steps. On a 2×1 grid every rank holds the serial bidiagonal
/// to rounding.
#[test]
fn the_golub_kahan_bases_stay_orthonormal() {
    const STEPS: usize = 12;
    let scene = scene();
    let n = scene.setup.n_pixels();
    let rs: Vec<Vec<C64>> = (0..N_TX).map(|t| noise(8, 200 + t as u64)).collect();
    for real_object in [true, false] {
        let ip = |a: &[C64], b: &[C64]| {
            let d = zdotc(a, b);
            if real_object {
                c64(d.re, 0.0)
            } else {
                d
            }
        };
        let bidiagonal = |groups: usize| {
            on_grid(&scene, groups, |ctx| {
                let counts = Cell::new(SolveCounts::default());
                let cfg = DbimConfig::default();
                let pass = Passes::new(&scene.setup, ctx, &cfg, &scene.object, None, None, &counts);
                let (fields, _) = state(&pass, ctx);
                let own_rs: Vec<Vec<C64>> = ctx.txs.iter().map(|&t| rs[t].clone()).collect();
                let mut right = vec![vec![C64::ZERO; n]; STEPS];
                let gk = pass
                    .golub_kahan(&fields, &own_rs, real_object, STEPS, &mut right)
                    .expect("Golub-Kahan")
                    .expect("a residual to project");
                assert_eq!(gk.bidiag.k(), STEPS, "no breakdown");
                let right_loss =
                    orthonormality_loss(STEPS, |i, j| ip(&right[i], &right[j]), |_| ());
                let left = &gk.left;
                let left_loss = orthonormality_loss(
                    left.len(),
                    |i, j| left[i].iter().zip(&left[j]).map(|(a, b)| ip(a, b)).sum(),
                    |gram| ctx.sum_all(gram).expect("sum"),
                );
                println!(
                    "real_object {real_object}, {groups}x1: loss V {right_loss:.1e}, U {left_loss:.1e}"
                );
                assert!(right_loss <= 1e-12, "V: {right_loss:e}");
                assert!(left_loss <= 1e-12, "U: {left_loss:e}");
                let gather = |v: &[f64]| v.iter().map(|x| c64(*x, 0.0)).collect::<Vec<C64>>();
                [gather(&gk.bidiag.alphas), gather(&gk.bidiag.betas)].concat()
            })
        };
        let serial = bidiagonal(1).swap_remove(0);
        for grid in bidiagonal(2) {
            let err = rel_diff(&grid, &serial);
            assert!(err <= 1e-10, "B_k on 2x1 vs serial: {err:e}");
        }
    }
}

/// The corollary the loop reports: on the `hop_quality` scene (32², 8
/// transmitters and 16 receivers on a 210° arc, a contrast-0.25 cylinder of
/// radius 0.35 × side, the 2.0 → 1.0 hop at 4 + 4 iterations of
/// `wgcv-lsqr:12:0.8`) every iteration's `step`, the norm of the projected
/// solution `y`, is the norm of the object change `V y` to 1e-12 — which
/// holds only for an orthonormal `V`.
#[test]
fn every_wgcv_lsqr_step_is_the_norm_of_its_object_change() {
    let base = Domain::new(32, 1.0);
    let span = 210f64.to_radians();
    let truth = Cylinder {
        center: Point2::ZERO,
        radius: 0.35 * base.side(),
        contrast: 0.25,
    };
    let stages: Vec<(ImagingSetup, MlfmaG0)> = [2.0, 1.0]
        .iter()
        .map(|&factor| {
            let domain = Domain::with_pixel_size(32, factor, base.pixel_size());
            let ring = 2.0 * domain.side();
            let arc = |count| TransducerArray::arc(count, ring, -span / 2.0, span);
            let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::default()));
            (ImagingSetup::new(domain, arc(8), arc(16)), engine(&plan))
        })
        .collect();
    let setups: Vec<&ImagingSetup> = stages.iter().map(|(s, _)| s).collect();
    hop_stages(&setups, None, None, |h, initial| {
        let (setup, g0) = &stages[h];
        let object =
            object_from_contrast(&setup.domain, &setup.tree, &truth.rasterize(&setup.domain));
        let measured = synthesize_measurements(setup, g0, &object, Default::default());
        let before = RefCell::new(
            initial
                .clone()
                .unwrap_or_else(|| vec![C64::ZERO; setup.n_pixels()]),
        );
        let changes = RefCell::new(Vec::new());
        let hook = |st: &LoopState| {
            let mut before = before.borrow_mut();
            changes.borrow_mut().push(norm2(&sub(&st.object, &before)));
            before.clone_from(&st.object);
            Ok(Flow::Continue)
        };
        let cfg = DbimConfig {
            iterations: 4,
            initial,
            regularizer: Regularizer::WgcvLsqr {
                steps: 12,
                omega: 0.8,
            },
            ..Default::default()
        };
        let ws = Workspace::new();
        let result = dbim_hooked(setup, g0, &measured, &cfg, None, &hook, &ws)
            .map_err(MultiFreqError::Dbim)?;
        for (record, change) in result.history.iter().zip(changes.into_inner()) {
            let rel = (record.step - change).abs() / change;
            println!(
                "stage {h}: step {:.6e}, change {change:.6e}, rel {rel:.1e}",
                record.step
            );
            assert!(rel <= 1e-12, "stage {h}: step vs object change {rel:e}");
        }
        Ok::<_, MultiFreqError>(result)
    })
    .expect("hop");
}

fn problem(scene: &Scene) -> (MlfmaG0, Vec<Vec<C64>>) {
    let g0 = engine(&scene.plan);
    let measured = synthesize_measurements(&scene.setup, &g0, &scene.object, Default::default());
    (g0, measured)
}

/// The loop state at every boundary of a run of `cfg`.
fn boundaries(
    scene: &Scene,
    g0: &MlfmaG0,
    measured: &[Vec<C64>],
    cfg: &DbimConfig,
) -> Vec<LoopState> {
    let seen = RefCell::new(Vec::new());
    let hook = |st: &LoopState| {
        seen.borrow_mut().push(st.clone());
        Ok(Flow::Continue)
    };
    let ws = Workspace::new();
    dbim_hooked(&scene.setup, g0, measured, cfg, None, &hook, &ws).expect("dbim");
    seen.into_inner()
}

/// `||phi_inc_t - A(object) x_t|| / ||phi_inc_t||`: where a state solve
/// started from `x_t` begins.
fn initial_residuals(scene: &Scene, g0: &MlfmaG0, object: &[C64], xs: &[Vec<C64>]) -> Vec<f64> {
    let ws = Workspace::new();
    let a = ScatteringOp::new(g0, object, &ws);
    let x_refs: Vec<&[C64]> = xs.iter().map(|x| x.as_slice()).collect();
    let mut axs = vec![vec![C64::ZERO; object.len()]; xs.len()];
    let Ok(()) = a.try_apply_block_local(&x_refs, &mut axs);
    axs.iter()
        .enumerate()
        .map(|(t, ax)| {
            let inc = scene.setup.incident(t);
            norm2(&sub(inc, ax)) / norm2(inc)
        })
        .collect()
}

/// At every boundary the fields handed to the next state solve are the
/// converged fields of the *old* object moved along the step, and that
/// start is at least three times closer than the converged fields alone —
/// the start every run had before the predictor.
#[test]
fn the_next_state_solve_starts_from_the_predicted_fields() {
    let scene = scene();
    let (g0, measured) = problem(&scene);
    let cfg = DbimConfig {
        iterations: 3,
        ..Default::default()
    };
    let states = boundaries(&scene, &g0, &measured, &cfg);
    // what pass 1 of iteration k solved for, from what it started from
    let mut old_object = vec![C64::ZERO; scene.setup.n_pixels()];
    let mut start: Vec<Vec<C64>> = vec![vec![C64::ZERO; old_object.len()]; N_TX];
    for st in &states {
        let incs: Vec<&[C64]> = (0..N_TX).map(|t| scene.setup.incident(t)).collect();
        let mut converged = start.clone();
        solve_forward_block(&g0, &old_object, &incs, &mut converged, cfg.forward);
        let unpredicted = initial_residuals(&scene, &g0, &st.object, &converged);
        let predicted = initial_residuals(&scene, &g0, &st.object, &st.fields);
        println!(
            "boundary {}: start {unpredicted:.3?} -> {predicted:.3?}",
            st.next_iter
        );
        for (p, u) in predicted.iter().zip(&unpredicted) {
            assert!(3.0 * p <= *u, "boundary {}: {p:e} vs {u:e}", st.next_iter);
        }
        old_object.clone_from(&st.object);
        start.clone_from(&st.fields);
    }
}

/// A run stopped at a boundary and resumed from that boundary's state — the
/// predicted fields included, as a checkpoint holds them — is the
/// uninterrupted run bit for bit, at whatever batch width either half ran.
#[test]
fn a_run_resumed_from_predicted_fields_is_the_uninterrupted_run() {
    let scene = scene();
    let (g0, measured) = problem(&scene);
    let cfg = |batch: usize| DbimConfig {
        iterations: 3,
        batch: Some(batch),
        ..Default::default()
    };
    let full = dbim(&scene.setup, &g0, &measured, &cfg(8)).expect("uninterrupted");
    for (first, second) in [(1usize, 3usize), (3, 8), (8, 1)] {
        let at_one = boundaries(&scene, &g0, &measured, &cfg(first)).swap_remove(0);
        assert_eq!(at_one.next_iter, 1);
        let ws = Workspace::new();
        let go_on = |_: &LoopState| Ok(Flow::Continue);
        let rest = dbim_hooked(
            &scene.setup,
            &g0,
            &measured,
            &cfg(second),
            Some(at_one),
            &go_on,
            &ws,
        )
        .expect("resumed");
        assert_eq!(rest.object, full.object, "batch {first} then {second}");
        assert_eq!(rest.final_residual, full.final_residual);
    }
}

/// Without warm starts there is nothing to predict, and at
/// `forward.tol == LINEAR_STEP_TOL` the two tolerances are one: such a run
/// is the arithmetic every solve had before the split. The digest and the
/// residual are those of the commit before it.
#[test]
fn a_cold_run_at_one_tolerance_is_the_run_it_always_was() {
    let scene = scene();
    let (g0, measured) = problem(&scene);
    let cfg = DbimConfig {
        iterations: 3,
        warm_start: false,
        forward: IterConfig {
            tol: LINEAR_STEP_TOL,
            max_iters: 1000,
        },
        ..Default::default()
    };
    let result = dbim(&scene.setup, &g0, &measured, &cfg).expect("dbim");
    let bytes: Vec<u8> = result
        .object
        .iter()
        .flat_map(|v| [v.re.to_le_bytes(), v.im.to_le_bytes()])
        .flatten()
        .collect();
    assert_eq!(fnv1a64(&bytes), 0x3b55f2300d562734);
    assert_eq!(result.final_residual, 0.10189523605452357);
}
