//! `G0 0 = 0`: a panel column that is identically zero is answered with
//! `+0.0` and stays out of the traversal; its neighbours in the panel do not
//! notice. The same holds per leaf: a leaf that is zero in every column of
//! the panel is skipped, and a sparse column comes out bit for bit as it
//! does beside a dense one, where nothing is skipped.
//!
//! The counter tests read the process-wide `ffw-obs` recorder, so the tests
//! of this target take turns.

use ffw_dist::DistMlfma;
use ffw_geometry::{morton_decode, Domain, QuadTree, LEAF_PIXELS};
use ffw_mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw_numerics::{c64, C64};
use ffw_par::Pool;
use ffw_phantom::{Phantom, SheppLogan};
use std::sync::{Arc, Mutex};

static TURN: Mutex<()> = Mutex::new(());

fn random_x(n: usize, seed: u64) -> Vec<C64> {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    (0..n).map(|_| c64(next(), next())).collect()
}

fn engine(n_px: usize) -> MlfmaEngine {
    engine_at(n_px, Accuracy::default())
}

fn engine_at(n_px: usize, accuracy: Accuracy) -> MlfmaEngine {
    let plan = Arc::new(MlfmaPlan::new(&Domain::new(n_px, 1.0), accuracy));
    MlfmaEngine::new(plan, Arc::new(Pool::new(2)))
}

fn apply_block(eng: &MlfmaEngine, xs: &[Vec<C64>]) -> Vec<Vec<C64>> {
    let refs: Vec<&[C64]> = xs.iter().map(|x| x.as_slice()).collect();
    // outputs start as garbage: a skipped column must still be written
    let mut ys = vec![vec![c64(f64::NAN, 7.0); eng.n()]; xs.len()];
    eng.apply_block(&refs, &mut ys);
    ys
}

fn is_plus_zero(v: &C64) -> bool {
    v.re.to_bits() == 0 && v.im.to_bits() == 0
}

#[test]
fn zero_columns_in_a_panel_leave_their_neighbours_bit_identical() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let eng = engine(32);
    let n = eng.n();
    for width in [1usize, 3, 8, 9] {
        // every other column zero, starting with a zero one at odd widths;
        // one of the zeros is a negative zero, which is as zero as the rest
        let xs: Vec<Vec<C64>> = (0..width)
            .map(|b| match (b + width) % 2 {
                0 => random_x(n, 300 + b as u64),
                _ if b == 1 => vec![c64(-0.0, 0.0); n],
                _ => vec![C64::ZERO; n],
            })
            .collect();
        let ys = apply_block(&eng, &xs);
        for (b, x) in xs.iter().enumerate() {
            let alone = apply_block(&eng, std::slice::from_ref(x)).remove(0);
            assert_eq!(ys[b], alone, "column {b} of width {width}");
            if x.iter().all(|v| *v == C64::ZERO) {
                assert!(
                    ys[b].iter().all(is_plus_zero),
                    "zero column {b} of width {width} is not +0.0 everywhere"
                );
            }
        }
    }
}

#[test]
fn an_all_zero_panel_is_counted_and_never_traversed() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let eng = engine(32);
    let width = 5;
    ffw_obs::reset();
    ffw_obs::set_enabled(true);
    let ys = apply_block(&eng, &vec![vec![C64::ZERO; eng.n()]; width]);
    let zero_panel = ffw_obs::snapshot();
    ffw_obs::reset();
    let mut mixed = vec![vec![C64::ZERO; eng.n()]; width];
    mixed[3] = random_x(eng.n(), 9);
    apply_block(&eng, &mixed);
    let mixed_panel = ffw_obs::snapshot();
    ffw_obs::reset();
    apply_block(&eng, &mixed[3..4]);
    let one_column = ffw_obs::snapshot();
    ffw_obs::set_enabled(false);

    assert!(ys.iter().all(|y| y.iter().all(is_plus_zero)));
    let counter = |snap: &ffw_obs::Snapshot, name: &str| {
        let found = snap.counters.iter().find(|(n, _)| n == name);
        found.map_or(0, |(_, v)| *v)
    };
    let flops = |snap: &ffw_obs::Snapshot| {
        ["aggregate", "translate", "disaggregate", "near"]
            .map(|s| counter(snap, &format!("mlfma.flops.{s}")))
    };
    assert_eq!(counter(&zero_panel, "mlfma.block_applies"), 1);
    assert_eq!(counter(&zero_panel, "mlfma.applies"), width as u64);
    assert_eq!(counter(&zero_panel, "mlfma.zero_columns"), width as u64);
    assert_eq!(flops(&zero_panel), [0; 4]);
    assert!(
        zero_panel
            .spans
            .iter()
            .any(|s| s.path.ends_with("mlfma.apply")),
        "the apply span counts the call"
    );
    // charges follow the traversed columns: one live column among five is
    // charged as that column alone
    assert_eq!(counter(&mixed_panel, "mlfma.applies"), width as u64);
    assert_eq!(
        counter(&mixed_panel, "mlfma.zero_columns"),
        width as u64 - 1
    );
    assert_eq!(flops(&mixed_panel), flops(&one_column));
    assert!(flops(&one_column)[3] > 0, "a traversed column is charged");
}

/// Per pixel (tree order) whether the named support holds it: one leaf (the
/// last child of its parent), the Shepp–Logan phantom the ladder synthesises
/// from, a leaf checkerboard, one quadrant (whole dead sub-trees), or the
/// first pixel of every third leaf and the last of the next (the two ends
/// of a leaf's scan).
fn support(domain: &Domain, kind: &str) -> Vec<bool> {
    let tree = QuadTree::new(domain);
    let n_leaves = tree.n_leaves();
    let live = |i: usize| {
        let (c, k) = (i / LEAF_PIXELS, i % LEAF_PIXELS);
        match kind {
            "one leaf" => c == n_leaves / 2 + 3,
            "checkerboard" => {
                let (ix, iy) = morton_decode(c as u32);
                (ix + iy) % 2 == 0
            }
            "quadrant" => c < n_leaves / 4,
            "leaf ends" => (c % 3, k) == (0, 0) || (c % 3, k) == (1, LEAF_PIXELS - 1),
            _ => unreachable!("{kind}"),
        }
    };
    if kind == "shepp-logan" {
        let grid = SheppLogan::for_domain(domain, 0.05).rasterize(domain);
        let grid: Vec<bool> = grid.iter().map(|&c| c != 0.0).collect();
        return tree.to_tree_order(&grid);
    }
    (0..domain.n_pixels()).map(live).collect()
}

/// `x` with every pixel outside `inside` set to zero.
fn on_support(mut x: Vec<C64>, inside: &[bool]) -> Vec<C64> {
    for (v, inside) in x.iter_mut().zip(inside) {
        if !inside {
            *v = C64::ZERO;
        }
    }
    x
}

#[test]
fn a_sparse_column_is_bit_identical_with_its_dead_leaves_skipped() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    for n_px in [32, 64, 128] {
        for accuracy in [Accuracy::default(), Accuracy::low()] {
            let eng = engine_at(n_px, accuracy);
            let domain = &eng.plan().domain;
            let (n, zero) = (eng.n(), vec![C64::ZERO; eng.n()]);
            let dense = random_x(n, 500);
            let kinds = [
                "one leaf",
                "shepp-logan",
                "checkerboard",
                "quadrant",
                "leaf ends",
            ];
            for (k, kind) in kinds.into_iter().enumerate() {
                let inside = support(domain, kind);
                assert!(inside.contains(&false) && inside.contains(&true), "{kind}");
                let sparse = on_support(random_x(n, 501 + k as u64), &inside);
                let case = format!("{kind} at {n_px} x {n_px}, {accuracy:?}");
                let alone = apply_block(&eng, std::slice::from_ref(&sparse)).remove(0);
                let beside_dense = apply_block(&eng, &[dense.clone(), sparse.clone()]);
                assert_eq!(alone, beside_dense[1], "{case}, beside a dense column");
                let beside_zero = apply_block(&eng, &[zero.clone(), sparse]);
                assert_eq!(alone, beside_zero[1], "{case}, beside a zero column");
                assert!(beside_zero[0].iter().all(is_plus_zero), "{case}");
            }
        }
    }
}

#[test]
fn skipped_leaves_are_counted_and_not_charged() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let eng = engine(64);
    let n_leaves = eng.plan().tree.n_leaves() as u64;
    let mut sparse = random_x(eng.n(), 7);
    sparse[LEAF_PIXELS..].fill(C64::ZERO);
    let dense = random_x(eng.n(), 8);
    let counter = |snap: &ffw_obs::Snapshot, name: &str| {
        let found = snap.counters.iter().find(|(n, _)| n == name);
        found.map_or(0, |(_, v)| *v)
    };
    let charged = |xs: &[Vec<C64>]| {
        ffw_obs::reset();
        ffw_obs::set_enabled(true);
        apply_block(&eng, xs);
        let snap = ffw_obs::snapshot();
        ffw_obs::set_enabled(false);
        let flops =
            ["aggregate", "translate", "near"].map(|s| counter(&snap, &format!("mlfma.flops.{s}")));
        (counter(&snap, "mlfma.leaves_skipped"), flops)
    };
    let (skipped, sparse_flops) = charged(std::slice::from_ref(&sparse));
    assert_eq!(skipped, n_leaves - 1, "one live leaf");
    let (skipped, dense_flops) = charged(std::slice::from_ref(&dense));
    assert_eq!(skipped, 0);
    for (sparse, dense) in sparse_flops.iter().zip(&dense_flops) {
        assert!(sparse < dense, "{sparse_flops:?} vs {dense_flops:?}");
    }
    // beside a dense column nothing is skipped: the sparse column is charged
    // as a dense one
    let (skipped, pair_flops) = charged(&[sparse, dense]);
    assert_eq!(skipped, 0);
    assert_eq!(pair_flops, dense_flops.map(|f| 2 * f));
}

/// A rank skips its own dead leaves too: on ranks that have just applied a
/// dense panel, whose spectra the dead leaves' slots still hold, a
/// Shepp–Logan-supported panel comes out as the serial engine's.
#[test]
fn a_rank_reads_nothing_its_dead_leaves_left_behind() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let plan = Arc::new(MlfmaPlan::new(&Domain::new(64, 1.0), Accuracy::default()));
    let eng = MlfmaEngine::new(Arc::clone(&plan), Arc::new(Pool::new(2)));
    let n = eng.n();
    let inside = support(&plan.domain, "shepp-logan");
    let sparse: Vec<_> = (0..3)
        .map(|b| on_support(random_x(n, 600 + b), &inside))
        .collect();
    let dense: Vec<_> = (0..3).map(|b| random_x(n, 610 + b)).collect();
    let want = apply_block(&eng, &sparse);
    for n_ranks in [1, 4, 16] {
        let per = n / n_ranks;
        let (slices, _) = ffw_mpi::run(n_ranks, |comm| {
            let ranks = (0..n_ranks).collect();
            let dist = DistMlfma::new(&comm, Arc::clone(&plan), ranks, true);
            let lo = comm.rank() * per;
            let mut ys = Vec::new();
            for xs in [&dense, &sparse] {
                let refs: Vec<&[C64]> = xs.iter().map(|x| &x[lo..lo + per]).collect();
                ys = vec![vec![C64::ZERO; per]; xs.len()];
                dist.try_apply_block(&refs, &mut ys)
                    .expect("fault-free run");
            }
            ys
        });
        for (b, want) in want.iter().enumerate() {
            let got: Vec<C64> = slices.iter().flat_map(|ys| ys[b].clone()).collect();
            assert_eq!(&got, want, "column {b} on {n_ranks} ranks");
        }
    }
}
