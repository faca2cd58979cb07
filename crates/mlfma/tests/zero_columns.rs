//! `G0 0 = 0`: a panel column that is identically zero is answered with
//! `+0.0` and stays out of the traversal; its neighbours in the panel do not
//! notice.
//!
//! The counter test reads the process-wide `ffw-obs` recorder, so the tests
//! of this target take turns.

use ffw_geometry::Domain;
use ffw_mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw_numerics::{c64, C64};
use ffw_par::Pool;
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
    let plan = Arc::new(MlfmaPlan::new(&Domain::new(n_px, 1.0), Accuracy::default()));
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
