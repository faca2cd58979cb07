//! Property test calibrating the ABFT checksum tolerance
//! ([`Accuracy::checksum_rel_tol`]) against the real MLFMA operator.
//!
//! The tolerance must thread a needle: wide enough that the legitimate
//! floating-point reassociation between `G0(sum x)` and `sum(G0 x)` never
//! trips it (a false positive would recompute — or escalate — a healthy
//! panel), and tight enough that a single flipped exponent bit in one
//! output lane always trips it. Both sides are checked over both shipped
//! accuracy settings and panel widths B in {1, 4, 8}, on phantom-derived
//! inputs whose zero background exercises the near-zero lanes where a
//! miscalibrated scale would be most fragile.

use ffw_fault::ComputeFault;
use ffw_geometry::{pt, Domain, QuadTree};
use ffw_inverse::MlfmaG0;
use ffw_mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw_numerics::{c64, C64};
use ffw_par::Pool;
use ffw_phantom::{object_from_contrast, Cylinder, Phantom};
use ffw_solver::{BlockLinOp, VerifiedBlockOp, VerifyConfig};
use std::sync::Arc;

const WIDTHS: [usize; 3] = [1, 4, 8];
/// Seeded phantom inputs per accuracy setting for the false-positive sweep.
const PHANTOMS: usize = 200;

fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Unit-interval f64 from a hash (53 mantissa bits).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded cylinder phantom rasterized onto the domain: seeded center,
/// radius and contrast (0.01 to 1.0, the strong scatterers included), so
/// 200 seeds cover 200 distinct scenes.
fn phantom_object(domain: &Domain, tree: &QuadTree, seed: u64) -> Vec<C64> {
    let h0 = splitmix64(seed);
    let h1 = splitmix64(h0);
    let h2 = splitmix64(h1);
    let h3 = splitmix64(h2);
    let half = 0.35 * domain.side();
    let truth = Cylinder {
        center: pt(half * (unit(h0) - 0.5), half * (unit(h1) - 0.5)),
        radius: (0.05 + 0.3 * unit(h2)) * domain.side(),
        contrast: 0.01 + 0.99 * unit(h3),
    };
    object_from_contrast(domain, tree, &truth.rasterize(domain))
}

/// A width-B panel of field-like columns: the phantom object modulated by
/// seeded complex phases per column, as DBIM forward solves would produce.
fn panel(object: &[C64], width: usize, seed: u64) -> Vec<Vec<C64>> {
    (0..width)
        .map(|b| {
            let mut s = splitmix64(seed ^ (b as u64).wrapping_mul(0x9E37_79B9));
            object
                .iter()
                .map(|o| {
                    s = splitmix64(s);
                    let re = unit(s) - 0.5;
                    s = splitmix64(s);
                    let im = unit(s) - 0.5;
                    *o * c64(1.0 + re, im)
                })
                .collect()
        })
        .collect()
}

struct Fixture {
    g0: MlfmaG0,
    tol: f64,
    object: Vec<C64>,
    n: usize,
}

fn fixture(accuracy: Accuracy) -> Fixture {
    let domain = Domain::new(32, 1.0);
    let plan = Arc::new(MlfmaPlan::new(&domain, accuracy));
    let n = plan.n_pixels();
    let tree = QuadTree::new(&domain);
    let object = phantom_object(&domain, &tree, 0xFEED);
    let g0 = MlfmaG0(Arc::new(MlfmaEngine::new(plan, Arc::new(Pool::new(1)))));
    Fixture {
        g0,
        tol: accuracy.checksum_rel_tol(),
        object,
        n,
    }
}

/// No false positives: 200 seeded phantoms per accuracy setting, widths
/// cycling through {1, 4, 8}, every panel verified immediately — the
/// detector must stay silent on every one of them.
#[test]
fn calibrated_tolerance_never_false_positives_on_clean_panels() {
    let domain = Domain::new(32, 1.0);
    let tree = QuadTree::new(&domain);
    for accuracy in [Accuracy::low(), Accuracy::high()] {
        let fx = fixture(accuracy);
        let v = VerifiedBlockOp::new(&fx.g0, VerifyConfig::with_rel_tol(fx.tol).immediate());
        for seed in 0..PHANTOMS as u64 {
            let width = WIDTHS[seed as usize % WIDTHS.len()];
            let object = phantom_object(&domain, &tree, seed);
            let xs = panel(&object, width, seed);
            let x_refs: Vec<&[C64]> = xs.iter().map(|x| x.as_slice()).collect();
            let mut ys = vec![vec![C64::ZERO; fx.n]; width];
            v.apply_block(&x_refs, &mut ys);
        }
        v.flush().expect("clean panels must verify");
        assert_eq!(
            v.detected(),
            0,
            "interp_order {}: false positive on a clean panel",
            accuracy.interp_order
        );
    }
}

/// Every single exponent-bit flip is detected: for both accuracy settings,
/// every width in {1, 4, 8} and every exponent bit 52..=62, a one-shot
/// injected flip must be caught by the immediate per-panel check and
/// repaired by one recompute — never silently absorbed, never escalated.
#[test]
fn single_exponent_bit_flips_are_always_detected_and_recovered() {
    for accuracy in [Accuracy::low(), Accuracy::high()] {
        let fx = fixture(accuracy);
        let mut expected = 0u64;
        for &width in &WIDTHS {
            for bit in 52..=62u32 {
                let slot = splitmix64(u64::from(bit) * 31 + width as u64);
                let mut cfg = VerifyConfig::with_rel_tol(fx.tol).immediate();
                // Fire on the wrapper's first panel; `times: 1` corrupts the
                // initial compute only, so one recompute runs clean.
                cfg.injector = Some(Arc::new(move |panel| {
                    (panel == 1).then_some(ComputeFault {
                        slot,
                        bit,
                        times: 1,
                    })
                }));
                let v = VerifiedBlockOp::new(&fx.g0, cfg);
                let xs = panel(&fx.object, width, u64::from(bit));
                let x_refs: Vec<&[C64]> = xs.iter().map(|x| x.as_slice()).collect();
                let mut ys = vec![vec![C64::ZERO; fx.n]; width];
                v.apply_block(&x_refs, &mut ys);
                v.flush().unwrap_or_else(|e| {
                    panic!(
                        "interp_order {} width {width} bit {bit}: \
                         recoverable flip escalated: {e}",
                        accuracy.interp_order
                    )
                });
                assert!(
                    v.detected() >= 1,
                    "interp_order {} width {width} bit {bit}: flip not detected",
                    accuracy.interp_order
                );
                assert_eq!(
                    v.recomputed(),
                    1,
                    "interp_order {} width {width} bit {bit}: not repaired in one recompute",
                    accuracy.interp_order
                );
                assert_eq!(v.escalated(), 0);
                expected += 1;
            }
        }
        assert_eq!(expected, WIDTHS.len() as u64 * 11);
    }
}
