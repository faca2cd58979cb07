//! The regularizer × scenario quality matrix, as an executable test suite.
//!
//! Every cell runs the full frequency-hopping DBIM pipeline (2.0 → 1.0
//! wavelength schedule, 4 + 4 iterations) on one scenario-zoo entry under
//! one regularizer, and pins the achieved relative image error. The table
//! in EXPERIMENTS.md is generated from exactly this code — run with
//! `cargo test -p ffw-inverse --test scenario_zoo -- --nocapture` to see
//! the measured matrix.
//!
//! Structural claims the matrix enforces (not just absolute pins):
//! * on the limited-aperture contrast-0.25 scenario the wGCV-LSQR hybrid
//!   step strictly beats the unregularized hop;
//! * regularization never catastrophically hurts on the easy scenarios;
//! * the lossy-media scenario reconstructs both the real part and a
//!   positively-correlated absorption map (`real_object = false`).

use ffw_geometry::{Domain, Point2, QuadTree};
use ffw_greens::{assemble_g0, tree_positions, Kernel};
use ffw_inverse::multifreq::{multi_frequency_dbim, FrequencyHop};
use ffw_inverse::{synthesize_measurements, DbimConfig, ImagingSetup, Regularizer};
use ffw_numerics::linalg::Matrix;
use ffw_numerics::C64;
use ffw_phantom::scenario::splitmix64;
use ffw_phantom::{
    contrast_from_object, image_rel_error, lossy_object_from_contrast, object_from_contrast,
    scenario_zoo, Cylinder, Phantom, Scenario,
};

const N_TX: usize = 8;
const N_RX: usize = 16;

struct Stage {
    setup: ImagingSetup,
    g0: Matrix,
}

fn stage(scenario: &Scenario, wavelength: f64) -> Stage {
    let domain = Domain::with_pixel_size(32, wavelength, 0.1);
    let ring = 2.0 * domain.side();
    let (tx, rx) = scenario.aperture.build(N_TX, N_RX, ring);
    let setup = ImagingSetup::new(domain.clone(), tx, rx);
    let tree = QuadTree::new(&domain);
    let kernel = Kernel::new(domain.k0(), domain.equivalent_radius());
    let g0 = assemble_g0(&kernel, &tree_positions(&domain, &tree));
    Stage { setup, g0 }
}

/// Synthesizes the (possibly lossy, possibly noisy) measurements for one
/// stage of the hop schedule. Noise streams are derived per stage so the
/// two frequency datasets carry independent realizations.
fn measure(scenario: &Scenario, st: &Stage, stage_idx: u64, truth_raster: &[f64]) -> Vec<Vec<C64>> {
    let tree = QuadTree::new(&st.setup.domain);
    let object = if scenario.loss_tangent > 0.0 {
        lossy_object_from_contrast(&st.setup.domain, &tree, truth_raster, scenario.loss_tangent)
    } else {
        object_from_contrast(&st.setup.domain, &tree, truth_raster)
    };
    let mut measured = synthesize_measurements(&st.setup, &st.g0, &object, Default::default());
    if let Some(model) = scenario.noise {
        let staged = ffw_phantom::NoiseModel {
            snr_db: model.snr_db,
            seed: splitmix64(model.seed ^ stage_idx),
        };
        staged.apply(&mut measured);
    }
    measured
}

struct Cell {
    err: f64,
    err_im: Option<f64>,
}

/// Runs the 2.0 → 1.0 hop (4 + 4 iterations) for one scenario × regularizer
/// cell and returns the relative image error of the real contrast (and of
/// the absorption map for lossy scenarios).
fn run_cell(scenario: &Scenario, regularizer: Regularizer) -> Cell {
    let hi = stage(scenario, 1.0);
    let lo = stage(scenario, 2.0);
    let domain = hi.setup.domain.clone();
    let tree = QuadTree::new(&domain);
    let truth = Cylinder {
        center: Point2::ZERO,
        radius: scenario.radius_factor * domain.side(),
        contrast: scenario.contrast,
    };
    let truth_raster = truth.rasterize(&domain);
    let mea_hi = measure(scenario, &hi, 1, &truth_raster);
    let mea_lo = measure(scenario, &lo, 0, &truth_raster);
    let cfg = DbimConfig {
        iterations: 0,
        regularizer,
        real_object: scenario.loss_tangent == 0.0,
        ..Default::default()
    };
    let result = multi_frequency_dbim(
        &[
            FrequencyHop {
                setup: &lo.setup,
                g0: &lo.g0,
                measured: &mea_lo,
                iterations: 4,
            },
            FrequencyHop {
                setup: &hi.setup,
                g0: &hi.g0,
                measured: &mea_hi,
                iterations: 4,
            },
        ],
        &cfg,
    )
    .expect("hop dbim");
    let err = image_rel_error(
        &contrast_from_object(&domain, &tree, &result.object),
        &truth_raster,
    );
    let err_im = (scenario.loss_tangent > 0.0).then(|| {
        let truth_im: Vec<f64> = truth_raster
            .iter()
            .map(|c| c * scenario.loss_tangent)
            .collect();
        let k0sq_inv = 1.0 / (domain.k0() * domain.k0());
        let grid = tree.to_grid_order(&result.object);
        let im: Vec<f64> = grid.iter().map(|o| o.im * k0sq_inv).collect();
        image_rel_error(&im, &truth_im)
    });
    Cell { err, err_im }
}

fn regularizers() -> [(&'static str, Regularizer); 2] {
    [
        ("none", Regularizer::Tikhonov { lambda: 0.0 }),
        (
            "wgcv-lsqr",
            Regularizer::WgcvLsqr {
                steps: 8,
                omega: 0.8,
            },
        ),
    ]
}

fn find(zoo: &[Scenario], name: &str) -> Scenario {
    zoo.iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("scenario {name} missing from zoo"))
        .clone()
}

/// The full matrix, printed for EXPERIMENTS.md and pinned cell by cell.
/// Bounds carry ~25% headroom over the measured values so legitimate
/// numeric drift does not flake, while a regression that stalls a cell
/// (errors of 0.5+ where 0.2 is expected) fails loudly.
#[test]
fn quality_matrix_is_pinned() {
    let zoo = scenario_zoo();
    // scenario name -> per-regularizer error ceiling ("none", "wgcv-lsqr"
    // order, matching `regularizers()`).
    let ceilings: [(&str, [f64; 2]); 5] = [
        ("full_clean", [0.31, 0.30]),
        ("full_noisy30", [0.31, 0.31]),
        ("arc210_clean", [0.50, 0.36]),
        ("sparse_half_noisy30", [0.40, 0.39]),
        ("full_lossy", [0.31, 0.31]),
    ];
    let mut failures = Vec::new();
    println!("| scenario | none | wgcv-lsqr |");
    println!("|---|---|---|");
    for (name, bounds) in ceilings {
        let scenario = find(&zoo, name);
        let mut row = format!("| {name} ");
        for ((reg_name, reg), bound) in regularizers().into_iter().zip(bounds) {
            let cell = run_cell(&scenario, reg);
            row.push_str(&format!("| {:.3} ", cell.err));
            if !(cell.err.is_finite() && cell.err < bound) {
                failures.push(format!(
                    "{name} × {reg_name}: err {:.3} exceeds ceiling {bound}",
                    cell.err
                ));
            }
            if let Some(im) = cell.err_im {
                row.push_str(&format!("(im {im:.3}) "));
                if !(im.is_finite() && im < 1.0) {
                    failures.push(format!("{name} × {reg_name}: absorption err {im:.3}"));
                }
            }
        }
        println!("{row}|");
    }
    assert!(
        failures.is_empty(),
        "matrix regressions:\n{}",
        failures.join("\n")
    );
}

/// The headline structural claim: on the pinned limited-aperture scenario
/// the hybrid wGCV-LSQR step strictly beats the unregularized hop.
#[test]
fn wgcv_strictly_beats_unregularized_on_limited_aperture() {
    let scenario = find(&scenario_zoo(), "arc210_clean");
    let none = run_cell(&scenario, Regularizer::Tikhonov { lambda: 0.0 });
    let wgcv = run_cell(
        &scenario,
        Regularizer::WgcvLsqr {
            steps: 8,
            omega: 0.8,
        },
    );
    assert!(
        wgcv.err < 0.9 * none.err,
        "wgcv {:.3} must strictly beat unregularized {:.3}",
        wgcv.err,
        none.err
    );
}

/// The lossy scenario must recover a meaningful absorption map: the
/// reconstructed imaginary part correlates positively with the true one.
#[test]
fn lossy_scenario_recovers_absorption_sign() {
    let scenario = find(&scenario_zoo(), "full_lossy");
    let hi = stage(&scenario, 1.0);
    let lo = stage(&scenario, 2.0);
    let domain = hi.setup.domain.clone();
    let tree = QuadTree::new(&domain);
    let truth = Cylinder {
        center: Point2::ZERO,
        radius: scenario.radius_factor * domain.side(),
        contrast: scenario.contrast,
    };
    let truth_raster = truth.rasterize(&domain);
    let mea_hi = measure(&scenario, &hi, 1, &truth_raster);
    let mea_lo = measure(&scenario, &lo, 0, &truth_raster);
    let result = multi_frequency_dbim(
        &[
            FrequencyHop {
                setup: &lo.setup,
                g0: &lo.g0,
                measured: &mea_lo,
                iterations: 4,
            },
            FrequencyHop {
                setup: &hi.setup,
                g0: &hi.g0,
                measured: &mea_hi,
                iterations: 4,
            },
        ],
        &DbimConfig {
            iterations: 0,
            real_object: false,
            ..Default::default()
        },
    )
    .expect("lossy hop dbim");
    let grid = tree.to_grid_order(&result.object);
    let corr: f64 = grid
        .iter()
        .zip(&truth_raster)
        .map(|(o, &c)| o.im * c * scenario.loss_tangent)
        .sum();
    assert!(
        corr > 0.0,
        "reconstructed absorption must correlate positively with the truth"
    );
}

/// Noise models are part of the zoo contract: the same scenario with the
/// same seed must produce bit-identical measurements, and different seeds
/// must not.
#[test]
fn zoo_noise_is_seed_deterministic_end_to_end() {
    let scenario = find(&scenario_zoo(), "full_noisy30");
    let hi = stage(&scenario, 1.0);
    let truth = Cylinder {
        center: Point2::ZERO,
        radius: scenario.radius_factor * hi.setup.domain.side(),
        contrast: scenario.contrast,
    };
    let raster = truth.rasterize(&hi.setup.domain);
    let a = measure(&scenario, &hi, 1, &raster);
    let b = measure(&scenario, &hi, 1, &raster);
    assert_eq!(a, b, "same scenario + seed must be bit-identical");
    let mut other = scenario.clone();
    other.noise = Some(ffw_phantom::NoiseModel {
        snr_db: 30.0,
        seed: 0xBAD_5EED,
    });
    let c = measure(&other, &hi, 1, &raster);
    assert_ne!(a, c, "different noise seeds must differ");
}
