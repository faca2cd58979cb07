//! The scenario zoo: reproducible imaging scenarios for the regularizer ×
//! scenario quality matrix (EXPERIMENTS.md).
//!
//! A [`Scenario`] bundles the experimental knobs that are *not* part of the
//! solver: the phantom contrast, the transducer [`Aperture`] (full ring,
//! limited arc, sparse mask), an optional seeded complex-Gaussian
//! [`NoiseModel`], and an optional absorption (lossy media via
//! [`Lossy`] / [`lossy_object_from_contrast`]).
//!
//! Determinism contract: every random element is derived from explicit
//! seeds through splitmix64 streams. The noise model draws one independent
//! stream per transmitter, so rows can be generated in any order — or on
//! any number of threads — and the result is bit-identical.

use crate::Phantom;
use ffw_geometry::{Domain, Point2, QuadTree, TransducerArray};
use ffw_numerics::{c64, C64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which transducers of a nominal ring participate in the experiment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Aperture {
    /// The full ring — every view available.
    Full,
    /// A contiguous arc of the given angular width (radians); transmitters
    /// and receivers share the arc. Models one-sided access.
    Arc {
        /// Angular width of the arc in radians, `(0, 2π)`.
        span: f64,
    },
    /// A sparse seeded mask: of the nominal ring positions, keep a random
    /// subset. Models randomly failed or sparsely populated arrays.
    Sparse {
        /// Fraction of ring positions kept, `(0, 1]`.
        keep: f64,
        /// Seed for the mask selection (deterministic).
        seed: u64,
    },
}

impl Aperture {
    /// Builds the transmitter and receiver arrays for this aperture on a
    /// ring of the given radius.
    ///
    /// `n_tx` / `n_rx` are the *nominal* full-ring counts; `Arc` places that
    /// many elements on the arc, `Sparse` keeps a seeded subset of the ring
    /// (at least 2 elements so the problem stays overdetermined in views).
    pub fn build(
        &self,
        n_tx: usize,
        n_rx: usize,
        radius: f64,
    ) -> (TransducerArray, TransducerArray) {
        match *self {
            Aperture::Full => (
                TransducerArray::ring(n_tx, radius),
                TransducerArray::ring(n_rx, radius),
            ),
            Aperture::Arc { span } => {
                assert!(
                    span > 0.0 && span < 2.0 * std::f64::consts::PI,
                    "arc span must be in (0, 2*pi), got {span}"
                );
                (
                    TransducerArray::arc(n_tx, radius, 0.0, span),
                    TransducerArray::arc(n_rx, radius, 0.0, span),
                )
            }
            Aperture::Sparse { keep, seed } => {
                assert!(
                    keep > 0.0 && keep <= 1.0,
                    "keep fraction must be in (0, 1], got {keep}"
                );
                (
                    sparse_ring(n_tx, radius, keep, splitmix64(seed ^ 0x7478)), // "tx"
                    sparse_ring(n_rx, radius, keep, splitmix64(seed ^ 0x7278)), // "rx"
                )
            }
        }
    }
}

/// Keeps a seeded subset of a full ring via a Fisher–Yates prefix, then
/// restores angular order so the geometry stays reproducible to the eye.
fn sparse_ring(count: usize, radius: f64, keep: f64, seed: u64) -> TransducerArray {
    let kept = ((count as f64 * keep).round() as usize).clamp(2, count);
    let mut idx: Vec<usize> = (0..count).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..kept {
        let j = i + (rng.gen::<u64>() % (count - i) as u64) as usize;
        idx.swap(i, j);
    }
    let mut chosen: Vec<usize> = idx[..kept].to_vec();
    chosen.sort_unstable();
    let positions: Vec<Point2> = chosen
        .into_iter()
        .map(|i| {
            let theta = 2.0 * std::f64::consts::PI * i as f64 / count as f64;
            Point2::unit(theta) * radius
        })
        .collect();
    TransducerArray::from_positions(positions)
}

/// Seeded additive complex-Gaussian measurement noise at a target SNR.
///
/// Each transmitter row gets its own splitmix64-derived stream, so the
/// noise is independent of row generation order and thread count, and no
/// stream seed is ever reused across transmitters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseModel {
    /// Signal-to-noise ratio in dB (per transmitter row).
    pub snr_db: f64,
    /// Master seed; per-transmitter streams are derived from it.
    pub seed: u64,
}

impl NoiseModel {
    /// The derived stream seed for transmitter `tx`. Distinct transmitters
    /// always get distinct streams (splitmix64 is a bijection composed with
    /// distinct inputs).
    pub fn stream_seed(&self, tx: usize) -> u64 {
        // Golden-ratio spacing keeps inputs distinct for any tx, then
        // splitmix64 scrambles them into well-separated streams.
        splitmix64(self.seed ^ (tx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Adds noise to one transmitter row in place. Bit-deterministic in
    /// `(self.seed, tx)` alone.
    pub fn apply_row(&self, tx: usize, row: &mut [C64]) {
        let power: f64 = row.iter().map(|v| v.norm_sqr()).sum::<f64>() / row.len().max(1) as f64;
        if power == 0.0 {
            return;
        }
        let sigma = (power / 10f64.powf(self.snr_db / 10.0) / 2.0).sqrt();
        let mut rng = StdRng::seed_from_u64(self.stream_seed(tx));
        for v in row.iter_mut() {
            *v += c64(sigma * gauss(&mut rng), sigma * gauss(&mut rng));
        }
    }

    /// Adds noise to a full `[n_tx][n_rx]` measurement set in place.
    pub fn apply(&self, measured: &mut [Vec<C64>]) {
        for (tx, row) in measured.iter_mut().enumerate() {
            self.apply_row(tx, row);
        }
    }
}

/// One standard-normal draw via Box–Muller (matches the repo's
/// `ffw_inverse::add_noise` construction, but per-stream).
fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// splitmix64 — the standard 64-bit mix (Steele–Lea–Flood), used to derive
/// independent stream seeds from one master seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Wraps a phantom with a uniform loss tangent: where the real contrast is
/// `c`, the complex contrast becomes `c * (1 + i * loss_tangent)` —
/// absorption proportional to the material density.
#[derive(Clone, Debug)]
pub struct Lossy<P> {
    /// The lossless phantom supplying the real contrast.
    pub phantom: P,
    /// Imaginary/real contrast ratio (`>= 0`).
    pub loss_tangent: f64,
}

impl<P: Phantom> Lossy<P> {
    /// The tree-order complex object `O = k0^2 * c * (1 + i*tan_delta)`.
    pub fn object(&self, domain: &Domain, tree: &QuadTree) -> Vec<C64> {
        lossy_object_from_contrast(
            domain,
            tree,
            &self.phantom.rasterize(domain),
            self.loss_tangent,
        )
    }
}

/// Converts a real grid-order contrast raster into a tree-order *lossy*
/// object vector: `O = k0^2 * c * (1 + i * loss_tangent)`.
pub fn lossy_object_from_contrast(
    domain: &Domain,
    tree: &QuadTree,
    contrast: &[f64],
    loss_tangent: f64,
) -> Vec<C64> {
    assert_eq!(contrast.len(), domain.n_pixels());
    assert!(loss_tangent >= 0.0, "loss tangent must be non-negative");
    let k0sq = domain.k0() * domain.k0();
    let complex: Vec<C64> = contrast
        .iter()
        .map(|&c| c64(k0sq * c, k0sq * c * loss_tangent))
        .collect();
    tree.to_tree_order(&complex)
}

/// One named entry of the scenario zoo.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Short identifier used in the quality matrix and test names.
    pub name: &'static str,
    /// Cylinder permittivity contrast.
    pub contrast: f64,
    /// Cylinder radius as a fraction of the domain side.
    pub radius_factor: f64,
    /// Transducer aperture.
    pub aperture: Aperture,
    /// Optional measurement noise.
    pub noise: Option<NoiseModel>,
    /// Loss tangent of the medium (0 = lossless).
    pub loss_tangent: f64,
}

/// The standard zoo exercised by the regularizer × scenario matrix
/// (`crates/inverse/tests/scenario_zoo.rs`, EXPERIMENTS.md).
pub fn scenario_zoo() -> Vec<Scenario> {
    let arc210 = 7.0 * std::f64::consts::PI / 6.0;
    vec![
        Scenario {
            name: "full_clean",
            contrast: 0.1,
            radius_factor: 0.3,
            aperture: Aperture::Full,
            noise: None,
            loss_tangent: 0.0,
        },
        Scenario {
            name: "full_noisy30",
            contrast: 0.1,
            radius_factor: 0.3,
            aperture: Aperture::Full,
            noise: Some(NoiseModel {
                snr_db: 30.0,
                seed: 0x5EED_0001,
            }),
            loss_tangent: 0.0,
        },
        Scenario {
            name: "arc210_clean",
            contrast: 0.25,
            radius_factor: 0.35,
            aperture: Aperture::Arc { span: arc210 },
            noise: None,
            loss_tangent: 0.0,
        },
        Scenario {
            name: "sparse_half_noisy30",
            contrast: 0.1,
            radius_factor: 0.3,
            aperture: Aperture::Sparse {
                keep: 0.5,
                seed: 0x5EED_0002,
            },
            noise: Some(NoiseModel {
                snr_db: 30.0,
                seed: 0x5EED_0003,
            }),
            loss_tangent: 0.0,
        },
        Scenario {
            name: "full_lossy",
            contrast: 0.1,
            radius_factor: 0.3,
            aperture: Aperture::Full,
            noise: None,
            loss_tangent: 0.2,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cylinder;
    use std::collections::HashSet;

    fn sample_rows(n_tx: usize, n_rx: usize) -> Vec<Vec<C64>> {
        (0..n_tx)
            .map(|t| {
                (0..n_rx)
                    .map(|r| c64(1.0 + t as f64 * 0.1, 0.5 - r as f64 * 0.05))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn noise_same_seed_is_bit_identical_across_thread_counts() {
        let model = NoiseModel {
            snr_db: 30.0,
            seed: 42,
        };
        let base = sample_rows(8, 16);
        // Sequential reference.
        let mut seq = base.clone();
        model.apply(&mut seq);
        // Four threads, rows interleaved — any partition must agree.
        for n_threads in [1usize, 2, 4] {
            let mut par = base.clone();
            #[expect(
                clippy::disallowed_methods,
                reason = "the property under test is agreement across OS threads that each noise a partition of the rows"
            )]
            std::thread::scope(|s| {
                for (chunk_id, chunk) in par.chunks_mut(base.len().div_ceil(n_threads)).enumerate()
                {
                    let offset = chunk_id * base.len().div_ceil(n_threads);
                    s.spawn(move || {
                        for (i, row) in chunk.iter_mut().enumerate() {
                            model.apply_row(offset + i, row);
                        }
                    });
                }
            });
            for (a, b) in seq.iter().zip(&par) {
                for (x, y) in a.iter().zip(b) {
                    assert!(x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits());
                }
            }
        }
    }

    #[test]
    fn noise_different_seeds_are_statistically_distinct() {
        let base = sample_rows(4, 32);
        let mut a = base.clone();
        let mut b = base.clone();
        NoiseModel {
            snr_db: 20.0,
            seed: 1,
        }
        .apply(&mut a);
        NoiseModel {
            snr_db: 20.0,
            seed: 2,
        }
        .apply(&mut b);
        // The two noise realizations must differ on the vast majority of
        // samples (they are independent Gaussian draws).
        let differing = a
            .iter()
            .flatten()
            .zip(b.iter().flatten())
            .filter(|(x, y)| x != y)
            .count();
        assert!(differing > 120, "only {differing}/128 samples differ");
        // And the achieved noise level matches the target SNR roughly.
        let signal: f64 = base.iter().flatten().map(|v| v.norm_sqr()).sum();
        let noise: f64 = a
            .iter()
            .flatten()
            .zip(base.iter().flatten())
            .map(|(x, s)| (*x - *s).norm_sqr())
            .sum();
        let snr = 10.0 * (signal / noise).log10();
        assert!((snr - 20.0).abs() < 3.0, "achieved SNR {snr:.1} dB");
    }

    #[test]
    fn noise_streams_never_reuse_seeds_across_transmitters() {
        let model = NoiseModel {
            snr_db: 30.0,
            seed: 7,
        };
        let mut seen = HashSet::new();
        for tx in 0..4096 {
            assert!(
                seen.insert(model.stream_seed(tx)),
                "stream seed reused at tx {tx}"
            );
        }
        // Distinct master seeds shift every stream.
        let other = NoiseModel {
            snr_db: 30.0,
            seed: 8,
        };
        assert_ne!(model.stream_seed(0), other.stream_seed(0));
    }

    #[test]
    fn noise_skips_silent_rows_and_scales_with_snr() {
        let model = NoiseModel {
            snr_db: 10.0,
            seed: 3,
        };
        let mut silent = vec![vec![C64::ZERO; 8]];
        model.apply(&mut silent);
        assert!(silent[0].iter().all(|v| *v == C64::ZERO));

        let base = sample_rows(1, 64);
        let apply_at = |snr: f64| {
            let mut m = base.clone();
            NoiseModel {
                snr_db: snr,
                seed: 3,
            }
            .apply(&mut m);
            m.iter()
                .flatten()
                .zip(base.iter().flatten())
                .map(|(x, s)| (*x - *s).norm_sqr())
                .sum::<f64>()
        };
        // 20 dB less SNR => ~100x the noise power.
        let ratio = apply_at(10.0) / apply_at(30.0);
        assert!((ratio - 100.0).abs() < 30.0, "ratio {ratio}");
    }

    #[test]
    fn aperture_full_arc_sparse_shapes() {
        let (tx, rx) = Aperture::Full.build(8, 16, 2.0);
        assert_eq!((tx.len(), rx.len()), (8, 16));

        let (tx, rx) = Aperture::Arc {
            span: std::f64::consts::PI,
        }
        .build(8, 16, 2.0);
        assert_eq!((tx.len(), rx.len()), (8, 16));
        // Every element sits in the upper half-plane (arc from angle 0 to pi).
        for p in tx.positions().iter().chain(rx.positions()) {
            assert!(p.y >= -1e-12, "arc element below the aperture: {p:?}");
        }

        let (tx, rx) = Aperture::Sparse { keep: 0.5, seed: 9 }.build(16, 16, 2.0);
        assert_eq!((tx.len(), rx.len()), (8, 8));
        // tx and rx masks are derived from distinct streams.
        assert_ne!(tx.positions(), rx.positions());
        // Deterministic in the seed.
        let (tx2, _) = Aperture::Sparse { keep: 0.5, seed: 9 }.build(16, 16, 2.0);
        assert_eq!(tx.positions(), tx2.positions());
        let (tx3, _) = Aperture::Sparse {
            keep: 0.5,
            seed: 10,
        }
        .build(16, 16, 2.0);
        assert_ne!(tx.positions(), tx3.positions());
        // All kept elements stay on the nominal ring.
        for p in tx.positions() {
            assert!((p.norm() - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn lossy_object_carries_absorption() {
        let domain = Domain::new(32, 1.0);
        let tree = QuadTree::new(&domain);
        let lossy = Lossy {
            phantom: Cylinder {
                center: Point2::ZERO,
                radius: 0.8,
                contrast: 0.1,
            },
            loss_tangent: 0.2,
        };
        let obj = lossy.object(&domain, &tree);
        let max_re = obj.iter().map(|v| v.re).fold(0.0, f64::max);
        let max_im = obj.iter().map(|v| v.im).fold(0.0, f64::max);
        assert!(max_re > 0.0 && max_im > 0.0);
        assert!((max_im / max_re - 0.2).abs() < 1e-12);
        // Zero loss tangent reduces to the real object.
        let real =
            lossy_object_from_contrast(&domain, &tree, &lossy.phantom.rasterize(&domain), 0.0);
        assert!(real.iter().all(|v| v.im == 0.0));
    }

    #[test]
    fn zoo_entries_are_well_formed() {
        let zoo = scenario_zoo();
        assert!(zoo.len() >= 5);
        let mut names = HashSet::new();
        for s in &zoo {
            assert!(names.insert(s.name), "duplicate scenario name {}", s.name);
            assert!(s.contrast > 0.0 && s.radius_factor > 0.0 && s.loss_tangent >= 0.0);
            // Every aperture builds.
            let (tx, rx) = s.aperture.build(8, 16, 2.0);
            assert!(tx.len() >= 2 && rx.len() >= 2);
        }
    }
}
