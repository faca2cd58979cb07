//! Per-layer probes: each times one public entry point of one crate in
//! isolation, at the size of the workload's primary plan.

use crate::host::{self, THREADS};
use crate::stats::{median, percentile};
use ffw_fault::Checkpoint;
use ffw_mlfma::{MlfmaEngine, MlfmaPlan};
use ffw_numerics::fft::Fft;
use ffw_numerics::linalg::Matrix;
use ffw_numerics::{bessel, C64};
use ffw_obs::Stopwatch;
use ffw_par::Pool;
use ffw_serve::{Engine, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Leaf-block side: near-field blocks are `LEAF x LEAF` (64 pixels a leaf).
const LEAF: usize = ffw_geometry::LEAF_PIXELS;
/// Panel width of the kernel and apply probes.
const PANEL: usize = 8;
/// Timed applies per apply probe.
const APPLY_SAMPLES: usize = 12;
/// Threads of the two `ffw-par` probes, the only multi-threaded measurements
/// (`nproc` of the reference host).
const PAR_THREADS: usize = 2;

/// Seeded generator for probe inputs and job orders, on the workspace's
/// `StdRng`.
pub struct Rng(StdRng);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(StdRng::seed_from_u64(seed))
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        2.0 * self.0.gen::<f64>() - 1.0
    }

    pub fn vector(&mut self, n: usize) -> Vec<C64> {
        (0..n)
            .map(|_| C64::new(self.next_f64(), self.next_f64()))
            .collect()
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.0.gen::<u64>() % (i as u64 + 1)) as usize);
        }
    }
}

/// Repeats `f` until `secs` have passed (at least once); returns seconds per
/// call.
fn secs_per_call(secs: f64, mut f: impl FnMut()) -> f64 {
    let sw = Stopwatch::start();
    let mut calls = 0u64;
    loop {
        f();
        calls += 1;
        if sw.elapsed_secs() >= secs {
            return sw.elapsed_secs() / calls as f64;
        }
    }
}

/// `ffw-numerics` kernels.
pub struct NumericsProbe {
    /// `Matrix::matvec_acc_panel` on a leaf block with a width-8 panel, one
    /// thread (8 flops per complex multiply-add).
    pub panel_matvec_gflops: f64,
    /// Mean over the plan's levels of forward-FFT time per sample at that
    /// level's sample count.
    pub fft_ns_per_point: f64,
    pub hankel_ns_per_eval: f64,
}

pub fn numerics(plan: &MlfmaPlan, rng: &mut Rng) -> NumericsProbe {
    let block = Matrix::from_vec(LEAF, LEAF, rng.vector(LEAF * LEAF));
    let cols: Vec<Vec<C64>> = (0..PANEL).map(|_| rng.vector(LEAF)).collect();
    let xs: Vec<&[C64]> = cols.iter().map(Vec::as_slice).collect();
    let mut ys = vec![C64::ZERO; LEAF * PANEL];
    let per_call = secs_per_call(0.2, || {
        block.matvec_acc_panel(black_box(&xs), &mut ys);
        black_box(&mut ys);
    });
    let panel_matvec_gflops = 8.0 * (LEAF * LEAF * PANEL) as f64 / per_call * 1e-9;

    let per_level: Vec<f64> = plan
        .levels
        .iter()
        .map(|lp| {
            let fft = Fft::new(lp.q);
            let mut data = rng.vector(lp.q);
            let per_call = secs_per_call(0.03, || {
                fft.forward(black_box(&mut data));
                // keep magnitudes bounded over many unnormalized transforms
                let scale = 1.0 / (lp.q as f64).sqrt();
                data.iter_mut().for_each(|v| *v = v.scale(scale));
            });
            per_call / lp.q as f64 * 1e9
        })
        .collect();
    let fft_ns_per_point = per_level.iter().sum::<f64>() / per_level.len() as f64;

    const EVALS: usize = 4096;
    let per_call = secs_per_call(0.1, || {
        for i in 0..EVALS {
            black_box(bessel::hankel1_0(black_box(0.05 + 0.0125 * i as f64)));
        }
    });
    NumericsProbe {
        panel_matvec_gflops,
        fft_ns_per_point,
        hankel_ns_per_eval: per_call / EVALS as f64 * 1e9,
    }
}

/// `ffw-par` and `ffw-mlfma` through `MlfmaEngine::apply_block`.
pub struct ApplyProbe {
    /// One empty `parallel_for` of [`PAR_THREADS`] items on a pool of as
    /// many threads.
    pub dispatch_us: f64,
    /// Width-8 `apply_block`: median on one thread over median on
    /// [`PAR_THREADS`].
    pub speedup_2t: f64,
    /// On the workloads' [`THREADS`].
    pub b8_ms_p50: f64,
    pub b8_ms_p90: f64,
    pub b1_ms_p50: f64,
}

fn apply_ms(engine: &MlfmaEngine, panel: &[Vec<C64>], samples: usize) -> Vec<f64> {
    let xs: Vec<&[C64]> = panel.iter().map(Vec::as_slice).collect();
    let mut ys = vec![vec![C64::ZERO; engine.n()]; panel.len()];
    engine.apply_block(&xs, &mut ys); // warm the block workspace
    (0..samples)
        .map(|_| {
            let sw = Stopwatch::start();
            engine.apply_block(black_box(&xs), &mut ys);
            black_box(&mut ys);
            sw.elapsed_secs() * 1e3
        })
        .collect()
}

pub fn apply(plan: &Arc<MlfmaPlan>, rng: &mut Rng) -> ApplyProbe {
    let panel: Vec<Vec<C64>> = (0..PANEL).map(|_| rng.vector(plan.n_pixels())).collect();
    let engine = MlfmaEngine::new(Arc::clone(plan), Arc::new(Pool::new(THREADS)));
    let b8 = apply_ms(&engine, &panel, APPLY_SAMPLES);
    let b1 = apply_ms(&engine, &panel[..1], APPLY_SAMPLES);
    let p50 = |v: &[f64]| median(v).expect("samples");

    host::wake_cores(PAR_THREADS);
    let pool = Arc::new(Pool::new(PAR_THREADS));
    let per_call = secs_per_call(0.2, || {
        pool.parallel_for(PAR_THREADS, 1, |i| {
            black_box(i);
        })
    });
    let wide = MlfmaEngine::new(Arc::clone(plan), pool);
    let b8_wide = apply_ms(&wide, &panel, APPLY_SAMPLES / 2);
    ApplyProbe {
        dispatch_us: per_call * 1e6,
        speedup_2t: p50(&b8) / p50(&b8_wide),
        b8_ms_p50: p50(&b8),
        b8_ms_p90: percentile(&b8, 90).expect("samples"),
        b1_ms_p50: p50(&b1),
    }
}

/// `Checkpoint::save` (encode, write, fsync, rename, directory fsync) at a
/// state of `n_pixels` unknowns and `n_tx` warm-start fields.
pub struct CheckpointProbe {
    pub write_ms_p50: f64,
    pub bytes: u64,
}

pub fn checkpoint(dir: &Path, n_pixels: usize, n_tx: usize, rng: &mut Rng) -> CheckpointProbe {
    let mut field = |n: usize| -> Vec<(f64, f64)> {
        (0..n).map(|_| (rng.next_f64(), rng.next_f64())).collect()
    };
    let ckpt = Checkpoint {
        fingerprint: 0x1add_e401,
        next_iter: 1,
        lost_txs: Vec::new(),
        residual_history: vec![0.5],
        object: field(n_pixels),
        grad_prev: field(n_pixels),
        dir: field(n_pixels),
        fields: (0..n_tx as u32).map(|t| (t, field(n_pixels))).collect(),
    };
    let path = dir.join("probe.ckpt");
    let ms: Vec<f64> = (0..5)
        .map(|_| {
            let sw = Stopwatch::start();
            ckpt.save(&path).expect("checkpoint probe write");
            sw.elapsed_secs() * 1e3
        })
        .collect();
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&path);
    CheckpointProbe {
        write_ms_p50: median(&ms).expect("samples"),
        bytes,
    }
}

/// `Engine::open` on a fresh state directory (journal create + worker
/// start), median of five; each engine is drained and joined untimed.
pub fn serve_open_s(dir: &Path) -> f64 {
    let secs: Vec<f64> = (0..5)
        .map(|i| {
            let state = dir.join(format!("open-probe-{i}"));
            let sw = Stopwatch::start();
            let engine = Engine::open(ServeConfig::new(state.clone())).expect("open engine");
            let s = sw.elapsed_secs();
            engine.drain(false);
            engine.join();
            let _ = std::fs::remove_dir_all(&state);
            s
        })
        .collect();
    median(&secs).expect("samples")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        for _ in 0..1000 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!((-1.0..1.0).contains(&x));
        }
        assert_ne!(Rng::new(1).next_f64(), Rng::new(2).next_f64());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        Rng::new(3).shuffle(&mut a);
        Rng::new(3).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        let mut c: Vec<u32> = (0..20).collect();
        Rng::new(4).shuffle(&mut c);
        assert_ne!(a, c);
    }
}
