//! # ffw-mlfma
//!
//! The multilevel fast multipole algorithm for the 2-D Helmholtz volume
//! integral operator: an `O(N)` matrix-vector product with the `N x N`
//! pairwise interaction matrix `G0`, factorized through hierarchical
//! plane-wave (diagonal-translator) expansions on the quad-tree of
//! `ffw-geometry`.
//!
//! This is the algorithmic core of the paper: every forward-scattering
//! solution inside the DBIM inversion multiplies by `G0` twice per BiCGStab
//! iteration, and MLFMA is what turns the `O(N^2)`/`O(N^3)` bottleneck into
//! the `O(N)` kernel that scales to millions of unknowns.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

/// Whether the `avx2,fma` instances of the kernel bodies may run on this
/// CPU. They are compiled out under Miri: the interpreter has no cpuid, and
/// the portable bodies are the bit-identical reference anyway.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline]
fn fused_instances_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// Runs the kernel body `$body` on its arguments: on x86-64 with AVX2 and
/// FMA, the instance of the same safe code recompiled for both; anywhere
/// else the portable body itself. Every multiply-add of a body is an explicit
/// `f64::mul_add`, which is correctly rounded wherever it runs (the FMA
/// instruction, aarch64's, libm's `fma` on x86-64 without it — correct but
/// slow — or Miri's soft float), so the two agree bit for bit. Expands to
/// the tail of a function returning `()`: the instance's branch `return`s.
macro_rules! dispatch {
    ($body:ident($($arg:ident: $ty:ty),* $(,)?)) => {{
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            #[target_feature(enable = "avx2,fma")]
            fn instance($($arg: $ty),*) {
                $body($($arg),*)
            }
            if $crate::fused_instances_available() {
                // SAFETY: AVX2 and FMA were both detected at run time just
                // above, and `instance` is safe code that needs nothing else.
                unsafe { instance($($arg),*) };
                return;
            }
        }
        $body($($arg),*)
    }};
}

pub mod engine;
pub mod farfield;
pub mod interp;
pub mod kernels;
pub mod local;
pub mod near;
pub mod params;
pub mod plan;

pub use engine::MlfmaEngine;
pub use farfield::FarField;
pub use interp::lagrange_interp_matrix;
pub use local::{LocalExpansion, MultipoleExpansion};
pub use near::NearField;
pub use params::Accuracy;
pub use plan::{offset_index, translator, LevelPlan, MlfmaPlan, OperatorCensus, PlanStats};

#[cfg(test)]
mod tests {
    /// A kernel-shaped body: one fused multiply-add chain per output.
    #[inline(always)]
    fn body(t: &[f64], s: &[f64], out: &mut [f64]) {
        for (o, (t, s)) in out.iter_mut().zip(t.iter().zip(s)) {
            *o = (-t).mul_add(*s, t.mul_add(*s, *o));
        }
    }

    fn dispatched(t: &[f64], s: &[f64], out: &mut [f64]) {
        dispatch!(body(t: &[f64], s: &[f64], out: &mut [f64]));
    }

    /// The instances need AVX2 *and* FMA; a host with neither (or with AVX2
    /// alone) falls through to the portable body, whose `f64::mul_add` libm
    /// rounds as the instruction does — the same bits, only slower.
    #[test]
    fn the_instances_need_both_flags_and_the_portable_body_answers_without_them() {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        assert_eq!(
            crate::fused_instances_available(),
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        );
        let t: Vec<f64> = (0..37).map(|i| 0.1 + i as f64 / 7.0).collect();
        let s: Vec<f64> = (0..37).map(|i| 1.0 / (3.0 + i as f64)).collect();
        let (mut via_dispatch, mut portable) = (vec![0.25; 37], vec![0.25; 37]);
        dispatched(&t, &s, &mut via_dispatch);
        body(&t, &s, &mut portable);
        assert_eq!(via_dispatch, portable);
        // one rounding per multiply-add: not what `t * s + o` gives
        let unfused: Vec<f64> = (0..37)
            .map(|i| -t[i] * s[i] + (t[i] * s[i] + 0.25))
            .collect();
        assert_ne!(portable, unfused);
    }
}
