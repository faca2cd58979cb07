//! `TimedG0`: the ladder's outside measurement of the MLFMA layer.
//!
//! A `LinOp + BlockLinOp` wrapper around any `G0` operator that timestamps
//! every apply. It is passed to the generic `dbim` /
//! `synthesize_measurements` in the traced rep only; timed reps run on the
//! bare operator.

use ffw_numerics::C64;
use ffw_solver::{BlockLinOp, LinOp};
use std::sync::Mutex;

/// One timed apply: `width` columns between two monotonic readings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApplySample {
    pub start_ns: u64,
    pub end_ns: u64,
    pub width: u32,
}

impl ApplySample {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Wraps `inner`, recording an [`ApplySample`] per apply.
pub struct TimedG0<'a, G: BlockLinOp + ?Sized> {
    inner: &'a G,
    samples: Mutex<Vec<ApplySample>>,
}

impl<'a, G: BlockLinOp + ?Sized> TimedG0<'a, G> {
    pub fn new(inner: &'a G) -> Self {
        TimedG0 {
            inner,
            samples: Mutex::new(Vec::new()),
        }
    }

    /// Removes and returns the samples recorded since the last call.
    pub fn take(&self) -> Vec<ApplySample> {
        std::mem::take(
            &mut *self
                .samples
                .lock()
                .expect("no apply panics while holding the sample lock"),
        )
    }

    fn record(&self, start_ns: u64, width: usize) {
        let end_ns = ffw_obs::monotonic_ns();
        self.samples
            .lock()
            .expect("no apply panics while holding the sample lock")
            .push(ApplySample {
                start_ns,
                end_ns,
                width: width as u32,
            });
    }
}

impl<G: BlockLinOp + ?Sized> LinOp for TimedG0<'_, G> {
    fn dim_out(&self) -> usize {
        self.inner.dim_out()
    }
    fn dim_in(&self) -> usize {
        self.inner.dim_in()
    }
    fn apply(&self, x: &[C64], y: &mut [C64]) {
        let start = ffw_obs::monotonic_ns();
        self.inner.apply(x, y);
        self.record(start, 1);
    }
}

impl<G: BlockLinOp + ?Sized> BlockLinOp for TimedG0<'_, G> {
    fn apply_block(&self, xs: &[&[C64]], ys: &mut [Vec<C64>]) {
        let start = ffw_obs::monotonic_ns();
        self.inner.apply_block(xs, ys);
        self.record(start, xs.len());
    }
}

/// Busy seconds and column count of a sample set.
pub fn totals(samples: &[ApplySample]) -> (f64, u64) {
    samples
        .iter()
        .fold((0.0, 0), |(s, c), a| (s + a.secs(), c + u64::from(a.width)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffw_solver::DiagonalOp;

    #[test]
    fn wrapper_is_transparent_and_counts_columns() {
        let inner = DiagonalOp(vec![C64::new(2.0, 0.0); 3]);
        let timed = TimedG0::new(&inner);
        let x = vec![C64::new(1.0, -1.0); 3];
        let mut y = vec![C64::ZERO; 3];
        timed.apply(&x, &mut y);
        assert_eq!(y, vec![C64::new(2.0, -2.0); 3]);
        let mut ys = vec![vec![C64::ZERO; 3]; 2];
        timed.apply_block(&[&x, &x], &mut ys);
        assert_eq!(ys[1], y);
        let samples = timed.take();
        assert_eq!(samples.iter().map(|s| s.width).collect::<Vec<_>>(), [1, 2]);
        assert!(samples.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(totals(&samples).1, 3);
        assert!(timed.take().is_empty(), "take drains");
    }
}
