//! Compute-integrity layer: ABFT checksum verification of operator applies
//! and Krylov drift guards.
//!
//! A silent bit-flip inside an MLFMA apply or a Krylov update propagates
//! unchecked into the reconstruction — the one fault class the message-level
//! CRC/ABFT machinery of `ffw-mpi` cannot see, because the corruption happens
//! *between* the checked boundaries. This module closes that gap with the
//! classic Huang–Abraham algorithm-based fault-tolerance identity: for any
//! linear operator, `A (Σ_b x_b) = Σ_b (A x_b)` up to floating-point
//! rounding, so a *checksum column* (the sum of the panel's right-hand
//! sides) predicts the sum of the panel's outputs to a calibrated
//! rounding-level tolerance, and any corruption larger than that tolerance
//! breaks the identity.
//!
//! Two cooperating detectors implement the detect → recompute → escalate
//! ladder:
//!
//! * [`VerifiedBlockOp`] wraps any [`BlockLinOp`] and folds every panel of
//!   every `apply_block` call into a running checksum window. Every
//!   [`VerifyConfig::period`] panels (period 1 = per-panel, the textbook
//!   form) one extra checksum apply verifies the whole window elementwise.
//!   A mismatch inside the current panel is *recomputed* in place (bounded
//!   by the retry budget); a mismatch attributable to an already-consumed
//!   panel cannot be silently repaired and is *escalated* as a typed
//!   [`FaultError::ComputeCorruption`] for the caller (Krylov rollback, a
//!   DBIM pass retry, or the distributed restart path) to recover.
//! * [`DriftGuard`] audits the Krylov recurrences themselves: the solvers
//!   recompute the *true* residual `b - A x` every few iterations and treat
//!   recursive-vs-true divergence beyond tolerance as detected corruption,
//!   rolling back to the last verified iterate instead of silently
//!   converging to a wrong answer. The columns due at one step share one
//!   apply: a random combination of them is audited (Freivalds' check of
//!   the same identity), and the per-column audits run only when it fails.
//!
//! The window form exists for performance: a fused width-`B` panel costs far
//! less than `B` single applies, so a per-panel ride-along checksum column
//! would cost `~1/B` of the panel *plus* the SIMD-remainder penalty of an
//! odd width — measured ~36% at `B = 8` on a 32² workload. Amortizing one
//! checksum apply over a `period`-panel window is what `ffw-bench --bin
//! sdc_overhead` gates under 5% (it reads 1–2%) — for back-to-back width-8
//! panels at 32², the checksum window alone. A reconstruction pays more: a
//! window is closed at every iteration boundary however few panels it
//! holds, and the drift guard audits every solve. Measured as verified /
//! unverified pairs inside one process on a 2-vCPU AVX2 + FMA host
//! (EXPERIMENTS.md, "One drift audit per lockstep point"), `recon_s` on
//! `serial-256` (batch 4, one outer iteration) is 1.11–1.20× the
//! unverified run and on `hop-wgcv-64` 1.09–1.10×. The guard audits all
//! the columns due at one lockstep point with one apply ([`DriftGuard`]),
//! so `hop-wgcv-64` spends 92 verification applies on top of its 2 066
//! columns: 71 audit applies for 352 column audits, and 21 checksum
//! windows. Short solves and short windows are what make the rest: the
//! price falls with the iterations per solve and the panels per window,
//! not with the panel width.
//!
//! The window's sums are walked once per panel, a cache block at a time,
//! and the panel that closes a window is verified *in hand* — its outputs
//! join the comparison on the fly instead of being folded in first — so a
//! recompute has nothing to undo and a boundary keeps no copy of the sums.

use crate::op::{BlockLinOp, LinOp};
use ffw_fault::{ComputeFault, FaultError, RetryPolicy};
use ffw_numerics::C64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default elementwise relative checksum tolerance.
///
/// The checksum identity holds to floating-point rounding (the operator is
/// applied exactly, linearity is exact in exact arithmetic), measured at
/// `<= 3e-13` of the accumulated elementwise scale across both MLFMA
/// accuracy settings on windows of 64 columns — so `1e-9` keeps more than
/// three orders of margin against false positives while still detecting any
/// flip that perturbs a lane by more than a part in `10^7` of its panel
/// scale (every exponent bit, and mantissa bits down to ~bit 30).
pub const DEFAULT_CHECKSUM_REL_TOL: f64 = 1e-9;

/// Default number of panels folded into one checksum verification.
///
/// One checksum apply costs roughly a third of a fused width-8 panel at
/// 32², so amortizing it over 16 panels keeps the *window's* steady-state
/// cost at 1–2% of back-to-back width-8 panels (`ffw-bench --bin
/// sdc_overhead` gates it under 5%). That is not what a reconstruction
/// pays: a DBIM run closes its window at every iteration boundary and
/// audits every solve, and reads 1.11–1.20× on `serial-256` (module docs).
/// Detection latency is bounded by the window: corruption in a consumed
/// panel is caught at most `period - 1` panels later and escalated for
/// rollback/retry recovery.
pub const DEFAULT_VERIFY_PERIOD: usize = 16;

/// Default relative recursive-vs-true residual divergence tolerated by
/// [`DriftGuard`] before an iterate is declared corrupted.
pub const DEFAULT_DRIFT_REL_TOL: f64 = 1e-8;

/// Default number of update steps between [`DriftGuard`] true-residual
/// audits.
pub const DEFAULT_DRIFT_PERIOD: usize = 8;

/// A deterministic fault hook: called once per logical panel with the
/// 1-based panel index, returns the fault (if any) scheduled for that panel.
///
/// `ffw-fault`'s `ActiveFaults::on_apply` advances its own per-rank counter,
/// so production injectors ignore the argument; unit tests key off it.
pub type ComputeInjector = Arc<dyn Fn(u64) -> Option<ComputeFault> + Send + Sync>;

/// Configuration for [`VerifiedBlockOp`].
#[derive(Clone)]
pub struct VerifyConfig {
    /// Elementwise relative checksum tolerance (scaled by the accumulated
    /// elementwise magnitudes, so the check is scale-invariant). Derive it
    /// from the MLFMA accuracy setting via `Accuracy::checksum_rel_tol()`.
    pub rel_tol: f64,
    /// Absolute floor added to the elementwise scale so exactly-zero windows
    /// cannot divide by zero.
    pub abs_floor: f64,
    /// Panels per checksum verification; `1` verifies (and can recompute)
    /// every panel before its outputs are released.
    pub period: usize,
    /// Recompute budget per verification (initial compute + this many
    /// recomputes before escalating).
    pub max_recomputes: u32,
    /// Stage label carried by escalated errors (e.g. `mlfma.apply_block`).
    pub stage: String,
    /// Rank carried by escalated errors (0 in serial runs).
    pub rank: usize,
    /// Deterministic fault hook applied to panel outputs before
    /// verification; `None` in production.
    pub injector: Option<ComputeInjector>,
}

impl std::fmt::Debug for VerifyConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifyConfig")
            .field("rel_tol", &self.rel_tol)
            .field("abs_floor", &self.abs_floor)
            .field("period", &self.period)
            .field("max_recomputes", &self.max_recomputes)
            .field("stage", &self.stage)
            .field("rank", &self.rank)
            .field("injector", &self.injector.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            rel_tol: DEFAULT_CHECKSUM_REL_TOL,
            abs_floor: 1e-300,
            period: DEFAULT_VERIFY_PERIOD,
            max_recomputes: RetryPolicy::default().max_retries,
            stage: "mlfma.apply_block".into(),
            rank: 0,
            injector: None,
        }
    }
}

impl VerifyConfig {
    /// A config with the given checksum tolerance and every other knob at
    /// its default.
    pub fn with_rel_tol(rel_tol: f64) -> Self {
        VerifyConfig {
            rel_tol,
            ..Self::default()
        }
    }

    /// Per-panel verification (period 1): every panel is checked — and can
    /// be recomputed bit-identically — before its outputs are released.
    pub fn immediate(mut self) -> Self {
        self.period = 1;
        self
    }
}

/// Running checksum window state (interior-mutable behind one mutex).
struct Window {
    /// Data panels folded into the pending window.
    panels: usize,
    /// Running checksum input: `Σ_panels Σ_b x_b`.
    x_cs: Vec<C64>,
    /// Running expected checksum output: `Σ_panels Σ_b y_b`.
    y_sum: Vec<C64>,
    /// Running elementwise magnitude scale: `Σ_panels Σ_b ‖y_b[i]‖₁`
    /// (1-norm `|re| + |im|` — within `√2` of the modulus and sqrt-free,
    /// since this accumulates on every lane of every panel).
    abs_acc: Vec<f64>,
    /// The checksum apply's output, kept for the wrapper's life so a
    /// verification allocates nothing.
    y_cs: Vec<C64>,
}

impl Window {
    fn new(n: usize) -> Self {
        Window {
            panels: 0,
            x_cs: vec![C64::ZERO; n],
            y_sum: vec![C64::ZERO; n],
            abs_acc: vec![0.0; n],
            y_cs: vec![C64::ZERO; n],
        }
    }

    fn reset(&mut self) {
        self.panels = 0;
        self.x_cs.iter_mut().for_each(|v| *v = C64::ZERO);
        self.y_sum.iter_mut().for_each(|v| *v = C64::ZERO);
        self.abs_acc.iter_mut().for_each(|v| *v = 0.0);
    }
}

/// ABFT checksum-verifying wrapper around a [`BlockLinOp`].
///
/// Data panels pass through the inner operator untouched (each column stays
/// bit-identical to an unwrapped apply); the wrapper folds every panel into
/// the running checksum window and verifies the window every
/// [`VerifyConfig::period`] panels with one extra checksum apply. Callers
/// that finish a logical unit of work (a DBIM pass, a distributed solve)
/// should call [`Self::flush`] so a partially-filled window is verified
/// before its outputs are trusted, and must poll [`Self::take_corruption`]
/// for escalated faults — [`LinOp::apply`] cannot return errors, so
/// escalation is a side channel by construction.
pub struct VerifiedBlockOp<'a, A: BlockLinOp + ?Sized> {
    inner: &'a A,
    cfg: VerifyConfig,
    window: Mutex<Window>,
    /// Total logical data panels seen (1-based index of the latest panel).
    panel_index: AtomicU64,
    /// Checksum mismatches observed.
    detected: AtomicU64,
    /// Mismatches repaired by recomputing the pending panel in place.
    recomputed: AtomicU64,
    /// Mismatches that exhausted the recompute budget and were escalated.
    escalated: AtomicU64,
    /// Escalated typed error awaiting pickup by the caller.
    corruption: Mutex<Option<FaultError>>,
    /// An injected fault that landed on an all-zero panel output (nothing
    /// detectable to corrupt), deferred to the next nonzero panel.
    deferred_fault: Mutex<Option<ComputeFault>>,
}

impl<'a, A: BlockLinOp + ?Sized> VerifiedBlockOp<'a, A> {
    /// Wraps `inner` with the given verification config.
    pub fn new(inner: &'a A, cfg: VerifyConfig) -> Self {
        let n = inner.dim_out();
        assert_eq!(
            inner.dim_in(),
            n,
            "checksum columns need a square operator (dim_in == dim_out)"
        );
        assert!(cfg.period >= 1, "verification period must be >= 1");
        VerifiedBlockOp {
            inner,
            cfg,
            window: Mutex::new(Window::new(n)),
            panel_index: AtomicU64::new(0),
            detected: AtomicU64::new(0),
            recomputed: AtomicU64::new(0),
            escalated: AtomicU64::new(0),
            corruption: Mutex::new(None),
            deferred_fault: Mutex::new(None),
        }
    }

    /// Checksum mismatches observed so far.
    pub fn detected(&self) -> u64 {
        self.detected.load(Ordering::SeqCst)
    }

    /// Mismatches repaired by in-place panel recomputation.
    pub fn recomputed(&self) -> u64 {
        self.recomputed.load(Ordering::SeqCst)
    }

    /// Mismatches escalated as typed errors.
    pub fn escalated(&self) -> u64 {
        self.escalated.load(Ordering::SeqCst)
    }

    /// Takes the pending escalated error, if any. After an escalation the
    /// window restarts clean, so a caller that recovers (rolls back or
    /// retries a pass) can keep using the wrapper.
    pub fn take_corruption(&self) -> Option<FaultError> {
        self.corruption.lock().unwrap().take()
    }

    /// Verifies a partially-filled window (one checksum apply, bounded
    /// recomputes of the checksum apply itself). Call at the end of a
    /// logical unit of work, before trusting its outputs.
    ///
    /// An `Err` here means corruption landed in a panel that has already
    /// been consumed: the caller must recover (rollback / pass retry /
    /// restart) — the same error is also left in [`Self::take_corruption`]
    /// unless the caller takes it from the returned value.
    pub fn flush(&self) -> Result<(), FaultError> {
        let mut w = self.window.lock().unwrap();
        if w.panels == 0 {
            return self.pending_or_ok();
        }
        let panel = self.panel_index.load(Ordering::SeqCst);
        let outcome = self.verify_window(&mut w, panel, None);
        drop(w);
        match outcome {
            WindowOutcome::Clean | WindowOutcome::Recovered => self.pending_or_ok(),
            WindowOutcome::Escalated(e) => Err(e),
        }
    }

    fn pending_or_ok(&self) -> Result<(), FaultError> {
        match &*self.corruption.lock().unwrap() {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Runs the checksum apply for the pending window and compares. When the
    /// current panel is still in hand (`pending` is `Some`), a mismatch
    /// recomputes that panel too; otherwise only the checksum apply itself
    /// can be recomputed and a persistent mismatch escalates.
    fn verify_window(
        &self,
        w: &mut Window,
        panel: u64,
        mut pending: Option<PendingPanel<'_, '_>>,
    ) -> WindowOutcome {
        let mut repaired = false;
        let attempts = self.cfg.max_recomputes + 1;
        for attempt in 0..attempts {
            if attempt > 0 {
                // Recompute whatever is still in hand: always the checksum
                // apply, plus the pending data panel when there is one.
                if let Some(p) = pending.as_mut() {
                    p.recompute(self.inner, attempt);
                }
            }
            self.inner.apply(&w.x_cs, &mut w.y_cs);
            if ffw_obs::enabled() {
                ffw_obs::counter("sdc.checksum_applies").inc();
            }
            // The panel in hand joins the expected sum and the scale here,
            // in panel order, exactly as a fold into the window would have
            // added it.
            let in_hand: &[Vec<C64>] = pending.as_ref().map_or(&[], |p| &*p.ys);
            let expected = |i: usize| {
                let (mut sum, mut abs) = (w.y_sum[i], w.abs_acc[i]);
                for y in in_hand {
                    sum += y[i];
                    abs += y[i].re.abs() + y[i].im.abs();
                }
                (sum, abs)
            };
            match checksum_mismatch(&w.y_cs, expected, self.cfg.rel_tol, self.cfg.abs_floor) {
                None => {
                    if attempt > 0 {
                        repaired = true;
                        self.recomputed.fetch_add(1, Ordering::SeqCst);
                        ffw_obs::counter("sdc.recomputed").inc();
                        ffw_obs::event(
                            "sdc.recomputed",
                            &format!(
                                "{} panel #{panel} verified after {attempt} recompute(s)",
                                self.cfg.stage
                            ),
                        );
                    }
                    w.reset();
                    return if repaired {
                        WindowOutcome::Recovered
                    } else {
                        WindowOutcome::Clean
                    };
                }
                Some((i, d)) => {
                    self.detected.fetch_add(1, Ordering::SeqCst);
                    ffw_obs::counter("sdc.detected").inc();
                    ffw_obs::event(
                        "sdc.detected",
                        &format!(
                            "{} panel #{panel}: checksum residual {d:.3e} at element {i} \
                             (attempt {})",
                            self.cfg.stage,
                            attempt + 1
                        ),
                    );
                }
            }
        }
        // Recompute budget exhausted: the corruption is outside what we can
        // recompute (an already-consumed panel, or it keeps reappearing).
        // Escalate and restart the window clean so the caller's recovery
        // (rollback / pass retry / restart) can proceed.
        w.reset();
        let err = FaultError::ComputeCorruption {
            rank: self.cfg.rank,
            stage: self.cfg.stage.clone(),
            panel,
            attempts,
        };
        self.escalated.fetch_add(1, Ordering::SeqCst);
        ffw_obs::counter("sdc.escalated").inc();
        ffw_obs::event("sdc.escalated", &err.to_string());
        *self.corruption.lock().unwrap() = Some(err.clone());
        WindowOutcome::Escalated(err)
    }
}

/// Outcome of one window verification.
enum WindowOutcome {
    Clean,
    Recovered,
    Escalated(FaultError),
}

/// The panel still in hand during `apply_block`, recomputable in place. Its
/// inputs are in the window's checksum column; its outputs are not folded
/// into the window's sums — the comparison adds them on the fly — so a
/// recompute has nothing to undo.
struct PendingPanel<'x, 'y> {
    xs: &'x [&'x [C64]],
    ys: &'y mut [Vec<C64>],
    fault: Option<ComputeFault>,
}

impl PendingPanel<'_, '_> {
    /// Re-applies the panel (the injector corrupts the first
    /// `fault.times` attempts, so attempt `times` onward is clean).
    fn recompute<A: BlockLinOp + ?Sized>(&mut self, inner: &A, attempt: u32) {
        inner.apply_block(self.xs, self.ys);
        if let Some(f) = self.fault {
            if attempt < f.times {
                // The fault only reached this panel because its output is
                // nonzero, and recomputed outputs are bit-identical, so the
                // probe lands on the same lane every attempt.
                flip_panel_bit_detectable(self.ys, f.slot, f.bit);
            }
        }
    }
}

/// Elements of the window a fold keeps in cache while every column of the
/// panel is added to them.
const FOLD_BLOCK: usize = 256;

/// Folds a panel into the window — inputs into the checksum column, outputs
/// into the expected sum and the scale. The window is walked once, a block
/// at a time, and each block takes its columns in panel order, as a sweep
/// per column over the whole window would add them.
fn fold_panel(xs: &[&[C64]], ys: &[Vec<C64>], w: &mut Window) {
    for start in (0..w.x_cs.len()).step_by(FOLD_BLOCK) {
        let block = start..(start + FOLD_BLOCK).min(w.x_cs.len());
        for (x, y) in xs.iter().zip(ys) {
            let sums = w.x_cs[block.clone()]
                .iter_mut()
                .zip(&mut w.y_sum[block.clone()])
                .zip(&mut w.abs_acc[block.clone()]);
            for (((cs, sum), abs), (xi, yi)) in
                sums.zip(x[block.clone()].iter().zip(&y[block.clone()]))
            {
                *cs += *xi;
                *sum += *yi;
                *abs += yi.re.abs() + yi.im.abs();
            }
        }
    }
}

/// Share of the peak elementwise scale added to every element's own scale
/// once one element fails against its own: the lane floor
/// [`flip_panel_bit_detectable`] puts the detection contract on.
const PEAK_SCALE_FLOOR: f64 = 1e-2;

/// Elementwise checksum check: returns the first element whose residual
/// exceeds its tolerance, and that residual, or `None` if the identity
/// holds. `expected(i)` gives element `i`'s expected sum `Σ_b y_b[i]` and
/// its scale `Σ_b ‖y_b[i]‖₁`; the checksum output's own magnitude and
/// `abs_floor` join the scale, and the tolerance is `rel_tol` of it.
///
/// An element far below the largest one can fail its own scale on rounding
/// alone: `G0`'s global sums leave a residual of a few ulps of the largest
/// terms in every element, and cancellation can leave an element at `1e-4`
/// of the peak. So an element that fails its own scale is judged again with
/// `1e-2` times the peak scale of the slice added, and only a residual
/// beyond that fails. The peak is computed at the first such element, so a
/// clean slice pays nothing for it. Non-finite residuals fail explicitly:
/// `NaN > tol` is false, and an infinite residual carries an infinite own
/// scale with it, so the comparison alone cannot be trusted to catch them.
pub fn checksum_mismatch(
    y_cs: &[C64],
    expected: impl Fn(usize) -> (C64, f64),
    rel_tol: f64,
    abs_floor: f64,
) -> Option<(usize, f64)> {
    let scale = |i: usize, abs: f64| abs_floor + y_cs[i].re.abs() + y_cs[i].im.abs() + abs;
    let mut floor = None;
    for i in 0..y_cs.len() {
        let (sum, abs) = expected(i);
        let d = (y_cs[i] - sum).abs();
        let own = scale(i, abs);
        if d.is_finite() && d <= rel_tol * own {
            continue;
        }
        let floor = *floor.get_or_insert_with(|| {
            let peak = (0..y_cs.len())
                .map(|j| scale(j, expected(j).1))
                .fold(0.0, f64::max);
            PEAK_SCALE_FLOOR * peak
        });
        if !d.is_finite() || d > rel_tol * (own + floor) {
            return Some((i, d));
        }
    }
    None
}

/// Flips one bit of one `f64` lane in a panel of outputs.
///
/// Lanes are numbered column-major: lane `l = slot mod (width * n * 2)`
/// addresses column `l / (2n)`, element `(l mod 2n) / 2`, and the real
/// (even) or imaginary (odd) component. `bit` is taken mod 64: bits 0–51
/// are mantissa, 52–62 exponent, 63 the sign.
pub fn flip_panel_bit(ys: &mut [Vec<C64>], slot: u64, bit: u32) {
    let width = ys.len();
    if width == 0 {
        return;
    }
    let n = ys[0].len();
    let lanes = (width * n * 2) as u64;
    let lane = (slot % lanes) as usize;
    let col = lane / (2 * n);
    let rem = lane % (2 * n);
    let idx = rem / 2;
    let mask = 1u64 << (bit % 64);
    let v = &mut ys[col][idx];
    if rem.is_multiple_of(2) {
        v.re = f64::from_bits(v.re.to_bits() ^ mask);
    } else {
        v.im = f64::from_bits(v.im.to_bits() ^ mask);
    }
}

/// Like [`flip_panel_bit`], but probes forward (wrapping) from the lane
/// addressed by `slot` to the first lane whose magnitude is within a factor
/// of 100 of the panel's largest component, and flips that lane instead.
///
/// A bit flip in a lane that is many orders of magnitude below the panel's
/// scale perturbs the checksum by less than the calibrated tolerance — it
/// is *undetectable by construction*, and by the same rounding argument it
/// is harmless. The seeded fault matrix exists to prove the detect →
/// recompute → escalate ladder end to end, so its injections must land
/// where the contract applies: on lanes whose corruption matters. With the
/// magnitude floor, any scheduled flip (mantissa bit ≥ ~36, or any exponent
/// bit) perturbs the lane by at least `~1e-7` of the panel scale — two
/// orders above the worst calibrated tolerance. Probing is deterministic in
/// the panel contents, and recomputed panels are bit-identical, so repeated
/// injections of the same fault hit the same lane.
///
/// Returns `false` — flipping nothing — when the panel's output is entirely
/// zero: no lane of an all-zero panel can carry a detectable flip (the
/// injected denormal is absorbed below one ulp of any consumer), so the
/// caller defers the fault to the next panel instead.
pub fn flip_panel_bit_detectable(ys: &mut [Vec<C64>], slot: u64, bit: u32) -> bool {
    let width = ys.len();
    if width == 0 {
        return false;
    }
    let n = ys[0].len();
    let lanes = (width * n * 2) as u64;
    let comp = |ys: &[Vec<C64>], lane: usize| -> f64 {
        let col = lane / (2 * n);
        let rem = lane % (2 * n);
        let v = ys[col][rem / 2];
        if rem.is_multiple_of(2) {
            v.re.abs()
        } else {
            v.im.abs()
        }
    };
    let mut vmax = 0.0f64;
    for lane in 0..lanes as usize {
        vmax = vmax.max(comp(ys, lane));
    }
    if vmax == 0.0 {
        return false;
    }
    let start = slot % lanes;
    let mut lane = start;
    let floor = vmax * 1e-2;
    for k in 0..lanes {
        let cand = (start + k) % lanes;
        if comp(ys, cand as usize) >= floor {
            lane = cand;
            break;
        }
    }
    flip_panel_bit(ys, lane, bit);
    true
}

impl<A: BlockLinOp + ?Sized> LinOp for VerifiedBlockOp<'_, A> {
    fn dim_out(&self) -> usize {
        self.inner.dim_out()
    }
    fn dim_in(&self) -> usize {
        self.inner.dim_in()
    }
    /// A scalar apply is a width-1 panel: it flows through the same checksum
    /// window (and the same injection/recompute machinery) as block applies.
    fn apply(&self, x: &[C64], y: &mut [C64]) {
        let mut ys = vec![vec![C64::ZERO; y.len()]];
        self.apply_block(&[x], &mut ys);
        y.copy_from_slice(&ys[0]);
    }
}

impl<A: BlockLinOp + ?Sized> BlockLinOp for VerifiedBlockOp<'_, A> {
    fn apply_block(&self, xs: &[&[C64]], ys: &mut [Vec<C64>]) {
        if xs.is_empty() {
            return;
        }
        let panel = self.panel_index.fetch_add(1, Ordering::SeqCst) + 1;
        let mut fault = self
            .deferred_fault
            .lock()
            .unwrap()
            .take()
            .or_else(|| self.cfg.injector.as_ref().and_then(|f| f(panel)));

        self.inner.apply_block(xs, ys);
        if let Some(f) = fault {
            if !flip_panel_bit_detectable(ys, f.slot, f.bit) {
                // All-zero panel output: nothing detectable to corrupt.
                // Defer the fault so this seed still exercises the ladder.
                *self.deferred_fault.lock().unwrap() = Some(f);
                fault = None;
            }
        }

        let mut guard = self.window.lock().unwrap();
        let w = &mut *guard;
        // The panel that reaches the window boundary is verified in hand:
        // only its inputs join the window, so a recompute has no fold to
        // undo (and the window is reset by the verification either way).
        w.panels += 1;
        if w.panels >= self.cfg.period {
            for x in xs {
                for (acc, v) in w.x_cs.iter_mut().zip(x.iter()) {
                    *acc += *v;
                }
            }
            let pending = PendingPanel { xs, ys, fault };
            self.verify_window(w, panel, Some(pending));
        } else {
            fold_panel(xs, ys, w);
        }
    }
}

/// Krylov drift guard: bounded rollback-and-replay recovery driven by
/// periodic true-residual audits inside the iterative solvers.
///
/// The guarded solver entry points snapshot their full recurrence state at
/// every passed audit; when the recursive residual diverges from the true
/// residual `b - A x` by more than `rel_tol` (relative to `‖b‖`), the
/// solver restores the last verified snapshot and replays. Transient
/// corruption replays clean; deterministic corruption re-detects and is
/// bounded by `max_rollbacks`, after which the guard escalates and the
/// solve is surfaced unconverged instead of silently wrong.
///
/// The columns of a panel due at one point of a lockstep step are audited
/// together: one apply checks a random combination of them against
/// `rel_tol / 2` (Freivalds), and only when that fails does each column get
/// its own audit — which alone decides a rollback. [`Self::audits`] and
/// [`Self::audit_applies`] say how many columns were audited with how many
/// applies.
#[derive(Debug)]
pub struct DriftGuard {
    /// Update steps between true-residual audits.
    pub period: usize,
    /// Tolerated recursive-vs-true relative divergence.
    pub rel_tol: f64,
    /// Rollbacks allowed per solve column before escalating.
    pub max_rollbacks: u32,
    detected: AtomicU64,
    rolled_back: AtomicU64,
    escalated: AtomicU64,
    audits: AtomicU64,
    audit_applies: AtomicU64,
}

impl Default for DriftGuard {
    fn default() -> Self {
        DriftGuard::new(DEFAULT_DRIFT_PERIOD, DEFAULT_DRIFT_REL_TOL, 2)
    }
}

impl DriftGuard {
    /// A guard auditing every `period` steps at tolerance `rel_tol`,
    /// escalating after `max_rollbacks` rollbacks of the same column.
    pub fn new(period: usize, rel_tol: f64, max_rollbacks: u32) -> Self {
        assert!(period >= 1, "drift audit period must be >= 1");
        // Registered here so that a guarded run without a rollback reads 0,
        // not "no guard ran".
        ffw_obs::counter("sdc.rolled_back");
        DriftGuard {
            period,
            rel_tol,
            max_rollbacks,
            detected: AtomicU64::new(0),
            rolled_back: AtomicU64::new(0),
            escalated: AtomicU64::new(0),
            audits: AtomicU64::new(0),
            audit_applies: AtomicU64::new(0),
        }
    }

    /// Column audits so far: a column reaching an audit point counts once,
    /// however many applies its audit took.
    pub fn audits(&self) -> u64 {
        self.audits.load(Ordering::SeqCst)
    }

    /// Operator applies the audits spent so far: one per audit point, plus
    /// one per column at a point whose combined check failed.
    pub fn audit_applies(&self) -> u64 {
        self.audit_applies.load(Ordering::SeqCst)
    }

    /// Drift detections so far.
    pub fn detected(&self) -> u64 {
        self.detected.load(Ordering::SeqCst)
    }

    /// Update steps discarded by rollbacks so far.
    pub fn rolled_back(&self) -> u64 {
        self.rolled_back.load(Ordering::SeqCst)
    }

    /// Columns whose rollback budget was exhausted.
    pub fn escalated(&self) -> u64 {
        self.escalated.load(Ordering::SeqCst)
    }

    pub(crate) fn record_audits(&self, columns: usize, applies: usize) {
        self.audits.fetch_add(columns as u64, Ordering::SeqCst);
        self.audit_applies
            .fetch_add(applies as u64, Ordering::SeqCst);
        if ffw_obs::enabled() {
            ffw_obs::counter("sdc.audits").add(columns as u64);
            ffw_obs::counter("sdc.audit_applies").add(applies as u64);
        }
    }

    pub(crate) fn record_detected(&self) {
        self.detected.fetch_add(1, Ordering::SeqCst);
        ffw_obs::counter("sdc.detected").inc();
        ffw_obs::event("sdc.detected", "krylov.drift: recursive residual diverged");
    }

    pub(crate) fn record_rollback(&self, steps: u64) {
        self.rolled_back.fetch_add(steps, Ordering::SeqCst);
        ffw_obs::counter("sdc.rolled_back").add(steps);
        ffw_obs::counter("sdc.recomputed").inc();
        ffw_obs::event(
            "sdc.recomputed",
            &format!("krylov.drift: rolled back {steps} step(s) to last verified iterate"),
        );
    }

    pub(crate) fn record_escalated(&self) {
        self.escalated.fetch_add(1, Ordering::SeqCst);
        ffw_obs::counter("sdc.escalated").inc();
        ffw_obs::event(
            "sdc.escalated",
            "krylov.drift: rollback budget exhausted; surfacing unconverged",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::FnOp;
    use ffw_numerics::linalg::Matrix;
    use ffw_numerics::{c64, C64};
    use std::sync::atomic::AtomicU64;

    fn test_matrix(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |r, c| {
            let d = if r == c { 2.5 } else { 0.0 };
            c64(
                d + 0.3 / (1.0 + (r as f64 - c as f64).abs()),
                0.1 / (1.0 + (r + c) as f64),
            )
        })
    }

    fn test_panel(n: usize, width: usize, seed: u64) -> Vec<Vec<C64>> {
        let mut s = seed;
        (0..width)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        s = s
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let a = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                        s = s
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let b = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                        c64(a, b)
                    })
                    .collect()
            })
            .collect()
    }

    fn injector_at(panel: u64, fault: ComputeFault) -> ComputeInjector {
        Arc::new(move |p| if p == panel { Some(fault) } else { None })
    }

    #[test]
    fn clean_panels_pass_through_bit_identically() {
        let a = test_matrix(12);
        let v = VerifiedBlockOp::new(&a, VerifyConfig::default());
        let xs = test_panel(12, 4, 7);
        let refs: Vec<&[C64]> = xs.iter().map(|v| v.as_slice()).collect();
        let mut ys = vec![vec![C64::ZERO; 12]; 4];
        let mut want = vec![vec![C64::ZERO; 12]; 4];
        v.apply_block(&refs, &mut ys);
        a.apply_block(&refs, &mut want);
        assert_eq!(ys, want, "verification must not perturb data columns");
        assert!(v.flush().is_ok());
        assert_eq!(v.detected(), 0);
        assert_eq!(v.escalated(), 0);
    }

    #[test]
    fn scalar_apply_flows_through_the_window() {
        let a = test_matrix(9);
        let v = VerifiedBlockOp::new(&a, VerifyConfig::default().immediate());
        let x = test_panel(9, 1, 3).pop().unwrap();
        let mut y = vec![C64::ZERO; 9];
        let mut want = vec![C64::ZERO; 9];
        v.apply(&x, &mut y);
        a.apply(&x, &mut want);
        assert_eq!(y, want);
        assert!(v.flush().is_ok());
    }

    #[test]
    fn immediate_mode_recomputes_a_transient_flip_bit_identically() {
        let a = test_matrix(16);
        let mut cfg = VerifyConfig::default().immediate();
        cfg.injector = Some(injector_at(
            2,
            ComputeFault {
                slot: 11,
                bit: 55,
                times: 1,
            },
        ));
        let v = VerifiedBlockOp::new(&a, cfg);
        let xs = test_panel(16, 3, 21);
        let refs: Vec<&[C64]> = xs.iter().map(|v| v.as_slice()).collect();
        let mut ys = vec![vec![C64::ZERO; 16]; 3];
        let mut want = vec![vec![C64::ZERO; 16]; 3];
        a.apply_block(&refs, &mut want);

        v.apply_block(&refs, &mut ys); // panel 1: clean
        assert_eq!(ys, want);
        v.apply_block(&refs, &mut ys); // panel 2: flipped once, recomputed
        assert_eq!(ys, want, "recovered panel must be bit-identical");
        assert_eq!(v.detected(), 1);
        assert_eq!(v.recomputed(), 1);
        assert_eq!(v.escalated(), 0);
        assert!(v.take_corruption().is_none());
    }

    #[test]
    fn persistent_flip_escalates_a_typed_error() {
        let a = test_matrix(10);
        let mut cfg = VerifyConfig::default().immediate();
        let budget = cfg.max_recomputes;
        cfg.injector = Some(injector_at(
            1,
            ComputeFault {
                slot: 4,
                bit: 60,
                times: budget + 1, // survives every recompute
            },
        ));
        cfg.stage = "test.apply".into();
        cfg.rank = 3;
        let v = VerifiedBlockOp::new(&a, cfg);
        let xs = test_panel(10, 2, 5);
        let refs: Vec<&[C64]> = xs.iter().map(|v| v.as_slice()).collect();
        let mut ys = vec![vec![C64::ZERO; 10]; 2];
        v.apply_block(&refs, &mut ys);
        assert_eq!(v.escalated(), 1);
        match v.take_corruption() {
            Some(FaultError::ComputeCorruption {
                rank,
                stage,
                panel,
                attempts,
            }) => {
                assert_eq!(rank, 3);
                assert_eq!(stage, "test.apply");
                assert_eq!(panel, 1);
                assert_eq!(attempts, budget + 1);
            }
            other => panic!("expected ComputeCorruption, got {other:?}"),
        }
        // After escalation the window restarts clean.
        v.apply_block(&refs, &mut ys);
        assert!(v.flush().is_ok());
    }

    #[test]
    fn windowed_flip_in_a_consumed_panel_is_detected_and_escalated() {
        let a = test_matrix(14);
        let mut cfg = VerifyConfig {
            period: 4,
            ..VerifyConfig::default()
        };
        // Corrupt panel 2; detection can only happen at the window boundary
        // (panel 4), by which point panel 2's outputs are long consumed.
        cfg.injector = Some(injector_at(
            2,
            ComputeFault {
                slot: 3,
                bit: 53,
                times: 1,
            },
        ));
        let v = VerifiedBlockOp::new(&a, cfg);
        let xs = test_panel(14, 2, 9);
        let refs: Vec<&[C64]> = xs.iter().map(|v| v.as_slice()).collect();
        let mut ys = vec![vec![C64::ZERO; 14]; 2];
        for _ in 0..4 {
            v.apply_block(&refs, &mut ys);
        }
        assert!(v.detected() >= 1, "boundary check must notice the flip");
        assert_eq!(v.escalated(), 1, "consumed panels cannot be recomputed");
        assert!(matches!(
            v.take_corruption(),
            Some(FaultError::ComputeCorruption { panel: 4, .. })
        ));
    }

    #[test]
    fn flush_verifies_a_partial_window() {
        let a = test_matrix(8);
        let mut cfg = VerifyConfig {
            period: 100, // never reached by panel count
            ..VerifyConfig::default()
        };
        cfg.injector = Some(injector_at(
            1,
            ComputeFault {
                slot: 0,
                bit: 58,
                times: u32::MAX, // persists through flush's recomputes
            },
        ));
        let v = VerifiedBlockOp::new(&a, cfg);
        let xs = test_panel(8, 2, 13);
        let refs: Vec<&[C64]> = xs.iter().map(|v| v.as_slice()).collect();
        let mut ys = vec![vec![C64::ZERO; 8]; 2];
        v.apply_block(&refs, &mut ys);
        assert_eq!(v.detected(), 0, "no boundary hit yet");
        let err = v.flush().unwrap_err();
        assert!(matches!(err, FaultError::ComputeCorruption { .. }));
    }

    #[test]
    fn mantissa_and_exponent_flips_are_both_detected_at_period_one() {
        let a = test_matrix(12);
        for bit in [36, 44, 51, 52, 56, 62] {
            let mut cfg = VerifyConfig::default().immediate();
            cfg.injector = Some(injector_at(
                1,
                ComputeFault {
                    slot: 17,
                    bit,
                    times: 1,
                },
            ));
            let v = VerifiedBlockOp::new(&a, cfg);
            let xs = test_panel(12, 4, 31);
            let refs: Vec<&[C64]> = xs.iter().map(|v| v.as_slice()).collect();
            let mut ys = vec![vec![C64::ZERO; 12]; 4];
            v.apply_block(&refs, &mut ys);
            assert_eq!(v.detected(), 1, "bit {bit} must be detected");
            assert_eq!(v.recomputed(), 1, "bit {bit} must be recovered");
        }
    }

    #[test]
    fn nan_poisoned_panel_is_detected_not_compared_through() {
        // A lane forced to NaN makes the checksum residual NaN; the explicit
        // finite check must catch it even though `NaN > tol` is false.
        let n = 6;
        let calls = AtomicU64::new(0);
        let poison = FnOp::new(n, n, move |x: &[C64], y: &mut [C64]| {
            let c = calls.fetch_add(1, Ordering::SeqCst);
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi = *xi * c64(2.0, 0.0);
            }
            if c == 0 {
                y[3] = c64(f64::NAN, 0.0); // only the first apply is poisoned
            }
        });
        let v = VerifiedBlockOp::new(&poison, VerifyConfig::default().immediate());
        let xs = test_panel(n, 1, 77);
        let refs: Vec<&[C64]> = xs.iter().map(|v| v.as_slice()).collect();
        let mut ys = vec![vec![C64::ZERO; n]; 1];
        v.apply_block(&refs, &mut ys);
        assert_eq!(v.detected(), 1);
        assert!(ys[0].iter().all(|v| v.re.is_finite() && v.im.is_finite()));
    }

    #[test]
    fn a_small_element_is_judged_against_the_peak_scale() {
        // Element 0 sits at 1e-6 of the peak and is off by 1e-14 of it:
        // rounding of the largest terms, 5x over the element's own
        // tolerance, 2000x under the peak's floor.
        let sums = [c64(1e-6, 0.0), c64(1.0, 0.0)];
        let expected = |i: usize| (sums[i], sums[i].re);
        let y_cs = [c64(1e-6 + 1e-14, 0.0), c64(1.0, 0.0)];
        assert_eq!(checksum_mismatch(&y_cs, expected, 1e-9, 0.0), None);
        // A residual beyond the floor is still a mismatch, NaN and inf too:
        // an infinite lane or sum makes its own scale infinite as well.
        let y_cs = [c64(1e-6 + 1e-9, 0.0), c64(1.0, 0.0)];
        let hit = checksum_mismatch(&y_cs, expected, 1e-9, 0.0);
        assert_eq!(hit.map(|(i, _)| i), Some(0));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let y_cs = [c64(1e-6, 0.0), c64(bad, 0.0)];
            let hit = checksum_mismatch(&y_cs, expected, 1e-9, 0.0);
            assert_eq!(hit.map(|(i, _)| i), Some(1), "lane {bad}");
        }
        let inf_sums = [c64(1e-6, 0.0), c64(f64::INFINITY, 0.0)];
        let y_cs = [c64(1e-6, 0.0), c64(1.0, 0.0)];
        let hit = checksum_mismatch(&y_cs, |i| (inf_sums[i], inf_sums[i].re), 1e-9, 0.0);
        assert_eq!(hit.map(|(i, _)| i), Some(1));
    }

    #[test]
    fn flip_panel_bit_addresses_lanes_column_major() {
        let mut ys = vec![vec![C64::ZERO; 3]; 2];
        // lane 7 = col 1 (7 / 6), rem 1 -> element 0, imaginary part
        flip_panel_bit(&mut ys, 7, 52);
        assert_eq!(ys[0], vec![C64::ZERO; 3]);
        assert_eq!(ys[1][0].re, 0.0);
        assert_eq!(ys[1][0].im.to_bits(), 1u64 << 52);
        // flipping the same lane again restores it
        flip_panel_bit(&mut ys, 7, 52);
        assert_eq!(ys[1][0], C64::ZERO);
    }

    #[test]
    fn detectable_flip_probes_past_negligible_lanes() {
        // Lane 0 (ys[0][0].re) is ~12 orders below the panel scale: a
        // mantissa flip there would be invisible to the checksum, so the
        // probing injector must walk forward to the first lane that
        // matters. Lane 3 (ys[0][1].im) is the first within the floor.
        let mut ys = vec![vec![c64(1e-12, 0.0), c64(0.0, 2.0), c64(5.0, -1.0)]];
        let mut want = ys.clone();
        flip_panel_bit_detectable(&mut ys, 0, 52);
        flip_panel_bit(&mut want, 3, 52);
        assert_eq!(ys, want, "probe must land on the first significant lane");
        // A slot already on a significant lane is used as addressed.
        let mut ys = vec![vec![c64(1.0, 2.0), c64(3.0, 4.0)]];
        let mut want = ys.clone();
        flip_panel_bit_detectable(&mut ys, 2, 40);
        flip_panel_bit(&mut want, 2, 40);
        assert_eq!(ys, want);
        // An all-zero panel carries no detectable lane: the probe declines
        // to flip (the caller defers the fault to the next panel).
        let mut ys = vec![vec![C64::ZERO; 4]];
        assert!(!flip_panel_bit_detectable(&mut ys, 5, 60));
        assert_eq!(ys, vec![vec![C64::ZERO; 4]]);
    }

    #[test]
    fn drift_guard_counts_and_defaults() {
        let g = DriftGuard::default();
        assert_eq!(g.period, DEFAULT_DRIFT_PERIOD);
        assert_eq!(g.max_rollbacks, 2);
        g.record_detected();
        g.record_rollback(3);
        g.record_escalated();
        assert_eq!(g.detected(), 1);
        assert_eq!(g.rolled_back(), 3);
        assert_eq!(g.escalated(), 1);
    }
}
