//! Deterministic, seeded compute-corruption schedules.
//!
//! A [`FaultPlan`] is a pure description — no wall-clock, no randomness at
//! execution time — of which checksum-verified panel applies get a bit
//! flipped in their output, and which reductions get one in their sum. The
//! runtime activates a plan once per launch ([`FaultPlan::activate`]) to
//! obtain per-rank counters; every decision is then a function of (rank,
//! apply or reduction index), so a given plan replays identically on every
//! run.
//!
//! Silent data corruption is the one fault class a plan injects: ranks are
//! threads of one process and their wire is an in-memory queue, which can
//! neither drop nor flip a message, while an arithmetic unit can flip a bit
//! on any machine.

use std::sync::atomic::{AtomicU64, Ordering};

/// Recompute budget of a checksum-verified apply: a detected corruption is
/// recomputed up to this many times before it escalates as
/// [`crate::FaultError::ComputeCorruption`].
pub const MAX_RECOMPUTES: u32 = 3;

#[derive(Clone, Copy, Debug)]
struct ComputeRule {
    rank: usize,
    /// 1-based index of the logical panel apply on `rank` to corrupt.
    nth_apply: u64,
    /// Flat lane index of the f64 to corrupt, reduced modulo the number of
    /// lanes in the panel at injection time.
    slot: u64,
    /// Bit to flip within the chosen f64 lane (0–51 mantissa, 52–62
    /// exponent; reduced modulo 64, bit 63 — the sign — included).
    bit: u32,
    /// How many consecutive compute attempts of that apply to corrupt.
    times: u32,
}

/// A deterministic schedule of injected compute faults for one launch.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    computes: Vec<ComputeRule>,
    /// (rank, 1-based index of the reduction `rank` roots) to corrupt.
    reductions: Vec<(usize, u64)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Flip one bit of one f64 lane in the output of the `nth_apply`-th
    /// (1-based) checksum-verified panel apply on `rank`, once. The ABFT
    /// checksum column detects the flip and the panel is recomputed cleanly
    /// — the recovered output is bit-identical to a fault-free run.
    pub fn corrupt_compute(self, rank: usize, nth_apply: u64, slot: u64, bit: u32) -> Self {
        self.corrupt_compute_times(rank, nth_apply, slot, bit, 1)
    }

    /// Like [`FaultPlan::corrupt_compute`], but corrupt the first `times`
    /// consecutive compute attempts of that apply. If `times` exceeds
    /// [`MAX_RECOMPUTES`] the verified operator gives up and surfaces
    /// [`crate::FaultError::ComputeCorruption`] instead of a silent wrong
    /// result.
    pub fn corrupt_compute_times(
        mut self,
        rank: usize,
        nth_apply: u64,
        slot: u64,
        bit: u32,
        times: u32,
    ) -> Self {
        self.computes.push(ComputeRule {
            rank,
            nth_apply,
            slot,
            bit,
            times,
        });
        self
    }

    /// Flip one bit of the sum that `rank` sends back down as the root of
    /// its `nth_reduce`-th (1-based) sum-allreduce, after the checksum lane
    /// was folded: corruption inside the reduction arithmetic, which only
    /// the receivers' lane check can see.
    pub fn corrupt_reduction(mut self, rank: usize, nth_reduce: u64) -> Self {
        self.reductions.push((rank, nth_reduce));
        self
    }

    /// Derive a compute-corruption plan from a seed — the silent-data-
    /// corruption chaos matrix.
    ///
    /// Deterministic: the same `(seed, n_ranks)` always yields the same
    /// plan. Every seed injects a bit flip into a checksum-verified panel
    /// apply: seeds alternate exponent- and mantissa-bit flips, cycle
    /// recoverable (within [`MAX_RECOMPUTES`]) and unrecoverable
    /// (budget-exhausting) corruption, and compose a recoverable flip with a
    /// second one on another rank, in the same apply or a later one, so
    /// detections on two ranks interact. Works for `n_ranks == 1` (the
    /// serial CLI path): the second flip needs a second rank and is skipped
    /// otherwise.
    pub fn seeded_compute(seed: u64, n_ranks: usize) -> FaultPlan {
        assert!(n_ranks >= 1, "seeded compute plans need at least 1 rank");
        let h0 = splitmix64(seed);
        let h1 = splitmix64(h0);
        let h2 = splitmix64(h1);
        let h3 = splitmix64(h2);
        let h4 = splitmix64(h3);
        let rank = (h0 % n_ranks as u64) as usize;
        let nth_apply = 1 + h1 % 12;
        let slot = h2;
        // Alternate exponent (52–62) and high-mantissa (36–51) bits so the
        // matrix proves detection at both granularities. Mantissa bits below
        // ~30 perturb a lane by less than the calibrated checksum tolerance
        // — indistinguishable from operator rounding, and harmless by the
        // same argument — so seeded plans stay above that floor to keep the
        // every-flip-detected contract testable.
        let bit = if seed.is_multiple_of(2) {
            52 + (h3 % 11) as u32
        } else {
            36 + (h3 % 16) as u32
        };
        let recoverable_times = 1 + (h4 % MAX_RECOMPUTES as u64) as u32;
        match seed % 4 {
            // Recoverable: fewer corrupted attempts than the recompute budget.
            0 => FaultPlan::new().corrupt_compute_times(
                rank,
                nth_apply,
                slot,
                bit,
                recoverable_times,
            ),
            // Unrecoverable: persists past the budget => ComputeCorruption.
            1 => {
                let times = MAX_RECOMPUTES + 1 + (h4 % 2) as u32;
                FaultPlan::new().corrupt_compute_times(rank, nth_apply, slot, bit, times)
            }
            // Recoverable flip composed with a flip on another rank, in the
            // same apply (2) or a later one (3).
            k => {
                let p = FaultPlan::new().corrupt_compute(rank, nth_apply, slot, bit);
                if n_ranks >= 2 {
                    let other = (rank + 1 + (h4 % (n_ranks as u64 - 1)) as usize) % n_ranks;
                    let later = if k == 2 { 0 } else { 1 + h4 % 8 };
                    p.corrupt_compute(other, nth_apply + later, h4, bit)
                } else {
                    p
                }
            }
        }
    }

    /// Instantiate per-launch counters for a communicator of `n_ranks`.
    pub fn activate(&self, n_ranks: usize) -> ActiveFaults {
        ActiveFaults {
            plan: self.clone(),
            applies: (0..n_ranks).map(|_| AtomicU64::new(0)).collect(),
            reduces: (0..n_ranks).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// A bit flip scheduled for one logical panel apply, as reported by
/// [`ActiveFaults::on_apply`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ComputeFault {
    /// Flat f64 lane to corrupt (reduce modulo the panel's lane count).
    pub slot: u64,
    /// Bit to flip within that lane (reduce modulo 64).
    pub bit: u32,
    /// Consecutive compute attempts to corrupt (recomputes past this many
    /// run clean).
    pub times: u32,
}

/// Per-launch activation of a [`FaultPlan`]: apply and reduction counters
/// per rank.
#[derive(Debug)]
pub struct ActiveFaults {
    plan: FaultPlan,
    applies: Vec<AtomicU64>,
    reduces: Vec<AtomicU64>,
}

impl ActiveFaults {
    /// Advance `rank`'s logical panel-apply counter and return any bit flip
    /// scheduled for this apply. Recompute attempts of the *same* logical
    /// apply must not call this again — the verified operator consults the
    /// returned `times` to decide how many attempts stay corrupted, so the
    /// counter advances exactly once per logical panel.
    pub fn on_apply(&self, rank: usize) -> Option<ComputeFault> {
        let n = self.applies[rank].fetch_add(1, Ordering::SeqCst) + 1;
        self.plan
            .computes
            .iter()
            .find(|c| c.rank == rank && c.nth_apply == n)
            .map(|c| ComputeFault {
                slot: c.slot,
                bit: c.bit,
                times: c.times,
            })
    }

    /// Advance the counter of reductions `rank` roots; true when the sum of
    /// this one is to be corrupted.
    pub fn on_reduce(&self, rank: usize) -> bool {
        let n = self.reduces[rank].fetch_add(1, Ordering::SeqCst) + 1;
        self.plan.reductions.contains(&(rank, n))
    }
}

/// splitmix64 (Steele–Lea–Flood): the 64-bit mix every seeded schedule of
/// the workspace draws from.
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_fault_fires_exactly_at_the_scheduled_apply() {
        let faults = FaultPlan::new()
            .corrupt_compute_times(1, 2, 17, 54, 3)
            .activate(2);
        assert_eq!(faults.on_apply(1), None); // 1st apply clean
        assert_eq!(
            faults.on_apply(1),
            Some(ComputeFault {
                slot: 17,
                bit: 54,
                times: 3
            })
        );
        assert_eq!(faults.on_apply(1), None); // 3rd apply clean
        assert_eq!(faults.on_apply(0), None); // other ranks unaffected
    }

    #[test]
    fn reduction_fault_fires_exactly_at_the_scheduled_reduction() {
        let faults = FaultPlan::new().corrupt_reduction(0, 2).activate(2);
        assert!(!faults.on_reduce(0));
        assert!(faults.on_reduce(0));
        assert!(!faults.on_reduce(0));
        assert!(!faults.on_reduce(1));
        // Applies count apart from reductions.
        assert_eq!(faults.on_apply(0), None);
    }

    #[test]
    fn seeded_compute_plans_are_deterministic_and_cover_both_bit_classes() {
        let mut exponent = 0usize;
        let mut mantissa = 0usize;
        for seed in 0..16 {
            let a = FaultPlan::seeded_compute(seed, 4);
            let b = FaultPlan::seeded_compute(seed, 4);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            let want = if seed % 4 < 2 { 1 } else { 2 };
            assert_eq!(a.computes.len(), want, "seed {seed}");
            if let [first, second] = a.computes.as_slice() {
                assert_ne!(
                    first.rank, second.rank,
                    "the second flip is on another rank"
                );
            }
            let bit = a.computes[0].bit;
            if (52..=62).contains(&bit) {
                exponent += 1;
            } else {
                mantissa += 1;
            }
        }
        assert!(exponent > 0 && mantissa > 0, "{exponent} / {mantissa}");
        // Serial plans are legal and carry one flip, on rank 0.
        for seed in 0..8 {
            let p = FaultPlan::seeded_compute(seed, 1);
            assert_eq!(p.computes.len(), 1);
            assert_eq!(p.computes[0].rank, 0);
        }
    }
}
