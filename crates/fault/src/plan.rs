//! Deterministic, seeded fault schedules.
//!
//! A [`FaultPlan`] is a pure description — no wall-clock, no randomness at
//! execution time — of which ranks crash, which sends are dropped, and which
//! ranks are slowed. The runtime activates a plan once per launch
//! ([`FaultPlan::activate`]) to obtain per-rank operation counters; every
//! decision is then a function of (rank, operation index) or
//! (src, dst, send index), so a given plan replays identically on every run.

use std::sync::atomic::{AtomicU64, Ordering};

/// Retry/backoff policy the runtime applies when fault injection drops a
/// send before giving up and declaring the destination dead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of retries after the first failed attempt.
    pub max_retries: u32,
    /// Backoff before the first retry, in milliseconds.
    pub base_backoff_ms: u64,
    /// Upper bound on any single backoff, in milliseconds.
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 1,
            max_backoff_ms: 8,
        }
    }
}

impl RetryPolicy {
    /// Bounded exponential backoff before retry number `attempt` (0-based).
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let shift = attempt.min(16);
        (self.base_backoff_ms << shift).min(self.max_backoff_ms)
    }
}

#[derive(Clone, Copy, Debug)]
struct CrashRule {
    rank: usize,
    at_op: u64,
}

#[derive(Clone, Copy, Debug)]
struct DropRule {
    src: usize,
    dst: usize,
    /// 1-based index of the logical send on the (src, dst) edge to drop.
    nth_send: u64,
    /// How many consecutive delivery attempts of that send to drop.
    times: u32,
}

#[derive(Clone, Copy, Debug)]
struct CorruptRule {
    src: usize,
    dst: usize,
    /// 1-based index of the logical send on the (src, dst) edge to corrupt.
    nth_send: u64,
    /// How many consecutive delivery attempts of that send to corrupt.
    times: u32,
}

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

#[derive(Clone, Copy, Debug)]
struct StraggleRule {
    rank: usize,
    from_op: u64,
    to_op: u64,
    delay_ms: u64,
}

/// A deterministic schedule of injected faults for one distributed launch.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    crashes: Vec<CrashRule>,
    drops: Vec<DropRule>,
    corrupts: Vec<CorruptRule>,
    computes: Vec<ComputeRule>,
    straggles: Vec<StraggleRule>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Crash `rank` when it begins its `at_op`-th runtime operation
    /// (1-based; every `send_checked` / `recv_checked` call, laned or not,
    /// counts as one operation).
    pub fn crash_at(mut self, rank: usize, at_op: u64) -> Self {
        self.crashes.push(CrashRule { rank, at_op });
        self
    }

    /// Drop the `nth_send`-th send (1-based) from `src` to `dst` for
    /// `times` consecutive delivery attempts. If `times` exceeds the retry
    /// budget the send is lost and `dst` is declared dead by `src`.
    pub fn drop_send(mut self, src: usize, dst: usize, nth_send: u64, times: u32) -> Self {
        self.drops.push(DropRule {
            src,
            dst,
            nth_send,
            times,
        });
        self
    }

    /// Corrupt the `nth_send`-th send (1-based) from `src` to `dst` for
    /// `times` consecutive delivery attempts by flipping payload bits in
    /// flight. The receiver's CRC check rejects each corrupted attempt and
    /// NACKs for a retransmit; if `times` exceeds the retry budget the
    /// receive fails with [`crate::FaultError::Corruption`].
    pub fn corrupt_send(mut self, src: usize, dst: usize, nth_send: u64, times: u32) -> Self {
        self.corrupts.push(CorruptRule {
            src,
            dst,
            nth_send,
            times,
        });
        self
    }

    /// Flip one bit of one f64 lane in the output of the `nth_apply`-th
    /// (1-based) checksum-verified panel apply on `rank`, once. The ABFT
    /// checksum column detects the flip and the panel is recomputed cleanly
    /// — the recovered output is bit-identical to a fault-free run.
    pub fn corrupt_compute(self, rank: usize, nth_apply: u64, slot: u64, bit: u32) -> Self {
        self.corrupt_compute_times(rank, nth_apply, slot, bit, 1)
    }

    /// Like [`FaultPlan::corrupt_compute`], but corrupt the first `times`
    /// consecutive compute attempts of that apply. If `times` exceeds the
    /// recompute budget the verified operator gives up and surfaces
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

    /// Delay every operation of `rank` in the 1-based operation range
    /// `from_op..=to_op` by `delay_ms` milliseconds (a straggler model).
    pub fn straggler(mut self, rank: usize, from_op: u64, to_op: u64, delay_ms: u64) -> Self {
        self.straggles.push(StraggleRule {
            rank,
            from_op,
            to_op,
            delay_ms,
        });
        self
    }

    /// The retry policy the runtime should apply to dropped sends.
    pub fn retry(&self) -> RetryPolicy {
        RetryPolicy::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.drops.is_empty()
            && self.corrupts.is_empty()
            && self.computes.is_empty()
            && self.straggles.is_empty()
    }

    /// Derive a single-fault plan from a seed — the chaos-test matrix.
    ///
    /// Deterministic: the same `(seed, n_ranks)` always yields the same
    /// plan. Seeds cycle through crash / recoverable-drop / lost-drop /
    /// straggler / recoverable-corrupt / lost-corrupt schedules so a small
    /// seed range exercises every fault class on varying ranks and
    /// operation indices.
    pub fn seeded(seed: u64, n_ranks: usize) -> FaultPlan {
        assert!(n_ranks >= 2, "seeded plans need at least 2 ranks");
        let h0 = splitmix64(seed);
        let h1 = splitmix64(h0);
        let h2 = splitmix64(h1);
        let h3 = splitmix64(h2);
        let rank = (h0 % n_ranks as u64) as usize;
        let op = 3 + h1 % 40;
        let dst = (rank + 1 + (h2 % (n_ranks as u64 - 1)) as usize) % n_ranks;
        match seed % 6 {
            0 => FaultPlan::new().crash_at(rank, op),
            1 => {
                // Recoverable: dropped fewer times than the retry budget.
                let times = 1 + (h3 % RetryPolicy::default().max_retries as u64) as u32;
                FaultPlan::new().drop_send(rank, dst, 1 + h1 % 6, times)
            }
            2 => {
                // Unrecoverable: dropped past the retry budget => SendLost.
                let times = RetryPolicy::default().max_retries + 1 + (h3 % 2) as u32;
                FaultPlan::new().drop_send(rank, dst, 1 + h1 % 6, times)
            }
            3 => FaultPlan::new().straggler(rank, op, op + 8 + h2 % 16, 1 + h3 % 3),
            4 => {
                // Recoverable corruption: CRC rejects, retransmit succeeds.
                let times = 1 + (h3 % RetryPolicy::default().max_retries as u64) as u32;
                FaultPlan::new().corrupt_send(rank, dst, 1 + h1 % 6, times)
            }
            _ => {
                // Unrecoverable corruption: budget exhausted => Corruption.
                let times = RetryPolicy::default().max_retries + 1 + (h3 % 2) as u32;
                FaultPlan::new().corrupt_send(rank, dst, 1 + h1 % 6, times)
            }
        }
    }

    /// Derive a single compute-corruption plan from a seed — the silent-
    /// data-corruption chaos matrix.
    ///
    /// Deterministic like [`FaultPlan::seeded`], but every seed injects a
    /// bit flip into a checksum-verified panel apply: seeds alternate
    /// exponent- and mantissa-bit flips, cycle recoverable (within the
    /// recompute budget) and unrecoverable (budget-exhausting) corruption,
    /// and compose the flip with a crash or a straggler on another rank so
    /// recovery paths interact. Works for `n_ranks == 1` (the serial CLI
    /// path) — the composed secondary faults need a second rank and are
    /// skipped otherwise.
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
        let budget = RetryPolicy::default().max_retries;
        let recoverable_times = 1 + (h4 % budget as u64) as u32;
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
                let times = budget + 1 + (h4 % 2) as u32;
                FaultPlan::new().corrupt_compute_times(rank, nth_apply, slot, bit, times)
            }
            // Recoverable flip composed with a crash on another rank.
            2 => {
                let p = FaultPlan::new().corrupt_compute(rank, nth_apply, slot, bit);
                if n_ranks >= 2 {
                    let other = (rank + 1 + (h4 % (n_ranks as u64 - 1)) as usize) % n_ranks;
                    p.crash_at(other, 3 + h4 % 40)
                } else {
                    p
                }
            }
            // Recoverable flip composed with a straggler on another rank.
            _ => {
                let p = FaultPlan::new().corrupt_compute(rank, nth_apply, slot, bit);
                if n_ranks >= 2 {
                    let other = (rank + 1 + (h4 % (n_ranks as u64 - 1)) as usize) % n_ranks;
                    let op = 3 + h4 % 20;
                    p.straggler(other, op, op + 8 + h4 % 16, 1 + h4 % 3)
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
            ops: (0..n_ranks).map(|_| AtomicU64::new(0)).collect(),
            sends: (0..n_ranks * n_ranks).map(|_| AtomicU64::new(0)).collect(),
            applies: (0..n_ranks).map(|_| AtomicU64::new(0)).collect(),
            n_ranks,
        }
    }
}

/// What the runtime must do at the operation a rank is about to perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpAction {
    /// No fault scheduled here.
    Proceed,
    /// Crash the rank (panic with [`crate::FaultError::InjectedCrash`]).
    Crash {
        /// 1-based operation index at which the crash fires.
        op: u64,
    },
    /// Sleep `delay_ms` before proceeding (straggler model).
    Delay {
        /// Milliseconds to sleep.
        delay_ms: u64,
        /// 1-based operation index being delayed.
        op: u64,
    },
}

/// Faults scheduled for one logical send on an edge, as reported by
/// [`ActiveFaults::on_send`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SendFault {
    /// Consecutive delivery attempts to drop (0 = deliver immediately).
    pub drops: u32,
    /// Consecutive delivery attempts to corrupt in flight.
    pub corrupts: u32,
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

/// Per-launch activation of a [`FaultPlan`]: operation and send counters.
#[derive(Debug)]
pub struct ActiveFaults {
    plan: FaultPlan,
    ops: Vec<AtomicU64>,
    sends: Vec<AtomicU64>,
    applies: Vec<AtomicU64>,
    n_ranks: usize,
}

impl ActiveFaults {
    /// Advance `rank`'s operation counter and report any fault scheduled
    /// at the new operation index.
    pub fn on_op(&self, rank: usize) -> OpAction {
        let op = self.ops[rank].fetch_add(1, Ordering::SeqCst) + 1;
        for c in &self.plan.crashes {
            if c.rank == rank && c.at_op == op {
                return OpAction::Crash { op };
            }
        }
        for s in &self.plan.straggles {
            if s.rank == rank && op >= s.from_op && op <= s.to_op {
                return OpAction::Delay {
                    delay_ms: s.delay_ms,
                    op,
                };
            }
        }
        OpAction::Proceed
    }

    /// Advance the (src, dst) send counter and return the faults scheduled
    /// for this logical send: how many consecutive delivery attempts must
    /// be dropped, and how many must be corrupted in flight. Each logical
    /// send advances the edge counter exactly once, so drop and corrupt
    /// rules targeting the same `nth_send` compose.
    pub fn on_send(&self, src: usize, dst: usize) -> SendFault {
        let n = self.sends[src * self.n_ranks + dst].fetch_add(1, Ordering::SeqCst) + 1;
        let drops = self
            .plan
            .drops
            .iter()
            .filter(|d| d.src == src && d.dst == dst && d.nth_send == n)
            .map(|d| d.times)
            .max()
            .unwrap_or(0);
        let corrupts = self
            .plan
            .corrupts
            .iter()
            .filter(|c| c.src == src && c.dst == dst && c.nth_send == n)
            .map(|c| c.times)
            .max()
            .unwrap_or(0);
        SendFault { drops, corrupts }
    }

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

    /// The retry policy for dropped sends.
    pub fn retry(&self) -> RetryPolicy {
        self.plan.retry()
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
    fn crash_fires_exactly_at_the_scheduled_op() {
        let faults = FaultPlan::new().crash_at(1, 3).activate(2);
        assert_eq!(faults.on_op(1), OpAction::Proceed);
        assert_eq!(faults.on_op(1), OpAction::Proceed);
        assert_eq!(faults.on_op(1), OpAction::Crash { op: 3 });
        // Other ranks unaffected.
        assert_eq!(faults.on_op(0), OpAction::Proceed);
    }

    #[test]
    fn straggler_covers_its_op_range() {
        let faults = FaultPlan::new().straggler(0, 2, 3, 5).activate(1);
        assert_eq!(faults.on_op(0), OpAction::Proceed);
        assert_eq!(faults.on_op(0), OpAction::Delay { delay_ms: 5, op: 2 });
        assert_eq!(faults.on_op(0), OpAction::Delay { delay_ms: 5, op: 3 });
        assert_eq!(faults.on_op(0), OpAction::Proceed);
    }

    #[test]
    fn drop_counts_per_edge() {
        let faults = FaultPlan::new().drop_send(0, 1, 2, 3).activate(2);
        assert_eq!(faults.on_send(0, 1).drops, 0); // 1st send delivered
        assert_eq!(faults.on_send(0, 1).drops, 3); // 2nd send dropped 3x
        assert_eq!(faults.on_send(0, 1).drops, 0); // 3rd send delivered
        assert_eq!(faults.on_send(1, 0).drops, 0); // reverse edge untouched
    }

    #[test]
    fn corrupt_counts_per_edge_and_composes_with_drops() {
        let faults = FaultPlan::new()
            .corrupt_send(0, 1, 2, 2)
            .drop_send(0, 1, 3, 1)
            .activate(2);
        assert_eq!(faults.on_send(0, 1), SendFault::default()); // 1st clean
        let second = faults.on_send(0, 1);
        assert_eq!(second.corrupts, 2); // 2nd corrupted twice
        assert_eq!(second.drops, 0);
        let third = faults.on_send(0, 1); // 3rd dropped once, not corrupted
        assert_eq!(
            third,
            SendFault {
                drops: 1,
                corrupts: 0
            }
        );
        assert_eq!(faults.on_send(1, 0), SendFault::default());
    }

    #[test]
    fn backoff_is_bounded() {
        let r = RetryPolicy::default();
        assert_eq!(r.backoff_ms(0), 1);
        assert_eq!(r.backoff_ms(1), 2);
        assert_eq!(r.backoff_ms(2), 4);
        assert_eq!(r.backoff_ms(3), 8);
        assert_eq!(r.backoff_ms(10), 8);
        assert_eq!(r.backoff_ms(u32::MAX), 8);
    }

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
    fn seeded_compute_plans_are_deterministic_and_cover_both_bit_classes() {
        let mut exponent = 0usize;
        let mut mantissa = 0usize;
        for seed in 0..16 {
            let a = FaultPlan::seeded_compute(seed, 4);
            let b = FaultPlan::seeded_compute(seed, 4);
            assert!(!a.is_empty());
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert_eq!(a.computes.len(), 1, "exactly one flip per seed");
            let bit = a.computes[0].bit;
            if (52..=62).contains(&bit) {
                exponent += 1;
            } else {
                mantissa += 1;
            }
        }
        assert!(exponent > 0 && mantissa > 0, "{exponent} / {mantissa}");
        // Serial plans are legal and never carry multi-rank secondaries.
        for seed in 0..8 {
            let p = FaultPlan::seeded_compute(seed, 1);
            assert!(p.crashes.is_empty() && p.straggles.is_empty());
            assert_eq!(p.computes[0].rank, 0);
        }
    }

    #[test]
    fn seeded_plans_are_deterministic_and_nonempty() {
        for seed in 0..32 {
            let a = FaultPlan::seeded(seed, 4);
            let b = FaultPlan::seeded(seed, 4);
            assert!(!a.is_empty());
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}
