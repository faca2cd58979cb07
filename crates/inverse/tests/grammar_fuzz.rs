//! Seeded mutation fuzzing of the two grammars a hop job parses: the hop
//! schedule (`--hops`, the serve spec's `hops`) and the regularizer
//! (`--regularizer`, the spec's `regularizer`).
//!
//! Valid strings are mutated by a splitmix64 stream — bit flips, truncation,
//! deletion, stray `,` and `:`, random numbers, and `NaN` / `inf` /
//! negative / huge / subnormal numbers spliced in — and fed to [`HopSchedule::parse`] and
//! [`Regularizer::from_str`]. Neither may panic; every error must say
//! something; every accepted value must meet the invariants its type
//! documents and survive a `Display` -> parse round trip unchanged.

use ffw_inverse::multifreq::{MAX_HOPS, MAX_HOP_FACTOR};
use ffw_inverse::{HopSchedule, Regularizer};
use ffw_phantom::scenario::splitmix64;
use std::fmt::Display;
use std::str::FromStr;

/// Mutated inputs per grammar.
const CASES: usize = 12_000;

const HOPS: &[&str] = &[
    "2.0,1.5,1.0",
    "1.0",
    "2,1",
    "32,16,8,4,2,1.5,1.25,1",
    "3.0, 2.0 ,1.0",
    "4e0,1e0",
];

const REGULARIZERS: &[&str] = &[
    "tikhonov",
    "tikhonov:0",
    "tikhonov:1e-3",
    "smoothness",
    "smoothness:0.02",
    "wgcv-lsqr",
    "wgcv-lsqr:6",
    "wgcv-lsqr:6:0.8",
    "wgcv-lsqr:32:1.5",
];

/// Spliced into inputs: the number spellings a parser gets wrong.
const HOSTILE: &[&str] = &[
    "NaN",
    "nan",
    "inf",
    "-inf",
    "infinity",
    "-1",
    "-0",
    "+2",
    "0",
    "1e308",
    "1e309",
    "-1e309",
    "1e-320",
    "4.9e-324",
    "18446744073709551616",
    "99999999999999999999",
    "1.0000000000000002",
    "32.000000000000004",
    "0x10",
    "1_0",
    " ",
    ",",
    ":",
    "::",
    ",,",
    "",
    "é",
];

/// The splitmix64 stream from `seed`.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One to three mutations of one of `seeds`.
fn mutate(seeds: &[&str], rng: &mut Stream) -> String {
    let mut bytes = seeds[rng.below(seeds.len())].as_bytes().to_vec();
    for _ in 0..=rng.below(3) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(8) {
            0 if !bytes.is_empty() => {
                let i = at.min(bytes.len() - 1);
                bytes[i] ^= 1 << rng.below(8);
            }
            1 => bytes.truncate(at),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => bytes.insert(at, b','),
            4 => bytes.insert(at, b':'),
            5 | 6 => {
                // Replace the number (or word) around `at` with a hostile
                // one or a random number.
                let is_token = |b: u8| b != b',' && b != b':';
                let start = (0..at).rev().take_while(|&i| is_token(bytes[i])).last();
                let end = (at..bytes.len()).find(|&i| !is_token(bytes[i]));
                let (start, end) = (start.unwrap_or(at), end.unwrap_or(bytes.len()));
                let word = match rng.below(4) {
                    0 => HOSTILE[rng.below(HOSTILE.len())].to_string(),
                    1 => f64::from_bits(rng.next()).to_string(),
                    2 => rng.below(40).to_string(),
                    _ => format!("{:e}", rng.next() as f64 / u64::MAX as f64 * 40.0),
                };
                bytes.splice(start..end, word.bytes());
            }
            _ => {
                let word = HOSTILE[rng.below(HOSTILE.len())].as_bytes();
                bytes.splice(at..at, word.iter().copied());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Parses every mutation of `seeds` under a panic guard; checks each `Ok`
/// with `invariants` and its round trip. Returns `(accepted, rejected)`.
fn fuzz<T>(
    seeds: &[&str],
    seed: u64,
    invariants: impl Fn(&T) -> Result<(), String>,
) -> (usize, usize)
where
    T: FromStr<Err = String> + Display + PartialEq + std::fmt::Debug,
{
    let mut rng = Stream(seed);
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..CASES {
        let input = mutate(seeds, &mut rng);
        let parsed = std::panic::catch_unwind(|| input.parse::<T>())
            .unwrap_or_else(|_| panic!("case {case}: parsing {input:?} panicked"));
        match parsed {
            Ok(value) => {
                accepted += 1;
                if let Err(why) = invariants(&value) {
                    panic!("case {case}: {input:?} parsed to {value:?}, which {why}");
                }
                let shown = value.to_string();
                assert_eq!(
                    shown.parse::<T>().as_ref(),
                    Ok(&value),
                    "case {case}: {input:?} -> {value:?} does not round-trip through {shown:?}"
                );
            }
            Err(e) => {
                rejected += 1;
                assert!(
                    !e.trim().is_empty(),
                    "case {case}: {input:?} rejected silently"
                );
            }
        }
    }
    (accepted, rejected)
}

#[test]
fn mutated_hop_schedules_are_rejected_or_valid() {
    let (accepted, rejected) = fuzz::<HopSchedule>(HOPS, 0x40b5, |s| {
        let f = s.factors();
        if f.is_empty() || f.len() > MAX_HOPS {
            return Err(format!("has {} stages", f.len()));
        }
        if let Some(bad) = f
            .iter()
            .find(|x| !x.is_finite() || !(1.0..=MAX_HOP_FACTOR).contains(*x))
        {
            return Err(format!("has factor {bad} outside [1, {MAX_HOP_FACTOR}]"));
        }
        if f.windows(2).any(|w| w[1] >= w[0]) {
            return Err("is not strictly descending".into());
        }
        if f.last() != Some(&1.0) {
            return Err("does not end at 1.0".into());
        }
        Ok(())
    });
    println!("hop schedules: {accepted} accepted, {rejected} rejected");
    assert!(accepted > CASES / 50 && rejected > CASES / 2);
}

#[test]
fn mutated_regularizer_specs_are_rejected_or_valid() {
    let (accepted, rejected) = fuzz::<Regularizer>(REGULARIZERS, 0x7e9, |r| match *r {
        Regularizer::Tikhonov { lambda } | Regularizer::Smoothness { lambda } => {
            if lambda.is_finite() && lambda >= 0.0 {
                Ok(())
            } else {
                Err(format!("has lambda {lambda}"))
            }
        }
        Regularizer::WgcvLsqr { steps, omega } => {
            if !(1..=32).contains(&steps) {
                Err(format!("has {steps} steps"))
            } else if !(omega > 0.0 && omega <= 1.5) {
                Err(format!("has omega {omega}"))
            } else {
                Ok(())
            }
        }
    });
    println!("regularizers: {accepted} accepted, {rejected} rejected");
    assert!(accepted > CASES / 50 && rejected > CASES / 4);
}
