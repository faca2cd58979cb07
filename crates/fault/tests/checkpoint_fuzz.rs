//! Seeded structured fuzzing of [`Checkpoint::decode`].
//!
//! Valid checkpoints are mutated by a splitmix64 stream along the payload's
//! own grain — every field is a little-endian `u64` word — by bit flips,
//! hostile words (0, `u32::MAX + 1`, `u64::MAX`, counts one past what is
//! left), truncation, and deleted, inserted and duplicated words. The
//! trailer is then re-sealed with the format's lane checksum
//! ([`checkpoint_checksum`]), so every mutation reaches the field parser
//! instead of stopping at the checksum. The decoder may not panic, must
//! answer every input with a typed [`CheckpointError`] or a checkpoint that
//! re-encodes to the very same bytes, and may not allocate more than twice
//! the input's size at once, whatever a length field says.

use ffw_fault::{checkpoint_checksum, splitmix64, Checkpoint, CheckpointError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Mutated checkpoints decoded.
const CASES: usize = 12_000;

thread_local! {
    /// Largest single request this thread made while `TRACKING` was set.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

struct LargestRequest;

// SAFETY: every request is forwarded to `System` unchanged. The trackers are
// const-initialised thread-local `Cell`s without destructors, so reading and
// updating them neither allocates nor touches freed thread-local storage.
unsafe impl GlobalAlloc for LargestRequest {
    // SAFETY: same contract as `System.alloc`, to which the call goes.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.get() {
            LARGEST.set(LARGEST.get().max(layout.size()));
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System.dealloc`, to which the call goes.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout (above).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

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

/// The checkpoints the mutations start from: empty, the shape a hop
/// boundary writes, and one of the DBIM loop with lost transmitters and
/// warm-start fields.
fn seeds() -> Vec<Vec<u8>> {
    let c = |k: usize| {
        (0..k)
            .map(|i| (i as f64 * 0.5 - 1.0, 1e-300 * i as f64))
            .collect()
    };
    [
        Checkpoint::default(),
        Checkpoint {
            fingerprint: 0x9cf7_be6a_85ac_456b,
            next_iter: 1,
            residual_history: vec![0.44],
            object: c(4),
            grad_prev: vec![(0.0, 0.0); 4],
            dir: vec![(0.0, 0.0); 4],
            ..Default::default()
        },
        Checkpoint {
            fingerprint: u64::MAX,
            next_iter: u32::MAX,
            lost_txs: vec![0, 7, u32::MAX],
            residual_history: vec![0.9, f64::NAN, 0.25],
            object: c(3),
            grad_prev: c(3),
            dir: c(3),
            fields: vec![(0, c(2)), (u32::MAX, vec![]), (5, c(3))],
        },
    ]
    .iter()
    .map(Checkpoint::encode)
    .collect()
}

/// A word a decoder gets wrong: the `u32` edges, the `u64` edge, and counts
/// at and one past what the payload has left.
fn hostile(rng: &mut Stream, words_left: usize) -> u64 {
    match rng.below(8) {
        0 => 0,
        1 => u64::from(u32::MAX),
        2 => 1 << 32,
        3 => u64::MAX,
        4 => (words_left as u64).saturating_sub(1),
        5 => words_left as u64 + 1,
        6 => rng.next() | 1 << 32,
        _ => rng.below(8) as u64,
    }
}

/// One to three structured mutations of a payload, on its word grain.
fn mutate(payload: &mut Vec<u8>, rng: &mut Stream) {
    for _ in 0..=rng.below(3) {
        let words = payload.len() / 8;
        let w = rng.below(words + 1);
        match rng.below(7) {
            0 if !payload.is_empty() => {
                let i = rng.below(payload.len());
                payload[i] ^= 1 << rng.below(8);
            }
            1 | 2 if w < words => {
                let v = hostile(rng, words - w);
                payload[8 * w..8 * w + 8].copy_from_slice(&v.to_le_bytes());
            }
            3 => payload.truncate(rng.below(payload.len() + 1)),
            4 if w < words => {
                payload.drain(8 * w..8 * w + 8);
            }
            5 => {
                let v = hostile(rng, words - w);
                payload.splice(8 * w..8 * w, v.to_le_bytes());
            }
            _ if w < words => {
                let end = (w + 1 + rng.below(4)).min(words);
                let copy = payload[8 * w..8 * end].to_vec();
                payload.splice(8 * end..8 * end, copy);
            }
            _ => {}
        }
    }
}

/// Magic, the mutated payload, and a trailer that matches it.
fn sealed(magic: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut bytes = magic.to_vec();
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&checkpoint_checksum(payload).to_le_bytes());
    bytes
}

#[test]
fn mutated_checkpoints_decode_typed_or_round_trip() {
    let seeds = seeds();
    let mut rng = Stream(0xc4e7);
    let (mut accepted, mut malformed, mut truncated) = (0, 0, 0);
    for case in 0..CASES {
        let seed = &seeds[rng.below(seeds.len())];
        let (magic, rest) = seed.split_at(8);
        let mut payload = rest[..rest.len() - 8].to_vec();
        mutate(&mut payload, &mut rng);
        let bytes = sealed(magic, &payload);

        LARGEST.set(0);
        TRACKING.set(true);
        let decoded = std::panic::catch_unwind(|| Checkpoint::decode(&bytes));
        TRACKING.set(false);
        let decoded = decoded.unwrap_or_else(|_| panic!("case {case}: decode panicked"));
        assert!(
            LARGEST.get() <= 2 * bytes.len() + 64,
            "case {case}: one allocation of {} bytes for a {}-byte input",
            LARGEST.get(),
            bytes.len()
        );
        match decoded {
            Ok(ckpt) => {
                accepted += 1;
                assert!(
                    ckpt.encode() == bytes,
                    "case {case}: {ckpt:?} does not re-encode to its input"
                );
            }
            Err(CheckpointError::Malformed(msg)) => {
                malformed += 1;
                assert!(!msg.is_empty(), "case {case}: empty message");
            }
            Err(CheckpointError::Truncated) => truncated += 1,
            Err(other) => panic!("case {case}: a sealed payload failed with {other:?}"),
        }
    }
    println!("checkpoints: {accepted} accepted, {malformed} malformed, {truncated} truncated");
    assert!(accepted > CASES / 20 && malformed > CASES / 10 && truncated > CASES / 10);
}

#[test]
fn a_corrupted_magic_or_trailer_is_named() {
    let bytes = &seeds()[2];
    let mut rng = Stream(0x3a61);
    for case in 0..CASES / 10 {
        let mut bad = bytes.clone();
        let i = if rng.below(2) == 0 {
            rng.below(8)
        } else {
            bytes.len() - 1 - rng.below(8)
        };
        bad[i] ^= 1 << rng.below(8);
        match Checkpoint::decode(&bad) {
            Err(CheckpointError::BadMagic) if i < 8 => {}
            Err(CheckpointError::ChecksumMismatch { .. }) if i >= 8 => {}
            other => panic!("case {case}: byte {i} flipped gave {other:?}"),
        }
    }
}
