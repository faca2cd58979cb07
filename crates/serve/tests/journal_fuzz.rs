//! Seeded structured fuzzing of the job journal's recovery,
//! [`Recovery::scan`] — what `Journal::open` reads an existing file with.
//!
//! Valid journals are mutated by a splitmix64 stream along a frame's own
//! grain: its length word (bit flips and hostile values: 0, one short, one
//! past, the 1 MiB cap and one past it, `u32::MAX`), its JSON payload (bit
//! flips, JSON punctuation and digits written over a byte, bytes deleted or
//! duplicated, hostile numbers such as `2^32` spliced over a count) and its
//! FNV trailer (bit flips). A mutated payload is re-sealed — length word and
//! trailer made to match it — in half the cases, so it reaches the decoder
//! instead of stopping at the checksum.
//!
//! The scan may not panic. It answers every input with a typed
//! [`JournalError`] or a recovery in which every frame before the mutated
//! one re-encodes to its bytes exactly, a scan that stops at the mutated
//! frame truncates exactly there, a mutated frame it accepts carries the
//! numbers its payload wrote (no count is narrowed or wrapped), and whatever
//! it did accept frames again into a journal that scans back to the same
//! events and frames to the very same bytes. It may not allocate more than
//! twice the input's size at once (with a floor for the JSON tree's
//! fixed-size map nodes), whatever a length word says.

use ffw_fault::{fnv1a64, splitmix64};
use ffw_serve::journal::{JobEvent, JournalError, Recovery};
use ffw_serve::json::Json;
use ffw_serve::spec::JobSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Mutated journals scanned.
const CASES: usize = 12_000;
/// The journal's magic header.
const MAGIC: &[u8; 8] = b"FFWJRNL1";
/// The journal's cap on one payload (1 MiB).
const MAX_FRAME: u32 = 1 << 20;
/// Allocations below this size are the parser's fixed-size nodes, not a
/// function of any length the input declares.
const ALLOC_FLOOR: usize = 1024;

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

    // SAFETY: same contract as `System.realloc`, to which the call goes.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.get() {
            LARGEST.set(LARGEST.get().max(new_size));
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
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

fn spec(line: &str) -> Box<JobSpec> {
    Box::new(JobSpec::from_json(&Json::parse(line).expect("json")).expect("spec"))
}

/// The histories the mutations start from: one of every event, a retried
/// job at the edges of its counts, and a single accepted job.
fn seeds() -> Vec<Vec<JobEvent>> {
    let id = |s: &str| s.to_string();
    vec![
        vec![
            JobEvent::Accepted {
                id: id("j1"),
                spec: spec(r#"{"id":"j1","size":32,"tx":4,"rx":8,"iterations":2}"#),
            },
            JobEvent::Started {
                id: id("j1"),
                attempt: 1,
            },
            JobEvent::Done {
                id: id("j1"),
                residual: 0.0123,
                digest: 0xDEAD_BEEF_0123_4567,
            },
            JobEvent::Failed {
                id: id("j2"),
                code: id("breakdown"),
                detail: id("rho underflow"),
            },
            JobEvent::Cancelled {
                id: id("j3"),
                next_iter: 2,
            },
        ],
        vec![
            JobEvent::Accepted {
                id: id("hop"),
                spec: spec(
                    r#"{"id":"hop","size":64,"tx":8,"rx":16,"iterations":4,"hops":"2.0,1.0","positivity":true}"#,
                ),
            },
            JobEvent::Started {
                id: id("hop"),
                attempt: u32::MAX,
            },
            JobEvent::Cancelled {
                id: id("hop"),
                next_iter: 0,
            },
            JobEvent::Started {
                id: id("hop"),
                attempt: 2,
            },
        ],
        vec![JobEvent::Accepted {
            id: id("solo"),
            spec: spec(r#"{"id":"solo","size":32,"tx":2,"rx":4,"iterations":1}"#),
        }],
    ]
}

/// The journal bytes of `events`: header and one frame each.
fn journal(events: &[JobEvent]) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    for e in events {
        bytes.extend(e.to_frame());
    }
    bytes
}

/// A length word a decoder gets wrong: the edges around the real length and
/// the cap, and the `u32` edge.
fn hostile_len(rng: &mut Stream, len: u32) -> u32 {
    match rng.below(7) {
        0 => 0,
        1 => len.saturating_sub(1),
        2 => len + 1,
        3 => MAX_FRAME,
        4 => MAX_FRAME + 1,
        5 => u32::MAX,
        _ => rng.next() as u32,
    }
}

/// Bytes that keep a JSON payload near the grammar.
const PUNCTUATION: &[u8] = b"{}[]:,\"\\ -.0123456789eEnult";

/// Numbers a decoder narrows wrongly or rejects.
const HOSTILE_NUMBERS: &[&str] = &[
    "4294967296",
    "4294967295",
    "18446744073709551615",
    "9007199254740992",
    "-1",
    "1e999",
    "0.5",
    "1e2",
];

/// One to three mutations of a payload.
fn mutate_payload(payload: &mut Vec<u8>, rng: &mut Stream) {
    for _ in 0..=rng.below(3) {
        let i = rng.below(payload.len() + 1);
        match rng.below(6) {
            0 if i < payload.len() => payload[i] ^= 1 << rng.below(8),
            1 if i < payload.len() => payload[i] = PUNCTUATION[rng.below(PUNCTUATION.len())],
            2 if i < payload.len() => {
                let end = (i + 1 + rng.below(8)).min(payload.len());
                payload.drain(i..end);
            }
            3 if i < payload.len() => {
                let end = (i + 1 + rng.below(8)).min(payload.len());
                let copy = payload[i..end].to_vec();
                payload.splice(end..end, copy);
            }
            _ => {
                // Over the next run of digits, if any: a count made hostile.
                let start = payload[i..]
                    .iter()
                    .position(u8::is_ascii_digit)
                    .map_or(payload.len(), |k| i + k);
                let end = payload[start..]
                    .iter()
                    .position(|b| !b.is_ascii_digit())
                    .map_or(payload.len(), |k| start + k);
                let number = HOSTILE_NUMBERS[rng.below(HOSTILE_NUMBERS.len())];
                payload.splice(start..end, number.bytes());
            }
        }
    }
}

/// Every number `event` writes at the top level is the number `payload`
/// wrote under that key.
fn numbers_kept(payload: &[u8], event: &JobEvent) -> bool {
    let text = std::str::from_utf8(payload).expect("an accepted payload is UTF-8");
    let written = Json::parse(text).expect("an accepted payload parses");
    let Json::Obj(fields) = event.to_json() else {
        return false;
    };
    fields
        .iter()
        .filter(|(_, v)| matches!(v, Json::Num(_)))
        .all(|(k, v)| written.get(k) == Some(v))
}

/// `journal` with frame `f` (starting at `start`, payload `len` bytes)
/// mutated in its length word, payload or trailer; and the mutated payload.
fn mutate(bytes: &[u8], start: usize, len: usize, rng: &mut Stream) -> (Vec<u8>, Vec<u8>) {
    let (head, rest) = bytes.split_at(start);
    let (frame, tail) = rest.split_at(4 + len + 8);
    let mut word = [0u8; 4];
    word.copy_from_slice(&frame[..4]);
    let mut len_word = u32::from_le_bytes(word);
    let mut payload = frame[4..4 + len].to_vec();
    let mut trailer = frame[4 + len..].to_vec();
    match rng.below(4) {
        0 => {
            len_word = if rng.below(2) == 0 {
                len_word ^ 1 << rng.below(32)
            } else {
                hostile_len(rng, len_word)
            };
        }
        1 => trailer[rng.below(8)] ^= 1 << rng.below(8),
        _ => {
            mutate_payload(&mut payload, rng);
            if rng.below(2) == 0 {
                len_word = payload.len() as u32;
                trailer = fnv1a64(&payload).to_le_bytes().to_vec();
            }
        }
    }
    let mut out = head.to_vec();
    out.extend_from_slice(&len_word.to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&trailer);
    out.extend_from_slice(tail);
    (out, payload)
}

#[test]
fn mutated_journals_recover_typed_or_round_trip() {
    let seeds = seeds();
    let mut rng = Stream(0x10e2);
    let (mut recovered, mut accepted_mutation, mut undecodable) = (0, 0, 0);
    for case in 0..CASES {
        let events = &seeds[rng.below(seeds.len())];
        let valid = journal(events);
        // Where each frame starts, and the end of the last.
        let mut starts = vec![MAGIC.len()];
        for e in events {
            starts.push(starts.last().expect("start") + e.to_frame().len());
        }
        let f = rng.below(events.len());
        let payload_len = starts[f + 1] - starts[f] - 12;
        let (bytes, payload) = mutate(&valid, starts[f], payload_len, &mut rng);

        LARGEST.set(0);
        TRACKING.set(true);
        let scanned = std::panic::catch_unwind(|| Recovery::scan(&bytes));
        TRACKING.set(false);
        let scanned = scanned.unwrap_or_else(|_| panic!("case {case}: scan panicked"));
        assert!(
            LARGEST.get() <= 2 * bytes.len().max(ALLOC_FLOOR),
            "case {case}: one allocation of {} bytes for a {}-byte input",
            LARGEST.get(),
            bytes.len()
        );
        match scanned {
            Ok(rec) => {
                recovered += 1;
                let kept = rec.events.len();
                assert!(kept >= f, "case {case}: lost an untouched frame");
                assert_eq!(
                    journal(&rec.events[..f]),
                    valid[..starts[f]],
                    "case {case}: the untouched frames do not re-encode to their bytes"
                );
                let consumed = bytes.len() - rec.truncated_bytes as usize;
                if kept == f {
                    assert_eq!(consumed, starts[f], "case {case}: truncated elsewhere");
                } else {
                    accepted_mutation += 1;
                    assert!(
                        numbers_kept(&payload, &rec.events[f]),
                        "case {case}: {:?} does not keep the numbers of {}",
                        rec.events[f],
                        String::from_utf8_lossy(&payload)
                    );
                }
                let again = journal(&rec.events);
                let rescanned = Recovery::scan(&again).expect("a re-encoded journal scans");
                assert_eq!(
                    rescanned.events, rec.events,
                    "case {case}: drifted on re-encode"
                );
                assert_eq!(rescanned.truncated_bytes, 0, "case {case}");
                assert_eq!(
                    journal(&rescanned.events),
                    again,
                    "case {case}: unstable bytes"
                );
            }
            Err(JournalError::Undecodable { offset, reason }) => {
                undecodable += 1;
                assert!(
                    offset as usize >= starts[f],
                    "case {case}: an untouched frame at {offset} failed: {reason}"
                );
                assert!(!reason.is_empty(), "case {case}: empty reason");
            }
            Err(other) => panic!("case {case}: unexpected {other:?}"),
        }
    }
    println!(
        "journals: {recovered} recovered ({accepted_mutation} with the mutated frame accepted), \
         {undecodable} undecodable"
    );
    assert!(recovered > CASES / 3 && accepted_mutation > 0 && undecodable > CASES / 20);
}

/// A sealed count past `u32::MAX` anywhere in a journal is refused at its
/// frame, and the frames before it are not lost.
#[test]
fn a_sealed_count_past_u32_is_refused_at_its_frame() {
    let events = &seeds()[0];
    let valid = journal(events);
    let start = journal(&events[..1]).len();
    let payload = br#"{"attempt":4294967296,"id":"j1","type":"started"}"#;
    let mut bytes = valid[..start].to_vec();
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    match Recovery::scan(&bytes) {
        Err(JournalError::Undecodable { offset, reason }) => {
            assert_eq!(offset as usize, start);
            assert!(reason.contains("u32::MAX"), "{reason}");
        }
        other => panic!("expected Undecodable, got {other:?}"),
    }
}
