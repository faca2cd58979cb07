//! Seeded structured fuzzing of the submit decoder: [`parse_request`] and
//! [`JobSpec::from_json`], what `Engine::submit` runs on every request line.
//!
//! Valid submit bodies are mutated by a splitmix64 stream one key at a
//! time: the wrong JSON type, 0, negative and fractional values, the edges
//! of exact integers (`2^53 - 1`, `2^53`, `2^53 + 1`, `2^64`), overflowing
//! literals, NaN and infinity spelled as strings and as bare tokens, huge
//! strings, unknown phantoms and accuracy presets, broken `hops` and
//! `regularizer` grammar, unknown keys, and duplicate keys before and after
//! the original.
//!
//! The decoder may not panic, and may not allocate more than twice the
//! request's size at once (with a floor for the JSON tree's fixed-size map
//! nodes). A body that is still JSON ends in either a typed `invalid-spec`
//! rejection with a reason, or a spec that keeps every number the body
//! wrote, round-trips through `to_json` → text → `from_json` unchanged, and
//! so passes validation again. A bare `NaN` or `Infinity` token, or a
//! literal past the largest double, is not JSON: it stops at the protocol's
//! typed `bad JSON` error before any decoding.

use ffw_fault::splitmix64;
use ffw_serve::json::Json;
use ffw_serve::{parse_request, JobSpec, RejectReason, Request};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Mutated submit bodies decoded.
const CASES: usize = 12_000;
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

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

/// Valid job objects the mutations start from: the defaults, a hop job
/// under `wgcv-lsqr`, a limited-angle noisy job on a rank grid with limits,
/// and one with every optional key set.
const SEEDS: &[&str] = &[
    r#"{"id":"job-1","size":32,"tx":4,"rx":8,"iterations":3}"#,
    r#"{"id":"hop","size":64,"tx":8,"rx":16,"iterations":4,"hops":"2.0,1.0","regularizer":"wgcv-lsqr:8:0.8"}"#,
    r#"{"id":"arc.7","size":32,"tx":4,"rx":8,"iterations":2,"arc_deg":90,"noise_db":30,"groups":2,"subtree":2,"min_groups":1,"deadline_ms":60000,"max_flops":1e15}"#,
    r#"{"id":"all_keys","size":128,"tx":6,"rx":12,"phantom":"shepp-logan","contrast":-0.25,"iterations":5,"noise_db":20.5,"arc_deg":270,"accuracy":"high","groups":3,"subtree":4,"max_restarts":4294967295,"min_groups":1,"deadline_ms":9007199254740991,"max_flops":1.5e18,"chaos_seed":null,"hops":"4.0,2.0,1.0","regularizer":"tikhonov:0.001","backend":"bicgstab"}"#,
];

/// Every key the decoder reads (`backend`, `chaos_seed` and `min_groups`
/// only to accept their one legacy value and refuse the rest), and two it
/// does not.
const KEYS: &[&str] = &[
    "id",
    "size",
    "tx",
    "rx",
    "phantom",
    "contrast",
    "iterations",
    "noise_db",
    "arc_deg",
    "accuracy",
    "groups",
    "subtree",
    "max_restarts",
    "min_groups",
    "deadline_ms",
    "max_flops",
    "chaos_seed",
    "hops",
    "regularizer",
    "backend",
    "positivity",
    "zz-unknown",
];

/// Values of the wrong JSON type for any key.
const WRONG_TYPES: &[&str] = &[
    "true",
    "false",
    "null",
    "[]",
    "{}",
    "\"7\"",
    "[1]",
    "{\"a\":1}",
    "\"\"",
];

/// Numbers at the edges a decoder narrows or wraps wrongly.
const NUMBERS: &[&str] = &[
    "0",
    "-1",
    "-0",
    "-0.5",
    "0.5",
    "1",
    "7",
    "8",
    "64",
    "360",
    "361",
    "1000",
    "1001",
    "4294967295",
    "4294967296",
    "9007199254740991",
    "9007199254740992",
    "9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "1e308",
    "-1e308",
    "1e-320",
];

/// NaN and infinity spelled as strings: JSON, but not numbers.
const NAN_STRINGS: &[&str] = &[
    "\"NaN\"",
    "\"nan\"",
    "\"Infinity\"",
    "\"-Infinity\"",
    "\"inf\"",
];

/// NaN and infinity as bare tokens, and literals past the largest double:
/// not JSON to the parser at all.
const NOT_JSON: &[&str] = &[
    "NaN",
    "Infinity",
    "-Infinity",
    "nan",
    "inf",
    "1e999",
    "-1e999",
];

/// Phantom and accuracy names that are not (quite) one of the accepted.
const NAMES: &[&str] = &[
    "\"pineapple\"",
    "\"Cylinder\"",
    "\"cylinder \"",
    "\"shepp_logan\"",
    "\"\"",
    "\"HIGH\"",
    "\"default\"",
    "\"low\"",
    "\"blobs\"",
    "\"annulus\"",
];

/// Hop schedules, broken and not.
const HOPS: &[&str] = &[
    "\"2.0,1.0\"",
    "\"1.0\"",
    "\"4,2,1\"",
    "\"2.0,,1.0\"",
    "\"2.0;1.0\"",
    "\"1.0,2.0\"",
    "\"\"",
    "\",\"",
    "\"2.0,1.0,\"",
    "\"nan,1.0\"",
    "\"inf,1.0\"",
    "\"1e999,1\"",
    "\"-2,1\"",
    "\"0\"",
    "\"2.0 ,1.0\"",
    "\"9007199254740993,1\"",
    "\"1.5,1.0\"",
    "\"2.0,1.0,1.0\"",
];

/// Regularizers, broken and not.
const REGULARIZERS: &[&str] = &[
    "\"tikhonov\"",
    "\"tikhonov:\"",
    "\"tikhonov:abc\"",
    "\"tikhonov:-1\"",
    "\"tikhonov:nan\"",
    "\"tikhonov:1e999\"",
    "\"tikhonov:0\"",
    "\"smoothness:1e-4\"",
    "\"smoothness:1e-4:3\"",
    "\"wgcv-lsqr\"",
    "\"wgcv-lsqr:0\"",
    "\"wgcv-lsqr:8:\"",
    "\"wgcv-lsqr:8:2\"",
    "\"wgcv-lsqr:8:0.8\"",
    "\"wgcv-lsqr:18446744073709551616\"",
    "\"TIKHONOV\"",
    "\"ridge\"",
    "\":\"",
];

/// A hostile value for `key`, as JSON text (or a bare token that is not).
fn hostile(rng: &mut Stream, key: &str) -> String {
    match rng.below(9) {
        0 => rng.pick(WRONG_TYPES).to_string(),
        1 | 2 => rng.pick(NUMBERS).to_string(),
        3 => rng.pick(NAN_STRINGS).to_string(),
        4 => rng.pick(NOT_JSON).to_string(),
        5 => {
            // A huge string, up to 256 KiB.
            let len = 1 << rng.below(19);
            format!("\"{}\"", "x".repeat(len))
        }
        _ => match key {
            "hops" => rng.pick(HOPS).to_string(),
            "regularizer" => rng.pick(REGULARIZERS).to_string(),
            "backend" => rng
                .pick(&["\"bicgstab\"", "\"born-series\"", "\"gmres\""])
                .to_string(),
            "chaos_seed" => rng.pick(&["null", "0", "7"]).to_string(),
            "min_groups" => rng.pick(&["1", "1.0", "2"]).to_string(),
            _ => rng.pick(NAMES).to_string(),
        },
    }
}

/// The submit line of `job` with `key` set to `value`: replaced in place,
/// or added as a duplicate before or after the original.
fn mutate(job: &str, key: &str, value: &str, rng: &mut Stream) -> String {
    let body = &job[1..job.len() - 1];
    let pair = format!("\"{key}\":{value}");
    let object = match rng.below(3) {
        0 => format!("{{{pair},{body}}}"),
        1 => format!("{{{body},{pair}}}"),
        _ => {
            // Replace: drop the key's pair if the seed has it, then add.
            let kept: Vec<&str> = split_pairs(body)
                .into_iter()
                .filter(|p| !p.starts_with(&format!("\"{key}\":")))
                .collect();
            format!("{{{}}}", [kept, vec![pair.as_str()]].concat().join(","))
        }
    };
    format!("{{\"op\":\"submit\",\"job\":{object}}}")
}

/// The top-level `"key":value` pairs of a flat object body (seed values
/// hold no commas outside strings).
fn split_pairs(body: &str) -> Vec<&str> {
    let mut pairs = Vec::new();
    let (mut start, mut in_string) = (0, false);
    for (i, b) in body.bytes().enumerate() {
        match b {
            b'"' => in_string = !in_string,
            b',' if !in_string => {
                pairs.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    pairs.push(&body[start..]);
    pairs
}

/// Every number the accepted spec writes is the number the body wrote
/// under that key (the parser keeps the last of duplicate keys).
fn numbers_kept(job: &Json, spec: &JobSpec) -> bool {
    let Json::Obj(fields) = spec.to_json() else {
        return false;
    };
    fields
        .iter()
        .filter(|(_, v)| matches!(v, Json::Num(_)))
        .all(|(k, v)| job.get(k).is_none_or(|w| w == v || w == &Json::Null))
}

#[test]
fn mutated_submit_bodies_are_rejected_typed_or_round_trip() {
    let mut rng = Stream(0x5bec);
    let (mut accepted, mut invalid, mut not_json) = (0, 0, 0);
    for case in 0..CASES {
        let seed = SEEDS[rng.below(SEEDS.len())];
        let key = rng.pick(KEYS);
        let value = hostile(&mut rng, key);
        let line = mutate(seed, key, &value, &mut rng);

        LARGEST.set(0);
        TRACKING.set(true);
        let decoded = std::panic::catch_unwind(|| match parse_request(&line)? {
            Request::Submit(job) => Ok((JobSpec::from_json(&job), job)),
            _ => Err("not a submit".to_string()),
        });
        TRACKING.set(false);
        let decoded =
            decoded.unwrap_or_else(|_| panic!("case {case}: decoder panicked: {line:.200}"));
        assert!(
            LARGEST.get() <= 2 * line.len().max(ALLOC_FLOOR),
            "case {case}: one allocation of {} bytes for a {}-byte request",
            LARGEST.get(),
            line.len()
        );
        match decoded {
            Err(protocol) => {
                not_json += 1;
                assert!(
                    NOT_JSON.contains(&value.as_str()) && protocol.starts_with("bad JSON"),
                    "case {case}: {protocol} for {line:.200}"
                );
            }
            Ok((Err(detail), _)) => {
                invalid += 1;
                assert!(!detail.is_empty(), "case {case}: empty reason");
                assert_eq!(RejectReason::InvalidSpec(detail).code(), "invalid-spec");
            }
            Ok((Ok(spec), job)) => {
                accepted += 1;
                assert!(
                    numbers_kept(&job, &spec),
                    "case {case}: {spec:?} does not keep the numbers of {line:.200}"
                );
                let text = spec.to_json().to_line();
                let again = Json::parse(&text)
                    .map_err(|e| e.to_string())
                    .and_then(|j| JobSpec::from_json(&j));
                assert_eq!(again, Ok(spec), "case {case}: drifted through {text}");
            }
        }
    }
    println!("submit bodies: {accepted} accepted, {invalid} invalid-spec, {not_json} not JSON");
    assert!(accepted > CASES / 10 && invalid > CASES / 3 && not_json > 0);
}
