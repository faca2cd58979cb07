//! Crash-safety property tests for the job journal: a process killed at
//! *any* byte boundary — or a disk corrupting any single byte — must leave
//! a file that recovers to a known-good prefix of the accepted history (or
//! a typed error), never a panic and never garbage events.

use ffw_serve::journal::{JobEvent, Journal, JournalError};
use ffw_serve::json::Json;
use ffw_serve::spec::JobSpec;
use std::fs;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ffw-serve-torn-test");
    fs::create_dir_all(&dir).expect("mkdir");
    dir.join(format!("{name}-{}.journal", std::process::id()))
}

fn spec(id: &str) -> JobSpec {
    JobSpec::from_json(
        &Json::parse(&format!(
            r#"{{"id":"{id}","size":32,"tx":4,"rx":8,"iterations":2}}"#
        ))
        .expect("json"),
    )
    .expect("spec")
}

fn history() -> Vec<JobEvent> {
    vec![
        JobEvent::Accepted {
            id: "j1".into(),
            spec: Box::new(spec("j1")),
        },
        JobEvent::Started {
            id: "j1".into(),
            attempt: 1,
        },
        JobEvent::Accepted {
            id: "j2".into(),
            spec: Box::new(spec("j2")),
        },
        JobEvent::Done {
            id: "j1".into(),
            residual: 0.01,
            digest: 0x1234_5678_9ABC_DEF0,
        },
        JobEvent::Cancelled {
            id: "j2".into(),
            next_iter: 0,
        },
    ]
}

/// Writes the full history and returns the journal's bytes.
fn written_journal(path: &PathBuf) -> Vec<u8> {
    fs::remove_file(path).ok();
    let (mut j, rec) = Journal::open(path).expect("fresh open");
    assert!(rec.events.is_empty());
    for e in history() {
        j.append(&e).expect("append");
    }
    drop(j);
    fs::read(path).expect("read journal bytes")
}

fn is_prefix(events: &[JobEvent], of: &[JobEvent]) -> bool {
    events.len() <= of.len() && events.iter().zip(of).all(|(a, b)| a == b)
}

/// Kill-at-every-byte: truncate the journal to each possible length. Every
/// single one must recover to a prefix of the original history, the
/// truncated-byte accounting must balance, and a *second* open of the
/// repaired file must be clean (the recovery truncation really happened on
/// disk, not just in memory).
#[test]
fn truncation_at_every_byte_offset_recovers_a_clean_prefix() {
    let path = tmp("every-byte");
    let full = written_journal(&path);
    let all = history();
    let mut prefix_lens = std::collections::BTreeSet::new();
    for cut in 0..=full.len() {
        fs::write(&path, &full[..cut]).expect("truncate");
        let (mut j, rec) = Journal::open(&path).expect("recovery must never fail on a torn tail");
        assert!(
            is_prefix(&rec.events, &all),
            "cut at {cut}: recovered events are not a prefix (got {} events)",
            rec.events.len()
        );
        prefix_lens.insert(rec.events.len());
        if cut >= 8 {
            // Accounting: everything past the recovered frames was
            // truncated. (A cut inside the 8-byte header instead recreates
            // a fresh header, so the identity only holds from 8 on.)
            let kept = fs::metadata(&path).expect("metadata").len();
            assert_eq!(
                kept + rec.truncated_bytes,
                cut as u64,
                "cut at {cut}: kept {kept} + truncated {} != {cut}",
                rec.truncated_bytes
            );
        } else {
            assert_eq!(rec.truncated_bytes, cut as u64);
        }
        // The repaired file must append and reopen cleanly.
        j.append(&JobEvent::Started {
            id: "j9".into(),
            attempt: 1,
        })
        .expect("append after recovery");
        drop(j);
        let (_, rec2) = Journal::open(&path).expect("reopen repaired file");
        assert_eq!(
            rec2.truncated_bytes, 0,
            "cut at {cut}: repair left a bad tail"
        );
        assert_eq!(rec2.events.len(), rec.events.len() + 1);
    }
    // The sweep must actually exercise every intermediate prefix length,
    // not just the empty and full recoveries.
    assert_eq!(
        prefix_lens,
        (0..=all.len()).collect(),
        "some prefix length was never produced"
    );
    fs::remove_file(&path).ok();
}

/// Flip every byte of the journal, one at a time. Recovery must yield a
/// prefix of the true history or the typed foreign-header error — never a
/// panic, and never an event that was not written.
#[test]
fn single_byte_corruption_never_panics_and_never_fabricates_events() {
    let path = tmp("bit-flip");
    let full = written_journal(&path);
    let all = history();
    for pos in 0..full.len() {
        let mut damaged = full.clone();
        damaged[pos] ^= 0xFF;
        fs::write(&path, &damaged).expect("write damaged");
        match Journal::open(&path) {
            Ok((_, rec)) => {
                assert!(
                    is_prefix(&rec.events, &all),
                    "flip at {pos}: recovered a non-prefix ({} events)",
                    rec.events.len()
                );
                if pos >= 8 {
                    // A flip inside frame data must cost at least the frame
                    // it landed in.
                    assert!(
                        rec.events.len() < all.len(),
                        "flip at {pos} inside a frame went undetected"
                    );
                }
            }
            Err(JournalError::BadHeader) => {
                assert!(pos < 8, "flip at {pos} misreported as a foreign header");
                // The damaged file must not have been touched.
                assert_eq!(fs::read(&path).expect("read"), damaged);
            }
            Err(e) => panic!("flip at {pos}: unexpected error {e}"),
        }
    }
    fs::remove_file(&path).ok();
}

/// One journal frame around `payload`: length, payload, FNV-1a 64 checksum.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = (payload.len() as u32).to_le_bytes().to_vec();
    f.extend_from_slice(payload);
    f.extend_from_slice(&ffw_fault::fnv1a64(payload).to_le_bytes());
    f
}

/// A frame written whole by the parent version — length and checksum valid
/// — whose spec this version refuses (`"backend":"born-series"`) is a
/// version skew, not a torn tail: the open fails typed at that frame's
/// offset and the file, the acknowledged event after the frame included, is
/// left byte for byte as it was.
#[test]
fn an_intact_frame_that_does_not_decode_is_a_typed_error_not_a_truncation() {
    let path = tmp("version-skew");
    fs::remove_file(&path).ok();
    let (mut j, _) = Journal::open(&path).expect("fresh open");
    j.append(&history()[0]).expect("append");
    drop(j);
    let mut bytes = fs::read(&path).expect("read");
    let offset = bytes.len() as u64;
    bytes.extend(frame(
        br#"{"type":"accepted","id":"old","spec":{"id":"old","size":32,"tx":4,"rx":8,"iterations":2,"backend":"born-series"}}"#,
    ));
    bytes.extend(frame(history()[1].to_json().to_line().as_bytes()));
    fs::write(&path, &bytes).expect("write");

    match Journal::open(&path) {
        Err(JournalError::Undecodable { offset: at, reason }) => {
            assert_eq!(at, offset);
            assert!(reason.contains("'backend'"), "{reason}");
        }
        other => panic!("expected Undecodable, got {other:?}"),
    }
    assert_eq!(
        fs::read(&path).expect("read"),
        bytes,
        "the file was touched"
    );
    fs::remove_file(&path).ok();
}

/// Deleting the file entirely (crash before creation fsync reached the
/// directory) is a fresh start, not an error.
#[test]
fn missing_file_is_a_fresh_journal() {
    let path = tmp("missing");
    fs::remove_file(&path).ok();
    let (_, rec) = Journal::open(&path).expect("fresh open");
    assert!(rec.events.is_empty());
    assert_eq!(rec.truncated_bytes, 0);
    fs::remove_file(&path).ok();
}
