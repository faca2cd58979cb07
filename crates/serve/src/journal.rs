//! The append-only job journal: the service's crash-safe source of truth.
//!
//! Layout (integers little-endian):
//!
//! ```text
//! header   8 bytes   b"FFWJRNL1"
//! frame*   4 bytes   payload length N (max 1 MiB)
//!          N bytes   payload: one JSON-encoded JobEvent
//!          8 bytes   FNV-1a 64 checksum over the payload
//! ```
//!
//! Every accepted job appends an `accepted` frame *before* the submit
//! response is sent, and every terminal transition appends its frame before
//! the client hears about it; each append is flushed and fsynced. Recovery
//! scans frames from the start and stops at the first torn or corrupt frame
//! — a kill at any byte boundary therefore loses at most the suffix that
//! was never acknowledged, and the engine re-queues every journaled job
//! that lacks a terminal frame (resuming from its checkpoint when one
//! exists). The torn tail is truncated so subsequent appends extend a
//! well-formed file. Corruption *before* the last good frame also truncates
//! there: the journal is a prefix log, and a conservative prefix is the
//! only state whose every frame is known-good.
//!
//! A frame whose length and checksum are *valid* but whose payload does not
//! decode is neither: it was written whole, by a version of the service
//! whose events this one no longer reads. Truncating there would discard
//! acknowledged history, so the open fails typed
//! ([`JournalError::Undecodable`]) and leaves the file as it is.

use crate::json::Json;
use crate::spec::JobSpec;
use ffw_fault::fnv1a64;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"FFWJRNL1";
/// Sanity cap on a single frame payload; a declared length above this is
/// corruption, not a request to allocate.
const MAX_FRAME: usize = 1 << 20;

/// Why the journal could not be opened or written.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// Filesystem failure (message carries path and cause).
    Io(String),
    /// The file exists but does not start with the journal magic — it is
    /// not ours to truncate; the operator must move it aside.
    BadHeader,
    /// A frame with a valid length and checksum whose payload this version
    /// cannot decode — a version skew, not a torn write. The file is left
    /// untouched; the operator drains it with the version that wrote it or
    /// moves it aside.
    Undecodable {
        /// Byte offset of the frame in the file.
        offset: u64,
        /// Why the payload did not decode.
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(m) => write!(f, "journal io error: {m}"),
            JournalError::BadHeader => {
                write!(
                    f,
                    "journal file exists but has a foreign header (refusing to truncate)"
                )
            }
            JournalError::Undecodable { offset, reason } => write!(
                f,
                "journal frame at byte {offset} is intact but does not decode ({reason}); \
                 it was written by another version — refusing to truncate"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// One durable fact about a job's lifecycle.
#[derive(Clone, Debug, PartialEq)]
pub enum JobEvent {
    /// The job passed admission; carries the full validated spec.
    Accepted {
        /// Job id.
        id: String,
        /// The validated spec (recovery re-queues from this). Boxed: specs
        /// dwarf every other variant and events move through channels.
        spec: Box<JobSpec>,
    },
    /// A worker began (or re-began) executing the job.
    Started {
        /// Job id.
        id: String,
        /// 1-based attempt number (increments on transient-fault retries).
        attempt: u32,
    },
    /// The job completed; the output file's digest is the proof of payload.
    Done {
        /// Job id.
        id: String,
        /// Final relative residual.
        residual: f64,
        /// FNV-1a 64 digest of the output image bytes.
        digest: u64,
    },
    /// The job failed terminally.
    Failed {
        /// Job id.
        id: String,
        /// Stable failure code (`breakdown`, `budget-exhausted`, ...).
        code: String,
        /// Human-readable detail.
        detail: String,
    },
    /// The job was cancelled; its checkpoint (if any) is removed.
    Cancelled {
        /// Job id.
        id: String,
        /// Outer iterations completed before the stop took effect.
        next_iter: u32,
    },
}

impl JobEvent {
    /// The id of the job this event concerns.
    pub fn id(&self) -> &str {
        match self {
            JobEvent::Accepted { id, .. }
            | JobEvent::Started { id, .. }
            | JobEvent::Done { id, .. }
            | JobEvent::Failed { id, .. }
            | JobEvent::Cancelled { id, .. } => id,
        }
    }

    /// Serializes to the journal's JSON payload.
    pub fn to_json(&self) -> Json {
        use crate::json::obj;
        match self {
            JobEvent::Accepted { id, spec } => obj(vec![
                ("type", Json::Str("accepted".into())),
                ("id", Json::Str(id.clone())),
                ("spec", spec.to_json()),
            ]),
            JobEvent::Started { id, attempt } => obj(vec![
                ("type", Json::Str("started".into())),
                ("id", Json::Str(id.clone())),
                ("attempt", Json::Num(*attempt as f64)),
            ]),
            JobEvent::Done {
                id,
                residual,
                digest,
            } => obj(vec![
                ("type", Json::Str("done".into())),
                ("id", Json::Str(id.clone())),
                ("residual", Json::Num(*residual)),
                ("digest", Json::Str(format!("{digest:#018x}"))),
            ]),
            JobEvent::Failed { id, code, detail } => obj(vec![
                ("type", Json::Str("failed".into())),
                ("id", Json::Str(id.clone())),
                ("code", Json::Str(code.clone())),
                ("detail", Json::Str(detail.clone())),
            ]),
            JobEvent::Cancelled { id, next_iter } => obj(vec![
                ("type", Json::Str("cancelled".into())),
                ("id", Json::Str(id.clone())),
                ("next_iter", Json::Num(*next_iter as f64)),
            ]),
        }
    }

    /// Decodes a journal payload; `Err` marks the frame (and everything
    /// after it) unusable.
    pub fn from_json(j: &Json) -> Result<JobEvent, String> {
        let id = j
            .get("id")
            .and_then(Json::as_str)
            .ok_or("event missing 'id'")?
            .to_string();
        match j.get("type").and_then(Json::as_str) {
            Some("accepted") => Ok(JobEvent::Accepted {
                id,
                spec: Box::new(JobSpec::from_json(
                    j.get("spec").ok_or("accepted missing 'spec'")?,
                )?),
            }),
            Some("started") => Ok(JobEvent::Started {
                id,
                attempt: u32_field(j, "started", "attempt")?,
            }),
            Some("done") => {
                let hex = j
                    .get("digest")
                    .and_then(Json::as_str)
                    .ok_or("done missing 'digest'")?;
                let digest = u64::from_str_radix(hex.trim_start_matches("0x"), 16)
                    .map_err(|_| "bad digest hex".to_string())?;
                Ok(JobEvent::Done {
                    id,
                    residual: j
                        .get("residual")
                        .and_then(Json::as_f64)
                        .ok_or("done missing 'residual'")?,
                    digest,
                })
            }
            Some("failed") => Ok(JobEvent::Failed {
                id,
                code: j
                    .get("code")
                    .and_then(Json::as_str)
                    .ok_or("failed missing 'code'")?
                    .to_string(),
                detail: j
                    .get("detail")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            }),
            Some("cancelled") => Ok(JobEvent::Cancelled {
                id,
                next_iter: u32_field(j, "cancelled", "next_iter")?,
            }),
            other => Err(format!("unknown event type {other:?}")),
        }
    }

    /// The journal frame of this event: length, JSON payload, checksum
    /// (module docs).
    pub fn to_frame(&self) -> Vec<u8> {
        let payload = self.to_json().to_line().into_bytes();
        debug_assert!(payload.len() <= MAX_FRAME);
        let mut frame = Vec::with_capacity(payload.len() + 12);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        frame
    }
}

/// `j[key]` of a `kind` event as the `u32` it was written from. A larger
/// value is a frame this version did not write, not one to wrap onto a
/// small count.
fn u32_field(j: &Json, kind: &str, key: &str) -> Result<u32, String> {
    let v = j
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{kind} missing '{key}'"))?;
    u32::try_from(v).map_err(|_| format!("{kind} '{key}' {v} exceeds u32::MAX ({})", u32::MAX))
}

/// What `Journal::open` recovered from an existing file.
#[derive(Clone, Debug, Default)]
pub struct Recovery {
    /// Every intact event, in append order.
    pub events: Vec<JobEvent>,
    /// Bytes of torn/corrupt tail that were truncated away (0 on a clean
    /// open).
    pub truncated_bytes: u64,
}

impl Recovery {
    /// What the journal bytes `bytes` hold: every intact frame's event and
    /// the length of the torn or corrupt tail after them (all of a file
    /// shorter than the header). A foreign header or an intact frame that
    /// does not decode is a typed error. No length word is trusted beyond
    /// the bytes there are, so nothing is allocated for a frame that is not.
    pub fn scan(bytes: &[u8]) -> Result<Recovery, JournalError> {
        if bytes.len() < MAGIC.len() {
            // Torn during creation: only a header prefix made it out.
            return Ok(Recovery {
                events: Vec::new(),
                truncated_bytes: bytes.len() as u64,
            });
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(JournalError::BadHeader);
        }
        let mut recovery = Recovery::default();
        let mut pos = MAGIC.len();
        while let Some((event, next)) = read_frame(bytes, pos)? {
            recovery.events.push(event);
            pos = next;
        }
        recovery.truncated_bytes = (bytes.len() - pos) as u64;
        Ok(recovery)
    }
}

/// An open, append-only job journal.
#[derive(Debug)]
pub struct Journal {
    file: fs::File,
    path: PathBuf,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path` and recovers every
    /// intact frame. A torn or corrupt tail is truncated; a file with a
    /// foreign header, or an intact frame this version cannot decode, is a
    /// typed error, never a panic and never destroyed.
    pub fn open(path: &Path) -> Result<(Journal, Recovery), JournalError> {
        let io = |what: &str, e: std::io::Error| {
            JournalError::Io(format!("{what} {}: {e}", path.display()))
        };
        let (recovery, good_len) = match fs::read(path) {
            Ok(bytes) => {
                let recovery = Recovery::scan(&bytes)?;
                // A torn header is a fresh journal.
                let good_len = (bytes.len() >= MAGIC.len())
                    .then(|| bytes.len() as u64 - recovery.truncated_bytes);
                (recovery, good_len)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (Recovery::default(), None),
            Err(e) => return Err(io("read", e)),
        };

        match good_len {
            Some(len) => {
                // Existing journal with a valid header: drop the bad tail
                // (if any) and append after the last good frame.
                let file = fs::OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| io("open", e))?;
                if recovery.truncated_bytes > 0 {
                    file.set_len(len).map_err(|e| io("truncate", e))?;
                    file.sync_all().map_err(|e| io("sync", e))?;
                }
                let mut journal = Journal {
                    file,
                    path: path.to_path_buf(),
                };
                use std::io::Seek as _;
                journal
                    .file
                    .seek(std::io::SeekFrom::Start(len))
                    .map_err(|e| io("seek", e))?;
                Ok((journal, recovery))
            }
            None => {
                // Fresh journal (or torn header): write the header and sync
                // it — and the directory entry — before accepting any job.
                let mut file = fs::File::create(path).map_err(|e| io("create", e))?;
                file.write_all(MAGIC).map_err(|e| io("write header", e))?;
                file.sync_all().map_err(|e| io("sync", e))?;
                sync_parent_dir(path)?;
                Ok((
                    Journal {
                        file,
                        path: path.to_path_buf(),
                    },
                    recovery,
                ))
            }
        }
    }

    /// Appends one event durably: the frame is written, flushed and fsynced
    /// before this returns, so an acknowledgement sent afterwards can never
    /// outlive the record.
    pub fn append(&mut self, event: &JobEvent) -> Result<(), JournalError> {
        let frame = event.to_frame();
        let io = |what: &str, e: std::io::Error| {
            JournalError::Io(format!("{what} {}: {e}", self.path.display()))
        };
        self.file.write_all(&frame).map_err(|e| io("append", e))?;
        self.file.sync_data().map_err(|e| io("fsync", e))
    }
}

/// Parses the frame at `pos`: `Ok(None)` if it is torn, corrupt, or absent
/// (the end of the valid prefix), an error if it is intact — length and
/// checksum hold — but its payload does not decode.
fn read_frame(bytes: &[u8], pos: usize) -> Result<Option<(JobEvent, usize)>, JournalError> {
    let Some((payload, frame_end)) = intact_payload(bytes, pos) else {
        return Ok(None);
    };
    let event = std::str::from_utf8(payload)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(text).map_err(|e| e.to_string()))
        .and_then(|j| JobEvent::from_json(&j))
        .map_err(|reason| JournalError::Undecodable {
            offset: pos as u64,
            reason,
        })?;
    Ok(Some((event, frame_end)))
}

/// The payload of the frame at `pos` and the offset the frame ends at, if
/// the whole frame is there, its length is sane and its checksum matches.
fn intact_payload(bytes: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let len_end = pos.checked_add(4)?;
    if len_end > bytes.len() {
        return None;
    }
    let mut len_buf = [0u8; 4];
    len_buf.copy_from_slice(&bytes[pos..len_end]);
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return None;
    }
    let payload_end = len_end.checked_add(len)?;
    let frame_end = payload_end.checked_add(8)?;
    if frame_end > bytes.len() {
        return None;
    }
    let payload = &bytes[len_end..payload_end];
    let mut sum_buf = [0u8; 8];
    sum_buf.copy_from_slice(&bytes[payload_end..frame_end]);
    (u64::from_le_bytes(sum_buf) == fnv1a64(payload)).then_some((payload, frame_end))
}

fn sync_parent_dir(path: &Path) -> Result<(), JournalError> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let dir = fs::File::open(&parent)
        .map_err(|e| JournalError::Io(format!("open dir {}: {e}", parent.display())))?;
    dir.sync_all()
        .map_err(|e| JournalError::Io(format!("sync dir {}: {e}", parent.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ffw-serve-journal-test");
        fs::create_dir_all(&dir).expect("mkdir");
        dir.join(format!("{name}-{}.journal", std::process::id()))
    }

    pub(crate) fn sample_events() -> Vec<JobEvent> {
        let spec = JobSpec::from_json(
            &Json::parse(r#"{"id":"j1","size":32,"tx":4,"rx":8,"iterations":2}"#).expect("json"),
        )
        .expect("spec");
        vec![
            JobEvent::Accepted {
                id: "j1".into(),
                spec: Box::new(spec),
            },
            JobEvent::Started {
                id: "j1".into(),
                attempt: 1,
            },
            JobEvent::Done {
                id: "j1".into(),
                residual: 0.0123,
                digest: 0xDEAD_BEEF_0123_4567,
            },
            JobEvent::Failed {
                id: "j2".into(),
                code: "breakdown".into(),
                detail: "rho underflow".into(),
            },
            JobEvent::Cancelled {
                id: "j3".into(),
                next_iter: 2,
            },
        ]
    }

    #[test]
    fn append_then_reopen_replays_everything() {
        let path = tmp("roundtrip");
        fs::remove_file(&path).ok();
        let events = sample_events();
        {
            let (mut j, rec) = Journal::open(&path).expect("open fresh");
            assert!(rec.events.is_empty());
            for e in &events {
                j.append(e).expect("append");
            }
        }
        let (_, rec) = Journal::open(&path).expect("reopen");
        assert_eq!(rec.events, events);
        assert_eq!(rec.truncated_bytes, 0);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn append_after_recovery_extends_cleanly() {
        let path = tmp("extend");
        fs::remove_file(&path).ok();
        let events = sample_events();
        {
            let (mut j, _) = Journal::open(&path).expect("open");
            j.append(&events[0]).expect("append");
            j.append(&events[1]).expect("append");
        }
        // Tear off the last 3 bytes of the file, then append a new event.
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 3]).expect("tear");
        {
            let (mut j, rec) = Journal::open(&path).expect("recover");
            assert_eq!(rec.events, vec![events[0].clone()]);
            assert!(rec.truncated_bytes > 0);
            j.append(&events[2]).expect("append after recovery");
        }
        let (_, rec) = Journal::open(&path).expect("final open");
        assert_eq!(rec.events, vec![events[0].clone(), events[2].clone()]);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_file_is_a_typed_error() {
        let path = tmp("foreign");
        fs::write(&path, b"NOT-A-JOURNAL-FILE").expect("write");
        match Journal::open(&path) {
            Err(JournalError::BadHeader) => {}
            other => panic!("expected BadHeader, got {other:?}"),
        }
        // The foreign file was not destroyed.
        assert_eq!(fs::read(&path).expect("read"), b"NOT-A-JOURNAL-FILE");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn counts_past_u32_are_undecodable_not_wrapped() {
        let big = u64::from(u32::MAX) + 1;
        for (kind, key) in [("started", "attempt"), ("cancelled", "next_iter")] {
            let line = format!(r#"{{"type":"{kind}","id":"j1","{key}":{big}}}"#);
            let err = JobEvent::from_json(&Json::parse(&line).expect("parse"))
                .expect_err("2^32 must not decode");
            assert!(err.contains("u32::MAX") && err.contains(key), "{err}");
            // Through a whole, checksummed frame it is a typed open error.
            let payload = line.as_bytes();
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(payload);
            bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
            match Recovery::scan(&bytes) {
                Err(JournalError::Undecodable { offset: 8, reason }) => {
                    assert!(reason.contains("u32::MAX"), "{reason}")
                }
                other => panic!("{kind}: expected Undecodable, got {other:?}"),
            }
            // u32::MAX itself is a count this version writes.
            let line = line.replace(&big.to_string(), &u32::MAX.to_string());
            assert!(JobEvent::from_json(&Json::parse(&line).expect("parse")).is_ok());
        }
    }

    #[test]
    fn event_json_roundtrip() {
        for e in sample_events() {
            let j = e.to_json();
            let back =
                JobEvent::from_json(&Json::parse(&j.to_line()).expect("parse")).expect("decode");
            assert_eq!(back, e);
        }
    }
}
