//! Crash-consistent checkpoints for the distributed DBIM reconstruction.
//!
//! Format (all integers little-endian, written by a small from-scratch
//! writer — no external serialization dependency):
//!
//! ```text
//! magic    8 bytes   b"FFWCKPT1"
//! payload  N bytes   fingerprint, next_iter, lost_txs, residual history,
//!                    object, grad_prev, dir, per-tx fields (see encode())
//! checksum 8 bytes   FNV-1a 64 over the payload bytes
//! ```
//!
//! Writes go to `<path>.tmp` followed by an atomic `rename`, so a crash
//! mid-write can never leave a torn checkpoint at the published path; a
//! reader sees either the previous complete checkpoint or the new one.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

const MAGIC: &[u8; 8] = b"FFWCKPT1";

/// Why loading a checkpoint failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem error (message carries the underlying cause).
    Io(String),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file ends before the declared payload and checksum.
    Truncated,
    /// The stored checksum does not match the payload.
    ChecksumMismatch {
        /// Checksum stored in the file trailer.
        stored: u64,
        /// Checksum computed over the payload actually read.
        computed: u64,
    },
    /// The payload decodes to inconsistent lengths or counts.
    Malformed(String),
    /// The checkpoint was written by a run with a different scene/config.
    FingerprintMismatch {
        /// Fingerprint of the current run.
        expected: u64,
        /// Fingerprint stored in the checkpoint.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "io error: {msg}"),
            CheckpointError::BadMagic => write!(f, "bad magic (not an ffw checkpoint)"),
            CheckpointError::Truncated => write!(f, "truncated checkpoint file"),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            CheckpointError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "config fingerprint mismatch (run {expected:#018x}, file {found:#018x})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Incremental FNV-1a 64 hasher for building config fingerprints.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint {
    h: u64,
}

impl Fingerprint {
    /// Start a fresh fingerprint.
    pub fn new() -> Self {
        Fingerprint {
            h: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Mix a u64 (little-endian bytes) into the fingerprint.
    pub fn u64(mut self, v: u64) -> Self {
        for b in v.to_le_bytes() {
            self.h ^= b as u64;
            self.h = self.h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mix an f64 (bit pattern) into the fingerprint.
    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    /// Mix a boolean flag into the fingerprint.
    pub fn flag(self, v: bool) -> Self {
        self.u64(v as u64)
    }

    /// Finish and return the 64-bit fingerprint.
    pub fn finish(self) -> u64 {
        self.h
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

/// Snapshot of the distributed DBIM state after a completed outer iteration.
///
/// Complex vectors are stored as `(re, im)` pairs so this crate does not
/// depend on the numerics crate; the solver converts at the boundary.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint of the scene/config that produced this state.
    pub fingerprint: u64,
    /// Next outer iteration to run (iterations `0..next_iter` are done).
    pub next_iter: u32,
    /// Illumination (transmitter) indices lost to dead ranks so far.
    pub lost_txs: Vec<u32>,
    /// Relative residual after each completed outer iteration.
    pub residual_history: Vec<f64>,
    /// Full contrast (object) vector.
    pub object: Vec<(f64, f64)>,
    /// Previous gradient (for Polak-Ribiere conjugate directions).
    pub grad_prev: Vec<(f64, f64)>,
    /// Current conjugate search direction.
    pub dir: Vec<(f64, f64)>,
    /// Warm-start total fields, one full-length vector per surviving tx.
    pub fields: Vec<(u32, Vec<(f64, f64)>)>,
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_c64_vec(out: &mut Vec<u8>, v: &[(f64, f64)]) {
    put_u64(out, v.len() as u64);
    for &(re, im) in v {
        put_f64(out, re);
        put_f64(out, im);
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let end = self.pos + 8;
        if end > self.bytes.len() {
            return Err(CheckpointError::Truncated);
        }
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&self.bytes[self.pos..end]);
        self.pos = end;
        Ok(u64::from_le_bytes(buf))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u32` field stored in a `u64` slot: a value past `u32::MAX` is
    /// corruption, not a wrapped-around iteration or transmitter.
    fn u32(&mut self, what: &str) -> Result<u32, CheckpointError> {
        let v = self.u64()?;
        u32::try_from(v)
            .map_err(|_| CheckpointError::Malformed(format!("{what} {v} does not fit in 32 bits")))
    }

    /// A count of entries that take at least `entry_bytes` each.
    fn len(&mut self, what: &str, entry_bytes: usize) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        // A count the remaining bytes cannot hold is corruption, not a
        // request to allocate.
        if n > ((self.bytes.len() - self.pos) / entry_bytes) as u64 {
            return Err(CheckpointError::Malformed(format!(
                "{what} length {n} exceeds remaining payload"
            )));
        }
        Ok(n as usize)
    }

    fn c64_vec(&mut self, what: &str) -> Result<Vec<(f64, f64)>, CheckpointError> {
        let n = self.len(what, 16)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push((self.f64()?, self.f64()?));
        }
        Ok(v)
    }
}

impl Checkpoint {
    /// Serialize to the on-disk byte layout (magic + payload + checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        put_u64(&mut payload, self.fingerprint);
        put_u64(&mut payload, self.next_iter as u64);
        put_u64(&mut payload, self.lost_txs.len() as u64);
        for &t in &self.lost_txs {
            put_u64(&mut payload, t as u64);
        }
        put_u64(&mut payload, self.residual_history.len() as u64);
        for &r in &self.residual_history {
            put_f64(&mut payload, r);
        }
        put_c64_vec(&mut payload, &self.object);
        put_c64_vec(&mut payload, &self.grad_prev);
        put_c64_vec(&mut payload, &self.dir);
        put_u64(&mut payload, self.fields.len() as u64);
        for (tx, field) in &self.fields {
            put_u64(&mut payload, *tx as u64);
            put_c64_vec(&mut payload, field);
        }

        let mut out = Vec::with_capacity(payload.len() + 16);
        out.extend_from_slice(MAGIC);
        let checksum = fnv1a64(&payload);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decode from bytes produced by [`Checkpoint::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        if bytes.len() < MAGIC.len() + 8 {
            if bytes.len() >= MAGIC.len() && &bytes[..MAGIC.len()] != MAGIC {
                return Err(CheckpointError::BadMagic);
            }
            return Err(CheckpointError::Truncated);
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let payload = &bytes[MAGIC.len()..bytes.len() - 8];
        let mut stored = [0u8; 8];
        stored.copy_from_slice(&bytes[bytes.len() - 8..]);
        let stored = u64::from_le_bytes(stored);
        let computed = fnv1a64(payload);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }

        let mut r = Reader {
            bytes: payload,
            pos: 0,
        };
        let fingerprint = r.u64()?;
        let next_iter = r.u32("next_iter")?;
        let n_lost = r.len("lost_txs", 8)?;
        let mut lost_txs = Vec::with_capacity(n_lost);
        for _ in 0..n_lost {
            lost_txs.push(r.u32("lost tx")?);
        }
        let n_res = r.len("residual_history", 8)?;
        let mut residual_history = Vec::with_capacity(n_res);
        for _ in 0..n_res {
            residual_history.push(r.f64()?);
        }
        let object = r.c64_vec("object")?;
        let grad_prev = r.c64_vec("grad_prev")?;
        let dir = r.c64_vec("dir")?;
        let n_fields = r.len("fields", 16)?;
        let mut fields = Vec::with_capacity(n_fields);
        for _ in 0..n_fields {
            let tx = r.u32("field tx")?;
            fields.push((tx, r.c64_vec("field")?));
        }
        if r.pos != payload.len() {
            return Err(CheckpointError::Malformed(format!(
                "{} trailing bytes after payload",
                payload.len() - r.pos
            )));
        }
        if grad_prev.len() != object.len() || dir.len() != object.len() {
            return Err(CheckpointError::Malformed(
                "object/grad_prev/dir length mismatch".into(),
            ));
        }
        Ok(Checkpoint {
            fingerprint,
            next_iter,
            lost_txs,
            residual_history,
            object,
            grad_prev,
            dir,
            fields,
        })
    }

    /// Write atomically and durably: serialize to `<path>.tmp`, fsync the
    /// file, rename over `path`, then fsync the parent directory so the
    /// rename itself survives a crash — without the directory sync a power
    /// loss can roll the directory entry back to the old checkpoint (or to
    /// nothing) even though the file data was synced.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let bytes = self.encode();
        let tmp = path.with_extension("tmp");
        let io = |e: std::io::Error| CheckpointError::Io(format!("{}: {e}", tmp.display()));
        let mut f = fs::File::create(&tmp).map_err(io)?;
        f.write_all(&bytes).map_err(io)?;
        f.sync_all().map_err(io)?;
        drop(f);
        fs::rename(&tmp, path)
            .map_err(|e| CheckpointError::Io(format!("rename to {}: {e}", path.display())))?;
        // Durability of the rename: sync the directory entry. `path` came
        // from the caller, so it may have no parent component ("ckpt.bin");
        // fall back to "." in that case.
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => Path::new(".").to_path_buf(),
        };
        let dir = fs::File::open(&parent)
            .map_err(|e| CheckpointError::Io(format!("open dir {}: {e}", parent.display())))?;
        dir.sync_all()
            .map_err(|e| CheckpointError::Io(format!("sync dir {}: {e}", parent.display())))
    }

    /// Load and verify a checkpoint, including the config fingerprint.
    pub fn load(path: &Path, expected_fingerprint: u64) -> Result<Checkpoint, CheckpointError> {
        let bytes =
            fs::read(path).map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
        let ckpt = Checkpoint::decode(&bytes)?;
        if ckpt.fingerprint != expected_fingerprint {
            return Err(CheckpointError::FingerprintMismatch {
                expected: expected_fingerprint,
                found: ckpt.fingerprint,
            });
        }
        Ok(ckpt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            fingerprint: 0xDEAD_BEEF_0123_4567,
            next_iter: 3,
            lost_txs: vec![4, 5],
            residual_history: vec![0.9, 0.5, 0.25],
            object: vec![(1.0, -2.0), (0.5, 0.0), (3.25, 1e-300)],
            grad_prev: vec![(0.0, 0.0), (-1.0, 1.0), (2.0, 2.0)],
            dir: vec![(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)],
            fields: vec![(0, vec![(7.0, 8.0)]), (2, vec![(9.0, -9.0)])],
        }
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let ckpt = sample();
        let decoded = Checkpoint::decode(&ckpt.encode()).expect("decode");
        assert_eq!(decoded, ckpt);
    }

    #[test]
    fn every_corrupted_payload_byte_is_detected() {
        let bytes = sample().encode();
        // Flip each payload byte in turn; the checksum must catch it.
        for i in MAGIC.len()..bytes.len() - 8 {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            match Checkpoint::decode(&bad) {
                Err(CheckpointError::ChecksumMismatch { .. }) => {}
                other => panic!("byte {i}: expected checksum mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_fails_cleanly() {
        let bytes = sample().encode();
        for keep in 0..bytes.len() {
            let err = Checkpoint::decode(&bytes[..keep]).expect_err("must fail");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated
                        | CheckpointError::BadMagic
                        | CheckpointError::ChecksumMismatch { .. }
                        | CheckpointError::Malformed(_)
                ),
                "keep={keep}: {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_is_reported() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert_eq!(Checkpoint::decode(&bytes), Err(CheckpointError::BadMagic));
    }

    #[test]
    fn save_then_load_roundtrips_and_checks_fingerprint() {
        let dir = std::env::temp_dir().join("ffw-fault-ckpt-test");
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("state.ckpt");
        let ckpt = sample();
        ckpt.save(&path).expect("save");
        let loaded = Checkpoint::load(&path, ckpt.fingerprint).expect("load");
        assert_eq!(loaded, ckpt);
        // No stray tmp file left behind.
        assert!(!path.with_extension("tmp").exists());
        match Checkpoint::load(&path, ckpt.fingerprint ^ 1) {
            Err(CheckpointError::FingerprintMismatch { .. }) => {}
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_length_prefix_is_malformed_not_oom() {
        let ckpt = Checkpoint {
            fingerprint: 1,
            next_iter: 0,
            lost_txs: vec![],
            residual_history: vec![],
            object: vec![(0.0, 0.0)],
            grad_prev: vec![(0.0, 0.0)],
            dir: vec![(0.0, 0.0)],
            fields: vec![],
        };
        let mut bytes = ckpt.encode();
        // Patch the object length prefix (offset: magic + fingerprint +
        // next_iter + lost len + res len = 8 + 8 + 8 + 8 + 8) to a huge
        // value and fix up the checksum so only the bounds check trips.
        let off = 8 + 32;
        bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let payload_end = bytes.len() - 8;
        let sum = fnv1a64(&bytes[8..payload_end]);
        bytes[payload_end..].copy_from_slice(&sum.to_le_bytes());
        match Checkpoint::decode(&bytes) {
            Err(CheckpointError::Malformed(_)) => {}
            other => panic!("expected malformed, got {other:?}"),
        }
    }

    #[test]
    fn a_u32_field_past_32_bits_is_malformed_not_truncated() {
        // `sample()` payload offsets: next_iter at 8, the first lost tx at
        // 24, the first field's tx after the residuals and three vectors.
        let first_field = 8 + 8 + 8 + 16 + 8 + 24 + 3 * (8 + 3 * 16) + 8;
        for (off, what) in [(8, "next_iter"), (24, "lost tx"), (first_field, "field tx")] {
            let mut bytes = sample().encode();
            let at = MAGIC.len() + off;
            let v = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            bytes[at..at + 8].copy_from_slice(&(v | 1 << 32).to_le_bytes());
            let payload_end = bytes.len() - 8;
            let sum = fnv1a64(&bytes[8..payload_end]);
            bytes[payload_end..].copy_from_slice(&sum.to_le_bytes());
            match Checkpoint::decode(&bytes) {
                Err(CheckpointError::Malformed(msg)) => assert!(msg.contains(what), "{msg}"),
                other => panic!("{what}: expected malformed, got {other:?}"),
            }
        }
    }
}
