//! Crash-consistent checkpoints for the distributed DBIM reconstruction.
//!
//! Format v2 (all integers little-endian, written by a small from-scratch
//! writer — no external serialization dependency):
//!
//! ```text
//! magic    8 bytes   b"FFWCKPT2"
//! payload  N bytes   fingerprint, next_iter, lost_txs, residual history,
//!                    object, grad_prev, dir, per-tx fields (see
//!                    CheckpointWriter), every field one u64 word
//! checksum 8 bytes   checkpoint_checksum(payload)
//! ```
//!
//! The checksum is FNV-1a over the payload's 64-bit words in four
//! interleaved lanes (word `i` goes to lane `i % 4`), the lanes folded into
//! one hash word by word at the end and any bytes past the last whole word
//! taken one at a time. Each word is first spread (`x = (w ^ w >> 32) * K`,
//! then `x ^ x >> 32`), so its high bits reach the low half of the lane:
//! an XOR-and-multiply step only carries differences upward, and unspread
//! words would leave corruption of the sign and exponent bytes checked by
//! the trailer's top byte alone. Every step of a lane is a bijection of the
//! lane, so any change confined to one word is always caught. A version-1 file
//! (`FFWCKPT1`, byte-wise FNV-1a) is refused with
//! [`CheckpointError::Version`]; there is no v1 reader.
//!
//! One writer, [`CheckpointWriter`], produces every checkpoint: it streams
//! the sections from borrowed slices through one fixed-size block, hashing
//! each block as it goes out, so writing a checkpoint never holds a copy of
//! the state. [`Checkpoint::encode`] runs it into memory;
//! [`CheckpointFile`] runs it into `<path>.tmp.<seq>` and hands the finished
//! file to the durable writer ([`crate::durable`]), which syncs it, renames
//! it over `<path>` and syncs the directory behind the caller's back. A
//! reader therefore sees either the previous complete checkpoint or the new
//! one, never a torn file.

use crate::durable;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC: &[u8; 8] = b"FFWCKPT2";
/// The magic of format version 1, recognised only to refuse it by name.
const MAGIC_V1: &[u8; 8] = b"FFWCKPT1";
/// The format version this build writes and reads.
const VERSION: u32 = 2;

/// Bytes the writer fills before hashing them and handing them to its sink:
/// the writer's whole footprint, whatever the size of the state. Each
/// block is one `write` into the page cache, and smaller blocks pay for
/// more of them (64 KiB: ~0.1 ms more per 721 KB boundary).
const BLOCK: usize = 256 * 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// The odd multiplier of [`spread`] (MurmurHash3's `fmix64` constant).
const SPREAD: u64 = 0xff51_afd7_ed55_8ccd;

/// Why loading a checkpoint failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem error (message carries the underlying cause).
    Io(String),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file is a checkpoint of another format version.
    Version {
        /// The version the file was written in.
        found: u32,
    },
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
            CheckpointError::Version { found } => write!(
                f,
                "checkpoint format v{found} (FFWCKPT{found}) is not readable by this build, \
                 which reads and writes v{VERSION} (FFWCKPT{VERSION}); start the run over"
            ),
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
    let mut h: u64 = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Carries every bit of a checkpoint word down into the low half before the
/// word enters a lane. A lane step `(h ^ w) * P` only moves a difference
/// upward, so without this a corruption confined to the top byte of words
/// (an `f64`'s sign and exponent) would reach only the trailer's top byte,
/// and two sign flips would cancel outright. A bijection, so a change to one
/// word still always changes its lane; off the lanes' dependency chains.
fn spread(w: u64) -> u64 {
    let x = (w ^ (w >> 32)).wrapping_mul(SPREAD);
    x ^ (x >> 32)
}

/// The checkpoint trailer's hash: FNV-1a over [`spread`] 64-bit words in
/// four interleaved lanes, carried across blocks by the word count.
#[derive(Clone, Copy, Debug)]
struct Lanes {
    h: [u64; 4],
    /// Lane of the next word.
    next: usize,
}

impl Lanes {
    fn new() -> Self {
        Lanes {
            h: [FNV_OFFSET; 4],
            next: 0,
        }
    }

    fn word(&mut self, w: &[u8]) {
        let lane = &mut self.h[self.next];
        *lane = (*lane ^ spread(u64::from_le_bytes(w.try_into().expect("an 8-byte word"))))
            .wrapping_mul(FNV_PRIME);
        self.next = (self.next + 1) % 4;
    }

    /// Hashes `bytes`, a whole number of words.
    fn words(&mut self, bytes: &[u8]) {
        debug_assert_eq!(bytes.len() % 8, 0, "the lanes take whole words");
        let lead = (4 - self.next) % 4 * 8;
        let (head, rest) = bytes.split_at(lead.min(bytes.len()));
        head.chunks_exact(8).for_each(|w| self.word(w));
        let mut quads = rest.chunks_exact(32);
        let [mut h0, mut h1, mut h2, mut h3] = self.h;
        let w = |q: &[u8], i: usize| {
            spread(u64::from_le_bytes(
                q[8 * i..8 * i + 8].try_into().expect("8"),
            ))
        };
        for q in &mut quads {
            h0 = (h0 ^ w(q, 0)).wrapping_mul(FNV_PRIME);
            h1 = (h1 ^ w(q, 1)).wrapping_mul(FNV_PRIME);
            h2 = (h2 ^ w(q, 2)).wrapping_mul(FNV_PRIME);
            h3 = (h3 ^ w(q, 3)).wrapping_mul(FNV_PRIME);
        }
        self.h = [h0, h1, h2, h3];
        quads.remainder().chunks_exact(8).for_each(|w| self.word(w));
    }

    /// Folds the lanes, then takes the bytes past the last whole word.
    fn finish(&self, tail: &[u8]) -> u64 {
        let mut h = FNV_OFFSET;
        for lane in self.h {
            h = (h ^ lane).wrapping_mul(FNV_PRIME);
        }
        for &b in tail {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        h
    }
}

/// The checksum a v2 checkpoint stores after `payload` (the bytes between
/// the magic and the trailer).
pub fn checkpoint_checksum(payload: &[u8]) -> u64 {
    let words = payload.len() - payload.len() % 8;
    let mut lanes = Lanes::new();
    lanes.words(&payload[..words]);
    lanes.finish(&payload[words..])
}

/// Incremental FNV-1a 64 hasher for building config fingerprints.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint {
    h: u64,
}

impl Fingerprint {
    /// Start a fresh fingerprint.
    pub fn new() -> Self {
        Fingerprint { h: FNV_OFFSET }
    }

    /// Mix a u64 (little-endian bytes) into the fingerprint.
    pub fn u64(mut self, v: u64) -> Self {
        for b in v.to_le_bytes() {
            self.h ^= b as u64;
            self.h = self.h.wrapping_mul(FNV_PRIME);
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

/// The one checkpoint writer: streams the payload words through one
/// 256 KiB block into `sink`, hashing each block as it goes out.
///
/// A checkpoint is written in this order, every item one `u64` word and
/// every complex value two (`re`, `im` bit patterns):
///
/// 1. [`Self::header`]: fingerprint, next iteration, the lost transmitters
///    (count, then each), the residual history (count, then each);
/// 2. `object`, `grad_prev` and `dir`, each a [`Self::vector`] — or a length
///    word followed by [`Self::pairs`] pieces adding up to it, or
///    [`Self::zeros`];
/// 3. the field count, then per field its transmitter and a vector.
///
/// [`Self::finish`] appends the checksum. Writes never fail on the spot: the
/// first I/O error is kept, later writes are dropped, and `finish` reports
/// it.
pub struct CheckpointWriter<W: Write> {
    sink: W,
    block: Box<[u8]>,
    len: usize,
    /// Bytes at the start of the block outside the payload (the magic).
    unhashed: usize,
    lanes: Lanes,
    error: Option<io::Error>,
}

impl<W: Write> CheckpointWriter<W> {
    /// A writer whose first bytes into `sink` are the magic.
    pub fn new(sink: W) -> Self {
        let mut block = vec![0u8; BLOCK].into_boxed_slice();
        block[..MAGIC.len()].copy_from_slice(MAGIC);
        CheckpointWriter {
            sink,
            block,
            len: MAGIC.len(),
            unhashed: MAGIC.len(),
            lanes: Lanes::new(),
            error: None,
        }
    }

    /// Hashes the filled part of the block and writes it out.
    fn drain(&mut self) {
        self.lanes.words(&self.block[self.unhashed..self.len]);
        if self.error.is_none() {
            if let Err(e) = self.sink.write_all(&self.block[..self.len]) {
                self.error = Some(e);
            }
        }
        self.len = 0;
        self.unhashed = 0;
    }

    /// One payload word.
    pub fn u64(&mut self, v: u64) {
        if BLOCK - self.len < 8 {
            self.drain();
        }
        self.block[self.len..self.len + 8].copy_from_slice(&v.to_le_bytes());
        self.len += 8;
    }

    /// Fingerprint, next iteration, lost transmitters, residual history.
    pub fn header(
        &mut self,
        fingerprint: u64,
        next_iter: u32,
        lost_txs: impl ExactSizeIterator<Item = u32>,
        residual_history: &[f64],
    ) {
        self.u64(fingerprint);
        self.u64(next_iter as u64);
        self.u64(lost_txs.len() as u64);
        lost_txs.for_each(|t| self.u64(t as u64));
        self.u64(residual_history.len() as u64);
        residual_history.iter().for_each(|r| self.u64(r.to_bits()));
    }

    /// The complex values of `v`, through `re_im`, without a length word.
    pub fn pairs<T>(&mut self, v: &[T], re_im: impl Fn(&T) -> (f64, f64)) {
        let mut rest = v;
        while !rest.is_empty() {
            let room = (BLOCK - self.len) / 16;
            if room == 0 {
                self.drain();
                continue;
            }
            let (now, later) = rest.split_at(room.min(rest.len()));
            let out = &mut self.block[self.len..self.len + 16 * now.len()];
            for (o, x) in out.chunks_exact_mut(16).zip(now) {
                let (re, im) = re_im(x);
                o[..8].copy_from_slice(&re.to_bits().to_le_bytes());
                o[8..].copy_from_slice(&im.to_bits().to_le_bytes());
            }
            self.len += 16 * now.len();
            rest = later;
        }
    }

    /// A vector section: its length, then its values.
    pub fn vector<T>(&mut self, v: &[T], re_im: impl Fn(&T) -> (f64, f64)) {
        self.u64(v.len() as u64);
        self.pairs(v, re_im);
    }

    /// A vector section of `n` zeros.
    pub fn zeros(&mut self, n: usize) {
        const CHUNK: [(f64, f64); 256] = [(0.0, 0.0); 256];
        self.u64(n as u64);
        let mut left = n;
        while left > 0 {
            let k = left.min(CHUNK.len());
            self.pairs(&CHUNK[..k], |&p| p);
            left -= k;
        }
    }

    /// Writes out the last block with the checksum after it; returns the
    /// sink.
    pub fn finish(mut self) -> io::Result<W> {
        if BLOCK - self.len < 8 {
            self.drain();
        }
        self.lanes.words(&self.block[self.unhashed..self.len]);
        let sum = self.lanes.finish(&[]);
        self.block[self.len..self.len + 8].copy_from_slice(&sum.to_le_bytes());
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.sink.write_all(&self.block[..self.len + 8])?;
        Ok(self.sink)
    }
}

/// Distinguishes the tmp files of one process's checkpoints.
static NEXT_TMP: AtomicU64 = AtomicU64::new(0);

/// A checkpoint being streamed into `<path>.tmp.<seq>`. Write the sections
/// through the [`CheckpointWriter`] it dereferences to, then
/// [`CheckpointFile::commit`] it; dropped uncommitted, it deletes its tmp
/// file.
pub struct CheckpointFile {
    path: PathBuf,
    tmp: PathBuf,
    writer: Option<CheckpointWriter<fs::File>>,
}

impl CheckpointFile {
    /// Creates the tmp file next to `path`.
    pub fn create(path: &Path) -> Result<CheckpointFile, CheckpointError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", NEXT_TMP.fetch_add(1, Ordering::Relaxed)));
        let tmp = PathBuf::from(tmp);
        let file = fs::File::create(&tmp)
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", tmp.display())))?;
        Ok(CheckpointFile {
            path: path.to_path_buf(),
            tmp,
            writer: Some(CheckpointWriter::new(file)),
        })
    }

    /// Finishes the file and queues it for the durable writer, which syncs
    /// it, renames it over the path, syncs the directory and then calls
    /// `then`. Returns once the bytes are in the page cache. An error is
    /// this file's own, or a failed sync or rename of the path's previous
    /// checkpoint that had not been reported yet.
    pub fn commit(mut self, then: Option<Box<dyn FnOnce() + Send>>) -> Result<(), CheckpointError> {
        let writer = self.writer.take().expect("committed once");
        let tmp = std::mem::take(&mut self.tmp);
        let file = match writer.finish() {
            Ok(file) => file,
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                return Err(CheckpointError::Io(format!("{}: {e}", tmp.display())));
            }
        };
        durable::enqueue(&self.path, durable::Pending { file, tmp, then })
    }
}

impl Deref for CheckpointFile {
    type Target = CheckpointWriter<fs::File>;
    fn deref(&self) -> &Self::Target {
        self.writer.as_ref().expect("not yet committed")
    }
}

impl DerefMut for CheckpointFile {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.writer.as_mut().expect("not yet committed")
    }
}

impl Drop for CheckpointFile {
    fn drop(&mut self) {
        if self.writer.take().is_some() {
            let _ = fs::remove_file(&self.tmp);
        }
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
    /// Streams the checkpoint through `w` (everything but the checksum).
    fn write_to<W: Write>(&self, w: &mut CheckpointWriter<W>) {
        w.header(
            self.fingerprint,
            self.next_iter,
            self.lost_txs.iter().copied(),
            &self.residual_history,
        );
        for v in [&self.object, &self.grad_prev, &self.dir] {
            w.vector(v, |&p| p);
        }
        w.u64(self.fields.len() as u64);
        for (tx, field) in &self.fields {
            w.u64(*tx as u64);
            w.vector(field, |&p| p);
        }
    }

    /// Serialize to the on-disk byte layout (magic + payload + checksum).
    pub fn encode(&self) -> Vec<u8> {
        let vectors =
            3 * self.object.len() + self.fields.iter().map(|(_, f)| f.len()).sum::<usize>();
        let words = 8 + self.lost_txs.len() + self.residual_history.len() + 2 * self.fields.len();
        let mut w = CheckpointWriter::new(Vec::with_capacity(16 + 8 * words + 16 * vectors));
        self.write_to(&mut w);
        w.finish().expect("writing into memory cannot fail")
    }

    /// Decode from bytes produced by [`Checkpoint::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        if let Some(magic) = bytes.get(..MAGIC.len()) {
            if magic == MAGIC_V1 {
                return Err(CheckpointError::Version { found: 1 });
            }
            if magic != MAGIC {
                return Err(CheckpointError::BadMagic);
            }
        }
        if bytes.len() < MAGIC.len() + 8 {
            return Err(CheckpointError::Truncated);
        }
        let payload = &bytes[MAGIC.len()..bytes.len() - 8];
        let mut stored = [0u8; 8];
        stored.copy_from_slice(&bytes[bytes.len() - 8..]);
        let stored = u64::from_le_bytes(stored);
        let computed = checkpoint_checksum(payload);
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

    /// Write atomically and durably: stream into `<path>.tmp.<seq>`, then
    /// wait until the durable writer has synced the file, renamed it over
    /// `path` and synced the parent directory — without the directory sync
    /// a power loss can roll the directory entry back to the old checkpoint
    /// (or to nothing) even though the file data was synced.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut file = CheckpointFile::create(path)?;
        self.write_to(&mut file);
        file.commit(None)?;
        durable::flush(path)
    }

    /// Load and verify a checkpoint, including the config fingerprint. A
    /// checkpoint of `path` still on its way to disk lands first.
    pub fn load(path: &Path, expected_fingerprint: u64) -> Result<Checkpoint, CheckpointError> {
        durable::flush(path)?;
        Checkpoint::read(path, expected_fingerprint)
    }

    /// [`Self::load`] of the latest boundary written to `path`, or `None`
    /// when none has landed there yet (a run that has not reached its first
    /// boundary).
    pub fn load_latest(
        path: &Path,
        expected_fingerprint: u64,
    ) -> Result<Option<Checkpoint>, CheckpointError> {
        durable::flush(path)?;
        if !path.exists() {
            return Ok(None);
        }
        Checkpoint::read(path, expected_fingerprint).map(Some)
    }

    fn read(path: &Path, expected_fingerprint: u64) -> Result<Checkpoint, CheckpointError> {
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

    /// Corruption confined to the top byte of words (an `f64`'s sign and
    /// exponent) is caught in every pair of words, in one lane or across
    /// lanes; so is the pattern that [`spread`]'s first step maps to the
    /// sign bit alone (bits 31 and 63 of a word together).
    #[test]
    fn high_bit_corruption_in_two_words_is_detected() {
        let bytes = sample().encode();
        let words = (bytes.len() - MAGIC.len() - 8) / 8;
        let patterns: [u64; 5] = [1 << 63, 1 << 62, 0xff << 56, 0x7ff << 52, 1 << 63 | 1 << 31];
        for d in patterns {
            for a in 0..words {
                for b in a + 1..words {
                    let mut bad = bytes.clone();
                    for k in [a, b] {
                        let at = MAGIC.len() + 8 * k;
                        let w = u64::from_le_bytes(bad[at..at + 8].try_into().expect("8"));
                        bad[at..at + 8].copy_from_slice(&(w ^ d).to_le_bytes());
                    }
                    match Checkpoint::decode(&bad) {
                        Err(CheckpointError::ChecksumMismatch { .. }) => {}
                        other => panic!("words {a}, {b} ^ {d:#x}: got {other:?}"),
                    }
                }
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
        let stray = fs::read_dir(&dir)
            .expect("list")
            .filter_map(Result::ok)
            .filter(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with("state.ckpt.tmp.")
            })
            .count();
        assert_eq!(stray, 0);
        match Checkpoint::load(&path, ckpt.fingerprint ^ 1) {
            Err(CheckpointError::FingerprintMismatch { .. }) => {}
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn a_version_1_file_is_refused_by_name() {
        let mut bytes = sample().encode();
        bytes[..8].copy_from_slice(b"FFWCKPT1");
        let err = Checkpoint::decode(&bytes).expect_err("no v1 reader");
        assert_eq!(err, CheckpointError::Version { found: 1 });
        let msg = err.to_string();
        assert!(
            msg.contains("FFWCKPT1") && msg.contains("FFWCKPT2"),
            "{msg}"
        );
        // The magic alone is enough to name the version.
        assert_eq!(
            Checkpoint::decode(b"FFWCKPT1"),
            Err(CheckpointError::Version { found: 1 })
        );
    }

    /// The lanes give one answer however the words are split into blocks,
    /// and tail bytes past the last word are taken one at a time.
    #[test]
    fn the_lane_checksum_is_independent_of_the_block_split() {
        let bytes: Vec<u8> = (0..1003u32).map(|i| (i * 7919 % 251) as u8).collect();
        let whole = checkpoint_checksum(&bytes);
        let words = bytes.len() / 8 * 8;
        for cut in [0, 8, 16, 24, 40, 504, words] {
            let mut lanes = Lanes::new();
            lanes.words(&bytes[..cut]);
            lanes.words(&bytes[cut..words]);
            assert_eq!(lanes.finish(&bytes[words..]), whole, "cut at {cut}");
        }
        let mut flipped = bytes.clone();
        flipped[1001] ^= 4;
        assert_ne!(checkpoint_checksum(&flipped), whole, "a tail byte counts");
        // Words swapped between lanes change the fold.
        let mut swapped = bytes.clone();
        swapped[..8].copy_from_slice(&bytes[8..16]);
        swapped[8..16].copy_from_slice(&bytes[..8]);
        assert_ne!(checkpoint_checksum(&swapped), whole);
    }

    /// Vectors longer than a block, starting at every word offset, stream to
    /// the same bytes as the word-by-word layout.
    #[test]
    fn the_writer_streams_across_block_edges() {
        let n = BLOCK / 16 + 37;
        let v: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, -(i as f64) * 0.5)).collect();
        for lead in 0..3 {
            let mut w = CheckpointWriter::new(Vec::new());
            (0..lead).for_each(|i| w.u64(i));
            w.vector(&v, |&p| p);
            w.zeros(n);
            let bytes = w.finish().expect("in memory");
            let mut expect = MAGIC.to_vec();
            (0..lead).for_each(|i| expect.extend_from_slice(&i.to_le_bytes()));
            expect.extend_from_slice(&(n as u64).to_le_bytes());
            for &(re, im) in &v {
                expect.extend_from_slice(&re.to_bits().to_le_bytes());
                expect.extend_from_slice(&im.to_bits().to_le_bytes());
            }
            expect.extend_from_slice(&(n as u64).to_le_bytes());
            expect.resize(expect.len() + 16 * n, 0);
            let sum = checkpoint_checksum(&expect[8..]);
            expect.extend_from_slice(&sum.to_le_bytes());
            assert!(bytes == expect, "lead {lead}");
        }
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
        let sum = checkpoint_checksum(&bytes[8..payload_end]);
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
            let sum = checkpoint_checksum(&bytes[8..payload_end]);
            bytes[payload_end..].copy_from_slice(&sum.to_le_bytes());
            match Checkpoint::decode(&bytes) {
                Err(CheckpointError::Malformed(msg)) => assert!(msg.contains(what), "{msg}"),
                other => panic!("{what}: expected malformed, got {other:?}"),
            }
        }
    }
}
