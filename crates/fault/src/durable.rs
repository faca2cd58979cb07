//! The durable writer: checkpoints become durable behind the next iteration.
//!
//! A [`crate::CheckpointFile`] leaves its bytes in the page cache and queues
//! the finished tmp file here. One lazily started thread per process takes
//! each queued file, `fsync`s it, renames it over its path and `fsync`s the
//! directory, then runs the file's `then` callback (the boundary's progress
//! frame, so progress still means "on disk"). The caller is already
//! computing the next iteration meanwhile.
//!
//! Per path the work is FIFO, and at most one file waits behind the one in
//! flight: a newer boundary queued while an older one still waits supersedes
//! it — the older tmp file is deleted and its callbacks run after the newer
//! file lands. A failed sync or rename deletes that tmp file, leaves the
//! previous checkpoint in place, and is reported as
//! [`CheckpointError::Io`] by the path's next boundary or [`flush`].
//!
//! A crash therefore loses at most the boundary in flight. The callers
//! [`flush`] where the latest boundary must be on disk: before a loop stops
//! at a boundary, inside [`crate::Checkpoint::load`], at the end of a run,
//! and in [`crate::Checkpoint::save`]. Whoever deletes a checkpoint
//! [`cancel`]s its pending work first, or a late rename would bring it back.

use crate::checkpoint::CheckpointError;
use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard, Once, PoisonError};

/// A finished tmp file waiting to be made durable at its path.
pub(crate) struct Pending {
    pub(crate) file: fs::File,
    pub(crate) tmp: PathBuf,
    pub(crate) then: Option<Box<dyn FnOnce() + Send>>,
}

/// What the writer does with one path.
#[derive(Default)]
struct PathWork {
    /// The newest boundary not yet taken by the writer thread.
    queued: Option<Pending>,
    /// Callbacks of superseded boundaries, run when `queued` lands.
    then: Vec<Box<dyn FnOnce() + Send>>,
    /// The writer thread is syncing or renaming this path's file.
    busy: bool,
    /// A failed sync or rename not reported yet.
    error: Option<CheckpointError>,
    /// A failure to inject into the next file of this path (tests).
    inject: Option<DurableFault>,
}

impl PathWork {
    fn idle(&self) -> bool {
        self.queued.is_none() && !self.busy
    }
}

struct Queue {
    paths: BTreeMap<PathBuf, PathWork>,
    /// Paths with a queued file, oldest first.
    order: VecDeque<PathBuf>,
}

struct Shared {
    queue: Mutex<Queue>,
    changed: Condvar,
}

static SHARED: Shared = Shared {
    queue: Mutex::new(Queue {
        paths: BTreeMap::new(),
        order: VecDeque::new(),
    }),
    changed: Condvar::new(),
};
static START: Once = Once::new();

fn lock() -> MutexGuard<'static, Queue> {
    SHARED.queue.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait(q: MutexGuard<'static, Queue>) -> MutexGuard<'static, Queue> {
    SHARED
        .changed
        .wait(q)
        .unwrap_or_else(PoisonError::into_inner)
}

/// Queues `p` for `path`; reports a failure of the path's previous file.
pub(crate) fn enqueue(path: &Path, p: Pending) -> Result<(), CheckpointError> {
    START.call_once(|| {
        #[expect(
            clippy::disallowed_methods,
            reason = "one per-process I/O thread makes checkpoints durable off the solver's critical path; compute stays on the pool"
        )]
        std::thread::Builder::new()
            .name("ffw-ckpt-durable".into())
            .spawn(writer)
            .expect("spawn the checkpoint durable writer");
    });
    let mut q = lock();
    let work = q.paths.entry(path.to_path_buf()).or_default();
    if let Some(e) = work.error.take() {
        drop(q);
        let _ = fs::remove_file(&p.tmp);
        return Err(e);
    }
    match work.queued.replace(p) {
        Some(old) => {
            let _ = fs::remove_file(&old.tmp);
            work.then.extend(old.then);
        }
        None => q.order.push_back(path.to_path_buf()),
    }
    drop(q);
    SHARED.changed.notify_all();
    Ok(())
}

/// Waits until every checkpoint queued for `path` is durable (or failed),
/// and reports a failure not reported yet.
pub fn flush(path: &Path) -> Result<(), CheckpointError> {
    let mut q = lock();
    loop {
        match q.paths.get_mut(path) {
            None => return Ok(()),
            Some(work) if work.idle() => {
                let error = work.error.take();
                if work.inject.is_none() {
                    q.paths.remove(path);
                }
                return error.map_or(Ok(()), Err);
            }
            Some(_) => q = wait(q),
        }
    }
}

/// Ends a run that checkpoints to `path` (if any): the last boundary lands
/// before `run`'s result is returned, and the run's own error wins over a
/// failure to land it.
pub fn after_run<T, E: From<CheckpointError>>(
    path: Option<&Path>,
    run: Result<T, E>,
) -> Result<T, E> {
    let landed = path.map_or(Ok(()), flush);
    let run = run?;
    landed?;
    Ok(run)
}

/// Drops the checkpoint queued for `path` (deleting its tmp file, skipping
/// its callbacks), waits out the one in flight, and forgets an unreported
/// failure: after it returns, nothing writes `path` until a new boundary.
pub fn cancel(path: &Path) {
    let mut q = lock();
    loop {
        let Some(work) = q.paths.get_mut(path) else {
            return;
        };
        if let Some(p) = work.queued.take() {
            let _ = fs::remove_file(&p.tmp);
            work.then.clear();
        }
        if !work.busy {
            q.paths.remove(path);
            q.order.retain(|p| p != path);
            return;
        }
        q = wait(q);
    }
}

/// Where an injected failure hits a checkpoint on its way to disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DurableFault {
    /// The `fsync` of the finished tmp file fails.
    Sync,
    /// The rename over the published path fails.
    Rename,
}

/// Makes the next checkpoint of `path` fail at `at` once it reaches the
/// writer thread: the fault-injection seam of the durability tests.
#[doc(hidden)]
pub fn inject_fault(path: &Path, at: DurableFault) {
    lock().paths.entry(path.to_path_buf()).or_default().inject = Some(at);
}

/// Syncs `file` (the finished `tmp`), renames it over `path` and syncs the
/// directory.
fn land(
    path: &Path,
    file: &fs::File,
    tmp: &Path,
    inject: Option<DurableFault>,
) -> Result<(), CheckpointError> {
    let injected = |what: String| CheckpointError::Io(format!("{what}: injected failure"));
    if inject == Some(DurableFault::Sync) {
        return Err(injected(format!("sync {}", tmp.display())));
    }
    file.sync_all()
        .map_err(|e| CheckpointError::Io(format!("sync {}: {e}", tmp.display())))?;
    if inject == Some(DurableFault::Rename) {
        return Err(injected(format!("rename to {}", path.display())));
    }
    fs::rename(tmp, path)
        .map_err(|e| CheckpointError::Io(format!("rename to {}: {e}", path.display())))?;
    // Durability of the rename: sync the directory entry. `path` came from
    // the caller, so it may have no parent component ("ckpt.bin"); fall
    // back to "." in that case.
    let parent = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    fs::File::open(parent)
        .and_then(|d| d.sync_all())
        .map_err(|e| CheckpointError::Io(format!("sync dir {}: {e}", parent.display())))
}

/// The writer thread: lands queued files oldest path first, forever.
fn writer() {
    let mut q = lock();
    loop {
        let Some(path) = q.order.pop_front() else {
            q = wait(q);
            continue;
        };
        let Some(work) = q.paths.get_mut(&path) else {
            continue;
        };
        let Some(Pending { file, tmp, then }) = work.queued.take() else {
            continue;
        };
        let mut callbacks = std::mem::take(&mut work.then);
        callbacks.extend(then);
        let inject = work.inject.take();
        work.busy = true;
        drop(q);

        let landed = land(&path, &file, &tmp, inject);
        drop(file);
        match &landed {
            // A panicking callback has been reported by the panic hook; the
            // thread lives on, or every later flush would wait forever.
            Ok(()) => callbacks.into_iter().for_each(|f| {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            }),
            Err(_) => {
                let _ = fs::remove_file(&tmp);
            }
        }

        q = lock();
        if let Some(work) = q.paths.get_mut(&path) {
            work.busy = false;
            if let Err(e) = landed {
                work.error = Some(e);
            }
        }
        SHARED.changed.notify_all();
    }
}
