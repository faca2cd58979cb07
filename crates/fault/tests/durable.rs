//! The durable writer's contract: per-path FIFO, a queued boundary
//! superseded by a newer one, `flush` before a stop and inside
//! `Checkpoint::load`, `cancel` before a removal, and injected `fsync` /
//! rename failures surfacing typed while the previous checkpoint stays
//! loadable.
//!
//! The writer is one thread per process, so a test holds it still by
//! committing a file whose `then` callback waits on a channel: everything
//! queued behind it waits too, which is what makes the orderings below
//! deterministic.

use crossbeam_channel::{unbounded, Receiver, Sender};
use ffw_fault::durable::{self, DurableFault};
use ffw_fault::{Checkpoint, CheckpointError, CheckpointFile};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

fn dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ffw-durable-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

fn state(next_iter: u32) -> Checkpoint {
    Checkpoint {
        fingerprint: 0xd0_ab1e,
        next_iter,
        residual_history: vec![0.5; next_iter as usize],
        object: vec![(next_iter as f64, -1.0); 5],
        grad_prev: vec![(0.25, 0.0); 5],
        dir: vec![(0.0, 0.5); 5],
        fields: vec![(3, vec![(1.0, 2.0); 5])],
        ..Default::default()
    }
}

/// Streams `c` to `path` and queues it with `then`, the way the loops do.
fn commit(path: &Path, c: &Checkpoint, then: Option<Box<dyn FnOnce() + Send>>) {
    try_commit(path, c, then).expect("commit");
}

fn try_commit(
    path: &Path,
    c: &Checkpoint,
    then: Option<Box<dyn FnOnce() + Send>>,
) -> Result<(), CheckpointError> {
    let mut file = CheckpointFile::create(path)?;
    file.header(
        c.fingerprint,
        c.next_iter,
        c.lost_txs.iter().copied(),
        &c.residual_history,
    );
    for v in [&c.object, &c.grad_prev, &c.dir] {
        file.vector(v, |&p| p);
    }
    file.u64(c.fields.len() as u64);
    for (tx, f) in &c.fields {
        file.u64(*tx as u64);
        file.vector(f, |&p| p);
    }
    file.commit(then)
}

/// Holds the writer thread inside a callback until the returned sender
/// fires (or is dropped). Returns once the writer is inside it.
fn hold_writer(d: &Path) -> Sender<()> {
    let (entered_tx, entered_rx) = unbounded::<()>();
    let (release_tx, release_rx): (Sender<()>, Receiver<()>) = unbounded();
    commit(
        &d.join("hold.ckpt"),
        &state(1),
        Some(Box::new(move || {
            let _ = entered_tx.send(());
            let _ = release_rx.recv();
        })),
    );
    entered_rx
        .recv()
        .expect("the writer runs the hold callback");
    release_tx
}

fn tmp_files(d: &Path) -> Vec<String> {
    std::fs::read_dir(d)
        .expect("list")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp."))
        .collect()
}

fn log_cb(log: &Arc<Mutex<Vec<u32>>>, k: u32) -> Option<Box<dyn FnOnce() + Send>> {
    let log = Arc::clone(log);
    Some(Box::new(move || log.lock().expect("log").push(k)))
}

#[test]
fn a_queued_boundary_is_superseded_and_callbacks_keep_their_order() {
    let d = dir("supersede");
    let path = d.join("job.ckpt");
    let log = Arc::new(Mutex::new(Vec::new()));
    let release = hold_writer(&d);
    commit(&path, &state(1), log_cb(&log, 1));
    commit(&path, &state(2), log_cb(&log, 2));
    // Boundary 1 was still queued: 2 took its place and its tmp file went.
    assert_eq!(tmp_files(&d).len(), 1, "{:?}", tmp_files(&d));
    assert!(!path.exists(), "nothing lands while the writer is held");
    drop(release);
    durable::flush(&path).expect("flush");
    assert_eq!(*log.lock().expect("log"), vec![1, 2], "FIFO callbacks");
    assert_eq!(Checkpoint::load(&path, state(2).fingerprint), Ok(state(2)));
    assert!(tmp_files(&d).is_empty(), "{:?}", tmp_files(&d));
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn boundaries_land_in_order_and_load_waits_for_the_latest() {
    let d = dir("fifo");
    let path = d.join("job.ckpt");
    let log = Arc::new(Mutex::new(Vec::new()));
    for k in 1..=6 {
        commit(&path, &state(k), log_cb(&log, k));
    }
    // `load` flushes: it sees the newest boundary, never an older one.
    assert_eq!(Checkpoint::load(&path, state(6).fingerprint), Ok(state(6)));
    let seen = log.lock().expect("log").clone();
    assert_eq!(
        seen,
        (1..=6).collect::<Vec<_>>(),
        "every boundary reported, in order"
    );

    // While the writer is held, `load` of a path whose first checkpoint is
    // still queued waits for it instead of finding no file.
    let fresh = d.join("fresh.ckpt");
    let release = hold_writer(&d);
    commit(&fresh, &state(3), None);
    #[expect(
        clippy::disallowed_methods,
        reason = "the test must observe a load blocked on the writer from another thread"
    )]
    let loader = std::thread::spawn(move || Checkpoint::load(&fresh, state(3).fingerprint));
    std::thread::sleep(std::time::Duration::from_millis(20));
    assert!(
        !loader.is_finished(),
        "load must wait for the queued boundary"
    );
    drop(release);
    assert_eq!(loader.join().expect("loader"), Ok(state(3)));
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn cancel_drops_queued_work_so_a_removed_checkpoint_stays_removed() {
    let d = dir("cancel");
    let path = d.join("job.ckpt");
    state(1).save(&path).expect("save");
    let log = Arc::new(Mutex::new(Vec::new()));
    let release = hold_writer(&d);
    commit(&path, &state(2), log_cb(&log, 2));
    durable::cancel(&path);
    std::fs::remove_file(&path).expect("remove");
    assert!(
        tmp_files(&d).is_empty(),
        "cancel deletes the queued tmp file"
    );
    drop(release);
    durable::flush(&path).expect("nothing pending");
    durable::flush(&d.join("hold.ckpt")).expect("hold landed");
    assert!(!path.exists(), "no late rename brings the checkpoint back");
    assert!(
        log.lock().expect("log").is_empty(),
        "a cancelled boundary is not reported"
    );
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn an_injected_sync_or_rename_failure_is_typed_and_keeps_the_previous_checkpoint() {
    let d = dir("inject");
    for (k, at) in [DurableFault::Sync, DurableFault::Rename]
        .into_iter()
        .enumerate()
    {
        let path = d.join(format!("job-{k}.ckpt"));
        state(1).save(&path).expect("save");
        let reported = Arc::new(Mutex::new(Vec::new()));

        // Surfaced by flush.
        durable::inject_fault(&path, at);
        commit(&path, &state(2), log_cb(&reported, 2));
        match durable::flush(&path) {
            Err(CheckpointError::Io(msg)) => assert!(msg.contains("injected"), "{msg}"),
            other => panic!("{at:?}: expected a typed Io error, got {other:?}"),
        }
        assert_eq!(Checkpoint::load(&path, state(1).fingerprint), Ok(state(1)));
        assert!(
            reported.lock().expect("log").is_empty(),
            "a failed boundary is not reported"
        );

        // Surfaced by the next boundary: a path queued after the failing
        // one has landed once its flush returns, so the failure is recorded.
        durable::inject_fault(&path, at);
        commit(&path, &state(3), None);
        let later = d.join(format!("later-{k}.ckpt"));
        state(1)
            .save(&later)
            .expect("save behind the failing boundary");
        match try_commit(&path, &state(4), None) {
            Err(CheckpointError::Io(msg)) => assert!(msg.contains("injected"), "{msg}"),
            other => panic!("{at:?}: the next boundary must report it, got {other:?}"),
        }
        assert_eq!(Checkpoint::load(&path, state(1).fingerprint), Ok(state(1)));
        // Reported once: the path writes again afterwards.
        state(5).save(&path).expect("save after the failure");
        assert_eq!(Checkpoint::load(&path, state(5).fingerprint), Ok(state(5)));
    }
    assert!(tmp_files(&d).is_empty(), "{:?}", tmp_files(&d));
    let _ = std::fs::remove_dir_all(&d);
}
