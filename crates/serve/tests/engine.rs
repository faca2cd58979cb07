//! In-process engine integration tests: typed admission end-to-end, plan
//! deduplication across same-geometry jobs, cancellation, and
//! journal-driven restart recovery with bit-identical outputs.

use crossbeam_channel::{unbounded, Receiver};
use ffw_serve::json::Json;
use ffw_serve::{Engine, JobState, Journal, ServeConfig};
use std::path::PathBuf;
use std::time::Duration;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ffw-serve-engine-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(dir: PathBuf) -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServeConfig::new(dir)
    }
}

fn job(id: &str, extra: &str) -> Json {
    let sep = if extra.is_empty() { "" } else { "," };
    Json::parse(&format!(
        r#"{{"id":"{id}","size":32,"tx":2,"rx":4,"iterations":1{sep}{extra}}}"#
    ))
    .expect("job json")
}

/// Submits and returns the first response line (accepted/rejected). The
/// admission reply is synchronous, so a plain blocking recv is safe.
fn submit(engine: &Engine, j: &Json) -> String {
    let (tx, rx) = unbounded();
    engine.submit(j, tx);
    rx.recv().expect("admission reply")
}

/// Like [`submit`] but keeps the reply channel, for tests that follow the
/// job's progress/terminal events.
fn submit_watched(engine: &Engine, j: &Json) -> (String, Receiver<String>) {
    let (tx, rx) = unbounded();
    engine.submit(j, tx);
    let first = rx.recv().expect("admission reply");
    (first, rx)
}

fn wait_terminal(engine: &Engine, id: &str) -> JobState {
    for _ in 0..6000 {
        match engine.job_state(id) {
            Some(s @ (JobState::Done | JobState::Failed | JobState::Cancelled)) => return s,
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    panic!("job '{id}' never reached a terminal state");
}

fn wait_running(engine: &Engine, id: &str) {
    for _ in 0..6000 {
        if engine.job_state(id) == Some(JobState::Running) {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("job '{id}' never started running");
}

/// Blocks until a line matching `needle` arrives on the reply channel.
fn wait_line(rx: &Receiver<String>, needle: &str) -> String {
    loop {
        let line = rx.recv().expect("event line");
        if line.contains(needle) {
            return line;
        }
    }
}

#[test]
fn admission_rejections_are_typed_end_to_end() {
    let dir = tmp_dir("admission");
    let engine = Engine::open(cfg(dir.clone())).expect("open");

    // Invalid spec.
    let bad = Json::parse(r#"{"id":"bad size","size":33}"#).expect("json");
    let line = submit(&engine, &bad);
    assert!(line.contains(r#""ev":"rejected""#), "{line}");
    assert!(line.contains(r#""reason":"invalid-spec""#), "{line}");

    // Budget-infeasible: a per-job FLOP cap far below the estimate.
    let line = submit(&engine, &job("over-budget", r#""max_flops":1.0"#));
    assert!(line.contains(r#""reason":"budget-infeasible""#), "{line}");

    // A long job occupies the single worker; two more fill the queue; the
    // fourth is shed with the typed queue-full rejection.
    let line = submit(&engine, &job("long", r#""iterations":30"#));
    assert!(line.contains(r#""ev":"accepted""#), "{line}");
    wait_running(&engine, "long");
    assert!(submit(&engine, &job("q1", "")).contains(r#""ev":"accepted""#));
    assert!(submit(&engine, &job("q2", "")).contains(r#""ev":"accepted""#));
    let line = submit(&engine, &job("shed", ""));
    assert!(line.contains(r#""reason":"queue-full""#), "{line}");

    // Duplicate id wins over every other reason.
    let line = submit(&engine, &job("q1", ""));
    assert!(line.contains(r#""reason":"duplicate-id""#), "{line}");

    // Cancel the running job and the queue; drain; a fresh submit is
    // rejected as draining.
    let (tx, rx) = unbounded();
    engine.cancel("long", &tx);
    let line = rx.recv().expect("cancel ack");
    assert!(line.contains(r#""ev":"cancelling""#), "{line}");
    engine.cancel("q1", &tx);
    assert!(rx.recv().expect("ack").contains(r#""ev":"cancelled""#));
    engine.cancel("q2", &tx);
    assert!(rx.recv().expect("ack").contains(r#""ev":"cancelled""#));
    engine.drain(false);
    let line = submit(&engine, &job("late", ""));
    assert!(line.contains(r#""reason":"draining""#), "{line}");
    assert_eq!(wait_terminal(&engine, "long"), JobState::Cancelled);
    engine.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A size whose square overflows `usize` passes validation (`2^32 = 8 *
/// 2^29`). Admission must price it out as `budget-infeasible`, and nothing
/// may reach the journal: an accepted frame would re-queue the unbuildable
/// job on every restart.
#[test]
fn an_overflowing_size_is_rejected_and_never_journaled() {
    let dir = tmp_dir("overflow");
    let engine = Engine::open(cfg(dir.clone())).expect("open");
    let huge = Json::parse(r#"{"id":"huge","size":4294967296,"tx":2,"rx":4,"iterations":1}"#)
        .expect("json");
    let line = submit(&engine, &huge);
    assert!(line.contains(r#""ev":"rejected""#), "{line}");
    assert!(line.contains(r#""reason":"budget-infeasible""#), "{line}");
    assert_eq!(engine.job_state("huge"), None);
    engine.drain(false);
    engine.join();
    drop(engine);
    let (_, recovered) = Journal::open(&dir.join("serve.journal")).expect("journal");
    assert!(recovered.events.is_empty(), "{:?}", recovered.events);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn same_geometry_jobs_share_one_cached_plan() {
    let dir = tmp_dir("cache");
    let engine = Engine::open(cfg(dir.clone())).expect("open");
    // Three jobs: two share a geometry (different phantom/id — those fields
    // are outside the fingerprint), one differs (other size).
    assert!(submit(&engine, &job("a1", "")).contains("accepted"));
    assert!(submit(&engine, &job("a2", r#""phantom":"annulus""#)).contains("accepted"));
    assert!(submit(
        &engine,
        &Json::parse(r#"{"id":"b1","size":64,"tx":2,"rx":4,"iterations":1}"#).expect("json")
    )
    .contains("accepted"));
    assert_eq!(wait_terminal(&engine, "a1"), JobState::Done);
    assert_eq!(wait_terminal(&engine, "a2"), JobState::Done);
    assert_eq!(wait_terminal(&engine, "b1"), JobState::Done);
    assert_eq!(engine.plan_cache_misses(), 2, "two distinct geometries");
    assert!(
        engine.plan_cache_hits() >= 1,
        "the second same-geometry job must hit the cache (hits {})",
        engine.plan_cache_hits()
    );
    // Outputs exist and differ (different phantoms/geometries).
    let a1 = std::fs::read(engine.output_path("a1")).expect("a1 output");
    let a2 = std::fs::read(engine.output_path("a2")).expect("a2 output");
    assert_eq!(a1.len(), a2.len());
    assert_ne!(a1, a2, "different phantoms must reconstruct differently");
    engine.drain(false);
    engine.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_recovers_unfinished_jobs_and_reproduces_outputs_bit_identically() {
    let ref_dir = tmp_dir("restart-ref");
    let chaos_dir = tmp_dir("restart-chaos");
    // Multi-iteration jobs so a drain has an outer-iteration boundary to
    // stop at *before* completion.
    let spec1 = || job("r1", r#""iterations":4"#);
    let spec2 = || job("r2", r#""iterations":4,"phantom":"annulus""#);

    // Reference: both jobs run to completion uninterrupted.
    let reference = Engine::open(cfg(ref_dir.clone())).expect("open ref");
    assert!(submit(&reference, &spec1()).contains("accepted"));
    assert!(submit(&reference, &spec2()).contains("accepted"));
    assert_eq!(wait_terminal(&reference, "r1"), JobState::Done);
    assert_eq!(wait_terminal(&reference, "r2"), JobState::Done);
    reference.drain(false);
    reference.join();
    let ref1 = std::fs::read(reference.output_path("r1")).expect("ref r1");
    let ref2 = std::fs::read(reference.output_path("r2")).expect("ref r2");

    // First service instance: accept both jobs, wait until r1 has finished
    // at least one outer iteration (first progress event), then fast-drain
    // — the SIGTERM path. r1 parks mid-run with a checkpoint; r2 (single
    // worker) never starts. Neither may reach a terminal state.
    {
        let engine = Engine::open(cfg(chaos_dir.clone())).expect("open chaos");
        let (ack, rx) = submit_watched(&engine, &spec1());
        assert!(ack.contains("accepted"));
        assert!(submit(&engine, &spec2()).contains("accepted"));
        wait_line(&rx, r#""ev":"progress""#);
        engine.drain(true);
        engine.join();
        for id in ["r1", "r2"] {
            let s = engine.job_state(id).expect("known job");
            assert!(
                matches!(s, JobState::Queued | JobState::Running),
                "{id} must stay non-terminal across a drain, got {s:?}"
            );
        }
        assert!(
            chaos_dir.join("job-r1.ckpt").exists(),
            "the drained running job must leave its checkpoint"
        );
    }

    // Second instance: recovery re-queues both (acceptance order), resumes
    // r1 from its checkpoint, runs r2 fresh.
    let engine = Engine::open(cfg(chaos_dir.clone())).expect("reopen");
    assert_eq!(
        engine.recovery.requeued,
        vec!["r1".to_string(), "r2".to_string()]
    );
    assert_eq!(wait_terminal(&engine, "r1"), JobState::Done);
    assert_eq!(wait_terminal(&engine, "r2"), JobState::Done);
    engine.drain(false);
    engine.join();

    let got1 = std::fs::read(engine.output_path("r1")).expect("r1 output");
    let got2 = std::fs::read(engine.output_path("r2")).expect("r2 output");
    assert_eq!(
        ref1, got1,
        "r1 must be bit-identical to the uninterrupted run"
    );
    assert_eq!(
        ref2, got2,
        "r2 must be bit-identical to the uninterrupted run"
    );

    // A third open finds only terminal jobs: nothing to re-run.
    let idle = Engine::open(cfg(chaos_dir.clone())).expect("third open");
    assert!(idle.recovery.requeued.is_empty());
    assert_eq!(idle.recovery.terminal, 2);
    idle.drain(false);
    idle.join();
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
}

/// What a service restarted on a build with other solver arithmetic finds
/// next to its journal: an accepted job and a checkpoint whose fingerprint
/// is not the one this build computes for it (the fingerprint folds the
/// solver's fixed tolerances, so a change to one re-keys every checkpoint).
/// The resume is refused typed, the job starts over from iteration 0 and
/// lands on the output of an uninterrupted run.
#[test]
fn a_checkpoint_under_another_fingerprint_is_refused_and_the_job_starts_over() {
    use ffw_fault::{Checkpoint, CheckpointError};
    let ref_dir = tmp_dir("stale-ref");
    let dir = tmp_dir("stale");
    let spec = || job("s1", r#""iterations":4"#);

    let reference = Engine::open(cfg(ref_dir.clone())).expect("open ref");
    assert!(submit(&reference, &spec()).contains("accepted"));
    assert_eq!(wait_terminal(&reference, "s1"), JobState::Done);
    reference.drain(false);
    reference.join();
    let want = std::fs::read(reference.output_path("s1")).expect("ref output");

    // Park the job mid-run with its checkpoint, as a SIGTERM would.
    {
        let engine = Engine::open(cfg(dir.clone())).expect("open");
        let (ack, rx) = submit_watched(&engine, &spec());
        assert!(ack.contains("accepted"));
        wait_line(&rx, r#""ev":"progress""#);
        engine.drain(true);
        engine.join();
    }
    // Re-key the checkpoint, and move its object where no iterate of this
    // job is: resuming it could not reproduce the reference.
    let path = dir.join("job-s1.ckpt");
    let Err(CheckpointError::FingerprintMismatch { found, .. }) = Checkpoint::load(&path, 0) else {
        panic!("the parked job must leave a checkpoint that loads");
    };
    let mut ckpt = Checkpoint::load(&path, found).expect("own fingerprint");
    ckpt.fingerprint ^= 1;
    ckpt.object.iter_mut().for_each(|v| v.0 += 1.0);
    ckpt.save(&path).expect("re-keyed checkpoint");

    let engine = Engine::open(cfg(dir.clone())).expect("reopen");
    assert_eq!(engine.recovery.requeued, vec!["s1".to_string()]);
    assert_eq!(wait_terminal(&engine, "s1"), JobState::Done);
    engine.drain(false);
    engine.join();
    let got = std::fs::read(engine.output_path("s1")).expect("output");
    assert_eq!(got, want, "the job must have run from iteration 0");
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A frequency-hopping job with the hybrid wGCV-LSQR regularizer runs
/// end-to-end through the one execute path: accepted, per-stage progress
/// streamed, done with an output file — and a rerun of the same spec
/// reproduces the output bit-identically. The same job on two illumination
/// groups is admitted and lands on the same image to rounding; admission
/// refuses only the two settings a rank grid cannot reduce.
#[test]
fn hop_regularizer_jobs_run_to_done_on_any_grid() {
    let dir = tmp_dir("hop");
    let engine = Engine::open(cfg(dir.clone())).expect("open");
    let spec = |id: &str| {
        job(
            id,
            r#""iterations":4,"hops":"2.0,1.0","regularizer":"wgcv-lsqr:4:0.8","noise_db":40"#,
        )
    };
    let (ack, rx) = submit_watched(&engine, &spec("h1"));
    assert!(ack.contains("accepted"), "{ack}");
    assert_eq!(wait_terminal(&engine, "h1"), JobState::Done);
    let line = wait_line(&rx, r#""ev":"done""#);
    assert!(line.contains(r#""residual""#), "{line}");
    assert!(submit(&engine, &spec("h2")).contains("accepted"));
    assert_eq!(wait_terminal(&engine, "h2"), JobState::Done);
    let h1 = std::fs::read(engine.output_path("h1")).expect("h1 output");
    let h2 = std::fs::read(engine.output_path("h2")).expect("h2 output");
    assert_eq!(h1, h2, "same hop spec must reconstruct bit-identically");
    assert!(
        !dir.join("job-h1.ckpt").exists(),
        "completed hop jobs must clean up their stage checkpoint"
    );
    // The same job on a 2 x 1 rank grid: admitted, done, same image up to
    // the rounding of the group sums (the raster is f64; compare loosely).
    let on_grid = job(
        "h3",
        r#""iterations":4,"hops":"2.0,1.0","regularizer":"wgcv-lsqr:4:0.8","noise_db":40,"groups":2"#,
    );
    assert!(submit(&engine, &on_grid).contains("accepted"));
    assert_eq!(wait_terminal(&engine, "h3"), JobState::Done);
    let h3 = std::fs::read(engine.output_path("h3")).expect("h3 output");
    let pixels = |bytes: &[u8]| -> Vec<f64> {
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect()
    };
    let (serial, grid) = (pixels(&h1), pixels(&h3));
    assert_eq!(serial.len(), grid.len());
    let scale = serial.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for (a, b) in serial.iter().zip(&grid) {
        assert!((a - b).abs() <= 1e-8 * scale, "{a} vs {b}");
    }
    // The grid pin and the removed forward-engine value are rejected at
    // admission with the reason, not failed mid-run (or run on another
    // solver); their neighbours are admitted.
    for (extra, why) in [
        (
            r#""backend":"born-series""#,
            "the forward-engine choice was removed",
        ),
        (
            r#""regularizer":"smoothness:1e-4","subtree":2"#,
            "smoothness requires subtree = 1",
        ),
    ] {
        let line = submit(&engine, &job("pin", extra));
        assert!(line.contains(r#""reason":"invalid-spec""#), "{line}");
        assert!(line.contains(why), "{line}");
    }
    let line = submit(
        &engine,
        &job("smooth", r#""regularizer":"smoothness:1e-4","groups":2"#),
    );
    assert!(line.contains("accepted"), "{line}");
    assert_eq!(wait_terminal(&engine, "smooth"), JobState::Done);
    engine.drain(false);
    engine.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_exceeded_is_a_typed_failure() {
    let dir = tmp_dir("deadline");
    let engine = Engine::open(cfg(dir.clone())).expect("open");
    let (ack, rx) = submit_watched(
        &engine,
        // the most iterations a spec may ask for: seconds of work whatever
        // the engine's speed (50 stopped taking 200 ms in PR 16)
        &job("slow", r#""iterations":1000,"deadline_ms":200"#),
    );
    assert!(ack.contains("accepted"));
    assert_eq!(wait_terminal(&engine, "slow"), JobState::Failed);
    let line = wait_line(&rx, r#""ev":"failed""#);
    assert!(line.contains(r#""code":"deadline-exceeded""#), "{line}");
    engine.drain(false);
    engine.join();
    let _ = std::fs::remove_dir_all(&dir);
}
