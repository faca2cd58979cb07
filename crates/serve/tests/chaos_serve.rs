//! Kill-and-restart chaos test for the service binary: SIGKILL the daemon
//! at a seeded point (after the first progress event of a 3-job mixed
//! queue), restart it, and require every accepted job to complete with
//! outputs bit-identical to an uninterrupted reference run. This is the
//! acceptance test for the crash-safety contract: the fsynced journal plus
//! outer-iteration checkpoints mean a SIGKILL at any byte boundary loses
//! no accepted work.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const THREE_JOBS: [&str; 3] = [
    r#"{"op":"submit","job":{"id":"j1","size":32,"tx":2,"rx":4,"iterations":3}}"#,
    r#"{"op":"submit","job":{"id":"j2","size":32,"tx":2,"rx":4,"iterations":2,"phantom":"annulus"}}"#,
    r#"{"op":"submit","job":{"id":"j3","size":32,"tx":4,"rx":8,"iterations":2,"contrast":0.08}}"#,
];

/// The job the SIGTERM test parks. It must still be computing when the
/// signal lands, a few milliseconds after its first progress event. Three
/// iterations of a 32x32 job can finish inside that window now that a
/// boundary no longer waits for its `fsync`, so this one runs 40.
const LONG_JOB: &str =
    r#"{"op":"submit","job":{"id":"j1","size":32,"tx":2,"rx":4,"iterations":40}}"#;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ffw-serve-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn serve_cmd(dir: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ffw-serve"));
    cmd.args(["--dir", dir.to_str().expect("utf8 path"), "--workers", "1"])
        .args(extra)
        // Pin the pool so the interrupted and reference runs schedule
        // identically (thread-count invariance is separately gated, but the
        // chaos assertion is strict bit-identity).
        .env("FFW_THREADS", "2")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd
}

/// Runs the service in `--once` mode over the given request lines and
/// returns (stdout lines, stderr).
fn run_once(dir: &Path, input: &[&str]) -> (Vec<String>, String) {
    let mut child = serve_cmd(dir, &["--once"])
        .spawn()
        .expect("spawn ffw-serve");
    {
        let mut stdin = child.stdin.take().expect("stdin");
        for line in input {
            writeln!(stdin, "{line}").expect("write request");
        }
        // Dropping stdin closes it: --once exits once all jobs settle.
    }
    let out = child.wait_with_output().expect("wait ffw-serve");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "ffw-serve --once failed: {:?}\nstderr: {stderr}",
        out.status
    );
    let lines = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_owned)
        .collect();
    (lines, stderr)
}

fn outputs(dir: &Path) -> Vec<(String, Vec<u8>)> {
    ["j1", "j2", "j3"]
        .iter()
        .map(|id| {
            let bytes = std::fs::read(dir.join(format!("{id}.out")))
                .unwrap_or_else(|e| panic!("output for {id}: {e}"));
            (id.to_string(), bytes)
        })
        .collect()
}

/// SIGKILLs `child` once its stdout has shown all three accepted events and
/// the first progress event — i.e. all three jobs are durably journaled and
/// the first is mid-solve with at least one checkpointed iteration landing.
fn kill_at_first_progress(child: &mut Child) {
    let stdout = child.stdout.take().expect("stdout");
    let mut accepted = 0;
    let mut saw_progress = false;
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("daemon stdout line");
        if line.contains(r#""ev":"accepted""#) {
            accepted += 1;
        }
        if line.contains(r#""ev":"progress""#) {
            saw_progress = true;
        }
        if accepted == 3 && saw_progress {
            child.kill().expect("SIGKILL the daemon");
            return;
        }
        assert!(
            !line.contains(r#""ev":"rejected""#),
            "no job may be rejected in the chaos queue: {line}"
        );
    }
    panic!("daemon stdout ended before 3 accepts + 1 progress (accepted {accepted})");
}

#[test]
fn sigkill_and_restart_completes_all_jobs_bit_identically() {
    let ref_dir = tmp_dir("ref");
    let chaos_dir = tmp_dir("kill");

    // Reference: the same 3-job queue, uninterrupted.
    let (ref_lines, _) = run_once(&ref_dir, &THREE_JOBS);
    let done = ref_lines
        .iter()
        .filter(|l| l.contains(r#""ev":"done""#))
        .count();
    assert_eq!(
        done, 3,
        "reference run must complete all jobs: {ref_lines:?}"
    );
    let reference = outputs(&ref_dir);

    // Chaos: same queue, SIGKILL at the seeded point.
    let mut child = serve_cmd(&chaos_dir, &[]).spawn().expect("spawn daemon");
    {
        let mut stdin = child.stdin.take().expect("stdin");
        for line in THREE_JOBS {
            writeln!(stdin, "{line}").expect("write request");
        }
        // Keep stdin open implicitly dropped here; the daemon (not --once)
        // keeps serving until killed.
    }
    kill_at_first_progress(&mut child);
    let _ = child.wait();

    // Restart: recovery must re-queue every journaled job and finish them.
    let (_, stderr) = run_once(&chaos_dir, &[]);
    assert!(
        stderr.contains("recovered:"),
        "restart must report what it recovered: {stderr}"
    );
    let recovered = outputs(&chaos_dir);
    for ((id, want), (_, got)) in reference.iter().zip(&recovered) {
        assert_eq!(
            want, got,
            "{id}: output after SIGKILL + restart must be bit-identical to \
             the uninterrupted run"
        );
    }

    // The journal must still replay cleanly (all jobs terminal).
    let (_, stderr) = run_once(&chaos_dir, &[]);
    assert!(
        !stderr.contains("re-queued"),
        "third start must find nothing to re-run: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
}

/// The daemon front end also honours SIGTERM: in-flight work parks with a
/// checkpoint, the process exits with the documented code 5, and a restart
/// finishes the queue.
#[test]
fn sigterm_drains_and_restart_finishes() {
    let dir = tmp_dir("sigterm");
    let mut child = serve_cmd(&dir, &[]).spawn().expect("spawn daemon");
    {
        let mut stdin = child.stdin.take().expect("stdin");
        writeln!(stdin, "{LONG_JOB}").expect("write request");
    }
    // Wait until the job is running (first progress line), then SIGTERM.
    let stdout = child.stdout.take().expect("stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        assert!(
            reader.read_line(&mut line).expect("read daemon stdout") > 0,
            "daemon exited before first progress"
        );
        if line.contains(r#""ev":"progress""#) {
            break;
        }
    }
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let out = child.wait_with_output().expect("wait daemon");
    assert_eq!(
        out.status.code(),
        Some(5),
        "SIGTERM must exit with the documented interrupted code\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        dir.join("job-j1.ckpt").exists(),
        "drained job must leave its checkpoint"
    );

    // Restart finishes the parked job.
    let (_, stderr) = run_once(&dir, &[]);
    assert!(stderr.contains("recovered:"), "{stderr}");
    assert!(
        dir.join("j1.out").exists(),
        "parked job must complete on restart"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A SIGKILL after a job's `done` frame: whatever the crash left next to
/// the journal — the checkpoint the removal never reached, tmp files no
/// writer will rename — is gone once the service restarts.
#[test]
fn sigkill_after_done_leaves_no_checkpoint_after_restart() {
    let dir = tmp_dir("after-done");
    let mut child = serve_cmd(&dir, &[]).spawn().expect("spawn daemon");
    {
        let mut stdin = child.stdin.take().expect("stdin");
        writeln!(stdin, "{}", THREE_JOBS[1]).expect("write request");
    }
    let stdout = child.stdout.take().expect("stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        assert!(
            reader.read_line(&mut line).expect("read daemon stdout") > 0,
            "daemon exited before done"
        );
        if line.contains(r#""ev":"done""#) {
            break;
        }
    }
    child.kill().expect("SIGKILL the daemon");
    let _ = child.wait();
    // The crash came between the journaled done frame and the removal.
    let checkpoint = ffw_fault::Checkpoint {
        next_iter: 1,
        ..Default::default()
    }
    .encode();
    std::fs::write(dir.join("job-j2.ckpt"), &checkpoint).expect("plant checkpoint");
    std::fs::write(dir.join("job-j2.ckpt.tmp.7"), &checkpoint[..16]).expect("plant tmp");

    run_once(&dir, &[]);
    let left: Vec<String> = std::fs::read_dir(&dir)
        .expect("list")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".ckpt"))
        .collect();
    assert!(
        left.is_empty(),
        "terminal job's checkpoint files survived: {left:?}"
    );
    assert!(dir.join("j2.out").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
