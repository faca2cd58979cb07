//! The service round trip: a job submitted to an in-process engine is
//! journaled, run through `ffw_tomo::reconstruct`, reported `done` with the
//! digest of exactly that reconstruction, and survives a restart as history
//! (replayed from the journal, not run again). The forward engine is not
//! part of a job: the legacy `backend` key is accepted only when it names
//! the one engine there is.

use crossbeam_channel::unbounded;
use ffw::dist::FtConfig;
use ffw::fault::fnv1a64;
use ffw::inverse::DbimConfig;
use ffw::tomo::{reconstruct, synthesize_noisy, Reconstruction};
use ffw_serve::{Engine, JobSpec, JobState, Json, ServeConfig};

const JOB: &str = r#"{"id":"smoke","size":32,"tx":2,"rx":4,"iterations":2,"backend":"bicgstab"}"#;

/// Submits `job` and returns every reply line up to and including the first
/// that carries one of `until`.
fn submit(engine: &Engine, job: &str, until: &[&str]) -> Vec<String> {
    let (tx, rx) = unbounded();
    engine.submit(&Json::parse(job).expect("json"), tx);
    let mut lines = Vec::new();
    loop {
        let line = rx.recv().expect("reply line");
        let last = until.iter().any(|ev| line.contains(ev));
        lines.push(line);
        if last {
            return lines;
        }
    }
}

/// The digest the service must report: the same spec through the front door
/// the service itself calls, image bytes hashed the way it hashes them.
fn expected_digest() -> u64 {
    let spec = JobSpec::from_json(&Json::parse(JOB).expect("json")).expect("spec");
    let (scene, schedule) = (spec.scene(), spec.schedule());
    let stages = [Reconstruction::new(&scene)];
    let phantom = spec.build_phantom(stages[0].domain().side());
    let measured = synthesize_noisy(&stages, phantom.as_ref(), spec.noise_db);
    let ft = FtConfig {
        dbim: DbimConfig {
            iterations: spec.iterations,
            regularizer: spec.regularizer,
            ..Default::default()
        },
        ..FtConfig::new(spec.groups, spec.subtree)
    };
    let result =
        reconstruct(&scene, &schedule, &stages, &measured, &ft, None).expect("reconstruct");
    let bytes: Vec<u8> = stages[0]
        .image(&result.object)
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

#[test]
fn a_job_runs_to_done_survives_a_restart_and_cannot_name_a_removed_engine() {
    let dir = std::env::temp_dir().join(format!("ffw-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || ServeConfig {
        workers: 1,
        ..ServeConfig::new(dir.clone())
    };

    let engine = Engine::open(cfg()).expect("open");
    let lines = submit(&engine, JOB, &[r#""ev":"done""#, r#""ev":"failed""#]);
    assert!(lines[0].contains(r#""ev":"accepted""#), "{lines:?}");
    let done = lines.last().expect("terminal line");
    let digest = format!(r#""digest":"{:#018x}""#, expected_digest());
    assert!(
        done.contains(r#""ev":"done""#) && done.contains(&digest),
        "{done} vs {digest}"
    );

    let removed = r#"{"id":"old","size":32,"tx":2,"rx":4,"backend":"born-series"}"#;
    let lines = submit(
        &engine,
        removed,
        &[r#""ev":"rejected""#, r#""ev":"accepted""#],
    );
    assert!(
        lines[0].contains(r#""ev":"rejected""#) && lines[0].contains(r#""reason":"invalid-spec""#),
        "{lines:?}"
    );
    assert_eq!(engine.job_state("old"), None);
    engine.drain(false);
    engine.join();

    // Same directory, new engine: the job is history, not work.
    let engine = Engine::open(cfg()).expect("reopen");
    assert_eq!(engine.recovery.terminal, 1);
    assert!(engine.recovery.requeued.is_empty());
    assert_eq!(engine.recovery.truncated_bytes, 0);
    assert_eq!(engine.job_state("smoke"), Some(JobState::Done));
    engine.drain(false);
    engine.join();
    let _ = std::fs::remove_dir_all(&dir);
}
