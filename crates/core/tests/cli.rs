//! CLI contract tests for `ffw-reconstruct`: invalid flag combinations must
//! fail *up front* with exit code 2 and a message naming the offending flag,
//! never as a mid-run assertion deep inside the rank grid.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ffw-reconstruct"))
        .args(args)
        .output()
        .expect("spawn ffw-reconstruct")
}

fn assert_cli_error(args: &[&str], needle: &str) {
    let out = run(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?}: expected exit code 2, got {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "{args:?}: stderr does not mention '{needle}': {stderr}"
    );
}

#[test]
fn groups_must_divide_tx() {
    assert_cli_error(&["--tx", "10", "--groups", "3"], "--groups 3 must divide");
}

#[test]
fn groups_zero_is_rejected() {
    assert_cli_error(&["--groups", "0"], "--groups must be at least 1");
}

#[test]
fn subtree_must_divide_sixteen() {
    assert_cli_error(
        &["--tx", "16", "--groups", "2", "--subtree", "5"],
        "--subtree 5 must divide 16",
    );
}

#[test]
fn min_groups_must_not_exceed_groups() {
    assert_cli_error(
        &["--tx", "16", "--groups", "2", "--min-groups", "3"],
        "--min-groups 3 must be between 1 and --groups 2",
    );
}

#[test]
fn chaos_seed_requires_distributed_mode() {
    assert_cli_error(&["--chaos-seed", "7"], "--chaos-seed requires --groups");
}

#[test]
fn unknown_flag_is_a_clean_error() {
    assert_cli_error(&["--frobnicate"], "unknown flag --frobnicate");
}

#[test]
fn batch_zero_is_rejected() {
    assert_cli_error(&["--batch", "0"], "--batch must be at least 1");
}

#[test]
fn batch_must_not_exceed_tx() {
    assert_cli_error(
        &["--tx", "4", "--batch", "5"],
        "--batch 5 must not exceed --tx 4",
    );
}

#[test]
fn help_documents_batch() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--batch"), "help does not document --batch");
}

#[test]
fn help_exits_zero_and_documents_recovery_flags() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for flag in ["--min-groups", "--chaos-seed", "--max-restarts"] {
        assert!(stdout.contains(flag), "help does not document {flag}");
    }
}

#[test]
fn help_documents_every_exit_code() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "exit codes:",
        "3 Krylov breakdown",
        "4 recovery budget exhausted",
        "5 interrupted",
    ] {
        assert!(stdout.contains(needle), "help does not document '{needle}'");
    }
}

/// Seed 0 of the chaos matrix is a crash-class fault plan (`seed % 6 == 0`);
/// with `--max-restarts 0` the driver cannot relaunch, so the run must end
/// with the documented budget-exhausted exit code 4 — not a generic 1 and
/// not a panic.
#[test]
fn exhausted_recovery_budget_exits_with_code_4() {
    let out = Command::new(env!("CARGO_BIN_EXE_ffw-reconstruct"))
        .args([
            "--size",
            "32",
            "--tx",
            "4",
            "--rx",
            "8",
            "--iterations",
            "2",
            "--groups",
            "2",
            "--subtree",
            "2",
            "--chaos-seed",
            "0",
            "--max-restarts",
            "0",
        ])
        .env("FFW_THREADS", "2")
        .env("FFW_DEADLOCK_TIMEOUT_MS", "500")
        .output()
        .expect("spawn ffw-reconstruct");
    assert_eq!(
        out.status.code(),
        Some(4),
        "expected budget-exhausted exit code 4\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("fault-tolerant DBIM failed"),
        "stderr must attribute the failure: {stderr}"
    );
}

#[test]
fn chaos_compute_rejects_distributed_mode() {
    assert_cli_error(
        &["--tx", "16", "--groups", "2", "--chaos-compute", "1"],
        "--chaos-compute is the serial compute-corruption injector",
    );
}

#[test]
fn chaos_compute_requires_verification_on() {
    assert_cli_error(
        &["--chaos-compute", "1", "--verify-compute", "off"],
        "--chaos-compute requires --verify-compute on",
    );
}

#[test]
fn verify_compute_value_must_be_on_or_off() {
    assert_cli_error(
        &["--verify-compute", "maybe"],
        "--verify-compute takes on|off",
    );
}

#[test]
fn help_documents_compute_integrity_flags() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for flag in ["--verify-compute", "--chaos-compute"] {
        assert!(stdout.contains(flag), "help does not document {flag}");
    }
}

/// Seed 1 of the compute chaos matrix (`seed % 4 == 1`) corrupts more
/// consecutive recompute attempts than the budget allows, so the run must
/// abort with the documented exit code 4 — and, critically, must NOT write
/// any `.pgm`: a corrupted reconstruction on disk is exactly the silent
/// failure the integrity layer exists to prevent. The evidence of the
/// failure is written all the same: `--profile` and the `--metrics`
/// document, whose events end with `run.failed` carrying the error.
#[test]
fn unrecoverable_compute_corruption_exits_4_without_writing_images() {
    let dir = std::env::temp_dir().join(format!("ffw-cli-sdc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let prefix = dir.join("corrupted");
    let metrics = dir.join("metrics.json");
    let out = Command::new(env!("CARGO_BIN_EXE_ffw-reconstruct"))
        .args([
            "--size",
            "32",
            "--tx",
            "4",
            "--rx",
            "8",
            "--iterations",
            "2",
        ])
        .args(["--chaos-compute", "1"])
        .args(["--out", prefix.to_str().expect("utf8 path")])
        .args([
            "--metrics",
            metrics.to_str().expect("utf8 path"),
            "--profile",
        ])
        .env("FFW_THREADS", "2")
        .output()
        .expect("spawn ffw-reconstruct");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(4),
        "expected budget-exhausted exit code 4\nstderr: {stderr}"
    );
    assert!(
        stderr.contains("compute corruption"),
        "stderr must name the corruption: {stderr}"
    );
    assert!(
        stderr.contains("MLFMA multiplications per solve"),
        "the failed run must print its profile: {stderr}"
    );
    // No solve finished, so verification's share of the work is undefined.
    assert!(
        stderr.contains("\n  verify   -   ("),
        "a run with no finished solve prints no verify share: {stderr}"
    );
    let doc = std::fs::read_to_string(&metrics).expect("the failed run writes --metrics");
    let doc = ffw_obs::json::Json::parse(&doc).expect("metrics JSON");
    let events = doc.get("events").and_then(|e| e.as_arr()).expect("events");
    let last = events.last().expect("at least the failure event");
    assert_eq!(
        last.get("name").and_then(|n| n.as_str()),
        Some("run.failed")
    );
    let detail = last.get("detail").and_then(|d| d.as_str()).expect("detail");
    assert!(detail.contains("compute corruption"), "{detail}");
    for suffix in ["truth", "reconstruction"] {
        let path = format!("{}_{suffix}.pgm", prefix.display());
        assert!(
            !std::path::Path::new(&path).exists(),
            "aborted run must not leave {path} on disk"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seed 0 of the compute chaos matrix (`seed % 4 == 0`) stays within the
/// recompute budget: the flip is detected, the panel recomputed in place,
/// and the run must finish with exit code 0 and the bit-identical
/// reconstruction of an uninjected run.
#[test]
fn recoverable_compute_corruption_recovers_bit_identically() {
    let dir = std::env::temp_dir().join(format!("ffw-cli-sdc-ok-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let scene = [
        "--size",
        "32",
        "--tx",
        "4",
        "--rx",
        "8",
        "--iterations",
        "2",
    ];
    let clean = dir.join("clean");
    let out = Command::new(env!("CARGO_BIN_EXE_ffw-reconstruct"))
        .args(scene)
        .args(["--out", clean.to_str().expect("utf8 path")])
        .env("FFW_THREADS", "2")
        .output()
        .expect("clean run");
    assert_eq!(
        out.status.code(),
        Some(0),
        "clean run failed\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let injected = dir.join("injected");
    let out = Command::new(env!("CARGO_BIN_EXE_ffw-reconstruct"))
        .args(scene)
        .args(["--chaos-compute", "0"])
        .args(["--out", injected.to_str().expect("utf8 path")])
        .env("FFW_THREADS", "2")
        .output()
        .expect("injected run");
    assert_eq!(
        out.status.code(),
        Some(0),
        "recoverable injection must not abort\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let a = std::fs::read(format!("{}_reconstruction.pgm", clean.display())).expect("clean image");
    let b = std::fs::read(format!("{}_reconstruction.pgm", injected.display()))
        .expect("injected image");
    assert_eq!(
        a, b,
        "recovered reconstruction must be bit-identical to the clean run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hops_must_be_strictly_descending() {
    assert_cli_error(&["--hops", "1.0,2.0"], "strictly descending");
}

#[test]
fn hops_must_end_at_the_scene_frequency() {
    assert_cli_error(&["--hops", "2.0,1.5"], "must end at factor 1.0");
}

#[test]
fn hops_reject_non_numeric_factors() {
    assert_cli_error(&["--hops", "2.0,banana,1.0"], "'banana' is not a number");
}

#[test]
fn hops_reject_out_of_range_factors() {
    assert_cli_error(&["--hops", "64,1.0"], "out of range");
}

#[test]
fn hops_reject_born_mode() {
    assert_cli_error(
        &["--hops", "2.0,1.0", "--born"],
        "--hops cannot be combined with --born",
    );
}

#[test]
fn hops_need_one_iteration_per_stage() {
    assert_cli_error(
        &["--hops", "3.0,2.0,1.0", "--iterations", "2"],
        "--iterations 2 is less than the 3 hop stages",
    );
}

#[test]
fn regularizer_rejects_unknown_family() {
    assert_cli_error(&["--regularizer", "banana"], "banana");
}

#[test]
fn regularizer_rejects_bad_wgcv_parameters() {
    assert_cli_error(&["--regularizer", "wgcv-lsqr:0"], "--regularizer");
    assert_cli_error(&["--regularizer", "wgcv-lsqr:4:9"], "--regularizer");
    assert_cli_error(&["--regularizer", "tikhonov:-1"], "--regularizer");
}

#[test]
fn regularizer_rejects_born_mode() {
    assert_cli_error(
        &["--regularizer", "tikhonov:1e-3", "--born"],
        "--regularizer has no effect on --born",
    );
}

/// Removed settings are usage errors. The forward engine and the leaf-block
/// Jacobi preconditioner are not flags: `--backend`, whatever its value, and
/// `--precondition` are unknown. The smoothness prior is not a family: the
/// message names the two that remain.
#[test]
fn removed_solver_and_regularizer_settings_are_usage_errors() {
    for value in ["born-series", "bicgstab"] {
        assert_cli_error(&["--backend", value], "unknown flag --backend");
    }
    assert_cli_error(&["--precondition"], "unknown flag --precondition");
    for spec in ["smoothness", "smoothness:1e-4"] {
        assert_cli_error(
            &["--regularizer", spec],
            "--regularizer: unknown regularizer 'smoothness' (one of tikhonov[:LAMBDA], \
             wgcv-lsqr[:STEPS[:OMEGA]])",
        );
    }
}

/// One pinned 32x32 scene, run to a `.pgm` with extra flags. The scene is
/// hard enough (Shepp-Logan at contrast 0.4, four iterations) that the
/// positivity projection moves quantized pixels.
fn image_of(dir: &std::path::Path, name: &str, extra: &[&str]) -> Vec<u8> {
    let prefix = dir.join(name);
    let out = Command::new(env!("CARGO_BIN_EXE_ffw-reconstruct"))
        .args([
            "--size",
            "32",
            "--tx",
            "4",
            "--rx",
            "8",
            "--iterations",
            "4",
            "--phantom",
            "shepp-logan",
            "--contrast",
            "0.4",
        ])
        .args(extra)
        .args(["--out", prefix.to_str().expect("utf8 path")])
        .env("FFW_THREADS", "2")
        .output()
        .expect("spawn ffw-reconstruct");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{extra:?} failed\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read(format!("{}_reconstruction.pgm", prefix.display())).expect("image")
}

/// `--positivity` used to be accepted with `--groups` and silently dropped:
/// the distributed loop never read it. On a rank grid it must now write the
/// image of its serial run — and a different one from the run without the
/// flag.
#[test]
fn positivity_is_honoured_on_a_rank_grid() {
    let dir = std::env::temp_dir().join(format!("ffw-cli-grid-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let plain = image_of(&dir, "plain", &[]);
    let serial = image_of(&dir, "serial-positivity", &["--positivity"]);
    let on_grid = image_of(
        &dir,
        "grid-positivity",
        &["--positivity", "--groups", "2", "--subtree", "1"],
    );
    assert!(
        on_grid == serial,
        "--positivity on 2x1 differs from its serial run"
    );
    assert!(serial != plain, "--positivity must change the image at all");
    // Admitted where it used to be refused: a hop schedule on two
    // illumination groups.
    image_of(
        &dir,
        "hop-2x1",
        &["--hops", "2.0,1.0", "--groups", "2", "--subtree", "1"],
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_requires_a_checkpoint_path() {
    assert_cli_error(
        &["--hops", "2.0,1.0", "--resume"],
        "--resume requires --checkpoint",
    );
}

#[test]
fn help_documents_hops_and_regularizer() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["--hops", "--regularizer", "tikhonov", "wgcv-lsqr"] {
        assert!(stdout.contains(needle), "help does not document {needle}");
    }
    for removed in ["--precondition", "smoothness"] {
        assert!(!stdout.contains(removed), "help still documents {removed}");
    }
}

/// The pinned 32x32 hop run: same flags twice must produce byte-identical
/// `.pgm` images (the hop driver, the wGCV lambda search, and the per-stage
/// seeded noise are all deterministic), and a `--resume` against the
/// completed checkpoint must reproduce the image without rerunning stages.
#[test]
fn hop_run_is_byte_identical_across_reruns_and_resume() {
    let dir = std::env::temp_dir().join(format!("ffw-cli-hop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let ckpt = dir.join("hop.ckpt");
    let scene = [
        "--size",
        "32",
        "--tx",
        "4",
        "--rx",
        "8",
        "--iterations",
        "4",
        "--hops",
        "2.0,1.0",
        "--regularizer",
        "wgcv-lsqr:4",
        "--noise-db",
        "40",
    ];
    let mut images = Vec::new();
    for name in ["a", "b"] {
        let prefix = dir.join(name);
        let out = Command::new(env!("CARGO_BIN_EXE_ffw-reconstruct"))
            .args(scene)
            .args(["--out", prefix.to_str().expect("utf8 path")])
            .args(if name == "a" {
                vec!["--checkpoint", ckpt.to_str().expect("utf8 path")]
            } else {
                vec![]
            })
            .env("FFW_THREADS", "2")
            .output()
            .expect("hop run");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "hop run failed\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains("hop DBIM (2 stages"),
            "stdout must report the hop stages: {stdout}"
        );
        assert!(
            stdout.contains("lambda"),
            "stdout must report the wGCV-chosen lambda: {stdout}"
        );
        images.push(
            std::fs::read(format!("{}_reconstruction.pgm", prefix.display()))
                .expect("reconstruction image"),
        );
    }
    assert_eq!(images[0], images[1], "hop reruns must be byte-identical");
    assert!(ckpt.exists(), "hop run must leave its checkpoint");

    // Resume against the completed checkpoint: all stages skip, image
    // byte-identical.
    let prefix = dir.join("resumed");
    let out = Command::new(env!("CARGO_BIN_EXE_ffw-reconstruct"))
        .args(scene)
        .args([
            "--checkpoint",
            ckpt.to_str().expect("utf8 path"),
            "--resume",
        ])
        .args(["--out", prefix.to_str().expect("utf8 path")])
        .env("FFW_THREADS", "2")
        .output()
        .expect("resumed hop run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "resumed hop run failed\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("2 resumed"),
        "resume must skip the completed stages: {stdout}"
    );
    let resumed =
        std::fs::read(format!("{}_reconstruction.pgm", prefix.display())).expect("resumed image");
    assert_eq!(
        images[0], resumed,
        "resumed image must be byte-identical to the original run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGTERM mid-run must flush the in-flight checkpoint, exit with the
/// documented code 5 (writing `--metrics` on the way out), and leave a
/// state from which `--resume` finishes and produces the bit-identical
/// image of an uninterrupted run.
#[test]
fn sigterm_flushes_checkpoint_and_resume_is_bit_identical() {
    use std::time::Duration;
    let dir = std::env::temp_dir().join(format!("ffw-cli-sigterm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let ckpt = dir.join("run.ckpt");
    let metrics = dir.join("interrupted.json");
    let scene_args = [
        "--size",
        "32",
        "--tx",
        "4",
        "--rx",
        "8",
        "--iterations",
        "6",
        "--groups",
        "2",
        "--subtree",
        "2",
    ];

    // Reference: the same scene run to completion without interruption.
    let ref_out = dir.join("reference");
    let out = Command::new(env!("CARGO_BIN_EXE_ffw-reconstruct"))
        .args(scene_args)
        .args(["--out", ref_out.to_str().expect("utf8 path")])
        .env("FFW_THREADS", "2")
        .output()
        .expect("reference run");
    assert_eq!(out.status.code(), Some(0), "reference run failed");

    // Interrupted run: SIGTERM as soon as the first checkpoint lands.
    let mut child = Command::new(env!("CARGO_BIN_EXE_ffw-reconstruct"))
        .args(scene_args)
        .args(["--checkpoint", ckpt.to_str().expect("utf8 path")])
        .args(["--metrics", metrics.to_str().expect("utf8 path")])
        .env("FFW_THREADS", "2")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn interruptible run");
    let waited = ffw_obs::Stopwatch::start();
    while !ckpt.exists() {
        assert!(
            waited.elapsed() < Duration::from_secs(120),
            "no checkpoint appeared"
        );
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("run finished (status {status:?}) before any checkpoint");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success(), "kill -TERM failed");
    let out = child.wait_with_output().expect("wait for interrupted run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(5),
        "expected interrupted exit code 5\nstderr: {stderr}"
    );
    assert!(
        stderr.contains("checkpoint") && stderr.contains("--resume"),
        "stderr must say the checkpoint was flushed and how to resume: {stderr}"
    );
    assert!(ckpt.exists(), "interrupted run must leave its checkpoint");
    assert!(metrics.exists(), "interrupted run must write --metrics");

    // Resume must finish cleanly and reproduce the reference bit-for-bit.
    let res_out = dir.join("resumed");
    let out = Command::new(env!("CARGO_BIN_EXE_ffw-reconstruct"))
        .args(scene_args)
        .args([
            "--checkpoint",
            ckpt.to_str().expect("utf8 path"),
            "--resume",
        ])
        .args(["--out", res_out.to_str().expect("utf8 path")])
        .env("FFW_THREADS", "2")
        .output()
        .expect("resume run");
    assert_eq!(
        out.status.code(),
        Some(0),
        "resume failed\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let reference = std::fs::read(format!("{}_reconstruction.pgm", ref_out.display()))
        .expect("reference image");
    let resumed =
        std::fs::read(format!("{}_reconstruction.pgm", res_out.display())).expect("resumed image");
    assert_eq!(
        reference, resumed,
        "resumed reconstruction must be bit-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--resume` from a checkpoint of format version 1 stops before any work
/// with a message naming the file's version and the one this build reads.
#[test]
fn resume_from_a_version_1_checkpoint_names_both_versions() {
    let dir = std::env::temp_dir().join(format!("ffw-cli-v1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let ckpt = dir.join("old.ckpt");
    let mut bytes = b"FFWCKPT1".to_vec();
    bytes.extend_from_slice(&[0u8; 64]);
    std::fs::write(&ckpt, &bytes).expect("write v1 checkpoint");
    let out = run(&[
        "--size",
        "32",
        "--tx",
        "4",
        "--rx",
        "8",
        "--iterations",
        "2",
        "--checkpoint",
        ckpt.to_str().expect("utf8 path"),
        "--resume",
        "--out",
        dir.join("v1").to_str().expect("utf8 path"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("v1 (FFWCKPT1)") && stderr.contains("v2 (FFWCKPT2)"),
        "{stderr}"
    );
    assert!(!dir.join("v1_reconstruction.pgm").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
