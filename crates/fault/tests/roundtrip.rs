//! Round-trip regression tests for the PR-2 serialization surfaces:
//! [`Checkpoint`] encode/decode and save/load must be bit-identical, and
//! [`FaultPlan::seeded`] must be a pure function of `(seed, n_ranks)`.

use ffw_fault::{Checkpoint, CheckpointError, FaultPlan};
use std::path::PathBuf;

/// A checkpoint exercising every field, including float values whose bit
/// patterns break value-level (non-bitwise) round-trips: negative zero and
/// a subnormal.
fn rich_checkpoint() -> Checkpoint {
    Checkpoint {
        fingerprint: 0x5EED_CAFE_0042_1337,
        next_iter: 7,
        lost_txs: vec![0, 3, 12],
        residual_history: vec![1.0, 0.25, 3.0e-2, f64::MIN_POSITIVE / 8.0],
        object: vec![(0.1, -0.2), (-0.0, 0.0), (1.0e-300, -1.0e300)],
        grad_prev: vec![(2.0, 3.0); 3],
        dir: vec![(-1.5, 0.5); 3],
        fields: vec![
            (0, vec![(0.0, 0.0), (9.75, -0.125), (1.0, 2.0)]),
            (
                2,
                vec![(std::f64::consts::PI, -0.0), (0.5, 0.5), (6.0, 7.0)],
            ),
        ],
    }
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ffw-fault-roundtrip");
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir.join(format!("{name}-{}.ckpt", std::process::id()))
}

#[test]
fn checkpoint_encode_decode_is_identity() {
    let ckpt = rich_checkpoint();
    let bytes = ckpt.encode();
    let back = Checkpoint::decode(&bytes).expect("decode own encoding");
    assert_eq!(back, ckpt);
    // Bit-identity, not just value equality: re-encoding the decoded
    // checkpoint must reproduce the byte stream exactly (floats travel as
    // raw bits, so -0.0 and subnormals survive).
    assert_eq!(back.encode(), bytes);
}

#[test]
fn checkpoint_negative_zero_survives_bitwise() {
    let ckpt = rich_checkpoint();
    let back = Checkpoint::decode(&ckpt.encode()).expect("decode");
    // (-0.0, 0.0) at object[1]: sign bit must survive even though
    // -0.0 == 0.0 under PartialEq.
    assert!(back.object[1].0.to_bits() == (-0.0f64).to_bits());
}

#[test]
fn checkpoint_save_load_is_identity() {
    let ckpt = rich_checkpoint();
    let path = tmp_path("save-load");
    ckpt.save(&path).expect("save checkpoint");
    // The on-disk bytes are exactly the encoding (atomic rename, no framing
    // beyond what encode() writes).
    assert_eq!(std::fs::read(&path).expect("read back"), ckpt.encode());
    let back = Checkpoint::load(&path, ckpt.fingerprint).expect("load checkpoint");
    assert_eq!(back, ckpt);
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpoint_save_leaves_no_tempfile() {
    // save() stages into `<path>.tmp.<seq>` then renames and syncs the
    // parent directory; the staging file must never survive a successful
    // save.
    let ckpt = rich_checkpoint();
    let path = tmp_path("no-tempfile");
    let staging = || -> Vec<String> {
        let prefix = format!(
            "{}.tmp.",
            path.file_name().expect("file name").to_string_lossy()
        );
        std::fs::read_dir(path.parent().expect("parent"))
            .expect("list")
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&prefix))
            .collect()
    };
    ckpt.save(&path).expect("save checkpoint");
    assert_eq!(
        staging(),
        Vec::<String>::new(),
        "staging file left behind after save"
    );
    assert!(path.exists(), "checkpoint missing after save");
    // Saving over an existing checkpoint must also leave no staging file.
    ckpt.save(&path).expect("re-save checkpoint");
    assert_eq!(
        staging(),
        Vec::<String>::new(),
        "staging file left behind after re-save"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpoint_load_rejects_wrong_fingerprint() {
    let ckpt = rich_checkpoint();
    let path = tmp_path("wrong-fp");
    ckpt.save(&path).expect("save checkpoint");
    match Checkpoint::load(&path, ckpt.fingerprint ^ 1) {
        Err(CheckpointError::FingerprintMismatch { expected, found }) => {
            assert_eq!(expected, ckpt.fingerprint ^ 1);
            assert_eq!(found, ckpt.fingerprint);
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpoint_decode_rejects_corruption() {
    let bytes = rich_checkpoint().encode();
    // Truncation anywhere must error, never panic or return garbage.
    for cut in [0, 1, 7, 8, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            Checkpoint::decode(&bytes[..cut]).is_err(),
            "decode accepted a {cut}-byte prefix"
        );
    }
    // A flipped payload byte must fail the checksum.
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    assert!(matches!(
        Checkpoint::decode(&flipped),
        Err(CheckpointError::ChecksumMismatch { .. })
    ));
}

#[test]
fn seeded_fault_plans_are_deterministic() {
    // Same (seed, n_ranks) -> identical plan, across repeated derivations.
    // FaultPlan is a plain data schedule, so the Debug form captures every
    // rule; equal Debug forms mean the runtime replays identical faults.
    for n_ranks in [2usize, 4, 7] {
        for seed in 0u64..32 {
            let a = format!("{:?}", FaultPlan::seeded(seed, n_ranks));
            let b = format!("{:?}", FaultPlan::seeded(seed, n_ranks));
            assert_eq!(a, b, "seed {seed} n_ranks {n_ranks} not reproducible");
        }
    }
}

#[test]
fn seeded_fault_plans_cover_every_fault_class() {
    // Seeds cycle crash / recoverable drop / lost drop / straggler; a seed
    // sweep must produce non-empty plans of more than one shape.
    let reprs: Vec<String> = (0..8)
        .map(|seed| format!("{:?}", FaultPlan::seeded(seed, 4)))
        .collect();
    for (seed, r) in reprs.iter().enumerate() {
        assert!(
            !FaultPlan::seeded(seed as u64, 4).is_empty(),
            "seed {seed} produced an empty plan"
        );
        assert!(!r.is_empty());
    }
    let distinct: std::collections::BTreeSet<&String> = reprs.iter().collect();
    assert!(
        distinct.len() >= 4,
        "seed sweep produced only {} distinct plans",
        distinct.len()
    );
}
