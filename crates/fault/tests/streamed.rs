//! The loops' streamed checkpoints: the bytes `LoopState::write_checkpoint`
//! streams are the bytes `Checkpoint::encode` gives for the same state, and
//! a run stopped at a boundary returns only once that boundary is durable.
//! (Rank 0's gather on 1x2 / 2x1 grids is pinned the same way in
//! `ffw-dist`'s unit tests.)

use crossbeam_channel::unbounded;
use ffw_dist::{run_dbim_local, FtConfig, JobControl};
use ffw_fault::{splitmix64, Checkpoint, CheckpointFile, CheckpointWriter};
use ffw_geometry::{Domain, Point2, QuadTree, TransducerArray};
use ffw_inverse::{synthesize_measurements, DbimConfig, ImagingSetup, LoopState, MlfmaG0};
use ffw_mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw_numerics::{c64, C64};
use ffw_par::Pool;
use ffw_phantom::{object_from_contrast, Cylinder, Phantom};
use std::sync::Arc;
use std::time::Duration;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }
    /// Any bit pattern, NaNs and subnormals included.
    fn f64(&mut self) -> f64 {
        f64::from_bits(self.next())
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn c64s(&mut self, n: usize) -> Vec<C64> {
        (0..n).map(|_| c64(self.f64(), self.f64())).collect()
    }
}

fn pack(v: &[C64]) -> Vec<(f64, f64)> {
    v.iter().map(|z| (z.re, z.im)).collect()
}

#[test]
fn the_streamed_loop_state_is_the_encoded_checkpoint() {
    let mut rng = Rng(0x57_12ea);
    for case in 0..60 {
        // Up to a few blocks of state, so sections straddle block edges.
        let n = [0, 1, 7, 300, 4096, 5000][rng.below(6)];
        let n_tx = rng.below(6);
        let txs: Vec<usize> = (0..n_tx).map(|_| rng.below(1000)).collect();
        let st = LoopState {
            next_iter: rng.below(50),
            object: rng.c64s(n),
            grad_prev: rng.c64s(n),
            dir: rng.c64s(n),
            fields: (0..n_tx).map(|_| rng.c64s(n)).collect(),
            residual_history: (0..rng.below(9)).map(|_| rng.f64()).collect(),
        };
        let fingerprint = rng.next();
        for warm_start in [false, true] {
            let want = Checkpoint {
                fingerprint,
                next_iter: st.next_iter as u32,
                lost_txs: Vec::new(),
                residual_history: st.residual_history.clone(),
                object: pack(&st.object),
                grad_prev: pack(&st.grad_prev),
                dir: pack(&st.dir),
                fields: if warm_start {
                    txs.iter()
                        .zip(&st.fields)
                        .map(|(&t, f)| (t as u32, pack(f)))
                        .collect()
                } else {
                    Vec::new()
                },
            }
            .encode();
            let mut w = CheckpointWriter::new(Vec::new());
            st.write_checkpoint(&mut w, fingerprint, &txs, warm_start);
            let got = w.finish().expect("in memory");
            assert!(got == want, "case {case} (n {n}, warm start {warm_start})");

            // The same stream through a file is the same file.
            let path = std::env::temp_dir().join(format!(
                "ffw-streamed-{}-{case}-{warm_start}.ckpt",
                std::process::id()
            ));
            let mut file = CheckpointFile::create(&path).expect("create");
            st.write_checkpoint(&mut file, fingerprint, &txs, warm_start);
            file.commit(None).expect("commit");
            ffw_fault::durable::flush(&path).expect("flush");
            assert!(
                std::fs::read(&path).expect("read") == want,
                "case {case} file"
            );
            std::fs::remove_file(&path).expect("remove");
        }
    }
}

/// A run asked to stop returns at its first boundary only after that
/// boundary's checkpoint has landed — even while the durable writer is busy
/// with another path — and reports the boundary only once it is durable.
#[test]
fn a_stopped_run_returns_with_its_boundary_on_disk() {
    let domain = Domain::new(32, 1.0);
    let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::low()));
    let ring = 2.0 * domain.side();
    let setup = ImagingSetup::new(
        domain.clone(),
        TransducerArray::ring(2, ring),
        TransducerArray::ring(4, ring),
    );
    let truth = Cylinder {
        center: Point2::ZERO,
        radius: 1.4,
        contrast: 0.05,
    };
    let tree = QuadTree::new(&domain);
    let object = object_from_contrast(&domain, &tree, &truth.rasterize(&domain));
    let g0 = MlfmaG0(Arc::new(MlfmaEngine::new(plan, Arc::new(Pool::new(1)))));
    let measured = synthesize_measurements(&setup, &g0, &object, Default::default());

    let dir = std::env::temp_dir().join(format!("ffw-streamed-stop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("run.ckpt");

    // Hold the writer thread inside another path's callback (an empty
    // checkpoint).
    let (entered_tx, entered_rx) = unbounded::<()>();
    let (release_tx, release_rx) = unbounded::<()>();
    let mut hold = CheckpointFile::create(&dir.join("hold.ckpt")).expect("create");
    hold.header(0, 0, std::iter::empty(), &[]);
    hold.zeros(0);
    hold.zeros(0);
    hold.zeros(0);
    hold.u64(0);
    hold.commit(Some(Box::new(move || {
        let _ = entered_tx.send(());
        let _ = release_rx.recv();
    })))
    .expect("commit");
    entered_rx.recv().expect("writer held");

    let (progress_tx, progress_rx) = unbounded();
    let control = JobControl::new().with_progress(progress_tx);
    control.stop();
    let cfg = FtConfig {
        dbim: DbimConfig {
            iterations: 3,
            ..Default::default()
        },
        checkpoint: Some(path.clone()),
        control: Some(control),
        ..FtConfig::new(1, 1)
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "the test watches the run from outside it: a run that returns before its boundary lands is the failure under test"
    )]
    let result = std::thread::scope(|s| {
        let run = s.spawn(|| run_dbim_local(&setup, &g0, &measured, &cfg));
        // The boundary's tmp file appears; the run must still be waiting.
        while !std::fs::read_dir(&dir)
            .expect("list")
            .filter_map(Result::ok)
            .any(|e| e.file_name().to_string_lossy().starts_with("run.ckpt.tmp."))
        {
            assert!(
                !run.is_finished(),
                "the run returned before its boundary was queued"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            !run.is_finished(),
            "a stop must wait for its boundary to land"
        );
        assert!(
            progress_rx.try_recv().is_err(),
            "progress before durability"
        );
        drop(release_tx);
        run.join().expect("run thread")
    })
    .expect("run");
    assert_eq!(result.interrupted, Some(1));
    let landed = std::fs::read(&path).expect("the boundary is on disk");
    assert_eq!(Checkpoint::decode(&landed).expect("decode").next_iter, 1);
    let p = progress_rx.try_recv().expect("the boundary was reported");
    assert_eq!(p.completed, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
