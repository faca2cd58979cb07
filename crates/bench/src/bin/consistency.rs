//! Section V-E consistency check (serial vs 2-D-parallel) and the Section
//! IV-B buffer-aggregation ablation, on the real message-passing runtime.

use ffw_bench::{print_table, write_json};
use ffw_dist::{run_dbim_ft, DistMlfma, FtConfig};
use ffw_geometry::{Domain, Point2, TransducerArray};
use ffw_inverse::{dbim, synthesize_measurements, DbimConfig, ImagingSetup, MlfmaG0};
use ffw_mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw_numerics::vecops::rel_diff;
use ffw_numerics::{c64, C64};
use ffw_par::Pool;
use ffw_phantom::{object_from_contrast, Cylinder, Phantom};
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct Record {
    matvec_diffs: Vec<(usize, f64)>,
    aggregation_messages: u64,
    no_aggregation_messages: u64,
    aggregation_bytes: u64,
    no_aggregation_bytes: u64,
    dbim_image_diff: f64,
}

fn random_x(n: usize, seed: u64) -> Vec<C64> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            c64(a, b)
        })
        .collect()
}

fn main() {
    let domain = Domain::new(64, 1.0);
    let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::default()));
    let n = plan.n_pixels();
    let x = random_x(n, 99);
    let serial = MlfmaEngine::new(Arc::clone(&plan), Arc::new(Pool::new(1)));
    let mut y_ref = vec![C64::ZERO; n];
    serial.apply(&x, &mut y_ref);

    // --- matvec consistency across rank counts ---
    let mut matvec_diffs = Vec::new();
    let mut rows = Vec::new();
    for n_ranks in [2usize, 4, 8, 16] {
        let per = n / n_ranks;
        let plan2 = Arc::clone(&plan);
        let xr = &x;
        let (slices, _) = ffw_mpi::run(n_ranks, move |comm| {
            let members: Vec<usize> = (0..comm.size()).collect();
            let r = comm.rank();
            let eng = DistMlfma::new(&comm, Arc::clone(&plan2), members, true);
            let mut ys = [vec![C64::ZERO; per]];
            eng.try_apply_block(&[&xr[r * per..(r + 1) * per]], &mut ys)
                .expect("fault-free run");
            ys
        });
        let y: Vec<C64> = slices.into_iter().flatten().flatten().collect();
        let d = rel_diff(&y, &y_ref);
        rows.push(vec![n_ranks.to_string(), format!("{d:.2e}")]);
        matvec_diffs.push((n_ranks, d));
    }
    print_table(
        "serial vs distributed MLFMA matvec (paper V-E analogue: CPU-vs-GPU 7.15e-13)",
        &["sub-tree ranks", "relative difference"],
        &rows,
    );

    // --- buffer aggregation ablation (paper Section IV-B) ---
    let mut msg_counts = [0u64; 2];
    let mut byte_counts = [0u64; 2];
    for (i, aggregate) in [true, false].into_iter().enumerate() {
        let per = n / 4;
        let plan2 = Arc::clone(&plan);
        let xr = &x;
        let (_, handle) = ffw_mpi::run(4, move |comm| {
            let members: Vec<usize> = (0..comm.size()).collect();
            let r = comm.rank();
            let eng = DistMlfma::new(&comm, Arc::clone(&plan2), members, aggregate);
            let mut ys = [vec![C64::ZERO; per]];
            eng.try_apply_block(&[&xr[r * per..(r + 1) * per]], &mut ys)
                .expect("fault-free run");
        });
        msg_counts[i] = handle.stats().total_messages();
        byte_counts[i] = handle.stats().total_bytes();
    }
    print_table(
        "buffer aggregation ablation (4 sub-tree ranks, one matvec)",
        &["variant", "messages", "bytes"],
        &[
            vec![
                "aggregated".into(),
                msg_counts[0].to_string(),
                byte_counts[0].to_string(),
            ],
            vec![
                "per-cluster".into(),
                msg_counts[1].to_string(),
                byte_counts[1].to_string(),
            ],
        ],
    );
    println!("aggregation must cut the handshake count with unchanged payload bytes.");

    // --- full 2-D-parallel DBIM vs serial ---
    let ring = 2.0 * domain.side();
    let setup = ImagingSetup::new(
        domain.clone(),
        TransducerArray::ring(4, ring),
        TransducerArray::ring(12, ring),
    );
    let truth = Cylinder {
        center: Point2::ZERO,
        radius: 1.6,
        contrast: 0.05,
    };
    let tree = ffw_geometry::QuadTree::new(&domain);
    let object = object_from_contrast(&domain, &tree, &truth.rasterize(&domain));
    let g0 = MlfmaG0(Arc::new(MlfmaEngine::new(
        Arc::clone(&plan),
        Arc::new(Pool::new(1)),
    )));
    let measured = synthesize_measurements(&setup, &g0, &object, Default::default());
    let cfg = DbimConfig {
        iterations: 3,
        ..Default::default()
    };
    let serial_result = dbim(&setup, &g0, &measured, &cfg).expect("dbim");
    let ft = FtConfig {
        dbim: cfg,
        ..FtConfig::new(2, 2)
    };
    let parallel = run_dbim_ft(&setup, Arc::clone(&plan), &measured, &ft).expect("2x2 dbim");
    let dbim_diff = rel_diff(&parallel.object, &serial_result.object);
    println!(
        "\n2-D-parallel DBIM (2 groups x 2 sub-trees) vs serial image difference: {dbim_diff:.2e}"
    );
    println!("(paper: 7.15e-13 between the CPU and GPU executions)");

    write_json(
        "consistency",
        &Record {
            matvec_diffs,
            aggregation_messages: msg_counts[0],
            no_aggregation_messages: msg_counts[1],
            aggregation_bytes: byte_counts[0],
            no_aggregation_bytes: byte_counts[1],
            dbim_image_diff: dbim_diff,
        },
    )
    .expect("write results");
}
