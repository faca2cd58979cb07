//! Per-column milliseconds of the stages of one `G0` apply, each timed alone
//! on one thread: `stage_times <n_px> <width>`.
//!
//! The ladder's four stage spans (`benchmark/`) cannot separate the dense
//! leaf operators from the band and FFT work they share a span with; this
//! does, by running the traversal's own stages over one level at a time
//! (`FarField`'s per-level cluster ranges) and the leaf loops of
//! `MlfmaEngine::receive_and_near` one kernel at a time. The near accumulate
//! is timed twice, with every leaf's neighbours and with none (the transform
//! back alone): the difference is its spectrum products. Minimum and median
//! of the repetitions that fit in about half a second per stage: the minimum
//! is what the code can do, the median what this host's slow phases and the
//! heap's placement of the planes left of it. The three near stages also
//! print their throughput at the minimum, from the flop counts of
//! `ffw_mlfma::near` (`FORWARD_FLOPS` per leaf, `PAIR_FLOPS` per source,
//! `INVERSE_FLOPS` per leaf).

use ffw_geometry::{Domain, LEAF_PIXELS};
use ffw_mlfma::near::{self, SPECTRUM_LEN};
use ffw_mlfma::{Accuracy, FarField, MlfmaPlan};
use ffw_numerics::{c64, C64};
use ffw_obs::Stopwatch;
use ffw_par::Pool;
use std::hint::black_box;
use std::sync::Arc;

fn random_x(n: usize, seed: u64) -> Vec<C64> {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    (0..n).map(|_| c64(next(), next())).collect()
}

/// `(minimum, median)` seconds of one call of `f`.
fn min_median_secs(mut f: impl FnMut()) -> (f64, f64) {
    f(); // first touch of the buffers
    let mut times = Vec::new();
    let started = Stopwatch::start();
    while times.len() < 5 || (started.elapsed_secs() < 0.5 && times.len() < 200) {
        let t = Stopwatch::start();
        f();
        times.push(t.elapsed_secs());
    }
    times.sort_by(f64::total_cmp);
    (times[0], times[times.len() / 2])
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut arg = |name: &str| -> usize {
        let value = args.next().and_then(|v| v.parse().ok());
        value.unwrap_or_else(|| {
            eprintln!("usage: stage_times <n_px> <width>   (missing or malformed {name})");
            std::process::exit(2);
        })
    };
    let (n_px, width) = (arg("n_px"), arg("width"));
    if width == 0 {
        eprintln!("usage: stage_times <n_px> <width>   (width must be at least 1)");
        std::process::exit(2);
    }

    let plan = Arc::new(MlfmaPlan::new(&Domain::new(n_px, 1.0), Accuracy::default()));
    let pool = Pool::new(1);
    let n = plan.n_pixels();
    let n_leaves = plan.tree.n_leaves();
    let xs: Vec<Vec<C64>> = (0..width).map(|b| random_x(n, 7 + b as u64)).collect();
    let xs: Vec<&[C64]> = xs.iter().map(Vec::as_slice).collect();

    let full = FarField::full_ranges(&plan);
    let leaf_li = full.len() - 1;
    let mut leaf_only = vec![0..0; full.len()];
    leaf_only[leaf_li] = full[leaf_li].clone();
    let mut above_leaves = full.clone();
    above_leaves[leaf_li] = 0..0;

    let mut far = FarField::new(Arc::clone(&plan));
    far.begin(&full, &xs, 0, true);
    let radiate = min_median_secs(|| far.aggregate(&pool, &leaf_only, &xs, 0));
    let interp_shift = min_median_secs(|| far.aggregate(&pool, &above_leaves, &xs, 0));
    let translate = min_median_secs(|| far.translate(&pool, &full));
    // adds onto the translated patterns again each repetition: the values grow
    // polynomially, the work does not change
    let disaggregate = min_median_secs(|| far.disaggregate(&pool, &full));

    let mut y = vec![C64::ZERO; n];
    let receive = min_median_secs(|| {
        for col in 0..width {
            for (c, out) in y.chunks_exact_mut(LEAF_PIXELS).enumerate() {
                far.receive(c, col, out);
            }
        }
        black_box(&mut y);
    });

    let near_field = &plan.near_field;
    let mut spectra = vec![0.0; n_leaves * SPECTRUM_LEN];
    let near_forward = min_median_secs(|| {
        for x in &xs {
            let leaves = x.chunks_exact(LEAF_PIXELS);
            for (leaf, spectrum) in leaves.zip(spectra.chunks_exact_mut(SPECTRUM_LEN)) {
                near_field.forward(leaf, spectrum);
            }
        }
        black_box(&mut spectra);
    });
    let mut near_accumulate = |with_sources: bool| {
        min_median_secs(|| {
            for _ in 0..width {
                let spectrum_of = |s: usize| &spectra[s * SPECTRUM_LEN..(s + 1) * SPECTRUM_LEN];
                for (c, out) in y.chunks_exact_mut(LEAF_PIXELS).enumerate() {
                    let pairs = if with_sources {
                        plan.near_pairs_of(c)
                    } else {
                        &[]
                    };
                    near_field.accumulate(pairs, spectrum_of, out);
                }
            }
            black_box(&mut y);
        })
    };
    let (accumulate, back) = (near_accumulate(true), near_accumulate(false));
    let products = (accumulate.0 - back.0, accumulate.1 - back.1);
    // flops of one repetition of each near stage, for the rate at the minimum
    let (leaves, sources) = (
        (n_leaves * width) as u64,
        (plan.near_pairs.len() * width) as u64,
    );
    let stages = [
        ("radiate", radiate, None),
        ("interp+shift", interp_shift, None),
        ("translate", translate, None),
        ("disaggregate", disaggregate, None),
        ("receive", receive, None),
        (
            "near forward",
            near_forward,
            Some(near::FORWARD_FLOPS * leaves),
        ),
        ("near products", products, Some(near::PAIR_FLOPS * sources)),
        ("near back", back, Some(near::INVERSE_FLOPS * leaves)),
    ];

    println!(
        "{n_px} x {n_px}, width {width}, leaf q = {}: ms per column",
        plan.leaf_plan().q
    );
    println!("  {:<16}{:>9}{:>9}{:>9}", "", "min", "median", "GFLOP/s");
    let per_column = 1e3 / width as f64;
    let mut total = (0.0, 0.0);
    for (name, (min, median), flops) in &stages {
        total = (total.0 + min, total.1 + median);
        let rate = flops.map_or(String::new(), |f| format!("{:.1}", f as f64 / min / 1e9));
        println!(
            "  {name:<16}{:>9.3}{:>9.3}{rate:>9}",
            min * per_column,
            median * per_column
        );
    }
    println!(
        "  {:<16}{:>9.3}{:>9.3}",
        "sum",
        total.0 * per_column,
        total.1 * per_column
    );
    println!(
        "  near products per source: {:.0} ns (min), {} sources",
        products.0 / width as f64 / plan.near_pairs.len() as f64 * 1e9,
        plan.near_pairs.len()
    );
}
