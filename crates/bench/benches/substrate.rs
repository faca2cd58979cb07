//! Criterion micro-benchmarks for the substrates: special functions, FFT,
//! thread pool and message-passing runtime.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ffw_dist::try_allreduce_scalars;
use ffw_mpi::Payload;
use ffw_numerics::bessel::hankel1_array;
use ffw_numerics::fft::Fft;
use ffw_numerics::{c64, C64};
use ffw_par::Pool;

fn bench_bessel(c: &mut Criterion) {
    c.bench_function("hankel1_array_L100_x150", |b| {
        b.iter(|| hankel1_array(100, 150.0));
    });
}

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for n in [256usize, 257, 1024] {
        let plan = Fft::new(n);
        let mut data: Vec<C64> = (0..n).map(|i| c64(i as f64, -(i as f64))).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| plan.forward(&mut data));
        });
    }
    group.finish();
}

fn bench_pool(c: &mut Criterion) {
    let pool = Pool::new(2);
    let data: Vec<f64> = (0..100_000).map(|i| i as f64).collect();
    c.bench_function("pool_map_reduce_100k", |b| {
        b.iter(|| {
            pool.map_reduce(
                data.len(),
                1024,
                |range| range.map(|i| data[i]).sum::<f64>(),
                0.0,
                |a, bb| a + bb,
            )
        });
    });
}

fn bench_mpi_allreduce(c: &mut Criterion) {
    c.bench_function("mpi_allreduce_4ranks_4k", |b| {
        b.iter(|| {
            let (r, _) = ffw_mpi::run(4, |comm| {
                let mut v = vec![c64(comm.rank() as f64, 1.0); 4096];
                try_allreduce_scalars(&comm, &[0, 1, 2, 3], &mut v).expect("allreduce");
                v[0].re
            });
            r
        });
    });
    c.bench_function("mpi_pingpong_16k", |b| {
        b.iter(|| {
            let (r, _) = ffw_mpi::run(2, |comm| {
                if comm.rank() == 0 {
                    let ping = Payload::C64(vec![(1.0, 2.0); 16384]);
                    comm.send_checked(1, 0, ping).expect("send");
                    comm.recv_checked(1, 1).expect("recv").n_bytes()
                } else {
                    let p = comm.recv_checked(0, 0).expect("recv");
                    comm.send_checked(0, 1, p).expect("send");
                    0
                }
            });
            r
        });
    });
}

criterion_group!(
    benches,
    bench_bessel,
    bench_fft,
    bench_pool,
    bench_mpi_allreduce
);
criterion_main!(benches);
