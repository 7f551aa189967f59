//! Criterion benchmarks of the CPU tensor kernels — the real wall-clock cost
//! of the from-scratch compute stack (GEMM, conv2d, pooling, SPP).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dcd_tensor::{adaptive_max_pool2d, conv2d, gemm, max_pool2d, SeededRng, Tensor};

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    for &n in &[64usize, 128, 256] {
        let mut rng = SeededRng::new(1);
        let a: Vec<f32> = (0..n * n).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..n * n).map(|_| rng.normal()).collect();
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, &n| {
            bench.iter(|| gemm(&a, &b, n, n, n));
        });
    }
    group.finish();
}

fn bench_conv2d(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d");
    let mut rng = SeededRng::new(2);
    // The paper's conv2: 64→128 channels, 3×3, on the post-pool1 50×50 map.
    let x = Tensor::randn([1, 64, 50, 50], 0.0, 1.0, &mut rng);
    let w = Tensor::randn([128, 64, 3, 3], 0.0, 0.1, &mut rng);
    let b = Tensor::zeros([128]);
    group.bench_function("conv2_64to128_50x50", |bench| {
        bench.iter(|| conv2d(&x, &w, &b, 1, 1));
    });
    // First conv on the raw 4-band 100×100 patch.
    let x1 = Tensor::randn([1, 4, 100, 100], 0.0, 1.0, &mut rng);
    let w1 = Tensor::randn([64, 4, 3, 3], 0.0, 0.1, &mut rng);
    let b1 = Tensor::zeros([64]);
    group.bench_function("conv1_4to64_100x100", |bench| {
        bench.iter(|| conv2d(&x1, &w1, &b1, 1, 1));
    });
    group.finish();
}

fn bench_pooling(c: &mut Criterion) {
    let mut group = c.benchmark_group("pooling");
    let mut rng = SeededRng::new(3);
    let x = Tensor::randn([1, 256, 12, 12], 0.0, 1.0, &mut rng);
    group.bench_function("maxpool2x2_256x12x12", |bench| {
        let big = Tensor::randn([1, 64, 100, 100], 0.0, 1.0, &mut rng);
        bench.iter(|| max_pool2d(&big, 2, 2));
    });
    // The SPP pyramid of the paper's final model: 5×5, 2×2, 1×1.
    group.bench_function("spp_pyramid_5_2_1", |bench| {
        bench.iter(|| {
            let a = adaptive_max_pool2d(&x, 5);
            let b = adaptive_max_pool2d(&x, 2);
            let c = adaptive_max_pool2d(&x, 1);
            (a, b, c)
        });
    });
    group.finish();
}

/// The same hot kernels with the thread pool engaged vs forced inline —
/// the before/after of replacing the sequential rayon shim with a real
/// pool (`cargo run -p dcd-bench --bin parallel` records the same
/// comparison to `BENCH_parallel.json`).
fn bench_parallel_vs_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_vs_sequential");
    let mut rng = SeededRng::new(4);
    let n = 256;
    let a: Vec<f32> = (0..n * n).map(|_| rng.normal()).collect();
    let b: Vec<f32> = (0..n * n).map(|_| rng.normal()).collect();
    group.bench_function("gemm_256_parallel", |bench| {
        bench.iter(|| gemm(&a, &b, n, n, n));
    });
    group.bench_function("gemm_256_sequential", |bench| {
        bench.iter(|| rayon::force_sequential(|| gemm(&a, &b, n, n, n)));
    });
    let x = Tensor::randn([8, 64, 50, 50], 0.0, 1.0, &mut rng);
    let w = Tensor::randn([128, 64, 3, 3], 0.0, 0.1, &mut rng);
    let bias = Tensor::zeros([128]);
    group.bench_function("conv2_b8_parallel", |bench| {
        bench.iter(|| conv2d(&x, &w, &bias, 1, 1));
    });
    group.bench_function("conv2_b8_sequential", |bench| {
        bench.iter(|| rayon::force_sequential(|| conv2d(&x, &w, &bias, 1, 1)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_conv2d,
    bench_pooling,
    bench_parallel_vs_sequential
);
criterion_main!(benches);
