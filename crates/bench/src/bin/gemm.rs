//! Packed-vs-legacy GEMM microbenchmark at the SPP-Net layer shapes.
//!
//! Compares the packed register-blocked kernel against the retained legacy
//! axpy kernel (`gemm_legacy`) on the square 256³ problem and on the GEMMs
//! behind conv1, conv2, conv3 and fc1 of the paper's architecture —
//! conv1/conv2 at batch 1, 8 and 32, conv3 at 1 and 32, fc1 both for the
//! original 5376→1024 config and for candidate 2's 7680→4096 layer (126 MB
//! of weights), at the scan's batch of 32, its ragged last chunk of 9 and
//! batch-1 queries.
//!
//! Convolution rows time the whole `conv2d_relu` call on a 3×3, pad-1
//! layer, so the packed columns include packing the weights and packing
//! each slab of im2col columns straight from the input image. Their
//! `legacy_ms` times `gemm_legacy` alone on pre-built im2col columns, so
//! conv speedups understate the gain.
//!
//! `legacy_ms`, `packed_ms` and `speedup` are taken under
//! `rayon::force_sequential`, so the speedups are single-thread kernel
//! improvements, not parallelism. `packed_pool_ms` times the same packed
//! call on the full pool (`threads` workers) for cross-referencing with
//! `BENCH_parallel.json`.
//!
//! Usage: `cargo run --release -p dcd-bench --bin gemm`
//! (writes `BENCH_gemm.json`)

use dcd_tensor::{conv2d_relu, gemm_into, gemm_legacy, SeededRng, Tensor};
use serde::Serialize;
use std::time::Instant;

/// One shape's timings, milliseconds (best of `REPS` runs).
#[derive(Debug, Serialize)]
struct KernelTiming {
    name: String,
    m: usize,
    k: usize,
    n: usize,
    batch: usize,
    legacy_ms: f64,
    packed_ms: f64,
    speedup: f64,
    packed_pool_ms: f64,
}

/// The recorded artifact.
#[derive(Debug, Serialize)]
struct Report {
    /// Actual worker count of the (warmed) pool. Only `packed_pool_ms` uses
    /// it; every other timing executes under `force_sequential`.
    threads: usize,
    mode: &'static str,
    kernels: Vec<KernelTiming>,
}

const REPS: usize = 5;

/// Best-of-REPS wall-clock of `f` on the pool, milliseconds.
fn best_pool_ms(mut f: impl FnMut()) -> f64 {
    f(); // warm-up (also warms the scratch pools)
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Best-of-REPS single-thread wall-clock of `f`, milliseconds.
fn best_ms(f: impl FnMut()) -> f64 {
    rayon::force_sequential(|| best_pool_ms(f))
}

/// Prints and packages one shape's timings.
fn report(
    name: &str,
    (m, k, n, batch): (usize, usize, usize, usize),
    legacy_ms: f64,
    packed_ms: f64,
    packed_pool_ms: f64,
) -> KernelTiming {
    println!(
        "{name:18} m={m:5} k={k:5} n={n:6} b={batch:2}   legacy {legacy_ms:9.2} ms   packed {packed_ms:9.2} ms   speedup {:.2}x   pool {packed_pool_ms:9.2} ms",
        legacy_ms / packed_ms
    );
    KernelTiming {
        name: name.to_string(),
        m,
        k,
        n,
        batch,
        legacy_ms,
        packed_ms,
        speedup: legacy_ms / packed_ms,
        packed_pool_ms,
    }
}

/// Times one `m×k·k×n` product through the public entry point (which
/// routes skinny products to the thin axpy path), packed vs legacy.
fn time_gemm(name: &str, m: usize, k: usize, n: usize) -> KernelTiming {
    let mut rng = SeededRng::new(0xD00D ^ (m * 31 + k * 7 + n) as u64);
    let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
    let mut c = vec![0.0f32; m * n];
    let mut packed = || {
        gemm_into(&a, &b, &mut c, m, k, n);
        std::hint::black_box(&mut c);
    };
    let packed_ms = best_ms(&mut packed);
    let packed_pool_ms = best_pool_ms(&mut packed);
    let legacy_ms = best_ms(|| {
        std::hint::black_box(gemm_legacy(&a, &b, m, k, n));
    });
    report(name, (m, k, n, 1), legacy_ms, packed_ms, packed_pool_ms)
}

/// Times a 3×3, pad-1 `conv2d_relu` layer of `c_out` filters over a batch
/// of `c_in`-channel `hw×hw` inputs (GEMM `c_out × 9·c_in × hw²` per
/// sample), against `gemm_legacy` on pre-built im2col columns.
fn time_conv(name: &str, c_in: usize, hw: usize, c_out: usize, batch: usize) -> KernelTiming {
    let (m, k, n) = (c_out, 9 * c_in, hw * hw);
    let mut rng = SeededRng::new(0xD00D ^ (m * 31 + k * 7 + n) as u64);
    let x = Tensor::randn([batch, c_in, hw, hw], 0.0, 1.0, &mut rng);
    let w = Tensor::randn([c_out, c_in, 3, 3], 0.0, 0.1, &mut rng);
    let bias = Tensor::randn([c_out], 0.0, 0.1, &mut rng);
    let mut packed = || {
        std::hint::black_box(conv2d_relu(&x, &w, &bias, 1, 1));
    };
    let packed_ms = best_ms(&mut packed);
    let packed_pool_ms = best_pool_ms(&mut packed);
    let cols: Vec<Vec<f32>> = (0..batch)
        .map(|_| (0..k * n).map(|_| rng.normal()).collect())
        .collect();
    let legacy_ms = best_ms(|| {
        for b in &cols {
            std::hint::black_box(gemm_legacy(w.data(), b, m, k, n));
        }
    });
    report(name, (m, k, n, batch), legacy_ms, packed_ms, packed_pool_ms)
}

fn main() {
    // Spin the pool up with a real parallel call before reading its size.
    let warm: f32 = {
        use rayon::prelude::*;
        vec![1.0f32; 1 << 15].par_iter().map(|&v| v * 2.0).sum()
    };
    std::hint::black_box(warm);
    let threads = rayon::current_num_threads();
    println!("pool threads: {threads} (all but `pool` forced single-thread)");

    let mut kernels = Vec::new();
    // Square problem at the fc-layer scale (acceptance shape #1).
    kernels.push(time_gemm("gemm_256", 256, 256, 256));
    // Candidate 2's conv layers on a 100×100 patch: conv1 (4 bands → 64
    // filters, [64, 36] · [36, 10000] per sample), conv2 on the post-pool1
    // 50×50 map ([128, 576] · [576, 2500]) and conv3 on the post-pool2
    // 25×25 map ([256, 1152] · [1152, 625], as many FLOPs as conv2).
    for &b in &[1usize, 8, 32] {
        kernels.push(time_conv(&format!("conv1_b{b}"), 4, 100, 64, b));
    }
    for &b in &[1usize, 8, 32] {
        kernels.push(time_conv(&format!("conv2_b{b}"), 64, 50, 128, b));
    }
    for &b in &[1usize, 32] {
        kernels.push(time_conv(&format!("conv3_b{b}"), 128, 25, 256, b));
    }
    // fc1 of the original config: SPP features 256·21 = 5376 → 1024,
    // exercised the way `Linear::forward` calls it.
    for &b in &[1usize, 8, 32] {
        kernels.push(time_gemm(&format!("fc1_b{b}"), b, 5_376, 1_024));
    }
    // fc1 of candidate 2 (the paper's pick): SPP features 256·30 = 7680 →
    // 4096, at batch-1 queries, the scan's ragged last chunk and its batch.
    for &b in &[1usize, 9, 32] {
        kernels.push(time_gemm(&format!("fc1_c2_b{b}"), b, 7_680, 4_096));
    }

    let report = Report {
        threads,
        mode: "single_thread_forced+pool",
        kernels,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_gemm.json", json).expect("write BENCH_gemm.json");
    println!("wrote BENCH_gemm.json");
}
