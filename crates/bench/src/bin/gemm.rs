//! Packed-vs-legacy GEMM microbenchmark at the SPP-Net layer shapes.
//!
//! Compares the packed register-blocked kernel against the retained legacy
//! axpy kernel (`gemm_legacy`) on the square 256³ problem and on the GEMMs
//! behind conv1, conv2 and fc1 of the paper's architecture at batch 1, 8
//! and 32 — fc1 both for the original 5376→1024 config and for candidate
//! 2's 7680→4096 layer (126 MB of weights), at the scan's batch of 32, its
//! ragged last chunk of 9 and batch-1 queries. Convolution shapes run as
//! repeated per-sample products sharing one packed weight ([`PackedLhs`]),
//! exactly as `conv2d` executes them.
//!
//! `legacy_ms`, `packed_ms` and `speedup` are taken under
//! `rayon::force_sequential`, so the speedups are single-thread kernel
//! improvements, not parallelism. `packed_pool_ms` times the same packed
//! call on the full pool (`threads` workers) for cross-referencing with
//! `BENCH_parallel.json`.
//!
//! Usage: `cargo run --release -p dcd-bench --bin gemm`
//! (writes `BENCH_gemm.json`)

use dcd_tensor::{gemm_into, gemm_legacy, gemm_packed, Epilogue, PackedLhs, SeededRng, Trans};
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

/// Times `batch` back-to-back `m×k·k×n` products, packed vs legacy.
///
/// `shared_lhs` mirrors how the layer actually calls the kernel: conv
/// shapes pack the weight once per layer and reuse it across samples
/// ([`PackedLhs`]); fully-connected shapes go through the public entry
/// point, which routes skinny products to the thin axpy path.
fn time_shape(
    name: &str,
    m: usize,
    k: usize,
    n: usize,
    batch: usize,
    shared_lhs: bool,
) -> KernelTiming {
    let mut rng = SeededRng::new(0xD00D ^ (m * 31 + k * 7 + n) as u64);
    let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
    let bs: Vec<Vec<f32>> = (0..batch)
        .map(|_| (0..k * n).map(|_| rng.normal()).collect())
        .collect();
    let mut c = vec![0.0f32; m * n];

    let mut packed = || {
        if shared_lhs {
            // Pack the shared left operand once per call, as conv2d does.
            let pa = PackedLhs::pack(&a, Trans::No, m, k);
            for b in &bs {
                gemm_packed(&pa, b, Trans::No, &mut c, n, Epilogue::Store);
                std::hint::black_box(&mut c);
            }
        } else {
            for b in &bs {
                gemm_into(&a, b, &mut c, m, k, n);
                std::hint::black_box(&mut c);
            }
        }
    };
    let packed_ms = best_ms(&mut packed);
    let packed_pool_ms = best_pool_ms(&mut packed);
    let legacy_ms = best_ms(|| {
        for b in &bs {
            std::hint::black_box(gemm_legacy(&a, b, m, k, n));
        }
    });
    let t = KernelTiming {
        name: name.to_string(),
        m,
        k,
        n,
        batch,
        legacy_ms,
        packed_ms,
        speedup: legacy_ms / packed_ms,
        packed_pool_ms,
    };
    println!(
        "{:18} m={:5} k={:5} n={:6} b={:2}   legacy {:9.2} ms   packed {:9.2} ms   speedup {:.2}x   pool {:9.2} ms",
        t.name, m, k, n, batch, t.legacy_ms, t.packed_ms, t.speedup, t.packed_pool_ms
    );
    t
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
    kernels.push(time_shape("gemm_256", 256, 256, 256, 1, true));
    // conv1 of the paper's net on a 100×100 patch: 4 bands, 3×3 kernel,
    // 64 filters → [64, 36] · [36, 10000] per sample.
    for &b in &[1usize, 8, 32] {
        kernels.push(time_shape(&format!("conv1_b{b}"), 64, 36, 10_000, b, true));
    }
    // conv2 on the post-pool1 50×50 map: [128, 576] · [576, 2500]
    // (acceptance shape #2).
    for &b in &[1usize, 8, 32] {
        kernels.push(time_shape(&format!("conv2_b{b}"), 128, 576, 2_500, b, true));
    }
    // fc1 of the original config: SPP features 256·21 = 5376 → 1024,
    // exercised the way `Linear::forward` calls it.
    for &b in &[1usize, 8, 32] {
        kernels.push(time_shape(&format!("fc1_b{b}"), b, 5_376, 1_024, 1, false));
    }
    // fc1 of candidate 2 (the paper's pick): SPP features 256·30 = 7680 →
    // 4096, at batch-1 queries, the scan's ragged last chunk and its batch.
    for &b in &[1usize, 9, 32] {
        kernels.push(time_shape(
            &format!("fc1_c2_b{b}"),
            b,
            7_680,
            4_096,
            1,
            false,
        ));
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
