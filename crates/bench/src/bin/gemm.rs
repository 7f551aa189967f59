//! GEMM and convolution microbenchmark at the SPP-Net layer shapes.
//!
//! Times the register-blocked GEMM on the square 256³ problem and on the
//! products behind conv1, conv2, conv3 and fc1 of the paper's
//! architecture — conv1/conv2 at batch 1, 8 and 32, conv3 at 1 and 32, fc1
//! both for the original 5376→1024 config and for candidate 2's 7680→4096
//! layer (126 MB of weights), at the scan's batch of 32, its ragged last
//! chunk of 9 and batch-1 queries.
//!
//! Convolution rows time the whole `conv2d_relu` call on a 3×3, pad-1
//! layer, through whichever routine it takes: the pack-free direct one on
//! AVX-512 hosts, elsewhere the packed one, packing the weights and each
//! slab of im2col columns straight from the input image.
//!
//! `single_ms` is taken under `rayon::force_sequential`, a single-thread
//! kernel time. `pool_ms` times the same call on the full pool (`threads`
//! workers) for cross-referencing with `BENCH_parallel.json`.
//!
//! Conv-block rows (`conv_blocks`) time a whole C–P unit of candidate 2 —
//! conv1/2/3 at batch 1 and 32 — as the fused `conv2d_relu_pool` against
//! `conv2d_relu` followed by `max_pool2d`, single-thread and on the pool.
//!
//! Conv-block backward rows (`conv_block_backward`) time the C–P unit's
//! backward at `nas-trial`'s training shapes (C16-C32-C48 on 64×64
//! patches, batch 20): the unfused route — `max_pool2d_backward` into a
//! full-resolution gradient, the ReLU mask over the activation, then
//! `conv2d_backward` — against the fused `conv2d_relu_pool_backward`, with
//! the input gradient and without it (as training runs the first block),
//! single-thread and on the pool.
//!
//! Usage: `cargo run --release -p dcd-bench --bin gemm`
//! (writes `BENCH_gemm.json`)

use dcd_tensor::{
    conv2d_backward, conv2d_relu, conv2d_relu_pool, conv2d_relu_pool_backward,
    conv2d_relu_pool_tracked, gemm_ep, max_pool2d, max_pool2d_backward, Epilogue, SeededRng,
    Tensor, Trans,
};
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
    single_ms: f64,
    pool_ms: f64,
}

/// One conv block's timings, milliseconds (best of `REPS` runs): the fused
/// conv+bias+ReLU+2×2/2 pool against the conv+ReLU kernel followed by a
/// separate pool.
#[derive(Debug, Serialize)]
struct BlockTiming {
    name: String,
    c_in: usize,
    hw: usize,
    c_out: usize,
    batch: usize,
    unfused_ms: f64,
    fused_ms: f64,
    speedup: f64,
    unfused_pool_ms: f64,
    fused_pool_ms: f64,
    pool_speedup: f64,
}

/// One conv block's backward timings, milliseconds (best of `REPS` runs):
/// the unfused route against the fused kernel with and without the input
/// gradient.
#[derive(Debug, Serialize)]
struct BackwardTiming {
    name: String,
    c_in: usize,
    hw: usize,
    c_out: usize,
    batch: usize,
    unfused_ms: f64,
    fused_ms: f64,
    fused_params_ms: f64,
    speedup: f64,
    unfused_pool_ms: f64,
    fused_pool_ms: f64,
    fused_params_pool_ms: f64,
    pool_speedup: f64,
}

/// The recorded artifact.
#[derive(Debug, Serialize)]
struct Report {
    /// Actual worker count of the (warmed) pool. Only the `*pool_ms`
    /// columns use it; every other timing executes under
    /// `force_sequential`.
    threads: usize,
    mode: &'static str,
    kernels: Vec<KernelTiming>,
    conv_blocks: Vec<BlockTiming>,
    conv_block_backward: Vec<BackwardTiming>,
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
    single_ms: f64,
    pool_ms: f64,
) -> KernelTiming {
    println!(
        "{name:18} m={m:5} k={k:5} n={n:6} b={batch:2}   single {single_ms:9.2} ms   pool {pool_ms:9.2} ms"
    );
    KernelTiming {
        name: name.to_string(),
        m,
        k,
        n,
        batch,
        single_ms,
        pool_ms,
    }
}

/// Times one `m×k·k×n` product through the public entry point (which
/// routes skinny products to the thin axpy path).
fn time_gemm(name: &str, m: usize, k: usize, n: usize) -> KernelTiming {
    let mut rng = SeededRng::new(0xD00D ^ (m * 31 + k * 7 + n) as u64);
    let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
    let mut c = vec![0.0f32; m * n];
    let mut call = || {
        gemm_ep(
            &a,
            Trans::No,
            &b,
            Trans::No,
            &mut c,
            m,
            k,
            n,
            Epilogue::Store,
        );
        std::hint::black_box(&mut c);
    };
    let single_ms = best_ms(&mut call);
    let pool_ms = best_pool_ms(&mut call);
    report(name, (m, k, n, 1), single_ms, pool_ms)
}

/// Times a 3×3, pad-1 `conv2d_relu` layer of `c_out` filters over a batch
/// of `c_in`-channel `hw×hw` inputs (GEMM `c_out × 9·c_in × hw²` per
/// sample).
fn time_conv(name: &str, c_in: usize, hw: usize, c_out: usize, batch: usize) -> KernelTiming {
    let (m, k, n) = (c_out, 9 * c_in, hw * hw);
    let mut rng = SeededRng::new(0xD00D ^ (m * 31 + k * 7 + n) as u64);
    let x = Tensor::randn([batch, c_in, hw, hw], 0.0, 1.0, &mut rng);
    let w = Tensor::randn([c_out, c_in, 3, 3], 0.0, 0.1, &mut rng);
    let bias = Tensor::randn([c_out], 0.0, 0.1, &mut rng);
    let mut call = || {
        std::hint::black_box(conv2d_relu(&x, &w, &bias, 1, 1));
    };
    let single_ms = best_ms(&mut call);
    let pool_ms = best_pool_ms(&mut call);
    report(name, (m, k, n, batch), single_ms, pool_ms)
}

/// Times one 3×3, pad-1 C–P block of `c_out` filters over a batch of
/// `c_in`-channel `hw×hw` inputs, fused vs unfused.
fn time_block(name: &str, c_in: usize, hw: usize, c_out: usize, batch: usize) -> BlockTiming {
    let mut rng = SeededRng::new(0xB10C ^ (c_in * 31 + hw * 7 + c_out + batch) as u64);
    let x = Tensor::randn([batch, c_in, hw, hw], 0.0, 1.0, &mut rng);
    let w = Tensor::randn([c_out, c_in, 3, 3], 0.0, 0.1, &mut rng);
    let bias = Tensor::randn([c_out], 0.0, 0.1, &mut rng);
    let mut unfused = || {
        std::hint::black_box(max_pool2d(&conv2d_relu(&x, &w, &bias, 1, 1), 2, 2));
    };
    let mut fused = || {
        std::hint::black_box(conv2d_relu_pool(&x, &w, &bias, 1, 1));
    };
    let (unfused_ms, fused_ms) = (best_ms(&mut unfused), best_ms(&mut fused));
    let (unfused_pool_ms, fused_pool_ms) = (best_pool_ms(&mut unfused), best_pool_ms(&mut fused));
    println!(
        "{name:18} c_in={c_in:4} hw={hw:4} c_out={c_out:4} b={batch:2}   unfused {unfused_ms:9.2} ms   fused {fused_ms:9.2} ms   speedup {:.2}x   pool {unfused_pool_ms:9.2} -> {fused_pool_ms:9.2} ms",
        unfused_ms / fused_ms
    );
    BlockTiming {
        name: name.to_string(),
        c_in,
        hw,
        c_out,
        batch,
        unfused_ms,
        fused_ms,
        speedup: unfused_ms / fused_ms,
        unfused_pool_ms,
        fused_pool_ms,
        pool_speedup: unfused_pool_ms / fused_pool_ms,
    }
}

/// Times one 3×3, pad-1 C–P block's backward over a batch of
/// `c_in`-channel `hw×hw` inputs, unfused vs fused.
fn time_block_backward(
    name: &str,
    c_in: usize,
    hw: usize,
    c_out: usize,
    batch: usize,
) -> BackwardTiming {
    let mut rng = SeededRng::new(0xBAC0 ^ (c_in * 31 + hw * 7 + c_out + batch) as u64);
    let x = Tensor::randn([batch, c_in, hw, hw], 0.0, 1.0, &mut rng);
    let w = Tensor::randn([c_out, c_in, 3, 3], 0.0, 0.1, &mut rng);
    let bias = Tensor::randn([c_out], 0.0, 0.1, &mut rng);
    let act = conv2d_relu(&x, &w, &bias, 1, 1);
    let (y, ix) = conv2d_relu_pool_tracked(&x, &w, &bias, 1, 1);
    let go = Tensor::randn(y.shape().clone(), 0.0, 1.0, &mut rng);
    let mut unfused = || {
        let mut g = max_pool2d_backward(&go, &ix);
        for (v, &a) in g.data_mut().iter_mut().zip(act.data()) {
            *v *= f32::from(a > 0.0);
        }
        std::hint::black_box(conv2d_backward(&x, &w, &g, 1, 1));
    };
    let fused = |input_grad| {
        std::hint::black_box(conv2d_relu_pool_backward(
            &x, &w, &y, &ix, &go, 1, 1, input_grad,
        ));
    };
    let (unfused_ms, fused_ms) = (best_ms(&mut unfused), best_ms(|| fused(true)));
    let fused_params_ms = best_ms(|| fused(false));
    let (unfused_pool_ms, fused_pool_ms) =
        (best_pool_ms(&mut unfused), best_pool_ms(|| fused(true)));
    let fused_params_pool_ms = best_pool_ms(|| fused(false));
    println!(
        "{name:18} c_in={c_in:4} hw={hw:4} c_out={c_out:4} b={batch:2}   unfused {unfused_ms:9.2} ms   fused {fused_ms:9.2} ms (params only {fused_params_ms:9.2})   speedup {:.2}x   pool {unfused_pool_ms:9.2} -> {fused_pool_ms:9.2} ms ({fused_params_pool_ms:9.2})",
        unfused_ms / fused_ms
    );
    BackwardTiming {
        name: name.to_string(),
        c_in,
        hw,
        c_out,
        batch,
        unfused_ms,
        fused_ms,
        fused_params_ms,
        speedup: unfused_ms / fused_ms,
        unfused_pool_ms,
        fused_pool_ms,
        fused_params_pool_ms,
        pool_speedup: unfused_pool_ms / fused_pool_ms,
    }
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

    // Candidate 2's C–P blocks on a 100×100 patch, whole: conv1 (4 → 64)
    // at 100×100, conv2 (64 → 128) at 50×50, conv3 (128 → 256) at 25×25,
    // whose 25×25 activation pools to 12×12.
    let mut conv_blocks = Vec::new();
    for &b in &[1usize, 32] {
        conv_blocks.push(time_block(&format!("block1_b{b}"), 4, 100, 64, b));
        conv_blocks.push(time_block(&format!("block2_b{b}"), 64, 50, 128, b));
        conv_blocks.push(time_block(&format!("block3_b{b}"), 128, 25, 256, b));
    }

    // nas-trial's C–P blocks at its training batch of 20: conv1 (4 → 16)
    // at 64×64, conv2 (16 → 32) at 32×32, conv3 (32 → 48) at 16×16.
    let conv_block_backward = vec![
        time_block_backward("block1_bwd_b20", 4, 64, 16, 20),
        time_block_backward("block2_bwd_b20", 16, 32, 32, 20),
        time_block_backward("block3_bwd_b20", 32, 16, 48, 20),
    ];

    let report = Report {
        threads,
        mode: "single_thread_forced+pool",
        kernels,
        conv_blocks,
        conv_block_backward,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_gemm.json", json).expect("write BENCH_gemm.json");
    println!("wrote BENCH_gemm.json");
}
