//! Parallel-vs-sequential equivalence: every kernel must produce output
//! **bit-identical** to a single-threaded run.
//!
//! The rayon shim guarantees piece boundaries depend only on input length
//! and that order-sensitive reductions combine piece partials in index
//! order; these tests pin that guarantee at the kernel level, where any
//! reassociation of f32 arithmetic would show up in the low bits. Each test
//! first pins the pool to 4 threads (oversubscribed on small machines —
//! the point is exercising the parallel path, not speed) and compares
//! against `rayon::force_sequential` running the *same* code inline.

use dcd_tensor::gemm::gemm_bias;
use dcd_tensor::{
    conv2d, conv2d_backward, conv2d_relu, gemm, gemm_at, gemm_bias_relu, gemm_bt, max_pool2d,
    max_pool2d_backward, SeededRng, Tensor,
};

fn pin_threads() {
    rayon::ensure_threads(4);
}

fn assert_bits_eq(par: &[f32], seq: &[f32], what: &str) {
    assert_eq!(par.len(), seq.len(), "{what}: length mismatch");
    for (i, (p, s)) in par.iter().zip(seq.iter()).enumerate() {
        assert_eq!(
            p.to_bits(),
            s.to_bits(),
            "{what}: bit mismatch at index {i}: parallel {p} vs sequential {s}"
        );
    }
}

#[test]
fn gemm_parallel_matches_sequential_bitwise() {
    pin_threads();
    // Sized so work = m*k*n = 70*300*50 > 2^16 takes the parallel branch,
    // and m = 70 > MC = 60 splits into multiple row blocks.
    let (m, k, n) = (70, 300, 50);
    let mut rng = SeededRng::new(17);
    let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
    let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
    let par = gemm(a.data(), b.data(), m, k, n);
    let seq = rayon::force_sequential(|| gemm(a.data(), b.data(), m, k, n));
    assert_bits_eq(&par, &seq, "gemm 70x300x50");
}

#[test]
fn gemm_bias_parallel_matches_sequential_bitwise() {
    pin_threads();
    let (m, k, n) = (48, 200, 64);
    let mut rng = SeededRng::new(23);
    let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
    let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
    let bias = Tensor::randn([n], 0.0, 0.5, &mut rng);
    let par = gemm_bias(a.data(), b.data(), bias.data(), m, k, n);
    let seq = rayon::force_sequential(|| gemm_bias(a.data(), b.data(), bias.data(), m, k, n));
    assert_bits_eq(&par, &seq, "gemm_bias 48x200x64");
}

#[test]
fn gemm_at_parallel_matches_sequential_bitwise() {
    pin_threads();
    // Transposed-LHS variant: a stored [k, m]; sized past the parallel
    // threshold with a ragged row edge (m = 70).
    let (m, k, n) = (70, 300, 50);
    let mut rng = SeededRng::new(47);
    let at = Tensor::randn([k, m], 0.0, 1.0, &mut rng);
    let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
    let par = gemm_at(at.data(), b.data(), m, k, n);
    let seq = rayon::force_sequential(|| gemm_at(at.data(), b.data(), m, k, n));
    assert_bits_eq(&par, &seq, "gemm_at 70x300x50");
}

#[test]
fn gemm_bt_parallel_matches_sequential_bitwise() {
    pin_threads();
    // Transposed-RHS variant: b stored [n, k].
    let (m, k, n) = (70, 300, 50);
    let mut rng = SeededRng::new(53);
    let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
    let bt = Tensor::randn([n, k], 0.0, 1.0, &mut rng);
    let par = gemm_bt(a.data(), bt.data(), m, k, n);
    let seq = rayon::force_sequential(|| gemm_bt(a.data(), bt.data(), m, k, n));
    assert_bits_eq(&par, &seq, "gemm_bt 70x300x50");
}

#[test]
fn gemm_bias_relu_parallel_matches_sequential_bitwise() {
    pin_threads();
    let (m, k, n) = (70, 300, 50);
    let mut rng = SeededRng::new(59);
    let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
    let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
    let bias = Tensor::randn([n], 0.0, 0.5, &mut rng);
    let par = gemm_bias_relu(a.data(), b.data(), bias.data(), m, k, n);
    let seq = rayon::force_sequential(|| gemm_bias_relu(a.data(), b.data(), bias.data(), m, k, n));
    assert_bits_eq(&par, &seq, "gemm_bias_relu 70x300x50");
}

#[test]
fn fc_scale_gemm_parallel_matches_sequential_bitwise() {
    pin_threads();
    // k·n = 2.1M ≥ 2^21 puts B in DRAM-resident territory: m = 1 takes the
    // column-parallel thin path (one range per thread, the last one
    // ragged), m = 9 and 32 the cache-blocked grid, whose 7 column blocks
    // of 512 (the last ragged) neither 3 nor 4 threads can share evenly.
    let (k, n) = (600, 3500);
    let mut rng = SeededRng::new(67);
    let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
    let bias = Tensor::randn([n], 0.0, 0.5, &mut rng);
    for m in [1, 9, 32] {
        let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
        let par = gemm_bias_relu(a.data(), b.data(), bias.data(), m, k, n);
        let seq =
            rayon::force_sequential(|| gemm_bias_relu(a.data(), b.data(), bias.data(), m, k, n));
        assert_bits_eq(&par, &seq, &format!("fc gemm_bias_relu m={m}"));
    }
}

#[test]
fn conv2d_forward_parallel_matches_sequential_bitwise() {
    pin_threads();
    // Batch > 1 so the per-sample par_chunks split actually splits.
    let mut rng = SeededRng::new(31);
    let x = Tensor::randn([6, 4, 24, 24], 0.0, 1.0, &mut rng);
    let w = Tensor::randn([8, 4, 3, 3], 0.0, 0.2, &mut rng);
    let b = Tensor::randn([8], 0.0, 0.1, &mut rng);
    let par = conv2d(&x, &w, &b, 1, 1);
    let seq = rayon::force_sequential(|| conv2d(&x, &w, &b, 1, 1));
    assert_eq!(par.dims(), seq.dims());
    assert_bits_eq(par.data(), seq.data(), "conv2d forward");
}

#[test]
fn conv2d_relu_parallel_matches_sequential_bitwise() {
    pin_threads();
    // Fused conv+ReLU epilogue over the per-sample parallel split.
    let mut rng = SeededRng::new(61);
    let x = Tensor::randn([6, 4, 24, 24], 0.0, 1.0, &mut rng);
    let w = Tensor::randn([8, 4, 3, 3], 0.0, 0.2, &mut rng);
    let b = Tensor::randn([8], 0.0, 0.1, &mut rng);
    let par = conv2d_relu(&x, &w, &b, 1, 1);
    let seq = rayon::force_sequential(|| conv2d_relu(&x, &w, &b, 1, 1));
    assert_eq!(par.dims(), seq.dims());
    assert_bits_eq(par.data(), seq.data(), "conv2d_relu forward");
}

#[test]
fn small_batch_conv2d_parallel_matches_sequential_bitwise() {
    pin_threads();
    // Batches smaller than the pool split each sample between threads:
    // slab panels are packed in parallel and output rows swept in blocks.
    // conv2's k = 576 gives 448-column slabs, so the 40×40 output spans
    // four, the last ragged; c_out = 20 splits into uneven row blocks.
    let mut rng = SeededRng::new(83);
    let w = Tensor::randn([20, 64, 3, 3], 0.0, 0.1, &mut rng);
    let b = Tensor::randn([20], 0.0, 0.1, &mut rng);
    for batch in [1, 3] {
        let x = Tensor::randn([batch, 64, 40, 40], 0.0, 1.0, &mut rng);
        let par = conv2d_relu(&x, &w, &b, 1, 1);
        let seq = rayon::force_sequential(|| conv2d_relu(&x, &w, &b, 1, 1));
        assert_bits_eq(
            par.data(),
            seq.data(),
            &format!("conv2d_relu batch {batch}"),
        );
        let par = conv2d(&x, &w, &b, 2, 0);
        let seq = rayon::force_sequential(|| conv2d(&x, &w, &b, 2, 0));
        assert_bits_eq(par.data(), seq.data(), &format!("conv2d s2 batch {batch}"));
    }
}

#[test]
fn conv2d_backward_parallel_matches_sequential_bitwise() {
    pin_threads();
    let mut rng = SeededRng::new(37);
    let x = Tensor::randn([6, 4, 16, 16], 0.0, 1.0, &mut rng);
    let w = Tensor::randn([8, 4, 3, 3], 0.0, 0.2, &mut rng);
    let go = Tensor::randn([6, 8, 16, 16], 0.0, 1.0, &mut rng);
    let par = conv2d_backward(&x, &w, &go, 1, 1);
    let seq = rayon::force_sequential(|| conv2d_backward(&x, &w, &go, 1, 1));
    assert_bits_eq(par.input.data(), seq.input.data(), "conv2d_backward input");
    // Weight/bias gradients accumulate across samples — the order-sensitive
    // part that forced the in-order piece combination.
    assert_bits_eq(
        par.weight.data(),
        seq.weight.data(),
        "conv2d_backward weight",
    );
    assert_bits_eq(par.bias.data(), seq.bias.data(), "conv2d_backward bias");
}

#[test]
fn max_pool2d_parallel_matches_sequential_bitwise() {
    pin_threads();
    let mut rng = SeededRng::new(41);
    let x = Tensor::randn([6, 8, 20, 20], 0.0, 1.0, &mut rng);
    let (par, par_idx) = max_pool2d(&x, 2, 2);
    let (seq, seq_idx) = rayon::force_sequential(|| max_pool2d(&x, 2, 2));
    assert_bits_eq(par.data(), seq.data(), "max_pool2d values");
    // Argmax indices are private; routing a gradient through them exposes
    // any divergence (ties broken differently would move gradient mass).
    let go = Tensor::randn([6, 8, 10, 10], 0.0, 1.0, &mut rng);
    let par_gx = max_pool2d_backward(&go, &par_idx);
    let seq_gx = rayon::force_sequential(|| max_pool2d_backward(&go, &seq_idx));
    assert_bits_eq(par_gx.data(), seq_gx.data(), "max_pool2d backward");
}

#[test]
fn tensor_map_and_sum_parallel_match_sequential_bitwise() {
    pin_threads();
    // Above PAR_THRESHOLD (2^14) so elementwise ops take the parallel path;
    // mixed magnitudes so any sum reassociation is visible in the low bits.
    let mut rng = SeededRng::new(43);
    let x = Tensor::randn([40_000], 0.0, 1.0, &mut rng);
    let scaled = x.map(|v| v * 1e3 + 0.1);

    let par_map = scaled.map(|v| v.exp().min(1e6));
    let seq_map = rayon::force_sequential(|| scaled.map(|v| v.exp().min(1e6)));
    assert_bits_eq(par_map.data(), seq_map.data(), "tensor map");

    let par_sum = scaled.sum();
    let seq_sum = rayon::force_sequential(|| scaled.sum());
    assert_eq!(par_sum.to_bits(), seq_sum.to_bits(), "tensor sum diverged");

    let par_sq = scaled.sq_norm();
    let seq_sq = rayon::force_sequential(|| scaled.sq_norm());
    assert_eq!(par_sq.to_bits(), seq_sq.to_bits(), "sq_norm diverged");
}
