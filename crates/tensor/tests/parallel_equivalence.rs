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
    conv2d, conv2d_backward, conv2d_relu, conv2d_relu_at, conv2d_relu_pool,
    conv2d_relu_pool_backward, conv2d_relu_pool_tracked, gemm, gemm_at, gemm_bt, gemm_ep,
    max_pool2d, max_pool2d_backward, Conv2dGrads, Epilogue, SeededRng, Tensor, Trans,
};

fn pin_threads() {
    rayon::ensure_threads(4);
}

/// `relu(A·B + bias)` through the fused column-bias epilogue.
fn gemm_bias_relu(a: &[f32], b: &[f32], bias: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    let ep = Epilogue::BiasColsRelu(bias);
    gemm_ep(a, Trans::No, b, Trans::No, &mut c, m, k, n, ep);
    c
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
    // Batches smaller than the pool split each sample between threads,
    // each packing and sweeping whole column slabs. conv2's k = 576 caps
    // slabs at 448 columns, so the 40×40 output cuts into four (a multiple
    // of the threads per sample), the last ragged; c_out = 20 leaves a
    // ragged row panel.
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
fn conv2d_relu_pool_parallel_matches_sequential_bitwise() {
    pin_threads();
    // The fused C–P kernel at batch 6 (per-sample split) and at batch 1
    // and 3 (each sample's slabs split across the pool), on an odd 25×25
    // output that pools to 12×12. Argmaxes route a gradient to compare.
    let mut rng = SeededRng::new(97);
    let w = Tensor::randn([20, 32, 3, 3], 0.0, 0.1, &mut rng);
    let b = Tensor::randn([20], 0.0, 0.1, &mut rng);
    for batch in [1, 3, 6] {
        let x = Tensor::randn([batch, 32, 25, 25], 0.0, 1.0, &mut rng);
        let what = format!("conv2d_relu_pool batch {batch}");
        let par = conv2d_relu_pool(&x, &w, &b, 1, 1);
        let seq = rayon::force_sequential(|| conv2d_relu_pool(&x, &w, &b, 1, 1));
        assert_eq!(par.dims(), &[batch, 20, 12, 12]);
        assert_bits_eq(par.data(), seq.data(), &what);
        let (par_t, par_ix) = conv2d_relu_pool_tracked(&x, &w, &b, 1, 1);
        let (seq_t, seq_ix) =
            rayon::force_sequential(|| conv2d_relu_pool_tracked(&x, &w, &b, 1, 1));
        assert_bits_eq(par_t.data(), seq.data(), &format!("{what} tracked"));
        assert_bits_eq(seq_t.data(), seq.data(), &format!("{what} tracked seq"));
        let go = Tensor::randn(par.shape().clone(), 0.0, 1.0, &mut rng);
        let par_gx = max_pool2d_backward(&go, &par_ix);
        let seq_gx = max_pool2d_backward(&go, &seq_ix);
        assert_bits_eq(par_gx.data(), seq_gx.data(), &format!("{what} argmax"));
    }
}

#[test]
fn lone_sample_conv_parallel_matches_sequential_bitwise() {
    pin_threads();
    // Batch 1 shares each sample's column slabs out between the pool:
    // candidate 2's three C–P shapes
    // (conv1's 100×100 map cuts into two slabs of 7264 columns), a wide
    // image whose slabs split mid-row, and the border ring of a tile.
    let mut rng = SeededRng::new(109);
    let shapes = [
        (4, 64, 3, (100, 100)),
        (64, 128, 3, (50, 50)),
        (128, 256, 3, (25, 25)),
        (8, 16, 5, (12, 700)),
    ];
    for (c_in, c_out, k, (h, w)) in shapes {
        let x = Tensor::randn([1, c_in, h, w], 0.0, 1.0, &mut rng);
        let wt = Tensor::randn([c_out, c_in, k, k], 0.0, 0.1, &mut rng);
        let b = Tensor::randn([c_out], 0.0, 0.1, &mut rng);
        let what = format!("batch 1, {c_in}->{c_out} k{k} {h}x{w}");
        let pad = k / 2;
        let par = conv2d_relu(&x, &wt, &b, 1, pad);
        let seq = rayon::force_sequential(|| conv2d_relu(&x, &wt, &b, 1, pad));
        assert_bits_eq(par.data(), seq.data(), &format!("conv2d_relu {what}"));
        let (par_p, par_ix) = conv2d_relu_pool_tracked(&x, &wt, &b, 1, pad);
        let (seq_p, seq_ix) =
            rayon::force_sequential(|| conv2d_relu_pool_tracked(&x, &wt, &b, 1, pad));
        assert_bits_eq(par_p.data(), seq_p.data(), &format!("pool {what}"));
        let untracked = conv2d_relu_pool(&x, &wt, &b, 1, pad);
        assert_bits_eq(untracked.data(), seq_p.data(), &format!("untracked {what}"));
        let go = Tensor::randn(par_p.shape().clone(), 0.0, 1.0, &mut rng);
        let par_gx = max_pool2d_backward(&go, &par_ix);
        let seq_gx = max_pool2d_backward(&go, &seq_ix);
        assert_bits_eq(par_gx.data(), seq_gx.data(), &format!("argmax {what}"));
        let ring: Vec<usize> = (0..h * w)
            .filter(|p| p / w < 2 || p / w >= h - 2 || p % w < 2 || p % w >= w - 2)
            .collect();
        let par = conv2d_relu_at(&x, &wt, &b, (1, pad), &ring);
        let seq = rayon::force_sequential(|| conv2d_relu_at(&x, &wt, &b, (1, pad), &ring));
        assert_bits_eq(par.data(), seq.data(), &format!("conv2d_relu_at {what}"));
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
    assert_grads_eq(&par, &seq, "conv2d_backward");
}

/// Weight and bias gradients accumulate across samples — the
/// order-sensitive part, summed in sample order after the join.
fn assert_grads_eq(par: &Conv2dGrads, seq: &Conv2dGrads, what: &str) {
    assert_eq!(par.input.is_some(), seq.input.is_some(), "{what}: input");
    if let (Some(p), Some(s)) = (&par.input, &seq.input) {
        assert_bits_eq(p.data(), s.data(), &format!("{what} input"));
    }
    assert_bits_eq(
        par.weight.data(),
        seq.weight.data(),
        &format!("{what} weight"),
    );
    assert_bits_eq(par.bias.data(), seq.bias.data(), &format!("{what} bias"));
}

#[test]
fn conv2d_relu_pool_backward_parallel_matches_sequential_bitwise() {
    pin_threads();
    // The fused C–P backward at a training batch of 20 and a ragged 7,
    // with and without the input gradient, on conv2's nas-trial shape
    // (16 → 32 at 32×32; its 1024 positions span four k-slices) and on an
    // odd 25×25 output that pools to 12×12.
    let mut rng = SeededRng::new(39);
    for (c_in, hw, c_out) in [(16, 32, 32), (8, 25, 12)] {
        let w = Tensor::randn([c_out, c_in, 3, 3], 0.0, 0.2, &mut rng);
        let b = Tensor::randn([c_out], -0.1, 0.2, &mut rng);
        for batch in [20, 7] {
            let x = Tensor::randn([batch, c_in, hw, hw], 0.0, 1.0, &mut rng);
            let (y, ix) = conv2d_relu_pool_tracked(&x, &w, &b, 1, 1);
            let go = Tensor::randn(y.shape().clone(), 0.0, 1.0, &mut rng);
            for input_grad in [true, false] {
                let run = || conv2d_relu_pool_backward(&x, &w, &y, &ix, &go, 1, 1, input_grad);
                let what = format!(
                    "conv2d_relu_pool_backward {hw}x{hw} batch {batch} input_grad {input_grad}"
                );
                assert_grads_eq(&run(), &rayon::force_sequential(run), &what);
            }
        }
    }
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
