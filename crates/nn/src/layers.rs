//! Concrete CNN layers with explicit forward/backward passes.
//!
//! A layer holds only its parameters. Its forward pass takes `&self` and
//! records nothing: what the backward pass needs besides the input and
//! output (a pool's argmax) comes back with the output, and the caller
//! hands all of it to `backward` — [`crate::SppNet`] keeps them on its
//! training tape. The inference passes ([`ConvBlock::infer`],
//! [`SppLayer::infer`]) compute the same output, bit for bit, without the
//! argmax.

use crate::param::Param;
use dcd_tensor::{
    adaptive_max_pool2d, adaptive_max_pool2d_values, conv2d_relu_pool, conv2d_relu_pool_backward,
    conv2d_relu_pool_tracked, max_pool2d_backward, Conv2dGrads, Epilogue, MaxIndices, SeededRng,
    Tensor, Trans,
};
use rayon::prelude::*;

/// ReLU backward in place: zeroes `grad` wherever the recorded ReLU output
/// `act` is not positive (NaN included). The 0/1 factor is multiplied in,
/// not stored, so every bit (signed zeros too) matches `grad · mask`.
fn mask_relu_grad(grad: &mut Tensor, act: &Tensor) {
    assert_eq!(grad.shape(), act.shape(), "ReLU grad shape mismatch");
    grad.data_mut()
        .par_iter_mut()
        .zip(act.data().par_iter())
        .for_each(|(g, &a)| *g *= f32::from(a > 0.0));
}

// ---------------------------------------------------------------- ConvBlock

/// The paper's C–P unit: a stride-1 "same" convolution with bias, ReLU and
/// a 2×2/2 max pool (`C_{c,k,1} − P_{2,2}`), run through the fused
/// `conv+bias+ReLU+pool` kernel in training and inference alike, so the
/// full-resolution activation never leaves per-thread scratch.
///
/// Backward reads the input, the pooled output and the pool's argmax. The
/// ReLU mask it needs is the pooled output's sign: each pooled value is its
/// winner's activation, and every other activation receives no gradient.
/// Backward is the fused `conv2d_relu_pool_backward`, which never forms the
/// full-resolution gradient and can skip the input gradient altogether.
#[derive(Debug, Clone)]
pub struct ConvBlock {
    /// Filter bank `[C_out, C_in, K, K]` (odd `K`; padding is `K/2`).
    pub weight: Param,
    /// Per-filter bias `[C_out]`.
    pub bias: Param,
}

impl ConvBlock {
    /// Kaiming-initialized block. `kernel` is the (square) filter size.
    pub fn new(c_in: usize, c_out: usize, kernel: usize, rng: &mut SeededRng) -> Self {
        let fan_in = c_in * kernel * kernel;
        ConvBlock {
            weight: Param::new(
                Tensor::kaiming([c_out, c_in, kernel, kernel], fan_in, rng),
                true,
            ),
            bias: Param::new(Tensor::zeros([c_out]), false),
        }
    }

    /// Zero padding on each side ("same" for odd kernels).
    pub fn pad(&self) -> usize {
        self.weight.value.dims()[2] / 2
    }

    /// Training forward: the pooled output and the pool's argmax, which
    /// [`ConvBlock::backward`] reads back.
    pub fn forward(&self, x: &Tensor) -> (Tensor, MaxIndices) {
        conv2d_relu_pool_tracked(x, &self.weight.value, &self.bias.value, 1, self.pad())
    }

    /// [`ConvBlock::forward`]'s output without the argmax — the inference
    /// path.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        conv2d_relu_pool(x, &self.weight.value, &self.bias.value, 1, self.pad())
    }

    /// The fused C–P backward of a forward pass that read `x` and returned
    /// `y` and `argmax`: accumulates the parameter gradients and returns the
    /// input gradient if `input_grad` is set. Without it the input
    /// gradient's GEMM and col2im are skipped — for a first block, whose
    /// input is the image.
    pub fn backward(
        &mut self,
        x: &Tensor,
        y: &Tensor,
        argmax: &MaxIndices,
        grad_out: &Tensor,
        input_grad: bool,
    ) -> Option<Tensor> {
        let Conv2dGrads {
            input,
            weight,
            bias,
        } = conv2d_relu_pool_backward(
            x,
            &self.weight.value,
            y,
            argmax,
            grad_out,
            1,
            self.pad(),
            input_grad,
        );
        self.weight.grad.axpy(1.0, &weight);
        self.bias.grad.axpy(1.0, &bias);
        input
    }

    /// Weight and bias.
    pub fn params_mut(&mut self) -> [&mut Param; 2] {
        [&mut self.weight, &mut self.bias]
    }
}

// ----------------------------------------------------------------- SppLayer

/// Spatial pyramid pooling (He et al., TPAMI 2015).
///
/// Runs one adaptive max pool per pyramid level and concatenates the
/// flattened results into a fixed-length vector `[N, C·Σ level²]` regardless
/// of the input's spatial size. The parallel branches are exactly the
/// structure `dcd-ios` exploits for inter-operator parallelism.
#[derive(Debug, Clone)]
pub struct SppLayer {
    /// Pyramid bin counts, e.g. `[4, 2, 1]` for the paper's `SPP_{4,2,1}`.
    pub levels: Vec<usize>,
}

impl SppLayer {
    /// Builds a pyramid from its levels (must be non-empty, all positive).
    pub fn new(levels: impl Into<Vec<usize>>) -> Self {
        let levels = levels.into();
        assert!(!levels.is_empty(), "SPP needs at least one level");
        assert!(levels.iter().all(|&l| l > 0), "SPP levels must be positive");
        SppLayer { levels }
    }

    /// Output feature count per sample for `channels` input channels.
    pub fn out_features(&self, channels: usize) -> usize {
        channels * self.levels.iter().map(|l| l * l).sum::<usize>()
    }

    /// Pools every level with `pool` and concatenates them level-major.
    fn pyramid(&self, x: &Tensor, mut pool: impl FnMut(usize) -> Tensor) -> Tensor {
        let n = x.dims()[0];
        let parts: Vec<Tensor> = self
            .levels
            .iter()
            .map(|&level| {
                let y = pool(level);
                let f = y.numel() / n;
                y.reshape([n, f])
            })
            .collect();
        let refs: Vec<&Tensor> = parts.iter().collect();
        Tensor::concat(&refs, 1)
    }

    /// Training forward: the pyramid and each level's argmax, which
    /// [`SppLayer::backward`] reads back.
    pub fn forward(&self, x: &Tensor) -> (Tensor, Vec<MaxIndices>) {
        let mut argmax = Vec::with_capacity(self.levels.len());
        let y = self.pyramid(x, |level| {
            let (y, ix) = adaptive_max_pool2d(x, level);
            argmax.push(ix);
            y
        });
        (y, argmax)
    }

    /// [`SppLayer::forward`]'s output without the argmax — the inference
    /// path.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        self.pyramid(x, |level| adaptive_max_pool2d_values(x, level))
    }

    /// Backward of a forward pass that read `x` and recorded `argmax`:
    /// routes each level's columns of `grad_out` to their winners in `x`.
    pub fn backward(&self, x: &Tensor, argmax: &[MaxIndices], grad_out: &Tensor) -> Tensor {
        let (n, c, _, _) = x.shape().nchw();
        let mut gx = Tensor::zeros(x.shape().clone());
        let mut col = 0usize;
        let total_cols = grad_out.dims()[1];
        for (&level, ix) in self.levels.iter().zip(argmax) {
            let f = c * level * level;
            // Slice columns [col, col+f) of grad_out into [n, c, level, level].
            let mut g = Tensor::zeros([n, c, level, level]);
            for s in 0..n {
                let src = &grad_out.data()[s * total_cols + col..s * total_cols + col + f];
                g.data_mut()[s * f..(s + 1) * f].copy_from_slice(src);
            }
            let gpart = max_pool2d_backward(&g, ix);
            gx.axpy(1.0, &gpart);
            col += f;
        }
        gx
    }
}

// ------------------------------------------------------------------- Linear

/// Fully-connected layer `y = x·W + b` with `W: [in, out]`. A hidden layer
/// runs it with its ReLU fused into the GEMM's write-back
/// ([`Linear::forward_relu`]).
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix `[in_features, out_features]`.
    pub weight: Param,
    /// Bias `[out_features]`.
    pub bias: Param,
}

impl Linear {
    /// Kaiming-initialized fully-connected layer.
    pub fn new(in_features: usize, out_features: usize, rng: &mut SeededRng) -> Self {
        Linear {
            weight: Param::new(
                Tensor::kaiming([in_features, out_features], in_features, rng),
                true,
            ),
            bias: Param::new(Tensor::zeros([out_features]), false),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.dims()[1]
    }

    /// `x·W + b`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.affine(x, Epilogue::BiasCols(self.bias.value.data()))
    }

    /// `max(0, x·W + b)`, the ReLU applied as the GEMM writes each tile
    /// back: bit for bit [`Linear::forward`] followed by a separate ReLU.
    pub fn forward_relu(&self, x: &Tensor) -> Tensor {
        self.affine(x, Epilogue::BiasColsRelu(self.bias.value.data()))
    }

    /// `x·W` written back through `ep`.
    fn affine(&self, x: &Tensor, ep: Epilogue) -> Tensor {
        let (m, k) = x.shape().matrix();
        assert_eq!(k, self.in_features(), "Linear: input features mismatch");
        let n = self.out_features();
        let mut y = vec![0.0f32; m * n];
        dcd_tensor::gemm_ep(
            x.data(),
            Trans::No,
            self.weight.value.data(),
            Trans::No,
            &mut y,
            m,
            k,
            n,
            ep,
        );
        Tensor::from_vec([m, n], y).expect("linear output")
    }

    /// Backward of [`Linear::forward`] on `x`: accumulates the parameter
    /// gradients and returns the input gradient.
    pub fn backward(&mut self, x: &Tensor, grad_out: &Tensor) -> Tensor {
        let (m, k) = x.shape().matrix();
        let n = self.out_features();
        // grad += xᵀ (k×m) · go (m×n), read straight from x's [m, k] storage
        // and accumulated by the GEMM's write-back: no gradient buffer.
        dcd_tensor::gemm_ep(
            x.data(),
            Trans::Yes,
            grad_out.data(),
            Trans::No,
            self.weight.grad.data_mut(),
            k,
            m,
            n,
            Epilogue::Accumulate,
        );
        // gb = column sums of go
        let mut gb = vec![0.0f32; n];
        for row in grad_out.data().chunks(n) {
            for (g, &v) in gb.iter_mut().zip(row.iter()) {
                *g += v;
            }
        }
        self.bias
            .grad
            .axpy(1.0, &Tensor::from_vec([n], gb).expect("gb"));
        // gx = go (m×n) · Wᵀ, read straight from W's [k, n] storage.
        let gx = dcd_tensor::gemm_bt(grad_out.data(), self.weight.value.data(), m, n, k);
        Tensor::from_vec([m, k], gx).expect("gx")
    }

    /// Backward of [`Linear::forward_relu`] on `x`, which returned `y`:
    /// masks `grad_out` in place wherever `y` is not positive, then runs
    /// [`Linear::backward`].
    pub fn backward_relu(&mut self, x: &Tensor, y: &Tensor, mut grad_out: Tensor) -> Tensor {
        mask_relu_grad(&mut grad_out, y);
        self.backward(x, &grad_out)
    }

    /// Weight and bias.
    pub fn params_mut(&mut self) -> [&mut Param; 2] {
        [&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_tensor::grad_check::{numeric_grad, rel_error};
    use dcd_tensor::{conv2d_backward, conv2d_relu, max_pool2d};

    fn rng() -> SeededRng {
        SeededRng::new(1234)
    }

    /// Asserts two tensors hold the same bits.
    fn assert_bits_eq(a: &Tensor, b: &Tensor) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn conv_block_forward_shape() {
        let mut r = rng();
        let block = ConvBlock::new(4, 64, 5, &mut r);
        let x = Tensor::randn([2, 4, 10, 10], 0.0, 1.0, &mut r);
        let (y, _) = block.forward(&x);
        assert_eq!(y.dims(), &[2, 64, 5, 5]);
    }

    #[test]
    fn conv_block_backward_accumulates_param_grads() {
        let mut r = rng();
        let mut block = ConvBlock::new(1, 2, 3, &mut r);
        block.bias.value = Tensor::from_vec([2], vec![0.5, 0.5]).unwrap();
        let x = Tensor::randn([1, 1, 6, 6], 0.0, 1.0, &mut r);
        let (y, argmax) = block.forward(&x);
        let ones = Tensor::ones(y.shape().clone());
        block.backward(&x, &y, &argmax, &ones, true);
        assert!(block.weight.grad.sq_norm() > 0.0);
        assert!(block.bias.grad.sq_norm() > 0.0);
        // Second backward accumulates (does not overwrite).
        let g1 = block.weight.grad.clone();
        block.backward(&x, &y, &argmax, &ones, true);
        assert!(block.weight.grad.max_abs_diff(&g1.scale(2.0)) < 1e-4);
    }

    #[test]
    fn conv_block_backward_matches_numeric() {
        let mut r = SeededRng::new(8);
        let mut block = ConvBlock::new(2, 3, 3, &mut r);
        block.bias.value = Tensor::from_vec([3], vec![0.3, -0.2, 0.1]).unwrap();
        let x = Tensor::randn([2, 2, 6, 6], 0.0, 1.0, &mut r);
        let frozen = block.clone();
        let (y, argmax) = block.forward(&x);
        let gx = block
            .backward(&x, &y, &argmax, &Tensor::ones(y.shape().clone()), true)
            .expect("input gradient");

        let num = numeric_grad(&x, 1e-3, |xp| frozen.infer(xp).sum());
        assert!(
            rel_error(&gx, &num) < 1e-2,
            "input {}",
            rel_error(&gx, &num)
        );
        let num_w = numeric_grad(&block.weight.value, 1e-3, |wp| {
            let mut b = frozen.clone();
            b.weight.value = wp.clone();
            b.infer(&x).sum()
        });
        let err = rel_error(&block.weight.grad, &num_w);
        assert!(err < 1e-2, "weight {err}");
        let num_b = numeric_grad(&block.bias.value, 1e-3, |bp| {
            let mut b = frozen.clone();
            b.bias.value = bp.clone();
            b.infer(&x).sum()
        });
        let err = rel_error(&block.bias.grad, &num_b);
        assert!(err < 1e-2, "bias {err}");
    }

    #[test]
    fn conv_block_is_conv_relu_pool() {
        let mut r = rng();
        let mut block = ConvBlock::new(3, 4, 3, &mut r);
        block.bias.value = Tensor::randn([4], 0.0, 0.5, &mut r);
        let x = Tensor::randn([2, 3, 9, 9], 0.0, 1.0, &mut r);
        let conv = dcd_tensor::conv2d(&x, &block.weight.value, &block.bias.value, 1, 1);
        let (want, _) = max_pool2d(&conv.map(|v| v.max(0.0)), 2, 2);
        let (y, _) = block.forward(&x);
        assert!(y.max_abs_diff(&want) == 0.0);
        assert_bits_eq(&y, &block.infer(&x));
    }

    #[test]
    fn conv_block_backward_matches_unfused_route_bitwise() {
        // Reference: pool backward over the full activation, then the ReLU
        // mask over it, then conv backward. Channel biases of -4 make whole
        // windows non-positive (pooled +0.0, so the gradient there must be
        // masked to ±0); odd sizes drop the last activation row/column.
        let mut r = SeededRng::new(29);
        for (h, w) in [(9, 9), (6, 11)] {
            let mut block = ConvBlock::new(3, 4, 3, &mut r);
            block.bias.value = Tensor::from_vec([4], vec![0.3, -4.0, 0.0, -0.4]).unwrap();
            let x = Tensor::randn([2, 3, h, w], 0.0, 1.0, &mut r);
            let (y, argmax) = block.forward(&x);
            let go = Tensor::randn(y.shape().clone(), 0.0, 1.0, &mut r);
            let gx = block.backward(&x, &y, &argmax, &go, true);

            let (wt, b, pad) = (&block.weight.value, &block.bias.value, block.pad());
            let act = conv2d_relu(&x, wt, b, 1, pad);
            let (pooled, ix) = max_pool2d(&act, 2, 2);
            assert_bits_eq(&y, &pooled);
            assert!(
                y.data()
                    .iter()
                    .zip(go.data())
                    .any(|(&v, &g)| v == 0.0 && g < 0.0),
                "no masked window with a negative gradient"
            );
            let mut g = max_pool2d_backward(&go, &ix);
            mask_relu_grad(&mut g, &act);
            let want = conv2d_backward(&x, wt, &g, 1, pad);
            assert_bits_eq(gx.as_ref().unwrap(), want.input.as_ref().unwrap());
            let mut want_w = Tensor::zeros(wt.shape().clone());
            want_w.axpy(1.0, &want.weight);
            assert_bits_eq(&block.weight.grad, &want_w);
            let mut want_b = Tensor::zeros(b.shape().clone());
            want_b.axpy(1.0, &want.bias);
            assert_bits_eq(&block.bias.grad, &want_b);
        }
    }

    #[test]
    fn conv_block_without_input_grad_leaves_the_same_param_grads() {
        // Two accumulating steps each, so the skipped input gradient cannot
        // hide behind zeroed gradients.
        let mut r = SeededRng::new(31);
        let x = Tensor::randn([3, 2, 9, 9], 0.0, 1.0, &mut r);
        let mut full = ConvBlock::new(2, 4, 3, &mut r);
        let mut params_only = full.clone();
        for _ in 0..2 {
            let (y, argmax) = full.forward(&x);
            let go = Tensor::randn(y.shape().clone(), 0.0, 1.0, &mut r);
            let gx = full.backward(&x, &y, &argmax, &go, true);
            assert_eq!(gx.expect("input gradient").dims(), x.dims());
            let (y2, argmax2) = params_only.forward(&x);
            assert_bits_eq(&y2, &y);
            assert!(params_only
                .backward(&x, &y2, &argmax2, &go, false)
                .is_none());
        }
        let bits = |b: &mut ConvBlock| -> Vec<Vec<u32>> {
            b.params_mut()
                .iter()
                .map(|p| p.grad.data().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&mut full), bits(&mut params_only));
        assert!(bits(&mut full).iter().flatten().any(|&b| b != 0));
    }

    #[test]
    fn every_pool_infers_what_it_forwards() {
        let mut r = rng();
        let x = Tensor::randn([2, 3, 8, 8], 0.0, 1.0, &mut r);
        let block = ConvBlock::new(3, 2, 3, &mut r);
        assert_bits_eq(&block.forward(&x).0, &block.infer(&x));
        let spp = SppLayer::new([3, 1]);
        assert_bits_eq(&spp.forward(&x).0, &spp.infer(&x));
    }

    /// The ReLU the FC trunk applied as a separate layer before it was
    /// fused into the GEMM write-back.
    fn separate_relu(v: f32) -> f32 {
        if v > 0.0 {
            v
        } else {
            0.0
        }
    }

    /// A layer and input whose pre-activations include negative values,
    /// zeros and NaN: zero weight columns under a −0 and a +0 bias, a −0
    /// input, a NaN bias and, at batch > 1, a NaN input row.
    fn relu_edge_case(batch: usize) -> (Linear, Tensor) {
        let mut r = SeededRng::new(41);
        let (k, n) = (7, 6);
        let mut lin = Linear::new(k, n, &mut r);
        lin.bias.value = Tensor::from_vec([n], vec![0.25, -0.0, 0.0, f32::NAN, -0.5, 0.1]).unwrap();
        for row in lin.weight.value.data_mut().chunks_mut(n) {
            row[1] = 0.0;
            row[2] = 0.0;
        }
        let mut x = Tensor::randn([batch, k], 0.0, 1.0, &mut r);
        x.data_mut()[0] = -0.0;
        if batch > 1 {
            x.data_mut()[k..2 * k].fill(f32::NAN);
        }
        (lin, x)
    }

    #[test]
    fn linear_fused_relu_is_gemm_bias_then_relu_bitwise() {
        for batch in [1, 5] {
            let (lin, x) = relu_edge_case(batch);
            let (w, b) = (&lin.weight.value, &lin.bias.value);
            let (k, n) = (lin.in_features(), lin.out_features());
            let pre = dcd_tensor::gemm_bias(x.data(), w.data(), b.data(), batch, k, n);
            assert!(pre.iter().any(|&v| v < 0.0), "no negative pre-activation");
            assert!(pre.contains(&0.0), "no zero pre-activation");
            assert!(pre.iter().any(|v| v.is_nan()), "no NaN pre-activation");
            let want = Tensor::from_vec([batch, n], pre)
                .unwrap()
                .map(separate_relu);
            assert_bits_eq(&lin.forward_relu(&x), &want);
        }
    }

    #[test]
    fn linear_relu_backward_is_masked_plain_backward_bitwise() {
        for batch in [1, 5] {
            let (mut fused, x) = relu_edge_case(batch);
            let mut plain = fused.clone();
            let y = fused.forward_relu(&x);
            let mut go = Tensor::randn(y.shape().clone(), 0.0, 1.0, &mut SeededRng::new(7));
            // A negative gradient on a zero output masks to −0.
            for row in go.data_mut().chunks_mut(fused.out_features()) {
                row[1] = -1.0;
            }
            let masked = go.zip(&y, |g, a| g * f32::from(a > 0.0));
            assert!(masked
                .data()
                .iter()
                .any(|v| v.to_bits() == (-0.0f32).to_bits()));
            let gx = fused.backward_relu(&x, &y, go);
            assert_bits_eq(&gx, &plain.backward(&x, &masked));
            assert_bits_eq(&fused.weight.grad, &plain.weight.grad);
            assert_bits_eq(&fused.bias.grad, &plain.bias.grad);
        }
    }

    #[test]
    fn linear_layer_matches_manual_affine() {
        let mut r = rng();
        let mut lin = Linear::new(3, 2, &mut r);
        lin.weight.value = Tensor::from_vec([3, 2], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        lin.bias.value = Tensor::from_vec([2], vec![0.5, -0.5]).unwrap();
        let x = Tensor::from_vec([1, 3], vec![1., 1., 1.]).unwrap();
        let y = lin.forward(&x);
        assert_eq!(y.data(), &[9.5, 11.5]);
    }

    #[test]
    fn linear_backward_matches_numeric() {
        let mut r = rng();
        let mut lin = Linear::new(4, 3, &mut r);
        let x = Tensor::randn([2, 4], 0.0, 1.0, &mut r);
        let gx = lin.backward(&x, &Tensor::ones([2, 3]));

        let w = lin.weight.value.clone();
        let b = lin.bias.value.clone();
        let f = |xp: &Tensor| {
            let v = dcd_tensor::gemm_bias(xp.data(), w.data(), b.data(), 2, 4, 3);
            v.iter().sum::<f32>()
        };
        let num = numeric_grad(&x, 1e-2, f);
        assert!(
            gx.max_abs_diff(&num) < 0.02,
            "diff {}",
            gx.max_abs_diff(&num)
        );

        let x2 = x.clone();
        let b2 = lin.bias.value.clone();
        let fw = |wp: &Tensor| {
            let v = dcd_tensor::gemm_bias(x2.data(), wp.data(), b2.data(), 2, 4, 3);
            v.iter().sum::<f32>()
        };
        let num_w = numeric_grad(&lin.weight.value, 1e-2, fw);
        assert!(lin.weight.grad.max_abs_diff(&num_w) < 0.02);
    }

    #[test]
    fn spp_layer_fixed_output_for_any_input_size() {
        let mut r = rng();
        let spp = SppLayer::new([4, 2, 1]);
        assert_eq!(spp.out_features(256), 256 * 21);
        for &(h, w) in &[(12usize, 12usize), (25, 25), (7, 13)] {
            let x = Tensor::randn([2, 8, h, w], 0.0, 1.0, &mut r);
            let (y, _) = spp.forward(&x);
            assert_eq!(y.dims(), &[2, 8 * 21]);
        }
    }

    #[test]
    fn spp_backward_matches_numeric() {
        let mut r = rng();
        let x = Tensor::randn([1, 2, 6, 6], 0.0, 1.0, &mut r);
        let spp = SppLayer::new([3, 1]);
        let (y, argmax) = spp.forward(&x);
        let gx = spp.backward(&x, &argmax, &Tensor::ones(y.shape().clone()));
        let num = numeric_grad(&x, 1e-3, |xp| spp.infer(xp).sum());
        assert!(
            gx.max_abs_diff(&num) < 1e-2,
            "diff {}",
            gx.max_abs_diff(&num)
        );
    }

    #[test]
    fn spp_concat_order_is_level_major() {
        // One channel; levels [1, 2]: first column is the global max, the
        // remaining four are the 2x2 adaptive maxima.
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 2., 3., 4.]).unwrap();
        let spp = SppLayer::new([1, 2]);
        let (y, _) = spp.forward(&x);
        assert_eq!(y.data(), &[4., 1., 2., 3., 4.]);
    }
}
