//! Concrete CNN layers with explicit forward/backward passes.
//!
//! Every layer runs two ways. [`Layer::forward`] records what its backward
//! pass needs; calling `backward` before `forward` is a programming error
//! and panics. [`Layer::infer`] computes the same output, bit for bit, from
//! `&self`: it records nothing and copies no input.

use crate::param::Param;
use dcd_tensor::{
    adaptive_max_pool2d, adaptive_max_pool2d_values, conv2d_relu_pool, conv2d_relu_pool_backward,
    conv2d_relu_pool_tracked, max_pool2d_backward, Conv2dGrads, Epilogue, MaxIndices, SeededRng,
    Tensor, Trans,
};
use rayon::prelude::*;

/// Common interface over all layers.
pub trait Layer {
    /// Computes the layer output, recording state for `backward`.
    fn forward(&mut self, x: &Tensor) -> Tensor;
    /// Computes the same output as [`Layer::forward`] without recording
    /// anything — the inference path.
    fn infer(&self, x: &Tensor) -> Tensor;
    /// Propagates `grad_out` to the input gradient, accumulating parameter
    /// gradients along the way.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;
    /// [`Layer::backward`] for a layer whose input gradient nobody reads —
    /// the first layer of a network, whose input is the image: accumulates
    /// the same parameter gradients, bit for bit, and may skip the input
    /// gradient's work.
    fn backward_params(&mut self, grad_out: &Tensor) {
        self.backward(grad_out);
    }
    /// Trainable parameters (empty for stateless layers).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
    /// Human-readable layer name for summaries.
    fn name(&self) -> String;
}

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
/// Training records the input, the pooled output and the pool's argmax.
/// The ReLU mask backward needs is the pooled output's sign: each pooled
/// value is its winner's activation, and every other activation receives
/// no gradient. Backward is the fused `conv2d_relu_pool_backward`, which
/// never forms the full-resolution gradient, and
/// [`Layer::backward_params`] skips the input gradient altogether.
#[derive(Debug, Clone)]
pub struct ConvBlock {
    /// Filter bank `[C_out, C_in, K, K]` (odd `K`; padding is `K/2`).
    pub weight: Param,
    /// Per-filter bias `[C_out]`.
    pub bias: Param,
    saved: Option<ConvBlockState>,
}

/// What [`ConvBlock::backward`] needs from the forward pass.
#[derive(Debug, Clone)]
struct ConvBlockState {
    input: Tensor,
    /// The pooled ReLU output; its positive entries are the winners' mask.
    output: Tensor,
    pool: MaxIndices,
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
            saved: None,
        }
    }

    /// Zero padding on each side ("same" for odd kernels).
    pub fn pad(&self) -> usize {
        self.weight.value.dims()[2] / 2
    }

    /// The fused C–P backward from the recorded forward: accumulates the
    /// parameter gradients and returns the input gradient when asked for.
    fn backward_fused(&mut self, grad_out: &Tensor, input_grad: bool) -> Option<Tensor> {
        let pad = self.pad();
        let s = self
            .saved
            .as_ref()
            .expect("ConvBlock::backward before forward");
        let Conv2dGrads {
            input,
            weight,
            bias,
        } = conv2d_relu_pool_backward(
            &s.input,
            &self.weight.value,
            &s.output,
            &s.pool,
            grad_out,
            1,
            pad,
            input_grad,
        );
        self.weight.grad.axpy(1.0, &weight);
        self.bias.grad.axpy(1.0, &bias);
        input
    }
}

impl Layer for ConvBlock {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let (w, b) = (&self.weight.value, &self.bias.value);
        let (y, pool) = conv2d_relu_pool_tracked(x, w, b, 1, self.pad());
        self.saved = Some(ConvBlockState {
            input: x.clone(),
            output: y.clone(),
            pool,
        });
        y
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        conv2d_relu_pool(x, &self.weight.value, &self.bias.value, 1, self.pad())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_fused(grad_out, true)
            .expect("input gradient requested")
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.backward_fused(grad_out, false);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> String {
        let d = self.weight.value.dims();
        format!("ConvBlock({}->{}, k={})", d[1], d[0], d[2])
    }
}

// --------------------------------------------------------------------- ReLU

/// Rectified linear unit, for the FC trunk.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    output: Option<Tensor>,
}

impl Relu {
    /// A fresh ReLU.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = self.infer(x);
        self.output = Some(y.clone());
        y
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        x.map(|v| if v > 0.0 { v } else { 0.0 })
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self.output.as_ref().expect("Relu::backward before forward");
        let mut g = grad_out.clone();
        mask_relu_grad(&mut g, y);
        g
    }

    fn name(&self) -> String {
        "ReLU".into()
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
    saved: Vec<MaxIndices>,
    input_dims: Option<[usize; 4]>,
}

impl SppLayer {
    /// Builds a pyramid from its levels (must be non-empty, all positive).
    pub fn new(levels: impl Into<Vec<usize>>) -> Self {
        let levels = levels.into();
        assert!(!levels.is_empty(), "SPP needs at least one level");
        assert!(levels.iter().all(|&l| l > 0), "SPP levels must be positive");
        SppLayer {
            levels,
            saved: Vec::new(),
            input_dims: None,
        }
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
}

impl Layer for SppLayer {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let (n, c, h, w) = x.shape().nchw();
        self.input_dims = Some([n, c, h, w]);
        let mut saved = Vec::with_capacity(self.levels.len());
        let y = self.pyramid(x, |level| {
            let (y, ix) = adaptive_max_pool2d(x, level);
            saved.push(ix);
            y
        });
        self.saved = saved;
        y
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.pyramid(x, |level| adaptive_max_pool2d_values(x, level))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let [n, c, h, w] = self.input_dims.expect("SppLayer::backward before forward");
        let mut gx = Tensor::zeros([n, c, h, w]);
        let mut col = 0usize;
        let total_cols = grad_out.dims()[1];
        for (li, &level) in self.levels.iter().enumerate() {
            let f = c * level * level;
            // Slice columns [col, col+f) of grad_out into [n, c, level, level].
            let mut g = Tensor::zeros([n, c, level, level]);
            for s in 0..n {
                let src = &grad_out.data()[s * total_cols + col..s * total_cols + col + f];
                g.data_mut()[s * f..(s + 1) * f].copy_from_slice(src);
            }
            let gpart = max_pool2d_backward(&g, &self.saved[li]);
            gx.axpy(1.0, &gpart);
            col += f;
        }
        gx
    }

    fn name(&self) -> String {
        format!("SPP{:?}", self.levels)
    }
}

// ------------------------------------------------------------------- Linear

/// Fully-connected layer `y = x·W + b` with `W: [in, out]`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix `[in_features, out_features]`.
    pub weight: Param,
    /// Bias `[out_features]`.
    pub bias: Param,
    cached_input: Option<Tensor>,
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
            cached_input: None,
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
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cached_input = Some(x.clone());
        self.infer(x)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let (m, k) = x.shape().matrix();
        assert_eq!(k, self.in_features(), "Linear: input features mismatch");
        let y = dcd_tensor::gemm_bias(
            x.data(),
            self.weight.value.data(),
            self.bias.value.data(),
            m,
            k,
            self.out_features(),
        );
        Tensor::from_vec([m, self.out_features()], y).expect("linear output")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("Linear::backward before forward");
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

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> String {
        format!("Linear({}->{})", self.in_features(), self.out_features())
    }
}

// --------------------------------------------------------------- Sequential

/// A chain of boxed layers — [`crate::SppNet`]'s trunk.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer + Send + Sync>>,
}

impl Sequential {
    /// An empty chain.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + Send + Sync + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the chain has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        match self.layers.split_first_mut() {
            None => x.clone(),
            Some((first, rest)) => rest
                .iter_mut()
                .fold(first.forward(x), |cur, layer| layer.forward(&cur)),
        }
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        match self.layers.split_first() {
            None => x.clone(),
            Some((first, rest)) => rest
                .iter()
                .fold(first.infer(x), |cur, layer| layer.infer(&cur)),
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self.layers.split_last_mut() {
            None => grad_out.clone(),
            Some((last, rest)) => rest
                .iter_mut()
                .rev()
                .fold(last.backward(grad_out), |cur, layer| layer.backward(&cur)),
        }
    }

    /// Backpropagates through every layer but the first, which runs its
    /// [`Layer::backward_params`]: the chain's input gradient is never
    /// formed.
    fn backward_params(&mut self, grad_out: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        match rest.split_last_mut() {
            None => first.backward_params(grad_out),
            Some((last, mid)) => {
                let g = mid
                    .iter_mut()
                    .rev()
                    .fold(last.backward(grad_out), |cur, layer| layer.backward(&cur));
                first.backward_params(&g);
            }
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn name(&self) -> String {
        let names: Vec<String> = self.layers.iter().map(|l| l.name()).collect();
        format!("Sequential[{}]", names.join(", "))
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
        let mut block = ConvBlock::new(4, 64, 5, &mut r);
        let x = Tensor::randn([2, 4, 10, 10], 0.0, 1.0, &mut r);
        let y = block.forward(&x);
        assert_eq!(y.dims(), &[2, 64, 5, 5]);
    }

    #[test]
    fn conv_block_backward_accumulates_param_grads() {
        let mut r = rng();
        let mut block = ConvBlock::new(1, 2, 3, &mut r);
        block.bias.value = Tensor::from_vec([2], vec![0.5, 0.5]).unwrap();
        let x = Tensor::randn([1, 1, 6, 6], 0.0, 1.0, &mut r);
        let y = block.forward(&x);
        block.backward(&Tensor::ones(y.shape().clone()));
        assert!(block.weight.grad.sq_norm() > 0.0);
        assert!(block.bias.grad.sq_norm() > 0.0);
        // Second backward accumulates (does not overwrite).
        let g1 = block.weight.grad.clone();
        block.forward(&x);
        block.backward(&Tensor::ones(y.shape().clone()));
        assert!(block.weight.grad.max_abs_diff(&g1.scale(2.0)) < 1e-4);
    }

    #[test]
    fn conv_block_backward_matches_numeric() {
        let mut r = SeededRng::new(8);
        let mut block = ConvBlock::new(2, 3, 3, &mut r);
        block.bias.value = Tensor::from_vec([3], vec![0.3, -0.2, 0.1]).unwrap();
        let x = Tensor::randn([2, 2, 6, 6], 0.0, 1.0, &mut r);
        let y = block.forward(&x);
        let gx = block.backward(&Tensor::ones(y.shape().clone()));

        let frozen = block.clone();
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
        let y = block.forward(&x);
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
            let y = block.forward(&x);
            let go = Tensor::randn(y.shape().clone(), 0.0, 1.0, &mut r);
            let gx = block.backward(&go);

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
            assert_bits_eq(&gx, want.input.as_ref().unwrap());
            let mut want_w = Tensor::zeros(wt.shape().clone());
            want_w.axpy(1.0, &want.weight);
            assert_bits_eq(&block.weight.grad, &want_w);
            let mut want_b = Tensor::zeros(b.shape().clone());
            want_b.axpy(1.0, &want.bias);
            assert_bits_eq(&block.bias.grad, &want_b);
        }
    }

    /// Every parameter gradient's bits.
    fn grad_bits(layer: &mut dyn Layer) -> Vec<Vec<u32>> {
        layer
            .params_mut()
            .iter()
            .map(|p| p.grad.data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn backward_params_leaves_backwards_param_grads() {
        // Two accumulating steps each, so the skipped input gradient cannot
        // hide behind zeroed gradients; a conv block alone (its override)
        // and a chain that starts with one (Sequential's).
        let mut r = SeededRng::new(31);
        let x = Tensor::randn([3, 2, 9, 9], 0.0, 1.0, &mut r);
        let block = ConvBlock::new(2, 4, 3, &mut r);
        let chain = || {
            let mut r = SeededRng::new(32);
            Sequential::new()
                .push(ConvBlock::new(2, 4, 3, &mut r))
                .push(ConvBlock::new(4, 3, 3, &mut r))
                .push(SppLayer::new([2, 1]))
                .push(Linear::new(15, 2, &mut r))
        };
        let cases: [(Box<dyn Layer>, Box<dyn Layer>); 2] = [
            (Box::new(block.clone()), Box::new(block)),
            (Box::new(chain()), Box::new(chain())),
        ];
        for (mut full, mut params_only) in cases {
            for _ in 0..2 {
                let y = full.forward(&x);
                let go = Tensor::randn(y.shape().clone(), 0.0, 1.0, &mut r);
                let gx = full.backward(&go);
                assert_eq!(gx.dims(), x.dims());
                assert_bits_eq(&params_only.forward(&x), &y);
                params_only.backward_params(&go);
            }
            assert_eq!(grad_bits(&mut *full), grad_bits(&mut *params_only));
            assert!(grad_bits(&mut *full).iter().flatten().any(|&b| b != 0));
        }
    }

    #[test]
    fn every_layer_infers_what_it_forwards() {
        let mut r = rng();
        let x4 = Tensor::randn([2, 3, 8, 8], 0.0, 1.0, &mut r);
        let x2 = Tensor::randn([3, 6], 0.0, 1.0, &mut r);
        let mut layers: Vec<(Box<dyn Layer>, &Tensor)> = vec![
            (Box::new(ConvBlock::new(3, 2, 3, &mut r)), &x4),
            (Box::new(SppLayer::new([3, 1])), &x4),
            (Box::new(Linear::new(6, 4, &mut r)), &x2),
            (Box::new(Relu::new()), &x2),
        ];
        for (layer, x) in &mut layers {
            let y = layer.forward(x);
            assert_bits_eq(&y, &layer.infer(x));
        }
    }

    #[test]
    fn relu_zeroes_negatives_and_masks_grads() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec([4], vec![-1., 2., -3., 4.]).unwrap();
        let y = relu.forward(&x);
        assert_eq!(y.data(), &[0., 2., 0., 4.]);
        let g = relu.backward(&Tensor::ones([4]));
        assert_eq!(g.data(), &[0., 1., 0., 1.]);
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
        let y = lin.forward(&x);
        let gx = lin.backward(&Tensor::ones(y.shape().clone()));

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
        let mut spp = SppLayer::new([4, 2, 1]);
        assert_eq!(spp.out_features(256), 256 * 21);
        for &(h, w) in &[(12usize, 12usize), (25, 25), (7, 13)] {
            let x = Tensor::randn([2, 8, h, w], 0.0, 1.0, &mut r);
            let y = spp.forward(&x);
            assert_eq!(y.dims(), &[2, 8 * 21]);
        }
    }

    #[test]
    fn spp_backward_matches_numeric() {
        let mut r = rng();
        let x = Tensor::randn([1, 2, 6, 6], 0.0, 1.0, &mut r);
        let mut spp = SppLayer::new([3, 1]);
        let y = spp.forward(&x);
        let gx = spp.backward(&Tensor::ones(y.shape().clone()));
        let num = numeric_grad(&x, 1e-3, |xp| {
            let mut s = SppLayer::new([3, 1]);
            s.forward(xp).sum()
        });
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
        let mut spp = SppLayer::new([1, 2]);
        let y = spp.forward(&x);
        assert_eq!(y.data(), &[4., 1., 2., 3., 4.]);
    }

    #[test]
    fn sequential_chains_and_exposes_params() {
        let mut r = rng();
        let mut net = Sequential::new()
            .push(ConvBlock::new(1, 4, 3, &mut r))
            .push(SppLayer::new([2, 1]))
            .push(Linear::new(4 * 5, 2, &mut r));
        let x = Tensor::randn([3, 1, 8, 8], 0.0, 1.0, &mut r);
        let y = net.forward(&x);
        assert_eq!(y.dims(), &[3, 2]);
        assert_bits_eq(&y, &net.infer(&x));
        assert_eq!(net.params_mut().len(), 4); // conv w+b, linear w+b
        let gx = net.backward(&Tensor::ones([3, 2]));
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn sequential_end_to_end_gradient_check() {
        let mut r = rng();
        let mut net = Sequential::new()
            .push(ConvBlock::new(1, 2, 3, &mut r))
            .push(SppLayer::new([1]))
            .push(Linear::new(2, 3, &mut r))
            .push(Relu::new())
            .push(Linear::new(3, 1, &mut r));
        let x = Tensor::randn([1, 1, 4, 4], 0.0, 1.0, &mut r);
        let y = net.forward(&x);
        let gx = net.backward(&Tensor::ones(y.shape().clone()));

        let num = numeric_grad(&x, 1e-2, |xp| net.infer(xp).sum());
        assert!(
            gx.max_abs_diff(&num) < 0.05,
            "diff {}",
            gx.max_abs_diff(&num)
        );
        assert!(gx.sq_norm() > 0.0);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_before_forward_panics() {
        let mut relu = Relu::new();
        relu.backward(&Tensor::ones([1]));
    }
}
