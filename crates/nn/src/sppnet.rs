//! The SPP-Net drainage-crossing detector (paper §2.2, §4.2, Table 1).
//!
//! Architecture (paper notation):
//!
//! ```text
//! C_{64,k,1} − P_{2,2} − C_{128,3,1} − P_{2,2} − C_{256,3,1} − P_{2,2}
//!   − SPP_{l,2,1} − F_{fc1} [− F_{fc2}] − {objectness logit, bbox}
//! ```
//!
//! The NAS axes of §4.2 are `k ∈ {1,3,5,7,9}` (first conv filter size),
//! `l ∈ {1..5}` (first SPP pyramid level) and the fully-connected sizes
//! `∈ {128, 256, 512, 1024, 2048, 4096, 8192}`.

use crate::detect::Detection;
use crate::layers::{ConvBlock, Linear, SppLayer};
use crate::loss::sigmoid;
use crate::param::Param;
use crate::BBox;
use dcd_tensor::{MaxIndices, SeededRng, Tensor};
use serde::{Deserialize, Serialize};

/// Sizes explored for the fully-connected layers (§4.2).
pub const FC_CHOICES: [usize; 7] = [128, 256, 512, 1024, 2048, 4096, 8192];
/// Filter sizes explored for the first convolution (§4.2).
pub const CONV1_KERNEL_CHOICES: [usize; 5] = [1, 3, 5, 7, 9];
/// Pyramid top levels explored for the SPP layer (§4.2).
pub const SPP_TOP_CHOICES: [usize; 5] = [1, 2, 3, 4, 5];

/// Hyper-parameters of one SPP-Net candidate.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SppNetConfig {
    /// Filter size of the first convolution (`k` above).
    pub conv1_kernel: usize,
    /// Top pyramid level of the SPP layer; the pyramid is the deduplicated
    /// descending sequence of `{top, 2, 1}` (e.g. 4 → `[4,2,1]`, 2 → `[2,1]`).
    pub spp_top_level: usize,
    /// First fully-connected layer width.
    pub fc1: usize,
    /// Optional second fully-connected layer width.
    pub fc2: Option<usize>,
    /// Input bands (4 for NAIP R,G,B,NIR).
    pub in_channels: usize,
    /// Channel widths of the three conv blocks (paper: `[64, 128, 256]`).
    pub channels: [usize; 3],
}

impl SppNetConfig {
    /// The paper's "Original SPP-Net" row of Table 1.
    pub fn original() -> Self {
        SppNetConfig {
            conv1_kernel: 3,
            spp_top_level: 4,
            fc1: 1024,
            fc2: None,
            in_channels: 4,
            channels: [64, 128, 256],
        }
    }

    /// Table 1, SPP-Net #1: first conv filter widened to 5.
    pub fn candidate1() -> Self {
        SppNetConfig {
            conv1_kernel: 5,
            ..Self::original()
        }
    }

    /// Table 1, SPP-Net #2: SPP top level 5, FC 4096 (the paper's final pick).
    pub fn candidate2() -> Self {
        SppNetConfig {
            spp_top_level: 5,
            fc1: 4096,
            ..Self::original()
        }
    }

    /// Table 1, SPP-Net #3: SPP top level 5, FC 2048 (best AP).
    pub fn candidate3() -> Self {
        SppNetConfig {
            spp_top_level: 5,
            fc1: 2048,
            ..Self::original()
        }
    }

    /// All four Table 1 rows in paper order, with their printed names.
    pub fn table1() -> Vec<(&'static str, SppNetConfig)> {
        vec![
            ("Original SPP-Net", Self::original()),
            ("SPP-Net # 1", Self::candidate1()),
            ("SPP-Net # 2", Self::candidate2()),
            ("SPP-Net # 3", Self::candidate3()),
        ]
    }

    /// A deliberately tiny configuration for unit tests.
    pub fn tiny() -> Self {
        SppNetConfig {
            conv1_kernel: 3,
            spp_top_level: 2,
            fc1: 32,
            fc2: None,
            in_channels: 1,
            channels: [4, 8, 8],
        }
    }

    /// SPP pyramid levels: deduplicated descending `{top, 2, 1}`.
    pub fn spp_levels(&self) -> Vec<usize> {
        let mut levels = vec![self.spp_top_level, 2, 1];
        levels.sort_unstable_by(|a, b| b.cmp(a));
        levels.dedup();
        levels
    }

    /// SPP output feature count (input to the first FC layer).
    pub fn spp_features(&self) -> usize {
        let bins: usize = self.spp_levels().iter().map(|l| l * l).sum();
        self.channels[2] * bins
    }

    /// The paper's compact architecture string (Table 1 notation).
    pub fn summary(&self) -> String {
        let [c1, c2, c3] = self.channels;
        let spp = self
            .spp_levels()
            .iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let mut s = format!(
            "C_{{{c1},{k},1}}-P_{{2,2}}-C_{{{c2},3,1}}-P_{{2,2}}-C_{{{c3},3,1}}-P_{{2,2}}-SPP_{{{spp}}}-F_{{{f}}}",
            k = self.conv1_kernel,
            f = self.fc1
        );
        if let Some(f2) = self.fc2 {
            s.push_str(&format!("-F_{{{f2}}}"));
        }
        s
    }
}

/// Output of one detection forward pass.
#[derive(Debug, Clone)]
pub struct DetectionOutput {
    /// Objectness logits, `[N]`.
    pub obj_logits: Tensor,
    /// Box regressions `[N, 4]` as `(cx, cy, w, h)`.
    pub boxes: Tensor,
}

impl DetectionOutput {
    /// Packs the two head outputs (`[N, 1]` objectness, `[N, 4]` boxes).
    fn from_heads(obj: Tensor, boxes: Tensor) -> Self {
        let n = obj.dims()[0];
        DetectionOutput {
            obj_logits: obj.reshape([n]),
            boxes,
        }
    }
}

/// Number of C–P blocks in the trunk.
pub const CONV_BLOCKS: usize = 3;

/// One C–P block's geometry: a stride-1 `kernel × kernel` convolution
/// from `c_in` to `c_out` channels with `pad` zeros on each side, then a
/// ReLU and a 2×2/2 max pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockGeometry {
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Square filter size.
    pub kernel: usize,
    /// Zero padding on each side (`kernel / 2`: a "same" convolution).
    pub pad: usize,
}

/// The SPP-Net model: a trunk of [`CONV_BLOCKS`] C–P blocks, then the
/// SPP layer and the FC layers with their fused ReLUs, feeding objectness
/// and box heads.
///
/// The layers hold only their weights. A training forward
/// ([`SppNet::forward`]) leaves a tape of what the backward pass reads,
/// which the next [`SppNet::backward`] or
/// [`SppNet::backward_params`] consumes. Inference
/// ([`SppNet::forward_inference`]) runs the same kernels from `&self`,
/// records nothing and gives the same bits. It can also start at any block
/// ([`SppNet::forward_inference_from`]) from feature maps computed
/// elsewhere — the scene scan's shared trunk.
pub struct SppNet {
    /// The hyper-parameters this instance was built from.
    pub config: SppNetConfig,
    blocks: [ConvBlock; CONV_BLOCKS],
    spp: SppLayer,
    /// The hidden FC layers, each with its ReLU fused.
    fc: Vec<Linear>,
    head_obj: Linear,
    head_box: Linear,
    tape: Option<Tape>,
}

/// What one training forward pass leaves for the backward pass: every
/// activation a layer's backward reads, each stored once.
struct Tape {
    /// The input, then each C–P block's pooled output: block `i` read
    /// `maps[i]` and wrote `maps[i + 1]`. The input is the step's one copy.
    maps: Vec<Tensor>,
    /// Each C–P block's pool argmax.
    pools: Vec<MaxIndices>,
    /// Each SPP level's argmax.
    spp: Vec<MaxIndices>,
    /// The SPP output, then each hidden FC layer's ReLU output: FC layer
    /// `i` read `features[i]` and wrote `features[i + 1]`, and the heads
    /// read the last.
    features: Vec<Tensor>,
}

impl SppNet {
    /// Builds a freshly initialized model.
    pub fn new(config: SppNetConfig, rng: &mut SeededRng) -> Self {
        let [c1, c2, c3] = config.channels;
        // The draw order (fc1, fc2, box head, convs, objectness head) fixes
        // the weights a seed gives; keep it.
        let mut fc = vec![Linear::new(config.spp_features(), config.fc1, rng)];
        fc.extend(config.fc2.map(|f2| Linear::new(config.fc1, f2, rng)));
        let trunk_out = config.fc2.unwrap_or(config.fc1);
        // Box-head prior: start from a centred, culvert-sized box with
        // near-zero weights (the detectron-style regression-head init), so
        // the prediction stays anchored while the trunk reorganizes for
        // objectness and regression learns only the residual.
        let mut head_box = Linear::new(trunk_out, 4, rng);
        head_box.weight.value = Tensor::randn([trunk_out, 4], 0.0, 1e-3, rng);
        head_box.bias.value = Tensor::from_vec([4], vec![0.5, 0.5, 0.2, 0.2]).expect("prior");
        let blocks = [
            ConvBlock::new(config.in_channels, c1, config.conv1_kernel, rng),
            ConvBlock::new(c1, c2, 3, rng),
            ConvBlock::new(c2, c3, 3, rng),
        ];
        SppNet {
            blocks,
            spp: SppLayer::new(config.spp_levels()),
            fc,
            head_obj: Linear::new(trunk_out, 1, rng),
            head_box,
            config,
            tape: None,
        }
    }

    /// Geometry of C–P block `i` (`0..CONV_BLOCKS`).
    pub fn block_geometry(&self, i: usize) -> BlockGeometry {
        let block = &self.blocks[i];
        let (c_out, c_in, kernel, _) = block.weight.value.shape().nchw();
        BlockGeometry {
            c_in,
            c_out,
            kernel,
            pad: block.pad(),
        }
    }

    /// C–P block `i` (`0..CONV_BLOCKS`): its weights and bias.
    pub fn block(&self, i: usize) -> &ConvBlock {
        &self.blocks[i]
    }

    /// Training forward pass producing objectness logits and box
    /// regressions; records the tape [`SppNet::backward`] reads.
    pub fn forward(&mut self, x: &Tensor) -> DetectionOutput {
        let _span = dcd_obs::span("sppnet.forward", dcd_obs::Category::Nn);
        // An unread tape from an earlier pass goes before this one grows.
        self.tape = None;
        let mut maps = Vec::with_capacity(CONV_BLOCKS + 1);
        maps.push(x.clone());
        let mut pools = Vec::with_capacity(CONV_BLOCKS);
        for block in &self.blocks {
            let (y, pool) = block.forward(&maps[maps.len() - 1]);
            maps.push(y);
            pools.push(pool);
        }
        let (spp_out, spp) = self.spp.forward(&maps[CONV_BLOCKS]);
        let mut features = Vec::with_capacity(self.fc.len() + 1);
        features.push(spp_out);
        for fc in &self.fc {
            let y = fc.forward_relu(&features[features.len() - 1]);
            features.push(y);
        }
        let trunk = &features[self.fc.len()];
        let out =
            DetectionOutput::from_heads(self.head_obj.forward(trunk), self.head_box.forward(trunk));
        self.tape = Some(Tape {
            maps,
            pools,
            spp,
            features,
        });
        out
    }

    /// Inference-only forward pass: the kernels of [`SppNet::forward`]
    /// without the argmax bookkeeping, so it needs only `&self`, records
    /// nothing and returns bit-identical outputs.
    pub fn forward_inference(&self, x: &Tensor) -> DetectionOutput {
        self.forward_inference_from(0, x)
    }

    /// [`SppNet::forward_inference`] from C–P block `block` on: `x` is
    /// what block `block` takes — the output of block `block − 1` —
    /// and `block == CONV_BLOCKS` starts at the SPP layer. Bit for bit the
    /// full pass whenever `x` is bit for bit what the earlier blocks give.
    pub fn forward_inference_from(&self, block: usize, x: &Tensor) -> DetectionOutput {
        assert!(
            block <= CONV_BLOCKS,
            "block {block} out of range 0..={CONV_BLOCKS}"
        );
        let _span = dcd_obs::span("sppnet.forward_inference", dcd_obs::Category::Nn);
        let pooled = match self.blocks[block..].split_first() {
            None => self.spp.infer(x),
            Some((first, rest)) => {
                let maps = rest.iter().fold(first.infer(x), |cur, b| b.infer(&cur));
                self.spp.infer(&maps)
            }
        };
        let trunk = self.fc.iter().fold(pooled, |cur, fc| fc.forward_relu(&cur));
        DetectionOutput::from_heads(self.head_obj.forward(&trunk), self.head_box.forward(&trunk))
    }

    /// Backward pass from head gradients; returns `d loss / d input`.
    /// Consumes the tape of the last [`SppNet::forward`], so each forward
    /// pass backs one backward pass.
    pub fn backward(&mut self, grad_obj: &Tensor, grad_box: &Tensor) -> Tensor {
        self.backprop(grad_obj, grad_box, true)
            .expect("input gradient requested")
    }

    /// [`SppNet::backward`] without `d loss / d input`, which training
    /// never reads: the same parameter gradients, bit for bit, and the
    /// first conv block skips its input-gradient GEMM and col2im.
    pub fn backward_params(&mut self, grad_obj: &Tensor, grad_box: &Tensor) {
        self.backprop(grad_obj, grad_box, false);
    }

    /// Backpropagates the head gradients through every layer from the
    /// tape, accumulating parameter gradients; returns `d loss / d input`
    /// if `input_grad` is set.
    fn backprop(
        &mut self,
        grad_obj: &Tensor,
        grad_box: &Tensor,
        input_grad: bool,
    ) -> Option<Tensor> {
        let Tape {
            maps,
            pools,
            spp,
            features,
        } = self
            .tape
            .take()
            .expect("SppNet::backward before forward: each forward pass backs one backward pass");
        let trunk = &features[self.fc.len()];
        let n = grad_obj.dims()[0];
        let g_obj = self
            .head_obj
            .backward(trunk, &grad_obj.clone().reshape([n, 1]));
        let g_box = self.head_box.backward(trunk, grad_box);
        let mut g = g_obj.add(&g_box);
        for (i, fc) in self.fc.iter_mut().enumerate().rev() {
            g = fc.backward_relu(&features[i], &features[i + 1], g);
        }
        g = self.spp.backward(&maps[CONV_BLOCKS], &spp, &g);
        for (i, block) in self.blocks.iter_mut().enumerate().rev() {
            g = block.backward(&maps[i], &maps[i + 1], &pools[i], &g, i > 0 || input_grad)?;
        }
        Some(g)
    }

    /// All trainable parameters: conv blocks, FC layers, then the
    /// objectness and box heads (the [`crate::Checkpoint`] order).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.blocks
            .iter_mut()
            .flat_map(ConvBlock::params_mut)
            .chain(self.fc.iter_mut().flat_map(Linear::params_mut))
            .chain(self.head_obj.params_mut())
            .chain(self.head_box.params_mut())
            .collect()
    }

    /// Total scalar parameter count.
    pub fn num_params(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.numel()).sum()
    }

    /// Runs inference on a batch and decodes per-image detections.
    pub fn predict(&self, x: &Tensor) -> Vec<Detection> {
        self.predict_from(0, x)
    }

    /// [`SppNet::predict`] from C–P block `block` on (see
    /// [`SppNet::forward_inference_from`]).
    pub fn predict_from(&self, block: usize, x: &Tensor) -> Vec<Detection> {
        let out = self.forward_inference_from(block, x);
        let n = out.obj_logits.numel();
        (0..n)
            .map(|i| Detection {
                score: sigmoid(out.obj_logits.data()[i]),
                bbox: BBox::from_slice(&out.boxes.data()[i * 4..(i + 1) * 4]),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Checkpoint;
    use dcd_tensor::grad_check::numeric_grad;

    fn rng() -> SeededRng {
        SeededRng::new(99)
    }

    #[test]
    fn table1_configs_match_paper_notation() {
        let rows = SppNetConfig::table1();
        assert_eq!(rows.len(), 4);
        assert_eq!(
            rows[0].1.summary(),
            "C_{64,3,1}-P_{2,2}-C_{128,3,1}-P_{2,2}-C_{256,3,1}-P_{2,2}-SPP_{4,2,1}-F_{1024}"
        );
        assert_eq!(
            rows[1].1.summary(),
            "C_{64,5,1}-P_{2,2}-C_{128,3,1}-P_{2,2}-C_{256,3,1}-P_{2,2}-SPP_{4,2,1}-F_{1024}"
        );
        assert_eq!(
            rows[2].1.summary(),
            "C_{64,3,1}-P_{2,2}-C_{128,3,1}-P_{2,2}-C_{256,3,1}-P_{2,2}-SPP_{5,2,1}-F_{4096}"
        );
        assert_eq!(
            rows[3].1.summary(),
            "C_{64,3,1}-P_{2,2}-C_{128,3,1}-P_{2,2}-C_{256,3,1}-P_{2,2}-SPP_{5,2,1}-F_{2048}"
        );
    }

    #[test]
    fn spp_levels_deduplicate() {
        let mut c = SppNetConfig::original();
        c.spp_top_level = 1;
        assert_eq!(c.spp_levels(), vec![2, 1]);
        c.spp_top_level = 2;
        assert_eq!(c.spp_levels(), vec![2, 1]);
        c.spp_top_level = 5;
        assert_eq!(c.spp_levels(), vec![5, 2, 1]);
    }

    #[test]
    fn spp_features_match_pyramid() {
        let c = SppNetConfig::original(); // [4,2,1] → 21 bins × 256
        assert_eq!(c.spp_features(), 256 * 21);
        let c2 = SppNetConfig::candidate2(); // [5,2,1] → 30 bins × 256
        assert_eq!(c2.spp_features(), 256 * 30);
    }

    #[test]
    fn forward_shapes_are_input_size_independent() {
        let mut r = rng();
        let mut net = SppNet::new(SppNetConfig::tiny(), &mut r);
        for &size in &[16usize, 24, 33] {
            let x = Tensor::randn([2, 1, size, size], 0.0, 1.0, &mut r);
            let out = net.forward(&x);
            assert_eq!(out.obj_logits.dims(), &[2]);
            assert_eq!(out.boxes.dims(), &[2, 4]);
        }
    }

    #[test]
    fn backward_produces_input_gradient() {
        let mut r = rng();
        let mut net = SppNet::new(SppNetConfig::tiny(), &mut r);
        let x = Tensor::randn([2, 1, 16, 16], 0.0, 1.0, &mut r);
        net.forward(&x);
        let gx = net.backward(&Tensor::ones([2]), &Tensor::ones([2, 4]));
        assert_eq!(gx.dims(), x.dims());
        assert!(gx.sq_norm() > 0.0);
        // Parameter grads were accumulated.
        assert!(net.params_mut().iter().any(|p| p.grad.sq_norm() > 0.0));
    }

    #[test]
    fn backward_matches_numeric_gradient() {
        // d/dx and d/dθ of Σ obj_logits + Σ boxes against central
        // differences through the inference path. The error is an L2 norm
        // over the whole gradient: a max-pool winner flipping within ±eps
        // spoils a single element, a wrong backward spoils many. f32
        // rounding in the differences alone reaches about 1% here.
        let mut r = SeededRng::new(3);
        let mut cfg = SppNetConfig::tiny();
        cfg.fc2 = Some(16);
        let mut net = SppNet::new(cfg, &mut r);
        let x = Tensor::randn([2, 1, 12, 12], 0.0, 1.0, &mut r);
        let total = |net: &SppNet, x: &Tensor| {
            let out = net.forward_inference(x);
            out.obj_logits.sum() + out.boxes.sum()
        };
        let l2_error = |analytic: &Tensor, numeric: &Tensor| {
            analytic.sub(numeric).sq_norm().sqrt() / (1.0 + numeric.sq_norm().sqrt())
        };
        net.forward(&x);
        let gx = net.backward(&Tensor::ones([2]), &Tensor::ones([2, 4]));
        let num = numeric_grad(&x, 1e-3, |xp| total(&net, xp));
        let err = l2_error(&gx, &num);
        assert!(err < 3e-2, "input gradient error {err}");

        let ckpt = Checkpoint::save(&mut net);
        let grads: Vec<Tensor> = net.params_mut().iter().map(|p| p.grad.clone()).collect();
        for (i, grad) in grads.iter().enumerate() {
            let num = numeric_grad(&ckpt.params[i], 1e-3, |value| {
                let mut probe = ckpt.clone();
                probe.params[i] = value.clone();
                total(&probe.load().expect("same config"), &x)
            });
            let err = l2_error(grad, &num);
            assert!(err < 3e-2, "param {i} gradient error {err}");
        }
    }

    #[test]
    fn backward_params_accumulates_backwards_grads() {
        // Two accumulating steps, so the skipped input gradient cannot hide
        // behind zeroed gradients; a second FC layer puts a masked hidden
        // layer in the chain.
        let mut r = rng();
        let mut cfg = SppNetConfig::tiny();
        cfg.fc2 = Some(16);
        let (mut a, mut b) = (
            SppNet::new(cfg.clone(), &mut SeededRng::new(4)),
            SppNet::new(cfg, &mut SeededRng::new(4)),
        );
        let x = Tensor::randn([3, 1, 16, 16], 0.0, 1.0, &mut r);
        for _ in 0..2 {
            let (go, gb) = (
                Tensor::randn([3], 0.0, 1.0, &mut r),
                Tensor::randn([3, 4], 0.0, 1.0, &mut r),
            );
            a.forward(&x);
            assert_eq!(a.backward(&go, &gb).dims(), x.dims());
            b.forward(&x);
            b.backward_params(&go, &gb);
        }
        let bits = |net: &mut SppNet| -> Vec<u32> {
            net.params_mut()
                .iter()
                .flat_map(|p| p.grad.data().iter().map(|v| v.to_bits()))
                .collect()
        };
        assert_eq!(bits(&mut a), bits(&mut b));
        assert!(bits(&mut a).iter().any(|&v| v != 0));
    }

    #[test]
    #[should_panic(expected = "SppNet::backward before forward")]
    fn backward_before_forward_panics() {
        let mut net = SppNet::new(SppNetConfig::tiny(), &mut rng());
        net.backward(&Tensor::ones([1]), &Tensor::ones([1, 4]));
    }

    #[test]
    fn fc2_adds_a_trunk_layer() {
        let mut r = rng();
        let mut cfg = SppNetConfig::tiny();
        cfg.fc2 = Some(16);
        let mut net = SppNet::new(cfg.clone(), &mut r);
        let x = Tensor::randn([1, 1, 16, 16], 0.0, 1.0, &mut r);
        let out = net.forward(&x);
        assert_eq!(out.boxes.dims(), &[1, 4]);
        // two more params (fc2 w+b) than the single-FC version
        let mut net1 = SppNet::new(SppNetConfig::tiny(), &mut r);
        assert_eq!(net.params_mut().len(), net1.params_mut().len() + 2);
        assert!(cfg.summary().ends_with("-F_{32}-F_{16}"));
    }

    #[test]
    fn predict_scores_are_probabilities() {
        let mut r = rng();
        let net = SppNet::new(SppNetConfig::tiny(), &mut r);
        let x = Tensor::randn([3, 1, 16, 16], 0.0, 1.0, &mut r);
        let dets = net.predict(&x);
        assert_eq!(dets.len(), 3);
        for d in dets {
            assert!((0.0..=1.0).contains(&d.score));
        }
    }

    #[test]
    fn forward_inference_matches_training_forward() {
        let mut r = rng();
        let mut cfg = SppNetConfig::tiny();
        cfg.fc2 = Some(16);
        let mut net = SppNet::new(cfg, &mut r);
        let x = Tensor::randn([3, 1, 20, 20], 0.0, 1.0, &mut r);
        let train = net.forward(&x);
        let infer = net.forward_inference(&x);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&train.obj_logits), bits(&infer.obj_logits));
        assert_eq!(bits(&train.boxes), bits(&infer.boxes));
    }

    #[test]
    fn num_params_counts_everything() {
        let mut r = rng();
        let cfg = SppNetConfig::tiny();
        let mut net = SppNet::new(cfg.clone(), &mut r);
        // conv1: 4·1·3·3+4; conv2: 8·4·3·3+8; conv3: 8·8·3·3+8;
        // fc1: (8·5)·32+32; heads: 32·1+1 + 32·4+4
        let spp_f = cfg.spp_features();
        let expect = (4 * 9 + 4)
            + (8 * 4 * 9 + 8)
            + (8 * 8 * 9 + 8)
            + (spp_f * 32 + 32)
            + (32 + 1)
            + (32 * 4 + 4);
        assert_eq!(net.num_params(), expect);
    }

    #[test]
    fn same_seed_same_model() {
        let mut r1 = SeededRng::new(5);
        let mut r2 = SeededRng::new(5);
        let mut a = SppNet::new(SppNetConfig::tiny(), &mut r1);
        let mut b = SppNet::new(SppNetConfig::tiny(), &mut r2);
        let x = Tensor::randn([1, 1, 16, 16], 0.0, 1.0, &mut SeededRng::new(0));
        let ya = a.forward(&x);
        let yb = b.forward(&x);
        assert_eq!(ya.obj_logits.data(), yb.obj_logits.data());
        assert_eq!(ya.boxes.data(), yb.boxes.data());
    }
}
