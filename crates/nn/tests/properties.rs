//! Property-based tests of the neural-network layer invariants.

use dcd_nn::layers::{ConvBlock, Linear, SppLayer};
use dcd_nn::loss::{bce_with_logits, smooth_l1, softmax_cross_entropy};
use dcd_nn::metrics::{average_precision, iou};
use dcd_nn::{BBox, SppNet, SppNetConfig};
use dcd_tensor::{conv2d, max_pool2d, SeededRng, Tensor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn spp_output_length_is_input_size_invariant(
        h in 4usize..20, w in 4usize..20, c in 1usize..4, seed in 0u64..1_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let x = Tensor::randn([1, c, h, w], 0.0, 1.0, &mut rng);
        let spp = SppLayer::new([4, 2, 1]);
        let (y, _) = spp.forward(&x);
        prop_assert_eq!(y.dims(), &[1, c * 21]);
    }

    #[test]
    fn linear_is_affine(seed in 0u64..10_000, n in 1usize..6, m in 1usize..6) {
        // f(a+b) − f(b) == f(a) − f(0) for an affine map.
        let mut rng = SeededRng::new(seed);
        let lin = Linear::new(n, m, &mut rng);
        let a = Tensor::randn([1, n], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([1, n], 0.0, 1.0, &mut rng);
        let zero = Tensor::zeros([1, n]);
        let lhs = lin.forward(&a.add(&b)).sub(&lin.forward(&b));
        let rhs = lin.forward(&a).sub(&lin.forward(&zero));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    #[test]
    fn maxpool_is_monotone(seed in 0u64..10_000, h in 2usize..10) {
        // x ≤ y elementwise ⇒ pool(x) ≤ pool(y).
        let mut rng = SeededRng::new(seed);
        let x = Tensor::randn([1, 1, h, h], 0.0, 1.0, &mut rng);
        let bump = Tensor::uniform([1, 1, h, h], 0.0, 1.0, &mut rng);
        let y = x.add(&bump);
        let px = max_pool2d(&x, 2, 1).0;
        let py = max_pool2d(&y, 2, 1).0;
        for (a, b) in px.data().iter().zip(py.data().iter()) {
            prop_assert!(a <= b);
        }
    }

    #[test]
    fn conv_zero_input_gives_bias_map(seed in 0u64..10_000) {
        let mut rng = SeededRng::new(seed);
        let mut block = ConvBlock::new(2, 3, 3, &mut rng);
        block.bias.value = Tensor::from_vec([3], vec![0.5, -1.0, 2.0]).unwrap();
        let zeros = Tensor::zeros([1, 2, 5, 5]);
        let y = conv2d(&zeros, &block.weight.value, &block.bias.value, 1, block.pad());
        for co in 0..3 {
            for s in 0..25 {
                prop_assert_eq!(y.data()[co * 25 + s], block.bias.value.data()[co]);
            }
        }
        // Through the block: ReLU of the bias, pooled to 2×2.
        let (pooled, _) = block.forward(&zeros);
        for co in 0..3 {
            for s in 0..4 {
                prop_assert_eq!(pooled.data()[co * 4 + s], block.bias.value.data()[co].max(0.0));
            }
        }
    }

    #[test]
    fn bce_loss_nonnegative_and_grad_bounded(
        seed in 0u64..10_000, n in 1usize..32,
    ) {
        let mut rng = SeededRng::new(seed);
        let logits = Tensor::randn([n], 0.0, 3.0, &mut rng);
        let target_vec: Vec<f32> = (0..n).map(|_| if rng.chance(0.5) { 1.0 } else { 0.0 }).collect();
        let targets = Tensor::from_vec([n], target_vec).unwrap();
        let (loss, grad) = bce_with_logits(&logits, &targets);
        prop_assert!(loss >= 0.0);
        for &g in grad.data() {
            prop_assert!(g.abs() <= 1.0 / n as f32 + 1e-6);
        }
    }

    #[test]
    fn smooth_l1_zero_at_target(seed in 0u64..10_000, n in 1usize..8) {
        let mut rng = SeededRng::new(seed);
        let target = Tensor::randn([n, 4], 0.0, 1.0, &mut rng);
        let mask = vec![1.0f32; n];
        let (loss, grad) = smooth_l1(&target, &target, &mask);
        prop_assert_eq!(loss, 0.0);
        prop_assert_eq!(grad.sq_norm(), 0.0);
    }

    #[test]
    fn cross_entropy_decreases_with_correct_logit(
        seed in 0u64..10_000, boost in 1f32..5.0,
    ) {
        let mut rng = SeededRng::new(seed);
        let logits = Tensor::randn([1, 4], 0.0, 1.0, &mut rng);
        let (l1, _) = softmax_cross_entropy(&logits, &[2]);
        let mut boosted = logits.clone();
        boosted.data_mut()[2] += boost;
        let (l2, _) = softmax_cross_entropy(&boosted, &[2]);
        prop_assert!(l2 < l1);
    }

    #[test]
    fn iou_bounded_and_symmetric(
        ax in 0f32..1.0, ay in 0f32..1.0, aw in 0.01f32..0.5, ah in 0.01f32..0.5,
        bx in 0f32..1.0, by in 0f32..1.0, bw in 0.01f32..0.5, bh in 0.01f32..0.5,
    ) {
        let a = BBox::new(ax, ay, aw, ah);
        let b = BBox::new(bx, by, bw, bh);
        let v = iou(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-6).contains(&v));
        prop_assert!((v - iou(&b, &a)).abs() < 1e-6);
    }

    #[test]
    fn ap_is_bounded_and_monotone_in_matches(
        n in 1usize..20, seed in 0u64..10_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let dets: Vec<(f32, bool)> = (0..n).map(|_| (rng.uniform(), rng.chance(0.5))).collect();
        let (ap, _) = average_precision(&dets, n);
        prop_assert!((0.0..=1.0 + 1e-6).contains(&ap));
        // Turning every detection into a match can only raise AP.
        let all_hits: Vec<(f32, bool)> = dets.iter().map(|&(s, _)| (s, true)).collect();
        let (ap_all, _) = average_precision(&all_hits, n);
        prop_assert!(ap_all + 1e-6 >= ap);
    }

    #[test]
    fn model_forward_is_deterministic(seed in 0u64..1_000) {
        let mut rng = SeededRng::new(seed);
        let mut model = SppNet::new(SppNetConfig::tiny(), &mut rng);
        let x = Tensor::randn([1, 1, 16, 16], 0.0, 1.0, &mut rng);
        let a = model.forward(&x);
        let b = model.forward(&x);
        prop_assert_eq!(a.obj_logits.data(), b.obj_logits.data());
        prop_assert_eq!(a.boxes.data(), b.boxes.data());
    }
}
