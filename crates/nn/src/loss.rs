//! Loss functions with analytic gradients.
//!
//! All losses return `(mean_loss, grad)` where `grad` is `d mean_loss / d
//! input` — ready to feed straight into `SppNet::backward`.

use dcd_tensor::Tensor;

/// Numerically-stable sigmoid.
#[inline]
pub fn sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Binary cross-entropy on logits.
///
/// `logits` and `targets` share shape; targets are in `{0, 1}` (soft targets
/// also work). Uses the standard stable form
/// `max(z,0) − z·t + ln(1 + e^(−|z|))`.
pub fn bce_with_logits(logits: &Tensor, targets: &Tensor) -> (f32, Tensor) {
    assert_eq!(logits.shape(), targets.shape(), "bce: shape mismatch");
    let n = logits.numel().max(1) as f32;
    let mut loss = 0.0f32;
    let mut grad = Tensor::zeros(logits.shape().clone());
    for i in 0..logits.numel() {
        let z = logits.data()[i];
        let t = targets.data()[i];
        loss += z.max(0.0) - z * t + (1.0 + (-z.abs()).exp()).ln();
        grad.data_mut()[i] = (sigmoid(z) - t) / n;
    }
    (loss / n, grad)
}

/// Smooth-L1 (Huber, δ=1) regression loss with an elementwise mask.
///
/// `mask` has one entry per row of `pred`; rows with mask 0 contribute
/// nothing (used to skip box regression on negative patches). The loss is
/// averaged over *masked* elements, matching Fast R-CNN practice.
#[allow(clippy::needless_range_loop)]
pub fn smooth_l1(pred: &Tensor, target: &Tensor, mask: &[f32]) -> (f32, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "smooth_l1: shape mismatch");
    let (rows, cols) = pred.shape().matrix();
    assert_eq!(mask.len(), rows, "smooth_l1: mask length mismatch");
    let active: f32 = mask.iter().map(|&m| m * cols as f32).sum();
    let denom = active.max(1.0);
    let mut loss = 0.0f32;
    let mut grad = Tensor::zeros(pred.shape().clone());
    for r in 0..rows {
        if mask[r] == 0.0 {
            continue;
        }
        for c in 0..cols {
            let i = r * cols + c;
            let d = pred.data()[i] - target.data()[i];
            if d.abs() < 1.0 {
                loss += 0.5 * d * d;
                grad.data_mut()[i] = d / denom;
            } else {
                loss += d.abs() - 0.5;
                grad.data_mut()[i] = d.signum() / denom;
            }
        }
    }
    (loss / denom, grad)
}

/// Softmax cross-entropy over rows of `logits` with integer class labels.
///
/// Returns the mean loss and its gradient (`softmax − onehot`, scaled by
/// `1/N`). Used by the rcnn-lite baseline's classifier head and in tests.
#[allow(clippy::needless_range_loop)]
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let (n, c) = logits.shape().matrix();
    assert_eq!(labels.len(), n, "cross_entropy: label count mismatch");
    let mut loss = 0.0f32;
    let mut grad = Tensor::zeros(logits.shape().clone());
    for r in 0..n {
        let row = &logits.data()[r * c..(r + 1) * c];
        let label = labels[r];
        assert!(label < c, "label {label} out of range for {c} classes");
        let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&z| (z - m).exp()).collect();
        let sum: f32 = exps.iter().sum();
        loss += -(exps[label] / sum).ln();
        for j in 0..c {
            let p = exps[j] / sum;
            grad.data_mut()[r * c + j] = (p - if j == label { 1.0 } else { 0.0 }) / n as f32;
        }
    }
    (loss / n as f32, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_tensor::grad_check::numeric_grad;

    #[test]
    fn sigmoid_extremes_and_center() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(40.0) > 0.999999);
        assert!(sigmoid(-40.0) < 1e-6);
        // Symmetry: σ(−z) = 1 − σ(z).
        assert!((sigmoid(-1.7) + sigmoid(1.7) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bce_perfect_prediction_is_small() {
        let logits = Tensor::from_vec([2], vec![20.0, -20.0]).unwrap();
        let targets = Tensor::from_vec([2], vec![1.0, 0.0]).unwrap();
        let (loss, _) = bce_with_logits(&logits, &targets);
        assert!(loss < 1e-6);
    }

    #[test]
    fn bce_wrong_prediction_is_large() {
        let logits = Tensor::from_vec([1], vec![-10.0]).unwrap();
        let targets = Tensor::from_vec([1], vec![1.0]).unwrap();
        let (loss, _) = bce_with_logits(&logits, &targets);
        assert!(loss > 9.0);
    }

    #[test]
    fn bce_gradient_matches_numeric() {
        let logits = Tensor::from_vec([3], vec![0.3, -1.2, 2.0]).unwrap();
        let targets = Tensor::from_vec([3], vec![1.0, 0.0, 1.0]).unwrap();
        let (_, grad) = bce_with_logits(&logits, &targets);
        let num = numeric_grad(&logits, 1e-3, |l| bce_with_logits(l, &targets).0);
        assert!(grad.max_abs_diff(&num) < 1e-3);
    }

    #[test]
    fn bce_stable_at_huge_logits() {
        let logits = Tensor::from_vec([2], vec![500.0, -500.0]).unwrap();
        let targets = Tensor::from_vec([2], vec![0.0, 1.0]).unwrap();
        let (loss, grad) = bce_with_logits(&logits, &targets);
        assert!(loss.is_finite());
        assert!(!grad.has_non_finite());
    }

    #[test]
    fn smooth_l1_quadratic_then_linear() {
        let pred = Tensor::from_vec([1, 2], vec![0.5, 3.0]).unwrap();
        let target = Tensor::zeros([1, 2]);
        let (loss, _) = smooth_l1(&pred, &target, &[1.0]);
        // (0.5·0.25 + (3 − 0.5)) / 2
        assert!((loss - (0.125 + 2.5) / 2.0).abs() < 1e-5);
    }

    #[test]
    fn smooth_l1_mask_skips_rows() {
        let pred = Tensor::from_vec([2, 2], vec![10., 10., 0.1, 0.1]).unwrap();
        let target = Tensor::zeros([2, 2]);
        let (loss_masked, grad) = smooth_l1(&pred, &target, &[0.0, 1.0]);
        // Only the second row contributes.
        assert!((loss_masked - 0.5 * 0.01).abs() < 1e-5);
        assert_eq!(grad.data()[0], 0.0);
        assert_eq!(grad.data()[1], 0.0);
        assert!(grad.data()[2] > 0.0);
    }

    #[test]
    fn smooth_l1_gradient_matches_numeric() {
        let pred = Tensor::from_vec([2, 2], vec![0.3, -2.0, 1.5, 0.0]).unwrap();
        let target = Tensor::from_vec([2, 2], vec![0.0, 0.0, 1.0, 0.2]).unwrap();
        let mask = [1.0, 1.0];
        let (_, grad) = smooth_l1(&pred, &target, &mask);
        let num = numeric_grad(&pred, 1e-3, |p| smooth_l1(p, &target, &mask).0);
        assert!(grad.max_abs_diff(&num) < 1e-2);
    }

    #[test]
    fn all_masked_smooth_l1_is_zero() {
        let pred = Tensor::ones([2, 4]);
        let target = Tensor::zeros([2, 4]);
        let (loss, grad) = smooth_l1(&pred, &target, &[0.0, 0.0]);
        assert_eq!(loss, 0.0);
        assert_eq!(grad.sq_norm(), 0.0);
    }

    #[test]
    fn cross_entropy_uniform_logits() {
        let logits = Tensor::zeros([1, 4]);
        let (loss, _) = softmax_cross_entropy(&logits, &[2]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_matches_numeric() {
        let logits = Tensor::from_vec([2, 3], vec![0.1, 1.0, -0.5, 2.0, 0.0, 0.3]).unwrap();
        let labels = [1usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let num = numeric_grad(&logits, 1e-3, |l| softmax_cross_entropy(l, &labels).0);
        assert!(grad.max_abs_diff(&num) < 1e-3);
    }

    #[test]
    fn cross_entropy_grad_rows_sum_to_zero() {
        let logits = Tensor::from_vec([1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let (_, grad) = softmax_cross_entropy(&logits, &[0]);
        assert!(grad.sum().abs() < 1e-6);
    }
}
