//! Stochastic gradient descent with momentum and weight decay.
//!
//! Matches the paper's training setup (§6.1): lr 0.005, weight decay 0.0005,
//! momentum 0.9. Uses the classic (non-Nesterov) momentum update PyTorch's
//! `SGD` applies:
//!
//! ```text
//! g   = grad + wd·w          (decay only on parameters flagged for it)
//! v   = momentum·v + g
//! w  -= lr·v
//! ```

use crate::param::Param;

/// SGD optimizer configuration and update rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient in `[0, 1)`.
    pub momentum: f32,
    /// L2 weight-decay coefficient.
    pub weight_decay: f32,
}

impl Sgd {
    /// The paper's hyper-parameters: lr 0.005, momentum 0.9, decay 0.0005.
    pub fn paper() -> Self {
        Sgd {
            lr: 0.005,
            momentum: 0.9,
            weight_decay: 0.0005,
        }
    }

    /// Custom configuration.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        Sgd {
            lr,
            momentum,
            weight_decay,
        }
    }

    /// Applies one update to every parameter, clearing each gradient as it
    /// is consumed: one pass over the four arrays.
    pub fn step(&self, params: &mut [&mut Param]) {
        for p in params.iter_mut() {
            let wd = if p.decay { self.weight_decay } else { 0.0 };
            let Param {
                value,
                grad,
                velocity,
                ..
            } = &mut **p;
            assert_eq!(value.shape(), grad.shape(), "gradient shape mismatch");
            assert_eq!(value.shape(), velocity.shape(), "velocity shape mismatch");
            let lanes = value.data_mut().iter_mut().zip(velocity.data_mut());
            for ((w, v), gr) in lanes.zip(grad.data_mut()) {
                let g = *gr + wd * *w;
                *v = self.momentum * *v + g;
                *w -= self.lr * *v;
                *gr = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_tensor::Tensor;

    fn param_with_grad(value: f32, grad: f32, decay: bool) -> Param {
        let mut p = Param::new(Tensor::full([1], value), decay);
        p.grad.data_mut()[0] = grad;
        p
    }

    #[test]
    fn vanilla_step_descends_gradient() {
        let sgd = Sgd::new(0.1, 0.0, 0.0);
        let mut p = param_with_grad(1.0, 2.0, false);
        sgd.step(&mut [&mut p]);
        assert!((p.value.data()[0] - 0.8).abs() < 1e-6);
        assert_eq!(p.grad.data()[0], 0.0, "grad cleared after step");
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let sgd = Sgd::new(0.1, 0.9, 0.0);
        let mut p = param_with_grad(0.0, 1.0, false);
        sgd.step(&mut [&mut p]);
        assert!((p.value.data()[0] + 0.1).abs() < 1e-6); // v=1
        p.grad.data_mut()[0] = 1.0;
        sgd.step(&mut [&mut p]);
        // v = 0.9·1 + 1 = 1.9 → w = −0.1 − 0.19
        assert!((p.value.data()[0] + 0.29).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_applies_only_to_flagged_params() {
        let sgd = Sgd::new(1.0, 0.0, 0.1);
        let mut w = param_with_grad(1.0, 0.0, true);
        let mut b = param_with_grad(1.0, 0.0, false);
        sgd.step(&mut [&mut w, &mut b]);
        assert!((w.value.data()[0] - 0.9).abs() < 1e-6);
        assert!((b.value.data()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn paper_config_values() {
        let s = Sgd::paper();
        assert_eq!(s.lr, 0.005);
        assert_eq!(s.momentum, 0.9);
        assert_eq!(s.weight_decay, 0.0005);
    }

    #[test]
    fn converges_on_quadratic() {
        // Minimize f(w) = (w − 3)², grad = 2(w − 3).
        let sgd = Sgd::new(0.1, 0.9, 0.0);
        let mut p = Param::new(Tensor::zeros([1]), false);
        for _ in 0..100 {
            let w = p.value.data()[0];
            p.grad.data_mut()[0] = 2.0 * (w - 3.0);
            sgd.step(&mut [&mut p]);
        }
        assert!((p.value.data()[0] - 3.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_zero_lr() {
        Sgd::new(0.0, 0.9, 0.0);
    }
}
