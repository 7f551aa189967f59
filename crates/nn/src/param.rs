//! Trainable parameters.

use dcd_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A trainable tensor with its gradient accumulator and momentum buffer.
///
/// Layers own their `Param`s; the optimizer walks them through
/// [`crate::SppNet::params_mut`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by the most recent backward pass.
    pub grad: Tensor,
    /// SGD momentum buffer (velocity).
    pub velocity: Tensor,
    /// Whether weight decay applies (true for weights, false for biases,
    /// matching the usual convention).
    pub decay: bool,
}

impl Param {
    /// Wraps an initialized tensor as a trainable parameter.
    pub fn new(value: Tensor, decay: bool) -> Self {
        let grad = Tensor::zeros(value.shape().clone());
        let velocity = Tensor::zeros(value.shape().clone());
        Param {
            value,
            grad,
            velocity,
            decay,
        }
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad_and_velocity() {
        let p = Param::new(Tensor::ones([2, 3]), true);
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.velocity.sum(), 0.0);
        assert_eq!(p.numel(), 6);
    }
}
