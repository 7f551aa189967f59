//! Model evaluators: how a sampled architecture gets a score.

use dcd_nn::trainer::{evaluate, TrainConfig, Trainer};
use dcd_nn::{Sample, SppNet, SppNetConfig};
use dcd_tensor::SeededRng;

/// Scores one architecture; higher is better (the paper's `a(n)`).
pub trait Evaluator {
    /// Evaluates a configuration, returning its score (e.g. test AP).
    fn evaluate(&self, config: &SppNetConfig) -> f64;
}

/// Retiarii's default evaluator: an arbitrary scoring function.
///
/// The paper: "For the model evaluator, we used FunctionalEvaluator, which is
/// the default evaluator provided by the Retiarii framework."
pub struct FunctionalEvaluator<F: Fn(&SppNetConfig) -> f64> {
    f: F,
}

impl<F: Fn(&SppNetConfig) -> f64> FunctionalEvaluator<F> {
    /// Wraps a scoring function.
    pub fn new(f: F) -> Self {
        FunctionalEvaluator { f }
    }
}

impl<F: Fn(&SppNetConfig) -> f64> Evaluator for FunctionalEvaluator<F> {
    fn evaluate(&self, config: &SppNetConfig) -> f64 {
        (self.f)(config)
    }
}

/// Trains a real `dcd-nn` SPP-Net on a patch dataset and scores it by test
/// AP at the given IoU threshold — the full §6.1 loop.
pub struct TrainingEvaluator {
    /// Training samples.
    pub train: Vec<Sample>,
    /// Held-out samples scored for AP.
    pub test: Vec<Sample>,
    /// Training-loop settings (epochs, batch 20, SGD lr 0.005 …).
    pub train_config: TrainConfig,
    /// IoU threshold for a detection to count (0.5 is standard).
    pub iou_threshold: f32,
    /// Weight-init seed (shared across trials so architecture is the only
    /// variable).
    pub init_seed: u64,
}

impl TrainingEvaluator {
    /// Standard evaluator over a train/test split.
    pub fn new(train: Vec<Sample>, test: Vec<Sample>, train_config: TrainConfig) -> Self {
        TrainingEvaluator {
            train,
            test,
            train_config,
            iou_threshold: 0.5,
            init_seed: 0,
        }
    }
}

impl Evaluator for TrainingEvaluator {
    fn evaluate(&self, config: &SppNetConfig) -> f64 {
        crate::halving::BudgetedEvaluator::evaluate_budgeted(self, config, 1.0)
    }
}

impl crate::halving::BudgetedEvaluator for TrainingEvaluator {
    /// A fractional budget scales the number of training epochs — the
    /// natural rung currency for successive halving.
    fn evaluate_budgeted(&self, config: &SppNetConfig, budget: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&budget) && budget > 0.0,
            "budget in (0, 1]"
        );
        let mut rng = SeededRng::new(self.init_seed);
        let mut model = SppNet::new(config.clone(), &mut rng);
        let mut tc = self.train_config;
        tc.epochs = ((tc.epochs as f64 * budget).round() as usize).max(1);
        Trainer::new(tc).train(&mut model, &self.train);
        let (ap, _) = evaluate(&model, &self.test, self.iou_threshold);
        ap as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_nn::{BBox, Sgd};
    use dcd_tensor::Tensor;

    #[test]
    fn functional_evaluator_calls_through() {
        let e = FunctionalEvaluator::new(|cfg: &SppNetConfig| cfg.fc1 as f64);
        assert_eq!(e.evaluate(&SppNetConfig::original()), 1024.0);
        assert_eq!(e.evaluate(&SppNetConfig::candidate2()), 4096.0);
    }

    fn toy_samples(n: usize, seed: u64) -> Vec<Sample> {
        let mut rng = SeededRng::new(seed);
        (0..n)
            .map(|i| {
                let mut img = Tensor::randn([1, 16, 16], 0.0, 0.1, &mut rng);
                if i % 2 == 0 {
                    for y in 6..10 {
                        for x in 6..10 {
                            img.set(&[0, y, x], 2.0);
                        }
                    }
                    Sample::positive(img, BBox::new(0.5, 0.5, 0.25, 0.25))
                } else {
                    Sample::negative(img)
                }
            })
            .collect()
    }

    #[test]
    fn training_evaluator_returns_valid_ap() {
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 4,
            sgd: Sgd::new(0.01, 0.9, 0.0005),
            ..Default::default()
        };
        let e = TrainingEvaluator::new(toy_samples(8, 1), toy_samples(4, 2), cfg);
        let ap = e.evaluate(&SppNetConfig::tiny());
        assert!((0.0..=1.0).contains(&ap), "AP {ap} out of range");
    }

    #[test]
    fn training_evaluator_is_deterministic() {
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 4,
            sgd: Sgd::new(0.01, 0.9, 0.0005),
            ..Default::default()
        };
        let e = TrainingEvaluator::new(toy_samples(8, 1), toy_samples(4, 2), cfg);
        let a = e.evaluate(&SppNetConfig::tiny());
        let b = e.evaluate(&SppNetConfig::tiny());
        assert_eq!(a, b);
    }
}
