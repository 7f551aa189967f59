//! Public detector API for downstream users.

use dcd_nn::trainer::{evaluate_batched, TrainConfig, Trainer};
use dcd_nn::{Detection, Sample, SppNet, SppNetConfig};
use dcd_tensor::{SeededRng, Tensor};

/// A trained drainage-crossing detector with a confidence threshold.
///
/// The paper's related work (§8.1) filters at confidence 0.7; we default to
/// 0.5, tunable per deployment.
pub struct DrainageCrossingDetector {
    model: SppNet,
    /// Minimum objectness score for a detection to be reported.
    pub threshold: f32,
}

impl DrainageCrossingDetector {
    /// Trains a detector from scratch on labelled patches.
    pub fn train(
        config: SppNetConfig,
        samples: &[Sample],
        train_config: TrainConfig,
        seed: u64,
    ) -> Self {
        let mut rng = SeededRng::new(seed);
        let mut model = SppNet::new(config, &mut rng);
        Trainer::new(train_config).train(&mut model, samples);
        DrainageCrossingDetector {
            model,
            threshold: 0.5,
        }
    }

    /// Wraps an already-trained model.
    pub fn from_model(model: SppNet) -> Self {
        DrainageCrossingDetector {
            model,
            threshold: 0.5,
        }
    }

    /// The architecture of the wrapped model.
    pub fn config(&self) -> &SppNetConfig {
        &self.model.config
    }

    /// The wrapped model.
    pub fn model(&self) -> &SppNet {
        &self.model
    }

    /// Detects the crossing in one `[C, H, W]` patch; `None` below the
    /// confidence threshold.
    pub fn detect(&self, image: &Tensor) -> Option<Detection> {
        self.detect_batch(std::slice::from_ref(image))
            .pop()
            .flatten()
    }

    /// Batch detection over patches of identical shape.
    pub fn detect_batch(&self, images: &[Tensor]) -> Vec<Option<Detection>> {
        if images.is_empty() {
            return Vec::new();
        }
        let x = Tensor::stack(images);
        self.detect_tensor(&x)
    }

    /// [`DrainageCrossingDetector::detect_batch`] over an already-assembled
    /// `[N, C, H, W]` batch tensor — the scan hot path, which reuses one
    /// batch buffer across tiles instead of stacking per-patch tensors.
    pub fn detect_tensor(&self, x: &Tensor) -> Vec<Option<Detection>> {
        self.detect_from_block(0, x)
    }

    /// [`DrainageCrossingDetector::detect_tensor`] on feature maps that
    /// enter the model at C–P block `block` (see
    /// [`SppNet::forward_inference_from`]) — the scene scan's shared trunk
    /// computes the earlier blocks itself.
    pub fn detect_from_block(&self, block: usize, x: &Tensor) -> Vec<Option<Detection>> {
        self.model
            .predict_from(block, x)
            .into_iter()
            .map(|d| {
                if d.score >= self.threshold {
                    Some(d)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Test-set AP at an IoU threshold (paper metric, Eq. 1).
    pub fn average_precision(&self, samples: &[Sample], iou_threshold: f32) -> f32 {
        evaluate_batched(&self.model, samples, iou_threshold, 20).0
    }

    /// Mutable access to the underlying model (fine-tuning, lowering).
    pub fn model_mut(&mut self) -> &mut SppNet {
        &mut self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_nn::{BBox, Sgd};

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

    fn quick_train() -> DrainageCrossingDetector {
        DrainageCrossingDetector::train(
            SppNetConfig::tiny(),
            &toy_samples(16, 1),
            TrainConfig {
                epochs: 10,
                batch_size: 8,
                sgd: Sgd::new(0.02, 0.9, 0.0005),
                ..Default::default()
            },
            7,
        )
    }

    #[test]
    fn trained_detector_separates_toy_classes() {
        let mut det = quick_train();
        det.threshold = 0.0; // look at raw scores
        let test = toy_samples(8, 2);
        let images: Vec<Tensor> = test.iter().map(|s| s.image.clone()).collect();
        let dets = det.detect_batch(&images);
        let pos_mean: f32 = dets
            .iter()
            .zip(test.iter())
            .filter(|(_, s)| s.is_positive())
            .map(|(d, _)| d.unwrap().score)
            .sum::<f32>()
            / 4.0;
        let neg_mean: f32 = dets
            .iter()
            .zip(test.iter())
            .filter(|(_, s)| !s.is_positive())
            .map(|(d, _)| d.unwrap().score)
            .sum::<f32>()
            / 4.0;
        assert!(
            pos_mean > neg_mean,
            "positive mean {pos_mean} vs negative {neg_mean}"
        );
    }

    #[test]
    fn threshold_filters_detections() {
        let mut det = quick_train();
        det.threshold = 1.1; // impossible
        let img = toy_samples(1, 3).remove(0).image;
        assert!(det.detect(&img).is_none());
    }

    #[test]
    fn average_precision_in_unit_range() {
        let det = quick_train();
        let ap = det.average_precision(&toy_samples(8, 4), 0.1);
        assert!((0.0..=1.0).contains(&ap));
    }

    #[test]
    fn empty_batch_is_empty() {
        let det = quick_train();
        assert!(det.detect_batch(&[]).is_empty());
    }
}
