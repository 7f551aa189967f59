//! Minibatch training loop for the SPP-Net detector.
//!
//! Mirrors the paper's §6.1 setup: SGD (lr 0.005, momentum 0.9, weight decay
//! 0.0005), batch size 20, objectness + box-regression loss.

use crate::detect::Sample;
use crate::loss::{bce_with_logits, smooth_l1};
use crate::metrics::{evaluate_detections, PrPoint};
use crate::sgd::Sgd;
use crate::sppnet::SppNet;
use crate::BBox;
use dcd_tensor::{SeededRng, Tensor};
use rayon::prelude::*;

/// Training-loop configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size (the paper uses 20).
    pub batch_size: usize,
    /// Optimizer settings.
    pub sgd: Sgd,
    /// Relative weight of the box-regression loss.
    pub box_loss_weight: f32,
    /// Seed for epoch shuffling.
    pub shuffle_seed: u64,
    /// Step learning-rate decay: halve the rate every `n` epochs
    /// (`None` = constant rate, the paper's setting).
    pub lr_decay_every: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 20,
            sgd: Sgd::paper(),
            box_loss_weight: 1.0,
            shuffle_seed: 0,
            lr_decay_every: None,
        }
    }
}

/// Per-epoch statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean total loss over batches.
    pub loss: f32,
    /// Mean objectness loss.
    pub obj_loss: f32,
    /// Mean box-regression loss.
    pub box_loss: f32,
}

/// Stacks equally-shaped sample images into one `[N, ...]` batch tensor,
/// copying each image directly into its slot in parallel (single output
/// buffer, no per-sample clones).
fn stack_images(images: &[&Tensor]) -> Tensor {
    let n = images.len();
    assert!(n > 0, "empty batch");
    let sample_len = images[0].numel();
    let mut data = vec![0.0f32; n * sample_len];
    data.par_chunks_mut(sample_len)
        .zip(images.par_iter())
        .for_each(|(dst, img)| dst.copy_from_slice(img.data()));
    let mut dims = vec![n];
    dims.extend_from_slice(images[0].dims());
    Tensor::from_vec(dims, data).expect("batch tensor")
}

/// Drives SGD training of an [`SppNet`].
pub struct Trainer {
    /// Loop configuration.
    pub config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        assert!(config.batch_size > 0, "batch size must be positive");
        assert!(config.epochs > 0, "epochs must be positive");
        Trainer { config }
    }

    /// Assembles one minibatch into `(images, obj_targets, box_targets, mask)`.
    fn batch_tensors(samples: &[&Sample]) -> (Tensor, Tensor, Tensor, Vec<f32>) {
        // Each sample copies straight into its batch slot in parallel — one
        // pass, no intermediate per-sample clones or stack.
        let x = stack_images(
            samples
                .iter()
                .map(|s| &s.image)
                .collect::<Vec<_>>()
                .as_slice(),
        );
        let n = samples.len();
        let mut obj = Tensor::zeros([n]);
        let mut boxes = Tensor::zeros([n, 4]);
        let mut mask = vec![0.0f32; n];
        for (i, s) in samples.iter().enumerate() {
            if let Some(b) = s.label {
                obj.data_mut()[i] = 1.0;
                boxes.data_mut()[i * 4..(i + 1) * 4].copy_from_slice(&b.to_vec());
                mask[i] = 1.0;
            }
        }
        (x, obj, boxes, mask)
    }

    /// The optimizer for a given epoch, with step decay applied.
    fn epoch_sgd(&self, epoch: usize) -> Sgd {
        let mut sgd = self.config.sgd;
        if let Some(every) = self.config.lr_decay_every {
            let halvings = (epoch / every.max(1)) as i32;
            sgd.lr *= 0.5f32.powi(halvings);
        }
        sgd
    }

    /// Runs one gradient step on a minibatch; returns `(total, obj, box)` loss.
    pub fn train_batch(&self, model: &mut SppNet, samples: &[&Sample]) -> (f32, f32, f32) {
        self.train_batch_with(model, samples, self.config.sgd)
    }

    /// [`Trainer::train_batch`] with an explicit optimizer (used by the
    /// epoch loop to apply learning-rate decay).
    fn train_batch_with(
        &self,
        model: &mut SppNet,
        samples: &[&Sample],
        sgd: Sgd,
    ) -> (f32, f32, f32) {
        let _span = dcd_obs::span("train.batch", dcd_obs::Category::Train);
        dcd_obs::counter!("train.batches").inc();
        let (x, obj_t, box_t, mask) = Self::batch_tensors(samples);
        let out = model.forward(&x);
        let (obj_loss, grad_obj) = bce_with_logits(&out.obj_logits, &obj_t);
        let (box_loss, grad_box) = smooth_l1(&out.boxes, &box_t, &mask);
        model.backward_params(&grad_obj, &grad_box.scale(self.config.box_loss_weight));
        sgd.step(&mut model.params_mut());
        let total = obj_loss + self.config.box_loss_weight * box_loss;
        (total, obj_loss, box_loss)
    }

    /// Training with validation-based model selection: after each epoch the
    /// model is scored on `validation` (AP at `iou_threshold`) and the best
    /// epoch's weights are restored at the end — the standard guard against
    /// reporting a mid-oscillation snapshot.
    ///
    /// Returns `(history, best_val_ap)`.
    pub fn train_with_validation(
        &self,
        model: &mut SppNet,
        train: &[Sample],
        validation: &[Sample],
        iou_threshold: f32,
    ) -> (Vec<EpochStats>, f32) {
        assert!(!validation.is_empty(), "need validation samples");
        let mut best_ap = f32::NEG_INFINITY;
        let mut best_weights: Option<Vec<Tensor>> = None;
        let history = self.run_epochs(model, train, |model| {
            let (ap, _) = evaluate(model, validation, iou_threshold);
            if ap > best_ap {
                best_ap = ap;
                best_weights = Some(model.params_mut().iter().map(|p| p.value.clone()).collect());
            }
        });
        if let Some(weights) = best_weights {
            for (p, w) in model.params_mut().iter_mut().zip(weights) {
                p.value = w;
            }
        }
        (history, best_ap)
    }

    /// Full training run; returns per-epoch statistics.
    pub fn train(&self, model: &mut SppNet, samples: &[Sample]) -> Vec<EpochStats> {
        self.run_epochs(model, samples, |_| {})
    }

    /// The epoch loop: each epoch reshuffles, applies the learning-rate
    /// decay, trains every minibatch and records its mean losses, then
    /// hands the model to `after_epoch`.
    fn run_epochs(
        &self,
        model: &mut SppNet,
        samples: &[Sample],
        mut after_epoch: impl FnMut(&mut SppNet),
    ) -> Vec<EpochStats> {
        assert!(!samples.is_empty(), "cannot train on an empty dataset");
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut rng = SeededRng::new(self.config.shuffle_seed);
        let mut history = Vec::with_capacity(self.config.epochs);
        for epoch in 0..self.config.epochs {
            let _epoch_span = dcd_obs::span("train.epoch", dcd_obs::Category::Train);
            rng.shuffle(&mut order);
            let sgd = self.epoch_sgd(epoch);
            let mut sums = (0.0f32, 0.0f32, 0.0f32);
            let mut batches = 0usize;
            for chunk in order.chunks(self.config.batch_size) {
                let batch: Vec<&Sample> = chunk.iter().map(|&i| &samples[i]).collect();
                let (t, o, b) = self.train_batch_with(model, &batch, sgd);
                sums.0 += t;
                sums.1 += o;
                sums.2 += b;
                batches += 1;
            }
            let inv = 1.0 / batches.max(1) as f32;
            history.push(EpochStats {
                epoch,
                loss: sums.0 * inv,
                obj_loss: sums.1 * inv,
                box_loss: sums.2 * inv,
            });
            after_epoch(model);
        }
        history
    }
}

/// Evaluates a model on a labelled set, returning `(AP, PR curve)` at the
/// given IoU threshold (paper uses AP at IoU 0.5).
pub fn evaluate(model: &SppNet, samples: &[Sample], iou_threshold: f32) -> (f32, Vec<PrPoint>) {
    evaluate_batched(model, samples, iou_threshold, 20)
}

/// [`evaluate`] with an explicit inference batch size.
pub fn evaluate_batched(
    model: &SppNet,
    samples: &[Sample],
    iou_threshold: f32,
    batch_size: usize,
) -> (f32, Vec<PrPoint>) {
    let mut preds: Vec<(f32, BBox)> = Vec::with_capacity(samples.len());
    let mut truths: Vec<Option<BBox>> = Vec::with_capacity(samples.len());
    for chunk in samples.chunks(batch_size.max(1)) {
        let x = stack_images(
            chunk
                .iter()
                .map(|s| &s.image)
                .collect::<Vec<_>>()
                .as_slice(),
        );
        for (det, s) in model.predict(&x).into_iter().zip(chunk.iter()) {
            preds.push((det.score, det.bbox));
            truths.push(s.label);
        }
    }
    evaluate_detections(&preds, &truths, iou_threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sppnet::SppNetConfig;
    use dcd_tensor::SeededRng;

    /// A linearly-separable toy detection set: positives have a bright blob
    /// at a known location, negatives are dim noise.
    fn toy_dataset(n_pos: usize, n_neg: usize, seed: u64) -> Vec<Sample> {
        let mut rng = SeededRng::new(seed);
        let mut samples = Vec::new();
        for _ in 0..n_pos {
            let mut img = Tensor::randn([1, 16, 16], 0.0, 0.1, &mut rng);
            // Bright 4x4 blob centred at (8, 8).
            for y in 6..10 {
                for x in 6..10 {
                    img.set(&[0, y, x], 2.0);
                }
            }
            samples.push(Sample::positive(img, BBox::new(0.5, 0.5, 0.25, 0.25)));
        }
        for _ in 0..n_neg {
            samples.push(Sample::negative(Tensor::randn(
                [1, 16, 16],
                0.0,
                0.1,
                &mut rng,
            )));
        }
        samples
    }

    #[test]
    fn loss_decreases_on_toy_problem() {
        let mut rng = SeededRng::new(7);
        let mut model = SppNet::new(SppNetConfig::tiny(), &mut rng);
        let data = toy_dataset(10, 10, 1);
        let trainer = Trainer::new(TrainConfig {
            epochs: 8,
            batch_size: 5,
            sgd: Sgd::new(0.01, 0.9, 0.0005),
            ..Default::default()
        });
        let history = trainer.train(&mut model, &data);
        assert_eq!(history.len(), 8);
        let first = history.first().unwrap().loss;
        let last = history.last().unwrap().loss;
        assert!(
            last < first,
            "loss should decrease: first {first}, last {last}"
        );
        assert!(last.is_finite());
    }

    #[test]
    fn trained_model_beats_chance_ap() {
        let mut rng = SeededRng::new(21);
        let mut model = SppNet::new(SppNetConfig::tiny(), &mut rng);
        let train_set = toy_dataset(16, 16, 2);
        let test_set = toy_dataset(8, 8, 3);
        let trainer = Trainer::new(TrainConfig {
            epochs: 15,
            batch_size: 8,
            sgd: Sgd::new(0.02, 0.9, 0.0005),
            ..Default::default()
        });
        trainer.train(&mut model, &train_set);
        // Lenient IoU: we check the detector separates pos/neg scores.
        let (ap, _) = evaluate(&model, &test_set, 0.1);
        assert!(ap > 0.6, "AP {ap} should beat chance on separable data");
    }

    #[test]
    fn evaluate_batched_is_batch_size_invariant() {
        let mut rng = SeededRng::new(5);
        let model = SppNet::new(SppNetConfig::tiny(), &mut rng);
        let data = toy_dataset(4, 4, 9);
        let (ap1, _) = evaluate_batched(&model, &data, 0.5, 1);
        let (ap8, _) = evaluate_batched(&model, &data, 0.5, 8);
        assert!((ap1 - ap8).abs() < 1e-6);
    }

    #[test]
    fn batch_tensors_encode_labels() {
        let data = toy_dataset(1, 1, 0);
        let refs: Vec<&Sample> = data.iter().collect();
        let (x, obj, boxes, mask) = Trainer::batch_tensors(&refs);
        assert_eq!(x.dims(), &[2, 1, 16, 16]);
        assert_eq!(obj.data(), &[1.0, 0.0]);
        assert_eq!(mask, vec![1.0, 0.0]);
        assert_eq!(&boxes.data()[0..4], &[0.5, 0.5, 0.25, 0.25]);
        assert_eq!(&boxes.data()[4..8], &[0.0; 4]);
    }

    #[test]
    fn validation_selection_never_worse_than_final_epoch() {
        let mut rng = SeededRng::new(31);
        let data = toy_dataset(12, 12, 4);
        let val = toy_dataset(6, 6, 5);
        let tc = TrainConfig {
            epochs: 10,
            batch_size: 8,
            sgd: Sgd::new(0.03, 0.9, 0.0005), // deliberately jumpy
            ..Default::default()
        };
        // Plain training, score the final snapshot.
        let mut plain = SppNet::new(SppNetConfig::tiny(), &mut rng);
        Trainer::new(tc).train(&mut plain, &data);
        let (final_ap, _) = evaluate(&plain, &val, 0.1);
        // Validation-selected training on the identical setup.
        let mut selected = SppNet::new(SppNetConfig::tiny(), &mut SeededRng::new(31));
        let (_, best_ap) = Trainer::new(tc).train_with_validation(&mut selected, &data, &val, 0.1);
        assert!(
            best_ap + 1e-6 >= final_ap,
            "selected {best_ap} < final {final_ap}"
        );
        // The restored weights actually reproduce the best validation AP.
        let (restored_ap, _) = evaluate(&selected, &val, 0.1);
        assert!((restored_ap - best_ap).abs() < 1e-6);
    }

    #[test]
    fn validation_leaves_the_epoch_losses_bitwise() {
        // Decay every other epoch, so both runs also share the rate schedule.
        let data = toy_dataset(6, 6, 6);
        let val = toy_dataset(3, 3, 7);
        let tc = TrainConfig {
            epochs: 4,
            batch_size: 5,
            sgd: Sgd::new(0.02, 0.9, 0.0005),
            lr_decay_every: Some(2),
            ..Default::default()
        };
        let mut plain = SppNet::new(SppNetConfig::tiny(), &mut SeededRng::new(12));
        let mut selected = SppNet::new(SppNetConfig::tiny(), &mut SeededRng::new(12));
        let bits = |h: &[EpochStats]| -> Vec<(usize, [u32; 3])> {
            h.iter()
                .map(|e| {
                    let l = [e.loss, e.obj_loss, e.box_loss];
                    (e.epoch, l.map(f32::to_bits))
                })
                .collect()
        };
        let history = Trainer::new(tc).train(&mut plain, &data);
        let (validated, _) =
            Trainer::new(tc).train_with_validation(&mut selected, &data, &val, 0.1);
        assert_eq!(history.len(), 4);
        assert_eq!(bits(&history), bits(&validated));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn training_on_empty_set_panics() {
        let mut rng = SeededRng::new(0);
        let mut model = SppNet::new(SppNetConfig::tiny(), &mut rng);
        Trainer::new(TrainConfig::default()).train(&mut model, &[]);
    }
}
