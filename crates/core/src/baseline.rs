//! `rcnn-lite`: a two-stage region-proposal baseline (§8.1 comparator).
//!
//! The paper's related work applies Faster R-CNN (ResNet-50 backbone) to the
//! same watershed and reports accuracy 0.882 / IoU 0.668. We build the
//! closest substitute our stack supports: dense window proposals over the
//! patch, each scored by a small CNN — the classic R-CNN recipe. It shares
//! the evaluation path with SPP-Net, and because it runs the CNN once *per
//! proposal* instead of once per patch, it demonstrates the same qualitative
//! trade-off: competitive accuracy at a much higher inference cost.

use dcd_geodata::render::clip_patch;
use dcd_nn::metrics::evaluate_detections;
use dcd_nn::trainer::{TrainConfig, Trainer};
use dcd_nn::{BBox, Detection, PrPoint, Sample, SppNet, SppNetConfig};
use dcd_tensor::{SeededRng, Tensor};

/// rcnn-lite parameters.
#[derive(Debug, Clone, Copy)]
pub struct RcnnLiteConfig {
    /// Proposal window side length, pixels.
    pub window: usize,
    /// Proposals per axis (total = grid²).
    pub grid: usize,
    /// Scorer training settings.
    pub train: TrainConfig,
}

impl RcnnLiteConfig {
    /// Defaults sized for `patch`-pixel inputs: windows of a third of the
    /// patch on a 5×5 proposal grid.
    pub fn for_patch(patch: usize) -> Self {
        RcnnLiteConfig {
            window: (patch / 3).max(8),
            grid: 5,
            train: TrainConfig::default(),
        }
    }
}

/// The two-stage baseline detector.
pub struct RcnnLite {
    scorer: SppNet,
    config: RcnnLiteConfig,
}

impl RcnnLite {
    /// Trains the proposal scorer.
    ///
    /// Positive crops are windows centred on the ground-truth box; negative
    /// crops come from negative patches and from off-crossing corners of
    /// positive patches (hard negatives).
    pub fn train(samples: &[Sample], config: RcnnLiteConfig, seed: u64) -> Self {
        let mut rng = SeededRng::new(seed);
        let bands = samples.first().map(|s| s.image.dims()[0]).unwrap_or(4);
        let mut scorer_cfg = SppNetConfig::tiny();
        scorer_cfg.in_channels = bands;
        scorer_cfg.channels = [8, 16, 16];
        scorer_cfg.fc1 = 64;
        let mut scorer = SppNet::new(scorer_cfg, &mut rng);

        let mut crops: Vec<Sample> = Vec::new();
        for s in samples {
            let dims = s.image.dims();
            let (h, w) = (dims[1], dims[2]);
            match s.label {
                Some(b) => {
                    let cx = (b.cx * w as f32) as usize;
                    let cy = (b.cy * h as f32) as usize;
                    let crop = clip_patch(&s.image, cx, cy, config.window);
                    // The crossing is centred in its proposal window; its
                    // extent converts from patch to window coordinates.
                    let ww = (b.w * w as f32 / config.window as f32).min(1.5);
                    let wh = (b.h * h as f32 / config.window as f32).min(1.5);
                    crops.push(Sample::positive(crop, BBox::new(0.5, 0.5, ww, wh)));
                    // Hard negatives: windows of the same patch away from
                    // the crossing — they contain the road or the stream
                    // alone, which is exactly what the scorer must reject.
                    for _ in 0..2 {
                        for _attempt in 0..20 {
                            let nx = config.window / 2
                                + rng.index(w.saturating_sub(config.window).max(1));
                            let ny = config.window / 2
                                + rng.index(h.saturating_sub(config.window).max(1));
                            let far = nx.abs_diff(cx).max(ny.abs_diff(cy)) > config.window / 2;
                            if far {
                                crops.push(Sample::negative(clip_patch(
                                    &s.image,
                                    nx,
                                    ny,
                                    config.window,
                                )));
                                break;
                            }
                        }
                    }
                }
                None => {
                    for _ in 0..2 {
                        let cx =
                            config.window / 2 + rng.index(w.saturating_sub(config.window).max(1));
                        let cy =
                            config.window / 2 + rng.index(h.saturating_sub(config.window).max(1));
                        crops.push(Sample::negative(clip_patch(
                            &s.image,
                            cx,
                            cy,
                            config.window,
                        )));
                    }
                }
            }
        }
        Trainer::new(config.train).train(&mut scorer, &crops);
        RcnnLite { scorer, config }
    }

    /// Number of proposals evaluated per patch (grid²) — the per-image CNN
    /// invocation count that makes two-stage detection slow.
    pub fn proposals_per_image(&self) -> usize {
        self.config.grid * self.config.grid
    }

    /// Detects the crossing in a `[C, H, W]` patch: scores every proposal
    /// window, returns the best as a detection in patch coordinates.
    pub fn detect(&self, image: &Tensor) -> Detection {
        let dims = image.dims();
        let (h, w) = (dims[1], dims[2]);
        let g = self.config.grid;
        let mut crops: Vec<Tensor> = Vec::with_capacity(g * g);
        let mut centers: Vec<(usize, usize)> = Vec::with_capacity(g * g);
        // Interior grid: every window lies fully inside the patch, matching
        // the (padding-free) crops the scorer was trained on.
        let win = self.config.window;
        let span_x = w.saturating_sub(win);
        let span_y = h.saturating_sub(win);
        for gy in 0..g {
            for gx in 0..g {
                let cx = win / 2
                    + if g > 1 {
                        gx * span_x / (g - 1)
                    } else {
                        span_x / 2
                    };
                let cy = win / 2
                    + if g > 1 {
                        gy * span_y / (g - 1)
                    } else {
                        span_y / 2
                    };
                crops.push(clip_patch(image, cx, cy, win));
                centers.push((cx, cy));
            }
        }
        let x = Tensor::stack(&crops);
        let dets = self.scorer.predict(&x);
        let (best_i, best) = dets
            .iter()
            .enumerate()
            .max_by(|a, b| {
                // NaN logits rank last instead of panicking the selection.
                let rank = |s: f32| if s.is_nan() { f32::NEG_INFINITY } else { s };
                rank(a.1.score).total_cmp(&rank(b.1.score))
            })
            .expect("at least one proposal");
        // Second-stage refinement: the scorer regresses a box in *window*
        // coordinates; map it back to patch coordinates (the R-CNN recipe).
        let (cx, cy) = centers[best_i];
        let win = self.config.window as f32;
        let x0 = cx as f32 - win / 2.0;
        let y0 = cy as f32 - win / 2.0;
        Detection {
            score: best.score,
            bbox: BBox::new(
                (x0 + best.bbox.cx * win) / w as f32,
                (y0 + best.bbox.cy * win) / h as f32,
                (best.bbox.w * win / w as f32).clamp(0.02, 1.0),
                (best.bbox.h * win / h as f32).clamp(0.02, 1.0),
            ),
        }
    }

    /// Evaluates AP over labelled patches at an IoU threshold.
    pub fn evaluate(&self, samples: &[Sample], iou_threshold: f32) -> (f32, Vec<PrPoint>) {
        let preds: Vec<(f32, BBox)> = samples
            .iter()
            .map(|s| {
                let d = self.detect(&s.image);
                (d.score, d.bbox)
            })
            .collect();
        let truths: Vec<Option<BBox>> = samples.iter().map(|s| s.label).collect();
        evaluate_detections(&preds, &truths, iou_threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_nn::Sgd;

    /// Toy patches: a bright blob marks the crossing.
    fn toy_samples(n: usize, seed: u64, size: usize) -> Vec<Sample> {
        let mut rng = SeededRng::new(seed);
        (0..n)
            .map(|i| {
                let mut img = Tensor::randn([1, size, size], 0.0, 0.1, &mut rng);
                if i % 2 == 0 {
                    // Blob at a random interior location.
                    let cx = size / 4 + rng.index(size / 2);
                    let cy = size / 4 + rng.index(size / 2);
                    for y in cy.saturating_sub(2)..(cy + 2).min(size) {
                        for x in cx.saturating_sub(2)..(cx + 2).min(size) {
                            img.set(&[0, y, x], 2.0);
                        }
                    }
                    Sample::positive(
                        img,
                        BBox::new(cx as f32 / size as f32, cy as f32 / size as f32, 0.2, 0.2),
                    )
                } else {
                    Sample::negative(img)
                }
            })
            .collect()
    }

    fn quick_config() -> RcnnLiteConfig {
        let mut c = RcnnLiteConfig::for_patch(32);
        c.train = TrainConfig {
            epochs: 8,
            batch_size: 8,
            sgd: Sgd::new(0.02, 0.9, 0.0005),
            ..Default::default()
        };
        c
    }

    #[test]
    fn proposal_count_is_grid_squared() {
        let baseline = RcnnLite::train(&toy_samples(4, 1, 32), quick_config(), 0);
        assert_eq!(baseline.proposals_per_image(), 25);
    }

    #[test]
    fn detect_returns_in_bounds_box() {
        let baseline = RcnnLite::train(&toy_samples(8, 2, 32), quick_config(), 0);
        let img = toy_samples(1, 3, 32).remove(0).image;
        let d = baseline.detect(&img);
        assert!((0.0..=1.0).contains(&d.bbox.cx));
        assert!((0.0..=1.0).contains(&d.bbox.cy));
        assert!((0.0..=1.0).contains(&d.score));
    }

    #[test]
    fn baseline_beats_chance_on_separable_toy_data() {
        let baseline = RcnnLite::train(&toy_samples(24, 4, 32), quick_config(), 0);
        // Lenient IoU — the proposal grid quantizes locations.
        let (ap, _) = baseline.evaluate(&toy_samples(12, 5, 32), 0.05);
        assert!(ap > 0.5, "baseline AP {ap}");
    }
}
