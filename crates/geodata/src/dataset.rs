//! Labelled patch dataset: the stand-in for the paper's 2022 manually
//! digitized drainage-crossing clips (§3.2).

use crate::render::{clip_patch, render_bands};
use crate::scene::{generate_scene, Scene, SceneConfig};
use dcd_nn::{BBox, Sample};
use dcd_tensor::SeededRng;

/// Dataset generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct DatasetConfig {
    /// Scene (study-area) parameters.
    pub scene: SceneConfig,
    /// Patch side length, cells (paper: 100×100 at 1 m).
    pub patch_size: usize,
    /// Number of negative patches per positive patch.
    pub negatives_per_positive: f32,
    /// Maximum random offset of the crossing from the patch centre, cells
    /// (the paper centres the box on the digitized point; jitter keeps the
    /// detector from learning "always predict the centre").
    pub center_jitter: usize,
    /// Ground-truth box side length, normalized to the patch (a culvert
    /// plus its immediate disturbance).
    pub box_size: f32,
    /// Sensor noise sigma passed to the renderer.
    pub noise: f32,
    /// Train fraction of the split (paper: 0.8).
    pub train_fraction: f32,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            scene: SceneConfig::default(),
            patch_size: 100,
            negatives_per_positive: 1.0,
            center_jitter: 10,
            box_size: 0.2,
            noise: 0.03,
            train_fraction: 0.8,
        }
    }
}

/// A generated train/test split of labelled patches.
#[derive(Debug, Clone)]
pub struct PatchDataset {
    /// Training samples.
    pub train: Vec<Sample>,
    /// Held-out test samples.
    pub test: Vec<Sample>,
    /// The scene the patches were clipped from.
    pub scene: Scene,
}

impl PatchDataset {
    /// Generates a dataset from a seed. Every crossing in the scene yields
    /// one positive patch; negatives are sampled away from all crossings.
    pub fn generate(config: &DatasetConfig, seed: u64) -> Self {
        let mut rng = SeededRng::new(seed);
        let scene = generate_scene(&config.scene, &mut rng);
        let bands = render_bands(&scene, config.noise, &mut rng);
        let size = config.patch_size;
        let half = size as i64 / 2;
        let w = scene.width() as i64;
        let h = scene.height() as i64;

        let mut samples: Vec<Sample> = Vec::new();
        // Positives: a patch around each crossing, jittered. Crossings too
        // close to the raster edge are skipped (a full patch cannot be
        // clipped around them, mirroring how the study-area clips were made).
        for &(cx, cy) in &scene.crossings {
            let (cxi, cyi) = (cx as i64, cy as i64);
            if cxi < half || cxi > w - half - 1 || cyi < half || cyi > h - half - 1 {
                continue;
            }
            let j = config.center_jitter as i64;
            let jx = if j > 0 {
                rng.index(2 * j as usize + 1) as i64 - j
            } else {
                0
            };
            let jy = if j > 0 {
                rng.index(2 * j as usize + 1) as i64 - j
            } else {
                0
            };
            // Patch centre = crossing + jitter, clamped inside the raster.
            let px = (cx as i64 + jx).clamp(half, w - half - 1);
            let py = (cy as i64 + jy).clamp(half, h - half - 1);
            let image = normalize(clip_patch(&bands, px as usize, py as usize, size));
            // Crossing position inside the patch, normalized.
            let bx = (cx as i64 - (px - half)) as f32 / size as f32;
            let by = (cy as i64 - (py - half)) as f32 / size as f32;
            samples.push(Sample::positive(
                image,
                BBox::new(bx, by, config.box_size, config.box_size),
            ));
        }
        // Negatives: random centres far from every crossing. If the scene is
        // so dense with crossings that no centre clears the full half-patch
        // margin, relax the margin (halving it, down to a floor) rather than
        // emit a dataset with no negative class at all.
        let n_neg = (scene.crossings.len() as f32 * config.negatives_per_positive).round() as usize;
        let mut min_dist = (size / 2) as i64;
        let mut placed = 0;
        while placed == 0 && min_dist >= 4 {
            let mut attempts = 0;
            while placed < n_neg && attempts < n_neg * 100 {
                attempts += 1;
                let px = half + rng.index((w - size as i64).max(1) as usize) as i64;
                let py = half + rng.index((h - size as i64).max(1) as usize) as i64;
                let clear = scene
                    .crossings
                    .iter()
                    .all(|&(cx, cy)| (cx as i64 - px).abs().max((cy as i64 - py).abs()) > min_dist);
                if clear {
                    let image = normalize(clip_patch(&bands, px as usize, py as usize, size));
                    samples.push(Sample::negative(image));
                    placed += 1;
                }
            }
            min_dist /= 2;
        }

        // Shuffle then split 80/20 (paper §6.1).
        let mut order: Vec<usize> = (0..samples.len()).collect();
        rng.shuffle(&mut order);
        let n_train = ((samples.len() as f32) * config.train_fraction).round() as usize;
        let mut train = Vec::with_capacity(n_train);
        let mut test = Vec::with_capacity(samples.len() - n_train);
        for (rank, &i) in order.iter().enumerate() {
            if rank < n_train {
                train.push(samples[i].clone());
            } else {
                test.push(samples[i].clone());
            }
        }
        PatchDataset { train, test, scene }
    }

    /// Total sample count.
    pub fn len(&self) -> usize {
        self.train.len() + self.test.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Standardizes reflectance values in place, as the detector sees them in
/// training and in scans alike: bands are in `[0, 1]` with a grand mean
/// near 0.5, so `(x − 0.5)·2` centres them in `[−1, 1]`.
pub fn normalize_reflectance(values: &mut [f32]) {
    for v in values {
        *v = (*v - 0.5) * 2.0;
    }
}

/// A clipped patch, normalized for training.
fn normalize(mut patch: dcd_tensor::Tensor) -> dcd_tensor::Tensor {
    normalize_reflectance(patch.data_mut());
    patch
}

/// A small, quick dataset configuration for tests and examples: 64×64
/// patches from a 256×256 scene.
pub fn small_config() -> DatasetConfig {
    DatasetConfig {
        scene: SceneConfig {
            dem: crate::dem::DemConfig {
                width: 256,
                height: 256,
                ..Default::default()
            },
            road_spacing: 64,
            stream_threshold: 100.0,
            ..Default::default()
        },
        patch_size: 64,
        center_jitter: 6,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_balanced_split() {
        let ds = PatchDataset::generate(&small_config(), 11);
        assert!(ds.len() >= 6, "dataset too small: {}", ds.len());
        let train_frac = ds.train.len() as f32 / ds.len() as f32;
        assert!(
            (train_frac - 0.8).abs() < 0.15,
            "train fraction {train_frac}"
        );
    }

    #[test]
    fn positives_have_boxes_near_center() {
        let ds = PatchDataset::generate(&small_config(), 12);
        let cfg = small_config();
        let max_off = cfg.center_jitter as f32 / cfg.patch_size as f32 + 0.02;
        for s in ds.train.iter().chain(ds.test.iter()) {
            if let Some(b) = s.label {
                // Edge crossings are skipped, so the only displacement is the
                // jitter itself.
                assert!((b.cx - 0.5).abs() <= max_off, "box cx {}", b.cx);
                assert!((b.cy - 0.5).abs() <= max_off, "box cy {}", b.cy);
                assert!(b.w > 0.0 && b.h > 0.0);
            }
        }
    }

    #[test]
    fn patches_have_four_bands() {
        let ds = PatchDataset::generate(&small_config(), 13);
        for s in ds.train.iter().take(3) {
            assert_eq!(s.image.dims(), &[4, 64, 64]);
        }
    }

    #[test]
    fn contains_positives_and_negatives() {
        let ds = PatchDataset::generate(&small_config(), 14);
        let pos = ds
            .train
            .iter()
            .chain(ds.test.iter())
            .filter(|s| s.is_positive())
            .count();
        let neg = ds.len() - pos;
        assert!(pos > 0, "no positives");
        assert!(neg > 0, "no negatives");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = PatchDataset::generate(&small_config(), 21);
        let b = PatchDataset::generate(&small_config(), 21);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.train[0].image.data(), b.train[0].image.data());
    }

    #[test]
    fn different_seeds_differ() {
        let a = PatchDataset::generate(&small_config(), 1);
        let b = PatchDataset::generate(&small_config(), 2);
        assert_ne!(a.train[0].image.data(), b.train[0].image.data());
    }
}
