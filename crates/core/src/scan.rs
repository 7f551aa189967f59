//! Whole-scene scanning: slide the detector across a full watershed raster
//! and return georeferenced crossing detections.
//!
//! This is the deployment mode the paper motivates ("a large volume of
//! inferences", §5.1): the detector was trained on 100×100 patches, and a
//! study area is scanned by tiling it with overlapping patches, batching
//! them through the CNN (at the batch size the pipeline selected), mapping
//! detections back to raster coordinates, and de-duplicating with
//! non-maximum suppression.
//!
//! Every scan, plain or resilient, runs its tiles through one chunk route
//! (`scan_chunk`): the shared trunk (`scan/trunk.rs`) writes a chunk's
//! input to the rest of the network — after the conv levels overlapping
//! tiles share, or the normalized tiles themselves when they share none —
//! and the detector runs the remaining blocks on it.

use crate::detector::DrainageCrossingDetector;
use crate::resilience::{ResilientRunner, RetryPolicy, RunHealth};
use dcd_gpusim::{DeviceSpec, FaultPlan, Gpu, GpuError};
use dcd_ios::{
    ios_schedule, lower_sppnet, sequential_schedule, ExecError, IosOptions, StageCostModel,
};
use dcd_nn::metrics::iou;
use dcd_nn::{BBox, Detection};
use dcd_tensor::Tensor;
use serde::{Deserialize, Serialize};
use trunk::SharedTrunk;

mod trunk;

/// A detection in scene (raster) coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SceneDetection {
    /// Crossing x in raster cells.
    pub x: usize,
    /// Crossing y in raster cells.
    pub y: usize,
    /// Objectness score.
    pub score: f32,
    /// Box in raster cells `(w, h)`.
    pub w: f32,
    /// Box height in raster cells.
    pub h: f32,
}

impl SceneDetection {
    fn bbox(&self, scene_w: usize, scene_h: usize) -> BBox {
        BBox::new(
            self.x as f32 / scene_w as f32,
            self.y as f32 / scene_h as f32,
            self.w / scene_w as f32,
            self.h / scene_h as f32,
        )
    }
}

/// Scan parameters.
///
/// Non-exhaustive: construct with [`ScanConfig::for_patch`] and refine with
/// the `with_*` methods, so new fields stop being breaking changes.
///
/// Each tile is normalized as the dataset is (reflectance to `[-1, 1]`),
/// and the scan records `dcd-obs` spans and metrics only while recording
/// is on ([`dcd_obs::set_enabled`]).
#[non_exhaustive]
#[derive(Debug, Clone, Copy)]
pub struct ScanConfig {
    /// Patch side length fed to the detector (must match training).
    pub patch_size: usize,
    /// Tiling stride, positive. The detector is trained on patches with
    /// the crossing *at the centre* (§3.2), so it only fires when a tile
    /// centre lands near a crossing — use a small stride (patch/8) for
    /// high recall and let NMS collapse the duplicates. An even stride
    /// below the patch size lets overlapping tiles share their first conv
    /// levels ([`scan_scene`]).
    pub stride: usize,
    /// Inference batch size (use the pipeline's optimal batch).
    pub batch_size: usize,
    /// NMS IoU threshold: detections overlapping more than this collapse
    /// onto the higher-scored one.
    pub nms_iou: f32,
    /// Point-suppression radius in cells: detections within this Chebyshev
    /// distance of a stronger one are dropped (crossings are point features;
    /// box IoU alone under-suppresses duplicate chains along roads).
    pub nms_radius: usize,
}

impl ScanConfig {
    /// Defaults for a given patch size: eighth-patch stride, batch 32 (the
    /// paper's optimal), NMS at IoU 0.3.
    pub fn for_patch(patch_size: usize) -> Self {
        ScanConfig {
            patch_size,
            stride: (patch_size / 8).max(1),
            batch_size: 32,
            nms_iou: 0.3,
            nms_radius: (patch_size / 6).max(2),
        }
    }

    /// Sets the tiling stride.
    pub fn with_stride(mut self, stride: usize) -> Self {
        self.stride = stride;
        self
    }

    /// Sets the inference batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the NMS IoU threshold.
    pub fn with_nms_iou(mut self, nms_iou: f32) -> Self {
        self.nms_iou = nms_iou;
        self
    }

    /// Sets the point-suppression radius.
    pub fn with_nms_radius(mut self, nms_radius: usize) -> Self {
        self.nms_radius = nms_radius;
        self
    }
}

/// Greedy non-maximum suppression over scene detections.
///
/// Detections with a non-finite score (NaN/±∞ logits from a degenerate
/// model) are dropped up front with a warning instead of poisoning the sort:
/// one bad logit must not kill a whole-scene scan.
pub fn nms(
    dets: Vec<SceneDetection>,
    scene_w: usize,
    scene_h: usize,
    iou_threshold: f32,
) -> Vec<SceneDetection> {
    let total = dets.len();
    let mut dets: Vec<SceneDetection> = dets.into_iter().filter(|d| d.score.is_finite()).collect();
    let dropped = total - dets.len();
    if dropped > 0 {
        eprintln!("warning: nms dropped {dropped} detection(s) with non-finite scores");
    }
    dets.sort_by(|a, b| b.score.total_cmp(&a.score));
    let mut keep: Vec<SceneDetection> = Vec::new();
    // Each kept detection's bbox is reused by every later IoU test —
    // compute it once instead of once per O(n²) inner-loop probe.
    let mut keep_boxes: Vec<BBox> = Vec::new();
    for d in dets {
        let db = d.bbox(scene_w, scene_h);
        if keep_boxes.iter().all(|kb| iou(kb, &db) <= iou_threshold) {
            keep.push(d);
            keep_boxes.push(db);
        }
    }
    keep
}

/// Validates the scene shape and the stride, and returns `(h, w)`.
fn scene_dims(bands: &Tensor, config: &ScanConfig) -> (usize, usize) {
    assert!(config.stride > 0, "scan stride must be positive, got 0");
    let dims = bands.dims();
    assert_eq!(dims.len(), 3, "expected [bands, H, W]");
    let (h, w) = (dims[1], dims[2]);
    assert!(
        w >= config.patch_size && h >= config.patch_size,
        "scene smaller than a patch"
    );
    (h, w)
}

/// Tile centres covering the raster interior at the configured stride.
fn tile_centers(w: usize, h: usize, config: &ScanConfig) -> Vec<(usize, usize)> {
    let half = config.patch_size / 2;
    let mut centers: Vec<(usize, usize)> = Vec::new();
    let mut cy = half;
    loop {
        let mut cx = half;
        loop {
            centers.push((cx, cy));
            if cx + config.stride > w - half - 1 {
                break;
            }
            cx += config.stride;
        }
        if cy + config.stride > h - half - 1 {
            break;
        }
        cy += config.stride;
    }
    centers
}

/// Runs one chunk of tiles through the detector: the trunk writes the
/// chunk's input to the rest of the network into `buf`, which is loaned to
/// a batch tensor for inference and then reclaimed, so a scan allocates its
/// batch storage once, not per chunk.
fn chunk_detections(
    detector: &DrainageCrossingDetector,
    trunk: &mut SharedTrunk,
    chunk: &[(usize, usize)],
    buf: &mut Vec<f32>,
) -> Vec<Option<Detection>> {
    let [c, h, w] = trunk.tile_dims();
    buf.resize(chunk.len() * c * h * w, 0.0);
    trunk.tile_maps(chunk, buf);
    let x = Tensor::from_vec([chunk.len(), c, h, w], std::mem::take(buf)).expect("scan tile maps");
    let dets = detector.detect_from_block(trunk.tail_block(), &x);
    *buf = x.into_vec();
    dets
}

/// Maps a chunk's per-tile detections to raster coordinates, appending
/// those that land on the raster to `raw`.
fn push_detections(
    dets: Vec<Option<Detection>>,
    chunk: &[(usize, usize)],
    config: &ScanConfig,
    (h, w): (usize, usize),
    raw: &mut Vec<SceneDetection>,
) {
    for (det, &(cx, cy)) in dets.into_iter().zip(chunk) {
        if let Some(d) = det {
            // Patch-normalized box → raster coordinates.
            let ps = config.patch_size as f32;
            let x = (cx as f32 - ps / 2.0 + d.bbox.cx * ps).round();
            let y = (cy as f32 - ps / 2.0 + d.bbox.cy * ps).round();
            if x >= 0.0 && y >= 0.0 && (x as usize) < w && (y as usize) < h {
                raw.push(SceneDetection {
                    x: x as usize,
                    y: y as usize,
                    score: d.score,
                    w: (d.bbox.w * ps).max(1.0),
                    h: (d.bbox.h * ps).max(1.0),
                });
            }
        }
    }
}

/// One chunk of a scan, in scan order after every earlier chunk: its
/// tiles' detections, mapped to raster coordinates and appended to `raw`.
fn scan_chunk(
    detector: &DrainageCrossingDetector,
    trunk: &mut SharedTrunk,
    chunk: &[(usize, usize)],
    config: &ScanConfig,
    hw: (usize, usize),
    buf: &mut Vec<f32>,
    raw: &mut Vec<SceneDetection>,
) {
    let _span = dcd_obs::span("scan.chunk", dcd_obs::Category::Scan);
    dcd_obs::counter!("scan.patches").add(chunk.len() as u64);
    let dets = chunk_detections(detector, trunk, chunk, buf);
    push_detections(dets, chunk, config, hw, raw);
}

/// Scans a rendered scene (`[bands, H, W]` tensor) with the detector.
///
/// Returns NMS-deduplicated detections in raster coordinates, sorted by
/// descending score.
///
/// When tiles overlap at an even stride, the first conv levels run once
/// over the scene and each tile recomputes only the border ring its own
/// zero padding changes (see `scan/trunk.rs`); at any other stride each
/// tile runs the whole network. Either way the detections are
/// bit-identical to running every tile alone. Panics on a zero stride or a
/// scene smaller than a patch.
pub fn scan_scene(
    detector: &DrainageCrossingDetector,
    bands: &Tensor,
    config: &ScanConfig,
) -> Vec<SceneDetection> {
    let _span = dcd_obs::span("scan.scene", dcd_obs::Category::Scan);
    let (h, w) = scene_dims(bands, config);
    let centers = tile_centers(w, h, config);
    let batch = config.batch_size.max(1);
    let mut trunk = SharedTrunk::new(detector.model(), bands, config, &centers, batch);
    let (mut buf, mut raw) = (Vec::new(), Vec::new());
    for chunk in centers.chunks(batch) {
        scan_chunk(
            detector,
            &mut trunk,
            chunk,
            config,
            (h, w),
            &mut buf,
            &mut raw,
        );
    }
    let kept = nms(raw, w, h, config.nms_iou);
    suppress_within_radius(kept, config.nms_radius)
}

/// Simulated-deployment parameters for [`scan_scene_resilient`].
///
/// Non-exhaustive: construct with [`SimScanConfig::new`] (or `default()`) and
/// refine with the `with_*` methods.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct SimScanConfig {
    /// The simulated device the scan deploys to.
    pub device: DeviceSpec,
    /// Faults injected into that device (use [`FaultPlan::none`] for a
    /// healthy deployment).
    pub fault_plan: FaultPlan,
    /// Retry/backoff/watchdog policy.
    pub retry: RetryPolicy,
    /// IOS pruning options for the optimized schedule.
    pub ios: IosOptions,
}

impl SimScanConfig {
    /// Healthy RTX A5500 deployment with default retry and IOS options.
    pub fn new() -> Self {
        SimScanConfig {
            device: DeviceSpec::rtx_a5500(),
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            ios: IosOptions::default(),
        }
    }

    /// Sets the simulated device.
    pub fn with_device(mut self, device: DeviceSpec) -> Self {
        self.device = device;
        self
    }

    /// Sets the injected fault plan.
    pub fn with_fault_plan(mut self, fault_plan: FaultPlan) -> Self {
        self.fault_plan = fault_plan;
        self
    }

    /// Sets the retry/backoff/watchdog policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the IOS pruning options.
    pub fn with_ios(mut self, ios: IosOptions) -> Self {
        self.ios = ios;
        self
    }
}

impl Default for SimScanConfig {
    fn default() -> Self {
        SimScanConfig::new()
    }
}

/// A resilient scan's outcome: the detections plus how the deployment fared.
#[derive(Debug, Clone)]
pub struct ResilientScanReport {
    /// NMS-deduplicated detections (identical to [`scan_scene`]'s output
    /// whenever every tile eventually completed).
    pub detections: Vec<SceneDetection>,
    /// Faults seen and recovery actions taken.
    pub health: RunHealth,
    /// Inference batch size actually used (after any OOM degradation).
    pub batch: usize,
    /// Whether the scan fell back from the IOS schedule to the sequential
    /// baseline.
    pub fell_back: bool,
    /// Total simulated host time spent in (successful and failed) inference,
    /// ns.
    pub sim_ns: u64,
}

/// Why a resilient scan could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanError {
    /// The simulated deployment could not even be set up (model does not fit
    /// at batch 1, or a schedule failed validation).
    Setup(ExecError),
    /// A tile kept failing after retries *and* the sequential fallback.
    Exhausted {
        /// The error that ended the run.
        last: GpuError,
        /// Health counters up to the failure.
        health: RunHealth,
    },
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::Setup(e) => write!(f, "scan setup failed: {e}"),
            ScanError::Exhausted { last, .. } => {
                write!(f, "scan exhausted recovery options: {last}")
            }
        }
    }
}

impl std::error::Error for ScanError {}

/// [`scan_scene`] deployed on the fault-injected simulator.
///
/// Each chunk of tiles is "shipped" through one simulated inference before
/// its patches are scored, so injected faults gate progress: transient
/// failures are retried (with simulated backoff), hangs are reset via
/// watchdog, and a schedule that keeps failing is swapped for the
/// sequential baseline. VRAM pressure at setup halves the batch until the
/// allocation fits; the scan then chunks its tiles at that batch. A chunk
/// is scored only once its inference succeeds, through the same chunk
/// route and shared trunk as [`scan_scene`], so the detections are
/// identical to a fault-free [`scan_scene`] whenever the scan completes. A
/// zero stride panics.
pub fn scan_scene_resilient(
    detector: &DrainageCrossingDetector,
    bands: &Tensor,
    config: &ScanConfig,
    sim: &SimScanConfig,
) -> Result<ResilientScanReport, ScanError> {
    let _span = dcd_obs::span("scan.scene", dcd_obs::Category::Scan);
    let (h, w) = scene_dims(bands, config);
    let centers = tile_centers(w, h, config);

    // Lower the detector's architecture and schedule it both ways.
    let graph = lower_sppnet(detector.config(), (config.patch_size, config.patch_size));
    let target_batch = config.batch_size.max(1);
    let mut cost = StageCostModel::new(&graph, sim.device.clone(), target_batch);
    let optimized = ios_schedule(&graph, &mut cost, sim.ios);
    let fallback = sequential_schedule(&graph);
    let mut gpu = Gpu::new(sim.device.clone());
    gpu.set_fault_plan(sim.fault_plan.clone());
    let mut runner =
        ResilientRunner::new(&graph, optimized, fallback, target_batch, gpu, sim.retry)
            .map_err(ScanError::Setup)?;

    // The runner settles its batch at setup, so the chunks are fixed.
    let batch = runner.batch();
    let mut trunk = SharedTrunk::new(detector.model(), bands, config, &centers, batch);
    let (mut buf, mut raw) = (Vec::new(), Vec::new());
    let mut sim_ns = 0u64;
    for chunk in centers.chunks(batch) {
        match runner.run() {
            Ok(ns) => sim_ns += ns,
            Err(last) => {
                return Err(ScanError::Exhausted {
                    last,
                    health: runner.health,
                })
            }
        }
        scan_chunk(
            detector,
            &mut trunk,
            chunk,
            config,
            (h, w),
            &mut buf,
            &mut raw,
        );
    }
    let kept = nms(raw, w, h, config.nms_iou);
    Ok(ResilientScanReport {
        detections: suppress_within_radius(kept, config.nms_radius),
        health: runner.health,
        batch,
        fell_back: runner.fell_back(),
        sim_ns,
    })
}

/// Keeps only the highest-scored detection within each `radius`-cell
/// neighbourhood (input must be score-sorted, as [`nms`] returns).
fn suppress_within_radius(dets: Vec<SceneDetection>, radius: usize) -> Vec<SceneDetection> {
    let mut keep: Vec<SceneDetection> = Vec::new();
    for d in dets {
        if keep
            .iter()
            .all(|k| k.x.abs_diff(d.x).max(k.y.abs_diff(d.y)) > radius)
        {
            keep.push(d);
        }
    }
    keep
}

/// Precision/recall of scene detections against ground-truth crossing
/// points, with a match tolerance in cells (a detection matches at most one
/// truth point and vice versa; greedy by score).
///
/// Conventions for empty inputs: an empty detection set has no false
/// positives, so precision is 1.0 (recall is still 0.0 when truths exist);
/// an empty truth set has no missable targets, so recall is 1.0.
pub fn match_detections(
    detections: &[SceneDetection],
    truths: &[(usize, usize)],
    tolerance: usize,
) -> (f32, f32) {
    let mut matched_truth = vec![false; truths.len()];
    let mut tp = 0usize;
    for d in detections {
        let mut best: Option<usize> = None;
        let mut best_d = usize::MAX;
        for (i, &(tx, ty)) in truths.iter().enumerate() {
            if matched_truth[i] {
                continue;
            }
            let dist = d.x.abs_diff(tx).max(d.y.abs_diff(ty));
            if dist <= tolerance && dist < best_d {
                best = Some(i);
                best_d = dist;
            }
        }
        if let Some(i) = best {
            matched_truth[i] = true;
            tp += 1;
        }
    }
    let precision = if detections.is_empty() {
        1.0
    } else {
        tp as f32 / detections.len() as f32
    };
    let recall = if truths.is_empty() {
        1.0
    } else {
        tp as f32 / truths.len() as f32
    };
    (precision, recall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_geodata::dataset::small_config;
    use dcd_geodata::render::render_bands;
    use dcd_geodata::PatchDataset;
    use dcd_nn::{Sgd, SppNetConfig, TrainConfig};
    use dcd_tensor::SeededRng;

    fn det(x: usize, y: usize, score: f32, size: f32) -> SceneDetection {
        SceneDetection {
            x,
            y,
            score,
            w: size,
            h: size,
        }
    }

    #[test]
    fn nms_keeps_highest_of_overlapping_pair() {
        let dets = vec![det(50, 50, 0.9, 10.0), det(52, 51, 0.7, 10.0)];
        let kept = nms(dets, 200, 200, 0.3);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].score, 0.9);
    }

    #[test]
    fn nms_keeps_disjoint_detections() {
        let dets = vec![det(20, 20, 0.9, 10.0), det(150, 150, 0.8, 10.0)];
        let kept = nms(dets, 200, 200, 0.3);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn nms_orders_by_score() {
        let dets = vec![det(20, 20, 0.5, 8.0), det(150, 150, 0.95, 8.0)];
        let kept = nms(dets, 200, 200, 0.3);
        assert_eq!(kept[0].score, 0.95);
    }

    #[test]
    fn nms_drops_nan_scores_without_panicking() {
        // Regression: the old sort used partial_cmp().expect(), so one NaN
        // logit panicked the whole scan. NaN detections must be dropped and
        // the finite ones kept.
        let dets = vec![
            det(20, 20, f32::NAN, 8.0),
            det(150, 150, 0.8, 8.0),
            det(60, 60, f32::INFINITY, 8.0),
            det(100, 20, 0.4, 8.0),
        ];
        let kept = nms(dets, 200, 200, 0.3);
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().all(|d| d.score.is_finite()));
        assert_eq!(kept[0].score, 0.8);
        assert_eq!(kept[1].score, 0.4);
    }

    #[test]
    fn nms_all_nan_yields_empty() {
        let dets = vec![det(20, 20, f32::NAN, 8.0), det(30, 30, f32::NAN, 8.0)];
        assert!(nms(dets, 200, 200, 0.3).is_empty());
    }

    #[test]
    fn scan_survives_a_nan_producing_detector() {
        // A model whose weights are all NaN scores every patch as NaN. The
        // scan must complete (returning nothing), not panic in NMS.
        use dcd_nn::SppNet;
        let mut arch = SppNetConfig::tiny();
        arch.in_channels = 4;
        let mut model = SppNet::new(arch, &mut SeededRng::new(3));
        for p in model.params_mut() {
            p.value.map_inplace(|_| f32::NAN);
        }
        let mut detector = DrainageCrossingDetector::from_model(model);
        detector.threshold = f32::NEG_INFINITY;
        let cfg = small_config();
        let ds = PatchDataset::generate(&cfg, 11);
        let bands = render_bands(&ds.scene, 0.03, &mut SeededRng::new(9));
        let scan = ScanConfig::for_patch(48).with_batch_size(8).with_stride(24);
        let dets = scan_scene(&detector, &bands, &scan);
        assert!(dets.iter().all(|d| d.score.is_finite()));
    }

    #[test]
    fn match_detections_empty_detections_has_perfect_precision() {
        // No detections means no false positives: precision 1.0, recall 0.0.
        let truths = vec![(50usize, 50usize)];
        let (p, r) = match_detections(&[], &truths, 5);
        assert_eq!(p, 1.0);
        assert_eq!(r, 0.0);
        // And no truths means nothing to miss: recall 1.0.
        let dets = vec![det(10, 10, 0.9, 8.0)];
        let (p, r) = match_detections(&dets, &[], 5);
        assert_eq!(p, 0.0);
        assert_eq!(r, 1.0);
    }

    #[test]
    fn match_detections_precision_recall() {
        let truths = vec![(50usize, 50usize), (100, 100)];
        // One hit, one miss, one false positive.
        let dets = vec![det(52, 49, 0.9, 8.0), det(10, 10, 0.8, 8.0)];
        let (p, r) = match_detections(&dets, &truths, 5);
        assert!((p - 0.5).abs() < 1e-6);
        assert!((r - 0.5).abs() < 1e-6);
    }

    #[test]
    fn match_detections_one_truth_matches_once() {
        let truths = vec![(50usize, 50usize)];
        let dets = vec![det(50, 50, 0.9, 8.0), det(51, 51, 0.8, 8.0)];
        let (p, r) = match_detections(&dets, &truths, 5);
        assert!((p - 0.5).abs() < 1e-6, "second detection must not re-match");
        assert!((r - 1.0).abs() < 1e-6);
    }

    #[test]
    fn scan_scene_parallel_matches_sequential_bitwise() {
        use dcd_nn::SppNet;
        rayon::ensure_threads(4);
        let mut arch = SppNetConfig::tiny();
        arch.in_channels = 4;
        let model = SppNet::new(arch, &mut SeededRng::new(5));
        let mut detector = DrainageCrossingDetector::from_model(model);
        detector.threshold = 0.0; // fire everywhere: maximal NMS workload
        let cfg = small_config();
        let ds = PatchDataset::generate(&cfg, 21);
        let bands = render_bands(&ds.scene, 0.03, &mut SeededRng::new(9));
        let scan = ScanConfig::for_patch(48).with_batch_size(8).with_stride(24);
        let par = scan_scene(&detector, &bands, &scan);
        let seq = rayon::force_sequential(|| scan_scene(&detector, &bands, &scan));
        assert!(
            !par.is_empty(),
            "untrained scan at threshold 0 found nothing"
        );
        assert_eq!(par.len(), seq.len());
        for (p, s) in par.iter().zip(seq.iter()) {
            assert_eq!((p.x, p.y), (s.x, s.y));
            assert_eq!(p.score.to_bits(), s.score.to_bits(), "scores diverged");
            assert_eq!(p.w.to_bits(), s.w.to_bits());
            assert_eq!(p.h.to_bits(), s.h.to_bits());
        }
    }

    #[test]
    fn resilient_scan_matches_plain_scan_under_transient_faults() {
        use dcd_gpusim::FaultPlan;
        use dcd_nn::SppNet;
        // An untrained model suffices: detections just have to be
        // deterministic, not good.
        let mut arch = SppNetConfig::tiny();
        arch.in_channels = 4;
        let model = SppNet::new(arch, &mut SeededRng::new(5));
        let mut detector = crate::detector::DrainageCrossingDetector::from_model(model);
        detector.threshold = 0.0; // fire everywhere
        let cfg = small_config();
        let ds = PatchDataset::generate(&cfg, 21);
        let bands = render_bands(&ds.scene, 0.03, &mut SeededRng::new(9));
        let scan = ScanConfig::for_patch(48).with_batch_size(8).with_stride(24);
        let plain = scan_scene(&detector, &bands, &scan);
        let sim = SimScanConfig::new()
            .with_device(DeviceSpec::test_gpu())
            .with_fault_plan(FaultPlan {
                seed: 77,
                launch_failure_rate: 0.02,
                memcpy_failure_rate: 0.01,
                ..FaultPlan::none()
            });
        let report = scan_scene_resilient(&detector, &bands, &scan, &sim)
            .expect("transient faults are absorbed");
        assert_eq!(
            report.detections, plain,
            "faults must not change detections"
        );
        assert!(report.health.faults_seen() > 0, "plan injected nothing");
        assert!(report.health.retries > 0);
        assert!(!report.fell_back);
        assert_eq!(report.batch, 8);
        assert!(report.sim_ns > 0);
    }

    /// Every tile's detection, in scan order, through the scan's chunk
    /// route.
    fn tile_detections(
        detector: &DrainageCrossingDetector,
        bands: &Tensor,
        config: &ScanConfig,
    ) -> Vec<Detection> {
        let (h, w) = scene_dims(bands, config);
        let centers = tile_centers(w, h, config);
        let batch = config.batch_size;
        let mut trunk = SharedTrunk::new(detector.model(), bands, config, &centers, batch);
        let mut buf = Vec::new();
        centers
            .chunks(batch)
            .flat_map(|chunk| chunk_detections(detector, &mut trunk, chunk, &mut buf))
            .map(|d| d.expect("threshold is -inf"))
            .collect()
    }

    /// The reference for [`tile_detections`], built without the trunk:
    /// every tile clipped from the raster, normalized and run through the
    /// whole network, a batch of tiles at a time.
    fn per_tile_detections(
        detector: &DrainageCrossingDetector,
        bands: &Tensor,
        config: &ScanConfig,
        centers: &[(usize, usize)],
    ) -> Vec<Detection> {
        let (nb, p) = (bands.dims()[0], config.patch_size);
        let per = nb * p * p;
        centers
            .chunks(config.batch_size)
            .flat_map(|chunk| {
                let mut x = vec![0.0f32; chunk.len() * per];
                for (dst, &(cx, cy)) in x.chunks_mut(per).zip(chunk) {
                    dcd_geodata::render::clip_patch_into(bands, cx, cy, p, dst);
                    dst.iter_mut().for_each(|v| *v = (*v - 0.5) * 2.0);
                }
                let x = Tensor::from_vec([chunk.len(), nb, p, p], x).unwrap();
                detector.detect_tensor(&x)
            })
            .map(|d| d.expect("threshold is -inf"))
            .collect()
    }

    /// A 4-band untrained detector with the given conv1 kernel, firing on
    /// every tile.
    fn untrained(conv1_kernel: usize, seed: u64) -> DrainageCrossingDetector {
        use dcd_nn::SppNet;
        let mut arch = SppNetConfig::tiny();
        arch.in_channels = 4;
        arch.conv1_kernel = conv1_kernel;
        let mut detector =
            DrainageCrossingDetector::from_model(SppNet::new(arch, &mut SeededRng::new(seed)));
        detector.threshold = f32::NEG_INFINITY;
        detector
    }

    #[test]
    fn shared_trunk_matches_per_tile_scan_bitwise() {
        // Strides sharing 2 levels (2, 6, 10) and 3 (8, 12), an odd
        // stride and strides at or past the patch (sharing none), every
        // conv1 kernel of the search space, on a 71×58 raster that no
        // stride divides. Batch 5 leaves ragged last chunks and tile rows
        // split across chunks, some into one-tile groups. Where conv3
        // shares, a 7×7 or 9×9 conv1 leaves its ring a 4-row top strip and
        // a 2-row bottom one: two convolutions of different heights.
        let bands = Tensor::uniform([4, 58, 71], 0.0, 1.0, &mut SeededRng::new(12));
        for kernel in dcd_nn::sppnet::CONV1_KERNEL_CHOICES {
            let detector = untrained(kernel, 40 + kernel as u64);
            for stride in [2, 6, 8, 10, 12, 5, 24, 30] {
                let config = ScanConfig::for_patch(24)
                    .with_stride(stride)
                    .with_batch_size(5);
                let levels = trunk::shared_levels(detector.model(), 24, stride);
                assert_eq!(levels > 0, stride.is_multiple_of(2) && stride < 24);
                let (h, w) = scene_dims(&bands, &config);
                let centers = tile_centers(w, h, &config);
                let got = tile_detections(&detector, &bands, &config);
                let want = rayon::force_sequential(|| {
                    per_tile_detections(&detector, &bands, &config, &centers)
                });
                assert_eq!(got.len(), want.len());
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    let bits = |d: &Detection| {
                        [d.score, d.bbox.cx, d.bbox.cy, d.bbox.w, d.bbox.h].map(f32::to_bits)
                    };
                    assert_eq!(bits(g), bits(w), "k={kernel} stride={stride} tile {i}");
                }
                // And the whole scan, suppression included.
                let mut raw = Vec::new();
                let want = want.into_iter().map(Some).collect();
                push_detections(want, &centers, &config, (h, w), &mut raw);
                let plain =
                    suppress_within_radius(nms(raw, w, h, config.nms_iou), config.nms_radius);
                assert_eq!(scan_scene(&detector, &bands, &config), plain);
            }
        }
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_is_rejected() {
        let bands = Tensor::zeros([4, 64, 64]);
        let config = ScanConfig::for_patch(24).with_stride(0);
        scan_scene(&untrained(3, 1), &bands, &config);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_is_rejected_by_the_resilient_scan() {
        let bands = Tensor::zeros([4, 64, 64]);
        let mut config = ScanConfig::for_patch(24);
        config.stride = 0;
        let sim = SimScanConfig::new().with_device(DeviceSpec::test_gpu());
        let _ = scan_scene_resilient(&untrained(3, 1), &bands, &config, &sim);
    }

    #[test]
    fn scan_finds_crossings_in_a_trained_scene() {
        // End-to-end: train on the dataset's patches, scan the same scene.
        let mut cfg = small_config();
        cfg.center_jitter = 2;
        let ds = PatchDataset::generate(&cfg, 42);
        let mut arch = SppNetConfig::original();
        arch.channels = [8, 16, 16];
        arch.fc1 = 64;
        let mut detector = DrainageCrossingDetector::train(
            arch,
            &ds.train,
            TrainConfig {
                epochs: 12,
                batch_size: 16,
                sgd: Sgd::new(0.015, 0.9, 0.0005),
                lr_decay_every: Some(5),
                ..Default::default()
            },
            7,
        );
        detector.threshold = 0.6;
        let bands = render_bands(&ds.scene, 0.03, &mut SeededRng::new(9));
        let scan = ScanConfig::for_patch(64).with_batch_size(16);
        let dets = scan_scene(&detector, &bands, &scan);
        assert!(!dets.is_empty(), "scan found nothing");
        // Only interior crossings can sit at a tile centre (edge crossings
        // were likewise excluded from training patches).
        let interior: Vec<(usize, usize)> = ds
            .scene
            .crossings
            .iter()
            .copied()
            .filter(|&(x, y)| {
                x >= 32 && y >= 32 && x < ds.scene.width() - 32 && y < ds.scene.height() - 32
            })
            .collect();
        let (precision, recall) = match_detections(&dets, &interior, 12);
        assert!(
            recall > 0.5,
            "recall {recall} too low ({} detections vs {} interior crossings)",
            dets.len(),
            interior.len()
        );
        assert!(precision > 0.3, "precision {precision} too low");
    }
}
