//! The shared-trunk scan runs out of the scratch arena a per-tile pass
//! warms: after per-tile inference at the scan's batch and its ragged last
//! size, whole-scene scans grow no scratch buffer — and neither does a
//! scan of a raster twice as tall, since the scene passes cut the raster
//! into tile-shaped blocks and hold only a few tile rows of it.
//!
//! Its own test binary: `grow_events` counts process-wide.

use dcd_core::{scan_scene, DrainageCrossingDetector, ScanConfig};
use dcd_geodata::render::clip_patch_into;
use dcd_nn::{SppNet, SppNetConfig};
use dcd_tensor::{scratch, SeededRng, Tensor};

const PATCH: usize = 100;
const STRIDE: usize = 50;
const BATCH: usize = 8;

/// `n` tiles of `raster` clipped and normalized as the scan feeds them.
fn tiles(raster: &Tensor, n: usize) -> Tensor {
    let per = 4 * PATCH * PATCH;
    let mut buf = vec![0.0f32; n * per];
    for (i, dst) in buf.chunks_mut(per).enumerate() {
        let (cx, cy) = (PATCH / 2 + (i % 3) * STRIDE, PATCH / 2 + (i / 3) * STRIDE);
        clip_patch_into(raster, cx, cy, PATCH, dst);
        for v in dst.iter_mut() {
            *v = (*v - 0.5) * 2.0;
        }
    }
    Tensor::from_vec([n, 4, PATCH, PATCH], buf).unwrap()
}

#[test]
fn shared_trunk_scans_grow_no_scratch_after_a_per_tile_warm_up() {
    // Candidate 2's geometry — 100×100 tiles at stride 50, 3×3 convs —
    // and conv1, whose 640 000-float activation is the largest buffer a
    // tile asks for, with narrower later layers. The 300×250 raster has
    // 5×4 tiles: chunks of 8, 8 and a ragged 4, and tile rows split
    // across chunks down to a lone tile.
    let mut arch = SppNetConfig::candidate2();
    arch.channels = [64, 32, 32];
    arch.fc1 = 64;
    let mut detector =
        DrainageCrossingDetector::from_model(SppNet::new(arch, &mut SeededRng::new(7)));
    detector.threshold = f32::NEG_INFINITY;
    let raster = Tensor::uniform([4, 250, 300], 0.0, 1.0, &mut SeededRng::new(8));
    let config = ScanConfig::for_patch(PATCH)
        .with_stride(STRIDE)
        .with_batch_size(BATCH);

    for n in [BATCH, 20 % BATCH] {
        detector.detect_tensor(&tiles(&raster, n));
    }
    let before = scratch::grow_events();
    let first = scan_scene(&detector, &raster, &config);
    let second = scan_scene(&detector, &raster, &config);
    assert_eq!(first, second);
    assert!(!first.is_empty());
    assert_eq!(
        scratch::grow_events(),
        before,
        "a shared-trunk scan grew the scratch pool"
    );

    let tall = Tensor::uniform([4, 500, 300], 0.0, 1.0, &mut SeededRng::new(9));
    scan_scene(&detector, &tall, &config);
    assert_eq!(
        scratch::grow_events(),
        before,
        "a scan of a taller raster grew the scratch pool"
    );
}
