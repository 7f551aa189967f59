//! Deployment-mode example: train a detector, then scan an entire watershed
//! raster for drainage crossings (tiling + batched inference + NMS), and
//! use the detections to breach the DEM — the full application loop the
//! paper's system exists to serve.
//!
//! ```sh
//! cargo run --release --example scan_watershed
//! ```

use dcd_core::scan::{match_detections, scan_scene, ScanConfig};
use dcd_core::DrainageCrossingDetector;
use dcd_geodata::dataset::small_config;
use dcd_geodata::hydrology::{breach_at, connectivity};
use dcd_geodata::render::render_bands;
use dcd_geodata::PatchDataset;
use dcd_nn::{Sgd, SppNetConfig, TrainConfig};
use dcd_tensor::SeededRng;

fn main() {
    // 1. Train on patches (as in the quickstart).
    let mut ds_config = small_config();
    ds_config.center_jitter = 2;
    let dataset = PatchDataset::generate(&ds_config, 42);
    let mut arch = SppNetConfig::original();
    arch.channels = [12, 24, 32];
    arch.fc1 = 128;
    println!(
        "training {} on {} patches ...",
        arch.summary(),
        dataset.train.len()
    );
    let mut detector = DrainageCrossingDetector::train(
        arch,
        &dataset.train,
        TrainConfig {
            epochs: 18,
            batch_size: 20,
            sgd: Sgd::new(0.015, 0.9, 0.0005),
            lr_decay_every: Some(7),
            ..Default::default()
        },
        7,
    );
    detector.threshold = 0.6;

    // 2. Scan the whole scene (the "large volume of inferences" of §5.1 —
    //    this is why the paper optimizes throughput and batch size).
    let scene = &dataset.scene;
    let bands = render_bands(scene, 0.03, &mut SeededRng::new(9));
    // Batch 32 is the paper's optimal.
    let scan = ScanConfig::for_patch(64).with_batch_size(32);
    let t0 = std::time::Instant::now();
    let detections = scan_scene(&detector, &bands, &scan);
    let dt = t0.elapsed();
    println!(
        "\nscanned {}×{} cells in {:.1}s → {} crossing detections",
        scene.width(),
        scene.height(),
        dt.as_secs_f32(),
        detections.len()
    );
    for d in detections.iter().take(8) {
        println!("  ({:3}, {:3})  score {:.2}", d.x, d.y, d.score);
    }

    // 3. Score against the digitized crossings.
    let (precision, recall) = match_detections(&detections, &scene.crossings, 12);
    println!(
        "\nvs {} digitized crossings: precision {:.2}, recall {:.2}",
        scene.crossings.len(),
        precision,
        recall
    );

    // 4. Breach the road embankments at the *detected* points and measure
    //    how much of the true drainage network is recovered.
    let threshold = ds_config.scene.stream_threshold;
    let bare = connectivity(&scene.dem, threshold);
    let dammed = connectivity(&scene.dem_with_roads, threshold);
    let points: Vec<(usize, usize)> = detections.iter().map(|d| (d.x, d.y)).collect();
    let mut breached = scene.dem_with_roads.clone();
    breach_at(&mut breached, &points, 4);
    let fixed = connectivity(&breached, threshold);
    println!(
        "\ndrainage network preserved (buffered overlap vs bare earth):\n  with digital dams: {:.0}%\n  after breaching at detections: {:.0}%",
        100.0 * dammed.stream_overlap_buffered(&bare, scene.width(), 2),
        100.0 * fixed.stream_overlap_buffered(&bare, scene.width(), 2),
    );

    // 5. Visual artifacts: the scene map with digitized crossings, and the
    //    colour-infrared orthophoto with the detector's boxes.
    let out = std::env::temp_dir();
    let map = dcd_geodata::scene_overlay(scene);
    map.save_ppm(out.join("watershed_map.ppm"))
        .expect("write map");
    let mut cir = dcd_geodata::bands_to_cir(&bands);
    for d in &detections {
        cir.draw_box(d.x, d.y, (d.w / 2.0) as usize + 1, [255, 255, 0]);
    }
    cir.save_ppm(out.join("watershed_detections.ppm"))
        .expect("write cir");
    println!(
        "\nwrote {} and {}",
        out.join("watershed_map.ppm").display(),
        out.join("watershed_detections.ppm").display()
    );
}
