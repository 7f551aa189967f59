//! Cross-crate integration tests: the full path from synthetic geodata
//! through training, NAS, IOS scheduling and GPU profiling.

use dcd_core::{profile_run, DrainageCrossingDetector, Pipeline, PipelineConfig};
use dcd_geodata::dataset::small_config;
use dcd_geodata::PatchDataset;
use dcd_gpusim::DeviceSpec;
use dcd_nas::{FunctionalEvaluator, RandomSearch, SppNetSearchSpace};
use dcd_nn::{Sgd, SppNetConfig, TrainConfig};

fn quick_dataset(seed: u64) -> PatchDataset {
    let mut cfg = small_config();
    cfg.center_jitter = 2;
    PatchDataset::generate(&cfg, seed)
}

fn quick_train_config() -> TrainConfig {
    TrainConfig {
        epochs: 12,
        batch_size: 16,
        sgd: Sgd::new(0.015, 0.9, 0.0005),
        lr_decay_every: Some(5),
        ..Default::default()
    }
}

#[test]
fn geodata_to_detector_end_to_end() {
    // Generate → train → evaluate: the quickstart path, asserted.
    let dataset = quick_dataset(42);
    assert!(dataset.train.len() >= 10, "dataset too small");
    let mut arch = SppNetConfig::original();
    arch.channels = [8, 16, 16];
    arch.fc1 = 64;
    let detector = DrainageCrossingDetector::train(arch, &dataset.train, quick_train_config(), 7);
    let ap = detector.average_precision(&dataset.test, 0.5);
    assert!(
        ap > 0.5,
        "detector should comfortably beat chance on synthetic data, got AP {ap}"
    );
}

#[test]
fn trained_detector_feeds_hydrology_breaching() {
    // The full application loop: detect crossings in patches around road ∩
    // stream candidates, breach the DEM there, verify connectivity improves.
    use dcd_geodata::hydrology::{breach_at, connectivity};
    use dcd_geodata::render::clip_patch;
    use dcd_geodata::render::render_bands;
    use dcd_tensor::SeededRng;

    let dataset = quick_dataset(17);
    let mut arch = SppNetConfig::original();
    arch.channels = [8, 16, 16];
    arch.fc1 = 64;
    let mut detector =
        DrainageCrossingDetector::train(arch, &dataset.train, quick_train_config(), 3);
    detector.threshold = 0.5;

    // Score a patch around every digitized crossing of a *fresh* scene.
    let scene = dataset.scene.clone();
    let bands = render_bands(&scene, 0.03, &mut SeededRng::new(5));
    let mut detected: Vec<(usize, usize)> = Vec::new();
    let patch = 64usize;
    for &(cx, cy) in &scene.crossings {
        if cx < patch / 2
            || cy < patch / 2
            || cx + patch / 2 >= scene.width()
            || cy + patch / 2 >= scene.height()
        {
            continue;
        }
        let image = clip_patch(&bands, cx, cy, patch).map(|v| (v - 0.5) * 2.0);
        if detector.detect(&image).is_some() {
            detected.push((cx, cy));
        }
    }
    assert!(
        detected.len() * 2 >= scene.crossings.len(),
        "detector found only {}/{} crossings",
        detected.len(),
        scene.crossings.len()
    );

    // Breaching at the detected points must improve network preservation.
    let threshold = 100.0;
    let bare = connectivity(&scene.dem, threshold);
    let dammed = connectivity(&scene.dem_with_roads, threshold);
    let mut breached_dem = scene.dem_with_roads.clone();
    breach_at(&mut breached_dem, &detected, 4);
    let fixed = connectivity(&breached_dem, threshold);
    let before = dammed.stream_overlap_buffered(&bare, scene.width(), 2);
    let after = fixed.stream_overlap_buffered(&bare, scene.width(), 2);
    assert!(
        after > before,
        "breaching at detected crossings should help: {before} → {after}"
    );
}

#[test]
fn pipeline_to_profiling_end_to_end() {
    // Fig 5 pipeline with a fast proxy evaluator, then profile the winner.
    let pipeline = Pipeline::new(
        PipelineConfig::new()
            .with_max_trials(5)
            .with_batch_sizes(vec![1, 4, 16])
            .with_warmup(1)
            .with_iterations(2)
            .with_accuracy_threshold(0.9),
    );
    let mut strategy = RandomSearch::new(SppNetSearchSpace::paper(), 5, 11);
    let evaluator = FunctionalEvaluator::new(|c: &SppNetConfig| {
        0.90 + (c.fc1 as f64).log2() / 13.0 * 0.05 + c.spp_top_level as f64 * 0.002
    });
    let result = pipeline.run(&mut strategy, &evaluator);
    assert!(!result.candidates.is_empty());
    assert!(result.candidates[0].optimized_ms <= result.candidates[0].sequential_ms);

    let (profile, trace) = profile_run(
        &result.winner,
        (100, 100),
        &DeviceSpec::rtx_a5500(),
        result.optimal_batch,
        5,
    );
    assert!(profile.latency_ns > 0.0);
    assert!(profile.conv_pct > 0.0 && profile.gemm_pct > 0.0);
    let stats = dcd_profiler::ProfileReport::from_trace(&trace).render();
    assert!(stats.contains("cudaDeviceSynchronize"));
}

#[test]
fn simulated_efficiency_and_profile_are_consistent() {
    // The latency the executor reports and the kernel times in the trace
    // must agree: kernel time ≤ total latency per iteration.
    use dcd_gpusim::KernelClass;
    let cfg = SppNetConfig::original();
    let iters = 4usize;
    let (profile, trace) = profile_run(&cfg, (100, 100), &DeviceSpec::rtx_a5500(), 2, iters);
    let kernel_total: u64 = [
        KernelClass::Conv,
        KernelClass::Gemm,
        KernelClass::Pool,
        KernelClass::Elementwise,
        KernelClass::Copy,
    ]
    .iter()
    .map(|&c| trace.kernel_time(c))
    .sum();
    let latency_total = profile.latency_ns * iters as f64;
    assert!(
        (kernel_total as f64) <= latency_total * 1.05,
        "kernel busy {kernel_total} ns exceeds total latency {latency_total} ns"
    );
    assert!(kernel_total > 0);
}

#[test]
fn table1_and_table2_configs_are_the_same_objects() {
    // The configs trained for Table 1 are exactly the configs benchmarked
    // for Table 2 — a consistency guard on the reproduction.
    let t1: Vec<_> = SppNetConfig::table1().into_iter().map(|(_, c)| c).collect();
    assert_eq!(t1.len(), 4);
    let pipeline = Pipeline::new(PipelineConfig::new().with_warmup(0).with_iterations(1));
    for cfg in &t1 {
        let (seq, opt, schedule) = pipeline.benchmark(cfg);
        assert!(opt <= seq);
        assert!(schedule.num_ops() >= 14);
    }
}
