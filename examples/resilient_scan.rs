//! Resilience-mode example: scan a watershed on a GPU that misbehaves on
//! purpose. A seeded `FaultPlan` injects transient launch failures, VRAM
//! pressure, and a wedged stream set; the resilient scanner absorbs them
//! with retries, batch degradation, and a sequential-schedule fallback,
//! and every recovery action is tallied in the returned `RunHealth`.
//!
//! ```sh
//! cargo run --release --example resilient_scan
//! ```

use dcd_core::{scan_scene, scan_scene_resilient, DrainageCrossingDetector, ScanConfig};
use dcd_core::{RetryPolicy, SimScanConfig};
use dcd_gpusim::{DeviceSpec, FaultPlan};
use dcd_nn::{SppNet, SppNetConfig};
use dcd_tensor::SeededRng;

fn main() {
    // An untrained detector over a small scene: resilience is about
    // *completing* runs bit-identically, not about detection quality.
    let mut arch = SppNetConfig::tiny();
    arch.in_channels = 4;
    let mut detector =
        DrainageCrossingDetector::from_model(SppNet::new(arch, &mut SeededRng::new(5)));
    detector.threshold = 0.0;
    let ds = dcd_geodata::PatchDataset::generate(&dcd_geodata::dataset::small_config(), 21);
    let bands = dcd_geodata::render::render_bands(&ds.scene, 0.03, &mut SeededRng::new(9));
    let scan = ScanConfig::for_patch(48).with_batch_size(8).with_stride(24);

    let baseline = scan_scene(&detector, &bands, &scan);
    println!("fault-free scan: {} detections", baseline.len());

    // 1. Transient launch failures → absorbed by retries.
    let sim = SimScanConfig::new()
        .with_device(DeviceSpec::test_gpu())
        .with_fault_plan(FaultPlan {
            seed: 1234,
            launch_failure_rate: 0.03,
            ..FaultPlan::none()
        });
    let r = scan_scene_resilient(&detector, &bands, &scan, &sim).expect("retries absorb");
    println!(
        "\n[transient faults]   {} detections (identical: {}), health: {:?}",
        r.detections.len(),
        r.detections == baseline,
        r.health
    );

    // 2. VRAM pressure → the batch degrades by halving until it fits.
    let graph = dcd_ios::lower_sppnet(detector.config(), (scan.patch_size, scan.patch_size));
    let spec = DeviceSpec::test_gpu();
    let scan64 = scan.with_batch_size(64);
    let sim = SimScanConfig::new()
        .with_device(spec.clone())
        .with_fault_plan(FaultPlan {
            vram_pressure_bytes: spec.mem_capacity
                - (graph.weight_bytes() + graph.activation_bytes(20)),
            ..FaultPlan::none()
        });
    let r = scan_scene_resilient(&detector, &bands, &scan64, &sim).expect("degrades and completes");
    println!(
        "[vram pressure]      batch 64 → {} ({} degradations), identical: {}, health: {:?}",
        r.batch,
        r.health.degradations,
        r.detections == baseline,
        r.health
    );

    // 3. Persistently wedged streams → fall back to the sequential schedule.
    let sim = SimScanConfig::new()
        .with_device(DeviceSpec::test_gpu())
        .with_fault_plan(FaultPlan {
            persistent_launch_failure_streams: (1..16).collect(),
            ..FaultPlan::none()
        })
        .with_ios(dcd_ios::IosOptions::new().with_max_group_len(3))
        .with_retry(RetryPolicy::default());
    let r = scan_scene_resilient(&detector, &bands, &scan, &sim).expect("fallback completes");
    println!(
        "[wedged streams]     fell back: {}, identical: {}, health: {:?}",
        r.fell_back,
        r.detections == baseline,
        r.health
    );
}
