//! Fault-injection integration tests: the acceptance scenarios for the
//! resilient-inference stack, all deterministic from fixed seeds.
//!
//! 1. A scene scan with injected *transient* kernel-launch failures
//!    completes via retries and yields detections identical to the
//!    fault-free run.
//! 2. VRAM pressure that rules out the requested batch degrades the batch
//!    (halving) and the scan still completes.
//! 3. A *persistent* per-stream launch failure makes the IOS-optimized
//!    multi-stream schedule unusable; the scan falls back to the sequential
//!    baseline and completes.
//!
//! Each scenario's recovery actions are visible in the returned
//! [`RunHealth`].

use dcd_core::{
    scan_scene, scan_scene_resilient, DrainageCrossingDetector, ScanConfig, SimScanConfig,
};
use dcd_geodata::dataset::small_config;
use dcd_geodata::render::render_bands;
use dcd_geodata::PatchDataset;
use dcd_gpusim::{DeviceSpec, FaultPlan};
use dcd_nn::{SppNet, SppNetConfig};
use dcd_tensor::{SeededRng, Tensor};

/// A deterministic untrained detector over 4-band geodata patches: resilience
/// is about *completing* runs bit-identically, not about detection quality.
fn fixture() -> (DrainageCrossingDetector, Tensor, ScanConfig) {
    let mut arch = SppNetConfig::tiny();
    arch.in_channels = 4;
    let model = SppNet::new(arch, &mut SeededRng::new(5));
    let mut detector = DrainageCrossingDetector::from_model(model);
    detector.threshold = 0.0; // fire on every tile; NMS dedups
    let ds = PatchDataset::generate(&small_config(), 21);
    let bands = render_bands(&ds.scene, 0.03, &mut SeededRng::new(9));
    let scan = ScanConfig::for_patch(48).with_batch_size(8).with_stride(24);
    (detector, bands, scan)
}

#[test]
fn transient_launch_failures_retry_to_identical_detections() {
    let (detector, bands, scan) = fixture();
    let fault_free = scan_scene(&detector, &bands, &scan);
    assert!(!fault_free.is_empty(), "fixture produced no detections");

    let sim = SimScanConfig::new()
        .with_device(DeviceSpec::test_gpu())
        .with_fault_plan(FaultPlan {
            seed: 1234,
            launch_failure_rate: 0.03,
            ..FaultPlan::none()
        });
    let report = scan_scene_resilient(&detector, &bands, &scan, &sim)
        .expect("retries absorb transient launch failures");
    assert_eq!(
        report.detections, fault_free,
        "a recovered scan must be bit-identical to the fault-free one"
    );
    assert!(
        report.health.launch_failures > 0,
        "seed 1234 at 1.5% must inject at least one launch failure"
    );
    assert_eq!(
        report.health.retries, report.health.launch_failures,
        "every transient failure costs exactly one retry"
    );
    assert_eq!(report.health.degradations, 0);
    assert_eq!(report.health.fallbacks, 0);
    assert!(!report.fell_back);
    assert_eq!(report.batch, 8, "batch untouched by transient faults");
}

#[test]
fn vram_pressure_degrades_batch_and_scan_completes() {
    let (detector, bands, scan) = fixture();
    let fault_free = scan_scene(&detector, &bands, &scan);
    let scan = scan.with_batch_size(64);

    // Leave usable VRAM for the weights plus ~20 batches' worth of
    // activations: batch 64 cannot fit, so the runner halves 64 → 32 → 16.
    let graph = dcd_ios::lower_sppnet(detector.config(), (scan.patch_size, scan.patch_size));
    let spec = DeviceSpec::test_gpu();
    let usable = graph.weight_bytes() + graph.activation_bytes(20);
    let sim = SimScanConfig::new()
        .with_device(spec.clone())
        .with_fault_plan(FaultPlan {
            vram_pressure_bytes: spec.mem_capacity - usable,
            ..FaultPlan::none()
        });
    let report = scan_scene_resilient(&detector, &bands, &scan, &sim)
        .expect("degraded batch still completes");
    assert_eq!(report.batch, 16, "64 → 32 → 16 under this pressure");
    assert_eq!(report.health.degradations, 2);
    assert_eq!(report.health.oom_events, 2);
    assert_eq!(report.health.launch_failures, 0);
    assert!(!report.fell_back);
    assert_eq!(
        report.detections, fault_free,
        "batch size must not change what is detected"
    );
}

#[test]
fn persistent_stream_failure_falls_back_to_sequential() {
    let (detector, bands, scan) = fixture();
    let fault_free = scan_scene(&detector, &bands, &scan);

    // Every stream except 0 refuses all launches: the IOS-optimized
    // multi-stream schedule can never finish an inference, the sequential
    // baseline (stream 0 only) always can. Chain pruning is capped so IOS
    // actually parallelizes this small model's SPP branches (unbounded
    // chaining degenerates to one stream and there is nothing to fall back
    // from).
    let sim = SimScanConfig::new()
        .with_device(DeviceSpec::test_gpu())
        .with_fault_plan(FaultPlan {
            persistent_launch_failure_streams: (1..16).collect(),
            ..FaultPlan::none()
        })
        .with_ios(dcd_ios::IosOptions::new().with_max_group_len(3));
    let report = scan_scene_resilient(&detector, &bands, &scan, &sim)
        .expect("sequential fallback completes the scan");
    assert!(report.fell_back, "scan must abandon the IOS schedule");
    assert_eq!(report.health.fallbacks, 1);
    assert!(
        report.health.launch_failures >= sim.retry.max_attempts as u64,
        "the whole retry budget was burned before falling back"
    );
    assert_eq!(report.health.device_hangs, 0);
    assert_eq!(
        report.detections, fault_free,
        "the fallback schedule computes the same detections"
    );
}

#[test]
fn resilient_scan_is_deterministic_across_runs() {
    let (detector, bands, scan) = fixture();
    let sim = SimScanConfig::new()
        .with_device(DeviceSpec::test_gpu())
        .with_fault_plan(FaultPlan {
            seed: 77,
            launch_failure_rate: 0.01,
            memcpy_failure_rate: 0.005,
            ..FaultPlan::none()
        });
    let a = scan_scene_resilient(&detector, &bands, &scan, &sim).expect("completes");
    let b = scan_scene_resilient(&detector, &bands, &scan, &sim).expect("completes");
    assert_eq!(a.detections, b.detections);
    assert_eq!(
        a.health, b.health,
        "fault draws are a pure function of the seed"
    );
    assert_eq!(a.sim_ns, b.sim_ns);
}
