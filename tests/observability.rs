//! Integration tests for the unified host+device observability stack: an
//! instrumented scan plus a simulated device trace must merge into one
//! Perfetto-loadable Chrome-trace timeline, with the host metrics registry
//! ticking alongside.
//!
//! The span buffers and metrics registry are process-global, so every test
//! here serializes on one lock and drains/resets state up front.

use dcd_core::scan::{scan_scene, scan_scene_resilient, ScanConfig, SimScanConfig};
use dcd_core::{profile_run, DrainageCrossingDetector};
use dcd_gpusim::DeviceSpec;
use dcd_nn::{SppNet, SppNetConfig};
use dcd_profiler::{ChromeTrace, ProfileReport, DEVICE_PID, HOST_PID};
use dcd_tensor::{SeededRng, Tensor};
use std::sync::Mutex;

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// A small untrained detector over 4-band geodata, plus rendered bands,
/// with recording turned on.
fn fixture() -> (DrainageCrossingDetector, Tensor, ScanConfig) {
    dcd_obs::set_enabled(true);
    let mut arch = SppNetConfig::tiny();
    arch.in_channels = 4;
    let model = SppNet::new(arch, &mut SeededRng::new(5));
    let mut detector = DrainageCrossingDetector::from_model(model);
    detector.threshold = 0.0;
    let ds = dcd_geodata::PatchDataset::generate(&dcd_geodata::dataset::small_config(), 21);
    let bands = dcd_geodata::render::render_bands(&ds.scene, 0.03, &mut SeededRng::new(9));
    let scan = ScanConfig::for_patch(48).with_batch_size(8).with_stride(24);
    (detector, bands, scan)
}

/// Runs an instrumented scan and a simulated profile, and returns the
/// merged report.
fn merged_report() -> ProfileReport {
    dcd_obs::drain_spans();
    dcd_obs::reset_metrics();
    let (detector, bands, scan) = fixture();
    let dets = scan_scene(&detector, &bands, &scan);
    assert!(!dets.is_empty(), "fixture produced no detections");
    let (_, trace) = profile_run(
        &SppNetConfig::tiny(),
        (48, 48),
        &DeviceSpec::rtx_a5500(),
        4,
        3,
    );
    ProfileReport::from_trace(&trace).with_host_spans(dcd_obs::drain_spans())
}

#[test]
fn merged_timeline_covers_host_and_device() {
    let _guard = OBS_LOCK.lock().unwrap();
    let report = merged_report();
    let chrome = report.chrome_trace();

    let x_events: Vec<_> = chrome.traceEvents.iter().filter(|e| e.ph == "X").collect();
    assert!(
        x_events.iter().any(|e| e.pid == HOST_PID),
        "no host events in the merged timeline"
    );
    assert!(
        x_events.iter().any(|e| e.pid == DEVICE_PID),
        "no device events in the merged timeline"
    );

    // The instrumented hot paths must all be present as host spans.
    let host_names: Vec<&str> = x_events
        .iter()
        .filter(|e| e.pid == HOST_PID)
        .map(|e| e.name.as_str())
        .collect();
    for expected in [
        "scan.scene",
        "scan.chunk",
        "sppnet.forward_inference",
        "conv2d",
        "gemm",
    ] {
        assert!(
            host_names.contains(&expected),
            "missing host span {expected:?} in {host_names:?}"
        );
    }

    // The simulated device contributes kernel and memop tracks.
    let device_cats: Vec<&str> = x_events
        .iter()
        .filter(|e| e.pid == DEVICE_PID)
        .map(|e| e.cat.as_str())
        .collect();
    assert!(device_cats.iter().any(|c| c.starts_with("kernel.")));
    assert!(device_cats.contains(&"memop"));
    assert!(device_cats.contains(&"cuda_api"));
}

#[test]
fn merged_timeline_tracks_are_monotone_and_named() {
    let _guard = OBS_LOCK.lock().unwrap();
    let report = merged_report();
    let chrome = report.chrome_trace();

    // Every (pid, tid) track is sorted by start time, so Perfetto renders
    // it without reordering.
    let mut tracks: Vec<(u32, u32)> = chrome
        .traceEvents
        .iter()
        .filter(|e| e.ph == "X")
        .map(|e| (e.pid, e.tid))
        .collect();
    tracks.sort_unstable();
    tracks.dedup();
    assert!(tracks.len() >= 3, "expected host + several device tracks");
    for (pid, tid) in tracks {
        let ts: Vec<f64> = chrome
            .track(pid, tid)
            .iter()
            .filter(|e| e.ph == "X")
            .map(|e| e.ts)
            .collect();
        assert!(
            ts.windows(2).all(|w| w[0] <= w[1]),
            "track ({pid},{tid}) not monotone"
        );
    }

    // Both processes carry metadata names for the Perfetto sidebar.
    let meta_names: Vec<String> = chrome
        .traceEvents
        .iter()
        .filter(|e| e.ph == "M")
        .filter_map(|e| e.args.name.clone())
        .collect();
    assert!(meta_names.iter().any(|n| n == "host"));
    assert!(meta_names.iter().any(|n| n.contains("gpusim")));
}

#[test]
fn chrome_trace_json_round_trips() {
    let _guard = OBS_LOCK.lock().unwrap();
    let report = merged_report();
    let chrome = report.chrome_trace();
    let json = chrome.to_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    let back = ChromeTrace::from_json(&json).expect("valid Chrome-trace JSON");
    assert_eq!(back, chrome);
}

#[test]
fn scan_metrics_tick_and_render() {
    let _guard = OBS_LOCK.lock().unwrap();
    dcd_obs::drain_spans();
    dcd_obs::reset_metrics();
    let (detector, bands, scan) = fixture();
    let _ = scan_scene(&detector, &bands, &scan);
    let snap = dcd_obs::snapshot();
    let patches = snap.counter("scan.patches").expect("scan.patches counted");
    assert!(patches > 0);
    let flops = snap.counter("conv.flops").expect("conv flops counted");
    assert!(flops > 0);
    assert!(snap.render().contains("scan.patches"));
    dcd_obs::drain_spans();
}

#[test]
fn resilient_scan_runs_the_shared_trunk() {
    // At stride 24 the 48-pixel tiles share all three conv levels. The
    // resilient scan builds its chunks through the same trunk as the plain
    // scan, so it counts the same conv FLOPs, fewer than running every
    // tile through the whole network.
    let _guard = OBS_LOCK.lock().unwrap();
    let (detector, bands, scan) = fixture();
    let counted = |run: &dyn Fn()| {
        dcd_obs::reset_metrics();
        run();
        let snap = dcd_obs::snapshot();
        let count = |name| {
            snap.counter(name)
                .unwrap_or_else(|| panic!("{name} not counted"))
        };
        (count("conv.flops"), count("scan.patches"))
    };
    let (plain, tiles) = counted(&|| {
        scan_scene(&detector, &bands, &scan);
    });
    let sim = SimScanConfig::new().with_device(DeviceSpec::test_gpu());
    let (resilient, resilient_tiles) = counted(&|| {
        let report = scan_scene_resilient(&detector, &bands, &scan, &sim).expect("healthy scan");
        assert_eq!(
            report.batch, scan.batch_size,
            "no degradation on a healthy device"
        );
    });
    dcd_obs::reset_metrics();
    detector.detect_tensor(&Tensor::zeros([1, 4, 48, 48]));
    let per_tile = dcd_obs::snapshot()
        .counter("conv.flops")
        .expect("conv flops counted");
    assert_eq!(resilient_tiles, tiles);
    assert_eq!(
        resilient, plain,
        "resilient and plain scans ran different convs"
    );
    assert!(
        resilient < tiles * per_tile,
        "resilient scan ran {resilient} conv FLOPs, per-tile {}",
        tiles * per_tile
    );
    dcd_obs::drain_spans();
}

#[test]
fn report_render_includes_host_span_summary() {
    let _guard = OBS_LOCK.lock().unwrap();
    let report = merged_report();
    let text = report.render();
    assert!(text.contains("cudaLaunchKernel"), "device API section lost");
    assert!(
        text.contains("Host Span Summary"),
        "host section missing from render"
    );
    assert!(text.contains("scan.scene"));
}
