//! Observability-overhead microbenchmark for the `dcd-obs` crate.
//!
//! Runs the scene-scan hot path (the workload the paper optimizes for:
//! a large volume of patch inferences) three times — instrumentation
//! disabled, enabled, and disabled again — and records the relative
//! overhead in `BENCH_obs.json`. The second disabled run guards against
//! drift: both disabled runs must agree, and the enabled run must stay
//! within a few percent of them (spans are a clock read plus a bounds-
//! checked push into a pre-reserved buffer). A raw span microbench
//! (ns per enter/exit pair) is recorded alongside.
//!
//! Usage: `cargo run --release -p dcd-bench --bin obs`

use dcd_core::scan::{scan_scene, ScanConfig};
use dcd_core::DrainageCrossingDetector;
use dcd_geodata::dataset::small_config;
use dcd_geodata::render::render_bands;
use dcd_geodata::PatchDataset;
use dcd_nn::{SppNet, SppNetConfig};
use dcd_tensor::{SeededRng, Tensor};
use serde::Serialize;
use std::time::Instant;

/// The recorded artifact.
#[derive(Debug, Serialize)]
struct Report {
    /// Scan wall-clock with observability off, ms (best of REPS).
    disabled_ms: f64,
    /// Scan wall-clock with spans + counters recording, ms (best of REPS).
    enabled_ms: f64,
    /// Scan wall-clock after turning observability back off, ms.
    disabled_again_ms: f64,
    /// `enabled_ms / disabled_ms - 1`, as a percentage.
    overhead_pct: f64,
    /// Cost of one disabled span guard, ns.
    disabled_span_ns: f64,
    /// Cost of one enabled span enter/exit pair, ns.
    enabled_span_ns: f64,
    /// Spans recorded by one instrumented scan.
    spans_per_scan: usize,
    /// Buffer regrowths observed during the timed enabled runs (must be 0:
    /// steady-state recording never allocates).
    grow_events_during_timing: u64,
}

const REPS: usize = 5;

fn best_ms(mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// ns per call of `f`, amortized over `iters` calls.
fn ns_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn fixture() -> (DrainageCrossingDetector, Tensor, ScanConfig) {
    let mut arch = SppNetConfig::tiny();
    arch.in_channels = 4;
    let model = SppNet::new(arch, &mut SeededRng::new(5));
    let mut detector = DrainageCrossingDetector::from_model(model);
    detector.threshold = 0.0;
    let ds = PatchDataset::generate(&small_config(), 21);
    let bands = render_bands(&ds.scene, 0.03, &mut SeededRng::new(9));
    let scan = ScanConfig::for_patch(48).with_batch_size(8).with_stride(24);
    (detector, bands, scan)
}

fn main() {
    let (detector, bands, scan) = fixture();

    dcd_obs::set_enabled(false);
    let disabled_ms = best_ms(|| {
        std::hint::black_box(scan_scene(&detector, &bands, &scan));
    });

    dcd_obs::set_enabled(true);
    // Warm-up registers every pool thread's span buffer; draining between
    // runs keeps the buffers from filling (a full buffer drops, which would
    // make the enabled run artificially cheap).
    scan_scene(&detector, &bands, &scan);
    let spans_per_scan = dcd_obs::drain_spans().len();
    let grow_before = dcd_obs::grow_events();
    let mut enabled_ms = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        std::hint::black_box(scan_scene(&detector, &bands, &scan));
        enabled_ms = enabled_ms.min(t.elapsed().as_secs_f64() * 1e3);
        dcd_obs::drain_spans();
    }
    let grow_events_during_timing = dcd_obs::grow_events() - grow_before;

    dcd_obs::set_enabled(false);
    let disabled_again_ms = best_ms(|| {
        std::hint::black_box(scan_scene(&detector, &bands, &scan));
    });

    // Span guard microbench: disabled guards are a single atomic load;
    // enabled pairs add two clock reads and a buffer push.
    let disabled_span_ns = ns_per_call(4_000_000, || {
        let _s = dcd_obs::span("bench.probe", dcd_obs::Category::Other);
    });
    dcd_obs::set_enabled(true);
    dcd_obs::set_thread_capacity(1 << 20);
    let enabled_span_ns = ns_per_call(500_000, || {
        let _s = dcd_obs::span("bench.probe", dcd_obs::Category::Other);
    });
    dcd_obs::drain_spans();
    dcd_obs::set_enabled(false);

    let overhead_pct = (enabled_ms / disabled_ms - 1.0) * 100.0;
    let report = Report {
        disabled_ms,
        enabled_ms,
        disabled_again_ms,
        overhead_pct,
        disabled_span_ns,
        enabled_span_ns,
        spans_per_scan,
        grow_events_during_timing,
    };
    println!(
        "scan: disabled {disabled_ms:.2} ms | enabled {enabled_ms:.2} ms \
         ({overhead_pct:+.2}%) | disabled again {disabled_again_ms:.2} ms"
    );
    println!(
        "span guard: disabled {disabled_span_ns:.1} ns | enabled {enabled_span_ns:.1} ns \
         | {spans_per_scan} spans/scan | {grow_events_during_timing} regrowths while timing"
    );
    assert_eq!(
        grow_events_during_timing, 0,
        "steady-state span recording must not allocate"
    );
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_obs.json", json).expect("write BENCH_obs.json");
    println!("wrote BENCH_obs.json");
}
