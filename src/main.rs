//! `drainage-repro` — command-line interface to the reproduction stack.
//!
//! ```text
//! drainage-repro train   [--epochs N] [--seed S] [--out model.json]
//! drainage-repro scan    [--model model.json] [--seed S] [--threshold T]
//! drainage-repro profile [--batch B] [--timeline out.json]
//! drainage-repro serve   [--scenario NAME] [--seed S] [--timeline out.json]
//! drainage-repro sweep
//! ```
//!
//! `train` fits a compact SPP-Net on a synthetic watershed and writes a
//! JSON checkpoint; `scan` loads it and scans a fresh scene; `profile`
//! prints the nsys-style report for the paper's final model (and with
//! `--timeline out.json` also records a small host workload and writes a
//! merged host+device Chrome-trace timeline for Perfetto); `serve` replays
//! a named chaos scenario through the fault-aware serving runtime and
//! prints its SLO report; `sweep` prints the Fig 6 batch-size sweep.

use dcd_core::scan::{match_detections, scan_scene, ScanConfig};
use dcd_core::{profile_run, DrainageCrossingDetector, Pipeline, PipelineConfig};
use dcd_geodata::dataset::small_config;
use dcd_geodata::render::render_bands;
use dcd_geodata::PatchDataset;
use dcd_gpusim::DeviceSpec;
use dcd_nn::{Checkpoint, Sgd, SppNet, SppNetConfig, TrainConfig, Trainer};
use dcd_profiler::ProfileReport;
use dcd_tensor::SeededRng;

/// Looks up `--name value` in the argument list.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag(args, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("train") => cmd_train(&args),
        Some("scan") => cmd_scan(&args),
        Some("profile") => cmd_profile(&args),
        Some("serve") => cmd_serve(&args),
        Some("sweep") => cmd_sweep(),
        _ => {
            eprintln!("usage: drainage-repro <train|scan|profile|serve|sweep> [flags]");
            eprintln!("  train   [--epochs N] [--seed S] [--out model.json]");
            eprintln!("  scan    [--model model.json] [--seed S] [--threshold T]");
            eprintln!("  profile [--batch B] [--timeline out.json]");
            eprintln!("  serve   [--scenario NAME] [--seed S] [--timeline out.json]");
            eprintln!("  sweep");
            std::process::exit(2);
        }
    }
}

fn dataset(seed: u64) -> PatchDataset {
    let mut cfg = small_config();
    cfg.center_jitter = 2;
    PatchDataset::generate(&cfg, seed)
}

fn cmd_train(args: &[String]) {
    let epochs = parse(args, "--epochs", 18usize);
    let seed = parse(args, "--seed", 42u64);
    let out = flag(args, "--out").unwrap_or_else(|| "model.json".to_string());

    let ds = dataset(seed);
    println!(
        "dataset: {} train / {} test patches",
        ds.train.len(),
        ds.test.len()
    );
    let mut arch = SppNetConfig::original();
    arch.channels = [12, 24, 32];
    arch.fc1 = 128;
    println!("training {} for {epochs} epochs ...", arch.summary());
    let mut rng = SeededRng::new(7);
    let mut model = SppNet::new(arch, &mut rng);
    Trainer::new(TrainConfig {
        epochs,
        batch_size: 20,
        sgd: Sgd::new(0.015, 0.9, 0.0005),
        lr_decay_every: Some((epochs / 3).max(1)),
        ..Default::default()
    })
    .train(&mut model, &ds.train);
    let (ap, _) = dcd_nn::trainer::evaluate(&model, &ds.test, 0.5);
    println!("test AP@IoU0.5 = {ap:.3}");
    let ckpt = Checkpoint::save(&mut model);
    std::fs::write(&out, ckpt.to_json()).expect("write checkpoint");
    println!("checkpoint written to {out}");
}

fn cmd_scan(args: &[String]) {
    let path = flag(args, "--model").unwrap_or_else(|| "model.json".to_string());
    let seed = parse(args, "--seed", 43u64);
    let threshold = parse(args, "--threshold", 0.6f32);

    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read checkpoint {path}: {e} (run `train` first)"));
    let ckpt = Checkpoint::from_json(&json).expect("valid checkpoint JSON");
    let model = ckpt.load().expect("checkpoint matches its architecture");
    let mut detector = DrainageCrossingDetector::from_model(model);
    detector.threshold = threshold;
    println!("loaded {} from {path}", detector.config().summary());

    let ds = dataset(seed);
    let bands = render_bands(&ds.scene, 0.03, &mut SeededRng::new(seed ^ 0xABCD));
    let scan = ScanConfig::for_patch(64).with_batch_size(32);
    let dets = scan_scene(&detector, &bands, &scan);
    println!("x,y,score");
    for d in &dets {
        println!("{},{},{:.3}", d.x, d.y, d.score);
    }
    let (p, r) = match_detections(&dets, &ds.scene.crossings, 12);
    eprintln!(
        "{} detections vs {} digitized crossings: precision {p:.2}, recall {r:.2}",
        dets.len(),
        ds.scene.crossings.len()
    );
}

/// A small real workload on the host implementation — a one-epoch training
/// run plus a scene scan — so the merged timeline has gemm/conv/scan/trainer
/// spans to interleave with the simulated device trace.
fn host_workload() {
    let mut cfg = small_config();
    cfg.center_jitter = 2;
    let ds = PatchDataset::generate(&cfg, 11);
    let mut rng = SeededRng::new(7);
    let mut arch = SppNetConfig::tiny();
    arch.in_channels = ds.train[0].image.dims()[0];
    let mut model = SppNet::new(arch, &mut rng);
    let subset = &ds.train[..ds.train.len().min(16)];
    Trainer::new(TrainConfig {
        epochs: 1,
        batch_size: 8,
        ..Default::default()
    })
    .train(&mut model, subset);
    let mut detector = DrainageCrossingDetector::from_model(model);
    detector.threshold = 0.9;
    let bands = render_bands(&ds.scene, 0.03, &mut SeededRng::new(5));
    let scan = ScanConfig::for_patch(48).with_batch_size(8).with_stride(24);
    let _ = scan_scene(&detector, &bands, &scan);
}

fn cmd_profile(args: &[String]) {
    let batch = parse(args, "--batch", 32usize);
    let timeline = flag(args, "--timeline");
    if timeline.is_some() {
        dcd_obs::set_enabled(true);
        host_workload();
    }
    let (profile, trace) = profile_run(
        &SppNetConfig::candidate2(),
        (100, 100),
        &DeviceSpec::rtx_a5500(),
        batch,
        20,
    );
    let mut report = ProfileReport::from_trace(&trace);
    if timeline.is_some() {
        report = report.with_host_spans(dcd_obs::drain_spans());
    }
    println!("{}", report.render());
    if timeline.is_some() {
        println!("{}", dcd_obs::snapshot().render());
    }
    println!(
        "batch {batch}: latency {:.3} ms, memops/image {:.0} ns, GPU mem {:.0} MB",
        profile.latency_ns / 1e6,
        profile.memops_per_image_ns,
        profile.mem_used_bytes as f64 / 1e6
    );
    if let Some(path) = timeline {
        std::fs::write(&path, report.chrome_trace().to_json()).expect("write timeline JSON");
        eprintln!(
            "merged host+device timeline written to {path} (open at https://ui.perfetto.dev)"
        );
    }
}

fn cmd_serve(args: &[String]) {
    let name = flag(args, "--scenario").unwrap_or_else(|| "fault-burst".to_string());
    let seed = parse(args, "--seed", 42u64);
    let timeline = flag(args, "--timeline");

    let Some(sc) = dcd_serve::scenario(&name, seed) else {
        eprintln!(
            "unknown scenario '{name}'; catalog: {}",
            dcd_serve::scenario_names().join(", ")
        );
        std::process::exit(2);
    };
    if timeline.is_some() {
        dcd_obs::set_enabled(true);
    }
    let (report, trace) = dcd_serve::run_scenario(&sc);

    println!(
        "scenario {name} (seed {seed}): {} offered over {:.1} ms, drained at {:.1} ms",
        report.offered,
        sc.arrivals.duration_ns as f64 / 1e6,
        report.end_ns as f64 / 1e6
    );
    println!(
        "  served {} ({:.1}% within deadline), late {}, shed {} (capacity {} / brownout {}), dropped {}, unserved {}",
        report.served,
        report.served_fraction() * 100.0,
        report.late,
        report.shed_capacity + report.shed_brownout,
        report.shed_capacity,
        report.shed_brownout,
        report.dropped,
        report.unserved
    );
    println!(
        "  batches {} ({} failed), latency p50 {:.3} ms / p99 {:.3} ms",
        report.batches,
        report.failed_batches,
        report.p50_latency_ns as f64 / 1e6,
        report.p99_latency_ns as f64 / 1e6
    );
    println!(
        "  breaker: final {}, open {:.3} ms total{}",
        report.final_breaker_state().label(),
        report.breaker_open_ns as f64 / 1e6,
        if report.fell_back {
            "; latched sequential fallback"
        } else {
            ""
        }
    );
    for (t, s) in &report.breaker_transitions {
        println!("    {:>10.3} ms  breaker -> {}", *t as f64 / 1e6, s.label());
    }
    for (t, l) in &report.brownout_transitions {
        println!(
            "    {:>10.3} ms  brownout -> {}",
            *t as f64 / 1e6,
            l.label()
        );
    }
    if !report.health.is_clean() {
        println!(
            "  health: {} retries, {} faults seen, {} degradations, {} hangs, backoff wait {:.3} ms",
            report.health.retries,
            report.health.faults_seen(),
            report.health.degradations,
            report.health.device_hangs,
            report.health.backoff_wait_ns as f64 / 1e6
        );
    }
    assert!(report.conserved(), "request ledger does not balance");

    if let Some(path) = timeline {
        let report = ProfileReport::from_trace(&trace).with_host_spans(dcd_obs::drain_spans());
        std::fs::write(&path, report.chrome_trace().to_json()).expect("write timeline JSON");
        eprintln!(
            "merged host+device timeline written to {path} (open at https://ui.perfetto.dev)"
        );
    }
}

fn cmd_sweep() {
    let pipeline = Pipeline::new(PipelineConfig::default());
    let sweep = pipeline.batch_sweep(&SppNetConfig::candidate2());
    println!("batch,sequential_ns_per_image,optimized_ns_per_image");
    for pt in &sweep {
        println!(
            "{},{:.0},{:.0}",
            pt.batch, pt.sequential_ns_per_image, pt.optimized_ns_per_image
        );
    }
    eprintln!(
        "optimal batch (diminishing-gains rule): {}",
        Pipeline::pick_optimal_batch(&sweep)
    );
}
