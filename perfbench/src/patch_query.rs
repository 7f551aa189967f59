//! `patch-query`: closed loop with one client. Each request is one 100×100
//! patch of the seeded dataset through `DrainageCrossingDetector::detect`
//! at batch 1.

use crate::host::{self, GrowCounters, TensorBreakdown, SCORE_TOL};
use crate::report::{self, ms, Outcome};
use crate::Args;
use dcd_core::DrainageCrossingDetector;
use dcd_geodata::PatchDataset;
use dcd_nn::{Detection, SppNet, SppNetConfig};
use dcd_tensor::{SeededRng, Tensor};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Queries a run needs at least, so ten or more lie beyond p95.
const MIN_QUERIES: usize = 200;
/// Replies re-scored through the reference path per run.
const CHECKED_REPLIES: usize = 8;
/// Untimed queries before the window.
const WARMUP_QUERIES: usize = 3;

const SALT_MODEL: u64 = 0x5155_4552_0001;
const SALT_ORDER: u64 = 0x5155_4552_0002;

struct Setup {
    patches: Vec<Tensor>,
    detector: DrainageCrossingDetector,
}

fn setup(seed: u64) -> Setup {
    let dataset = PatchDataset::generate(&host::paper_dataset_config(), seed);
    let mut patches: Vec<Tensor> = dataset
        .train
        .into_iter()
        .chain(dataset.test)
        .map(|s| s.image)
        .collect();
    SeededRng::new(seed ^ SALT_ORDER).shuffle(&mut patches);
    let model = SppNet::new(
        SppNetConfig::candidate2(),
        &mut SeededRng::new(seed ^ SALT_MODEL),
    );
    let mut detector = DrainageCrossingDetector::from_model(model);
    for p in patches.iter().take(WARMUP_QUERIES) {
        detector.detect(p);
    }
    Setup { patches, detector }
}

/// Queries until `seconds` have passed and at least [`MIN_QUERIES`] were
/// answered. Returns each query's latency (ms) and reply.
fn query_window(
    s: &mut Setup,
    seconds: f64,
    bench_span: bool,
) -> (Vec<f64>, Vec<Option<Detection>>) {
    let start = Instant::now();
    let mut lat = Vec::new();
    let mut replies = Vec::new();
    let n = s.patches.len();
    while lat.len() < MIN_QUERIES || start.elapsed().as_secs_f64() < seconds {
        let patch = &s.patches[lat.len() % n];
        let t = Instant::now();
        let reply = {
            let _span = bench_span.then(|| dcd_obs::span("bench.detect", dcd_obs::Category::Other));
            s.detector.detect(patch)
        };
        lat.push(ms(t.elapsed()));
        replies.push(reply);
    }
    (lat, replies)
}

/// Re-scores a seeded sample of replies through the reference path.
fn check_replies(s: &mut Setup, replies: &[Option<Detection>], seed: u64, out: &mut Outcome) {
    let mut order: Vec<usize> = (0..replies.len()).collect();
    SeededRng::new(seed ^ SALT_ORDER).shuffle(&mut order);
    let threshold = s.detector.threshold;
    for &i in order.iter().take(CHECKED_REPLIES) {
        let patch = &s.patches[i % s.patches.len()];
        let (score, b) = host::reference_score(s.detector.model_mut(), patch);
        let ok = match replies[i] {
            Some(d) => {
                (d.score - score).abs() <= SCORE_TOL
                    && d.bbox
                        .to_vec()
                        .iter()
                        .zip(b.to_vec())
                        .all(|(x, y)| (x - y).abs() <= SCORE_TOL)
            }
            None => score < threshold + SCORE_TOL,
        };
        out.check(ok, || {
            format!(
                "query {i}: reply {:?} vs reference score {score}",
                replies[i]
            )
        });
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (mut s, setup_s) = if args.trace {
        (setup(args.seed), f64::NAN)
    } else {
        report::repeated_setup(SETUPS, || setup(args.seed))
    };
    out.note("patches", s.patches.len() as f64, "count");

    let grow = GrowCounters::now();
    let (lat, replies) = query_window(&mut s, args.seconds, false);
    let scratch_grows = grow.check(&mut out, "timed queries");
    out.attempted += lat.len() as u64;
    let p50 = report::median(&lat);
    let p95 = report::percentile(&lat, 0.95);
    out.note("queries", lat.len() as f64, "count");
    out.note("query_p50_ms", p50, "ms");
    out.note("query_p95_ms", p95, "ms");

    if args.trace {
        let t = host::traced(
            &mut out,
            &mut s,
            |s| {
                s.detector.detect(&s.patches[0]);
            },
            |s| query_window(s, args.seconds, true),
        );
        let (tlat, _) = t.value;
        let (spans, metrics) = (t.spans, t.metrics);
        out.attempted += tlat.len() as u64;
        let queries = tlat.len() as f64;
        let tb = TensorBreakdown::of(&spans, &metrics, "bench.detect");
        tb.record(
            &mut out,
            queries,
            queries * host::fc_weight_bytes(s.detector.config()),
        );
        out.set(
            "tensor.scratch_grows",
            (scratch_grows + t.scratch_grows) as f64,
        );
        out.set(
            "obs.accounted_pct",
            (tb.conv_ns + tb.fc_ns + tb.forward_self_ns) / tb.forward_ns * 100.0,
        );
        out.set(
            "obs.trace_overhead_pct",
            host::overhead_pct(p50, report::median(&tlat)),
        );
    } else {
        out.set("setup_s", setup_s);
        out.set("throughput_per_s", 1e3 / p50);
        out.set("latency_p50_ms", p50);
    }

    check_replies(&mut s, &replies, args.seed, &mut out);
    if !args.trace {
        report::record_peak_rss(&mut out, report::peak_rss_mb());
    }
    out
}
