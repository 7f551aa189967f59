//! `nas-trial`: closed loop of training steps. `Trainer::train_batch` at
//! batch 20 (paper §6.1) on candidate 2 at the reduced widths of
//! `Effort::Standard`, for a fixed number of epochs, then `evaluate` for
//! AP@0.5 — one NAS trial. Training continues until the window ends.

use crate::host::{self, GrowCounters, TensorBreakdown};
use crate::report::{self, ms, Outcome};
use crate::Args;
use dcd_bench::{build_dataset, Effort};
use dcd_nn::trainer::evaluate;
use dcd_nn::{Sample, Sgd, SppNet, SppNetConfig, TrainConfig, Trainer};
use dcd_tensor::SeededRng;
use std::time::Instant;

/// Minibatch size (paper §6.1).
const BATCH: usize = 20;
/// Epochs of the trial whose AP is reported.
const TRIAL_EPOCHS: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

const SALT_MODEL: u64 = 0x4e41_5354_0001;
const SALT_SHUFFLE: u64 = 0x4e41_5354_0002;

struct Setup {
    train: Vec<Sample>,
    test: Vec<Sample>,
    model: SppNet,
    trainer: Trainer,
    shuffle: SeededRng,
}

fn model_config() -> SppNetConfig {
    Effort::Standard.scale_config(&SppNetConfig::candidate2())
}

fn setup(seed: u64) -> Setup {
    let dataset = build_dataset(Effort::Standard, seed);
    let trainer = Trainer::new(TrainConfig {
        epochs: TRIAL_EPOCHS,
        batch_size: BATCH,
        sgd: Sgd::new(Effort::Standard.learning_rate(), 0.9, 0.0005),
        ..Default::default()
    });
    let init = || SppNet::new(model_config(), &mut SeededRng::new(seed ^ SALT_MODEL));
    // Warm-up on a twin: a full and a ragged step and one evaluation touch
    // every buffer shape the window uses, without moving the trial's model.
    let mut twin = init();
    let ragged = match dataset.train.len() % BATCH {
        0 => BATCH,
        r => r,
    };
    for n in [BATCH, ragged] {
        let batch: Vec<&Sample> = dataset.train.iter().take(n).collect();
        trainer.train_batch(&mut twin, &batch);
    }
    evaluate(&mut twin, &dataset.test, 0.5);
    Setup {
        train: dataset.train,
        test: dataset.test,
        model: init(),
        trainer,
        shuffle: SeededRng::new(seed ^ SALT_SHUFFLE),
    }
}

/// What one training window measured.
struct Window {
    step_ms: Vec<f64>,
    /// Samples per second of each step.
    step_rate: Vec<f64>,
    samples: usize,
    ap50: Option<f32>,
}

/// Trains epoch by epoch until at least [`TRIAL_EPOCHS`] epochs are done
/// and `seconds` have passed. With `eval`, scores the model on the test set
/// after epoch [`TRIAL_EPOCHS`] (outside the step times).
fn train_window(s: &mut Setup, seconds: f64, eval: bool, out: &mut Outcome) -> Window {
    let start = Instant::now();
    let mut w = Window {
        step_ms: Vec::new(),
        step_rate: Vec::new(),
        samples: 0,
        ap50: None,
    };
    let mut order: Vec<usize> = (0..s.train.len()).collect();
    let mut epoch = 0;
    while epoch < TRIAL_EPOCHS || start.elapsed().as_secs_f64() < seconds {
        s.shuffle.shuffle(&mut order);
        for chunk in order.chunks(BATCH) {
            let batch: Vec<&Sample> = chunk.iter().map(|&i| &s.train[i]).collect();
            let t = Instant::now();
            let (loss, _, _) = s.trainer.train_batch(&mut s.model, &batch);
            let dt = t.elapsed();
            w.step_ms.push(ms(dt));
            w.step_rate.push(batch.len() as f64 / dt.as_secs_f64());
            w.samples += batch.len();
            out.attempted += 1;
            out.check(loss.is_finite(), || format!("epoch {epoch}: loss {loss}"));
        }
        epoch += 1;
        if eval && epoch == TRIAL_EPOCHS {
            let (ap, _) = evaluate(&mut s.model, &s.test, 0.5);
            out.attempted += 1;
            out.check(ap.is_finite() && (0.0..=1.0).contains(&ap), || {
                format!("AP@0.5 {ap} outside [0, 1]")
            });
            w.ap50 = Some(ap);
        }
    }
    w
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (mut s, setup_s) = if args.trace {
        (setup(args.seed), f64::NAN)
    } else {
        report::repeated_setup(SETUPS, || setup(args.seed))
    };
    out.note("train_samples", s.train.len() as f64, "count");
    out.note("test_samples", s.test.len() as f64, "count");

    let grow = GrowCounters::now();
    let w = train_window(&mut s, args.seconds, true, &mut out);
    let scratch_grows = grow.check(&mut out, "timed training");
    let samples_per_s = report::median(&w.step_rate);
    let ap50 = w.ap50.expect("the window runs the trial's epochs") as f64;
    out.note("steps", w.step_ms.len() as f64, "count");
    out.note("train_samples_per_s", samples_per_s, "1/s");
    out.note("step_p90_ms", report::percentile(&w.step_ms, 0.9), "ms");
    out.note("trial_ap50", ap50, "frac");

    if args.trace {
        let mut inner = Outcome::default();
        let t = host::traced(
            &mut out,
            &mut s,
            |s| {
                let batch: Vec<&Sample> = s.train.iter().take(BATCH).collect();
                s.trainer.train_batch(&mut s.model, &batch);
            },
            |s| train_window(s, args.seconds, false, &mut inner),
        );
        out.absorb(inner);
        let tw = t.value;
        let (spans, metrics) = (t.spans, t.metrics);
        let steps = tw.step_ms.len() as f64;
        // Per step the FC weights are read by the forward pass and by the
        // input gradient, and their gradient is written once.
        let fc_bytes = 3.0 * steps * host::fc_weight_bytes(&model_config());
        let tb = TensorBreakdown::of(&spans, &metrics, "sppnet.forward");
        tb.record(&mut out, tw.samples as f64, fc_bytes);
        out.set("tensor.backward_ms_per_step", tb.backward_ns / 1e6 / steps);
        out.set(
            "tensor.scratch_grows",
            (scratch_grows + t.scratch_grows) as f64,
        );
        out.set("nn.train_step_ms", report::median(&w.step_ms));
        out.set("nn.trial_ap50", ap50);
        out.set(
            "obs.trace_overhead_pct",
            host::overhead_pct(1.0 / samples_per_s, 1.0 / report::median(&tw.step_rate)),
        );
    } else {
        out.set("setup_s", setup_s);
        out.set("throughput_per_s", samples_per_s);
        out.set("latency_p50_ms", report::median(&w.step_ms));
        report::record_peak_rss(&mut out, report::peak_rss_mb());
    }
    out
}
