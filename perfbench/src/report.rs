//! Metric catalogue, statistics helpers and the result line.

use std::time::Duration;

/// End-to-end metrics: every workload reports each of them (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
];

/// Per-layer metrics from the traced run (`--trace 1`). A layer a workload
/// does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.conv_ms_per_patch", "ms"),
    ("tensor.conv_gflops", "GFLOP/s"),
    ("tensor.fc_ms_per_patch", "ms"),
    ("tensor.fc_weight_gbps", "GB/s"),
    ("tensor.backward_ms_per_step", "ms"),
    ("tensor.scratch_grows", "count"),
    ("nn.forward_ms_per_patch", "ms"),
    ("nn.forward_self_ms_per_patch", "ms"),
    ("nn.train_step_ms", "ms"),
    ("nn.trial_ap50", "frac"),
    ("geodata.scene_s", "s"),
    ("geodata.crossing_tile_frac", "frac"),
    ("core.chunk_self_ms_per_patch", "ms"),
    ("core.scene_self_ms", "ms"),
    ("core.raw_dets_per_scene", "count"),
    ("ios.plan_ms", "ms"),
    ("ios.stages", "count"),
    ("ios.sim_batch_ms", "ms"),
    ("gpusim.records_per_req", "count"),
    ("gpusim.wall_us_per_batch", "us"),
    ("serve.loop_us_per_req", "us"),
    ("serve.batch_mean", "count"),
    ("serve.shed_frac.low", "frac"),
    ("serve.shed_frac.mid", "frac"),
    ("serve.shed_frac.nominal", "frac"),
    ("serve.shed_frac.burst", "frac"),
    ("serve.futile_frac", "frac"),
    ("serve.retries", "count"),
    ("serve.breaker_open_ms", "ms"),
    ("serve.cold_start_ms", "ms"),
    ("serve.capacity_rps", "1/s"),
    ("serve.goodput_frac", "frac"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.accounted_pct", "%"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (scans, queries, serve phases, training steps).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Metric values by catalogue name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Workload-specific figures printed for readers (not part of the
    /// result line).
    pub notes: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a human-readable figure.
    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.notes.push((name, value, unit));
    }

    /// Counts one failed check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Adds another outcome's operations and failures to this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// Fails unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    /// Prints the readable report and, last, the JSON result line.
    pub fn print(mut self, workload: &str, trace: bool) {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        for (name, value, unit) in &self.notes {
            println!("{workload}  {name} = {value} {unit}");
        }
        let mut fields = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = match self.metrics.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) => v,
                // Idle layers read 0; an end-to-end metric must be measured.
                None if trace => 0.0,
                None => panic!("workload {workload} did not measure {name}"),
            };
            let value = if value.is_finite() {
                value
            } else {
                self.fail(format!("{name} is not finite"));
                0.0
            };
            println!("{workload}  {name} = {value} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        for why in &self.failures {
            println!("{workload}  FAILED: {why}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of a sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Records `peak_rss_mb` from a [`peak_rss_mb`] reading, failing the run
/// when the OS did not report it.
pub fn record_peak_rss(out: &mut Outcome, reading: Option<f64>) {
    match reading {
        Some(mb) => out.set("peak_rss_mb", mb),
        None => out.fail("peak resident memory unavailable (/proc/self/status)".into()),
    }
}

/// Runs `setup` `n` times, keeping the last result, and returns it with the
/// median set-up time in seconds. Earlier results are dropped before the
/// next set-up starts, so peak memory holds one set-up at a time.
pub fn repeated_setup<T>(n: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}
