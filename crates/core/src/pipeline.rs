//! The accuracy-constrained efficiency optimization pipeline (Fig 5, §5.4).
//!
//! Formally: maximize `e(n)` over the architecture space `N`, subject to
//! `a(n) > A`. Accuracy comes from the NAS evaluator; efficiency is the
//! IOS-optimized inference latency on the simulated RTX A5500.

use crate::resilience::{retry_inference, RetryPolicy, RunHealth};
use dcd_gpusim::{DeviceSpec, FaultPlan, Gpu};
use dcd_ios::{
    ios_schedule, lower_sppnet, sequential_schedule, Executor, IosOptions, Schedule, StageCostModel,
};
use dcd_nas::{Evaluator, Experiment, ExplorationStrategy};
use dcd_nn::SppNetConfig;
use serde::{Deserialize, Serialize};

/// Pipeline parameters.
///
/// Non-exhaustive: construct with [`PipelineConfig::new`] (or `default()`)
/// and refine with the `with_*` methods, so new knobs stop being breaking
/// changes.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Accuracy constraint `A`: candidates must score strictly above this.
    pub accuracy_threshold: f64,
    /// NAS trial budget.
    pub max_trials: usize,
    /// Patch size fed to inference (paper: 100×100).
    pub input_hw: (usize, usize),
    /// Target device.
    pub device: DeviceSpec,
    /// IOS pruning options.
    pub ios: IosOptions,
    /// Batch sizes swept in step 4 (paper: 1..64 in powers of two).
    pub batch_sizes: Vec<usize>,
    /// Warmup iterations per latency measurement.
    pub warmup: usize,
    /// Measured iterations per latency measurement.
    pub iterations: usize,
    /// Faults injected into every latency measurement, the
    /// [`Pipeline::benchmark`] and the [`Pipeline::batch_sweep`] alike (use
    /// [`FaultPlan::none`] for a healthy device).
    pub fault_plan: FaultPlan,
    /// Retry policy the benchmark measurements run under.
    pub retry: RetryPolicy,
}

impl PipelineConfig {
    /// The paper's defaults: `A = 0.95`, 16 trials, 100×100 input on a
    /// healthy RTX A5500, power-of-two batch sweep up to 64.
    pub fn new() -> Self {
        PipelineConfig {
            accuracy_threshold: 0.95,
            max_trials: 16,
            input_hw: (100, 100),
            device: DeviceSpec::rtx_a5500(),
            ios: IosOptions::default(),
            batch_sizes: vec![1, 2, 4, 8, 16, 32, 64],
            warmup: 2,
            iterations: 5,
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
        }
    }

    /// Sets the accuracy constraint `A`.
    pub fn with_accuracy_threshold(mut self, accuracy_threshold: f64) -> Self {
        self.accuracy_threshold = accuracy_threshold;
        self
    }

    /// Sets the NAS trial budget.
    pub fn with_max_trials(mut self, max_trials: usize) -> Self {
        self.max_trials = max_trials;
        self
    }

    /// Sets the inference input size.
    pub fn with_input_hw(mut self, input_hw: (usize, usize)) -> Self {
        self.input_hw = input_hw;
        self
    }

    /// Sets the target device.
    pub fn with_device(mut self, device: DeviceSpec) -> Self {
        self.device = device;
        self
    }

    /// Sets the IOS pruning options.
    pub fn with_ios(mut self, ios: IosOptions) -> Self {
        self.ios = ios;
        self
    }

    /// Sets the batch sizes swept in step 4.
    pub fn with_batch_sizes(mut self, batch_sizes: Vec<usize>) -> Self {
        self.batch_sizes = batch_sizes;
        self
    }

    /// Sets warmup iterations per measurement.
    pub fn with_warmup(mut self, warmup: usize) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets measured iterations per measurement.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the fault plan injected into the benchmark measurements.
    pub fn with_fault_plan(mut self, fault_plan: FaultPlan) -> Self {
        self.fault_plan = fault_plan;
        self
    }

    /// Sets the retry policy the benchmark measurements run under.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::new()
    }
}

/// Accuracy + efficiency report for one surviving candidate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CandidateReport {
    /// The candidate architecture.
    pub config: SppNetConfig,
    /// Paper-notation architecture string.
    pub summary: String,
    /// NAS score (`a(n)`).
    pub accuracy: f64,
    /// Latency of the sequential baseline schedule at batch 1, ms.
    pub sequential_ms: f64,
    /// Latency of the IOS-optimized schedule at batch 1, ms.
    pub optimized_ms: f64,
    /// The IOS schedule (stages of groups of op ids).
    pub schedule: Schedule,
    /// Faults seen and recovery actions taken while measuring this
    /// candidate (all-zero on a healthy device).
    pub health: RunHealth,
}

/// One point of the batch-size sweep (Fig 6).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BatchPoint {
    /// Batch size.
    pub batch: usize,
    /// Sequential-schedule efficiency, ns per image.
    pub sequential_ns_per_image: f64,
    /// Optimized-schedule efficiency, ns per image.
    pub optimized_ns_per_image: f64,
}

/// Full pipeline output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineResult {
    /// The NAS journal.
    pub experiment: Experiment,
    /// Candidates that passed the accuracy constraint, with their IOS
    /// latencies, sorted by ascending optimized latency.
    pub candidates: Vec<CandidateReport>,
    /// The most efficient accurate model (first of `candidates`).
    pub winner: SppNetConfig,
    /// Batch-size sweep of the winner.
    pub batch_sweep: Vec<BatchPoint>,
    /// Faults seen and recovery actions taken while sweeping (all-zero on
    /// a healthy device).
    pub sweep_health: RunHealth,
    /// Batch size chosen by the diminishing-gains rule (§6.4; paper: 32).
    pub optimal_batch: usize,
}

impl PipelineResult {
    /// Serializes the full run (NAS journal, candidate latencies, batch
    /// sweep, selections) as a pretty-JSON report.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("pipeline result serializes")
    }

    /// Restores a report from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// The pipeline driver.
pub struct Pipeline {
    /// Configuration.
    pub config: PipelineConfig,
}

impl Pipeline {
    /// A pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        assert!(
            !config.batch_sizes.is_empty(),
            "need at least one batch size"
        );
        Pipeline { config }
    }

    /// Benchmarks one configuration: sequential vs IOS-optimized latency at
    /// batch 1 (the Table 2 measurement).
    pub fn benchmark(&self, config: &SppNetConfig) -> (f64, f64, Schedule) {
        let (seq, opt, schedule, _) = self.benchmark_with_health(config);
        (seq, opt, schedule)
    }

    /// [`Pipeline::benchmark`] plus the [`RunHealth`] of the measurements —
    /// non-trivial only when the pipeline carries a fault plan.
    pub fn benchmark_with_health(&self, config: &SppNetConfig) -> (f64, f64, Schedule, RunHealth) {
        let _span = dcd_obs::span("pipeline.benchmark", dcd_obs::Category::Pipeline);
        let graph = lower_sppnet(config, self.config.input_hw);
        let seq = sequential_schedule(&graph);
        let mut cost = StageCostModel::new(&graph, self.config.device.clone(), 1);
        let opt = ios_schedule(&graph, &mut cost, self.config.ios);
        let mut health = RunHealth::default();
        let t_seq = self.measure(&graph, &seq, 1, &mut health);
        let t_opt = self.measure(&graph, &opt, 1, &mut health);
        (t_seq / 1e6, t_opt / 1e6, opt, health)
    }

    /// Mean latency of one schedule at one batch size, ns: every inference
    /// runs on a device with the configured fault plan, under the retry
    /// policy, and tallies into `health`. With an empty plan this is
    /// [`dcd_ios::measure_latency`], bit for bit.
    fn measure(
        &self,
        graph: &dcd_ios::Graph,
        schedule: &Schedule,
        batch: usize,
        health: &mut RunHealth,
    ) -> f64 {
        let mut gpu = Gpu::new(self.config.device.clone());
        gpu.set_fault_plan(self.config.fault_plan.clone());
        let mut exec = Executor::try_with_gpu(graph, schedule.clone(), batch, gpu)
            .unwrap_or_else(|e| panic!("measurement setup failed: {e}"));
        for _ in 0..self.config.warmup {
            let _ = retry_inference(&mut exec, &self.config.retry, health);
        }
        let iters = self.config.iterations.max(1);
        let mut total = 0u64;
        for _ in 0..iters {
            total += retry_inference(&mut exec, &self.config.retry, health)
                .unwrap_or_else(|e| panic!("measurement exhausted retries: {e}"));
        }
        total as f64 / iters as f64
    }

    /// Sweeps batch sizes for one configuration, re-optimizing the schedule
    /// per batch size like the paper does (§6.4).
    pub fn batch_sweep(&self, config: &SppNetConfig) -> Vec<BatchPoint> {
        self.batch_sweep_with_health(config).0
    }

    /// [`Pipeline::batch_sweep`] plus the [`RunHealth`] of its
    /// measurements, which run through the same [`Pipeline::measure`] path
    /// as the benchmark — on a device with the configured fault plan.
    pub fn batch_sweep_with_health(&self, config: &SppNetConfig) -> (Vec<BatchPoint>, RunHealth) {
        let _span = dcd_obs::span("pipeline.batch_sweep", dcd_obs::Category::Pipeline);
        let graph = lower_sppnet(config, self.config.input_hw);
        let seq = sequential_schedule(&graph);
        let mut health = RunHealth::default();
        let sweep = self
            .config
            .batch_sizes
            .iter()
            .map(|&batch| {
                let mut cost = StageCostModel::new(&graph, self.config.device.clone(), batch);
                let opt = ios_schedule(&graph, &mut cost, self.config.ios);
                let t_seq = self.measure(&graph, &seq, batch, &mut health);
                let t_opt = self.measure(&graph, &opt, batch, &mut health);
                BatchPoint {
                    batch,
                    sequential_ns_per_image: t_seq / batch as f64,
                    optimized_ns_per_image: t_opt / batch as f64,
                }
            })
            .collect();
        (sweep, health)
    }

    /// §6.4's optimal batch: the last batch size that still improves
    /// per-image efficiency by more than 6% over the previous one — the
    /// point where gains become "diminishing" (the paper selects 32).
    pub fn pick_optimal_batch(sweep: &[BatchPoint]) -> usize {
        assert!(!sweep.is_empty(), "empty sweep");
        let mut best = sweep[0].batch;
        for w in sweep.windows(2) {
            let improvement =
                1.0 - w[1].optimized_ns_per_image / w[0].optimized_ns_per_image.max(1e-9);
            if improvement > 0.06 {
                best = w[1].batch;
            } else {
                break;
            }
        }
        best
    }

    /// Runs the full pipeline: NAS → accuracy filter → IOS ranking → batch
    /// sweep.
    ///
    /// Panics if no candidate clears the accuracy threshold (lower `A` or
    /// raise the trial budget).
    pub fn run(
        &self,
        strategy: &mut dyn ExplorationStrategy,
        evaluator: &dyn Evaluator,
    ) -> PipelineResult {
        let _span = dcd_obs::span("pipeline.run", dcd_obs::Category::Pipeline);
        let experiment = Experiment::run(strategy, evaluator, self.config.max_trials);
        let survivors = experiment.candidates_above(self.config.accuracy_threshold);
        assert!(
            !survivors.is_empty(),
            "no candidate exceeded the accuracy constraint A = {}",
            self.config.accuracy_threshold
        );
        let mut candidates: Vec<CandidateReport> = survivors
            .iter()
            .map(|t| {
                let (sequential_ms, optimized_ms, schedule, health) =
                    self.benchmark_with_health(&t.config);
                CandidateReport {
                    config: t.config.clone(),
                    summary: t.config.summary(),
                    accuracy: t.score,
                    sequential_ms,
                    optimized_ms,
                    schedule,
                    health,
                }
            })
            .collect();
        candidates.sort_by(|a, b| {
            a.optimized_ms
                .partial_cmp(&b.optimized_ms)
                .expect("finite latencies")
        });
        let winner = candidates[0].config.clone();
        let (batch_sweep, sweep_health) = self.batch_sweep_with_health(&winner);
        let optimal_batch = Self::pick_optimal_batch(&batch_sweep);
        PipelineResult {
            experiment,
            candidates,
            winner,
            batch_sweep,
            sweep_health,
            optimal_batch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_ios::measure_latency;
    use dcd_nas::{FunctionalEvaluator, RandomSearch, SppNetSearchSpace};

    fn quick_config() -> PipelineConfig {
        PipelineConfig::new()
            .with_max_trials(6)
            .with_batch_sizes(vec![1, 2, 4])
            .with_warmup(1)
            .with_iterations(2)
    }

    /// Accuracy proxy shaped like the paper's Table 1: bigger FC and SPP
    /// level help, with diminishing returns.
    fn proxy_accuracy(cfg: &SppNetConfig) -> f64 {
        let fc = (cfg.fc1 as f64).log2() / 13.0 * 0.02;
        let spp = cfg.spp_top_level as f64 * 0.004;
        0.93 + fc + spp
    }

    #[test]
    fn benchmark_shows_ios_win() {
        let p = Pipeline::new(quick_config());
        let (seq, opt, schedule) = p.benchmark(&SppNetConfig::original());
        assert!(opt < seq, "optimized {opt} ms vs sequential {seq} ms");
        assert!(schedule.num_stages() < 18);
        // The paper's magnitudes: a few tenths of a millisecond at batch 1.
        assert!(seq > 0.05 && seq < 5.0, "sequential {seq} ms out of range");
    }

    #[test]
    fn full_pipeline_selects_efficient_accurate_model() {
        let p = Pipeline::new(quick_config());
        let mut strat = RandomSearch::new(SppNetSearchSpace::paper(), 6, 7);
        let eval = FunctionalEvaluator::new(proxy_accuracy);
        let result = p.run(&mut strat, &eval);
        assert!(!result.candidates.is_empty());
        // Every surviving candidate clears the constraint.
        for c in &result.candidates {
            assert!(c.accuracy > 0.95);
            assert!(c.optimized_ms <= c.sequential_ms);
        }
        // Winner is the fastest survivor.
        for c in &result.candidates[1..] {
            assert!(result.candidates[0].optimized_ms <= c.optimized_ms);
        }
        assert_eq!(result.winner, result.candidates[0].config);
        assert_eq!(result.batch_sweep.len(), 3);
        assert!(result.sweep_health.is_clean());
    }

    #[test]
    fn pipeline_result_roundtrips_json() {
        let p = Pipeline::new(quick_config());
        let mut strat = RandomSearch::new(SppNetSearchSpace::paper(), 4, 9);
        let eval = FunctionalEvaluator::new(proxy_accuracy);
        let result = p.run(&mut strat, &eval);
        let json = result.to_json();
        let back = PipelineResult::from_json(&json).expect("valid json");
        assert_eq!(back.winner, result.winner);
        assert_eq!(back.optimal_batch, result.optimal_batch);
        assert_eq!(back.candidates.len(), result.candidates.len());
        assert_eq!(back.sweep_health, result.sweep_health);
    }

    #[test]
    #[should_panic(expected = "accuracy constraint")]
    fn impossible_constraint_panics() {
        let mut cfg = quick_config();
        cfg.accuracy_threshold = 2.0; // unreachable
        let p = Pipeline::new(cfg);
        let mut strat = RandomSearch::new(SppNetSearchSpace::paper(), 4, 1);
        let eval = FunctionalEvaluator::new(proxy_accuracy);
        p.run(&mut strat, &eval);
    }

    #[test]
    fn batch_sweep_efficiency_improves_then_plateaus() {
        let mut cfg = quick_config();
        cfg.batch_sizes = vec![1, 2, 4, 8, 16, 32, 64];
        let p = Pipeline::new(cfg);
        let sweep = p.batch_sweep(&SppNetConfig::candidate2());
        // Efficiency (ns/image) is non-increasing over the first steps.
        assert!(sweep[1].optimized_ns_per_image < sweep[0].optimized_ns_per_image);
        // Relative gain at the tail is smaller than at the head
        // (diminishing returns, Fig 6).
        let head_gain = sweep[0].optimized_ns_per_image / sweep[1].optimized_ns_per_image;
        let tail_gain = sweep[5].optimized_ns_per_image / sweep[6].optimized_ns_per_image;
        assert!(
            head_gain > tail_gain,
            "head {head_gain} vs tail {tail_gain}"
        );
    }

    #[test]
    fn faulted_benchmark_reports_health() {
        use dcd_gpusim::FaultPlan;
        let mut cfg = quick_config();
        cfg.fault_plan = FaultPlan {
            seed: 3,
            launch_failure_rate: 0.02,
            ..FaultPlan::none()
        };
        let p = Pipeline::new(cfg);
        let (seq, opt, _, health) = p.benchmark_with_health(&SppNetConfig::original());
        assert!(seq > 0.0 && opt > 0.0);
        assert!(health.faults_seen() > 0, "fault plan injected nothing");
        // A healthy pipeline over the same candidate reports a clean bill.
        let clean = Pipeline::new(quick_config());
        let (_, _, _, h2) = clean.benchmark_with_health(&SppNetConfig::original());
        assert!(h2.is_clean());
    }

    #[test]
    fn healthy_sweep_is_measure_latency_bitwise() {
        let p = Pipeline::new(quick_config());
        let config = SppNetConfig::candidate2();
        let (sweep, health) = p.batch_sweep_with_health(&config);
        assert!(health.is_clean());
        let graph = lower_sppnet(&config, p.config.input_hw);
        let (warmup, iterations) = (p.config.warmup, p.config.iterations);
        let seq = sequential_schedule(&graph);
        for (point, &batch) in sweep.iter().zip(&p.config.batch_sizes) {
            let mut cost = StageCostModel::new(&graph, p.config.device.clone(), batch);
            let opt = ios_schedule(&graph, &mut cost, p.config.ios);
            let latency = |s: &Schedule| {
                measure_latency(&graph, s, batch, &p.config.device, warmup, iterations)
                    .efficiency_ns_per_image()
            };
            assert_eq!(point.batch, batch);
            assert_eq!(
                point.sequential_ns_per_image.to_bits(),
                latency(&seq).to_bits()
            );
            assert_eq!(
                point.optimized_ns_per_image.to_bits(),
                latency(&opt).to_bits()
            );
        }
    }

    #[test]
    fn faulted_sweep_records_retries() {
        use dcd_gpusim::FaultPlan;
        let mut cfg = quick_config();
        cfg.fault_plan = FaultPlan {
            seed: 3,
            launch_failure_rate: 0.02,
            ..FaultPlan::none()
        };
        let p = Pipeline::new(cfg);
        let (sweep, health) = p.batch_sweep_with_health(&SppNetConfig::candidate2());
        assert_eq!(sweep.len(), p.config.batch_sizes.len());
        assert!(sweep.iter().all(|b| b.optimized_ns_per_image > 0.0));
        assert!(health.faults_seen() > 0, "fault plan injected nothing");
        assert!(health.retries > 0, "faults were not retried");
    }

    #[test]
    fn healthy_benchmark_is_measure_latency_bitwise() {
        let p = Pipeline::new(quick_config());
        let config = SppNetConfig::original();
        let (seq, opt, schedule, health) = p.benchmark_with_health(&config);
        assert!(health.is_clean());
        let graph = lower_sppnet(&config, p.config.input_hw);
        let latency = |s: &Schedule| {
            let (warmup, iterations) = (p.config.warmup, p.config.iterations);
            measure_latency(&graph, s, 1, &p.config.device, warmup, iterations).mean_ns / 1e6
        };
        assert_eq!(
            seq.to_bits(),
            latency(&sequential_schedule(&graph)).to_bits()
        );
        assert_eq!(opt.to_bits(), latency(&schedule).to_bits());
    }

    #[test]
    fn optimal_batch_rule_detects_plateau() {
        let sweep = vec![
            BatchPoint {
                batch: 1,
                sequential_ns_per_image: 0.0,
                optimized_ns_per_image: 1000.0,
            },
            BatchPoint {
                batch: 2,
                sequential_ns_per_image: 0.0,
                optimized_ns_per_image: 600.0,
            },
            BatchPoint {
                batch: 4,
                sequential_ns_per_image: 0.0,
                optimized_ns_per_image: 400.0,
            },
            BatchPoint {
                batch: 8,
                sequential_ns_per_image: 0.0,
                optimized_ns_per_image: 390.0,
            },
            BatchPoint {
                batch: 16,
                sequential_ns_per_image: 0.0,
                optimized_ns_per_image: 385.0,
            },
        ];
        assert_eq!(Pipeline::pick_optimal_batch(&sweep), 4);
    }
}
