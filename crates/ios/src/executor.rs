//! Executes a schedule on the simulated GPU and measures latency.
//!
//! One inference is: H2D input copy → barrier → per stage {launch each group
//! on its own stream, barrier} → D2H output copy → barrier. Latency is the
//! host wall time of that sequence — the same quantity the paper reports in
//! Table 2 / Fig 6.

use crate::graph::Graph;
use crate::schedule::{Schedule, ScheduleError};
use dcd_gpusim::{CopyDir, DeviceSpec, Gpu, GpuError, StreamId, Trace};

/// Typed executor error: either the schedule does not fit the graph, or the
/// simulated device failed (allocation, launch, transfer, hang).
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The schedule failed validation against the graph.
    InvalidSchedule(ScheduleError),
    /// The simulated GPU reported an error.
    Gpu(GpuError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::InvalidSchedule(e) => write!(f, "invalid schedule: {e}"),
            ExecError::Gpu(e) => write!(f, "gpu error: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<GpuError> for ExecError {
    fn from(e: GpuError) -> Self {
        ExecError::Gpu(e)
    }
}

impl From<ScheduleError> for ExecError {
    fn from(e: ScheduleError) -> Self {
        ExecError::InvalidSchedule(e)
    }
}

/// Latency statistics of repeated inference runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Batch size of each run.
    pub batch: usize,
    /// Number of measured iterations.
    pub iterations: usize,
    /// Mean latency per inference, ns.
    pub mean_ns: f64,
    /// Fastest iteration, ns.
    pub min_ns: u64,
    /// Slowest iteration, ns.
    pub max_ns: u64,
}

impl RunStats {
    /// Mean latency in milliseconds (the unit Table 2 uses).
    pub fn mean_ms(&self) -> f64 {
        self.mean_ns / 1e6
    }

    /// Inference efficiency as defined in §6.4: latency / batch size.
    pub fn efficiency_ns_per_image(&self) -> f64 {
        self.mean_ns / self.batch as f64
    }

    /// Images per second.
    pub fn throughput(&self) -> f64 {
        self.batch as f64 / (self.mean_ns / 1e9)
    }
}

/// A prepared execution context: device memory allocated, streams created.
pub struct Executor<'g> {
    graph: &'g Graph,
    schedule: Schedule,
    batch: usize,
    gpu: Gpu,
    streams: Vec<StreamId>,
    input_bytes: u64,
    output_bytes: u64,
}

impl<'g> Executor<'g> {
    /// Validates the schedule, creates the context, allocates weights and
    /// activations, and creates one stream per maximum group width.
    ///
    /// Panics if the schedule is invalid for the graph or the model does not
    /// fit in device memory (the A5500's 24 GB fits every configuration the
    /// paper sweeps). Fault-tolerant callers use [`Executor::try_new`].
    pub fn new(graph: &'g Graph, schedule: Schedule, batch: usize, spec: DeviceSpec) -> Self {
        Self::try_new(graph, schedule, batch, spec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Executor::new`]: returns a typed error instead of
    /// panicking on an invalid schedule or a failed allocation.
    pub fn try_new(
        graph: &'g Graph,
        schedule: Schedule,
        batch: usize,
        spec: DeviceSpec,
    ) -> Result<Self, ExecError> {
        Self::try_with_gpu(graph, schedule, batch, Gpu::new(spec))
    }

    /// Builds the context on an existing (possibly fault-planned) GPU.
    ///
    /// Allocation failures are reported as [`ExecError::Gpu`]; under VRAM
    /// pressure, construct at a small batch first and grow with
    /// [`Executor::set_batch`] so OOM degrades the batch instead of losing
    /// the context.
    pub fn try_with_gpu(
        graph: &'g Graph,
        schedule: Schedule,
        batch: usize,
        mut gpu: Gpu,
    ) -> Result<Self, ExecError> {
        assert!(batch > 0, "batch must be positive");
        schedule.validate(graph)?;
        gpu.malloc(graph.weight_bytes())?;
        gpu.malloc(graph.activation_bytes(batch))?;
        let mut streams = vec![0usize];
        for _ in 1..schedule.max_width().max(1) {
            streams.push(gpu.create_stream());
        }
        let input = &graph.ops[0];
        let input_bytes = 4 * batch as u64 * input.out_numel() as u64;
        let output_bytes =
            4 * batch as u64 * graph.ops.last().expect("non-empty").out_numel() as u64;
        Ok(Executor {
            graph,
            schedule,
            batch,
            gpu,
            streams,
            input_bytes,
            output_bytes,
        })
    }

    /// Batch size this executor runs.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The schedule currently executed.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Mutable access to the simulated GPU (fault recovery: `device_reset`,
    /// backoff via `host_busy`).
    pub fn gpu_mut(&mut self) -> &mut Gpu {
        &mut self.gpu
    }

    /// Re-sizes the batch, swapping the activation allocation. On OOM the
    /// previous allocation is restored and the executor is unchanged, so
    /// callers can halve and retry (batch-size degradation).
    pub fn set_batch(&mut self, batch: usize) -> Result<(), GpuError> {
        assert!(batch > 0, "batch must be positive");
        if batch == self.batch {
            return Ok(());
        }
        let old = self.graph.activation_bytes(self.batch);
        self.gpu.free(old);
        if let Err(e) = self.gpu.malloc(self.graph.activation_bytes(batch)) {
            self.gpu
                .malloc(old)
                .expect("restoring the previous activation allocation");
            return Err(e);
        }
        self.batch = batch;
        self.input_bytes = 4 * batch as u64 * self.graph.ops[0].out_numel() as u64;
        self.output_bytes =
            4 * batch as u64 * self.graph.ops.last().expect("non-empty").out_numel() as u64;
        Ok(())
    }

    /// Swaps in a different (validated) schedule, creating any additional
    /// streams it needs. Used by the resilience layer to fall back from an
    /// IOS-optimized schedule to the sequential baseline.
    pub fn set_schedule(&mut self, schedule: Schedule) -> Result<(), ExecError> {
        schedule.validate(self.graph)?;
        while self.streams.len() < schedule.max_width().max(1) {
            self.streams.push(self.gpu.create_stream());
        }
        self.schedule = schedule;
        Ok(())
    }

    /// Device memory currently allocated (weights + activations), bytes.
    pub fn mem_used(&self) -> u64 {
        self.gpu.mem_used()
    }

    /// Runs one inference, returning its latency in ns.
    ///
    /// [`Executor::try_run_inference`] without a watchdog; panics if an
    /// injected fault fires.
    pub fn run_inference(&mut self) -> u64 {
        self.try_run_inference(u64::MAX)
            .expect("inference failed under fault injection; use try_run_inference")
    }

    /// Fallible [`Executor::run_inference`]: every CUDA call can fail under
    /// an injected fault plan, and synchronization is bounded by a watchdog.
    ///
    /// On any error the device is returned to a clean state before the error
    /// propagates — a hang triggers `cudaDeviceReset`, every other failure
    /// drains the already-enqueued work — so the caller can retry, degrade
    /// the batch, or fall back to another schedule on the same executor.
    pub fn try_run_inference(&mut self, watchdog_ns: u64) -> Result<u64, GpuError> {
        let _span = dcd_obs::span("ios.infer", dcd_obs::Category::Ios);
        dcd_obs::counter!("ios.stages").add(self.schedule.stages.len() as u64);
        let t0 = self.gpu.host_ns();
        let r = self.try_run_inference_inner(watchdog_ns);
        match r {
            Ok(()) => Ok(self.gpu.host_ns() - t0),
            Err(e) => {
                self.recover(watchdog_ns, &e);
                Err(e)
            }
        }
    }

    fn try_run_inference_inner(&mut self, watchdog_ns: u64) -> Result<(), GpuError> {
        self.gpu
            .try_memcpy_async(0, CopyDir::H2D, self.input_bytes)?;
        self.gpu.try_device_synchronize(watchdog_ns)?;
        for stage in &self.schedule.stages {
            let max_len = stage.groups.iter().map(|g| g.len()).max().unwrap_or(0);
            // Round-robin dispatch across groups, mirroring the cost model.
            for i in 0..max_len {
                for (gi, group) in stage.groups.iter().enumerate() {
                    if let Some(&op) = group.get(i) {
                        self.gpu.try_launch_kernel(
                            self.streams[gi],
                            self.graph.kernel_for(op, self.batch),
                        )?;
                    }
                }
            }
            self.gpu.try_device_synchronize(watchdog_ns)?;
        }
        self.gpu
            .try_memcpy_async(0, CopyDir::D2H, self.output_bytes)?;
        self.gpu.try_device_synchronize(watchdog_ns)?;
        Ok(())
    }

    /// Returns the device to an idle state after a failed inference.
    fn recover(&mut self, watchdog_ns: u64, err: &GpuError) {
        if matches!(err, GpuError::DeviceHang { .. }) || self.gpu.is_hung() {
            self.gpu.device_reset();
            return;
        }
        // Drain whatever was already enqueued; a hang surfacing here is
        // handled by reset as well.
        if self.gpu.try_device_synchronize(watchdog_ns).is_err() {
            self.gpu.device_reset();
        }
    }

    /// Runs one inference using event-based stage synchronization instead
    /// of device-wide barriers (the way the real IOS runtime chains stages):
    /// every stage's streams wait on events recorded at the end of the
    /// previous stage's groups, the host enqueues the whole graph ahead,
    /// and a single `cudaDeviceSynchronize` closes the inference.
    ///
    /// Compared with [`Executor::run_inference`], the device pipeline never
    /// drains between stages, so barrier bubbles disappear — at the price
    /// of event-record/wait API calls.
    pub fn run_inference_events(&mut self) -> u64 {
        let _span = dcd_obs::span("ios.infer", dcd_obs::Category::Ios);
        dcd_obs::counter!("ios.stages").add(self.schedule.stages.len() as u64);
        let t0 = self.gpu.host_ns();
        self.gpu.memcpy_async(0, CopyDir::H2D, self.input_bytes);
        let mut prev_events = vec![self.gpu.record_event(0)];
        let stages = self.schedule.stages.clone();
        for stage in &stages {
            let mut stage_events = Vec::with_capacity(stage.groups.len());
            for (gi, group) in stage.groups.iter().enumerate() {
                let stream = self.streams[gi];
                for &ev in &prev_events {
                    self.gpu.stream_wait_event(stream, ev);
                }
                for &op in group {
                    self.gpu
                        .launch_kernel(stream, self.graph.kernel_for(op, self.batch));
                }
                stage_events.push(self.gpu.record_event(stream));
            }
            prev_events = stage_events;
        }
        for &ev in &prev_events {
            self.gpu.stream_wait_event(0, ev);
        }
        self.gpu.memcpy_async(0, CopyDir::D2H, self.output_bytes);
        self.gpu.device_synchronize();
        self.gpu.host_ns() - t0
    }

    /// [`Executor::run_many`] using event-based stage synchronization.
    pub fn run_many_events(&mut self, warmup: usize, iterations: usize) -> RunStats {
        self.measure(warmup, iterations, Self::run_inference_events)
    }

    /// Runs `warmup` unmeasured then `iterations` measured inferences.
    pub fn run_many(&mut self, warmup: usize, iterations: usize) -> RunStats {
        self.measure(warmup, iterations, Self::run_inference)
    }

    /// The stats loop behind [`Executor::run_many`] and
    /// [`Executor::run_many_events`]: `run` is one inference.
    fn measure(&mut self, warmup: usize, iterations: usize, run: fn(&mut Self) -> u64) -> RunStats {
        assert!(iterations > 0, "need at least one measured iteration");
        for _ in 0..warmup {
            run(self);
        }
        let mut total = 0u64;
        let mut min = u64::MAX;
        let mut max = 0u64;
        for _ in 0..iterations {
            let t = run(self);
            total += t;
            min = min.min(t);
            max = max.max(t);
        }
        RunStats {
            batch: self.batch,
            iterations,
            mean_ns: total as f64 / iterations as f64,
            min_ns: min,
            max_ns: max,
        }
    }

    /// Consumes the executor, returning the full trace (context setup, all
    /// inferences) for nsys-style analysis.
    pub fn into_trace(self) -> Trace {
        let mut gpu = self.gpu;
        gpu.take_trace()
    }
}

/// Convenience wrapper: build an executor, run `warmup`+`iterations`
/// inferences, return the statistics.
pub fn measure_latency(
    graph: &Graph,
    schedule: &Schedule,
    batch: usize,
    spec: &DeviceSpec,
    warmup: usize,
    iterations: usize,
) -> RunStats {
    let mut exec = Executor::new(graph, schedule.clone(), batch, spec.clone());
    exec.run_many(warmup, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::StageCostModel;
    use crate::dp::{greedy_schedule, ios_schedule, sequential_schedule, IosOptions};
    use crate::lower::lower_sppnet;
    use dcd_nn::SppNetConfig;

    fn small_graph() -> Graph {
        lower_sppnet(&SppNetConfig::tiny(), (16, 16))
    }

    #[test]
    fn latency_is_positive_and_stable() {
        let g = small_graph();
        let s = sequential_schedule(&g);
        let stats = measure_latency(&g, &s, 1, &DeviceSpec::test_gpu(), 2, 5);
        assert!(stats.mean_ns > 0.0);
        // Steady state: deterministic up to f64 clock rounding (≤ a few ns).
        assert!(
            stats.max_ns - stats.min_ns <= 4,
            "jitter {}",
            stats.max_ns - stats.min_ns
        );
    }

    #[test]
    fn optimized_beats_sequential_on_device() {
        let g = lower_sppnet(&SppNetConfig::original(), (100, 100));
        let dev = DeviceSpec::rtx_a5500();
        let mut cost = StageCostModel::new(&g, dev.clone(), 1);
        let ios = ios_schedule(&g, &mut cost, IosOptions::default());
        let seq = sequential_schedule(&g);
        let t_ios = measure_latency(&g, &ios, 1, &dev, 1, 3);
        let t_seq = measure_latency(&g, &seq, 1, &dev, 1, 3);
        assert!(
            t_ios.mean_ns < t_seq.mean_ns,
            "ios {} vs seq {}",
            t_ios.mean_ns,
            t_seq.mean_ns
        );
    }

    #[test]
    fn efficiency_improves_with_batch() {
        // Latency/batch falls as batch grows (fixed costs amortize) — the
        // premise of Fig 6.
        let g = lower_sppnet(&SppNetConfig::original(), (100, 100));
        let dev = DeviceSpec::rtx_a5500();
        let s = sequential_schedule(&g);
        let e1 = measure_latency(&g, &s, 1, &dev, 1, 3).efficiency_ns_per_image();
        let e8 = measure_latency(&g, &s, 8, &dev, 1, 3).efficiency_ns_per_image();
        assert!(e8 < e1, "batch 8 per-image {e8} vs batch 1 {e1}");
    }

    #[test]
    fn memory_usage_scales_with_batch_but_stays_small() {
        let g = lower_sppnet(&SppNetConfig::original(), (100, 100));
        let dev = DeviceSpec::rtx_a5500();
        let s = sequential_schedule(&g);
        let e1 = Executor::new(&g, s.clone(), 1, dev.clone());
        let e64 = Executor::new(&g, s, 64, dev.clone());
        assert!(e64.mem_used() > e1.mem_used());
        // Paper §7.1: even 64 images stay far below the 24 GB capacity.
        assert!(e64.mem_used() < dev.mem_capacity / 4);
    }

    #[test]
    fn trace_contains_kernels_memops_and_syncs() {
        let g = small_graph();
        let s = greedy_schedule(&g);
        let mut exec = Executor::new(&g, s, 2, DeviceSpec::test_gpu());
        exec.run_inference();
        let trace = exec.into_trace();
        use dcd_gpusim::{ApiKind, KernelClass};
        assert!(trace.api_time(ApiKind::DeviceSynchronize) > 0);
        assert!(trace.api_time(ApiKind::LibraryLoadData) > 0);
        assert!(trace.kernel_time(KernelClass::Conv) > 0);
        assert!(trace.memops().count() >= 2); // input H2D + output D2H
    }

    #[test]
    fn event_sync_beats_barrier_sync() {
        // Removing the per-stage device drain should never be slower.
        let g = lower_sppnet(&SppNetConfig::original(), (100, 100));
        let dev = DeviceSpec::rtx_a5500();
        let mut cost = StageCostModel::new(&g, dev.clone(), 1);
        let ios = ios_schedule(&g, &mut cost, IosOptions::default());
        let mut barrier = Executor::new(&g, ios.clone(), 1, dev.clone());
        let t_barrier = barrier.run_many(1, 3).mean_ns;
        let mut events = Executor::new(&g, ios, 1, dev);
        let t_events = events.run_many_events(1, 3).mean_ns;
        assert!(
            t_events < t_barrier,
            "events {t_events} should beat barriers {t_barrier}"
        );
    }

    #[test]
    fn event_sync_produces_valid_ordering() {
        // All kernels still run, and per-stage ordering holds: a stage's
        // kernels never start before every kernel of the previous stage
        // completed (guaranteed by the event chain).
        let g = small_graph();
        let s = greedy_schedule(&g);
        let mut exec = Executor::new(&g, s.clone(), 2, DeviceSpec::test_gpu());
        exec.run_inference_events();
        let trace = exec.into_trace();
        let kernels: Vec<&str> = trace
            .records
            .iter()
            .filter_map(|r| match r {
                dcd_gpusim::TraceRecord::Kernel { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(kernels.len(), g.kernel_ops().len());
    }

    #[test]
    fn stats_unit_conversions() {
        let stats = RunStats {
            batch: 4,
            iterations: 10,
            mean_ns: 2_000_000.0,
            min_ns: 1_900_000,
            max_ns: 2_100_000,
        };
        assert!((stats.mean_ms() - 2.0).abs() < 1e-9);
        assert!((stats.efficiency_ns_per_image() - 500_000.0).abs() < 1e-9);
        assert!((stats.throughput() - 2000.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "invalid schedule")]
    fn executor_rejects_invalid_schedule() {
        let g = small_graph();
        let s = Schedule {
            stages: vec![crate::schedule::Stage::solo(1)],
        };
        Executor::new(&g, s, 1, DeviceSpec::test_gpu());
    }

    #[test]
    fn try_new_reports_typed_errors() {
        let g = small_graph();
        let bad = Schedule {
            stages: vec![crate::schedule::Stage::solo(1)],
        };
        match Executor::try_new(&g, bad, 1, DeviceSpec::test_gpu()) {
            Err(ExecError::InvalidSchedule(_)) => {}
            other => panic!(
                "expected InvalidSchedule, got {other:?}",
                other = other.err()
            ),
        }
        let mut tiny = DeviceSpec::test_gpu();
        tiny.mem_capacity = 16;
        match Executor::try_new(&g, sequential_schedule(&g), 1, tiny) {
            Err(ExecError::Gpu(GpuError::OutOfMemory(_))) => {}
            other => panic!("expected OOM, got {other:?}", other = other.err()),
        }
    }

    #[test]
    fn try_run_inference_matches_infallible_without_faults() {
        let g = small_graph();
        let s = sequential_schedule(&g);
        let mut a = Executor::new(&g, s.clone(), 2, DeviceSpec::test_gpu());
        let mut b = Executor::new(&g, s, 2, DeviceSpec::test_gpu());
        let plain = a.run_inference();
        let fallible = b.try_run_inference(u64::MAX).expect("no faults planned");
        assert_eq!(plain, fallible);
    }

    #[test]
    fn set_batch_restores_allocation_on_oom() {
        let g = small_graph();
        let s = sequential_schedule(&g);
        let mut spec = DeviceSpec::test_gpu();
        // Fits batch 2 but not batch 64.
        spec.mem_capacity = g.weight_bytes() + g.activation_bytes(4);
        let mut exec = Executor::try_new(&g, s, 2, spec).expect("batch 2 fits");
        let before = exec.mem_used();
        assert!(matches!(exec.set_batch(64), Err(GpuError::OutOfMemory(_))));
        assert_eq!(exec.batch(), 2);
        assert_eq!(exec.mem_used(), before);
        exec.set_batch(4).expect("batch 4 fits");
        assert_eq!(exec.batch(), 4);
        // The executor still runs after the failed resize.
        assert!(exec.try_run_inference(u64::MAX).is_ok());
    }

    #[test]
    fn set_schedule_swaps_to_sequential_fallback() {
        let g = small_graph();
        let wide = greedy_schedule(&g);
        let mut exec = Executor::new(&g, wide, 1, DeviceSpec::test_gpu());
        exec.run_inference();
        exec.set_schedule(sequential_schedule(&g)).expect("valid");
        assert_eq!(exec.schedule().max_width(), 1);
        assert!(exec.try_run_inference(u64::MAX).is_ok());
    }

    #[test]
    fn hang_recovery_resets_device_and_allows_rerun() {
        use dcd_gpusim::FaultPlan;
        let g = small_graph();
        let s = sequential_schedule(&g);
        let plan = FaultPlan {
            hang_after_kernels: Some(0),
            ..FaultPlan::none()
        };
        let mut gpu = Gpu::new(DeviceSpec::test_gpu());
        gpu.set_fault_plan(plan);
        let mut exec = Executor::try_with_gpu(&g, s, 1, gpu).expect("fits");
        match exec.try_run_inference(1_000_000) {
            Err(GpuError::DeviceHang { watchdog_ns }) => assert_eq!(watchdog_ns, 1_000_000),
            other => panic!("expected DeviceHang, got {other:?}"),
        }
        // The hang fired once; after reset the executor completes cleanly.
        assert!(!exec.gpu_mut().is_hung());
        assert!(exec.try_run_inference(1_000_000).is_ok());
    }
}
