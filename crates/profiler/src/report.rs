//! Trace aggregation and text rendering behind [`ProfileReport`].

use crate::timeline::TimelineStats;
use dcd_gpusim::{ApiKind, CopyDir, FaultKind, KernelClass, Trace, TraceRecord};
use dcd_obs::SpanRecord;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Aggregated host-side usage of one CUDA API.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApiUsage {
    /// Typed API kind — use this (not `name`) to look rows up.
    pub kind: ApiKind,
    /// API function name (`cuLibraryLoadData`, …), for display.
    pub name: String,
    /// Number of calls.
    pub calls: usize,
    /// Total host time, ns.
    pub total_ns: u64,
    /// Share of the total API time, in percent.
    pub pct: f64,
}

/// Aggregated DMA transfer statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemopStats {
    /// Number of transfers.
    pub count: usize,
    /// Total transfer time, ns.
    pub total_ns: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Mean transfer duration, ns.
    pub mean_ns: f64,
    /// Host→device transfer time, ns.
    pub h2d_ns: u64,
    /// Device→host transfer time, ns.
    pub d2h_ns: u64,
}

impl MemopStats {
    /// The paper's Fig 7 metric: GPU memops timing normalized per image —
    /// total DMA time divided by the number of images moved through the
    /// profile (`batch × iterations`). Fixed per-transfer overheads amortize
    /// as batch grows, so the curve falls and then stabilizes at the pure
    /// bandwidth cost.
    pub fn per_image_ns(&self, batch: usize, iterations: usize) -> f64 {
        let images = (batch * iterations).max(1);
        self.total_ns as f64 / images as f64
    }
}

/// Device-time share of one kernel class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelShare {
    /// Typed kernel class — use this (not `class`) to look rows up.
    pub kind: KernelClass,
    /// Class label (`gemm`, `pool`, `conv`, …), for display.
    pub class: String,
    /// Total device time, ns.
    pub total_ns: u64,
    /// Share of all kernel time, percent.
    pub pct: f64,
}

/// Occurrence count of one injected-fault category.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultCount {
    /// Fault category label (`kernel launch failure`, …).
    pub kind: String,
    /// Number of injections recorded in the trace.
    pub count: usize,
    /// Time of the first injection, ns.
    pub first_ns: u64,
}

/// Host time aggregated over spans with the same name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostOpStats {
    /// Span name (`gemm`, `scan.chunk`, …).
    pub name: String,
    /// Span category label.
    pub cat: String,
    /// Number of spans recorded under this name.
    pub calls: usize,
    /// Summed span duration, ns (nested spans count toward their own row).
    pub total_ns: u64,
}

fn compute_api(trace: &Trace) -> Vec<ApiUsage> {
    let mut by_api: HashMap<ApiKind, (usize, u64)> = HashMap::new();
    for r in &trace.records {
        if let TraceRecord::Api { kind, dur_ns, .. } = r {
            let e = by_api.entry(*kind).or_insert((0, 0));
            e.0 += 1;
            e.1 += dur_ns;
        }
    }
    let total: u64 = by_api.values().map(|(_, t)| t).sum();
    let mut rows: Vec<ApiUsage> = by_api
        .into_iter()
        .map(|(kind, (calls, total_ns))| ApiUsage {
            kind,
            name: kind.label().to_string(),
            calls,
            total_ns,
            pct: if total == 0 {
                0.0
            } else {
                100.0 * total_ns as f64 / total as f64
            },
        })
        .collect();
    rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
    rows
}

fn compute_memops(trace: &Trace) -> MemopStats {
    let mut stats = MemopStats {
        count: 0,
        total_ns: 0,
        bytes: 0,
        mean_ns: 0.0,
        h2d_ns: 0,
        d2h_ns: 0,
    };
    for (dir, bytes, dur) in trace.memops() {
        stats.count += 1;
        stats.total_ns += dur;
        stats.bytes += bytes;
        match dir {
            CopyDir::H2D => stats.h2d_ns += dur,
            CopyDir::D2H => stats.d2h_ns += dur,
        }
    }
    if stats.count > 0 {
        stats.mean_ns = stats.total_ns as f64 / stats.count as f64;
    }
    stats
}

fn compute_kernels(trace: &Trace) -> Vec<KernelShare> {
    let mut by_class: HashMap<KernelClass, u64> = HashMap::new();
    for r in &trace.records {
        if let TraceRecord::Kernel { class, dur_ns, .. } = r {
            *by_class.entry(*class).or_insert(0) += dur_ns;
        }
    }
    let total: u64 = by_class.values().sum();
    let mut rows: Vec<KernelShare> = by_class
        .into_iter()
        .map(|(kind, total_ns)| KernelShare {
            kind,
            class: kind.label().to_string(),
            total_ns,
            pct: if total == 0 {
                0.0
            } else {
                100.0 * total_ns as f64 / total as f64
            },
        })
        .collect();
    rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.class.cmp(&b.class)));
    rows
}

fn compute_faults(trace: &Trace) -> Vec<FaultCount> {
    let mut by_kind: HashMap<FaultKind, (usize, u64)> = HashMap::new();
    for (kind, _stream, at_ns) in trace.faults() {
        let e = by_kind.entry(kind).or_insert((0, u64::MAX));
        e.0 += 1;
        e.1 = e.1.min(at_ns);
    }
    let mut rows: Vec<FaultCount> = by_kind
        .into_iter()
        .map(|(kind, (count, first_ns))| FaultCount {
            kind: kind.label().to_string(),
            count,
            first_ns,
        })
        .collect();
    rows.sort_by(|a, b| b.count.cmp(&a.count).then(a.kind.cmp(&b.kind)));
    rows
}

fn compute_host_ops(spans: &[SpanRecord]) -> Vec<HostOpStats> {
    let mut by_name: HashMap<&'static str, (&'static str, usize, u64)> = HashMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_insert((s.cat.label(), 0, 0));
        e.1 += 1;
        e.2 += s.dur_ns;
    }
    let mut rows: Vec<HostOpStats> = by_name
        .into_iter()
        .map(|(name, (cat, calls, total_ns))| HostOpStats {
            name: name.to_string(),
            cat: cat.to_string(),
            calls,
            total_ns,
        })
        .collect();
    rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
    rows
}

/// All of the paper's §7 profiling views over one device trace — and,
/// optionally, the host spans recorded alongside it — behind typed
/// accessors. This is the single entry point for profile analysis.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    device: Trace,
    api: Vec<ApiUsage>,
    memops: MemopStats,
    kernels: Vec<KernelShare>,
    faults: Vec<FaultCount>,
    timeline: Option<TimelineStats>,
    host_spans: Vec<SpanRecord>,
    host_ops: Vec<HostOpStats>,
}

impl ProfileReport {
    /// Aggregates every view over a device trace (clones the records so the
    /// report can later re-walk them for the merged timeline export).
    pub fn from_trace(trace: &Trace) -> Self {
        ProfileReport {
            device: trace.clone(),
            api: compute_api(trace),
            memops: compute_memops(trace),
            kernels: compute_kernels(trace),
            faults: compute_faults(trace),
            timeline: crate::timeline::compute(trace),
            host_spans: Vec::new(),
            host_ops: Vec::new(),
        }
    }

    /// Attaches host spans (from [`dcd_obs::drain_spans`]) so the rendered
    /// report gains a host section and [`ProfileReport::chrome_trace`] emits
    /// host tracks next to the device ones.
    pub fn with_host_spans(mut self, spans: Vec<SpanRecord>) -> Self {
        self.host_ops = compute_host_ops(&spans);
        self.host_spans = spans;
        self
    }

    /// The device trace this report was built from.
    pub fn device_trace(&self) -> &Trace {
        &self.device
    }

    /// Per-API usage rows, sorted by descending total time (Fig 8).
    pub fn api(&self) -> &[ApiUsage] {
        &self.api
    }

    /// Usage row for one API kind, if it appears in the trace.
    pub fn api_usage(&self, kind: ApiKind) -> Option<&ApiUsage> {
        self.api.iter().find(|r| r.kind == kind)
    }

    /// Share of one API in the trace's API timeline, percent (0.0 when the
    /// kind never appears). Keyed on [`ApiKind`], not on the display label.
    pub fn api_pct(&self, kind: ApiKind) -> f64 {
        self.api_usage(kind).map(|r| r.pct).unwrap_or(0.0)
    }

    /// DMA transfer statistics (Fig 7 input).
    pub fn memops(&self) -> &MemopStats {
        &self.memops
    }

    /// Kernel-class shares, sorted by descending time (Table 3).
    pub fn kernels(&self) -> &[KernelShare] {
        &self.kernels
    }

    /// Share row for one kernel class, if it appears in the trace.
    pub fn kernel_share(&self, class: KernelClass) -> Option<&KernelShare> {
        self.kernels.iter().find(|r| r.kind == class)
    }

    /// Share of one kernel class in total kernel time, percent.
    pub fn kernel_pct(&self, class: KernelClass) -> f64 {
        self.kernel_share(class).map(|r| r.pct).unwrap_or(0.0)
    }

    /// Injected-fault counts by category; empty for a healthy run.
    pub fn faults(&self) -> &[FaultCount] {
        &self.faults
    }

    /// Device kernel-timeline statistics; `None` without kernel records.
    pub fn timeline(&self) -> Option<&TimelineStats> {
        self.timeline.as_ref()
    }

    /// Host spans attached via [`ProfileReport::with_host_spans`].
    pub fn host_spans(&self) -> &[SpanRecord] {
        &self.host_spans
    }

    /// Host time aggregated per span name, sorted by descending total.
    pub fn host_ops(&self) -> &[HostOpStats] {
        &self.host_ops
    }

    /// Renders every view as a text report shaped like
    /// `nsys profile --stats=true` (plus a host section when spans are
    /// attached).
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(out, "** CUDA API Summary:").unwrap();
        writeln!(
            out,
            "{:>8}  {:>14}  {:>7}  Name",
            "Calls", "Total (ns)", "Time %"
        )
        .unwrap();
        for row in &self.api {
            writeln!(
                out,
                "{:>8}  {:>14}  {:>6.1}%  {}",
                row.calls, row.total_ns, row.pct, row.name
            )
            .unwrap();
        }
        let m = &self.memops;
        writeln!(out, "\n** CUDA GPU MemOps Summary:").unwrap();
        writeln!(
            out,
            "{:>8}  {:>14}  {:>14}  {:>12}",
            "Count", "Total (ns)", "Bytes", "Mean (ns)"
        )
        .unwrap();
        writeln!(
            out,
            "{:>8}  {:>14}  {:>14}  {:>12.1}",
            m.count, m.total_ns, m.bytes, m.mean_ns
        )
        .unwrap();
        writeln!(out, "\n** CUDA Kernel Summary (by operator class):").unwrap();
        writeln!(out, "{:>14}  {:>7}  Class", "Total (ns)", "Time %").unwrap();
        for row in &self.kernels {
            writeln!(
                out,
                "{:>14}  {:>6.1}%  {}",
                row.total_ns, row.pct, row.class
            )
            .unwrap();
        }
        if let Some(t) = &self.timeline {
            writeln!(out, "\n** Device Timeline Summary:").unwrap();
            writeln!(
                out,
                "span {} ns | occupancy {:.1}% | mean concurrency {:.2} | streams {}",
                t.span_end_ns - t.span_start_ns,
                100.0 * t.occupancy,
                t.parallelism,
                t.per_stream_ns.len()
            )
            .unwrap();
        }
        if !self.faults.is_empty() {
            writeln!(out, "\n** Injected Fault Summary:").unwrap();
            writeln!(out, "{:>8}  {:>14}  Kind", "Count", "First (ns)").unwrap();
            for row in &self.faults {
                writeln!(out, "{:>8}  {:>14}  {}", row.count, row.first_ns, row.kind).unwrap();
            }
        }
        if !self.host_ops.is_empty() {
            writeln!(out, "\n** Host Span Summary:").unwrap();
            writeln!(
                out,
                "{:>8}  {:>14}  {:<12}  Name",
                "Calls", "Total (ns)", "Category"
            )
            .unwrap();
            for row in &self.host_ops {
                writeln!(
                    out,
                    "{:>8}  {:>14}  {:<12}  {}",
                    row.calls, row.total_ns, row.cat, row.name
                )
                .unwrap();
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_obs::Category;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        t.push(TraceRecord::Api {
            kind: ApiKind::LibraryLoadData,
            start_ns: 0,
            dur_ns: 800,
        });
        t.push(TraceRecord::Api {
            kind: ApiKind::LaunchKernel,
            start_ns: 800,
            dur_ns: 100,
        });
        t.push(TraceRecord::Api {
            kind: ApiKind::LaunchKernel,
            start_ns: 900,
            dur_ns: 60,
        });
        t.push(TraceRecord::Api {
            kind: ApiKind::DeviceSynchronize,
            start_ns: 960,
            dur_ns: 40,
        });
        t.push(TraceRecord::Kernel {
            name: "fc".into(),
            class: KernelClass::Gemm,
            stream: 0,
            start_ns: 810,
            dur_ns: 70,
        });
        t.push(TraceRecord::Kernel {
            name: "conv".into(),
            class: KernelClass::Conv,
            stream: 0,
            start_ns: 880,
            dur_ns: 30,
        });
        t.push(TraceRecord::Memop {
            dir: CopyDir::H2D,
            bytes: 4096,
            start_ns: 805,
            dur_ns: 20,
        });
        t.push(TraceRecord::Memop {
            dir: CopyDir::D2H,
            bytes: 64,
            start_ns: 990,
            dur_ns: 10,
        });
        t
    }

    #[test]
    fn api_rows_share_sum_to_100() {
        let report = ProfileReport::from_trace(&sample_trace());
        let total_pct: f64 = report.api().iter().map(|r| r.pct).sum();
        assert!((total_pct - 100.0).abs() < 1e-9);
        // Library load dominates this tiny trace: 800 / 1000 = 80%.
        assert_eq!(report.api()[0].kind, ApiKind::LibraryLoadData);
        assert_eq!(report.api()[0].name, "cuLibraryLoadData");
        assert!((report.api()[0].pct - 80.0).abs() < 1e-9);
    }

    #[test]
    fn api_rows_count_calls() {
        let report = ProfileReport::from_trace(&sample_trace());
        let launch = report.api_usage(ApiKind::LaunchKernel).unwrap();
        assert_eq!(launch.calls, 2);
        assert_eq!(launch.total_ns, 160);
    }

    #[test]
    fn api_pct_keys_on_kind() {
        let report = ProfileReport::from_trace(&sample_trace());
        assert!((report.api_pct(ApiKind::DeviceSynchronize) - 4.0).abs() < 1e-9);
        assert_eq!(report.api_pct(ApiKind::Malloc), 0.0);
        assert!(report.api_usage(ApiKind::Malloc).is_none());
    }

    #[test]
    fn memop_stats_aggregate_directions() {
        let report = ProfileReport::from_trace(&sample_trace());
        let m = report.memops();
        assert_eq!(m.count, 2);
        assert_eq!(m.total_ns, 30);
        assert_eq!(m.bytes, 4160);
        assert_eq!(m.h2d_ns, 20);
        assert_eq!(m.d2h_ns, 10);
        assert!((m.mean_ns - 15.0).abs() < 1e-9);
    }

    #[test]
    fn per_image_normalization() {
        let report = ProfileReport::from_trace(&sample_trace());
        assert!((report.memops().per_image_ns(2, 1) - 15.0).abs() < 1e-9);
        assert!((report.memops().per_image_ns(1, 1) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn kernel_rows_bucket_and_order() {
        let report = ProfileReport::from_trace(&sample_trace());
        let rows = report.kernels();
        assert_eq!(rows[0].kind, KernelClass::Gemm);
        assert!((rows[0].pct - 70.0).abs() < 1e-9);
        assert_eq!(rows[1].kind, KernelClass::Conv);
        assert!((rows[1].pct - 30.0).abs() < 1e-9);
    }

    #[test]
    fn kernel_pct_missing_class_is_zero() {
        let report = ProfileReport::from_trace(&sample_trace());
        assert_eq!(report.kernel_pct(KernelClass::Pool), 0.0);
        assert!(report.kernel_share(KernelClass::Pool).is_none());
    }

    #[test]
    fn empty_trace_is_all_zeroes() {
        let report = ProfileReport::from_trace(&Trace::new());
        assert!(report.api().is_empty());
        assert_eq!(report.memops().count, 0);
        assert_eq!(report.memops().mean_ns, 0.0);
        assert!(report.kernels().is_empty());
        assert!(report.timeline().is_none());
    }

    #[test]
    fn render_contains_all_sections() {
        let s = ProfileReport::from_trace(&sample_trace()).render();
        assert!(s.contains("CUDA API Summary"));
        assert!(s.contains("MemOps Summary"));
        assert!(s.contains("Kernel Summary"));
        assert!(s.contains("cuLibraryLoadData"));
        assert!(s.contains("gemm"));
    }

    #[test]
    fn render_includes_timeline_when_kernels_present() {
        let s = ProfileReport::from_trace(&sample_trace()).render();
        assert!(s.contains("Device Timeline Summary"));
        assert!(s.contains("occupancy"));
    }

    #[test]
    fn render_omits_timeline_without_kernels() {
        let mut t = Trace::new();
        t.push(TraceRecord::Api {
            kind: ApiKind::Malloc,
            start_ns: 0,
            dur_ns: 10,
        });
        let s = ProfileReport::from_trace(&t).render();
        assert!(!s.contains("Device Timeline Summary"));
    }

    #[test]
    fn fault_rows_count_by_kind() {
        let mut t = sample_trace();
        t.push(TraceRecord::Fault {
            kind: FaultKind::LaunchFailure,
            stream: Some(1),
            start_ns: 850,
        });
        t.push(TraceRecord::Fault {
            kind: FaultKind::LaunchFailure,
            stream: Some(2),
            start_ns: 820,
        });
        t.push(TraceRecord::Fault {
            kind: FaultKind::DeviceHang,
            stream: None,
            start_ns: 950,
        });
        let report = ProfileReport::from_trace(&t);
        let rows = report.faults();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].kind, FaultKind::LaunchFailure.label());
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].first_ns, 820);
        assert_eq!(rows[1].count, 1);
        let s = report.render();
        assert!(s.contains("Injected Fault Summary"));
        assert!(s.contains(FaultKind::DeviceHang.label()));
    }

    #[test]
    fn healthy_trace_omits_fault_section() {
        let report = ProfileReport::from_trace(&sample_trace());
        assert!(report.faults().is_empty());
        assert!(!report.render().contains("Injected Fault Summary"));
    }

    #[test]
    fn render_is_deterministic() {
        // Ties and ordering: same trace renders identically twice.
        let a = ProfileReport::from_trace(&sample_trace()).render();
        let b = ProfileReport::from_trace(&sample_trace()).render();
        assert_eq!(a, b);
    }

    #[test]
    fn host_spans_aggregate_and_render() {
        let spans = vec![
            SpanRecord {
                name: "gemm",
                cat: Category::Gemm,
                tid: 0,
                depth: 1,
                start_ns: 10,
                dur_ns: 100,
            },
            SpanRecord {
                name: "gemm",
                cat: Category::Gemm,
                tid: 1,
                depth: 1,
                start_ns: 30,
                dur_ns: 50,
            },
            SpanRecord {
                name: "scan.chunk",
                cat: Category::Scan,
                tid: 0,
                depth: 0,
                start_ns: 0,
                dur_ns: 400,
            },
        ];
        let report = ProfileReport::from_trace(&sample_trace()).with_host_spans(spans);
        assert_eq!(report.host_spans().len(), 3);
        let ops = report.host_ops();
        assert_eq!(ops[0].name, "scan.chunk");
        assert_eq!(ops[0].total_ns, 400);
        let gemm = ops.iter().find(|o| o.name == "gemm").unwrap();
        assert_eq!(gemm.calls, 2);
        assert_eq!(gemm.total_ns, 150);
        assert_eq!(gemm.cat, "gemm");
        let s = report.render();
        assert!(s.contains("Host Span Summary"));
        assert!(s.contains("scan.chunk"));
    }

    #[test]
    fn without_host_spans_render_omits_host_section() {
        let s = ProfileReport::from_trace(&sample_trace()).render();
        assert!(!s.contains("Host Span Summary"));
    }

    #[test]
    fn kernel_rows_full_pipeline_trace() {
        // End-to-end: a real executor trace aggregates cleanly.
        use dcd_gpusim::DeviceSpec;
        let graph = dcd_ios::lower_sppnet(&dcd_nn::SppNetConfig::original(), (100, 100));
        let schedule = dcd_ios::sequential_schedule(&graph);
        let mut exec = dcd_ios::Executor::new(&graph, schedule, 2, DeviceSpec::rtx_a5500());
        exec.run_inference();
        let trace = exec.into_trace();
        let report = ProfileReport::from_trace(&trace);
        let total: f64 = report.kernels().iter().map(|r| r.pct).sum();
        assert!((total - 100.0).abs() < 1e-6);
        assert!(report.kernel_share(KernelClass::Conv).is_some());
        assert!(report.kernel_share(KernelClass::Gemm).is_some());
        assert!(report.kernel_share(KernelClass::Pool).is_some());
    }
}
