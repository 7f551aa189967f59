//! Device-timeline analysis: busy spans, utilization and kernel concurrency.
//!
//! These views quantify *why* an IOS schedule is faster: the kernel trace
//! shows more time spent at concurrency ≥ 2 and fewer barrier gaps than the
//! sequential schedule's.

use dcd_gpusim::{Trace, TraceRecord};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Summary of device kernel activity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineStats {
    /// First kernel start, ns.
    pub span_start_ns: u64,
    /// Last kernel end, ns.
    pub span_end_ns: u64,
    /// Sum of kernel durations (counts overlap multiply), ns.
    pub busy_sum_ns: u64,
    /// Union of kernel intervals (overlap counted once), ns.
    pub busy_union_ns: u64,
    /// Fraction of the span covered by at least one kernel.
    pub occupancy: f64,
    /// Mean number of kernels in flight while any kernel runs
    /// (`busy_sum / busy_union`); 1.0 = fully serial.
    pub parallelism: f64,
    /// Time spent at each concurrency level: `at_level[k]` = ns with
    /// exactly `k` kernels in flight (index 0 = idle gaps inside the span).
    pub at_level: Vec<u64>,
    /// Busy time per stream, ns.
    pub per_stream_ns: HashMap<usize, u64>,
}

/// Computes the kernel-timeline statistics of a trace.
///
/// Returns `None` if the trace contains no kernel records.
pub(crate) fn compute(trace: &Trace) -> Option<TimelineStats> {
    let mut events: Vec<(u64, i64)> = Vec::new(); // (time, +1/-1)
    let mut per_stream: HashMap<usize, u64> = HashMap::new();
    let mut busy_sum = 0u64;
    let mut start = u64::MAX;
    let mut end = 0u64;
    for r in &trace.records {
        if let TraceRecord::Kernel {
            stream,
            start_ns,
            dur_ns,
            ..
        } = r
        {
            events.push((*start_ns, 1));
            events.push((start_ns + dur_ns, -1));
            *per_stream.entry(*stream).or_insert(0) += dur_ns;
            busy_sum += dur_ns;
            start = start.min(*start_ns);
            end = end.max(start_ns + dur_ns);
        }
    }
    if events.is_empty() {
        return None;
    }
    // Sweep: ends before starts at equal times so zero-length overlap does
    // not count as concurrency.
    events.sort_by_key(|&(t, delta)| (t, delta));
    let mut level = 0i64;
    let mut prev_t = start;
    let mut busy_union = 0u64;
    let mut at_level: Vec<u64> = Vec::new();
    for (t, delta) in events {
        let dt = t.saturating_sub(prev_t);
        let k = level.max(0) as usize;
        if at_level.len() <= k {
            at_level.resize(k + 1, 0);
        }
        at_level[k] += dt;
        if k >= 1 {
            busy_union += dt;
        }
        level += delta;
        prev_t = t;
    }
    let span = (end - start).max(1);
    Some(TimelineStats {
        span_start_ns: start,
        span_end_ns: end,
        busy_sum_ns: busy_sum,
        busy_union_ns: busy_union,
        occupancy: busy_union as f64 / span as f64,
        parallelism: busy_sum as f64 / busy_union.max(1) as f64,
        at_level,
        per_stream_ns: per_stream,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_gpusim::KernelClass;

    fn kernel(stream: usize, start: u64, dur: u64) -> TraceRecord {
        TraceRecord::Kernel {
            name: "k".into(),
            class: KernelClass::Conv,
            stream,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn empty_trace_is_none() {
        assert!(compute(&Trace::new()).is_none());
    }

    #[test]
    fn serial_kernels_have_parallelism_one() {
        let mut t = Trace::new();
        t.push(kernel(0, 0, 100));
        t.push(kernel(0, 100, 50));
        let s = compute(&t).unwrap();
        assert_eq!(s.busy_sum_ns, 150);
        assert_eq!(s.busy_union_ns, 150);
        assert!((s.parallelism - 1.0).abs() < 1e-9);
        assert!((s.occupancy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_kernels_raise_parallelism() {
        let mut t = Trace::new();
        t.push(kernel(0, 0, 100));
        t.push(kernel(1, 0, 100));
        let s = compute(&t).unwrap();
        assert_eq!(s.busy_sum_ns, 200);
        assert_eq!(s.busy_union_ns, 100);
        assert!((s.parallelism - 2.0).abs() < 1e-9);
        assert_eq!(s.at_level[2], 100);
    }

    #[test]
    fn gaps_lower_occupancy_and_show_as_level_zero() {
        let mut t = Trace::new();
        t.push(kernel(0, 0, 50));
        t.push(kernel(0, 100, 50)); // 50 ns gap
        let s = compute(&t).unwrap();
        assert!((s.occupancy - 100.0 / 150.0).abs() < 1e-9);
        assert_eq!(s.at_level[0], 50);
        assert_eq!(s.at_level[1], 100);
    }

    #[test]
    fn per_stream_accounting() {
        let mut t = Trace::new();
        t.push(kernel(0, 0, 30));
        t.push(kernel(1, 0, 70));
        t.push(kernel(0, 30, 20));
        let s = compute(&t).unwrap();
        assert_eq!(s.per_stream_ns[&0], 50);
        assert_eq!(s.per_stream_ns[&1], 70);
    }

    #[test]
    fn partial_overlap_levels() {
        // [0,100) and [50,150): levels 1,2,1 for 50 ns each.
        let mut t = Trace::new();
        t.push(kernel(0, 0, 100));
        t.push(kernel(1, 50, 100));
        let s = compute(&t).unwrap();
        assert_eq!(s.at_level[1], 100);
        assert_eq!(s.at_level[2], 50);
        assert_eq!(s.busy_union_ns, 150);
    }
}
