//! Analysis of drained `dcd-obs` spans: busy time, enclosure and self time.
//!
//! Spans carry no parent link, so "child" means "lies inside the parent's
//! interval". Every workload drives one operation at a time from the main
//! thread, so anything recorded inside an operation's interval, on any
//! thread, belongs to it. Times are unions of intervals, so spans recorded
//! concurrently on pool threads are not counted twice.

use dcd_obs::SpanRecord;

/// Spans drained from one traced window.
pub struct Spans(pub Vec<SpanRecord>);

fn contains(outer: &SpanRecord, inner: &SpanRecord) -> bool {
    outer.start_ns <= inner.start_ns && inner.end_ns() <= outer.end_ns()
}

/// Length of the union of `[start, end)` intervals, ns.
fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

impl Spans {
    /// Drains every thread's recorded spans.
    pub fn drain() -> Spans {
        Spans(dcd_obs::drain_spans())
    }

    /// Spans with one of the given names.
    pub fn named<'a>(&'a self, names: &'a [&str]) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.0.iter().filter(move |s| names.contains(&s.name))
    }

    /// Number of spans with the given name.
    pub fn count(&self, name: &str) -> usize {
        self.named(&[name]).count()
    }

    /// Wall time covered by spans with one of the given names, ns.
    pub fn busy_ns(&self, names: &[&str]) -> u64 {
        union_ns(
            self.named(names)
                .map(|s| (s.start_ns, s.end_ns()))
                .collect(),
        )
    }

    /// Wall time covered by `gemm` spans that no span named in `outside`
    /// encloses, ns — the fully-connected GEMMs when `outside` names the
    /// convolution spans.
    pub fn gemm_outside_ns(&self, outside: &[&str]) -> u64 {
        let encl: Vec<&SpanRecord> = self.named(outside).collect();
        union_ns(
            self.named(&["gemm"])
                .filter(|g| !encl.iter().any(|c| contains(c, g)))
                .map(|g| (g.start_ns, g.end_ns()))
                .collect(),
        )
    }

    /// Self time of the spans named `parent`, ns: each parent's duration
    /// minus the part of it covered by enclosed spans accepted by `child`.
    pub fn self_ns(&self, parent: &str, child: impl Fn(&SpanRecord) -> bool) -> u64 {
        self.named(&[parent])
            .map(|p| {
                let covered = union_ns(
                    self.0
                        .iter()
                        .filter(|c| !std::ptr::eq(*c, p) && contains(p, c) && child(c))
                        .map(|c| (c.start_ns, c.end_ns()))
                        .collect(),
                );
                p.dur_ns - covered.min(p.dur_ns)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_obs::Category;

    fn rec(name: &'static str, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            cat: Category::Other,
            tid: 0,
            depth: 0,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(vec![]), 0);
    }

    #[test]
    fn gemm_split_and_self_time() {
        let s = Spans(vec![
            rec("fwd", 0, 100),
            rec("conv2d", 10, 40),
            rec("gemm", 20, 10),
            rec("gemm", 60, 20),
        ]);
        assert_eq!(s.busy_ns(&["conv2d"]), 40);
        assert_eq!(s.gemm_outside_ns(&["conv2d"]), 20);
        assert_eq!(
            s.self_ns("fwd", |c| c.name == "conv2d" || c.name == "gemm"),
            40
        );
    }
}
