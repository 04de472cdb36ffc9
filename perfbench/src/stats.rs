//! The benchmark's own arithmetic: percentiles over latency samples,
//! spans and their self times, and the trace-coverage ratios. Kept free
//! of I/O so the unit tests below pin every formula the report uses.

use std::collections::BTreeMap;
use std::time::Instant;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, linearly interpolated
/// between the two nearest ranks (rank `q·(n−1)` of the sorted values).
/// `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `samples`; `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// One traced call: a layer's name, its interval on the trace clock
/// (nanoseconds since the trace began), the span that caused it, and
/// the request it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `histogram.kernel`.
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start: u64,
    /// End, ns since the trace epoch.
    pub end: u64,
    /// Index of the parent span in the same trace.
    pub parent: Option<usize>,
    /// Request identifier shared by every span of one operation.
    pub request: u64,
}

/// An in-memory span log. Spans are appended as they close over, and
/// written out only when the benchmark ends.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; `f` receives the trace and
    /// the new span's index, to open child spans under it.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(&mut Self, usize) -> R,
    ) -> R {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        let out = f(self, idx);
        self.spans[idx].end = self.now();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children (overlapping children count once; a child
/// sticking out of its parent counts only inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let mut covered = 0u64;
            let mut reach = s.start;
            kids.sort_unstable();
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.end.saturating_sub(s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per layer name, per request: the summed self time of that layer's
/// spans within the request, in ns.
pub fn self_time_by_request(spans: &[Span]) -> BTreeMap<&'static str, BTreeMap<u64, u64>> {
    let mut out: BTreeMap<&'static str, BTreeMap<u64, u64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_default().entry(s.request).or_default() += own;
    }
    out
}

/// The share of the traced end-to-end time that no layer's self time
/// accounts for, in percent: `100 · (e2e − attributed) / e2e`. Negative
/// when the layers over-count (they were timed apart from the request).
pub fn unattributed_pct(e2e_ns: u64, attributed_ns: u64) -> f64 {
    if e2e_ns == 0 {
        return 0.0;
    }
    100.0 * (e2e_ns as f64 - attributed_ns as f64) / e2e_ns as f64
}

/// How much slower the traced run's per-op time is than the untraced
/// run's, in percent.
pub fn overhead_pct(untraced_per_op: f64, traced_per_op: f64) -> f64 {
    if untraced_per_op <= 0.0 {
        return 0.0;
    }
    100.0 * (traced_per_op - untraced_per_op) / untraced_per_op
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
        assert_eq!(quantile(&xs, 0.9), Some(4.6));
        assert_eq!(median(&[1.0, 2.0]), Some(1.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantiles_match_the_numpy_default_on_ten_values() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.9), Some(9.1));
        assert_eq!(quantile(&xs, 0.25), Some(3.25));
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root 0..100 with children 10..30 and 20..50 (overlapping) and
        // a grandchild 12..18 under the first child.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 30, 6]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![span("root", 10, 20, None), span("a", 5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn self_times_sum_per_layer_and_request() {
        let mut spans = vec![
            span("op", 0, 100, None),
            span("wire", 0, 10, Some(0)),
            span("wire", 90, 100, Some(0)),
            span("op", 200, 250, None),
            span("wire", 200, 205, Some(3)),
        ];
        spans[3].request = 1;
        spans[4].request = 1;
        let by = self_time_by_request(&spans);
        assert_eq!(by["op"].get(&0), Some(&80));
        assert_eq!(by["op"].get(&1), Some(&45));
        assert_eq!(by["wire"].get(&0), Some(&20));
        assert_eq!(by["wire"].get(&1), Some(&5));
    }

    #[test]
    fn trace_spans_nest_and_close() {
        let mut t = Trace::new();
        let v = t.span("outer", None, 7, |t, me| {
            t.span("inner", Some(me), 7, |_, _| 41) + 1
        });
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert!(s.iter().all(|x| x.request == 7));
    }

    #[test]
    fn coverage_ratios() {
        assert_eq!(unattributed_pct(1000, 900), 10.0);
        assert_eq!(unattributed_pct(1000, 1100), -10.0);
        assert_eq!(unattributed_pct(0, 5), 0.0);
        assert_eq!(overhead_pct(100.0, 103.0), 3.0);
        assert_eq!(overhead_pct(0.0, 3.0), 0.0);
    }
}
