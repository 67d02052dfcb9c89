//! Harness-side spans around the calls into each layer.
//!
//! The benchmark measures every layer from outside: a span is opened
//! before a public call and closed after it, kept in memory, and written
//! as a Chrome trace when the run ends. A span's *self time* is its
//! duration minus the part its child spans cover. A disabled recorder makes
//! every call a branch, so the timed pass runs the same code untraced.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Metric-style name, e.g. `cgsim-runtime.run_us`.
    pub name: &'static str,
    /// Variant inside the name (the app or graph), or `""`.
    pub detail: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Operation (pass, round or request) the span belongs to.
    pub op: u64,
}

impl Span {
    /// `name` or `name.detail`.
    pub fn key(&self) -> String {
        if self.detail.is_empty() {
            self.name.to_string()
        } else {
            format!("{}.{}", self.name, self.detail)
        }
    }
}

/// In-memory span recorder.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Spans {
    /// A recorder that keeps spans.
    pub fn enabled() -> Self {
        Spans {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// A recorder that records nothing (the timed pass).
    pub fn disabled() -> Self {
        Spans {
            enabled: false,
            ..Spans::enabled()
        }
    }

    /// The instant timestamps are measured from; shared with code that
    /// stamps on other threads and reports through [`Spans::add`].
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Ns since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start the next operation; spans recorded from here carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Time `f` as one span, a child of whatever span is open.
    pub fn record<R>(
        &mut self,
        name: &'static str,
        detail: &'static str,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            detail,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        self.spans[index].start_ns = self.now_ns();
        let result = f(self);
        self.spans[index].end_ns = self.now_ns();
        self.open.pop();
        result
    }

    /// Add a span from timestamps taken elsewhere (another thread), as a
    /// child of the open span.
    pub fn add(&mut self, name: &'static str, detail: &'static str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                detail,
                start_ns,
                end_ns: end_ns.max(start_ns),
                parent: self.open.last().copied(),
                op: self.op,
            });
        }
    }

    /// Everything recorded so far.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in ns, in recording order.
    fn own_ns(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= (span.end_ns - span.start_ns) as f64;
            }
        }
        own.iter().map(|ns| ns.max(0.0)).collect()
    }

    /// Self time in µs summed per key inside each operation: one entry per
    /// operation the key occurred in. A layer metric is the median of its
    /// key's entries.
    pub fn self_us_per_op(&self) -> BTreeMap<String, Vec<f64>> {
        let mut sums: BTreeMap<(String, u64), f64> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self.own_ns()) {
            *sums.entry((span.key(), span.op)).or_default() += ns / 1e3;
        }
        let mut grouped: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for ((key, _), us) in sums {
            grouped.entry(key).or_default().push(us);
        }
        grouped
    }

    /// Sum of top-level span durations per operation, in µs: what the
    /// staged replay of one operation took, to set against the untraced
    /// operation.
    pub fn staged_us_per_op(&self) -> Vec<f64> {
        let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.parent.is_none()) {
            *per_op.entry(span.op).or_default() += (span.end_ns - span.start_ns) as f64 / 1e3;
        }
        per_op.into_values().collect()
    }

    /// The spans as a Chrome trace document (`chrome://tracing`,
    /// `ui.perfetto.dev`): complete events, µs timestamps, `args` carrying
    /// the operation id, the parent's index and the self time.
    pub fn chrome_trace(&self) -> String {
        let own = self.own_ns();
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"index\":{i},\"op\":{},\"parent\":{parent},\"self_us\":{:.3}}}}}",
                span.key(),
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.op,
                own[i] / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Write the Chrome trace to `path`, creating its directory.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.chrome_trace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut spans = Spans::enabled();
        spans.next_op();
        // Built by hand so the arithmetic is exact: parent 0..100, children
        // 10..30 and 40..90 (the second with a grandchild 50..60).
        spans.spans = vec![
            Span {
                name: "parent",
                detail: "",
                start_ns: 0,
                end_ns: 100_000,
                parent: None,
                op: 1,
            },
            Span {
                name: "child",
                detail: "a",
                start_ns: 10_000,
                end_ns: 30_000,
                parent: Some(0),
                op: 1,
            },
            Span {
                name: "child",
                detail: "b",
                start_ns: 40_000,
                end_ns: 90_000,
                parent: Some(0),
                op: 1,
            },
            Span {
                name: "grandchild",
                detail: "",
                start_ns: 50_000,
                end_ns: 60_000,
                parent: Some(2),
                op: 1,
            },
        ];
        let own = spans.self_us_per_op();
        assert_eq!(own["parent"], vec![30.0]);
        assert_eq!(own["child.a"], vec![20.0]);
        assert_eq!(own["child.b"], vec![40.0]);
        assert_eq!(own["grandchild"], vec![10.0]);
        // The same key twice in one operation is summed; a second
        // operation adds a second entry.
        let mut again = spans.spans[3].clone();
        (again.start_ns, again.end_ns) = (60_000, 65_000);
        spans.spans.push(again.clone());
        again.op = 2;
        again.parent = None;
        spans.spans.push(again);
        let own = spans.self_us_per_op();
        assert_eq!(own["grandchild"], vec![15.0, 5.0]);
        assert_eq!(own["child.b"], vec![35.0]);
        assert_eq!(spans.staged_us_per_op(), vec![100.0, 5.0]);
    }

    #[test]
    fn record_nests_and_tags_operations() {
        let mut spans = Spans::enabled();
        for _ in 0..2 {
            spans.next_op();
            spans.record("outer", "", |s| {
                s.record("inner", "x", |_| std::hint::black_box(1 + 1));
                let (a, b) = (s.now_ns(), s.now_ns() + 5);
                s.add("stamped", "", a, b);
            });
        }
        let all = spans.all();
        assert_eq!(all.len(), 6);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(0));
        assert_eq!(all[4].parent, Some(3));
        assert_eq!((all[0].op, all[3].op), (1, 2));
        assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
        assert_eq!(spans.staged_us_per_op().len(), 2);
        let doc = serde_json::parse(&spans.chrome_trace()).expect("chrome trace is JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 6);
        assert_eq!(
            events[1].get("name").and_then(|n| n.as_str()),
            Some("inner.x")
        );
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut spans = Spans::disabled();
        spans.next_op();
        let v = spans.record("outer", "", |s| s.record("inner", "", |_| 7));
        spans.add("stamped", "", 1, 2);
        assert_eq!(v, 7);
        assert!(spans.all().is_empty());
    }
}
