//! The benchmark's own spans: recorded around each public call the traced
//! run makes into minctx, kept in memory, and written out when the run
//! ends.  Spans inside the program are not recorded here.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.  `parent` indexes the enclosing span of the same
/// thread; spans of one op share `op`.
pub struct Span {
    pub name: String,
    pub op: u64,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder.  Every tracer of a run shares one epoch,
/// so merged spans share a time axis.  A disabled tracer runs the
/// wrapped calls without reading the clock, so one code path serves the
/// untraced and the traced run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            enabled: true,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new(Instant::now(), 0)
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<R>(&mut self, name: &str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            op,
            thread: self.thread,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let r = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        r
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in milliseconds of every span named `name`.
    fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Median duration in milliseconds of the spans named `name`, or 0
    /// when there are none.
    pub fn median_ms(&self, name: &str) -> f64 {
        let d = self.durations_ms(name);
        if d.is_empty() {
            0.0
        } else {
            crate::quantile(&d, 0.5)
        }
    }

    /// Self time of each span: its duration minus the durations of its
    /// children (children never outlive their parent).
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Per span name: count, total, self and median time, one line each.
    pub fn summary(&self) -> String {
        let mut by_name: BTreeMap<&str, (Vec<f64>, f64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let e = by_name.entry(&s.name).or_default();
            e.0.push(s.duration_ns() as f64 / 1e6);
            e.1 += self_ns as f64 / 1e6;
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "span {:<48} {:>7} {:>12} {:>12} {:>10}",
            "name", "count", "total_ms", "self_ms", "p50_ms"
        );
        for (name, (d, self_ms)) in by_name {
            let total: f64 = d.iter().sum();
            let _ = writeln!(
                out,
                "span {name:<48} {:>7} {total:>12.3} {self_ms:>12.3} {:>10.4}",
                d.len(),
                crate::quantile(&d, 0.5)
            );
        }
        out
    }

    /// The spans as JSON lines, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"name":"{}","op":{},"thread":{},"start_ns":{},"end_ns":{},"parent":{parent}}}"#,
                s.name, s.op, s.thread, s.start_ns, s.end_ns
            );
        }
        out
    }
}
