//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each crate's
//! public functions (no instrumentation inside the program). Each span has
//! a name, start and end (ns since the recorder was created), the span that
//! caused it and a request id. They stay in a pre-sized vector and are
//! written out as JSON lines when the run ends. A disabled recorder hands
//! out id 0 and records nothing.

use crate::stats::{json_str, Dist};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept per run; later ones are counted as dropped.
const CAPACITY: usize = 1 << 18;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: u32,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

/// Handle of an open span; `0` means "not recorded".
pub type SpanId = u32;

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        let spans = if enabled { Vec::with_capacity(CAPACITY) } else { Vec::new() };
        Spans { enabled, epoch: Instant::now(), spans, dropped: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent` (0 for a root) for `request`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        if self.spans.len() == CAPACITY {
            self.dropped += 1;
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, request, start_ns, end_ns: start_ns });
        self.spans.len() as SpanId
    }

    /// Close span `id` (a no-op for id 0).
    pub fn end(&mut self, id: SpanId) {
        if id != 0 {
            let now = self.now_ns();
            self.spans[id as usize - 1].end_ns = now;
        }
    }

    /// Run `f` inside a span.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let r = f();
        self.end(id);
        r
    }

    /// Per span name: `(count, duration distribution, self-time
    /// distribution)`, durations in µs. Self time is the span's duration
    /// minus the time its child spans cover (children of one caller never
    /// overlap: the load generator is one thread).
    pub fn summary(&self) -> BTreeMap<&'static str, (Dist, Dist)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.0.push(dur as f64 / 1e3);
            e.1.push(dur.saturating_sub(c) as f64 / 1e3);
        }
        by_name.into_iter().map(|(k, (d, s))| (k, (Dist::new(d), Dist::new(s)))).collect()
    }

    /// Median duration (µs) of the spans called `name`, if any.
    pub fn p50_us(&self, name: &str) -> Option<f64> {
        let v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        (!v.is_empty()).then(|| crate::stats::median(&v))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                i + 1,
                s.parent,
                s.request,
                json_str(s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut sp = Spans::new(true);
        let root = sp.begin("root", 0, 7);
        sp.scope("child", root, 7, || std::thread::sleep(std::time::Duration::from_millis(2)));
        sp.end(root);
        let sum = sp.summary();
        let (dur, own) = &sum["root"];
        assert!(own.p50() < dur.p50());
        assert!(sum["child"].0.p50() >= 2000.0);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut sp = Spans::new(false);
        let id = sp.begin("x", 0, 1);
        sp.end(id);
        assert_eq!((id, sp.len()), (0, 0));
    }
}
