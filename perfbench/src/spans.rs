//! In-memory span recording for the traced run.
//!
//! A span is recorded by the benchmark around each call it makes into a
//! layer's public function: name, start, end, the enclosing span, and a
//! per-function request id. Each thread records into its own [`Spans`]
//! buffer (no locking on the hot path); buffers are merged and written
//! out only when the run ends. A layer's self time is its span's
//! duration minus the time covered by its direct children.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.coalesce`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    /// Request id: one per compiled (or parsed) function within a
    /// buffer (phases of a run reuse ids, each in its own buffer).
    pub req: u64,
}

/// One thread's span buffer.
pub struct Spans {
    epoch: Instant,
    thread: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty buffer timing against `epoch`.
    pub fn new(epoch: Instant, thread: usize) -> Spans {
        Spans {
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str, req: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now();
    }

    /// Records `f` as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, req);
        let out = f();
        self.exit(id);
        out
    }
}

/// Per-name aggregate over every buffer of a run.
#[derive(Clone, Debug, Default)]
pub struct Layer {
    /// Spans recorded.
    pub calls: u64,
    /// Distinct (buffer, request id) pairs that recorded the span.
    pub requests: u64,
    /// Σ self time.
    pub self_ns: u64,
    /// Σ duration, children included.
    pub total_ns: u64,
}

impl Layer {
    /// Mean self time per request, in microseconds.
    pub fn self_us_per_request(&self) -> f64 {
        crate::stats::ratio(self.self_ns as f64 / 1e3, self.requests as f64)
    }
}

/// All buffers of a run, merged.
#[derive(Default)]
pub struct Trace {
    buffers: Vec<(usize, Vec<Span>)>,
}

impl Trace {
    /// Takes ownership of a finished buffer.
    pub fn absorb(&mut self, s: Spans) {
        assert!(s.open.is_empty(), "buffer absorbed with open spans");
        self.buffers.push((s.thread, s.spans));
    }

    /// Self-time aggregates keyed by span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut reqs: BTreeMap<&'static str, BTreeSet<(usize, u64)>> = BTreeMap::new();
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (b, (_, spans)) in self.buffers.iter().enumerate() {
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if let Some(p) = s.parent {
                    child_ns[p] += s.end_ns - s.start_ns;
                }
            }
            for (k, s) in spans.iter().enumerate() {
                let l = out.entry(s.name).or_default();
                l.calls += 1;
                l.self_ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[k]);
                l.total_ns += s.end_ns - s.start_ns;
                reqs.entry(s.name).or_default().insert((b, s.req));
            }
        }
        for (name, set) in reqs {
            if let Some(l) = out.get_mut(name) {
                l.requests = set.len() as u64;
            }
        }
        out
    }

    /// Every span as one JSON object per line; `buffer` and `id`
    /// identify a span, and `parent` is an `id` in the same buffer.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (buffer, (thread, spans)) in self.buffers.iter().enumerate() {
            for (id, s) in spans.iter().enumerate() {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                let _ = writeln!(
                    out,
                    "{{\"buffer\": {buffer}, \"thread\": {thread}, \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    s.name, s.req, s.start_ns, s.end_ns
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(Instant::now(), 0);
        let root = s.enter("root", 1);
        s.time("leaf", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.exit(root);
        let mut t = Trace::default();
        t.absorb(s);
        let layers = t.layers();
        let (root, leaf) = (&layers["root"], &layers["leaf"]);
        assert!(leaf.self_ns >= 2_000_000);
        assert!(root.self_ns < leaf.self_ns);
        assert_eq!((root.calls, root.requests), (1, 1));
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
