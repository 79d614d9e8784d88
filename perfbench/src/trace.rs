//! The benchmark's own span recorder.
//!
//! Spans are taken around calls into the library crates' public
//! functions, kept in memory, and written out as Chrome trace JSON when
//! the run ends. A span's name is `<layer>.<phase>`; the layer is the
//! workspace crate the call enters. A layer's self time is the part of
//! its spans' durations that their child spans do not cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// The layers, named after the workspace crates they time.
pub const LAYERS: [&str; 8] = [
    "ir", "hard", "core", "alloc", "phys", "search", "flow", "serve",
];

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The design or request the span works for.
    pub id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; when disabled every call is a no-op
/// apart from one branch, so the same replica code runs untraced.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle of an open span (`usize::MAX` when tracing is off).
#[derive(Clone, Copy)]
pub struct Open(usize);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(idx);
        Open(idx)
    }

    pub fn end(&mut self, open: Open) {
        if open.0 == usize::MAX {
            return;
        }
        let now = self.now_ns();
        self.spans[open.0].end_ns = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close in LIFO order");
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, id);
        let out = f();
        self.end(open);
        out
    }

    /// Self time (ns) per span: duration minus the children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child: Vec<u64> = vec![0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .map(|(s, &c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self time (ns) summed per layer, over the trees whose root span
    /// is named `root`.
    pub fn self_ns_by_layer(&self, root: &str) -> BTreeMap<&'static str, u64> {
        let mut by: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
        // Parents precede their children, so one pass resolves roots.
        let mut root_of: Vec<usize> = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            root_of.push(s.parent.map_or(i, |p| root_of[p]));
        }
        for ((s, ns), r) in self.spans.iter().zip(self.self_ns()).zip(root_of) {
            if self.spans[r].name == root {
                *by.entry(s.layer()).or_insert(0) += ns;
            }
        }
        by
    }

    /// Total duration (ns) of the spans named `name`, per `id`.
    pub fn total_by_id(&self, name: &str) -> BTreeMap<u64, u64> {
        let mut by = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by.entry(s.id).or_insert(0) += s.dur_ns();
        }
        by
    }

    /// Total and maximum duration (ns) of the spans named `name`.
    pub fn total_and_max(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(t, m), s| (t + s.dur_ns(), m.max(s.dur_ns())))
    }

    /// Chrome `trace_event` JSON: one complete event per span, with the
    /// span index, its parent and the design/request id as arguments.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let root = t.begin("flow.replica", 7);
        t.span("core.splice", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let selfs = t.self_ns();
        assert!(selfs[0] < t.spans[0].dur_ns());
        assert_eq!(selfs[1], t.spans[1].dur_ns());
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(hls_obs::export::validate_json(&t.chrome_json()).is_ok());

        let mut off = Tracer::new(false);
        off.span("core.splice", 1, || ());
        assert!(off.spans.is_empty());
    }
}
