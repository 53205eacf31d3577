//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, start and end (ns since the tracer was made),
//! the span open around it, and the id of the request it served. Spans
//! stay in memory and are written out once, when the run ends. An
//! untraced run carries a disabled tracer, which records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `serve.enqueue`.
    pub name: &'static str,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// End, ns since the tracer was made.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request the span served.
    pub req: u64,
}

/// Per-name aggregate of the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stage {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time covered by direct children.
    pub self_ns: u64,
}

/// A span name built at run time. Span names are static; the few built
/// from layer or workload names live for the rest of the run.
pub fn static_name(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

/// Handle of an open span; `None` when tracing is off.
pub type Open = Option<usize>;

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes a span opened by [`Tracer::begin`] (innermost first).
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open {
            let now = self.now_ns();
            self.spans[idx].end_ns = now;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, req);
        let out = f();
        self.end(open);
        out
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn stages(&self) -> BTreeMap<&'static str, Stage> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Stage> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let stage = out.entry(s.name).or_default();
            stage.count += 1;
            stage.total_ns += dur;
            stage.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Mean duration of the spans named `name`, in ns (0 if none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (n, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| {
                (n + 1, t + (s.end_ns - s.start_ns))
            });
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a", 1, || 5);
        assert_eq!(v, 5);
        assert!(t.spans().is_empty());
        assert_eq!(t.mean_ns("a"), 0.0);
    }

    #[test]
    fn nesting_sets_parents_and_self_time() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 3);
        t.span("inner", 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].req, 3);
        let stages = t.stages();
        let (o, i) = (stages["outer"], stages["inner"]);
        assert_eq!(o.total_ns - o.self_ns, i.total_ns);
        assert!(i.total_ns >= 2_000_000);
        assert_eq!(t.to_json_lines().lines().count(), 2);
    }
}
