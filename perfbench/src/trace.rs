//! Harness-side spans around calls into each layer's public functions.
//!
//! Spans live in memory for the whole run and are written as Chrome trace
//! JSON at exit. A disarmed tracer (`--trace 0`) records nothing and reads
//! no clock, so the end-to-end numbers carry no tracing cost.
//!
//! All spans come from the harness thread: the programs under test spawn
//! their own rank/worker threads, but the harness only brackets the public
//! call that starts them.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (crate) the called function belongs to.
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Rep the span belongs to (spans of one rep share the id).
    pub rep: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    armed: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Tracer {
    pub fn new(armed: bool) -> Self {
        Self { armed, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), rep: 0 }
    }

    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Tag subsequent spans with a new rep id.
    pub fn next_rep(&mut self) {
        self.rep += 1;
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span. The tracer is handed back to `f` so nested
    /// calls can open child spans.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.armed {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// [`span`](Self::span) that also returns the wall seconds `f` took,
    /// measured whether or not the tracer is armed.
    pub fn timed<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let t0 = Instant::now();
        let out = self.span(layer, name, f);
        (out, t0.elapsed().as_secs_f64())
    }

    /// Record a child span of the innermost open span from a duration the
    /// program under test reported itself (e.g. a workflow `StageTiming`).
    /// Derived spans are laid end to end from `cursor_ns`, which is
    /// advanced past the new span.
    pub fn derived(
        &mut self,
        layer: &'static str,
        name: &'static str,
        cursor_ns: &mut u64,
        seconds: f64,
    ) {
        if !self.armed {
            return;
        }
        let dur = (seconds.max(0.0) * 1e9) as u64;
        self.spans.push(Span {
            layer,
            name,
            start_ns: *cursor_ns,
            end_ns: *cursor_ns + dur,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        *cursor_ns += dur;
    }

    /// Start time of the innermost open span (the cursor origin for
    /// [`derived`](Self::derived)).
    pub fn open_start_ns(&self) -> u64 {
        self.open.last().map_or(0, |&i| self.spans[i].start_ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration (seconds) of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 * 1e-9).sum()
    }

    /// Durations (seconds) of every span named `name`, in recording order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 * 1e-9).collect()
    }

    /// Chrome trace-event JSON ("X" complete events, microseconds).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":{:?},\"cat\":{:?},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":0,\
                 \"args\":{{\"id\":{i},\"parent\":{},\"rep\":{}}}}}",
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.parent.map_or(-1, |p| p as i64),
                s.rep,
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Self time per span: its duration minus the part its direct children
/// cover (children are disjoint, being sequential calls on one thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Self time (seconds) summed per layer.
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_layer.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { layer, name: "s", start_ns: start, end_ns: end, parent, rep: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100, child a 10..40 (grandchild 15..25), child b 50..90.
        let spans = vec![
            span("harness", 0, 100, None),
            span("core", 10, 40, Some(0)),
            span("solver", 15, 25, Some(1)),
            span("pario", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let by = layer_self_s(&spans);
        assert!((by["harness"] - 30e-9).abs() < 1e-15);
        assert!((by["core"] - 20e-9).abs() < 1e-15);
        // Layer self times partition the root exactly.
        assert!((by.values().sum::<f64>() - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn disarmed_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("solver", "x", |t| t.span("cvm", "y", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_and_derived_spans_link_to_parents() {
        let mut t = Tracer::new(true);
        t.next_rep();
        t.span("core", "execute", |t| {
            let mut cursor = t.open_start_ns();
            t.derived("cvm", "stage-a", &mut cursor, 1e-6);
            t.derived("solver", "stage-b", &mut cursor, 2e-6);
            t.span("pario", "inner", |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert!(s[1..].iter().all(|c| c.parent == Some(0) && c.rep == 1));
        assert_eq!(s[2].start_ns, s[1].end_ns);
        assert_eq!(s[2].dur_ns(), 2000);
        let json = t.chrome_trace();
        assert!(json.contains("\"traceEvents\"") && json.contains("\"stage-b\""));
    }
}
