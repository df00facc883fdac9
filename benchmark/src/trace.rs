//! Spans recorded by the benchmark's own code around its calls into each
//! layer: kept in memory, written as Chrome-trace JSON when the run ends.
//! Spans *inside* the program are a later change (ROADMAP item 4c).

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The cell or request this span belongs to; spans of one op share it.
    pub op: usize,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op: usize, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Adds a finished child span from instants taken elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        op: usize,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent: Some(parent),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a child span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, Some(parent));
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Summed self time of every span called `name`, seconds.
    pub fn total_self_s(&self, name: &str) -> f64 {
        let ns: u64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self_time_ns(&self.spans, i))
            .sum();
        ns as f64 / 1e9
    }

    /// The Chrome trace-event array form (`chrome://tracing`, Perfetto):
    /// one complete ("X") event per span, one track per op.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"id\": {id}, \"parent\": {parent}, \"self_us\": {:.3}}}}}{sep}",
                s.name,
                s.op,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                self_time_ns(&self.spans, id) as f64 / 1e3,
            );
        }
        out.push_str("]\n");
        out
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// direct children cover (overlapping or adjacent children count once).
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut frontier = me.start_ns;
    for (s, e) in kids {
        let s = s.max(frontier);
        if e > s {
            covered += e - s;
            frontier = e;
        }
    }
    me.dur_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_adjacent_children_once_each() {
        // root [0,100): children [10,30) and [30,50) abut; 60 left over.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 30, 50),
        ];
        assert_eq!(self_time_ns(&spans, 0), 60);
        assert_eq!(self_time_ns(&spans, 1), 20);
    }

    #[test]
    fn self_time_counts_only_direct_children_of_nested_spans() {
        // root [0,100) > child [20,80) > grandchild [30,40).
        let spans = [
            span(None, 0, 100),
            span(Some(0), 20, 80),
            span(Some(1), 30, 40),
        ];
        assert_eq!(self_time_ns(&spans, 0), 40);
        assert_eq!(self_time_ns(&spans, 1), 50);
        assert_eq!(self_time_ns(&spans, 2), 10);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_to_the_parent() {
        // children [10,60) and [40,120) overlap and the second overruns.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(0), 40, 120),
        ];
        assert_eq!(self_time_ns(&spans, 0), 10);
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root_duration() {
        let spans = [
            span(None, 0, 1000),
            span(Some(0), 100, 400),
            span(Some(1), 150, 250),
            span(Some(0), 400, 900),
            span(Some(3), 500, 800),
        ];
        let total: u64 = (0..spans.len()).map(|i| self_time_ns(&spans, i)).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn chrome_json_has_one_complete_event_per_span() {
        let mut t = Tracer::new();
        let root = t.begin("request", 7, None);
        t.scope("connect", 7, root, || ());
        t.end(root);
        let json = t.to_chrome_json();
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert!(json.contains("\"name\": \"connect\""));
        assert!(json.contains("\"parent\": 0"));
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    }
}
