//! In-memory spans recorded around the benchmark's calls into each
//! layer's public API.
//!
//! A span has a name, a start, an end and a parent; spans of one
//! round share the round id. With tracing off, [`Tracer::span`] only
//! runs its closure, so the untraced run executes the same calls.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub round: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Nested calls to [`Tracer::span`] record the
/// enclosing span as parent.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    round: u32,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            round: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag the spans that follow with round id `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` when tracing is on.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            round: self.round,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }
}

/// Per-name totals: summed duration, summed self time (duration minus
/// the time its direct children cover) and span count.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotals {
    pub total_ns: u64,
    pub self_ns: u64,
    pub count: u64,
}

/// Aggregate spans by name. Children of one span run one after the
/// other, so the time they cover is the sum of their durations.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(covered);
        t.count += 1;
    }
    out
}

/// Spans as tab-separated text, one per line: index, round, name,
/// parent index (`-` for a root), start and end in ns.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("index\tround\tname\tparent\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{i}\t{}\t{}\t{parent}\t{}\t{}\n",
            s.round, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

/// Share of the time of root spans named `root` that none of their
/// children covers.
pub fn unattributed_share(spans: &[Span], root: &str) -> f64 {
    let t = totals(spans);
    match t.get(root) {
        Some(r) if r.total_ns > 0 => r.self_ns as f64 / r.total_ns as f64,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            round: 0,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("round", None, 0, 100),
            span("pump", Some(0), 10, 60),
            span("decode", Some(1), 20, 50),
            span("adapt", Some(0), 60, 90),
        ];
        let t = totals(&spans);
        assert_eq!(t["round"].self_ns, 100 - 50 - 30);
        assert_eq!(t["pump"].self_ns, 50 - 30);
        assert_eq!(t["decode"].self_ns, 30);
        assert_eq!(t["adapt"].self_ns, 30);
        assert_eq!(t["round"].count, 1);
    }

    #[test]
    fn totals_sum_over_repeated_names() {
        let spans = vec![
            span("round", None, 0, 10),
            span("chat", Some(0), 0, 4),
            span("chat", Some(0), 4, 9),
            span("round", None, 10, 30),
            span("chat", Some(3), 12, 14),
        ];
        let t = totals(&spans);
        assert_eq!(t["chat"].count, 3);
        assert_eq!(t["chat"].total_ns, 11);
        assert_eq!(t["round"].total_ns, 30);
        assert_eq!(t["round"].self_ns, 1 + 18);
    }

    #[test]
    fn unattributed_share_is_round_self_time_over_round_time() {
        let spans = vec![
            span("round", None, 0, 100),
            span("pump", Some(0), 0, 90),
            span("round", None, 100, 200),
            span("pump", Some(2), 100, 200),
        ];
        assert!((unattributed_share(&spans, "round") - 10.0 / 200.0).abs() < 1e-12);
        assert_eq!(unattributed_share(&spans, "missing"), 0.0);
    }

    #[test]
    fn tracer_records_parents_and_rounds() {
        let mut tr = Tracer::new(true);
        tr.set_round(7);
        let v = tr.span("round", |tr| tr.span("pump", |_| 41) + 1);
        assert_eq!(v, 42);
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[0].parent, None);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert!(tr.spans.iter().all(|s| s.round == 7));
        assert!(tr.spans[0].start_ns <= tr.spans[1].start_ns);
        assert!(tr.spans[1].end_ns <= tr.spans[0].end_ns);
    }

    #[test]
    fn tsv_lists_every_span_with_its_parent() {
        let spans = vec![span("round", None, 0, 10), span("pump", Some(0), 2, 9)];
        let tsv = to_tsv(&spans);
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], "0\t0\tround\t-\t0\t10");
        assert_eq!(lines[2], "1\t0\tpump\t0\t2\t9");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("round", |_| 3), 3);
        assert!(tr.spans.is_empty());
    }
}
