//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time arithmetic over them.
//!
//! A span's self time is its duration minus the part of its interval that
//! its children cover (overlapping children count once).

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the log's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the log.
    pub id: u64,
    /// Layer-qualified name, e.g. `search.run`.
    pub name: String,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin (0 while open).
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The workload the span belongs to.
    pub workload: String,
    /// The cell (index in the workload's cell list) the span served.
    pub cell: Option<usize>,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span log for one traced run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log for `workload`, timed from now.
    pub fn new(workload: &str) -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &str, parent: Option<u64>, cell: Option<usize>) -> u64 {
        let id = self.spans.len() as u64;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name: name.to_string(),
            start_ns,
            end_ns: 0,
            parent,
            workload: self.workload.clone(),
            cell,
        });
        id
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: u64) {
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The log as JSONL, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"workload\":\"{}\",\"cell\":{}}}\n",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.workload,
                s.cell.map_or("null".to_string(), |c| c.to_string()),
            ));
        }
        out
    }
}

/// Self time (ns) of every span, by id: its duration minus the union of
/// its children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut intervals: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Total self time (seconds) per span name.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let own = self_times(spans);
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name.clone()).or_default() += own[&s.id] as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &str, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            parent,
            workload: "w".to_string(),
            cell: None,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        // cell [0,100) with children search [10,60) and reference [50,70)
        // overlapping on [50,60); search has a child [20,30).
        let spans = vec![
            span(0, "cell", 0, 100, None),
            span(1, "search", 10, 60, Some(0)),
            span(2, "reference", 50, 70, Some(0)),
            span(3, "cachesim", 20, 30, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&0], 100 - 60); // [10,70) covered
        assert_eq!(own[&1], 50 - 10);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 10);
        let by_name = self_seconds_by_name(&spans);
        assert!((by_name["cell"] - 40e-9).abs() < 1e-15);
        // Overlapping siblings each keep their own self time, so the
        // [50,60) overlap is counted twice in the sum.
        let total: u64 = own.values().sum();
        assert_eq!(total, 100 + 10);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span(0, "p", 10, 20, None), span(1, "c", 5, 15, Some(0))];
        assert_eq!(self_times(&spans)[&0], 5);
    }

    #[test]
    fn log_records_nested_spans() {
        let mut log = SpanLog::new("paper-slice");
        let root = log.open("cell", None, Some(3));
        let child = log.open("search.run", Some(root), Some(3));
        log.close(child);
        log.close(root);
        assert_eq!(log.spans().len(), 2);
        assert_eq!(log.spans()[1].parent, Some(root));
        let line = log.to_jsonl();
        assert!(line.contains("\"workload\":\"paper-slice\""));
        assert!(line.contains("\"cell\":3"));
    }
}
