//! Spans recorded around the benchmark's calls into the program.
//!
//! Every timed call into a layer is a [`Span`]: name, start, duration,
//! parent and the id of the operation it belongs to. Spans stay in
//! memory; per-layer metrics are medians over operations of each
//! layer's per-operation time, and a traced run also writes them out as
//! trace-event JSON (`chrome://tracing`, Perfetto) plus a flat table of
//! self times.
//!
//! Spans marked `derived` are not timed around a call: they lay out, in
//! pipeline order inside their parent, the stage durations the program
//! itself reports through `MergeSession::stage_timings`.

use modemerge_core::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span of one measured operation.
pub const OP: &str = "op";
/// Name of the root span of one set-up.
pub const SETUP: &str = "setup";

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `sta.bind`.
    pub name: String,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Thread lane (client connection, child process…).
    pub tid: u64,
    /// Start, in microseconds since the tracer's epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Laid out from program counters rather than timed.
    pub derived: bool,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.dur_us / 1e3
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str(&self.name)),
            ("op".into(), Json::num(self.op as f64)),
            ("tid".into(), Json::num(self.tid as f64)),
            ("start_us".into(), Json::num(self.start_us)),
            ("dur_us".into(), Json::num(self.dur_us)),
            ("parent".into(), self.parent.map_or(Json::Null, Json::count)),
            ("derived".into(), Json::Bool(self.derived)),
        ])
    }

    fn from_json(v: &Json) -> Option<Span> {
        Some(Span {
            name: v.get("name")?.as_str()?.to_owned(),
            op: v.get("op")?.as_u64()?,
            tid: v.get("tid")?.as_u64()?,
            start_us: v.get("start_us")?.as_f64()?,
            dur_us: v.get("dur_us")?.as_f64()?,
            parent: v.get("parent")?.as_u64().map(|p| p as usize),
            derived: v.get("derived")?.as_bool()?,
        })
    }
}

/// A single-threaded span recorder. Threads and child processes keep
/// their own and are merged with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    tid: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`, on lane `tid`.
    pub fn new(epoch: Instant, tid: u64) -> Self {
        Self {
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str, op: u64) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_owned(),
            op,
            tid: self.tid,
            start_us,
            dur_us: 0.0,
            parent: self.open.last().copied(),
            derived: false,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        idx
    }

    /// Closes span `idx` (the innermost open one) and returns its
    /// duration in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is not the innermost open span.
    pub fn end(&mut self, idx: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        let now = self.now_us();
        let span = &mut self.spans[idx];
        span.dur_us = now - span.start_us;
        span.ms()
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &str, op: u64, f: impl FnOnce() -> R) -> R {
        let idx = self.begin(name, op);
        let out = f();
        self.end(idx);
        out
    }

    /// Records a root span measured elsewhere, on lane `tid`
    /// (overlapping pipelined requests do not nest), and returns its
    /// duration in milliseconds.
    pub fn record(&mut self, name: &str, op: u64, tid: u64, start: Instant, end: Instant) -> f64 {
        self.spans.push(Span {
            name: name.to_owned(),
            op,
            tid,
            start_us: self.offset_of(start),
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
            parent: None,
            derived: false,
        });
        self.spans[self.spans.len() - 1].ms()
    }

    /// Records a span laid out from program counters inside `parent`,
    /// starting `offset_us` after the parent's start.
    pub fn derived(&mut self, name: &str, parent: usize, offset_us: f64, dur_us: f64) -> usize {
        let p = &self.spans[parent];
        self.spans.push(Span {
            name: name.to_owned(),
            op: p.op,
            tid: p.tid,
            start_us: p.start_us + offset_us,
            dur_us,
            parent: Some(parent),
            derived: true,
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Takes over `spans` recorded by another tracer whose epoch lies
    /// `offset_us` after this one's, re-basing their parent links.
    pub fn absorb(&mut self, spans: Vec<Span>, offset_us: f64) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.start_us += offset_us;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Microseconds from this tracer's epoch to `t`.
    pub fn offset_of(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }
}

/// Serializes spans for a parent process.
pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(spans.iter().map(Span::to_json).collect())
}

/// Parses [`spans_to_json`] output.
pub fn spans_from_json(v: &Json) -> Option<Vec<Span>> {
    v.as_array()?.iter().map(Span::from_json).collect()
}

/// Per operation (in op id order), the summed duration (ms) of every
/// span whose name is one of `names`.
pub fn per_op_ms(spans: &[Span], names: &[&str]) -> Vec<f64> {
    let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| names.contains(&s.name.as_str())) {
        *by_op.entry(s.op).or_default() += s.ms();
    }
    by_op.into_values().collect()
}

/// Per operation, the longest span named `name` (ms).
pub fn per_op_max_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        let e = by_op.entry(s.op).or_default();
        *e = e.max(s.ms());
    }
    by_op.into_values().collect()
}

/// Self time of every span: its duration minus its children's.
fn self_us(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(|s| s.dur_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.dur_us;
        }
    }
    out
}

/// The flat per-layer table: count, total and self time per span name,
/// then how much of the operations' wall time the layer spans cover.
pub fn layer_table(workload: &str, spans: &[Span]) -> String {
    #[derive(Default)]
    struct Row {
        count: usize,
        total_us: f64,
        self_us: f64,
    }
    let selfs = self_us(spans);
    let mut rows: BTreeMap<&str, Row> = BTreeMap::new();
    for (s, self_time) in spans.iter().zip(&selfs) {
        let row = rows.entry(&s.name).or_default();
        row.count += 1;
        row.total_us += s.dur_us;
        row.self_us += self_time;
    }
    let op_total: f64 = spans
        .iter()
        .filter(|s| s.name == OP)
        .map(|s| s.dur_us)
        .sum();
    let mut out = format!("# {workload}: per-layer self time (ms) over all recorded spans\n");
    let _ = writeln!(
        out,
        "{:<28} {:>8} {:>12} {:>12} {:>8}",
        "layer", "count", "total_ms", "self_ms", "self_%op"
    );
    for (name, row) in &rows {
        let share = if op_total > 0.0 {
            100.0 * row.self_us / op_total
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12.3} {:>12.3} {:>8.2}",
            name,
            row.count,
            row.total_us / 1e3,
            row.self_us / 1e3,
            share
        );
    }
    let _ = writeln!(out, "{}", coverage_line(spans));
    out
}

/// How much of the operations' wall time is covered by layer spans:
/// the sum of every descendant's self time against the `op` roots'
/// total (the remainder is the roots' own, unattributed time).
pub fn coverage_line(spans: &[Span]) -> String {
    let selfs = self_us(spans);
    let mut total = 0.0;
    let mut unattributed = 0.0;
    let mut with_children = 0usize;
    for (i, s) in spans.iter().enumerate() {
        if s.name == OP && spans.iter().any(|c| c.parent == Some(i)) {
            total += s.dur_us;
            unattributed += selfs[i];
            with_children += 1;
        }
    }
    if with_children == 0 {
        return "coverage: no operation has layer spans".to_owned();
    }
    format!(
        "coverage: layer self times sum to {:.3} ms of {:.3} ms operation wall \
         over {with_children} operations ({:.2}% unattributed)",
        (total - unattributed) / 1e3,
        total / 1e3,
        100.0 * unattributed / total
    )
}

/// Trace-event JSON (the `traceEvents` array format).
pub fn trace_events(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![("op".into(), Json::num(s.op as f64))];
            if let Some(p) = s.parent {
                args.push(("parent".into(), Json::str(&spans[p].name)));
            }
            Json::Obj(vec![
                ("name".into(), Json::str(&s.name)),
                (
                    "cat".into(),
                    Json::str(if s.derived { "counter" } else { "call" }),
                ),
                ("ph".into(), Json::str("X")),
                ("ts".into(), Json::num(s.start_us)),
                ("dur".into(), Json::num(s.dur_us)),
                ("pid".into(), Json::count(1)),
                ("tid".into(), Json::num(s.tid as f64)),
                ("args".into(), Json::Obj(args)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, op: u64, start: f64, dur: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            op,
            tid: 0,
            start_us: start,
            dur_us: dur,
            parent,
            derived: false,
        }
    }

    #[test]
    fn nesting_and_durations() {
        let mut t = Tracer::new(Instant::now(), 3);
        let root = t.begin(OP, 7);
        let v = t.time("leaf", 7, || 41 + 1);
        assert_eq!(v, 42);
        let d = t.derived("stage", root, 5.0, 10.0);
        t.end(root);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(root));
        assert_eq!(s[1].tid, 3);
        assert_eq!(s[d].start_us, s[root].start_us + 5.0);
        assert!(s[d].derived);
        assert!(s[root].dur_us >= s[1].dur_us);
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::new(Instant::now(), 0);
        let a = t.begin("a", 0);
        let _b = t.begin("b", 0);
        t.end(a);
    }

    #[test]
    fn per_op_sums_and_maxima() {
        let spans = vec![
            span("g", 1, 0.0, 1000.0, None),
            span("g", 1, 0.0, 3000.0, None),
            span("g", 2, 0.0, 5000.0, None),
            span("h", 2, 0.0, 1.0, None),
        ];
        assert_eq!(per_op_ms(&spans, &["g"]), vec![4.0, 5.0]);
        assert_eq!(per_op_ms(&spans, &["g", "h"]), vec![4.0, 5.001]);
        assert_eq!(per_op_max_ms(&spans, "g"), vec![3.0, 5.0]);
        assert!(per_op_ms(&spans, &["missing"]).is_empty());
    }

    #[test]
    fn absorb_rebases_parents_and_times() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.absorb(vec![span(OP, 0, 0.0, 10.0, None)], 0.0);
        t.absorb(
            vec![
                span(OP, 1, 0.0, 10.0, None),
                span("x", 1, 1.0, 2.0, Some(0)),
            ],
            100.0,
        );
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[2].start_us, 101.0);
        let round = spans_from_json(&spans_to_json(t.spans())).unwrap();
        assert_eq!(round, t.spans());
    }

    #[test]
    fn coverage_counts_root_self_time_as_unattributed() {
        let spans = vec![
            span(OP, 0, 0.0, 100.0, None),
            span("a", 0, 0.0, 60.0, Some(0)),
            span("b", 0, 60.0, 35.0, Some(0)),
            span("c", 0, 60.0, 5.0, Some(2)),
        ];
        let line = coverage_line(&spans);
        assert!(line.contains("0.095 ms of 0.100 ms"), "{line}");
        assert!(line.contains("5.00% unattributed"), "{line}");
        let table = layer_table("w", &spans);
        assert!(table.contains("b"), "{table}");
    }
}
