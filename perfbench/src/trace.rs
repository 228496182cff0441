//! Spans and counters at the discharge seam.
//!
//! The benchmark records one span per workload pass, per cell (one proof
//! call or one JIT sweep) and per batch submitted through
//! `serval_engine::discharger()`. Batch spans come from [`Timed`], a
//! `Discharge` wrapper installed in front of the real discharger only in
//! traced runs; cell and workload spans come from the benchmark's own
//! loop. Every span carries the counters measured at its boundaries.
//! Spans stay in memory and are written out when the run ends.

use serval_engine::{Discharge, Query, QueryOutcome};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Named counters. Every key sums when counters are merged, except the
/// keys in [`MAX_KEYS`], which keep the maximum.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts(pub BTreeMap<&'static str, f64>);

/// Counters that are maxima, not sums.
const MAX_KEYS: [&str; 1] = ["engine.max_query_s"];

impl Counts {
    /// Adds `v` to counter `key` (or raises it, for a maximum).
    pub fn add(&mut self, key: &'static str, v: f64) {
        let slot = self.0.entry(key).or_insert(0.0);
        if MAX_KEYS.contains(&key) {
            *slot = slot.max(v);
        } else {
            *slot += v;
        }
    }

    /// Counter `key`, zero when absent.
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Merges every counter of `other` into this one.
    pub fn merge(&mut self, other: &Counts) {
        for (&k, &v) in &other.0 {
            self.add(k, v);
        }
    }

    /// What a monotone snapshot gained since `before`.
    pub fn since(&self, before: &Counts) -> Counts {
        Counts(
            self.0
                .iter()
                .map(|(&k, &v)| (k, v - before.get(k)))
                .collect(),
        )
    }
}

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One pass over a workload's cells.
    Workload,
    /// One proof call or one JIT sweep.
    Cell,
    /// One `submit_batch` call into the discharger.
    Batch,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Workload => "workload",
            Kind::Cell => "cell",
            Kind::Batch => "batch",
        }
    }
}

/// One recorded interval. Times are seconds since the trace began.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index into the trace's span list.
    pub id: usize,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
    /// Layer boundary the span marks.
    pub kind: Kind,
    /// Workload, cell, or batch name.
    pub name: String,
    /// Start time.
    pub start: f64,
    /// End time (equal to `start` while the span is open).
    pub end: f64,
    /// Counters measured at the span's boundaries.
    pub counts: Counts,
}

/// The spans of one benchmark run, all sharing its run id.
pub struct Trace {
    /// Identifier shared by every span of this run.
    pub run_id: String,
    t0: Instant,
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// An empty trace starting now.
    pub fn new(run_id: String) -> Trace {
        Trace {
            run_id,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open span and returns its id.
    pub fn open(&mut self, kind: Kind, name: String) -> usize {
        let now = self.t0.elapsed().as_secs_f64();
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            kind,
            name,
            start: now,
            end: now,
            counts: Counts::default(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize, counts: Counts) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end = self.t0.elapsed().as_secs_f64();
        span.counts = counts;
    }

    /// The direct children of span `id`.
    pub fn children(&self, id: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Span `id`'s duration minus the part of it its children cover.
    pub fn self_time(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let kids: Vec<(f64, f64)> = self.children(id).map(|c| (c.start, c.end)).collect();
        self_time((s.start, s.end), &kids)
    }

    /// The trace as one JSON object (`extra` is spliced in verbatim as
    /// further `"key": value` members).
    pub fn to_json(&self, extra: &str) -> String {
        let mut out = format!(
            "{{\"run_id\": {}, {extra}, \"spans\": [",
            json_str(&self.run_id)
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n  {{\"run_id\": {}, \"id\": {}, \"parent\": {parent}, \"kind\": \"{}\", \"name\": {}, \
                 \"start_s\": {}, \"end_s\": {}, \"self_s\": {}, \"counts\": {}}}",
                json_str(&self.run_id),
                s.id,
                s.kind.name(),
                json_str(&s.name),
                s.start,
                s.end,
                self.self_time(s.id),
                counts_json(&s.counts)
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A parent interval's length minus the union of its children's
/// intervals clipped to it: the parent's self time.
pub fn self_time(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (lo, hi) = parent;
    let mut kids: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| e > s)
        .collect();
    kids.sort_by(|a, b| a.partial_cmp(b).expect("span times are finite"));
    let mut covered = 0.0;
    let mut reach = lo;
    for (s, e) in kids {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (hi - lo) - covered
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Counters as a JSON object.
fn counts_json(c: &Counts) -> String {
    let fields: Vec<String> =
        c.0.iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The counters one batch's outcomes carry, plus its wall time.
pub fn batch_counts(outcomes: &[QueryOutcome], wall: f64, remote: bool) -> Counts {
    let mut c = Counts::default();
    c.add("engine.batches", 1.0);
    c.add("engine.discharge_s", wall);
    if remote {
        c.add("net.rtt_s", wall);
    }
    for o in outcomes {
        c.add("engine.max_query_s", o.wall.as_secs_f64());
        let Some(st) = &o.stats else { continue };
        c.add("engine.solver_cpu_s", st.wall.as_secs_f64());
        c.add("smt.presolve_terms_in", st.presolve_terms_in as f64);
        c.add("smt.presolve_terms_out", st.presolve_terms_out as f64);
        c.add("smt.vars", st.vars as f64);
        c.add("smt.clauses", st.clauses as f64);
        c.add("smt.reused_clauses", st.reused_clauses as f64);
        c.add("sat.conflicts", st.conflicts as f64);
        c.add("sat.decisions", st.decisions as f64);
        c.add("sat.propagations", st.propagations as f64);
        c.add("sat.eliminated_vars", st.eliminated_vars as f64);
        c.add("sat.subsumed", st.subsumed as f64);
        c.add("sat.resolvents", st.resolvents as f64);
        c.add("drat.check_s", st.cert_wall.as_secs_f64());
        c.add("drat.steps", st.cert_steps as f64);
    }
    c
}

/// A `Discharge` wrapper that records one span per `submit_batch` call
/// and the counters of the outcomes it returns.
pub struct Timed {
    inner: Arc<dyn Discharge>,
    trace: Arc<Mutex<Trace>>,
    remote: bool,
}

impl Timed {
    /// Wraps `inner`; `remote` marks batch time as wire round trips.
    pub fn new(inner: Arc<dyn Discharge>, trace: Arc<Mutex<Trace>>, remote: bool) -> Timed {
        Timed {
            inner,
            trace,
            remote,
        }
    }
}

/// Locks a shared trace.
pub fn lock(trace: &Mutex<Trace>) -> MutexGuard<'_, Trace> {
    trace
        .lock()
        .expect("trace lock poisoned by a panicking span")
}

impl Discharge for Timed {
    fn submit_batch(&self, queries: Vec<Query>) -> Vec<QueryOutcome> {
        let id = lock(&self.trace).open(Kind::Batch, format!("batch of {}", queries.len()));
        let t = Instant::now();
        let outcomes = self.inner.submit_batch(queries);
        let wall = t.elapsed().as_secs_f64();
        lock(&self.trace).close(id, batch_counts(&outcomes, wall, self.remote));
        outcomes
    }

    fn describe(&self) -> String {
        format!("timed {}", self.inner.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        // No children: the whole interval.
        assert!(close(self_time((0.0, 10.0), &[]), 10.0));
        // Disjoint children.
        assert!(close(
            self_time((0.0, 10.0), &[(1.0, 2.0), (5.0, 8.0)]),
            6.0
        ));
        // Overlapping children count their union once.
        assert!(close(
            self_time((0.0, 10.0), &[(1.0, 4.0), (3.0, 6.0), (2.0, 5.0)]),
            5.0
        ));
        // A child nested in another child.
        assert!(close(
            self_time((0.0, 10.0), &[(1.0, 9.0), (2.0, 3.0)]),
            2.0
        ));
        // Children reaching outside the parent are clipped to it.
        assert!(close(self_time((2.0, 6.0), &[(0.0, 3.0), (5.0, 9.0)]), 2.0));
        // A child that fully covers the parent leaves no self time.
        assert!(close(self_time((2.0, 6.0), &[(1.0, 7.0)]), 0.0));
        // Children outside the parent do not count.
        assert!(close(self_time((2.0, 6.0), &[(7.0, 8.0), (0.0, 1.0)]), 4.0));
    }

    #[test]
    fn spans_nest_and_self_time_uses_direct_children() {
        let mut t = Trace::new("test".to_string());
        let w = t.open(Kind::Workload, "w".to_string());
        let c = t.open(Kind::Cell, "c".to_string());
        let b = t.open(Kind::Batch, "b".to_string());
        t.close(b, Counts::default());
        t.close(c, Counts::default());
        t.close(w, Counts::default());
        assert_eq!(t.spans[c].parent, Some(w));
        assert_eq!(t.spans[b].parent, Some(c));
        // Hand-set times: the workload's self time ignores the
        // grandchild batch, which the cell already covers.
        let set = |t: &mut Trace, id: usize, s: f64, e: f64| {
            t.spans[id].start = s;
            t.spans[id].end = e;
        };
        set(&mut t, w, 0.0, 10.0);
        set(&mut t, c, 1.0, 9.0);
        set(&mut t, b, 2.0, 5.0);
        assert!(close(t.self_time(w), 2.0));
        assert!(close(t.self_time(c), 5.0));
        assert!(close(t.self_time(b), 3.0));
        let json = t.to_json("\"seed\": 1");
        assert!(json.contains("\"parent\": 1") && json.contains("\"seed\": 1"));
    }

    #[test]
    fn counts_sum_except_maxima() {
        let mut a = Counts::default();
        a.add("sat.conflicts", 3.0);
        a.add("engine.max_query_s", 2.0);
        let mut b = Counts::default();
        b.add("sat.conflicts", 4.0);
        b.add("engine.max_query_s", 1.0);
        a.merge(&b);
        assert_eq!(a.get("sat.conflicts"), 7.0);
        assert_eq!(a.get("engine.max_query_s"), 2.0);
        assert_eq!(a.since(&b).get("sat.conflicts"), 3.0);
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
