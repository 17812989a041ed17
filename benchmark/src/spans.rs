//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer. Nothing here reads `glap-profile` span names;
//! spans inside the program are a later issue.
//!
//! A span is `(name, start, end, parent, run)`. Spans nest by a stack,
//! so a wrapper called from inside an engine call (a policy round inside
//! the day) becomes a child of whatever the composing code has open.
//! `run` numbers the entry-point calls of one workload (`day_pair` makes
//! two), so the spans of one call share an identifier.

use crate::json::{array, JsonObj};
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Name of the root span of one composed entry-point call.
pub const ROOT: &str = "experiments.run";
/// Name of a stretch inside a root where the benchmark itself works
/// (micro-measurements on live data); excluded from every total.
pub const PAUSE: &str = "bench.pause";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records spans on one thread (the driver thread of the run).
pub struct Recorder {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    run: Cell<u32>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            run: Cell::new(0),
        }
    }

    /// Nanoseconds since this recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// The identifier stamped on spans opened from now on.
    pub fn set_run(&self, run: u32) {
        self.run.set(run);
    }

    pub fn run(&self) -> u32 {
        self.run.get()
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let mut spans = self.spans.borrow_mut();
        let mut stack = self.stack.borrow_mut();
        let idx = spans.len();
        spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: stack.last().copied(),
            run: self.run.get(),
        });
        stack.push(idx);
        // Clock read last, so the bookkeeping above is charged to the
        // parent rather than to this span.
        spans[idx].start_ns = self.now_ns();
        SpanGuard { rec: self, idx }
    }

    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.stack.borrow().is_empty(), "span left open");
        self.spans.into_inner()
    }
}

pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    idx: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.rec.now_ns();
        self.rec.spans.borrow_mut()[self.idx].end_ns = end;
        let popped = self.rec.stack.borrow_mut().pop();
        debug_assert_eq!(popped, Some(self.idx), "spans must close innermost first");
    }
}

/// Durations in seconds of every span called `name`, in start order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// Total seconds spent in spans called `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    // A fold from +0.0: `sum()` of no spans is -0.0, which prints oddly.
    durations(spans, name).iter().fold(0.0, |a, b| a + b)
}

/// Seconds of span `idx` that none of its direct children cover.
pub fn self_secs(spans: &[Span], idx: usize) -> f64 {
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(Span::secs)
        .sum();
    spans[idx].secs() - children
}

/// Wall time of the composed run: its roots minus the benchmark's own
/// pauses inside them.
pub fn run_wall_secs(spans: &[Span]) -> f64 {
    total(spans, ROOT) - total(spans, PAUSE)
}

/// Time inside the roots that no top-level span (nor pause) covers, so
/// that the named layers plus this sum to [`run_wall_secs`].
pub fn unattributed_secs(spans: &[Span]) -> f64 {
    (0..spans.len())
        .filter(|&i| spans[i].name == ROOT)
        .map(|i| self_secs(spans, i))
        .sum()
}

/// Checks the tree: every span closed, children inside their parents
/// and in the same run. Returns the first violation.
pub fn check_tree(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p)
                .filter(|_| p < i)
                .ok_or_else(|| format!("span {i} ({}) has no earlier parent {p}", s.name))?;
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) lies outside its parent {p} ({})",
                    s.name, parent.name
                ));
            }
            if s.run != parent.run {
                return Err(format!("span {i} ({}) changes run under {p}", s.name));
            }
        }
    }
    Ok(())
}

/// The trace file: one object per span, in start order.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let items: Vec<String> = spans
        .iter()
        .map(|s| {
            let mut o = JsonObj::new();
            o.str("name", s.name)
                .num("start_ns", s.start_ns as f64)
                .num("end_ns", s.end_ns as f64)
                .num("parent", s.parent.map_or(-1.0, |p| p as f64))
                .num("run", f64::from(s.run));
            o.finish()
        })
        .collect();
    let mut o = JsonObj::new();
    o.str("workload", workload).raw("spans", &array(&items));
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_follows_the_stack_and_self_time_excludes_children() {
        let rec = Recorder::new();
        {
            let _root = rec.span(ROOT);
            {
                let _a = rec.span("a");
                let _b = rec.span("b");
            }
            rec.set_run(0);
            let _p = rec.span(PAUSE);
        }
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        check_tree(&spans).unwrap();
        let covered = spans[1].secs() + spans[3].secs();
        assert!((self_secs(&spans, 0) - (spans[0].secs() - covered)).abs() < 1e-12);
        assert!((run_wall_secs(&spans) - (spans[0].secs() - spans[3].secs())).abs() < 1e-12);
        assert!((unattributed_secs(&spans) - self_secs(&spans, 0)).abs() < 1e-12);
    }

    #[test]
    fn check_tree_rejects_a_child_outside_its_parent() {
        let mk = |start_ns, end_ns, parent| Span {
            name: "x",
            start_ns,
            end_ns,
            parent,
            run: 0,
        };
        assert!(check_tree(&[mk(10, 20, None), mk(12, 25, Some(0))]).is_err());
        assert!(check_tree(&[mk(10, 20, Some(1)), mk(12, 15, None)]).is_err());
        assert!(check_tree(&[mk(10, 20, None), mk(12, 15, Some(0))]).is_ok());
    }

    #[test]
    fn trace_file_is_valid_json() {
        let rec = Recorder::new();
        drop(rec.span(ROOT));
        let text = to_json("w", &rec.into_spans());
        let v = glap_profile::json::Json::parse(&text).unwrap();
        assert_eq!(v.get("spans").and_then(|s| s.as_arr()).unwrap().len(), 1);
    }
}
