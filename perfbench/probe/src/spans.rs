//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into the repository's public
//! functions, never inside them. Each span carries its name, start and
//! end (seconds since the recorder was created), the span that caused
//! it, the query it belongs to and the recording thread. A disabled
//! recorder runs the wrapped closures and records nothing, so the same
//! code measures the untraced wall time.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub query: Option<usize>,
    pub thread: u64,
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local!(static TAG: Cell<Option<u64>> = const { Cell::new(None) });
    TAG.with(|t| match t.get() {
        Some(tag) => tag,
        None => {
            let tag = NEXT.fetch_add(1, Ordering::Relaxed);
            t.set(Some(tag));
            tag
        }
    })
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// pass to spans it causes.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        query: Option<usize>,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            spans.push(Span {
                name,
                start: self.now(),
                end: f64::NAN,
                parent,
                query,
                thread: thread_tag(),
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.now();
        self.spans.lock().expect("span recorder poisoned")[id].end = end;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span recorder poisoned")
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of that
/// interval its child spans cover (children on parallel threads are
/// merged, not summed).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end - s.start) - covered(kids, s.start, s.end))
        .collect()
}

/// The spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<usize>| v.map_or("null".to_owned(), |v| v.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start\":{:?},\"end\":{:?},\"parent\":{},\"query\":{},\"thread\":{}}}{}",
            s.name,
            s.start,
            s.end,
            opt(s.parent),
            opt(s.query),
            s.thread,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push(']');
    out
}
