//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing is traced inside the program: a span covers one call
//! from this crate into a workspace crate's public API.
//!
//! Spans are kept in memory while the traced run executes and written
//! out once at the end as a Chrome trace-event document. A span's name
//! is `<layer>.<what>`; the layer is the workspace crate the call goes
//! into, so self time can be summed per layer.

use spindle_obs::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, used as the parent link of its children.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    tid: u64,
    start_ns: u64,
    end_ns: Option<u64>,
    parent: Option<SpanId>,
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    /// An empty store whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span on the calling thread.
    pub fn open(&self, name: &str, parent: Option<SpanId>) -> SpanId {
        let span = Span {
            name: name.to_owned(),
            tid: TID.with(|t| *t),
            start_ns: self.now_ns(),
            end_ns: None,
            parent,
        };
        let mut spans = self.spans.lock().expect("span store lock");
        spans.push(span);
        spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        let end = self.now_ns();
        self.spans.lock().expect("span store lock")[id].end_ns = Some(end);
    }

    fn closed(&self) -> Vec<(SpanId, Span)> {
        let spans = self.spans.lock().expect("span store lock");
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.end_ns.is_some())
            .map(|(i, s)| (i, s.clone()))
            .collect()
    }

    /// Durations in seconds of every closed span named `name`, in the
    /// order they were opened.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.closed()
            .iter()
            .filter(|(_, s)| s.name == name)
            .map(|(_, s)| secs(s))
            .collect()
    }

    /// Self time per layer in seconds: each span's duration minus the
    /// part of its interval that its child spans cover, summed over the
    /// spans of one layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<String, f64> {
        let spans = self.closed();
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for (_, s) in &spans {
            if let Some(p) = s.parent {
                children
                    .entry(p)
                    .or_default()
                    .push((s.start_ns, s.end_ns.expect("closed")));
            }
        }
        let mut out = BTreeMap::new();
        for (id, s) in &spans {
            let (start, end) = (s.start_ns, s.end_ns.expect("closed"));
            let covered = children.get(id).map_or(0, |c| covered_ns(c, start, end));
            let layer = s.name.split('.').next().unwrap_or("").to_owned();
            *out.entry(layer).or_insert(0.0) += (end - start - covered) as f64 / 1e9;
        }
        out
    }

    /// The closed spans as a Chrome trace-event document: one complete
    /// (`X`) event per span on the thread that recorded it, with the
    /// span id and parent id in its arguments.
    pub fn chrome_trace(&self) -> Json {
        let mut events = vec![Json::Obj(vec![
            ("name".to_owned(), Json::Str("process_name".to_owned())),
            ("ph".to_owned(), Json::Str("M".to_owned())),
            ("pid".to_owned(), Json::Uint(1)),
            (
                "args".to_owned(),
                Json::Obj(vec![(
                    "name".to_owned(),
                    Json::Str("spindle-perfbench".to_owned()),
                )]),
            ),
        ])];
        for (id, s) in self.closed() {
            let layer = s.name.split('.').next().unwrap_or("").to_owned();
            let parent = s.parent.map_or(Json::Null, |p| Json::Uint(p as u64));
            events.push(Json::Obj(vec![
                ("name".to_owned(), Json::Str(s.name.clone())),
                ("cat".to_owned(), Json::Str(layer)),
                ("ph".to_owned(), Json::Str("X".to_owned())),
                ("ts".to_owned(), Json::Num(s.start_ns as f64 / 1e3)),
                ("dur".to_owned(), Json::Num(secs(&s) * 1e6)),
                ("pid".to_owned(), Json::Uint(1)),
                ("tid".to_owned(), Json::Uint(s.tid)),
                (
                    "args".to_owned(),
                    Json::Obj(vec![
                        ("id".to_owned(), Json::Uint(id as u64)),
                        ("parent".to_owned(), parent),
                    ]),
                ),
            ]));
        }
        Json::Obj(vec![
            ("traceEvents".to_owned(), Json::Arr(events)),
            ("displayTimeUnit".to_owned(), Json::Str("ms".to_owned())),
        ])
    }
}

fn secs(s: &Span) -> f64 {
    (s.end_ns.expect("closed") - s.start_ns) as f64 / 1e9
}

/// Length of the union of `intervals` clipped to `[start, end)`.
fn covered_ns(intervals: &[(u64, u64)], start: u64, end: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for (a, b) in clipped {
        let a = a.max(cursor);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Runs `f` inside a span named `name` when `tracer` is present, and
/// plainly otherwise. `f` receives the new span's id as the parent for
/// nested spans.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &str,
    parent: Option<SpanId>,
    f: impl FnOnce(Option<SpanId>) -> T,
) -> T {
    match tracer {
        None => f(None),
        Some(t) => {
            let id = t.open(name, parent);
            let out = f(Some(id));
            t.close(id);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children_is_counted_once() {
        assert_eq!(covered_ns(&[(10, 30), (20, 40), (50, 60)], 0, 100), 40);
        assert_eq!(covered_ns(&[(0, 200)], 50, 100), 50);
        assert_eq!(covered_ns(&[], 0, 100), 0);
    }

    #[test]
    fn self_time_excludes_children_and_trace_validates() {
        let t = Tracer::new();
        span(Some(&t), "bench.outer", None, |p| {
            span(Some(&t), "disk.inner", p, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20));
            });
        });
        let by_layer = t.self_time_by_layer();
        assert!(by_layer["disk"] >= 0.02);
        assert!(by_layer["bench"] < by_layer["disk"]);
        let doc = spindle_obs::json::parse(&t.chrome_trace().to_string()).unwrap();
        spindle_obs::trace_event::check_document(&doc).unwrap();
    }
}
