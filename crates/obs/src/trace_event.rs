//! Chrome trace-event JSON export for the flight recorder.
//!
//! Serializes a [`FlightRecorder`] into the [Trace Event Format] JSON
//! object understood by Perfetto (<https://ui.perfetto.dev>) and
//! `chrome://tracing`:
//!
//! * Simulated-time slices land on synthetic "drive" tracks under
//!   process id [`SIM_PID`] ("simulated time"), with `ts` counted in
//!   simulated microseconds from 0.
//! * Wall-clock slices land on per-thread tracks under process id
//!   [`WALL_PID`] ("wall clock"), with `ts` counted in microseconds
//!   from the recorder's epoch.
//!
//! Intervals use complete events (`ph: "X"`, `ts` + `dur`); point
//! events use instants (`ph: "i"`, thread scope). Track names are
//! published via `process_name` / `thread_name` metadata events, and
//! run-level recorder metadata is exported under `otherData`.
//!
//! **Determinism.** Simulated-time events are a pure function of the
//! workload, but they may be *recorded* in any order when simulators
//! run on a pool. The exporter therefore assigns track ids by sorted
//! track name and sorts events by content, so the sim-time portion of
//! the document is byte-identical for any worker count. Wall-clock
//! events honestly describe the host execution and are excluded when
//! [`TraceEventSink::sim_only`] is used (that is what the determinism
//! test compares).
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::Json;
use crate::recorder::FlightRecorder;
use std::collections::BTreeMap;
use std::io::{self, Write};

/// Process id grouping the simulated-time tracks.
pub const SIM_PID: u64 = 1;
/// Process id grouping the wall-clock thread tracks.
pub const WALL_PID: u64 = 2;

/// Exports a [`FlightRecorder`] as Chrome trace-event JSON.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceEventSink {
    include_wall: bool,
}

impl TraceEventSink {
    /// A sink exporting both timelines (the normal `--trace-out` path).
    #[must_use]
    pub fn full() -> Self {
        TraceEventSink { include_wall: true }
    }

    /// A sink exporting only the deterministic simulated-time tracks
    /// (used by the determinism tests; wall-clock tracks vary run to
    /// run by nature).
    #[must_use]
    pub fn sim_only() -> Self {
        TraceEventSink {
            include_wall: false,
        }
    }

    /// Builds the trace document for `recorder`.
    #[must_use]
    pub fn to_json(&self, recorder: &FlightRecorder) -> Json {
        trace_json(recorder, self.include_wall)
    }

    /// Writes the trace document to `out`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn export(&self, recorder: &FlightRecorder, out: &mut dyn Write) -> io::Result<()> {
        writeln!(out, "{}", self.to_json(recorder))
    }

    /// Convenience wrapper collecting the export into a `String`.
    ///
    /// # Errors
    ///
    /// Propagates formatter errors (none in practice).
    pub fn export_string(&self, recorder: &FlightRecorder) -> io::Result<String> {
        let mut buf = Vec::new();
        self.export(recorder, &mut buf)?;
        Ok(String::from_utf8(buf).expect("exporter emits UTF-8"))
    }
}

/// Microseconds as a JSON number from a nanosecond count. Chrome's
/// `ts`/`dur` unit is microseconds; fractional values keep nanosecond
/// precision.
#[must_use]
pub fn us(ns: u64) -> Json {
    Json::Num(ns as f64 / 1000.0)
}

/// A metadata event (`ph: "M"`) labelling process `pid`, or thread
/// `tid` of it: `name` is `process_name` or `thread_name`.
#[must_use]
pub fn meta_event(name: &str, pid: u64, tid: Option<u64>, label: &str) -> Json {
    let mut members = vec![
        ("name".to_owned(), Json::Str(name.to_owned())),
        ("ph".to_owned(), Json::Str("M".to_owned())),
        ("pid".to_owned(), Json::Uint(pid)),
    ];
    if let Some(tid) = tid {
        members.push(("tid".to_owned(), Json::Uint(tid)));
    }
    members.push((
        "args".to_owned(),
        Json::Obj(vec![("name".to_owned(), Json::Str(label.to_owned()))]),
    ));
    Json::Obj(members)
}

/// A slice on thread `tid` of process `pid`: a complete event
/// (`ph: "X"`) when `dur_ns` is known, a thread-scoped instant
/// (`ph: "i"`) otherwise, with `args` appended when given.
#[must_use]
pub fn slice_event(
    name: &str,
    cat: &str,
    pid: u64,
    tid: u64,
    ts_ns: u64,
    dur_ns: Option<u64>,
    args: Option<Json>,
) -> Json {
    let mut members = vec![
        ("name".to_owned(), Json::Str(name.to_owned())),
        ("cat".to_owned(), Json::Str(cat.to_owned())),
    ];
    match dur_ns {
        Some(dur) => {
            members.push(("ph".to_owned(), Json::Str("X".to_owned())));
            members.push(("ts".to_owned(), us(ts_ns)));
            members.push(("dur".to_owned(), us(dur)));
        }
        None => {
            members.push(("ph".to_owned(), Json::Str("i".to_owned())));
            members.push(("ts".to_owned(), us(ts_ns)));
            members.push(("s".to_owned(), Json::Str("t".to_owned())));
        }
    }
    members.push(("pid".to_owned(), Json::Uint(pid)));
    members.push(("tid".to_owned(), Json::Uint(tid)));
    if let Some(args) = args {
        members.push(("args".to_owned(), args));
    }
    Json::Obj(members)
}

fn args_obj(args: &[(String, Json)]) -> Option<Json> {
    (!args.is_empty()).then(|| Json::Obj(args.to_vec()))
}

/// Builds the trace-event document (exposed for callers that want to
/// post-process rather than serialize).
#[must_use]
pub fn trace_json(recorder: &FlightRecorder, include_wall: bool) -> Json {
    let mut sim = recorder.sim_slices();
    // Content order, independent of recording interleaving: time, then
    // track, then name/duration/args as tie-breaks. Keys are cached —
    // recomputing the args rendering inside the comparator makes the
    // sort allocation-bound on million-event traces.
    sim.sort_by_cached_key(|s| {
        (
            s.begin_ns,
            s.track.clone(),
            s.name.clone(),
            s.dur_ns,
            format!("{:?}", s.args),
        )
    });
    // Track ids are assigned by sorted track name, so they are a
    // function of the track set alone, not of recording order.
    let tracks: std::collections::BTreeSet<&str> = sim.iter().map(|s| s.track.as_str()).collect();
    let sim_tids: BTreeMap<&str, u64> = tracks
        .into_iter()
        .enumerate()
        .map(|(i, k)| (k, i as u64 + 1))
        .collect();

    let mut events = Vec::new();
    events.push(meta_event("process_name", SIM_PID, None, "simulated time"));
    for (track, tid) in &sim_tids {
        events.push(meta_event("thread_name", SIM_PID, Some(*tid), track));
    }
    for s in &sim {
        let (tid, args) = (sim_tids[s.track.as_str()], args_obj(&s.args));
        let event = slice_event(&s.name, "sim", SIM_PID, tid, s.begin_ns, s.dur_ns, args);
        events.push(event);
    }

    if include_wall {
        let mut wall = recorder.wall_slices();
        wall.sort_by(|a, b| {
            (a.begin_ns, &a.thread, &a.name, a.dur_ns)
                .cmp(&(b.begin_ns, &b.thread, &b.name, b.dur_ns))
        });
        let threads: std::collections::BTreeSet<&str> =
            wall.iter().map(|w| w.thread.as_str()).collect();
        let wall_tids: BTreeMap<&str, u64> = threads
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, i as u64 + 1))
            .collect();
        events.push(meta_event("process_name", WALL_PID, None, "wall clock"));
        for (thread, tid) in &wall_tids {
            events.push(meta_event("thread_name", WALL_PID, Some(*tid), thread));
        }
        for w in &wall {
            let (tid, args) = (wall_tids[w.thread.as_str()], args_obj(&w.args));
            let dur = Some(w.dur_ns);
            let event = slice_event(&w.name, "wall", WALL_PID, tid, w.begin_ns, dur, args);
            events.push(event);
        }
    }

    // Key order in metadata follows insertion order, which is a
    // recording-schedule artifact; sort it away.
    let mut meta = recorder.meta();
    meta.sort_by(|a, b| a.0.cmp(&b.0));
    Json::Obj(vec![
        ("traceEvents".to_owned(), Json::Arr(events)),
        ("displayTimeUnit".to_owned(), Json::Str("ms".to_owned())),
        ("otherData".to_owned(), Json::Obj(meta)),
    ])
}

/// Structural validation of a Chrome trace-event document: the checks
/// Perfetto's importer effectively makes, as typed errors instead of a
/// silently empty timeline. Accepts documents from both
/// [`TraceEventSink`] and the serve daemon's cross-process assembly.
///
/// # Errors
///
/// A message naming the first offending event and what is wrong with
/// it: missing `traceEvents`, an event without `ph`/`pid`, a non-meta
/// event without `ts`/`tid`, a complete event without `dur`, a flow
/// event without `id`, or a negative timestamp.
pub fn check_document(doc: &Json) -> Result<(), String> {
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err("document has no `traceEvents` array".to_owned());
    };
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} has no `ph`: {e}"))?;
        if e.get("pid").and_then(Json::as_u64).is_none() {
            return Err(format!("event {i} has no numeric `pid`: {e}"));
        }
        if e.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("event {i} has no `name`: {e}"));
        }
        if ph == "M" {
            continue;
        }
        let ts = e
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i} ({ph}) has no numeric `ts`: {e}"))?;
        if ts < 0.0 {
            return Err(format!("event {i} has negative ts {ts}: {e}"));
        }
        if e.get("tid").and_then(Json::as_u64).is_none() {
            return Err(format!("event {i} ({ph}) has no numeric `tid`: {e}"));
        }
        match ph {
            "X" => {
                let dur = e
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("complete event {i} has no `dur`: {e}"))?;
                if dur < 0.0 {
                    return Err(format!("event {i} has negative dur {dur}: {e}"));
                }
            }
            "i" => {
                if e.get("s").and_then(Json::as_str).is_none() {
                    return Err(format!("instant event {i} has no scope `s`: {e}"));
                }
            }
            "s" | "f" => {
                if e.get("id").and_then(Json::as_u64).is_none() {
                    return Err(format!("flow event {i} has no numeric `id`: {e}"));
                }
            }
            other => {
                return Err(format!("event {i} has unknown phase `{other}`: {e}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::time::{Duration, Instant};

    fn sample() -> FlightRecorder {
        let rec = FlightRecorder::new();
        rec.sim_slice("drive.queue", "read", 1_000, 500, vec![]);
        rec.sim_slice(
            "drive.service",
            "read",
            1_500,
            2_000,
            vec![("lba".to_owned(), Json::Uint(42))],
        );
        rec.sim_instant("drive.events", "cache_miss", 1_500, vec![]);
        rec.wall_slice(
            "cli.simulate",
            Instant::now(),
            Duration::from_micros(120),
            vec![],
        );
        rec.set_meta("run.label", Json::Str("sample".to_owned()));
        rec
    }

    fn events_of(doc: &Json) -> &[Json] {
        match doc.get("traceEvents") {
            Some(Json::Arr(items)) => items,
            other => panic!("traceEvents missing: {other:?}"),
        }
    }

    #[test]
    fn export_parses_and_carries_required_fields() {
        let rec = sample();
        let text = TraceEventSink::full().export_string(&rec).unwrap();
        let doc = json::parse(text.trim()).expect("trace output is valid JSON");
        let events = events_of(&doc);
        assert!(!events.is_empty());
        for e in events {
            assert!(e.get("ph").is_some(), "every event has ph: {e}");
            assert!(e.get("pid").is_some(), "every event has pid: {e}");
            let ph = e.get("ph").and_then(Json::as_str).unwrap();
            if ph != "M" {
                assert!(e.get("ts").is_some(), "non-meta event has ts: {e}");
                assert!(e.get("tid").is_some(), "non-meta event has tid: {e}");
            }
        }
        // Both processes are named.
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .unwrap()
            })
            .collect();
        assert_eq!(names, vec!["simulated time", "wall clock"]);
        assert_eq!(
            doc.get("otherData")
                .and_then(|m| m.get("run.label"))
                .and_then(Json::as_str),
            Some("sample")
        );
    }

    #[test]
    fn sim_only_excludes_wall_tracks() {
        let rec = sample();
        let doc = TraceEventSink::sim_only().to_json(&rec);
        for e in events_of(&doc) {
            assert_eq!(e.get("pid").and_then(Json::as_u64), Some(SIM_PID));
        }
    }

    #[test]
    fn sim_export_is_independent_of_recording_order() {
        let fwd = FlightRecorder::new();
        let rev = FlightRecorder::new();
        let slices: Vec<(u64, &str)> = vec![(10, "a"), (10, "b"), (20, "a"), (5, "c")];
        for &(t, track) in &slices {
            fwd.sim_slice(track, "op", t, 3, vec![]);
        }
        for &(t, track) in slices.iter().rev() {
            rev.sim_slice(track, "op", t, 3, vec![]);
        }
        let sink = TraceEventSink::sim_only();
        assert_eq!(
            sink.export_string(&fwd).unwrap(),
            sink.export_string(&rev).unwrap()
        );
    }

    #[test]
    fn instant_events_use_instant_phase() {
        let rec = FlightRecorder::new();
        rec.sim_instant("drive.events", "idle_begin", 7, vec![]);
        let doc = TraceEventSink::sim_only().to_json(&rec);
        let instant = events_of(&doc)
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("idle_begin"))
            .expect("instant exported")
            .clone();
        assert_eq!(instant.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(instant.get("s").and_then(Json::as_str), Some("t"));
        assert_eq!(instant.get("dur"), None);
    }

    #[test]
    fn timestamps_are_microseconds() {
        let rec = FlightRecorder::new();
        rec.sim_slice("t", "op", 1_500, 250, vec![]);
        let doc = TraceEventSink::sim_only().to_json(&rec);
        let ev = events_of(&doc)
            .iter()
            .find(|e| e.get("cat").is_some())
            .unwrap()
            .clone();
        assert_eq!(ev.get("ts").and_then(Json::as_f64), Some(1.5));
        assert_eq!(ev.get("dur").and_then(Json::as_f64), Some(0.25));
    }

    #[test]
    fn checker_accepts_exports_and_rejects_structural_damage() {
        let doc = TraceEventSink::full().to_json(&sample());
        check_document(&doc).expect("exported documents pass");

        assert!(check_document(&Json::Obj(vec![]))
            .unwrap_err()
            .contains("traceEvents"));
        // A complete event with no duration is the classic way a trace
        // renders empty; the checker names it.
        let bad = Json::Obj(vec![(
            "traceEvents".to_owned(),
            Json::Arr(vec![Json::Obj(vec![
                ("name".to_owned(), Json::Str("x".to_owned())),
                ("ph".to_owned(), Json::Str("X".to_owned())),
                ("pid".to_owned(), Json::Uint(1)),
                ("tid".to_owned(), Json::Uint(1)),
                ("ts".to_owned(), Json::Num(1.0)),
            ])]),
        )]);
        assert!(check_document(&bad).unwrap_err().contains("dur"));
        // Flow events need an id to bind `s` to `f`.
        let flow = Json::Obj(vec![(
            "traceEvents".to_owned(),
            Json::Arr(vec![Json::Obj(vec![
                ("name".to_owned(), Json::Str("link".to_owned())),
                ("ph".to_owned(), Json::Str("s".to_owned())),
                ("pid".to_owned(), Json::Uint(1)),
                ("tid".to_owned(), Json::Uint(1)),
                ("ts".to_owned(), Json::Num(1.0)),
            ])]),
        )]);
        assert!(check_document(&flow).unwrap_err().contains("id"));
    }

    #[test]
    fn hostile_names_and_args_stay_valid_json() {
        // Quotes, backslashes, control characters, and non-ASCII in
        // every string position must survive export → parse.
        let hostile = "he said \"hi\\there\"\n\t\u{0001}π";
        let rec = FlightRecorder::new();
        rec.sim_slice(
            hostile,
            hostile,
            1,
            2,
            vec![(hostile.to_owned(), Json::Str(hostile.to_owned()))],
        );
        rec.set_meta(hostile, Json::Str(hostile.to_owned()));
        let text = TraceEventSink::full().export_string(&rec).unwrap();
        let doc = json::parse(text.trim()).expect("hostile strings escape cleanly");
        let ev = events_of(&doc)
            .iter()
            .find(|e| e.get("cat").is_some())
            .unwrap()
            .clone();
        assert_eq!(ev.get("name").and_then(Json::as_str), Some(hostile));
        assert_eq!(
            ev.get("args")
                .and_then(|a| a.get(hostile))
                .and_then(Json::as_str),
            Some(hostile)
        );
        assert_eq!(
            doc.get("otherData")
                .and_then(|m| m.get(hostile))
                .and_then(Json::as_str),
            Some(hostile)
        );
    }
}
