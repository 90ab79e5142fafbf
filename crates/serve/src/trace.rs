//! Causal trace assembly: one Chrome trace-event document per job,
//! from HTTP accept to sim slice.
//!
//! The daemon records its own lifecycle spans (admission, queue wait,
//! spawn, each supervision attempt, retry backoff, finalization) into
//! the per-job telemetry record, and children ship their
//! flight-recorder wall spans upstream over the frame protocol, one
//! span frame each. Both kinds are one record type,
//! [`spindle_obs::frame::TraceSpan`], with one JSON form: the body of a
//! span frame and a line of `spans.jsonl` alike. This module turns the
//! combined span set into a self-contained Chrome trace-event JSON
//! document of the job's wall-clock story:
//!
//! * pid 1 — the daemon timeline: lifecycle spans, on the daemon's
//!   monotonic clock (per-job telemetry epoch).
//! * pid 2 — the child's wall timeline, shifted onto the daemon clock
//!   by the Hello-derived offset (`daemon elapsed at Hello decode −
//!   child span-clock elapsed at Hello encode`), so queue wait,
//!   spawn, and the child's own phases line up on one axis.
//!
//! The run's sim-time tracks are not part of it: their one home is
//! the `trace.json` a job spec with `"trace": true` writes.
//!
//! Flow events (`ph:"s"` → `ph:"f"`, id = the attempt's [`mint`]ed
//! root span id) parent each daemon attempt span to the first child
//! wall span it spawned, so Perfetto draws the causal arrow across
//! the process boundary.
//!
//! The same span set is persisted as `spans.jsonl` in the job's
//! artifact directory at finalization, and `spindle trace assemble
//! --dir JOBDIR` rebuilds the identical document offline after the
//! daemon is gone.

use spindle_obs::frame::{SpanOrigin, TraceSpan};
use spindle_obs::hash::fnv1a64;
use spindle_obs::json::{parse, Json};
use spindle_obs::jsonl;
use spindle_obs::trace_event::{meta_event, slice_event, us};
use std::collections::BTreeMap;
use std::path::Path;

/// File name of the persisted span journal inside a job's artifact
/// directory.
pub const SPANS_FILE: &str = "spans.jsonl";

/// Schema tag on the span file's header line. Version 2 files hold
/// daemon and child wall spans only.
pub const SPANS_SCHEMA: &str = "spindle-serve-spans/v2";

/// Trace-event pid for the daemon lifecycle timeline.
const DAEMON_PID: u64 = 1;
/// Trace-event pid for child wall tracks (offset-aligned).
const CHILD_WALL_PID: u64 = 2;

/// Deterministic ids for `job_id`, attempt `attempt`: the trace id
/// (one per job) and the attempt's root-span id, which names the flow
/// arrow from the daemon's attempt span to the child's work. Same
/// inputs, same ids, so a resumed daemon and offline assembly re-derive
/// them without extra state.
fn mint(job_id: &str, attempt: u32) -> (u64, u64) {
    (
        fnv1a64(job_id.as_bytes()),
        fnv1a64(format!("{job_id}#{attempt}").as_bytes()),
    )
}

/// One job's full span set, ready for assembly or persistence.
#[derive(Debug, Clone)]
pub struct JobSpans {
    /// The job id the spans belong to.
    pub id: String,
    /// Every retained span, recording order.
    pub spans: Vec<TraceSpan>,
    /// Hello-derived clock offset for child wall spans, once a child
    /// said hello.
    pub offset_ns: Option<i64>,
    /// Exact count of spans shed by the bounded buffers (child-side
    /// and daemon-side combined).
    pub dropped: u64,
}

/// Persists a span set as `spans.jsonl`: a schema header line, then
/// one JSON line per span.
///
/// # Errors
///
/// Propagates write failures as a message.
pub fn write_spans(path: &Path, job: &JobSpans) -> Result<(), String> {
    let mut out = String::new();
    let mut header = vec![
        ("schema".to_owned(), Json::Str(SPANS_SCHEMA.to_owned())),
        ("id".to_owned(), Json::Str(job.id.clone())),
        ("dropped".to_owned(), Json::Uint(job.dropped)),
    ];
    if let Some(offset) = job.offset_ns {
        header.push(("offset_ns".to_owned(), Json::Int(offset)));
    }
    out.push_str(&Json::Obj(header).to_string());
    out.push('\n');
    for span in &job.spans {
        out.push_str(&span.to_json().to_string());
        out.push('\n');
    }
    std::fs::write(path, out)
        .map_err(|e| format!("cannot write span file `{}`: {e}", path.display()))
}

/// Loads a persisted span set under the [`spindle_obs::jsonl`] damage
/// policy: a torn final line (the daemon can die mid-write) is dropped,
/// damage before a good span is an error.
///
/// # Errors
///
/// Fails on unreadable files, missing or foreign headers, and damage
/// before the final line.
pub fn load_spans(path: &Path) -> Result<JobSpans, String> {
    let log = jsonl::read(path, "span file", SPANS_SCHEMA, TraceSpan::from_json)?;
    let id = log
        .header
        .get("id")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_owned();
    Ok(JobSpans {
        id,
        spans: log.records.into_iter().map(|(_, span)| span).collect(),
        offset_ns: log.header.get("offset_ns").and_then(Json::as_i64),
        dropped: log
            .header
            .get("dropped")
            .and_then(Json::as_u64)
            .unwrap_or(0),
    })
}

/// Rebuilds a job's trace document offline from its artifact
/// directory (`spans.jsonl`), after the daemon is gone. When the
/// parent directory holds the serve journal, attempt history from it
/// is attached as document metadata.
///
/// # Errors
///
/// Fails when the span file is missing or damaged.
pub fn assemble_dir(dir: &Path) -> Result<Json, String> {
    let job = load_spans(&dir.join(SPANS_FILE))?;
    let mut doc = job_trace_doc(&job);
    let journal = dir
        .parent()
        .map(|parent| parent.join(crate::journal::JOURNAL_FILE))
        .filter(|path| path.is_file())
        .and_then(|path| crate::journal::load(&path).ok());
    let loaded = journal.iter().flatten().find(|j| j.id == job.id);
    if let (Some(loaded), Json::Obj(members)) = (loaded, &mut doc) {
        let finished = loaded.finished.as_ref();
        let state = finished.map_or(Json::Null, |f| Json::Str(f.state.as_str().to_owned()));
        members.push((
            "journal".to_owned(),
            Json::Obj(vec![
                (
                    "attempts".to_owned(),
                    Json::Uint(u64::from(loaded.attempts)),
                ),
                ("finished".to_owned(), state),
            ]),
        ));
    }
    Ok(doc)
}

/// Shifts a child-epoch-relative time onto the daemon timeline,
/// clamping at zero (a hostile or skewed offset must not produce a
/// negative timestamp, which Perfetto rejects).
fn align(begin_ns: u64, offset_ns: i64) -> u64 {
    let shifted = i128::from(begin_ns) + i128::from(offset_ns);
    u64::try_from(shifted.max(0)).unwrap_or(u64::MAX)
}

fn flow_event(ph: &str, id: u64, name: &str, pid: u64, tid: u64, ts_ns: u64) -> Json {
    Json::Obj(vec![
        ("name".to_owned(), Json::Str(name.to_owned())),
        ("cat".to_owned(), Json::Str("causal".to_owned())),
        ("ph".to_owned(), Json::Str(ph.to_owned())),
        ("id".to_owned(), Json::Uint(id)),
        ("ts".to_owned(), us(ts_ns)),
        ("pid".to_owned(), Json::Uint(pid)),
        ("tid".to_owned(), Json::Uint(tid)),
        // Flow finish binds to the next slice on the track, not an
        // enclosing one (there may be none at the exact timestamp).
        ("bp".to_owned(), Json::Str("e".to_owned())),
    ])
}

/// One contribution to a merged trace document: a job's spans plus
/// the shift (nanoseconds) placing its telemetry epoch on the shared
/// document timeline. Per-job documents use shift 0.
struct Contribution<'a> {
    job: &'a JobSpans,
    shift_ns: u64,
    /// Prefix for track labels (`""` for single-job documents, the
    /// job id for merged ones).
    prefix: String,
}

/// Builds the trace document for one job (its own timeline origin).
#[must_use]
pub fn job_trace_doc(job: &JobSpans) -> Json {
    assemble(
        &[Contribution {
            job,
            shift_ns: 0,
            prefix: String::new(),
        }],
        Json::Obj(vec![
            ("id".to_owned(), Json::Str(job.id.clone())),
            (
                "trace_id".to_owned(),
                Json::Str(format!("{:016x}", mint(&job.id, 0).0)),
            ),
            ("dropped".to_owned(), Json::Uint(job.dropped)),
            (
                "offset_ns".to_owned(),
                job.offset_ns.map_or(Json::Null, Json::Int),
            ),
        ]),
    )
}

/// Builds the daemon-wide document: every contributed job's spans on
/// one timeline, each shifted by its telemetry epoch's distance from
/// the fleet epoch, tracks prefixed with the job id.
#[must_use]
pub(crate) fn daemon_trace_doc(jobs: &[(JobSpans, u64)]) -> Json {
    let contributions: Vec<Contribution<'_>> = jobs
        .iter()
        .map(|(job, shift_ns)| Contribution {
            job,
            shift_ns: *shift_ns,
            prefix: format!("{}/", job.id),
        })
        .collect();
    let total_dropped: u64 = jobs.iter().map(|(j, _)| j.dropped).sum();
    assemble(
        &contributions,
        Json::Obj(vec![
            ("jobs".to_owned(), Json::Uint(jobs.len() as u64)),
            ("dropped".to_owned(), Json::Uint(total_dropped)),
        ]),
    )
}

fn assemble(contributions: &[Contribution<'_>], metadata: Json) -> Json {
    // Track ids per pid, assigned in first-seen order across the
    // contribution list (deterministic: span recording order is).
    let mut tids: BTreeMap<(u64, String), u64> = BTreeMap::new();
    let mut next_tid: BTreeMap<u64, u64> = BTreeMap::new();
    let mut events = Vec::new();
    events.push(meta_event("process_name", DAEMON_PID, None, "serve daemon"));
    events.push(meta_event(
        "process_name",
        CHILD_WALL_PID,
        None,
        "job child (wall clock)",
    ));
    let mut body = Vec::new();
    for c in contributions {
        let offset = c.job.offset_ns.unwrap_or(0);
        // The flow arrow for each attempt: started on the daemon's
        // attempt span, finished on the first child wall span that
        // follows it.
        let mut attempt_flows: Vec<(u64, u64, u64, u64)> = Vec::new(); // (id, pid, tid, ts)
        let mut attempt_ordinal = 0u32;
        let mut first_child_wall: Option<(u64, u64, u64)> = None; // (pid, tid, ts)
        for span in &c.job.spans {
            let (pid, ts_ns, cat) = match span.origin {
                SpanOrigin::Daemon => (DAEMON_PID, span.begin_ns + c.shift_ns, "daemon"),
                SpanOrigin::ChildWall => (
                    CHILD_WALL_PID,
                    align(span.begin_ns, offset) + c.shift_ns,
                    "wall",
                ),
            };
            let label = format!("{}{}", c.prefix, span.track);
            let tid = *tids.entry((pid, label.clone())).or_insert_with(|| {
                let next = next_tid.entry(pid).or_insert(0);
                *next += 1;
                events.push(meta_event("thread_name", pid, Some(*next), &label));
                *next
            });
            if span.origin == SpanOrigin::Daemon && span.name == "attempt" {
                let (_, root_span) = mint(&c.job.id, attempt_ordinal);
                attempt_flows.push((root_span, pid, tid, ts_ns));
                attempt_ordinal += 1;
            }
            if span.origin == SpanOrigin::ChildWall && first_child_wall.is_none() {
                first_child_wall = Some((pid, tid, ts_ns));
            }
            // Empty or unparsable args (never JSON) are left off.
            let args = parse(&span.args).ok();
            let event = slice_event(&span.name, cat, pid, tid, ts_ns, span.dur_ns, args);
            body.push(event);
        }
        if let Some((cpid, ctid, cts)) = first_child_wall {
            for (id, pid, tid, ts) in attempt_flows {
                body.push(flow_event("s", id, "attempt", pid, tid, ts));
                body.push(flow_event("f", id, "attempt", cpid, ctid, cts.max(ts)));
            }
        }
    }
    events.append(&mut body);
    Json::Obj(vec![
        ("traceEvents".to_owned(), Json::Arr(events)),
        ("displayTimeUnit".to_owned(), Json::Str("ms".to_owned())),
        ("otherData".to_owned(), metadata),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_obs::trace_event::check_document;

    fn sample() -> JobSpans {
        JobSpans {
            id: "job-0001".to_owned(),
            spans: vec![
                TraceSpan {
                    origin: SpanOrigin::Daemon,
                    track: "daemon".to_owned(),
                    name: "queue.wait".to_owned(),
                    begin_ns: 1_000,
                    dur_ns: Some(50_000),
                    args: String::new(),
                },
                TraceSpan {
                    origin: SpanOrigin::Daemon,
                    track: "daemon".to_owned(),
                    name: "attempt".to_owned(),
                    begin_ns: 60_000,
                    dur_ns: Some(2_000_000),
                    args: "{\"attempt\":0}".to_owned(),
                },
                TraceSpan {
                    origin: SpanOrigin::ChildWall,
                    track: "main".to_owned(),
                    name: "cli.simulate".to_owned(),
                    begin_ns: 10_000,
                    dur_ns: Some(1_500_000),
                    args: String::new(),
                },
                TraceSpan {
                    origin: SpanOrigin::ChildWall,
                    track: "worker0".to_owned(),
                    name: "mark".to_owned(),
                    begin_ns: 42,
                    dur_ns: None,
                    args: String::new(),
                },
            ],
            offset_ns: Some(100_000),
            dropped: 3,
        }
    }

    #[test]
    fn job_document_passes_the_structural_checker() {
        let doc = job_trace_doc(&sample());
        check_document(&doc).expect("valid trace document");
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(events)) => events,
            other => panic!("traceEvents: {other:?}"),
        };
        // Child wall span lands at begin + offset.
        let wall = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("cli.simulate"))
            .expect("wall span present");
        assert_eq!(wall.get("ts").and_then(Json::as_f64), Some(110.0), "{wall}");
        // So does a child instant, on its own thread row.
        let mark = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("mark"))
            .expect("child instant present");
        assert_eq!(mark.get("ts").and_then(Json::as_f64), Some(100.042));
        // Two processes: the daemon and the child's wall clock.
        let processes: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(processes, ["serve daemon", "job child (wall clock)"]);
        // The attempt is parented to the child by a flow pair with the
        // minted root-span id.
        let (_, root) = mint("job-0001", 0);
        let flows: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.get("ph").and_then(Json::as_str), Some("s") | Some("f")))
            .collect();
        assert_eq!(flows.len(), 2, "one start + one finish");
        for f in &flows {
            assert_eq!(f.get("id").and_then(Json::as_u64), Some(root));
        }
        assert_eq!(
            doc.get("otherData")
                .and_then(|m| m.get("dropped"))
                .and_then(Json::as_u64),
            Some(3),
            "drop accounting is part of the document"
        );
    }

    #[test]
    fn minting_is_deterministic_and_attempt_scoped() {
        assert_eq!(mint("job-0001", 0), mint("job-0001", 0));
        let (trace_a, root_a) = mint("job-0001", 0);
        let (trace_b, root_b) = mint("job-0001", 1);
        assert_eq!(trace_a, trace_b, "one trace per job");
        assert_ne!(root_a, root_b, "one root span per attempt");
        assert_ne!(
            trace_a,
            mint("job-0002", 0).0,
            "different jobs, different traces"
        );
        assert_eq!(
            (trace_b, root_b),
            (0x1fd5_564f_322c_9b40, 0x8963_b185_cdb3_5898),
            "ids stay bit-identical across releases"
        );
    }

    #[test]
    fn hostile_offset_never_produces_negative_timestamps() {
        let mut job = sample();
        job.offset_ns = Some(i64::MIN);
        let doc = job_trace_doc(&job);
        check_document(&doc).expect("clamped, still valid");
    }

    #[test]
    fn span_files_round_trip_and_rebuild_the_same_document() {
        let dir = std::env::temp_dir().join(format!("serve-trace-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let job_dir = dir.join("job-0001");
        std::fs::create_dir_all(&job_dir).unwrap();
        let job = sample();
        write_spans(&job_dir.join(SPANS_FILE), &job).unwrap();
        let back = load_spans(&job_dir.join(SPANS_FILE)).unwrap();
        assert_eq!(back.id, job.id);
        assert_eq!(back.spans, job.spans);
        assert_eq!(back.offset_ns, job.offset_ns);
        assert_eq!(back.dropped, job.dropped);
        let live = job_trace_doc(&job).to_string();
        let offline = assemble_dir(&job_dir).unwrap().to_string();
        // The offline document may append journal metadata; the trace
        // events themselves are byte-identical.
        assert!(
            offline.starts_with(live.trim_end_matches('}')),
            "offline assembly rebuilds the live document"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merged_document_prefixes_tracks_and_shifts_epochs() {
        let a = sample();
        let mut b = sample();
        b.id = "job-0002".to_owned();
        let doc = daemon_trace_doc(&[(a, 0), (b, 7_000_000)]);
        check_document(&doc).expect("valid merged document");
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(events)) => events,
            other => panic!("traceEvents: {other:?}"),
        };
        let waits: Vec<f64> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("queue.wait"))
            .filter_map(|e| e.get("ts").and_then(Json::as_f64))
            .collect();
        assert_eq!(waits.len(), 2);
        assert!(
            (waits[1] - waits[0] - 7_000.0).abs() < 1e-6,
            "second job shifted by its epoch distance: {waits:?}"
        );
        assert!(
            events.iter().any(|e| {
                e.get("ph").and_then(Json::as_str) == Some("M")
                    && e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        == Some("job-0002/daemon")
            }),
            "merged tracks carry the job prefix"
        );
    }

    #[test]
    fn torn_span_file_tail_is_tolerated() {
        let dir = std::env::temp_dir().join(format!("serve-trace-torn-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SPANS_FILE);
        let job = sample();
        write_spans(&path, &job).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"origin\":\"daemon\",\"track\":\"daemo");
        std::fs::write(&path, &text).unwrap();
        let back = load_spans(&path).unwrap();
        assert_eq!(back.spans.len(), job.spans.len(), "torn tail dropped");
        // A foreign header is a structured refusal, and so is a file of
        // the previous schema version, whose spans may carry sim time.
        std::fs::write(&path, "{\"schema\":\"other/v9\"}\n").unwrap();
        assert!(load_spans(&path).unwrap_err().contains("schema"));
        std::fs::write(&path, "{\"schema\":\"spindle-serve-spans/v1\"}\n").unwrap();
        assert!(load_spans(&path).unwrap_err().contains("schema"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn span_file_damaged_mid_file_is_refused() {
        let dir = std::env::temp_dir().join(format!("serve-trace-mid-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SPANS_FILE);
        write_spans(&path, &sample()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[2] = "{\"origin\":\"daemon\",\"track\":\"daemo";
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let err = load_spans(&path).unwrap_err();
        assert!(err.contains("line 3 is damaged"), "{err}");
        assert!(
            assemble_dir(&dir).is_err(),
            "assembly refuses a damaged span file"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
