//! The job service's HTTP front end.
//!
//! Built on the shared [`spindle_pulse::http`] parser (Content-Length
//! body framing, 1 MiB cap, structured 400s on malformed input). A
//! small pool of handler threads blocks in `accept` on one listener
//! (a [`spindle_pulse::http::Acceptor`]), so a submit or a status poll
//! is served the moment it connects; `ServeHandle::stop` wakes the pool
//! with one loopback connect per thread. Submissions and lifecycle
//! queries are cheap; the heavy work happens on the runner threads.
//!
//! Routes:
//!
//! * `POST /jobs` — submit a spec; 201 accepted, 400 structured
//!   validation error, 429 + `Retry-After` when the queue is full.
//! * `GET /jobs` — every job in submit order plus queue counters.
//! * `GET /jobs/ID` — one job's state/progress/ETA.
//! * `GET /jobs/ID/result` — terminal outcome (409 while pending).
//! * `GET /jobs/ID/artifacts/NAME` — one artifact file.
//! * `DELETE /jobs/ID` — cancel (queued → cancelled immediately,
//!   running → cooperative kill, terminal → 409).
//! * `GET /jobs/ID/events` — live Server-Sent Events: the job's
//!   lifecycle, heartbeat and progress events as they happen, ending
//!   with `event: end` once the job is terminal. Runs on a dedicated
//!   thread (bounded count, 503 beyond it) so slow watchers cannot
//!   starve the handler pool; a watcher that falls behind the bounded
//!   ring gets `event: dropped` with the exact count of what it missed.
//! * `GET /jobs/ID/timescales` — the job's telemetry stream: frame,
//!   byte and decode-error counts and whether it tore. The path is
//!   kept because perfbench reads it; the job's own multi-resolution
//!   rollups are its `timescales.json` artifact (a matrix spec with
//!   `"timescales": true`).
//! * `GET /jobs/ID/trace` — the job's causal trace as a self-contained
//!   Chrome trace-event document on the wall clock: daemon lifecycle
//!   spans and the child's offset-aligned wall spans, with flow arrows
//!   parenting each attempt to the child work it spawned. The run's
//!   sim-time tracks live in the `trace.json` artifact of a spec with
//!   `"trace": true`.
//! * `GET /trace` — the daemon-wide document: every job's spans merged
//!   onto one timeline, tracks prefixed by job id.
//! * `GET /metrics`, `/healthz`, `/status`, `/timescales` — the pulse
//!   endpoint's telemetry routes for the daemon itself, answered by the
//!   same [`telemetry_route`] — plus per-active-job labeled series
//!   appended to `/metrics`.
//!
//! Every request is observed per endpoint: `serve.http.<route>.micros`
//! latency histograms plus request and status-class counters, with
//! route cardinality bounded to the known route set (anything else is
//! `other`).

use crate::job::{CancelVerdict, JobState};
use crate::{Admission, Shared};
use spindle_obs::json::Json;
use spindle_pulse::http::{
    read_request, respond, respond_with_headers, Acceptor, HttpError, Request,
};
use spindle_pulse::server::telemetry_route;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Handler threads sharing the listener.
const HANDLER_THREADS: usize = 4;

/// Per-connection socket timeout.
const CLIENT_TIMEOUT: Duration = Duration::from_millis(2000);

/// Event-ring poll cadence for `GET /jobs/ID/events`.
const EVENTS_POLL: Duration = Duration::from_millis(100);

/// Write timeout on an event stream: a dead or wedged watcher is cut
/// off rather than pinning its thread.
const EVENTS_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Concurrent event streams; beyond this, `/jobs/ID/events` gets 503.
const MAX_EVENT_STREAMS: usize = 8;

/// `Retry-After` advertised on an event-stream 503: streams churn
/// fast, so a short pause usually frees a slot.
const EVENTS_RETRY_AFTER_SECS: u64 = 2;

const JSON_TYPE: &str = "application/json; charset=utf-8";
const TEXT_TYPE: &str = "text/plain; charset=utf-8";

/// Binds `addr` and spawns the handler pool.
pub(crate) fn start(addr: &str, shared: &Arc<Shared>) -> io::Result<Acceptor> {
    let shared = Arc::clone(shared);
    Acceptor::start(addr, HANDLER_THREADS, "serve-http", move |stream| {
        // One request per connection; a broken client never takes the
        // handler down.
        let _ = handle(stream, &shared);
    })
}

/// Responders hand their status line back so the caller can feed the
/// per-endpoint observability without every handler threading it.
fn json_response(
    stream: &mut TcpStream,
    status: &'static str,
    doc: &Json,
) -> io::Result<&'static str> {
    respond(stream, status, JSON_TYPE, &format!("{doc}\n")).map(|()| status)
}

fn error_response(
    stream: &mut TcpStream,
    status: &'static str,
    message: &str,
) -> io::Result<&'static str> {
    let doc = Json::Obj(vec![("error".to_owned(), Json::Str(message.to_owned()))]);
    json_response(stream, status, &doc)
}

/// Maps a request onto the bounded route vocabulary the per-endpoint
/// metrics use. Unknown paths and methods all collapse into `other`,
/// so hostile traffic cannot inflate metric cardinality.
fn classify(method: &str, path: &str) -> &'static str {
    match (method, path) {
        ("POST", "/jobs") => "submit",
        ("GET", "/jobs") => "jobs",
        ("GET", "/healthz") => "healthz",
        ("GET", "/metrics") => "metrics",
        ("GET", "/status") => "status",
        ("GET", "/timescales") => "timescales",
        ("GET", "/trace") => "trace",
        _ => {
            if let Some(rest) = path.strip_prefix("/jobs/") {
                let tail = rest.split_once('/').map(|(_, t)| t);
                return match (method, tail) {
                    ("GET", None) => "job",
                    ("DELETE", None) => "cancel",
                    ("GET", Some("result")) => "result",
                    ("GET", Some("events")) => "events",
                    ("GET", Some("timescales")) => "job_timescales",
                    ("GET", Some("trace")) => "job_trace",
                    ("GET", Some(t)) if t.starts_with("artifacts/") => "artifact",
                    _ => "other",
                };
            }
            "other"
        }
    }
}

/// Records one handled request: latency histogram plus request and
/// status-class counters, all keyed by the bounded route label.
fn observe_http(shared: &Shared, route: &'static str, started: Instant, status: &str) {
    let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    shared
        .registry
        .histogram(&format!("serve.http.{route}.micros"))
        .record(micros);
    shared
        .registry
        .counter(&format!("serve.http.{route}.requests"))
        .inc();
    let class = match status.as_bytes().first() {
        Some(b'2') => "2xx",
        Some(b'3') => "3xx",
        Some(b'4') => "4xx",
        _ => "5xx",
    };
    shared
        .registry
        .counter(&format!("serve.http.{route}.{class}"))
        .inc();
}

fn handle(mut stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    let started = Instant::now();
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(HttpError::Io(e)) => return Err(e),
        Err(HttpError::BodyTooLarge(n)) => {
            let status = error_response(
                &mut stream,
                "413 Payload Too Large",
                &format!("request body of {n} bytes exceeds the 1 MiB limit"),
            )?;
            observe_http(shared, "other", started, status);
            return Ok(());
        }
        Err(e) => {
            let status = error_response(&mut stream, "400 Bad Request", &format!("{e}"))?;
            observe_http(shared, "other", started, status);
            return Ok(());
        }
    };
    let label = classify(&request.method, &request.path);
    // Event streams live as long as the job runs; they move off the
    // small handler pool onto dedicated (bounded) threads.
    if request.method == "GET" {
        if let Some(id) = request
            .path
            .strip_prefix("/jobs/")
            .and_then(|rest| rest.strip_suffix("/events"))
        {
            if !id.is_empty() && !id.contains('/') {
                let status = events(stream, shared, id)?;
                observe_http(shared, label, started, status);
                return Ok(());
            }
        }
    }
    let status = route(&mut stream, shared, &request)?;
    observe_http(shared, label, started, status);
    Ok(())
}

fn route(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    request: &Request,
) -> io::Result<&'static str> {
    let path = request.path.as_str();
    let method = request.method.as_str();
    if method == "GET" {
        if let Some((content_type, mut body)) =
            telemetry_route(path, shared.registry, &shared.status, &shared.sampler)
        {
            if path == "/metrics" {
                body.push_str(&job_series(shared));
            }
            return respond(stream, "200 OK", content_type, &body).map(|()| "200 OK");
        }
    }
    match (method, path) {
        ("POST", "/jobs") => return submit(stream, shared, request),
        ("GET", "/jobs") => return list_jobs(stream, shared),
        ("GET", "/trace") => return daemon_trace(stream, shared),
        _ => {}
    }
    // /jobs/ID[/result | /artifacts/NAME]
    if let Some(rest) = path.strip_prefix("/jobs/") {
        let (id, tail) = match rest.split_once('/') {
            Some((id, tail)) => (id, Some(tail)),
            None => (rest, None),
        };
        return match (method, tail) {
            ("GET", None) => job_detail(stream, shared, id),
            ("DELETE", None) => cancel(stream, shared, id),
            ("GET", Some("result")) => job_result(stream, shared, id),
            ("GET", Some("timescales")) => job_timescales(stream, shared, id),
            ("GET", Some("trace")) => job_trace(stream, shared, id),
            ("GET", Some(tail)) if tail.strip_prefix("artifacts/").is_some() => {
                let name = tail.strip_prefix("artifacts/").expect("guard");
                artifact(stream, shared, id, name)
            }
            _ => error_response(stream, "405 Method Not Allowed", "method not allowed"),
        };
    }
    if matches!(method, "GET" | "POST" | "DELETE") {
        error_response(stream, "404 Not Found", "not found")
    } else {
        error_response(stream, "405 Method Not Allowed", "method not allowed")
    }
}

fn submit(stream: &mut TcpStream, shared: &Shared, request: &Request) -> io::Result<&'static str> {
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return error_response(stream, "400 Bad Request", "job spec must be UTF-8 JSON");
    };
    let spec = match crate::spec::JobSpec::parse(body).and_then(|spec| {
        shared.check_runnable(&spec)?;
        Ok(spec)
    }) {
        Ok(spec) => spec,
        Err(e) => return json_response(stream, "400 Bad Request", &e.to_json()),
    };
    match shared.admit(spec) {
        Ok(Admission::Accepted(id)) => {
            let doc = Json::Obj(vec![
                ("id".to_owned(), Json::Str(id)),
                ("state".to_owned(), Json::Str("queued".to_owned())),
            ]);
            json_response(stream, "201 Created", &doc)
        }
        Ok(Admission::Full {
            retry_after_secs,
            queued,
        }) => {
            let doc = Json::Obj(vec![
                ("error".to_owned(), Json::Str("queue full".to_owned())),
                ("queued".to_owned(), Json::Uint(queued as u64)),
                (
                    "bound".to_owned(),
                    Json::Uint(shared.admission_bound as u64),
                ),
                ("retry_after_secs".to_owned(), Json::Uint(retry_after_secs)),
            ]);
            respond_with_headers(
                stream,
                "429 Too Many Requests",
                JSON_TYPE,
                &[("Retry-After", &retry_after_secs.to_string())],
                &format!("{doc}\n"),
            )
            .map(|()| "429 Too Many Requests")
        }
        Ok(Admission::Draining { retry_after_secs }) => {
            let doc = Json::Obj(vec![
                (
                    "error".to_owned(),
                    Json::Str("server is draining".to_owned()),
                ),
                ("retry_after_secs".to_owned(), Json::Uint(retry_after_secs)),
            ]);
            respond_with_headers(
                stream,
                "503 Service Unavailable",
                JSON_TYPE,
                &[("Retry-After", &retry_after_secs.to_string())],
                &format!("{doc}\n"),
            )
            .map(|()| "503 Service Unavailable")
        }
        Ok(Admission::Poisoned {
            reason,
            retry_after_secs,
        }) => {
            let doc = Json::Obj(vec![
                (
                    "error".to_owned(),
                    Json::Str("spec quarantined by the poison breaker".to_owned()),
                ),
                ("reason".to_owned(), Json::Str(reason)),
                ("retry_after_secs".to_owned(), Json::Uint(retry_after_secs)),
            ]);
            respond_with_headers(
                stream,
                "409 Conflict",
                JSON_TYPE,
                &[("Retry-After", &retry_after_secs.to_string())],
                &format!("{doc}\n"),
            )
            .map(|()| "409 Conflict")
        }
        Err(e) => error_response(stream, "503 Service Unavailable", &e),
    }
}

fn list_jobs(stream: &mut TcpStream, shared: &Shared) -> io::Result<&'static str> {
    let jobs = shared.table.snapshot();
    let (queued, running) = shared.table.active_counts();
    let doc = Json::Obj(vec![
        (
            "jobs".to_owned(),
            Json::Arr(
                jobs.iter()
                    .map(|j| j.to_json(shared.job_eta_secs(j)))
                    .collect(),
            ),
        ),
        ("queued".to_owned(), Json::Uint(queued as u64)),
        ("running".to_owned(), Json::Uint(running as u64)),
        (
            "bound".to_owned(),
            Json::Uint(shared.admission_bound as u64),
        ),
    ]);
    json_response(stream, "200 OK", &doc)
}

fn job_detail(stream: &mut TcpStream, shared: &Shared, id: &str) -> io::Result<&'static str> {
    let Some(job) = shared.table.get(id) else {
        return error_response(stream, "404 Not Found", &format!("no such job `{id}`"));
    };
    let mut doc = job.to_json(shared.job_eta_secs(&job));
    if let Json::Obj(members) = &mut doc {
        members.push(("artifacts".to_owned(), artifact_names(shared, id)));
        members.push(("spec".to_owned(), job.spec.to_json()));
    }
    json_response(stream, "200 OK", &doc)
}

fn artifact_names(shared: &Shared, id: &str) -> Json {
    let mut names: Vec<String> = std::fs::read_dir(shared.job_dir(id))
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.file_name().into_string().ok())
                .filter(|n| n != "stdout.partial")
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    Json::Arr(names.into_iter().map(Json::Str).collect())
}

fn job_result(stream: &mut TcpStream, shared: &Shared, id: &str) -> io::Result<&'static str> {
    let Some(job) = shared.table.get(id) else {
        return error_response(stream, "404 Not Found", &format!("no such job `{id}`"));
    };
    if !job.state.is_terminal() {
        return error_response(
            stream,
            "409 Conflict",
            &format!("job `{id}` is still {}", job.state.as_str()),
        );
    }
    let mut doc = job.to_json(None);
    if let Json::Obj(members) = &mut doc {
        members.push(("artifacts".to_owned(), artifact_names(shared, id)));
    }
    json_response(stream, "200 OK", &doc)
}

fn artifact(
    stream: &mut TcpStream,
    shared: &Shared,
    id: &str,
    name: &str,
) -> io::Result<&'static str> {
    if shared.table.get(id).is_none() {
        return error_response(stream, "404 Not Found", &format!("no such job `{id}`"));
    }
    // Artifact names are flat files inside the job dir; anything that
    // could traverse out is refused outright.
    let safe = !name.is_empty()
        && name != "."
        && name != ".."
        && !name.contains(['/', '\\'])
        && !name.contains('\0');
    if !safe {
        return error_response(stream, "400 Bad Request", "invalid artifact name");
    }
    let path = shared.job_dir(id).join(name);
    let Ok(bytes) = std::fs::read(&path) else {
        return error_response(
            stream,
            "404 Not Found",
            &format!("job `{id}` has no artifact `{name}`"),
        );
    };
    let content_type = if name.ends_with(".json") {
        JSON_TYPE
    } else if name.ends_with(".html") {
        "text/html; charset=utf-8"
    } else if name.ends_with(".bin") {
        "application/octet-stream"
    } else {
        TEXT_TYPE
    };
    // Artifacts can be binary (trace .bin); bypass the string-typed
    // responder.
    use std::io::Write;
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        bytes.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&bytes)?;
    stream.flush().map(|()| "200 OK")
}

fn cancel(stream: &mut TcpStream, shared: &Shared, id: &str) -> io::Result<&'static str> {
    if shared.table.get(id).is_none() {
        return error_response(stream, "404 Not Found", &format!("no such job `{id}`"));
    }
    // Queued and still in the run queue: remove it (so no runner can
    // claim it from here on) and finish immediately.
    if shared.queue.remove(id) {
        shared.finish_job(id, JobState::Cancelled, None, 0.0, None);
        let doc = Json::Obj(vec![
            ("id".to_owned(), Json::Str(id.to_owned())),
            ("state".to_owned(), Json::Str("cancelled".to_owned())),
        ]);
        return json_response(stream, "200 OK", &doc);
    }
    // Claimed by a runner, parked for a retry, or racing completion:
    // the table decides under its own lock, so a cancel can never be
    // requested after the job went terminal (the DELETE/completion
    // race resolves to exactly one of 202 or 409).
    match shared.table.request_cancel(id) {
        CancelVerdict::NotFound => {
            error_response(stream, "404 Not Found", &format!("no such job `{id}`"))
        }
        CancelVerdict::Terminal(state) => error_response(
            stream,
            "409 Conflict",
            &format!("job `{id}` already {}", state.as_str()),
        ),
        CancelVerdict::Requested => {
            let doc = Json::Obj(vec![
                ("id".to_owned(), Json::Str(id.to_owned())),
                ("state".to_owned(), Json::Str("cancelling".to_owned())),
            ]);
            json_response(stream, "202 Accepted", &doc)
        }
    }
}

/// Per-job labeled series, *active jobs only*: cardinality is bounded
/// by queue bound plus parallelism, and a job's series vanish from the
/// exposition on the first scrape after it goes terminal.
fn job_series(shared: &Shared) -> String {
    use spindle_obs::prom::label_value;
    use std::fmt::Write as _;
    let jobs = shared.table.snapshot();
    let active: Vec<_> = jobs.iter().filter(|j| !j.state.is_terminal()).collect();
    if active.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    out.push_str("# TYPE serve_job_state gauge\n");
    for j in &active {
        let _ = writeln!(
            out,
            "serve_job_state{{job=\"{}\",state=\"{}\"}} 1",
            label_value(&j.id),
            j.state.as_str()
        );
    }
    let tels: Vec<_> = active
        .iter()
        .map(|j| (label_value(&j.id), shared.telemetry.get(&j.id)))
        .collect();
    out.push_str("# TYPE serve_job_progress gauge\n");
    for (id, tel) in &tels {
        let completed = tel.as_ref().map_or(0, |t| t.progress().1);
        let _ = writeln!(out, "serve_job_progress{{job=\"{id}\"}} {completed}");
    }
    out.push_str("# TYPE serve_job_progress_total gauge\n");
    for (id, tel) in &tels {
        let total = tel.as_ref().map_or(0, |t| t.progress().2);
        let _ = writeln!(out, "serve_job_progress_total{{job=\"{id}\"}} {total}");
    }
    out.push_str("# TYPE serve_job_telemetry_frames gauge\n");
    for (id, tel) in &tels {
        let frames = tel.as_ref().map_or(0, |t| t.frames.load(Ordering::Relaxed));
        let _ = writeln!(out, "serve_job_telemetry_frames{{job=\"{id}\"}} {frames}");
    }
    out
}

/// The retained span set of one job, packaged for trace assembly.
fn collect_spans(id: &str, tel: &crate::telemetry::JobTelemetry) -> crate::trace::JobSpans {
    let (spans, dropped) = tel.trace_spans();
    crate::trace::JobSpans {
        id: id.to_owned(),
        spans,
        offset_ns: tel.child_offset_ns(),
        dropped,
    }
}

/// `GET /jobs/ID/trace`: the job's causal trace as a self-contained
/// Chrome trace-event document, loadable in Perfetto as-is.
fn job_trace(stream: &mut TcpStream, shared: &Shared, id: &str) -> io::Result<&'static str> {
    if shared.table.get(id).is_none() {
        return error_response(stream, "404 Not Found", &format!("no such job `{id}`"));
    }
    let doc = crate::trace::job_trace_doc(&collect_spans(id, &shared.job_telemetry(id)));
    json_response(stream, "200 OK", &doc)
}

/// `GET /trace`: every job's spans merged onto the daemon timeline,
/// each job shifted by its telemetry epoch's distance from the
/// daemon's epoch, tracks prefixed with the job id.
fn daemon_trace(stream: &mut TcpStream, shared: &Shared) -> io::Result<&'static str> {
    let mut jobs = Vec::new();
    for job in shared.table.snapshot() {
        let Some(tel) = shared.telemetry.get(&job.id) else {
            continue;
        };
        let collected = collect_spans(&job.id, &tel);
        if collected.spans.is_empty() && collected.dropped == 0 {
            continue;
        }
        let shift_ns = tel
            .epoch()
            .checked_duration_since(shared.epoch)
            .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        jobs.push((collected, shift_ns));
    }
    let doc = crate::trace::daemon_trace_doc(&jobs);
    json_response(stream, "200 OK", &doc)
}

/// `GET /jobs/ID/timescales`: the job's telemetry stream counters.
fn job_timescales(stream: &mut TcpStream, shared: &Shared, id: &str) -> io::Result<&'static str> {
    let Some(job) = shared.table.get(id) else {
        return error_response(stream, "404 Not Found", &format!("no such job `{id}`"));
    };
    let tel = shared.job_telemetry(id);
    let doc = Json::Obj(vec![
        ("id".to_owned(), Json::Str(id.to_owned())),
        ("state".to_owned(), Json::Str(job.state.as_str().to_owned())),
        (
            "frames".to_owned(),
            Json::Uint(tel.frames.load(Ordering::Relaxed)),
        ),
        (
            "bytes".to_owned(),
            Json::Uint(tel.bytes.load(Ordering::Relaxed)),
        ),
        (
            "decode_errors".to_owned(),
            Json::Uint(tel.decode_errors.load(Ordering::Relaxed)),
        ),
        (
            "torn".to_owned(),
            Json::Bool(tel.torn.load(Ordering::Relaxed)),
        ),
    ]);
    json_response(stream, "200 OK", &doc)
}

/// `GET /jobs/ID/events`: takes the connection onto a dedicated
/// thread and streams Server-Sent Events until the job is terminal
/// (or the daemon stops, or the watcher goes away).
fn events(mut stream: TcpStream, shared: &Arc<Shared>, id: &str) -> io::Result<&'static str> {
    if shared.table.get(id).is_none() {
        return error_response(&mut stream, "404 Not Found", &format!("no such job `{id}`"));
    }
    if shared.event_streams.fetch_add(1, Ordering::AcqRel) >= MAX_EVENT_STREAMS {
        shared.event_streams.fetch_sub(1, Ordering::AcqRel);
        shared.registry.counter("serve.events.rejected").inc();
        let doc = Json::Obj(vec![(
            "error".to_owned(),
            Json::Str("too many concurrent event streams".to_owned()),
        )]);
        return respond_with_headers(
            &mut stream,
            "503 Service Unavailable",
            JSON_TYPE,
            &[("Retry-After", &EVENTS_RETRY_AFTER_SECS.to_string())],
            &format!("{doc}\n"),
        )
        .map(|()| "503 Service Unavailable");
    }
    let shared = Arc::clone(shared);
    let id = id.to_owned();
    let spawned = std::thread::Builder::new()
        .name("serve-events".to_owned())
        .spawn({
            let shared = Arc::clone(&shared);
            move || {
                let _ = stream_events(&mut stream, &shared, &id);
                shared.event_streams.fetch_sub(1, Ordering::AcqRel);
            }
        });
    if let Err(e) = spawned {
        shared.event_streams.fetch_sub(1, Ordering::AcqRel);
        return Err(e);
    }
    Ok("200 OK")
}

fn stream_events(stream: &mut TcpStream, shared: &Shared, id: &str) -> io::Result<()> {
    use std::io::Write;
    stream.set_write_timeout(Some(EVENTS_WRITE_TIMEOUT))?;
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
          Cache-Control: no-cache\r\nConnection: close\r\n\r\n",
    )?;
    let tel = shared.job_telemetry(id);
    let mut cursor = 0u64;
    loop {
        let (dropped, batch, next) = tel.events_since(cursor);
        cursor = next;
        if dropped > 0 {
            // Exact loss accounting, in-band: for any watcher,
            // received + dropped == events produced.
            shared.registry.counter("serve.events.dropped").add(dropped);
            stream.write_all(
                format!("event: dropped\ndata: {{\"dropped\":{dropped}}}\n\n").as_bytes(),
            )?;
        }
        for (seq, event) in &batch {
            stream.write_all(format!("id: {seq}\ndata: {event}\n\n").as_bytes())?;
        }
        stream.flush()?;
        if batch.is_empty() {
            // The terminal `end` event is pushed before the table
            // flips terminal, so "terminal and fully drained" means
            // the watcher has seen it.
            let terminal = shared.table.get(id).is_none_or(|j| j.state.is_terminal());
            if terminal {
                stream.write_all(b"event: end\ndata: {}\n\n")?;
                return stream.flush();
            }
            if shared.stop.load(Ordering::Acquire) {
                return Ok(());
            }
            std::thread::sleep(EVENTS_POLL);
        }
    }
}
