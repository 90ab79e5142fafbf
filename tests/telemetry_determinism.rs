//! Telemetry must be an observer, never a participant: running the
//! `experiments` binary with `--serve`/`--live` enabled — which now
//! includes the multi-resolution rollup wheel and the per-request
//! latency attribution with its exemplars — or streaming to a frame
//! sink has to produce byte-identical stdout and byte-identical
//! simulated-time trace tracks at every `--jobs` value. Wall-clock
//! tracks honestly differ run to run and are excluded from the
//! comparison. What crosses the frame sink is the run's wall spans
//! only: its sim-time tracks live in the `--trace-out` document.
//!
//! The `/timescales` endpoint must also agree with `/metrics`: the
//! exact-merge invariant means every resolution's merged histogram
//! totals equal the registry's final histograms.

use spindle_obs::frame::{Frame, FrameDecoder, SpanOrigin, TraceSpan, SINK_ENV};
use spindle_obs::json::{self, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::Duration;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_experiments")
}

/// A scratch path unique to this test process and tag. It sits in a
/// directory of its own, which goes, with everything the test wrote
/// next to the path, when the handle drops.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        if let Some(dir) = self.0.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl std::ops::Deref for Scratch {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for Scratch {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<std::ffi::OsStr> for Scratch {
    fn as_ref(&self) -> &std::ffi::OsStr {
        self.0.as_os_str()
    }
}

fn scratch(tag: &str) -> Scratch {
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("spindle-teldet-{pid}-{tag}"));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    Scratch(dir.join(tag))
}

/// Runs a quick two-experiment matrix with a trace export; `telemetry`
/// adds `--serve 127.0.0.1:0 --live`, a rollup export and a frame sink
/// on top, and checks that the sink received wall spans only.
fn run(jobs: &str, trace: &std::path::Path, telemetry: bool) -> Output {
    let mut cmd = Command::new(bin());
    cmd.args(["--quick", "--jobs", jobs, "--trace-out"])
        .arg(trace)
        .args(["t2", "f5"])
        .env_remove("SPINDLE_FAULTS")
        .env_remove(SINK_ENV)
        .env("SPINDLE_SERVE_LINGER_MS", "0");
    let sink = telemetry.then(|| {
        cmd.args(["--serve", "127.0.0.1:0", "--live", "--timescales-out"])
            .arg(trace.with_extension("timescales.json"));
        // Streaming to a daemon is an observer too: the sink must not
        // move a single output byte either.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind sink");
        cmd.env(
            SINK_ENV,
            listener.local_addr().expect("sink addr").to_string(),
        );
        drain_sink(listener)
    });
    let out = cmd.output().expect("run experiments binary");
    assert!(
        out.status.success(),
        "experiments --jobs {jobs} (telemetry: {telemetry}) failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    if let Some(sink) = sink {
        shipped_wall_spans(&sink.join().expect("sink thread"));
    }
    out
}

/// Serialized simulated-time events of one trace export.
fn sim_events(trace: &std::path::Path) -> String {
    let text = std::fs::read_to_string(trace).expect("read trace export");
    let doc = json::parse(text.trim()).expect("trace is valid JSON");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents missing");
    };
    events
        .iter()
        .filter(|e| e.get("pid").and_then(Json::as_u64) == Some(spindle_obs::trace_event::SIM_PID))
        .map(Json::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn serve_and_live_change_no_bytes_at_any_jobs_count() {
    let base_trace = scratch("base.json");
    let baseline = run("1", &base_trace, false);
    let expected_stdout = baseline.stdout;
    let expected_sim = sim_events(&base_trace);
    assert!(!expected_stdout.is_empty());
    assert!(!expected_sim.is_empty());

    for jobs in ["1", "2", "8"] {
        let trace = scratch(&format!("telemetry-{jobs}.json"));
        let out = run(jobs, &trace, true);
        assert_eq!(
            out.stdout, expected_stdout,
            "stdout differs with telemetry on at --jobs {jobs}"
        );
        assert_eq!(
            sim_events(&trace),
            expected_sim,
            "sim-time tracks differ with telemetry on at --jobs {jobs}"
        );
        // The telemetry side channel stayed on stderr.
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("# serving telemetry on http://127.0.0.1:"));
        // The rollup export is a valid multi-resolution document.
        let ts = std::fs::read_to_string(trace.with_extension("timescales.json"))
            .expect("timescales export written");
        let doc = json::parse(ts.trim()).expect("timescales export parses");
        let Some(Json::Arr(resolutions)) = doc.get("resolutions") else {
            panic!("timescales export lacks resolutions:\n{ts}");
        };
        assert!(resolutions.len() >= 2, "jobs {jobs}: {ts}");
    }

    // Plain runs at other jobs counts agree too, closing the square:
    // (telemetry × jobs) all map to one byte stream.
    for jobs in ["2", "8"] {
        let trace = scratch(&format!("plain-{jobs}.json"));
        let out = run(jobs, &trace, false);
        assert_eq!(
            out.stdout, expected_stdout,
            "stdout differs between --jobs 1 and --jobs {jobs}"
        );
        assert_eq!(
            sim_events(&trace),
            expected_sim,
            "sim-time tracks differ between --jobs 1 and --jobs {jobs}"
        );
    }
}

/// A frame sink for one child process: accepts the connection, decodes
/// every frame, and returns them in order.
fn drain_sink(listener: TcpListener) -> std::thread::JoinHandle<Vec<Frame>> {
    std::thread::spawn(move || {
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        let mut stream = loop {
            match listener.accept() {
                Ok((s, _)) => break s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "child never connected"
                    );
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("sink accept failed: {e}"),
            }
        };
        stream.set_nonblocking(false).expect("blocking stream");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let mut decoder = FrameDecoder::new();
        let mut frames = Vec::new();
        let mut buf = [0u8; 8192];
        loop {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    decoder.push(&buf[..n]);
                    while let Some(frame) = decoder.next_frame().expect("well-formed frames") {
                        frames.push(frame);
                    }
                }
            }
        }
        frames
    })
}

/// The kind of each frame, in order.
fn kinds(frames: &[Frame]) -> Vec<&'static str> {
    frames
        .iter()
        .map(|frame| match frame {
            Frame::Hello { .. } => "hello",
            Frame::Progress { .. } => "progress",
            Frame::Span(_) => "span",
            Frame::Bye { .. } => "bye",
        })
        .collect()
}

/// `kinds` with each run of equal neighbours collapsed to one entry.
fn runs(kinds: &[&'static str]) -> Vec<&'static str> {
    let mut out = kinds.to_vec();
    out.dedup();
    out
}

/// The span records a sink received, checked to be the run's wall
/// spans, whole: no sim-time track (`drive.*`) and nothing dropped.
fn shipped_wall_spans(frames: &[Frame]) -> Vec<&TraceSpan> {
    let mut spans = Vec::new();
    for frame in frames {
        match frame {
            Frame::Span(span) => {
                assert_eq!(span.origin, SpanOrigin::ChildWall, "{span:?}");
                spans.push(span);
            }
            Frame::Bye { spans_dropped, .. } => {
                assert_eq!(*spans_dropped, 0, "the exporter shed spans");
            }
            _ => {}
        }
    }
    assert!(
        spans.iter().any(|r| r.name == "pipeline.simulate"),
        "the wall spans of the run were shipped: {} records",
        spans.len()
    );
    let sim: Vec<_> = spans
        .iter()
        .filter(|r| r.track.starts_with("drive."))
        .collect();
    assert!(sim.is_empty(), "sim-time records crossed the sink: {sim:?}");
    spans
}

#[test]
fn frame_exporter_changes_no_bytes_at_any_jobs_count() {
    let base_trace = scratch("exp-base.json");
    let baseline = run("1", &base_trace, false);
    let expected_stdout = baseline.stdout;
    let expected_sim = sim_events(&base_trace);

    for jobs in ["1", "2", "8"] {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind sink");
        let addr = listener.local_addr().expect("sink addr").to_string();
        let sink = drain_sink(listener);
        let trace = scratch(&format!("exp-sink-{jobs}.json"));
        let mut cmd = Command::new(bin());
        cmd.args(["--quick", "--jobs", jobs, "--trace-out"])
            .arg(&trace)
            .args(["t2", "f5"])
            .env_remove("SPINDLE_FAULTS")
            .env("SPINDLE_SERVE_LINGER_MS", "0")
            .env(SINK_ENV, &addr);
        let out = cmd.output().expect("run experiments binary");
        assert!(
            out.status.success(),
            "experiments --jobs {jobs} with sink failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            out.stdout, expected_stdout,
            "stdout differs with the frame exporter on at --jobs {jobs}"
        );
        assert_eq!(
            sim_events(&trace),
            expected_sim,
            "sim-time tracks differ with the frame exporter on at --jobs {jobs}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !stderr.contains("telemetry export"),
            "exporter failed to reach the sink:\n{stderr}"
        );
        // The protocol actually ran: session open, progress
        // heartbeats, the wall spans (a full recorder ships no
        // sim-time record), and a clean goodbye.
        let frames = sink.join().expect("sink thread");
        assert_eq!(
            runs(&kinds(&frames)),
            ["hello", "progress", "span", "bye"],
            "{:?}",
            kinds(&frames)
        );
        shipped_wall_spans(&frames);
    }
}

#[test]
fn sink_only_run_ships_wall_spans_only() {
    let plain = Command::new(bin())
        .args(["--quick", "t2", "f5"])
        .env_remove("SPINDLE_FAULTS")
        .env_remove(SINK_ENV)
        .output()
        .expect("run experiments binary");
    assert!(plain.status.success());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind sink");
    let addr = listener.local_addr().expect("sink addr").to_string();
    let sink = drain_sink(listener);
    let out = Command::new(bin())
        .args(["--quick", "--jobs", "2", "t2", "f5"])
        .env_remove("SPINDLE_FAULTS")
        .env(SINK_ENV, &addr)
        .output()
        .expect("run experiments binary");
    assert!(
        out.status.success(),
        "sink-only run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.stdout, plain.stdout, "the sink moved stdout bytes");
    let frames = sink.join().expect("sink thread");
    // Nothing but liveness, progress and wall spans crosses the wire.
    assert_eq!(
        runs(&kinds(&frames)),
        ["hello", "progress", "span", "bye"],
        "{:?}",
        kinds(&frames)
    );
    let spans = shipped_wall_spans(&frames);
    // The pool's workers label their own rows, so the wall story
    // reaches past the main thread.
    assert!(
        spans.iter().any(|r| r.track.starts_with("worker")),
        "no worker rows shipped"
    );
}

/// One HTTP request against a serve daemon; returns the status line
/// and the body.
fn http(addr: &str, method: &str, path: &str, body: Option<&str>) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to serve daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let status = head.lines().next().unwrap_or("").to_owned();
    (status, body.to_owned())
}

/// The `run` (lifetime) resolution of a rollup document.
fn run_resolution(rollups: &Json) -> &Json {
    let Some(Json::Arr(resolutions)) = rollups.get("resolutions") else {
        panic!("rollup document lacks resolutions: {rollups}");
    };
    resolutions
        .iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some("run"))
        .expect("run resolution present")
}

/// The stable families of one merged rollup window: `disk.*` and
/// `matrix.*` counters plus `disk.*` histogram count/sum totals.
/// Wall-clock-shaped series (spans, engine worker timings, percentile
/// estimates) honestly differ run to run and are excluded.
fn stable_totals(merged: &Json) -> Vec<(String, u64)> {
    let mut totals = Vec::new();
    if let Some(Json::Obj(counters)) = merged.get("counters") {
        for (name, v) in counters {
            if name.starts_with("disk.") || name.starts_with("matrix.") {
                totals.push((name.clone(), v.as_u64().expect("counter value")));
            }
        }
    }
    if let Some(Json::Obj(histograms)) = merged.get("histograms") {
        for (name, h) in histograms {
            if !name.starts_with("disk.") {
                continue;
            }
            let count = h.get("count").and_then(Json::as_u64).expect("count");
            let sum = h.get("sum").and_then(Json::as_u64).expect("sum");
            totals.push((format!("{name}#count"), count));
            totals.push((format!("{name}#sum"), sum));
        }
    }
    totals.sort();
    totals
}

#[test]
fn served_job_timescales_match_cli_rollup_totals() {
    // Reference: the same matrix run through the plain CLI path, with
    // --metrics attaching the simulator observers and --timescales-out
    // banking the lifetime totals.
    let reference = scratch("served-ref.timescales.json");
    let out = Command::new(bin())
        .args(["--quick", "--jobs", "2", "--metrics", "--timescales-out"])
        .arg(&reference)
        .arg("t2")
        .env_remove("SPINDLE_FAULTS")
        .env_remove(SINK_ENV)
        .env("SPINDLE_SERVE_LINGER_MS", "0")
        .output()
        .expect("run reference experiments");
    assert!(
        out.status.success(),
        "reference run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ref_doc = json::parse(
        std::fs::read_to_string(&reference)
            .expect("reference timescales written")
            .trim(),
    )
    .expect("reference timescales parses");
    let expected = stable_totals(run_resolution(&ref_doc).get("merged").expect("merged"));
    assert!(
        expected
            .iter()
            .any(|(name, v)| name.starts_with("disk.") && *v > 0),
        "reference run produced no disk totals: {expected:?}"
    );

    // Served: the identical spec as a daemon job. The child writes its
    // own rollup document as the job's `timescales.json` artifact; the
    // telemetry stream carries only liveness, progress and wall spans.
    let dir = scratch("served-jobs");
    let mut config = spindle_serve::ServeConfig::new("127.0.0.1:0", &dir);
    config.experiments_bin = Some(PathBuf::from(bin()));
    let handle = spindle_serve::serve(config).expect("daemon starts");
    let addr = handle.local_addr().to_string();
    let (status, body) = http(
        &addr,
        "POST",
        "/jobs",
        Some(
            r#"{"kind":"matrix","quick":true,"ids":["t2"],"jobs":2,"metrics":true,"timescales":true}"#,
        ),
    );
    assert!(status.contains("201"), "{status}: {body}");
    let id = json::parse(&body)
        .expect("submission parses")
        .get("id")
        .and_then(Json::as_str)
        .expect("job id")
        .to_owned();

    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = http(&addr, "GET", &format!("/jobs/{id}"), None);
        assert!(status.contains("200"), "{status}: {body}");
        let state = json::parse(&body)
            .expect("job doc parses")
            .get("state")
            .and_then(Json::as_str)
            .expect("state")
            .to_owned();
        match state.as_str() {
            "done" => break,
            "queued" | "running" => {
                assert!(std::time::Instant::now() < deadline, "job never finished");
                std::thread::sleep(Duration::from_millis(100));
            }
            other => panic!("job ended {other}: {body}"),
        }
    }

    let (status, body) = http(&addr, "GET", &format!("/jobs/{id}/timescales"), None);
    assert!(status.contains("200"), "{status}: {body}");
    let doc = json::parse(&body).expect("timescales doc parses");
    assert!(
        doc.get("frames").and_then(Json::as_u64).unwrap_or(0) > 0,
        "the child never streamed a frame: {body}"
    );
    assert_eq!(
        doc.get("torn").map(Json::to_string).as_deref(),
        Some("false"),
        "{body}"
    );
    assert_eq!(doc.get("decode_errors").and_then(Json::as_u64), Some(0));
    assert!(doc.get("rollups").is_none(), "{body}");
    let (status, body) = http(
        &addr,
        "GET",
        &format!("/jobs/{id}/artifacts/timescales.json"),
        None,
    );
    assert!(status.contains("200"), "{status}: {body}");
    let artifact = json::parse(body.trim()).expect("timescales artifact parses");
    let got = stable_totals(run_resolution(&artifact).get("merged").expect("merged"));
    assert_eq!(
        got, expected,
        "served lifetime totals differ from the CLI rollup export"
    );
    handle.stop();
}

/// One blocking HTTP GET against the embedded server; returns the body
/// (panics on a non-200 status).
fn get_ok(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to telemetry server");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "GET {path}: {}",
        head.lines().next().unwrap_or("")
    );
    body.to_owned()
}

/// The `NAME VALUE` sample of one un-labeled metric line in a
/// Prometheus exposition.
fn prom_value(exposition: &str, name: &str) -> Option<u64> {
    exposition.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

#[test]
fn timescales_scrape_agrees_with_final_metrics() {
    // --metrics turns the simulator observers on, so the run actually
    // produces the disk histograms the rollup wheel windows.
    let mut child = Command::new(bin())
        .args(["--quick", "--serve", "127.0.0.1:0", "--metrics", "t2", "f5"])
        .env_remove("SPINDLE_FAULTS")
        .env("SPINDLE_SERVE_LINGER_MS", "20000")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn experiments binary");
    let stderr = child.stderr.take().expect("stderr is piped");
    let mut reader = BufReader::new(stderr);
    let mut addr = None;
    for _ in 0..100 {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read stderr") == 0 {
            break;
        }
        if let Some(rest) = line.trim().strip_prefix("# serving telemetry on http://") {
            addr = Some(rest.trim().to_owned());
            break;
        }
    }
    let addr = addr.expect("bind announcement on stderr");

    // Wait for the matrix to drain (the session flips /status to
    // "idle" for the linger window once the run is done), then scrape
    // both endpoints inside the linger.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let status = json::parse(&get_ok(&addr, "/status")).expect("status parses");
        if status.get("phase").and_then(Json::as_str) == Some("idle") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "run never finished");
        std::thread::sleep(Duration::from_millis(100));
    }
    let metrics = get_ok(&addr, "/metrics");
    let timescales = get_ok(&addr, "/timescales");
    let doc = json::parse(&timescales).expect("timescales parses as JSON");
    let rollups = doc.get("rollups").expect("rollups section");
    assert_eq!(rollups.get("axis").and_then(Json::as_str), Some("wall"));
    let Some(Json::Arr(resolutions)) = rollups.get("resolutions") else {
        panic!("resolutions missing:\n{timescales}");
    };
    assert!(resolutions.len() >= 2, "{timescales}");

    // Exact-merge cross-check: every resolution's merged histogram
    // totals equal the final /metrics exposition's, for every disk
    // histogram the run produced.
    let mut checked = 0;
    for res in resolutions {
        let name = res.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(Json::Obj(histograms)) = res.get("merged").and_then(|m| m.get("histograms"))
        else {
            panic!("merged histograms missing at {name}");
        };
        for (metric, h) in histograms {
            if !metric.starts_with("disk.") {
                continue;
            }
            let flat = metric.replace('.', "_");
            let count = h.get("count").and_then(Json::as_u64).unwrap();
            let sum = h.get("sum").and_then(Json::as_u64).unwrap();
            assert_eq!(
                prom_value(&metrics, &format!("{flat}_count")),
                Some(count),
                "{metric} count mismatch at resolution {name}"
            );
            assert_eq!(
                prom_value(&metrics, &format!("{flat}_sum")),
                Some(sum),
                "{metric} sum mismatch at resolution {name}"
            );
            checked += 1;
        }
    }
    assert!(
        checked > 0,
        "no disk histograms to cross-check:\n{timescales}"
    );

    child.kill().ok();
    child.wait().expect("reap experiments");
}
