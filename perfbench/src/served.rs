//! `served_jobs`: one closed-loop client against a `spindle serve
//! --parallel 1` daemon.
//!
//! The client submits an `analyze` job on a fixed 6,000-request Mail trace,
//! polls until the job is terminal, then fetches `stdout.txt`; only then
//! does it submit the next job. One timed pass is ten such jobs. Set-up runs the same spec directly
//! through the CLI as the baseline. This is the "served job vs direct
//! CLI" figure: serve, pulse, the obs frame codec and process spawn
//! dominate it, while disk and synth do little.

use crate::spans::{span, SpanId, Tracer};
use crate::{cli_sim, mail_prefix, median, print_sim_digest, tail, Ctx, Outcome};
use spindle_obs::json::{self, Json};
use spindle_serve::client;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Requests in the served trace: the first this many of a Mail stream,
/// about ten minutes of it.
const TRACE_REQUESTS: usize = 6_000;

/// Jobs per timed pass. The runner polls its child and the queue on
/// fixed sleeps, so single-job latencies fall on a few discrete steps
/// and their median jumps between them; a pass of several jobs smooths
/// that out.
const JOBS_PER_PASS: usize = 10;

/// The daemon keeps every job's telemetry, so its memory grows with
/// the jobs served; its peak resident set is read after this many timed
/// jobs so that runs of different speed compare.
const RSS_AFTER_JOBS: usize = 50;

/// Pause between status polls.
const POLL_PAUSE: Duration = Duration::from_millis(1);

/// How long the daemon may take to answer `/healthz`.
const BOOT_TIMEOUT: Duration = Duration::from_secs(30);

/// How long one job may take before the run gives up on it.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// The daemon's lifecycle spans, as named in its per-job trace.
const PHASES: &[(&str, &str)] = &[
    ("admit", "admit"),
    ("queue.wait", "queue_wait"),
    ("spawn", "spawn"),
    ("attempt", "attempt"),
    ("finalize", "finalize"),
];

/// A running daemon; dropping it kills the process and waits for it.
struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Daemon {
    /// Starts `spindle serve` on a free loopback port and waits until
    /// `/healthz` answers.
    fn boot(bin: &Path, dir: &Path, log: &Path) -> Result<Daemon, String> {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let stderr = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(bin)
            .args(["serve", "127.0.0.1:0", "--parallel", "1", "--dir"])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let start = Instant::now();
        const ANNOUNCE: &str = "# serving jobs on http://";
        while daemon.addr.is_empty() {
            if start.elapsed() > BOOT_TIMEOUT {
                return Err("daemon did not announce its address".to_owned());
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during boot: {status}"));
            }
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(rest) = text.split(ANNOUNCE).nth(1) {
                if let Some(line) = rest.split_once('\n') {
                    daemon.addr = line.0.trim().to_owned();
                }
            }
            std::thread::sleep(POLL_PAUSE);
        }
        loop {
            if start.elapsed() > BOOT_TIMEOUT {
                return Err("daemon never answered /healthz".to_owned());
            }
            if client::request(&daemon.addr, "GET", "/healthz", None).is_ok_and(|r| r.status == 200)
            {
                return Ok(daemon);
            }
            std::thread::sleep(POLL_PAUSE);
        }
    }

    /// Peak resident set of the daemon, in MB.
    fn peak_rss_mb(&self) -> Option<f64> {
        crate::peak_rss_mb(&self.child.id().to_string())
    }
}

/// Runs the spec directly through the CLI; returns (seconds, stdout).
fn direct(bin: &Path, input: &Path) -> Result<(f64, Vec<u8>), String> {
    let t = Instant::now();
    let out = Command::new(bin)
        .arg("analyze")
        .arg("--in")
        .arg(input)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let secs = t.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("direct analyze exited with {}", out.status));
    }
    Ok((secs, out.stdout))
}

/// One served job, as the client saw it.
struct Job {
    latency_s: f64,
    submit_s: f64,
    poll_s: Vec<f64>,
    fetch_s: f64,
    id: String,
    state: String,
    attempt: u64,
    stdout: String,
    rejected: bool,
}

fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(client::Response, f64), String> {
    let t = Instant::now();
    let resp =
        client::request(addr, method, path, body).map_err(|e| format!("{method} {path}: {e}"))?;
    Ok((resp, t.elapsed().as_secs_f64()))
}

fn parse(body: &str) -> Result<Json, String> {
    json::parse(body).map_err(|e| format!("bad JSON from daemon: {e}"))
}

/// Submit → poll until terminal → fetch stdout, in one closed loop.
fn run_job(
    addr: &str,
    spec: &str,
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
) -> Result<Job, String> {
    let start = Instant::now();
    let (resp, submit_s) = span(tracer, "serve.submit", parent, |_| {
        request(addr, "POST", "/jobs", Some(spec))
    })?;
    if resp.status != 201 {
        return Ok(Job {
            latency_s: start.elapsed().as_secs_f64(),
            submit_s,
            poll_s: Vec::new(),
            fetch_s: 0.0,
            id: String::new(),
            state: format!("refused with {}", resp.status),
            attempt: 0,
            stdout: String::new(),
            rejected: true,
        });
    }
    let id = parse(&resp.body)?
        .get("id")
        .and_then(Json::as_str)
        .ok_or("submit response has no id")?
        .to_owned();
    let mut poll_s = Vec::new();
    let (state, attempt) = loop {
        let (resp, secs) = span(tracer, "serve.poll", parent, |_| {
            request(addr, "GET", &format!("/jobs/{id}"), None)
        })?;
        poll_s.push(secs);
        let doc = parse(&resp.body)?;
        let state = doc.get("state").and_then(Json::as_str).unwrap_or("?");
        if !matches!(state, "queued" | "running" | "cancelling") {
            let attempt = doc.get("attempt").and_then(Json::as_u64).unwrap_or(0);
            break (state.to_owned(), attempt);
        }
        if start.elapsed() > JOB_TIMEOUT {
            return Err(format!("job {id} still {state} after {JOB_TIMEOUT:?}"));
        }
        std::thread::sleep(POLL_PAUSE);
    };
    let (resp, fetch_s) = span(tracer, "serve.fetch", parent, |_| {
        request(
            addr,
            "GET",
            &format!("/jobs/{id}/artifacts/stdout.txt"),
            None,
        )
    })?;
    Ok(Job {
        latency_s: start.elapsed().as_secs_f64(),
        submit_s,
        poll_s,
        fetch_s,
        id,
        state,
        attempt,
        stdout: if resp.status == 200 {
            resp.body
        } else {
            String::new()
        },
        rejected: false,
    })
}

/// Counts a finished job's outcome: refused, not `done`, retried, or
/// stdout differing from the direct run are each a failure.
fn check_job(job: &Job, expected: &[u8], out: &mut Outcome) {
    out.check(
        !job.rejected,
        &format!("submission accepted ({})", job.state),
    );
    if job.rejected {
        return;
    }
    out.check(
        job.state == "done",
        &format!("job {} ended {}", job.id, job.state),
    );
    out.check(
        job.attempt == 0,
        &format!("job {} needed {} retries", job.id, job.attempt),
    );
    out.check(
        job.stdout.as_bytes() == expected,
        &format!(
            "job {} stdout.txt is byte-identical to the direct CLI",
            job.id
        ),
    );
}

/// Per-job figures only the traced run collects: lifecycle phase
/// durations from `/jobs/ID/trace` (ms) and frame counters from
/// `/jobs/ID/timescales`.
fn job_details(addr: &str, id: &str, out: &mut Outcome) -> Result<(Vec<f64>, [f64; 3]), String> {
    let (resp, _) = request(addr, "GET", &format!("/jobs/{id}/trace"), None)?;
    let doc = parse(&resp.body)?;
    let valid = spindle_obs::trace_event::check_document(&doc);
    out.check(
        valid.is_ok(),
        &format!("job {id} trace document: {valid:?}"),
    );
    let mut phases = vec![0.0; PHASES.len()];
    if let Some(Json::Arr(events)) = doc.get("traceEvents") {
        for e in events {
            let name = e.get("name").and_then(Json::as_str);
            let is_complete = e.get("ph").and_then(Json::as_str) == Some("X");
            if let (Some(name), true) = (name, is_complete) {
                if let Some(i) = PHASES.iter().position(|(n, _)| *n == name) {
                    phases[i] += e.get("dur").and_then(Json::as_f64).unwrap_or(0.0) / 1e3;
                }
            }
        }
    }
    let (resp, _) = request(addr, "GET", &format!("/jobs/{id}/timescales"), None)?;
    let doc = parse(&resp.body)?;
    let field = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    Ok((
        phases,
        [field("frames"), field("bytes"), field("decode_errors")],
    ))
}

/// Runs the workload.
pub fn run(ctx: &Ctx, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = std::fs::canonicalize(&ctx.out_dir).map_err(|e| e.to_string())?;
    let input: PathBuf = dir.join("served.bin");
    let spec = Json::Obj(vec![
        ("kind".to_owned(), Json::Str("analyze".to_owned())),
        (
            "input".to_owned(),
            Json::Str(input.to_string_lossy().into_owned()),
        ),
    ])
    .to_string();

    // Set-up, three times: write the trace, boot the daemon until
    // /healthz answers, and run the direct-CLI baseline. The last
    // daemon stays up for the timed loop.
    let mut daemon = None;
    let mut direct_s = Vec::new();
    let mut expected = Vec::new();
    for i in 0..3 {
        // Stop the previous set-up's daemon before booting the next.
        drop(daemon.take());
        let t = Instant::now();
        let requests = mail_prefix(ctx.seed ^ 0x11, TRACE_REQUESTS)?;
        let file = File::create(&input).map_err(|e| format!("{}: {e}", input.display()))?;
        let mut w = std::io::BufWriter::new(file);
        spindle_trace::binary::write_requests(&mut w, &requests)
            .map_err(|e| format!("{}: {e}", input.display()))?;
        std::io::Write::flush(&mut w).map_err(|e| format!("{}: {e}", input.display()))?;
        daemon = Some(Daemon::boot(
            &ctx.spindle_bin,
            &dir.join(format!("jobs-{i}")),
            &dir.join(format!("daemon-{i}.log")),
        )?);
        for _ in 0..3 {
            let (secs, stdout) = span(tracer, "cli.direct", None, |_| {
                direct(&ctx.spindle_bin, &input)
            })?;
            direct_s.push(secs);
            if expected.is_empty() {
                expected = stdout;
            } else {
                out.check(stdout == expected, "direct CLI stdout is deterministic");
            }
        }
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("set-up ran");
    let digest = crate::fnv1a(crate::FNV_BASIS, &expected);
    println!(
        "digest served_stdout: fnv1a64={digest:016x} ({} bytes)",
        expected.len()
    );
    let requests = mail_prefix(ctx.seed ^ 0x11, TRACE_REQUESTS)?;
    let sim = cli_sim(spindle_disk::scheduler::SchedulerKind::Sptf)
        .run(&requests)
        .map_err(|e| format!("simulate: {e}"))?;
    print_sim_digest("served", &sim);

    // Warm-up job, untimed.
    let warm = run_job(&daemon.addr, &spec, None, None)?;
    check_job(&warm, &expected, &mut out);

    let run_for = if tracer.is_some() {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut rejected = 0u64;
    let mut retries = 0u64;
    let mut latencies = Vec::new();
    let start = Instant::now();
    while out.pass_s.len() < 2 || start.elapsed().as_secs_f64() < run_for {
        let t = Instant::now();
        for _ in 0..JOBS_PER_PASS {
            let job = run_job(&daemon.addr, &spec, None, None)?;
            check_job(&job, &expected, &mut out);
            rejected += u64::from(job.rejected);
            retries += job.attempt;
            latencies.push(job.latency_s);
            if latencies.len() == RSS_AFTER_JOBS {
                out.peak_rss_mb = daemon.peak_rss_mb().unwrap_or(0.0);
            }
        }
        out.pass_s.push(t.elapsed().as_secs_f64());
    }
    if latencies.len() < RSS_AFTER_JOBS {
        out.peak_rss_mb = daemon.peak_rss_mb().unwrap_or(0.0);
    }

    if let Some(tracer) = tracer {
        let mut jobs = Vec::new();
        let mut phases: Vec<Vec<f64>> = vec![Vec::new(); PHASES.len()];
        let mut frames = [Vec::new(), Vec::new()];
        let mut frame_errors = 0.0;
        let start = Instant::now();
        while jobs.len() < 2 || start.elapsed().as_secs_f64() < run_for {
            let job = span(Some(tracer), "bench.job", None, |p| {
                run_job(&daemon.addr, &spec, Some(tracer), p)
            })?;
            check_job(&job, &expected, &mut out);
            rejected += u64::from(job.rejected);
            retries += job.attempt;
            if !job.rejected {
                let (p, [f, b, e]) = job_details(&daemon.addr, &job.id, &mut out)?;
                for (acc, v) in phases.iter_mut().zip(p) {
                    acc.push(v);
                }
                frames[0].push(f);
                frames[1].push(b);
                frame_errors += e;
                out.check(
                    e == 0.0,
                    &format!("job {} frame decode errors: {e}", job.id),
                );
            }
            jobs.push(job);
        }
        let traced: Vec<f64> = jobs.iter().map(|j| j.latency_s).collect();
        out.trace_overhead_ratio = Some(median(&traced) / median(&latencies));
        let ms = |xs: Vec<f64>| median(&xs) * 1e3;
        out.layer(
            "serve.submit_ms",
            ms(jobs.iter().map(|j| j.submit_s).collect()),
        );
        out.layer(
            "serve.poll_ms",
            ms(jobs.iter().flat_map(|j| j.poll_s.iter().copied()).collect()),
        );
        out.layer(
            "serve.fetch_ms",
            ms(jobs.iter().map(|j| j.fetch_s).collect()),
        );
        for ((_, label), values) in PHASES.iter().zip(&phases) {
            out.layer(&format!("serve.phase.{label}_ms"), median(values));
        }
        out.layer("frame.frames_per_job", median(&frames[0]));
        out.layer("frame.bytes_per_job", median(&frames[1]));
        out.layer("frame.errors", frame_errors);
    }
    out.layer("serve.rejected", rejected as f64);
    out.layer("serve.retries", retries as f64);
    drop(daemon);

    let direct_ms = median(&direct_s) * 1e3;
    let p50_ms = median(&latencies) * 1e3;
    out.layer("cli.direct_ms", direct_ms);
    out.layer("serve.overhead_ms", p50_ms - direct_ms);
    println!("job_p50_ms = {p50_ms:.3} ms ({} jobs)", latencies.len());
    match tail(&latencies) {
        Some((level, v, beyond)) => println!(
            "job_tail_ms = {:.3} ms (p{level}, {beyond} of {} samples beyond it)",
            v * 1e3,
            latencies.len()
        ),
        None => println!("job_tail_ms = n/a (fewer than 11 samples)"),
    }
    println!(
        "serve_overhead_ms = {:.3} ms (served p50 minus direct-CLI median {direct_ms:.3} ms)",
        p50_ms - direct_ms
    );
    println!(
        "peak_rss_mb = {:.1} MB (the daemon, after {RSS_AFTER_JOBS} timed jobs)",
        out.peak_rss_mb
    );
    Ok(out)
}
