//! Job runners: N threads draining the queue into child processes.

use crate::job::{JobState, KillReason};
use crate::telemetry::Sink;
use crate::{supervise, Shared};
use spindle_obs::json::Json;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a runner polls its child for exit and for a cancel
/// request.
const CHILD_POLL: Duration = Duration::from_millis(25);

/// How long a runner blocks on the queue before re-checking the stop
/// flag.
const QUEUE_POLL: Duration = Duration::from_millis(200);

/// Bytes of stderr tail attached to a failed job's error field.
const ERROR_TAIL_BYTES: usize = 600;

/// Spawns `n` runner threads.
pub(crate) fn spawn(shared: &Arc<Shared>, n: usize) -> Vec<JoinHandle<()>> {
    (0..n)
        .map(|i| {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name(format!("serve-runner-{i}"))
                .spawn(move || runner_loop(&shared))
                .expect("spawn runner thread")
        })
        .collect()
}

fn runner_loop(shared: &Shared) {
    while !shared.stop.load(Ordering::Acquire) {
        if shared.supervisor.is_draining() {
            // Draining: queued work is the next daemon's. It stays in
            // the table as `queued` with no terminal journal record,
            // so a restart with --resume-dir re-adopts it.
            std::thread::sleep(QUEUE_POLL);
            continue;
        }
        let Some(id) = shared.queue.pop(QUEUE_POLL) else {
            if shared.queue.depth() == 0 && shared.stop.load(Ordering::Acquire) {
                return;
            }
            continue;
        };
        run_job(shared, &id);
    }
    if shared.supervisor.is_draining() {
        return;
    }
    // Drain what admission already accepted before the stop: those
    // jobs were journaled as submitted and clients were told 201.
    while let Some(id) = shared.queue.pop(Duration::ZERO) {
        run_job(shared, &id);
    }
}

/// How one attempt at a job ended, before supervision classifies it.
enum Attempt {
    /// The child exited on its own with this code (`None`: a signal
    /// nobody here asked for).
    Exited(Option<i32>),
    /// A supervision kill was requested and carried out.
    Killed(KillReason),
    /// The child became unpollable; it was killed defensively.
    Broken,
}

/// Executes one job to a terminal state. Never panics the runner: a
/// failure to spawn or to write artifacts lands the job in `failed`.
fn run_job(shared: &Shared, id: &str) {
    let Some(job) = shared.table.get(id) else {
        return;
    };
    let started = Instant::now();
    shared.table.update(id, |j| {
        j.state = JobState::Running;
        j.started = Some(started);
    });
    shared.refresh_gauges();

    // A kill request that raced the pop: honor it before spawning.
    match job.kill_reason() {
        Some(KillReason::Cancel) => {
            shared.finish_job(id, JobState::Cancelled, None, 0.0, None);
            return;
        }
        Some(KillReason::Drain) => {
            requeue_for_resume(shared, id);
            return;
        }
        _ => {}
    }

    let tel = shared.job_telemetry(id);
    // Each attempt gets a fresh liveness clock: a retry must not be
    // judged stalled by the previous attempt's last frame time.
    tel.mark_alive();
    tel.event("state", vec![("state", Json::Str("running".to_owned()))]);
    let attempt_no = job.attempt;
    // Queue wait: from the instant the job last became runnable
    // (admission, or a retry's due time) to this attempt's start.
    if let Some(runnable) = tel.runnable_at() {
        tel.trace_span(
            "daemon",
            "queue.wait",
            runnable,
            started.saturating_duration_since(runnable),
            vec![("attempt".to_owned(), Json::Uint(u64::from(attempt_no)))],
        );
    }

    let dir = shared.job_dir(id);
    let program = if job.spec.uses_experiments() {
        shared
            .config
            .experiments_bin
            .clone()
            .expect("matrix admission requires the experiments binary")
    } else {
        shared.config.spindle_bin.clone()
    };
    // Each child gets a private loopback telemetry sink; a child built
    // on the pulse exporter connects back and streams progress, one
    // that isn't just leaves the listener idle for the job's lifetime.
    let sink = Sink::bind().ok();
    let sink_addr = sink.as_ref().map(Sink::addr);
    let spawn = || -> Result<std::process::Child, String> {
        // Admission created this for locally-submitted jobs; a
        // re-adopted job from another daemon's journal may not have
        // one yet.
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create artifact dir `{}`: {e}", dir.display()))?;
        let stdout = std::fs::File::create(dir.join("stdout.partial"))
            .map_err(|e| format!("cannot create stdout capture: {e}"))?;
        let stderr = std::fs::File::create(dir.join("stderr.txt"))
            .map_err(|e| format!("cannot create stderr capture: {e}"))?;
        let mut cmd = Command::new(&program);
        cmd.args(job.spec.argv(&dir))
            .stdin(Stdio::null())
            .stdout(Stdio::from(stdout))
            .stderr(Stdio::from(stderr))
            // The child's fault/telemetry environment is the spec's
            // business, not inherited daemon state.
            .env_remove(spindle_harden::FAULTS_ENV)
            .env_remove(spindle_pulse::SERVE_ENV)
            .env_remove(spindle_pulse::LINGER_ENV)
            .env_remove(spindle_obs::frame::SINK_ENV);
        if let Some(addr) = &sink_addr {
            cmd.env(spindle_obs::frame::SINK_ENV, addr);
        }
        cmd.spawn()
            .map_err(|e| format!("cannot spawn `{}`: {e}", program.display()))
    };
    let spawn_start = Instant::now();
    let mut child = match spawn() {
        Ok(c) => c,
        Err(e) => {
            tel.trace_instant(
                "daemon",
                "spawn.failed",
                vec![("error".to_owned(), Json::Str(e.clone()))],
            );
            persist_spans(shared, id, &tel);
            shared.finish_job(
                id,
                JobState::Failed,
                None,
                started.elapsed().as_secs_f64(),
                Some(e),
            );
            return;
        }
    };
    tel.trace_span(
        "daemon",
        "spawn",
        spawn_start,
        spawn_start.elapsed(),
        vec![("attempt".to_owned(), Json::Uint(u64::from(attempt_no)))],
    );
    let child_done = Arc::new(AtomicBool::new(false));
    let ingest = sink.map(|s| {
        s.spawn_ingest(
            Arc::clone(&tel),
            Arc::clone(&shared.fleet),
            shared.registry,
            Arc::clone(&child_done),
        )
    });

    let heartbeat = Duration::from_millis(shared.config.heartbeat_ms.max(1));
    let mut last_beat = Instant::now();
    let outcome = loop {
        // A finished child beats a pending kill request: the work is
        // already done, so a racing DELETE or drain changes nothing.
        match child.try_wait() {
            Ok(Some(status)) => break Attempt::Exited(status.code()),
            Ok(None) => {}
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                break Attempt::Broken;
            }
        }
        if let Some(reason) = job.kill_reason() {
            let _ = child.kill();
            let _ = child.wait();
            break Attempt::Killed(reason);
        }
        if last_beat.elapsed() >= heartbeat {
            last_beat = Instant::now();
            tel.event(
                "heartbeat",
                vec![("elapsed_secs", Json::Num(started.elapsed().as_secs_f64()))],
            );
        }
        std::thread::sleep(CHILD_POLL);
    };
    let secs = started.elapsed().as_secs_f64();
    // Let ingest drain the child's final flush (the socket EOFs once
    // the child is gone) before the terminal event is published.
    child_done.store(true, Ordering::Release);
    if let Some(handle) = ingest {
        let _ = handle.join();
    }
    // One `attempt` span per run, spawn to exit, recorded after ingest
    // joins so child spans (and the Hello clock offset) are already in
    // the store when a terminal attempt persists it. Retried attempts
    // accumulate in the same store, so the final trace shows them all.
    tel.trace_span(
        "daemon",
        "attempt",
        started,
        Duration::from_secs_f64(secs.max(0.0)),
        vec![("attempt".to_owned(), Json::Uint(u64::from(attempt_no)))],
    );

    // A drain kill ends the attempt, not the job: no terminal journal
    // record, no artifact promotion. The next --resume-dir daemon
    // re-adopts and re-runs it; determinism makes that lossless.
    if matches!(outcome, Attempt::Killed(KillReason::Drain)) {
        requeue_for_resume(shared, id);
        return;
    }

    let (state, exit, error) = match outcome {
        Attempt::Exited(Some(0)) => (JobState::Done, Some(0), None),
        // A signal death (no code) or the 128+SIGKILL convention is a
        // transient the job didn't choose: retry it.
        Attempt::Exited(code @ (None | Some(KILLED_EXIT))) => {
            let reason = code.map_or_else(
                || "child killed by a signal".to_owned(),
                |c| format!("child killed (exit {c})"),
            );
            match supervise::handle_retryable(
                shared,
                id,
                JobState::Quarantined,
                &reason,
                Some(&stderr_tail(&dir)),
                secs,
            ) {
                None => return,
                Some((state, detail)) => (state, code, Some(detail)),
            }
        }
        Attempt::Exited(code) => (JobState::Failed, code, Some(stderr_tail(&dir))),
        Attempt::Killed(KillReason::Cancel) => (JobState::Cancelled, None, None),
        Attempt::Killed(KillReason::Deadline) => (
            JobState::TimedOut,
            None,
            Some(format!(
                "deadline of {}s exceeded",
                job.deadline_secs.unwrap_or_default()
            )),
        ),
        Attempt::Killed(KillReason::Stall) => {
            match supervise::handle_retryable(
                shared,
                id,
                JobState::Stalled,
                "telemetry stalled",
                None,
                secs,
            ) {
                None => return,
                Some((state, detail)) => (state, None, Some(detail)),
            }
        }
        Attempt::Killed(KillReason::Drain) => unreachable!("drain handled above"),
        Attempt::Broken => (
            JobState::Failed,
            None,
            Some("cannot poll the child process".to_owned()),
        ),
    };
    // Promote the capture to its final name only now, so a crashed
    // daemon's leftover `stdout.partial` is never mistaken for a
    // completed job's output.
    let finalize_start = Instant::now();
    let _ = std::fs::rename(dir.join("stdout.partial"), dir.join("stdout.txt"));
    tel.trace_span(
        "daemon",
        "finalize",
        finalize_start,
        finalize_start.elapsed(),
        vec![("state".to_owned(), Json::Str(state.as_str().to_owned()))],
    );
    // Spans persist before result.json is written so the artifact list
    // includes spans.jsonl, and offline `trace assemble` sees the whole
    // lifecycle through finalization.
    persist_spans(shared, id, &tel);
    write_result(shared, id, state, exit, secs);
    shared.finish_job(id, state, exit, secs, error);
}

/// Persists the job's accumulated trace spans as `spans.jsonl` (best
/// effort, like `result.json`: the journal stays authoritative).
fn persist_spans(shared: &Shared, id: &str, tel: &crate::telemetry::JobTelemetry) {
    let (spans, dropped) = tel.trace_spans();
    if spans.is_empty() && dropped == 0 {
        return;
    }
    let job = crate::trace::JobSpans {
        id: id.to_owned(),
        spans,
        offset_ns: tel.child_offset_ns(),
        dropped,
    };
    let path = shared.job_dir(id).join(crate::trace::SPANS_FILE);
    if let Err(e) = crate::trace::write_spans(&path, &job) {
        eprintln!("# serve: {e}");
    }
}

/// The 128+SIGKILL exit convention: treated like a signal death.
const KILLED_EXIT: i32 = 137;

/// Puts a drain-interrupted job back to `queued` in the table (it is
/// deliberately *not* re-enqueued: the run queue dies with this
/// daemon, the journal's missing terminal record survives).
fn requeue_for_resume(shared: &Shared, id: &str) {
    shared.table.update(id, |j| {
        j.state = JobState::Queued;
        j.started = None;
        j.clear_kill();
    });
    shared
        .job_telemetry(id)
        .event("state", vec![("state", Json::Str("drained".to_owned()))]);
    shared.refresh_gauges();
}

/// A bounded tail of the job's stderr, for the failure report.
fn stderr_tail(dir: &std::path::Path) -> String {
    let text = std::fs::read_to_string(dir.join("stderr.txt")).unwrap_or_default();
    let trimmed = text.trim_end();
    if trimmed.is_empty() {
        return "job exited unsuccessfully (no stderr)".to_owned();
    }
    let tail_start = trimmed
        .char_indices()
        .rev()
        .take(ERROR_TAIL_BYTES)
        .last()
        .map_or(0, |(i, _)| i);
    trimmed[tail_start..].to_owned()
}

/// Writes the `result.json` artifact (best effort; the journal is the
/// durable record).
fn write_result(shared: &Shared, id: &str, state: JobState, exit: Option<i32>, secs: f64) {
    use spindle_obs::json::Json;
    let dir = shared.job_dir(id);
    let mut artifacts: Vec<String> = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.file_name().into_string().ok())
                .filter(|name| name != "result.json" && name != "stdout.partial")
                .collect()
        })
        .unwrap_or_default();
    artifacts.sort();
    let doc = Json::Obj(vec![
        ("id".to_owned(), Json::Str(id.to_owned())),
        ("state".to_owned(), Json::Str(state.as_str().to_owned())),
        (
            "exit".to_owned(),
            exit.map_or(Json::Null, |c| Json::Int(i64::from(c))),
        ),
        ("secs".to_owned(), Json::Num(secs)),
        (
            "artifacts".to_owned(),
            Json::Arr(artifacts.into_iter().map(Json::Str).collect()),
        ),
    ]);
    let _ = std::fs::write(dir.join("result.json"), format!("{doc}\n"));
}
