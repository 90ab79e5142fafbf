//! Job runners: N threads draining the run queue into child
//! processes. A runner parks while its child runs and, each time it
//! wakes, asks `try_wait`, the only authority on exit, then checks the
//! attempt's deadline and stall timeout and any kill request. It wakes
//! when the job's ingest thread unparks it at the end of the child's
//! telemetry stream, or on the backoff of [`CHILD_POLL`].

use crate::job::{Job, JobState, KillReason, Outcome, Transition};
use crate::telemetry::{JobTelemetry, Sink};
use crate::{supervise, Shared};
use spindle_obs::json::Json;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The longest a runner parks between looks at its child's exit, its
/// deadline, its telemetry silence and a kill request. After a spawn,
/// and after the unpark at the end of the child's stream, it parks
/// [`FIRST_NAP`] and doubles from there, so a quick child that never
/// connects, or one that closes its stream before it exits, is seen
/// soon.
pub(crate) const CHILD_POLL: Duration = Duration::from_millis(25);
const FIRST_NAP: Duration = Duration::from_millis(1);

/// How long a runner blocks on the run queue before re-checking the
/// stop flag.
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

/// Runs jobs until the daemon stops. The queue hands out nothing while
/// draining: queued work is the next daemon's, left `queued` with no
/// terminal journal record so a `--resume-dir` restart re-adopts it.
/// After a plain stop it still hands out what is due, so jobs that
/// admission journaled and answered 201 before the stop run first.
fn runner_loop(shared: &Shared) {
    loop {
        match shared.queue.pop(QUEUE_POLL) {
            Some(id) => run_job(shared, &id),
            None if shared.stop.load(Ordering::Acquire) => return,
            None => {}
        }
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
    // A kill request that raced the pop: honor it before the attempt.
    match job.kill_reason() {
        Some(KillReason::Cancel) => {
            let _ = shared.record(id, Transition::Terminal(Outcome::cancelled()));
            return;
        }
        Some(KillReason::Drain) => {
            let _ = shared.record(id, Transition::Drained);
            return;
        }
        _ => {}
    }

    let tel = Arc::clone(&job.telemetry);
    // Each attempt gets a fresh liveness clock: a retry must not be
    // judged stalled by the previous attempt's last frame time.
    tel.mark_alive();
    let attempt_no = job.attempt();
    let Ok(started) = shared.record(
        id,
        Transition::Running {
            attempt: attempt_no,
        },
    ) else {
        return;
    };

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
    // that isn't leaves ingest in `accept` until the runner's wake.
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
            let args = vec![("error", Json::Str(e.clone()))];
            tel.daemon_span("spawn.failed", Instant::now(), None, args);
            let _ = shared.record(
                id,
                Transition::Terminal(Outcome {
                    state: JobState::Failed,
                    exit: None,
                    secs: started.elapsed().as_secs_f64(),
                    error: Some(e),
                }),
            );
            return;
        }
    };
    let args = vec![("attempt", Json::Uint(u64::from(attempt_no)))];
    tel.daemon_span("spawn", spawn_start, Some(spawn_start.elapsed()), args);
    let child_done = Arc::new(AtomicBool::new(false));
    let ingest = sink.and_then(|s| {
        let tel = Arc::clone(&tel);
        let handle = s.spawn_ingest(tel, shared.registry, Arc::clone(&child_done));
        Some((s, handle.ok()?))
    });

    let heartbeat = Duration::from_millis(shared.config.heartbeat_ms.max(1));
    let mut last_beat = Instant::now();
    let mut nap = FIRST_NAP;
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
        request_overdue_kill(shared, &job, started);
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
        let parked = Instant::now();
        std::thread::park_timeout(nap);
        // An early wake is the unpark at the end of the stream (or a
        // spurious one, which costs one early look).
        nap = if parked.elapsed() < nap {
            FIRST_NAP
        } else {
            (nap * 2).min(CHILD_POLL)
        };
    };
    let secs = started.elapsed().as_secs_f64();
    // Let ingest drain the child's final flush (the socket EOFs once
    // the child is gone) before the attempt's end is recorded, so child
    // spans (and the Hello clock offset) are already in the store when
    // a terminal outcome persists it.
    child_done.store(true, Ordering::Release);
    if let Some((sink, handle)) = ingest {
        sink.finish(handle);
    }

    // A drain kill ends the attempt, not the job: no terminal journal
    // record, no artifact promotion. The next --resume-dir daemon
    // re-adopts and re-runs it; determinism makes that lossless.
    if matches!(outcome, Attempt::Killed(KillReason::Drain)) {
        let _ = shared.record(id, Transition::Drained);
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
    let _ = shared.record(
        id,
        Transition::Terminal(Outcome {
            state,
            exit,
            secs,
            error,
        }),
    );
}

/// Requests the kill of an attempt past its deadline, or of a child
/// that spoke the frame protocol and then went silent for the stall
/// timeout (silence from a mute child means nothing). The request is
/// the same compare-and-swap a cancel or a drain makes, so the first
/// reason wins; the winner gets a `watchdog` event.
fn request_overdue_kill(shared: &Shared, job: &Job, started: Instant) {
    if job.kill_reason().is_some() {
        return;
    }
    let tel = &job.telemetry;
    if let Some(deadline) = job.deadline_secs {
        if started.elapsed().as_secs_f64() > deadline as f64 {
            if job.request_kill(KillReason::Deadline) {
                let args = vec![
                    ("action", Json::Str("deadline-kill".to_owned())),
                    ("deadline_secs", Json::Uint(deadline)),
                ];
                tel.event("watchdog", args);
            }
            return;
        }
    }
    let stall = shared.config.stall_timeout_secs;
    if let (Some(stall), Some(silence)) = (stall, tel.frame_silence_secs()) {
        if silence > stall as f64 && job.request_kill(KillReason::Stall) {
            let args = vec![
                ("action", Json::Str("stall-kill".to_owned())),
                ("silence_secs", Json::Num(silence)),
            ];
            tel.event("watchdog", args);
        }
    }
}

/// Closes out the artifacts of an attempt that ends the job in `t`,
/// before the job goes terminal: the `retries.exhausted` instant of a
/// spent retry budget, the promotion of the stdout capture (the
/// `finalize` span), `spans.jsonl`, and last `result.json`, so its
/// artifact list includes the span file and offline `trace assemble`
/// sees the whole lifecycle. An attempt that the job outlives leaves
/// its artifacts alone.
pub(crate) fn finalize(shared: &Shared, id: &str, tel: &JobTelemetry, t: &Transition) {
    let Transition::Terminal(outcome) = t else {
        return;
    };
    let state = Json::Str(outcome.state.as_str().to_owned());
    if let (JobState::Quarantined | JobState::Stalled, Some(reason)) = (
        outcome.state,
        outcome
            .error
            .as_deref()
            .and_then(supervise::exhausted_reason),
    ) {
        let args = vec![
            ("reason", Json::Str(reason.to_owned())),
            ("state", state.clone()),
        ];
        tel.daemon_span("retries.exhausted", Instant::now(), None, args);
    }
    // Promote the capture to its final name only now, so a crashed
    // daemon's leftover `stdout.partial` is never mistaken for a
    // completed job's output.
    let dir = shared.job_dir(id);
    let finalize_start = Instant::now();
    let _ = std::fs::rename(dir.join("stdout.partial"), dir.join("stdout.txt"));
    let dur = Some(finalize_start.elapsed());
    tel.daemon_span("finalize", finalize_start, dur, vec![("state", state)]);
    persist_spans(shared, id, tel);
    write_result(shared, id, t);
}

/// Persists the job's accumulated trace spans as `spans.jsonl` (best
/// effort, like `result.json`: the journal stays authoritative).
fn persist_spans(shared: &Shared, id: &str, tel: &JobTelemetry) {
    let job = tel.trace_spans(id);
    if job.spans.is_empty() && job.dropped == 0 {
        return;
    }
    let path = shared.job_dir(id).join(crate::trace::SPANS_FILE);
    if let Err(e) = crate::trace::write_spans(&path, &job) {
        eprintln!("# serve: {e}");
    }
}

/// The 128+SIGKILL exit convention: treated like a signal death.
const KILLED_EXIT: i32 = 137;

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

/// Writes the `result.json` artifact — the outcome's state, exit and
/// secs as its `finished` journal line has them, and the artifact list
/// (best effort; the journal is the durable record).
fn write_result(shared: &Shared, id: &str, t: &Transition) {
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
    let artifacts = Json::Arr(artifacts.into_iter().map(Json::Str).collect());
    let fields = [("id", Json::Str(id.to_owned()))]
        .into_iter()
        .chain(t.fields())
        .chain([("artifacts", artifacts)]);
    let doc = Json::Obj(fields.map(|(k, v)| (k.to_owned(), v)).collect());
    let _ = std::fs::write(dir.join("result.json"), format!("{doc}\n"));
}
