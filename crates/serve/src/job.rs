//! Job records and the in-memory job table.
//!
//! A job's record owns an append-only list of timestamped
//! [`Transition`]s — `queued`, `running`, `drained` and a terminal
//! outcome — and the job's telemetry. The state `/jobs` shows, when the
//! job started and became runnable, its attempt ordinal and outcome are
//! all read off that list; the journal line, SSE lifecycle event,
//! daemon lifecycle spans and counters of each transition are derived
//! from it in one place (`Shared::record`). The retry budget bounds the
//! list: at most two transitions per attempt, one drain and one
//! terminal outcome.

use crate::spec::JobSpec;
use crate::telemetry::JobTelemetry;
use spindle_obs::json::Json;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A job's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting in the run queue (including retry backoff).
    Queued,
    /// A runner is executing it.
    Running,
    /// Finished successfully; artifacts are complete.
    Done,
    /// Finished with a non-zero exit (including quarantined panics).
    Failed,
    /// Cancelled before or during execution.
    Cancelled,
    /// Killed by its runner for exceeding its deadline.
    TimedOut,
    /// Killed by its runner for telemetry silence, retries exhausted.
    Stalled,
    /// Exhausted every retry on transient-looking failures; the spec's
    /// fingerprint trips the poison circuit breaker.
    Quarantined,
}

impl JobState {
    /// The state as spelled in listings and the journal.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::TimedOut => "timed_out",
            JobState::Stalled => "stalled",
            JobState::Quarantined => "quarantined",
        }
    }

    /// Parses a journal state string.
    #[must_use]
    pub fn parse(s: &str) -> Option<JobState> {
        use JobState::*;
        [
            Queued,
            Running,
            Done,
            Failed,
            Cancelled,
            TimedOut,
            Stalled,
            Quarantined,
        ]
        .into_iter()
        .find(|state| state.as_str() == s)
    }

    /// Whether the state is final.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// Why a running child is being killed. The runner's deadline and
/// stall checks, the cancel endpoint, and drain all *request* a kill
/// by setting the job's flag; the runner — sole owner of the `Child` —
/// performs it and maps the reason to an outcome. First reason wins.
/// The discriminant is the flag's value (0 = no request).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum KillReason {
    /// `DELETE /jobs/ID`.
    Cancel = 1,
    /// `deadline_secs` exceeded.
    Deadline,
    /// No telemetry frame for `--stall-timeout` seconds.
    Stall,
    /// Graceful drain gave up waiting.
    Drain,
}

/// The verdict of an atomic cancel request against the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelVerdict {
    /// No such job.
    NotFound,
    /// Already terminal — cancelling is a conflict, and the runner is
    /// guaranteed not to touch the (possibly completed) artifacts.
    Terminal(JobState),
    /// Kill requested; the runner will finish the job.
    Requested,
}

/// Why a job is back in the queue after a retryable failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Retry {
    /// The failure that ended the previous attempt.
    pub reason: String,
    /// Delay before the job is runnable again.
    pub backoff_ms: u64,
    /// Wall seconds the failed attempt ran.
    pub secs: f64,
}

/// A terminal outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The terminal state.
    pub state: JobState,
    /// Child exit code (None when signalled or cancelled before start).
    pub exit: Option<i32>,
    /// Wall seconds the last attempt ran.
    pub secs: f64,
    /// Failure detail (a bounded stderr tail), for failed jobs.
    pub error: Option<String>,
}

impl Outcome {
    /// A cancellation that needed no kill.
    #[must_use]
    pub fn cancelled() -> Outcome {
        Outcome {
            state: JobState::Cancelled,
            exit: None,
            secs: 0.0,
            error: None,
        }
    }
}

/// One lifecycle change of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum Transition {
    /// Admitted or re-adopted (`retry: None`), or back in the queue
    /// after a retryable failure, for attempt `attempt`.
    Queued {
        /// Retries consumed so far.
        attempt: u32,
        /// Why the previous attempt is being retried.
        retry: Option<Retry>,
    },
    /// A runner claimed it for attempt `attempt`.
    Running {
        /// Retries consumed so far.
        attempt: u32,
    },
    /// A drain ended the attempt, not the job: it waits, queued, for
    /// the next `--resume-dir` daemon.
    Drained,
    /// The job finished.
    Terminal(Outcome),
}

impl Transition {
    /// The fields its journal line and SSE event share: a retry's
    /// ordinal, reason and backoff; an outcome's state, exit and secs.
    pub(crate) fn fields(&self) -> Vec<(&'static str, Json)> {
        match self {
            Transition::Queued {
                attempt,
                retry: Some(r),
            } => vec![
                ("attempt", Json::Uint(u64::from(*attempt))),
                ("reason", Json::Str(r.reason.clone())),
                ("backoff_ms", Json::Uint(r.backoff_ms)),
            ],
            Transition::Terminal(o) => vec![
                ("state", Json::Str(o.state.as_str().to_owned())),
                (
                    "exit",
                    o.exit.map_or(Json::Null, |c| Json::Int(i64::from(c))),
                ),
                ("secs", Json::Num(o.secs)),
            ],
            _ => Vec::new(),
        }
    }

    /// The SSE lifecycle event: its type and fields.
    pub(crate) fn event(&self) -> (&'static str, Vec<(&'static str, Json)>) {
        let mut fields = self.fields();
        let state = match self {
            Transition::Queued { retry: Some(_), .. } => return ("retry", fields),
            Transition::Terminal(o) => {
                fields.push(("error", o.error.clone().map_or(Json::Null, Json::Str)));
                return ("end", fields);
            }
            Transition::Queued { .. } => "queued",
            Transition::Running { .. } => "running",
            Transition::Drained => "drained",
        };
        ("state", vec![("state", Json::Str(state.to_owned()))])
    }

    /// The serve counter a live transition bumps.
    pub(crate) fn counter(&self) -> Option<String> {
        let name = match self {
            Transition::Queued { retry: None, .. } => "accepted",
            Transition::Queued { .. } => "retried",
            Transition::Running { .. } | Transition::Drained => return None,
            Transition::Terminal(o) if o.state == JobState::Done => "completed",
            Transition::Terminal(o) => o.state.as_str(),
        };
        Some(format!("serve.jobs_{name}"))
    }
}

/// One job's record.
#[derive(Debug, Clone)]
pub struct Job {
    /// Deterministic id (`job-0001`, ...).
    pub id: String,
    /// The validated spec it was submitted with.
    pub spec: Arc<JobSpec>,
    /// Pending kill request (0 = none, else a [`KillReason`]); the
    /// runner polls it while the child runs and kills the child when
    /// set.
    pub kill: Arc<AtomicU8>,
    /// Whether this record was re-adopted from a previous daemon's
    /// journal rather than submitted to this process.
    pub readopted: bool,
    /// Effective deadline (spec value or daemon default, clamped by
    /// `--max-deadline`), enforced per attempt by the runner.
    pub deadline_secs: Option<u64>,
    /// Event ring, progress, liveness and spans.
    pub(crate) telemetry: Arc<JobTelemetry>,
    transitions: Vec<(Instant, Transition)>,
}

impl Job {
    /// A job with no transitions yet (it reads as queued), whose event
    /// ring holds `ring_cap` events.
    #[must_use]
    pub fn new(id: String, spec: JobSpec, ring_cap: usize) -> Job {
        Job {
            id,
            spec: Arc::new(spec),
            kill: Arc::new(AtomicU8::new(0)),
            readopted: false,
            deadline_secs: None,
            telemetry: Arc::new(JobTelemetry::new(ring_cap)),
            transitions: Vec::new(),
        }
    }

    /// Appends a transition stamped `at`. A retry or a drain serves the
    /// kill request that ended the attempt, so it is cleared.
    pub fn push(&mut self, at: Instant, t: Transition) {
        if matches!(
            t,
            Transition::Drained | Transition::Queued { retry: Some(_), .. }
        ) {
            self.clear_kill();
        }
        self.transitions.push((at, t));
    }

    /// Current lifecycle state: the last transition's.
    #[must_use]
    pub fn state(&self) -> JobState {
        match self.transitions.last() {
            Some((_, Transition::Running { .. })) => JobState::Running,
            Some((_, Transition::Terminal(o))) => o.state,
            _ => JobState::Queued,
        }
    }

    /// Retries consumed so far (0 on the first attempt).
    #[must_use]
    pub fn attempt(&self) -> u32 {
        self.transitions
            .iter()
            .rev()
            .find_map(|(_, t)| match t {
                Transition::Queued { attempt, .. } | Transition::Running { attempt } => {
                    Some(*attempt)
                }
                _ => None,
            })
            .unwrap_or(0)
    }

    /// When the running attempt started (its `running` transition), and
    /// its ordinal; `None` unless the job is running.
    #[must_use]
    pub fn running(&self) -> Option<(Instant, u32)> {
        match self.transitions.last() {
            Some((at, Transition::Running { attempt })) => Some((*at, *attempt)),
            _ => None,
        }
    }

    /// When the job last became runnable: its last `queued` transition,
    /// plus the retry's backoff.
    #[must_use]
    pub fn runnable_at(&self) -> Option<Instant> {
        self.transitions.iter().rev().find_map(|(at, t)| match t {
            Transition::Queued { retry, .. } => {
                Some(*at + Duration::from_millis(retry.as_ref().map_or(0, |r| r.backoff_ms)))
            }
            _ => None,
        })
    }

    /// The terminal outcome, once there is one.
    #[must_use]
    pub fn outcome(&self) -> Option<&Outcome> {
        match self.transitions.last() {
            Some((_, Transition::Terminal(o))) => Some(o),
            _ => None,
        }
    }

    /// Requests a kill; `false` when another reason already won.
    pub fn request_kill(&self, reason: KillReason) -> bool {
        self.kill
            .compare_exchange(0, reason as u8, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// The pending kill reason, if any.
    #[must_use]
    pub fn kill_reason(&self) -> Option<KillReason> {
        use KillReason::*;
        let flag = self.kill.load(Ordering::Acquire);
        [Cancel, Deadline, Stall, Drain]
            .into_iter()
            .find(|r| *r as u8 == flag)
    }

    /// Clears a served kill request (between retry attempts).
    pub fn clear_kill(&self) {
        self.kill.store(0, Ordering::Release);
    }

    /// The job as a JSON summary. `eta_secs` is the server's estimate
    /// for a running job (None renders as null).
    #[must_use]
    pub fn to_json(&self, eta_secs: Option<f64>) -> Json {
        let running = self.running();
        let cancelling = running.is_some() && self.kill_reason() == Some(KillReason::Cancel);
        let state = if cancelling {
            "cancelling"
        } else {
            self.state().as_str()
        };
        let outcome = self.outcome();
        let elapsed = match (outcome, running) {
            (Some(o), _) => Json::Num(o.secs),
            (None, Some((t0, _))) => Json::Num(t0.elapsed().as_secs_f64()),
            _ => Json::Null,
        };
        Json::Obj(vec![
            ("id".to_owned(), Json::Str(self.id.clone())),
            (
                "kind".to_owned(),
                Json::Str(self.spec.kind.as_str().to_owned()),
            ),
            ("state".to_owned(), Json::Str(state.to_owned())),
            (
                "exit".to_owned(),
                outcome
                    .and_then(|o| o.exit)
                    .map_or(Json::Null, |c| Json::Int(i64::from(c))),
            ),
            ("secs".to_owned(), elapsed),
            (
                "eta_secs".to_owned(),
                eta_secs.map_or(Json::Null, Json::Num),
            ),
            (
                "error".to_owned(),
                outcome
                    .and_then(|o| o.error.clone())
                    .map_or(Json::Null, Json::Str),
            ),
            ("readopted".to_owned(), Json::Bool(self.readopted)),
            ("attempt".to_owned(), Json::Uint(u64::from(self.attempt()))),
        ])
    }
}

/// The shared job table: submit-ordered records behind one mutex.
#[derive(Debug, Default)]
pub struct JobTable {
    inner: Mutex<Vec<Job>>,
}

impl JobTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> JobTable {
        JobTable::default()
    }

    /// Adds a record (ids are unique by construction).
    pub fn insert(&self, job: Job) {
        self.inner.lock().expect("job table lock").push(job);
    }

    /// Drops the record for `id` (an admission that could not be
    /// journaled).
    pub fn remove(&self, id: &str) {
        self.inner
            .lock()
            .expect("job table lock")
            .retain(|j| j.id != id);
    }

    /// A clone of the record for `id`.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<Job> {
        self.with(id, Job::clone)
    }

    /// Reads the record for `id` under the lock, cloning nothing.
    pub fn with<R>(&self, id: &str, f: impl FnOnce(&Job) -> R) -> Option<R> {
        let inner = self.inner.lock().expect("job table lock");
        inner.iter().find(|j| j.id == id).map(f)
    }

    /// Whether `id` is a known job.
    #[must_use]
    pub fn contains(&self, id: &str) -> bool {
        self.with(id, |_| ()).is_some()
    }

    /// The telemetry of job `id`.
    pub(crate) fn telemetry(&self, id: &str) -> Option<Arc<JobTelemetry>> {
        self.with(id, |j| Arc::clone(&j.telemetry))
    }

    /// Applies `f` to the record for `id`; `false` when unknown.
    pub fn update(&self, id: &str, f: impl FnOnce(&mut Job)) -> bool {
        let mut inner = self.inner.lock().expect("job table lock");
        inner.iter_mut().find(|j| j.id == id).map(f).is_some()
    }

    /// Atomically checks terminality and requests a cancel kill under
    /// the table lock, so a cancel racing the runner's terminal flip
    /// (which also happens under this lock) gets a clean verdict: the
    /// flag can never be set *after* the record went terminal.
    #[must_use]
    pub fn request_cancel(&self, id: &str) -> CancelVerdict {
        self.with(id, |job| match job.state() {
            state if state.is_terminal() => CancelVerdict::Terminal(state),
            _ => {
                let _ = job.request_kill(KillReason::Cancel);
                CancelVerdict::Requested
            }
        })
        .unwrap_or(CancelVerdict::NotFound)
    }

    /// Visits every record in submit order, under the lock.
    pub fn for_each(&self, f: impl FnMut(&Job)) {
        self.inner
            .lock()
            .expect("job table lock")
            .iter()
            .for_each(f);
    }

    /// `(queued, running)` counts.
    #[must_use]
    pub fn active_counts(&self) -> (usize, usize) {
        let inner = self.inner.lock().expect("job table lock");
        inner.iter().fold((0, 0), |(q, r), j| match j.state() {
            JobState::Queued => (q + 1, r),
            JobState::Running => (q, r + 1),
            _ => (q, r),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec::parse(r#"{"kind":"generate","env":"mail","span":10,"seed":1}"#).unwrap()
    }

    #[test]
    fn table_tracks_states_and_counts() {
        let table = JobTable::new();
        table.insert(Job::new("job-0001".to_owned(), spec(), 16));
        table.insert(Job::new("job-0002".to_owned(), spec(), 16));
        assert_eq!(table.active_counts(), (2, 0));
        assert!(table.update("job-0001", |j| {
            j.push(Instant::now(), Transition::Running { attempt: 0 });
        }));
        assert_eq!(table.active_counts(), (1, 1));
        assert!(!table.update("nope", |_| {}));
        let mut ids: Vec<String> = Vec::new();
        table.for_each(|j| ids.push(j.id.clone()));
        assert_eq!(ids, ["job-0001", "job-0002"]);
    }

    #[test]
    fn job_json_reports_cancelling_and_elapsed() {
        let mut job = Job::new("job-0001".to_owned(), spec(), 16);
        job.push(Instant::now(), Transition::Running { attempt: 0 });
        assert!(job.request_kill(KillReason::Cancel));
        let doc = job.to_json(Some(2.5));
        assert_eq!(doc.get("state").and_then(Json::as_str), Some("cancelling"));
        assert!(doc.get("secs").and_then(Json::as_f64).is_some());
        assert_eq!(doc.get("eta_secs").and_then(Json::as_f64), Some(2.5));
        assert_eq!(doc.get("attempt").and_then(Json::as_u64), Some(0));

        job.push(
            Instant::now(),
            Transition::Terminal(Outcome {
                state: JobState::Failed,
                exit: Some(101),
                secs: 1.25,
                error: Some("boom".to_owned()),
            }),
        );
        let doc = job.to_json(None);
        assert_eq!(doc.get("state").and_then(Json::as_str), Some("failed"));
        assert_eq!(doc.get("secs").and_then(Json::as_f64), Some(1.25));
        assert_eq!(doc.get("error").and_then(Json::as_str), Some("boom"));
        // Terminal states parse back through the journal vocabulary.
        assert_eq!(JobState::parse("failed"), Some(JobState::Failed));
        assert_eq!(JobState::parse("timed_out"), Some(JobState::TimedOut));
        assert_eq!(JobState::parse("stalled"), Some(JobState::Stalled));
        assert_eq!(JobState::parse("quarantined"), Some(JobState::Quarantined));
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::TimedOut.is_terminal());
        assert!(JobState::Quarantined.is_terminal());
        assert!(!JobState::Running.is_terminal());
    }

    #[test]
    fn kill_requests_are_first_reason_wins_and_cancel_is_atomic() {
        let table = JobTable::new();
        table.insert(Job::new("job-0001".to_owned(), spec(), 16));
        let job = table.get("job-0001").unwrap();
        assert!(job.request_kill(KillReason::Deadline));
        assert!(!job.request_kill(KillReason::Cancel), "first reason wins");
        assert_eq!(job.kill_reason(), Some(KillReason::Deadline));
        job.clear_kill();
        assert_eq!(job.kill_reason(), None);

        assert_eq!(table.request_cancel("nope"), CancelVerdict::NotFound);
        assert_eq!(table.request_cancel("job-0001"), CancelVerdict::Requested);
        assert!(table.update("job-0001", |j| j.push(
            Instant::now(),
            Transition::Terminal(Outcome {
                state: JobState::Done,
                ..Outcome::cancelled()
            })
        )));
        assert_eq!(
            table.request_cancel("job-0001"),
            CancelVerdict::Terminal(JobState::Done)
        );
    }
}
