//! Simulation-as-a-service for the spindle toolkit.
//!
//! `spindle serve` promotes the read-only pulse telemetry endpoint
//! into a long-lived job service: clients `POST /jobs` a JSON spec
//! naming one of the existing CLI verbs (simulate / analyze /
//! generate / matrix), the daemon validates it, admits it
//! into a bounded FIFO queue (HTTP 429 + `Retry-After` when full),
//! and executes it with a configurable job-level parallelism cap.
//!
//! Each accepted job gets a deterministic id (`job-0001`, ...) and a
//! per-job artifact directory holding `spec.json`, the captured
//! `stdout.txt` / `stderr.txt`, `result.json`, and whatever the spec
//! asked for (`metrics.json`, `trace.json`, `timescales.json`).
//! Because a spec maps onto the exact argv the CLI would receive, a
//! job's `stdout.txt` is byte-identical to running the same verb
//! directly.
//!
//! Jobs execute as child processes of the daemon: the `spindle`
//! binary itself for CLI verbs, the sibling `experiments` binary for
//! matrix jobs. That buys three guarantees at once — captured stdout
//! is exactly the CLI's, cancellation is a kill, and a job that
//! panics (e.g. under `--faults panic@N`, quarantined by the engine's
//! panic isolation inside the child) burns down only its own process:
//! the job is reported `failed` and the daemon keeps serving.
//!
//! Every admission and completion is fsynced to a journal
//! (`journal.jsonl`) before the daemon acts on it, so a SIGKILLed
//! daemon restarted with `--resume-dir` re-adopts the jobs that still
//! owe work and replays finished ones as history. Execution is
//! at-least-once: a job killed mid-run re-runs from scratch on
//! resume, and because jobs are deterministic the second attempt's
//! artifacts are byte-identical to what the first would have written.
//!
//! A supervision layer hardens the lifecycle: per-job deadlines and a
//! telemetry-liveness watchdog kill hung children (`timed_out` /
//! `stalled`), transient failures retry with deterministic exponential
//! backoff (each attempt journaled, so resume replays the history),
//! specs that burn every attempt are `quarantined` behind a circuit
//! breaker that fast-rejects identical resubmissions, and
//! [`ServeHandle::drain`] turns SIGTERM into a graceful handoff:
//! admission answers 503 + `Retry-After`, running jobs get a grace
//! period, and whatever is still unfinished is left for the next
//! `--resume-dir` daemon with no terminal journal record.
//!
//! The [`loadtest`] module drives hundreds of concurrent clients
//! against a live server and reports submit-latency percentiles,
//! throughput, and rejection counts; the [`chaos`] module injects
//! seeded faults (kills, hangs, stalls, poison specs, drain) and
//! asserts every admitted job still reaches exactly one terminal
//! state that the journal explains.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod client;
pub mod job;
pub mod journal;
pub mod loadtest;
pub mod queue;
mod runner;
mod server;
pub mod spec;
mod supervise;
mod telemetry;
pub mod trace;

use crate::job::{Job, JobState, JobTable};
use crate::journal::{Journal, JOURNAL_FILE};
use crate::queue::{JobQueue, PushError};
use crate::spec::{JobSpec, SpecError};
use spindle_obs::json::Json;
use spindle_obs::MetricsRegistry;
use spindle_pulse::{RunStatus, Sampler};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Default bind address for the job service (one above the pulse
/// telemetry default, so a job daemon and a `--serve` run coexist).
pub const DEFAULT_ADDR: &str = "127.0.0.1:9185";

/// Default queue bound when `--queue-bound` is not given.
pub const DEFAULT_QUEUE_BOUND: usize = 16;

/// Default job-level parallelism when `--parallel` is not given.
pub const DEFAULT_PARALLEL: usize = 2;

/// Upper bound on `Retry-After` seconds advertised on a 429.
const MAX_RETRY_AFTER_SECS: u64 = 60;

/// Starting estimate of a job's wall time, until completions feed the
/// EWMA that drives `Retry-After`.
const DEFAULT_JOB_MS: u64 = 1000;

/// Default ceiling on any job deadline: one day.
pub const DEFAULT_MAX_DEADLINE_SECS: u64 = 86_400;

/// Default stall timeout (`--stall-timeout 0` disables).
pub const DEFAULT_STALL_TIMEOUT_SECS: u64 = 60;

/// Default retry budget for transient failures.
pub const DEFAULT_MAX_RETRIES: u32 = 2;

/// Default base backoff between retry attempts.
pub const DEFAULT_RETRY_BASE_MS: u64 = 500;

/// Configuration for a serve daemon.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` asks the OS for a free port).
    pub addr: String,
    /// Admission bound on the queued-job count.
    pub queue_bound: usize,
    /// How many jobs may execute concurrently.
    pub parallel: usize,
    /// Root directory for the journal and per-job artifact dirs.
    pub dir: PathBuf,
    /// Whether an existing journal in `dir` should be re-adopted
    /// (`--resume-dir`) rather than treated as an error.
    pub resume: bool,
    /// The `spindle` binary jobs run on (defaults to the current
    /// executable).
    pub spindle_bin: PathBuf,
    /// The `experiments` binary for matrix jobs; `None` rejects
    /// matrix specs at admission.
    pub experiments_bin: Option<PathBuf>,
    /// Capacity of each job's bounded event ring (the
    /// `GET /jobs/ID/events` buffer). A consumer that falls behind
    /// loses the oldest events, with the exact count reported in-band.
    pub event_ring_cap: usize,
    /// Runner heartbeat cadence in milliseconds: lifecycle events
    /// pushed while a child runs, so even children that never speak
    /// the telemetry protocol produce a live event stream.
    pub heartbeat_ms: u64,
    /// Deadline applied to jobs whose spec carries no `deadline_secs`
    /// of its own (`None` means no default: such jobs may run until
    /// they finish or stall).
    pub default_deadline_secs: Option<u64>,
    /// Ceiling clamped onto every deadline, spec-supplied or default.
    pub max_deadline_secs: u64,
    /// Kill a child whose telemetry frames go silent for this long
    /// (`None` disables stall detection). Only children that spoke the
    /// frame protocol at least once are eligible — silence from a mute
    /// child means nothing.
    pub stall_timeout_secs: Option<u64>,
    /// Retry budget for transient failures (killed child, stalled
    /// telemetry): a job gets `1 + max_retries` attempts in total.
    pub max_retries: u32,
    /// Base retry backoff in milliseconds; attempt `n` waits
    /// `base * 2^n` plus deterministic per-job jitter.
    pub retry_base_ms: u64,
}

impl ServeConfig {
    /// A config with defaults: current executable as the job binary,
    /// a sibling `experiments` binary when one exists.
    #[must_use]
    pub fn new(addr: &str, dir: impl Into<PathBuf>) -> ServeConfig {
        let spindle_bin = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("spindle"));
        let experiments_bin = spindle_bin
            .parent()
            .map(|p| p.join("experiments"))
            .filter(|p| p.is_file());
        ServeConfig {
            addr: addr.to_owned(),
            queue_bound: DEFAULT_QUEUE_BOUND,
            parallel: DEFAULT_PARALLEL,
            dir: dir.into(),
            resume: false,
            spindle_bin,
            experiments_bin,
            event_ring_cap: telemetry::DEFAULT_EVENT_RING_CAP,
            heartbeat_ms: telemetry::DEFAULT_HEARTBEAT_MS,
            default_deadline_secs: None,
            max_deadline_secs: DEFAULT_MAX_DEADLINE_SECS,
            stall_timeout_secs: Some(DEFAULT_STALL_TIMEOUT_SECS),
            max_retries: DEFAULT_MAX_RETRIES,
            retry_base_ms: DEFAULT_RETRY_BASE_MS,
        }
    }
}

/// The verdict of an admission attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Accepted under `id`; the job is queued.
    Accepted(String),
    /// Queue full: advertise `Retry-After`.
    Full {
        /// Seconds the client should wait before retrying.
        retry_after_secs: u64,
        /// Queue depth at rejection time.
        queued: usize,
    },
    /// The daemon is draining: no new work is admitted.
    Draining {
        /// Seconds the client should wait before retrying (against
        /// whatever daemon replaces this one).
        retry_after_secs: u64,
    },
    /// The spec matches an open poison-circuit breaker.
    Poisoned {
        /// Why the breaker opened (the quarantined twin's error).
        reason: String,
        /// Seconds until the breaker half-opens.
        retry_after_secs: u64,
    },
}

/// Shared daemon state: queue, table, journal, metrics, status.
pub(crate) struct Shared {
    pub config: ServeConfig,
    /// The advertised admission bound. The queue's own capacity can be
    /// larger after a resume (re-adopted jobs bypass admission), so
    /// `admit` checks depth against this, not [`JobQueue::bound`].
    pub admission_bound: usize,
    pub queue: JobQueue,
    pub table: JobTable,
    journal: Mutex<Journal>,
    /// Serializes id allocation + journal append + enqueue so journal
    /// order equals queue order.
    admission: Mutex<u64>,
    pub registry: &'static MetricsRegistry,
    pub status: Arc<RunStatus>,
    pub sampler: Arc<Sampler>,
    /// Per-job telemetry: event rings, progress, liveness, spans.
    pub telemetry: telemetry::TelemetryMap,
    /// The daemon-wide timeline origin `/trace` aligns every job's
    /// telemetry epoch against.
    pub epoch: std::time::Instant,
    /// Live `GET /jobs/ID/events` streams (bounded; excess gets 503).
    pub event_streams: AtomicUsize,
    /// EWMA of completed-job wall time in milliseconds (drives
    /// `Retry-After`); 0 until the first completion.
    ewma_ms: AtomicU64,
    /// Supervision state: drain flag, parked retries, poison breaker.
    pub supervisor: supervise::Supervisor,
    pub stop: AtomicBool,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("config", &self.config)
            .field("queue_depth", &self.queue.depth())
            .finish_non_exhaustive()
    }
}

impl Shared {
    /// The artifact directory for `id`.
    pub fn job_dir(&self, id: &str) -> PathBuf {
        self.config.dir.join(id)
    }

    /// Environmental validation that [`JobSpec::parse`] cannot do:
    /// input files must exist, matrix jobs need the experiments
    /// binary.
    pub fn check_runnable(&self, spec: &JobSpec) -> Result<(), SpecError> {
        if let Some(input) = &spec.input {
            if !std::path::Path::new(input).is_file() {
                return Err(SpecError {
                    field: "input".to_owned(),
                    message: format!("no such file on the server: `{input}`"),
                });
            }
        }
        if spec.uses_experiments() && self.config.experiments_bin.is_none() {
            return Err(SpecError {
                field: "kind".to_owned(),
                message: "matrix jobs unavailable: no experiments binary next to the server"
                    .to_owned(),
            });
        }
        Ok(())
    }

    /// Admits a validated spec: allocates the next id, journals the
    /// submission, inserts the table record, and enqueues — or turns
    /// a full queue into a `Retry-After` verdict.
    ///
    /// # Errors
    ///
    /// Returns a message (HTTP 500/503 material) when the artifact
    /// dir or journal cannot be written, or the daemon is stopping.
    pub fn admit(&self, spec: JobSpec) -> Result<Admission, String> {
        let admit_start = std::time::Instant::now();
        if self.supervisor.is_draining() {
            self.registry.counter("serve.jobs_rejected").inc();
            return Ok(Admission::Draining {
                retry_after_secs: self.retry_after_secs(self.queue.depth().max(1)),
            });
        }
        if let Some((reason, retry_after_secs)) =
            self.supervisor.breaker_check(supervise::fingerprint(&spec))
        {
            self.registry.counter("serve.jobs_poisoned").inc();
            return Ok(Admission::Poisoned {
                reason,
                retry_after_secs,
            });
        }
        let mut seq = self.admission.lock().expect("admission lock");
        let queued = self.queue.depth();
        if queued >= self.admission_bound {
            self.registry.counter("serve.jobs_rejected").inc();
            return Ok(Admission::Full {
                retry_after_secs: self.retry_after_secs(queued),
                queued,
            });
        }
        *seq += 1;
        let id = format!("job-{seq:04}");
        let dir = self.job_dir(&id);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create artifact dir `{}`: {e}", dir.display()))?;
        std::fs::write(dir.join("spec.json"), format!("{}\n", spec.to_json()))
            .map_err(|e| format!("cannot write spec.json for `{id}`: {e}"))?;
        self.journal
            .lock()
            .expect("journal lock")
            .submitted(&id, &spec)?;
        let mut job = Job::new(id.clone(), spec);
        job.deadline_secs = self.effective_deadline(job.spec.deadline_secs);
        self.table.insert(job);
        // The event stream exists from `queued` on, so a watcher that
        // connects before the runner claims the job misses nothing.
        let tel = self.job_telemetry(&id);
        tel.event("state", vec![("state", Json::Str("queued".to_owned()))]);
        // Trace bookkeeping: the admission decision is the first span
        // on the job's daemon timeline, and the queue wait starts now.
        tel.trace_span(
            "daemon",
            "admit",
            admit_start,
            admit_start.elapsed(),
            vec![("id".to_owned(), Json::Str(id.clone()))],
        );
        tel.mark_runnable(std::time::Instant::now());
        match self.queue.push(id.clone()) {
            Ok(()) => {}
            Err(PushError::Full) => unreachable!("depth checked under the admission lock"),
            Err(PushError::Closed) => return Err("server is shutting down".to_owned()),
        }
        drop(seq);
        self.registry.counter("serve.jobs_accepted").inc();
        self.status.add_total(1);
        self.refresh_gauges();
        Ok(Admission::Accepted(id))
    }

    /// The deadline actually enforced for a job: the spec's own (or
    /// the daemon default), clamped by the configured ceiling.
    fn effective_deadline(&self, spec_deadline: Option<u64>) -> Option<u64> {
        spec_deadline
            .or(self.config.default_deadline_secs)
            .map(|d| d.min(self.config.max_deadline_secs.max(1)))
    }

    /// Re-adopts or replays one journal-loaded job (resume path);
    /// returns whether it was re-enqueued.
    fn adopt(&self, loaded: journal::LoadedJob) -> bool {
        let mut job = Job::new(loaded.id.clone(), loaded.spec);
        self.status.add_total(1);
        match loaded.finished {
            Some(f) => {
                job.state = f.state;
                job.exit = f.exit;
                job.secs = Some(f.secs);
                self.table.insert(job);
                self.status.complete_one();
                false
            }
            None => {
                job.readopted = true;
                // Resume replays the attempt history: the re-run picks
                // up at the journaled ordinal, so its backoff schedule
                // and retry budget continue where the dead daemon's
                // left off.
                job.attempt = loaded.attempts;
                job.deadline_secs = self.effective_deadline(job.spec.deadline_secs);
                self.table.insert(job);
                let tel = self.job_telemetry(&loaded.id);
                tel.event("state", vec![("state", Json::Str("queued".to_owned()))]);
                tel.mark_runnable(std::time::Instant::now());
                self.queue
                    .push(loaded.id)
                    .expect("resume queue sized for every incomplete job");
                true
            }
        }
    }

    /// Marks `id` terminal: table update, journal append, counters,
    /// EWMA feed, progress tick.
    pub fn finish_job(
        &self,
        id: &str,
        state: JobState,
        exit: Option<i32>,
        secs: f64,
        error: Option<String>,
    ) {
        // Terminal event and counter first, table second: a watcher
        // that observes the terminal state is guaranteed the `end`
        // event is already in the ring (so the stream can close
        // without losing it) and the terminal counter is already on
        // `/metrics` (so state and counters never disagree — the
        // journal fsync below is a wide window to scrape through).
        self.job_telemetry(id).event(
            "end",
            vec![
                ("state", Json::Str(state.as_str().to_owned())),
                ("exit", exit.map_or(Json::Null, |c| Json::Int(i64::from(c)))),
                ("secs", Json::Num(secs)),
                ("error", error.clone().map_or(Json::Null, Json::Str)),
            ],
        );
        let counter = match state {
            JobState::Done => "serve.jobs_completed",
            JobState::Failed => "serve.jobs_failed",
            JobState::TimedOut => "serve.jobs_timed_out",
            JobState::Stalled => "serve.jobs_stalled",
            JobState::Quarantined => "serve.jobs_quarantined",
            _ => "serve.jobs_cancelled",
        };
        self.registry.counter(counter).inc();
        self.table.update(id, |job| {
            job.state = state;
            job.exit = exit;
            job.secs = Some(secs);
            job.error = error;
        });
        if let Err(e) = self
            .journal
            .lock()
            .expect("journal lock")
            .finished(id, state, exit, secs)
        {
            eprintln!("# serve: {e}");
        }
        if state == JobState::Done {
            let ms = (secs * 1000.0).clamp(1.0, 86_400_000.0) as u64;
            let prev = self.ewma_ms.load(Ordering::Relaxed);
            let next = if prev == 0 {
                ms
            } else {
                (7 * prev + 3 * ms) / 10
            };
            self.ewma_ms.store(next.max(1), Ordering::Relaxed);
        }
        self.status.complete_one();
        self.refresh_gauges();
    }

    /// Journals a retry attempt (best effort, like `finished`: the
    /// table is authoritative for live state, the journal for resume).
    pub(crate) fn journal_attempt(
        &self,
        id: &str,
        attempt: u32,
        reason: &str,
        backoff_ms: u64,
        secs: f64,
    ) {
        if let Err(e) = self
            .journal
            .lock()
            .expect("journal lock")
            .attempt(id, attempt, reason, backoff_ms, secs)
        {
            eprintln!("# serve: {e}");
        }
    }

    /// The `Retry-After` estimate for a rejected submit: the queue's
    /// worth of EWMA job time divided across the runners.
    pub fn retry_after_secs(&self, queued: usize) -> u64 {
        let ewma = self.ewma_ms.load(Ordering::Relaxed).max(DEFAULT_JOB_MS);
        let backlog_ms = ewma * queued as u64 / self.config.parallel.max(1) as u64;
        (backlog_ms.div_ceil(1000)).clamp(1, MAX_RETRY_AFTER_SECS)
    }

    /// The job's telemetry record, created on first touch.
    pub(crate) fn job_telemetry(&self, id: &str) -> Arc<telemetry::JobTelemetry> {
        self.telemetry.ensure(id, self.config.event_ring_cap)
    }

    /// The server's ETA estimate for a running job. A job streaming
    /// its own progress frames gets a first-person estimate — rate
    /// over a steady sample window, the same clamp `/status` applies —
    /// and only jobs with no telemetry fall back to the queue-wide
    /// EWMA minus elapsed (`None` before any completion fed it).
    pub fn job_eta_secs(&self, job: &Job) -> Option<f64> {
        if job.state != JobState::Running {
            return None;
        }
        if let Some(eta) = self.telemetry.get(&job.id).and_then(|t| t.eta_secs()) {
            return Some(eta);
        }
        let ewma = self.ewma_ms.load(Ordering::Relaxed);
        if ewma == 0 {
            return None;
        }
        let elapsed = job.started.map_or(0.0, |t| t.elapsed().as_secs_f64());
        Some((ewma as f64 / 1000.0 - elapsed).max(0.0))
    }

    /// Publishes queue-depth / active-jobs gauges and flips the
    /// server-wide phase between `running` and `idle`.
    pub fn refresh_gauges(&self) {
        let (queued, running) = self.table.active_counts();
        self.registry.gauge("serve.queue_depth").set(queued as i64);
        self.registry.gauge("serve.active_jobs").set(running as i64);
        self.status.set_phase(if queued + running > 0 {
            "running"
        } else {
            "idle"
        });
    }
}

/// A running serve daemon; [`ServeHandle::stop`] shuts it down in
/// order (listener, queue, runners, sampler).
#[derive(Debug)]
pub struct ServeHandle {
    shared: Arc<Shared>,
    http: spindle_pulse::http::Acceptor,
    runner_threads: Vec<std::thread::JoinHandle<()>>,
    watchdog: std::thread::JoinHandle<()>,
}

impl ServeHandle {
    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.http.local_addr()
    }

    /// Stops accepting, drains nothing further from the queue, waits
    /// for in-flight jobs to finish, and stops the sampler.
    pub fn stop(self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.queue.close();
        self.http.stop();
        for h in self.runner_threads {
            let _ = h.join();
        }
        let _ = self.watchdog.join();
        self.shared.sampler.stop();
    }

    /// Flips the daemon into draining: admission answers 503 +
    /// `Retry-After`, runners stop claiming queued work, running jobs
    /// keep going. Idempotent.
    pub fn begin_drain(&self) {
        if self.shared.supervisor.begin_drain() {
            self.shared.registry.counter("serve.drains").inc();
            self.shared.status.set_phase("draining");
        }
    }

    /// Graceful shutdown: [`ServeHandle::begin_drain`], wait up to
    /// `timeout` for running jobs to finish, then request a `Drain`
    /// kill on whatever is still running and stop. Drain-killed and
    /// still-queued jobs write no terminal journal record, so a
    /// restart with `--resume-dir` re-adopts all of them losslessly.
    pub fn drain(self, timeout: std::time::Duration) {
        self.begin_drain();
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            let (_, running) = self.shared.table.active_counts();
            if running == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        for job in self.shared.table.snapshot() {
            if job.state == JobState::Running {
                job.request_kill(crate::job::KillReason::Drain);
            }
        }
        self.stop();
    }

    /// Blocks this thread for the daemon's lifetime (the CLI's serve
    /// loop; only process signals end it).
    pub fn park(&self) -> ! {
        loop {
            std::thread::park();
        }
    }
}

/// Starts the daemon on the process-global metrics registry.
///
/// # Errors
///
/// Returns a message when the bind, directory, or journal fails —
/// including a fresh (non-`resume`) start pointed at a directory that
/// already holds a journal.
pub fn serve(config: ServeConfig) -> Result<ServeHandle, String> {
    serve_with_registry(config, spindle_obs::global())
}

/// [`serve`] with an explicit registry (tests use a private one so
/// counters don't bleed between cases).
///
/// # Errors
///
/// As [`serve`].
pub fn serve_with_registry(
    config: ServeConfig,
    registry: &'static MetricsRegistry,
) -> Result<ServeHandle, String> {
    std::fs::create_dir_all(&config.dir)
        .map_err(|e| format!("cannot create serve dir `{}`: {e}", config.dir.display()))?;
    let journal_path = config.dir.join(JOURNAL_FILE);
    let adopted = if journal_path.is_file() {
        if !config.resume {
            return Err(format!(
                "`{}` already holds a journal from a previous server; \
                 pass --resume-dir to re-adopt its jobs or point --dir at a fresh directory",
                config.dir.display()
            ));
        }
        journal::load(&journal_path)?
    } else {
        Vec::new()
    };
    let journal = Journal::open(&journal_path)?;

    let incomplete = adopted.iter().filter(|j| j.finished.is_none()).count();
    let max_seq = adopted
        .iter()
        .filter_map(|j| j.id.strip_prefix("job-")?.parse::<u64>().ok())
        .max()
        .unwrap_or(0);
    // Seed the admission EWMA from journaled completions, replayed in
    // journal order: a resumed daemon's `Retry-After` advice reflects
    // observed job durations from the first rejection instead of
    // restarting at the cold default.
    let mut ewma_seed = 0u64;
    for loaded in &adopted {
        if let Some(f) = &loaded.finished {
            if f.state == JobState::Done {
                let ms = (f.secs * 1000.0).clamp(1.0, 86_400_000.0) as u64;
                ewma_seed = if ewma_seed == 0 {
                    ms
                } else {
                    (7 * ewma_seed + 3 * ms) / 10
                }
                .max(1);
            }
        }
    }

    let status = Arc::new(RunStatus::new(0));
    status.set_phase("idle");
    status.set_progress_counter(registry.counter(spindle_pulse::status::PROGRESS_METRIC));
    let sampler = Sampler::start(
        registry,
        spindle_pulse::SAMPLE_CADENCE,
        spindle_pulse::SAMPLE_CAPACITY,
    );

    let shared = Arc::new(Shared {
        admission_bound: config.queue_bound.max(1),
        // Re-adopted jobs bypass admission control: the queue must
        // hold all of them plus the configured bound's worth of new
        // work.
        queue: JobQueue::new(config.queue_bound.max(1) + incomplete),
        table: JobTable::new(),
        journal: Mutex::new(journal),
        admission: Mutex::new(max_seq),
        registry,
        status,
        sampler,
        telemetry: telemetry::TelemetryMap::default(),
        epoch: std::time::Instant::now(),
        event_streams: AtomicUsize::new(0),
        ewma_ms: AtomicU64::new(ewma_seed),
        supervisor: supervise::Supervisor::new(),
        stop: AtomicBool::new(false),
        config,
    });
    // The admission bound stays the configured one even though the
    // deque is larger: `admit` checks depth against `admission_bound`.
    for loaded in adopted {
        shared.adopt(loaded);
    }
    shared.refresh_gauges();

    let addr = shared.config.addr.clone();
    let http =
        server::start(&addr, &shared).map_err(|e| format!("cannot serve jobs on `{addr}`: {e}"))?;
    let runner_threads = runner::spawn(&shared, shared.config.parallel.max(1));
    let watchdog = supervise::spawn_watchdog(&shared);
    Ok(ServeHandle {
        shared,
        http,
        runner_threads,
        watchdog,
    })
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::client::{request, Response};
    use spindle_obs::json::Json;
    use std::time::{Duration, Instant};

    /// A stand-in job binary: deterministic output from its argv, a
    /// long sleep for "blocker" jobs (span >= 1000), a synthetic
    /// failure for span 666, a SIGKILL suicide for span 888 (poison),
    /// a once-then-fine SIGKILL for span 777 (transient, keyed on
    /// a marker file per seed), and for span 555 a child that writes
    /// its telemetry sink address to `$0.sink.SEED` and waits for
    /// `$0.go.SEED`, so the test can stream frames on its behalf.
    /// Tests never spawn the real CLI (under `cargo test` the current
    /// executable is the test harness).
    fn fake_bin(dir: &std::path::Path) -> PathBuf {
        use std::os::unix::fs::PermissionsExt;
        let path = dir.join("fake-spindle.sh");
        std::fs::write(
            &path,
            "#!/bin/sh\nspan=0\nseed=0\nprev=\"\"\nfor a in \"$@\"; do\n  \
             if [ \"$prev\" = \"--span\" ]; then span=$a; fi\n  \
             if [ \"$prev\" = \"--seed\" ]; then seed=$a; fi\n  prev=$a\ndone\n\
             if [ \"$span\" -ge 1000 ]; then sleep 20; fi\n\
             if [ \"$span\" = \"666\" ]; then echo synthetic-failure >&2; exit 3; fi\n\
             if [ \"$span\" = \"888\" ]; then kill -9 $$; fi\n\
             if [ \"$span\" = \"555\" ]; then\n  \
             echo \"$SPINDLE_TELEMETRY_SINK\" > \"$0.sink.$seed\"\n  \
             while [ ! -f \"$0.go.$seed\" ]; do sleep 0.01; done\nfi\n\
             if [ \"$span\" = \"777\" ]; then\n  marker=\"$0.marker.$seed\"\n  \
             if [ ! -f \"$marker\" ]; then touch \"$marker\"; kill -9 $$; fi\nfi\n\
             echo \"fake:$*\"\n",
        )
        .unwrap();
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
        path
    }

    fn test_daemon(
        name: &str,
        queue_bound: usize,
        parallel: usize,
    ) -> (ServeHandle, String, PathBuf) {
        test_daemon_with(name, queue_bound, parallel, |_| {})
    }

    fn test_daemon_with(
        name: &str,
        queue_bound: usize,
        parallel: usize,
        tweak: impl FnOnce(&mut ServeConfig),
    ) -> (ServeHandle, String, PathBuf) {
        let dir = std::env::temp_dir().join(format!("spindle-serve-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mut config = ServeConfig::new("127.0.0.1:0", dir.join("data"));
        config.queue_bound = queue_bound;
        config.parallel = parallel;
        config.spindle_bin = fake_bin(&dir);
        config.experiments_bin = None;
        tweak(&mut config);
        let registry: &'static MetricsRegistry = Box::leak(Box::default());
        let handle = serve_with_registry(config, registry).expect("daemon starts");
        let addr = handle.local_addr().to_string();
        (handle, addr, dir)
    }

    fn wait_for<F: FnMut() -> bool>(what: &str, mut f: F) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !f() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    fn job_state(addr: &str, id: &str) -> String {
        let r = request(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
        spindle_obs::json::parse(r.body.trim())
            .ok()
            .and_then(|doc| doc.get("state").and_then(Json::as_str).map(str::to_owned))
            .unwrap_or_default()
    }

    fn submit(addr: &str, body: &str) -> Response {
        request(addr, "POST", "/jobs", Some(body)).unwrap()
    }

    #[test]
    fn full_queue_rejects_with_retry_after_and_drains_after_cancel() {
        let (handle, addr, dir) = test_daemon("admission", 2, 1);

        // A blocker occupies the single runner...
        let r = submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":2000,"seed":1}"#,
        );
        assert_eq!(r.status, 201, "{}", r.body);
        let blocker = spindle_obs::json::parse(r.body.trim())
            .unwrap()
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        wait_for("blocker to run", || job_state(&addr, &blocker) == "running");

        // ...two more fill the queue; the next is refused with advice.
        let a = submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":10,"seed":2}"#,
        );
        let b = submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":10,"seed":3}"#,
        );
        assert_eq!((a.status, b.status), (201, 201));
        let rejected = submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":10,"seed":4}"#,
        );
        assert_eq!(rejected.status, 429, "{}", rejected.body);
        let retry: u64 = rejected
            .header("retry-after")
            .expect("Retry-After")
            .parse()
            .unwrap();
        assert!((1..=60).contains(&retry));
        let doc = spindle_obs::json::parse(rejected.body.trim()).unwrap();
        assert_eq!(doc.get("error").and_then(Json::as_str), Some("queue full"));
        assert_eq!(doc.get("queued").and_then(Json::as_u64), Some(2));

        // Cancel the blocker: running -> cooperative kill.
        let c = request(&addr, "DELETE", &format!("/jobs/{blocker}"), None).unwrap();
        assert_eq!(c.status, 202, "{}", c.body);
        wait_for("blocker to cancel", || {
            job_state(&addr, &blocker) == "cancelled"
        });
        wait_for("queue to drain", || {
            let r = request(&addr, "GET", "/jobs", None).unwrap();
            let doc = spindle_obs::json::parse(r.body.trim()).unwrap();
            doc.get("queued").and_then(Json::as_u64) == Some(0)
                && doc.get("running").and_then(Json::as_u64) == Some(0)
        });

        // The accepted jobs completed with deterministic artifacts.
        let a_id = spindle_obs::json::parse(a.body.trim())
            .unwrap()
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        assert_eq!(job_state(&addr, &a_id), "done");
        let result = request(&addr, "GET", &format!("/jobs/{a_id}/result"), None).unwrap();
        assert_eq!(result.status, 200);
        let stdout = request(
            &addr,
            "GET",
            &format!("/jobs/{a_id}/artifacts/stdout.txt"),
            None,
        )
        .unwrap();
        assert_eq!(stdout.status, 200);
        assert_eq!(stdout.body, "fake:generate --env web --span 10 --seed 2\n");

        // Cancelling a terminal job is a conflict; traversal is refused.
        let again = request(&addr, "DELETE", &format!("/jobs/{blocker}"), None).unwrap();
        assert_eq!(again.status, 409);
        let escape = request(
            &addr,
            "GET",
            &format!("/jobs/{a_id}/artifacts/..%2Fjournal.jsonl"),
            None,
        )
        .unwrap();
        assert_ne!(escape.status, 200, "traversal must not serve files");

        // Idle again, and the serve counters made it to /metrics.
        wait_for("phase idle", || {
            let r = request(&addr, "GET", "/status", None).unwrap();
            r.body.contains("\"idle\"")
        });
        let metrics = request(&addr, "GET", "/metrics", None).unwrap().body;
        assert!(metrics.contains("serve_jobs_accepted 3"), "{metrics}");
        assert!(metrics.contains("serve_jobs_rejected 1"), "{metrics}");
        assert!(metrics.contains("serve_jobs_cancelled 1"), "{metrics}");
        assert!(metrics.contains("serve_jobs_completed 2"), "{metrics}");
        spindle_obs::prom::check_exposition(&metrics).expect("valid exposition");

        handle.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_submissions_get_structured_errors_and_never_kill_the_server() {
        let (handle, addr, dir) = test_daemon("hostile", 4, 1);
        for (body, field) in [
            ("{", "(body)"),
            ("", "(body)"),
            ("[1,2,3]", "(body)"),
            (r#"{"kind":"demolish"}"#, "kind"),
            (r#"{"kind":"generate"}"#, "env"),
            (r#"{"kind":"generate","env":"web","bogus":true}"#, "bogus"),
            (r#"{"kind":"simulate","input":"/no/such/file"}"#, "input"),
            (r#"{"kind":"matrix","quick":true}"#, "kind"),
        ] {
            let r = submit(&addr, body);
            assert_eq!(r.status, 400, "body {body} -> {}", r.body);
            let doc = spindle_obs::json::parse(r.body.trim()).expect("structured error");
            assert_eq!(
                doc.get("field").and_then(Json::as_str),
                Some(field),
                "body {body} -> {}",
                r.body
            );
        }
        // A failing job is reported failed, with the stderr tail.
        let r = submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":666,"seed":1}"#,
        );
        assert_eq!(r.status, 201);
        let id = spindle_obs::json::parse(r.body.trim())
            .unwrap()
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        wait_for("failure to land", || job_state(&addr, &id) == "failed");
        let detail = request(&addr, "GET", &format!("/jobs/{id}"), None).unwrap();
        assert!(detail.body.contains("synthetic-failure"), "{}", detail.body);
        let health = request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(health.status, 200, "server survived the hostility");
        handle.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deeply_nested_submissions_get_400_and_the_daemon_stays_up() {
        let (handle, addr, dir) = test_daemon("nested", 4, 1);
        // A megabyte of `[` fits the body cap; the JSON parser refuses
        // it at its depth limit instead of recursing off the stack of
        // the handler thread.
        let body = "[".repeat(spindle_pulse::http::MAX_BODY_BYTES);
        let r = submit(&addr, &body);
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains("nesting"), "{}", r.body);
        let health = request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(health.status, 200, "the daemon survived");
        handle.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_refuses_a_journal_holding_a_removed_job_kind() {
        let dir =
            std::env::temp_dir().join(format!("spindle-serve-oldkind-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join("data")).unwrap();
        std::fs::write(
            dir.join("data").join(JOURNAL_FILE),
            format!(
                "{{\"schema\":\"{}\"}}\n{{\"event\":\"submitted\",\"id\":\"job-0001\",\
                 \"spec\":{{\"kind\":\"observe\",\"input\":\"t.bin\"}}}}\n",
                journal::JOURNAL_SCHEMA
            ),
        )
        .unwrap();
        let mut config = ServeConfig::new("127.0.0.1:0", dir.join("data"));
        config.spindle_bin = fake_bin(&dir);
        config.resume = true;
        let registry: &'static MetricsRegistry = Box::leak(Box::default());
        let err = serve_with_registry(config, registry).expect_err("old kind refused");
        assert!(err.contains("job `job-0001`"), "{err}");
        assert!(err.contains("unknown kind `observe`"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_readopts_incomplete_jobs_and_fresh_start_refuses_them() {
        let dir = std::env::temp_dir().join(format!("spindle-serve-resume-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join("data")).unwrap();
        let spec =
            spec::JobSpec::parse(r#"{"kind":"generate","env":"dev","span":10,"seed":9}"#).unwrap();
        // A journal a killed daemon would leave: one finished job, one
        // submitted-but-unfinished.
        let mut journal = Journal::open(&dir.join("data").join(JOURNAL_FILE)).unwrap();
        journal.submitted("job-0001", &spec).unwrap();
        journal
            .finished("job-0001", JobState::Done, Some(0), 0.5)
            .unwrap();
        journal.submitted("job-0002", &spec).unwrap();
        drop(journal);

        let mut config = ServeConfig::new("127.0.0.1:0", dir.join("data"));
        config.queue_bound = 2;
        config.parallel = 1;
        config.spindle_bin = fake_bin(&dir);
        config.experiments_bin = None;

        // Without --resume-dir the stale journal is an error...
        let registry: &'static MetricsRegistry = Box::leak(Box::default());
        let err = serve_with_registry(config.clone(), registry).expect_err("stale journal refused");
        assert!(err.contains("--resume-dir"), "{err}");

        // ...with it, the orphan re-runs to completion.
        config.resume = true;
        let registry: &'static MetricsRegistry = Box::leak(Box::default());
        let handle = serve_with_registry(config, registry).expect("resume starts");
        let addr = handle.local_addr().to_string();
        wait_for("orphan to complete", || {
            job_state(&addr, "job-0002") == "done"
        });
        let detail = request(&addr, "GET", "/jobs/job-0002", None).unwrap();
        let doc = spindle_obs::json::parse(detail.body.trim()).unwrap();
        assert_eq!(doc.get("readopted"), Some(&Json::Bool(true)));
        // The replayed job kept its history without re-running.
        let old = spindle_obs::json::parse(
            request(&addr, "GET", "/jobs/job-0001", None)
                .unwrap()
                .body
                .trim(),
        )
        .unwrap();
        assert_eq!(old.get("state").and_then(Json::as_str), Some("done"));
        assert_eq!(old.get("readopted"), Some(&Json::Bool(false)));
        // New ids continue past the journaled ones.
        let r = submit(
            &addr,
            r#"{"kind":"generate","env":"dev","span":10,"seed":1}"#,
        );
        assert_eq!(r.status, 201);
        assert!(r.body.contains("job-0003"), "{}", r.body);
        wait_for("new job done", || job_state(&addr, "job-0003") == "done");
        handle.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn queued_jobs_cancel_immediately() {
        let (handle, addr, dir) = test_daemon("cancel-queued", 4, 1);
        let blocker = submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":2000,"seed":1}"#,
        );
        assert_eq!(blocker.status, 201);
        let blocker_id = spindle_obs::json::parse(blocker.body.trim())
            .unwrap()
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        wait_for("blocker running", || {
            job_state(&addr, &blocker_id) == "running"
        });
        let queued = submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":10,"seed":2}"#,
        );
        let queued_id = spindle_obs::json::parse(queued.body.trim())
            .unwrap()
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        let r = request(&addr, "DELETE", &format!("/jobs/{queued_id}"), None).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(job_state(&addr, &queued_id), "cancelled");
        let missing = request(&addr, "DELETE", "/jobs/job-9999", None).unwrap();
        assert_eq!(missing.status, 404);
        request(&addr, "DELETE", &format!("/jobs/{blocker_id}"), None).unwrap();
        wait_for("blocker cancelled", || {
            job_state(&addr, &blocker_id) == "cancelled"
        });
        handle.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Reads an SSE stream off a raw socket until the `end` sentinel
    /// (or `deadline`), returning the raw text.
    fn read_sse(stream: &mut std::net::TcpStream, deadline: Instant) -> String {
        use std::io::Read;
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut raw = String::new();
        let mut buf = [0u8; 4096];
        while Instant::now() < deadline && !raw.contains("event: end") {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => raw.push_str(&String::from_utf8_lossy(&buf[..n])),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => break,
            }
        }
        raw
    }

    #[test]
    fn event_stream_bounds_memory_and_accounts_every_drop() {
        // A tiny ring and a fast heartbeat force drops no matter how
        // fast the watcher reads: more events are produced between
        // stream polls than the ring retains.
        let (handle, addr, dir) = test_daemon_with("events-drop", 4, 1, |c| {
            c.event_ring_cap = 2;
            c.heartbeat_ms = 1;
        });
        let r = submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":2000,"seed":1}"#,
        );
        assert_eq!(r.status, 201, "{}", r.body);
        let id = spindle_obs::json::parse(r.body.trim())
            .unwrap()
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        wait_for("blocker running", || job_state(&addr, &id) == "running");

        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        {
            use std::io::Write;
            write!(stream, "GET /jobs/{id}/events HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        }
        // Let heartbeats overflow the ring for a while, then cancel so
        // the stream terminates.
        std::thread::sleep(Duration::from_millis(1200));
        request(&addr, "DELETE", &format!("/jobs/{id}"), None).unwrap();
        let raw = read_sse(&mut stream, Instant::now() + Duration::from_secs(20));
        assert!(raw.contains("event: end"), "stream must end:\n{raw}");

        // Exact accounting: every produced event was either received
        // or announced as dropped. Sequence ids are contiguous from 0,
        // so produced == max_id + 1.
        let ids: Vec<u64> = raw
            .lines()
            .filter_map(|l| l.strip_prefix("id: ")?.trim().parse().ok())
            .collect();
        let dropped: u64 = raw
            .lines()
            .filter_map(|l| {
                l.strip_prefix("data: {\"dropped\":")?
                    .trim_end_matches('}')
                    .parse::<u64>()
                    .ok()
            })
            .sum();
        let max_id = *ids.iter().max().expect("events received");
        assert!(dropped > 0, "tiny ring must have dropped:\n{raw}");
        assert_eq!(
            ids.len() as u64 + dropped,
            max_id + 1,
            "received + dropped == produced:\n{raw}"
        );
        // The stream carried real content: lifecycle + heartbeats +
        // the terminal event.
        assert!(raw.contains("\"type\":\"heartbeat\""), "{raw}");
        assert!(raw.contains("\"type\":\"end\""), "{raw}");
        assert!(raw.contains("\"state\":\"cancelled\""), "{raw}");
        // The daemon counted exactly what this (sole) watcher lost.
        let metrics = request(&addr, "GET", "/metrics", None).unwrap().body;
        assert!(
            metrics.contains(&format!("serve_events_dropped {dropped}")),
            "counter must match in-band accounting ({dropped}):\n{metrics}"
        );
        handle.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn job_metric_labels_exist_only_while_the_job_is_active() {
        let (handle, addr, dir) = test_daemon("job-labels", 4, 1);
        let idle = request(&addr, "GET", "/metrics", None).unwrap().body;
        assert!(!idle.contains("serve_job_state{"), "{idle}");
        spindle_obs::prom::check_exposition(&idle).expect("idle exposition");

        let r = submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":2000,"seed":1}"#,
        );
        let id = spindle_obs::json::parse(r.body.trim())
            .unwrap()
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        wait_for("blocker running", || job_state(&addr, &id) == "running");
        let active = request(&addr, "GET", "/metrics", None).unwrap().body;
        assert!(
            active.contains(&format!(
                "serve_job_state{{job=\"{id}\",state=\"running\"}} 1"
            )),
            "{active}"
        );
        assert!(
            active.contains(&format!("serve_job_progress{{job=\"{id}\"}}")),
            "{active}"
        );
        spindle_obs::prom::check_exposition(&active).expect("active exposition");

        request(&addr, "DELETE", &format!("/jobs/{id}"), None).unwrap();
        wait_for("cancelled", || job_state(&addr, &id) == "cancelled");
        let after = request(&addr, "GET", "/metrics", None).unwrap().body;
        assert!(
            !after.contains("serve_job_state{"),
            "terminal jobs must leave the exposition:\n{after}"
        );
        spindle_obs::prom::check_exposition(&after).expect("post-terminal exposition");
        handle.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn timescale_endpoints_serve_job_stream_and_daemon_documents() {
        let (handle, addr, dir) = test_daemon("timescales", 4, 1);
        let r = submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":10,"seed":1}"#,
        );
        let id = spindle_obs::json::parse(r.body.trim())
            .unwrap()
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        wait_for("job done", || job_state(&addr, &id) == "done");

        let r = request(&addr, "GET", &format!("/jobs/{id}/timescales"), None).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        let doc = spindle_obs::json::parse(r.body.trim()).unwrap();
        assert_eq!(doc.get("id").and_then(Json::as_str), Some(id.as_str()));
        assert_eq!(doc.get("state").and_then(Json::as_str), Some("done"));
        // The fake job binary never speaks the frame protocol: zero
        // frames and bytes, no decode error, no torn stream. The job's
        // registry numbers live in its artifacts, not here.
        assert_eq!(doc.get("frames").and_then(Json::as_u64), Some(0));
        assert_eq!(doc.get("bytes").and_then(Json::as_u64), Some(0));
        assert_eq!(doc.get("decode_errors").and_then(Json::as_u64), Some(0));
        assert_eq!(doc.get("torn"), Some(&Json::Bool(false)));
        assert!(doc.get("rollups").is_none(), "{}", r.body);

        let r = request(&addr, "GET", "/timescales", None).unwrap();
        let doc = spindle_obs::json::parse(r.body.trim()).unwrap();
        let rollups = doc.get("rollups").expect("the daemon's own wheel");
        assert_eq!(rollups.get("axis").and_then(Json::as_str), Some("wall"));
        assert!(doc.get("exemplars").is_some(), "{}", r.body);
        assert!(doc.get("fleet").is_none(), "{}", r.body);

        let missing = request(&addr, "GET", "/jobs/job-9999/timescales", None).unwrap();
        assert_eq!(missing.status, 404);
        handle.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_kills_retry_with_journaled_attempts_then_succeed() {
        let (handle, addr, dir) = test_daemon_with("retry", 4, 1, |c| {
            c.retry_base_ms = 10;
        });
        // Span 777 SIGKILLs itself once (per seed), then behaves.
        let r = submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":777,"seed":5}"#,
        );
        assert_eq!(r.status, 201, "{}", r.body);
        let id = spindle_obs::json::parse(r.body.trim())
            .unwrap()
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        wait_for("retried job to finish", || job_state(&addr, &id) == "done");
        let detail = request(&addr, "GET", &format!("/jobs/{id}"), None).unwrap();
        let doc = spindle_obs::json::parse(detail.body.trim()).unwrap();
        assert_eq!(
            doc.get("attempt").and_then(Json::as_u64),
            Some(1),
            "{}",
            detail.body
        );
        // The second attempt's stdout is exactly what a clean run
        // writes: the retry path preserved determinism.
        let stdout = request(
            &addr,
            "GET",
            &format!("/jobs/{id}/artifacts/stdout.txt"),
            None,
        )
        .unwrap();
        assert_eq!(stdout.body, "fake:generate --env web --span 777 --seed 5\n");
        // The retry is durable history: an `attempt` record with the
        // failure's reason, so resume replays the same ordinal.
        let journal = std::fs::read_to_string(dir.join("data").join(JOURNAL_FILE)).unwrap();
        assert!(journal.contains("\"event\":\"attempt\""), "{journal}");
        assert!(journal.contains("child killed by a signal"), "{journal}");
        let metrics = request(&addr, "GET", "/metrics", None).unwrap().body;
        assert!(metrics.contains("serve_jobs_retried 1"), "{metrics}");
        assert!(metrics.contains("serve_jobs_completed 1"), "{metrics}");
        handle.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retried_job_trace_carries_both_attempts_and_matches_the_journal() {
        let (handle, addr, dir) = test_daemon_with("trace-retry", 4, 1, |c| {
            c.retry_base_ms = 10;
        });
        // Span 777 SIGKILLs itself once (per seed), then behaves, so
        // the job runs exactly two attempts.
        let r = submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":777,"seed":11}"#,
        );
        assert_eq!(r.status, 201, "{}", r.body);
        let id = spindle_obs::json::parse(r.body.trim())
            .unwrap()
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        wait_for("retried job to finish", || job_state(&addr, &id) == "done");

        let resp = request(&addr, "GET", &format!("/jobs/{id}/trace"), None).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let doc = spindle_obs::json::parse(resp.body.trim()).unwrap();
        spindle_obs::trace_event::check_document(&doc)
            .unwrap_or_else(|e| panic!("trace endpoint produced a bad document: {e}"));

        // The document must record both attempts plus the queue wait
        // that preceded each of them.
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(events)) => events,
            other => panic!("traceEvents missing: {other:?}"),
        };
        let name_of = |e: &Json| e.get("name").and_then(Json::as_str).map(str::to_owned);
        let attempts: Vec<f64> = events
            .iter()
            .filter(|e| name_of(e).as_deref() == Some("attempt"))
            .map(|e| e.get("dur").and_then(Json::as_f64).unwrap())
            .collect();
        assert!(
            attempts.len() >= 2,
            "expected >=2 attempt spans, got {attempts:?} in {}",
            resp.body
        );
        let queue_waits = events
            .iter()
            .filter(|e| name_of(e).as_deref() == Some("queue.wait"))
            .count();
        assert!(queue_waits >= 1, "no queue.wait span in {}", resp.body);

        // Attempt durations must agree with the journal's recorded
        // attempt wall times (failed attempts carry `secs` on their
        // attempt record; the final one lands on `finished`).
        let journal = std::fs::read_to_string(dir.join("data").join(JOURNAL_FILE)).unwrap();
        let mut journal_secs = 0.0;
        for line in journal.lines() {
            let rec = spindle_obs::json::parse(line).unwrap();
            match rec.get("event").and_then(Json::as_str) {
                Some("attempt") | Some("finished") => {
                    journal_secs += rec.get("secs").and_then(Json::as_f64).unwrap_or(0.0);
                }
                _ => {}
            }
        }
        let traced_secs: f64 = attempts.iter().sum::<f64>() / 1e6;
        assert!(
            (traced_secs - journal_secs).abs() < 2.0,
            "trace attempts sum to {traced_secs}s but journal records {journal_secs}s"
        );

        // The daemon-wide merge view is also well formed.
        let merged = request(&addr, "GET", "/trace", None).unwrap();
        assert_eq!(merged.status, 200);
        let merged_doc = spindle_obs::json::parse(merged.body.trim()).unwrap();
        spindle_obs::trace_event::check_document(&merged_doc)
            .unwrap_or_else(|e| panic!("daemon trace produced a bad document: {e}"));

        // Every request above flowed through the per-endpoint HTTP
        // metrics, including the trace routes themselves.
        let metrics = request(&addr, "GET", "/metrics", None).unwrap().body;
        assert!(
            metrics.contains("serve_http_job_trace_requests"),
            "{metrics}"
        );
        assert!(metrics.contains("serve_http_trace_requests"), "{metrics}");
        assert!(metrics.contains("serve_http_submit_2xx"), "{metrics}");

        // The spans were persisted alongside the artifacts, and the
        // offline assembler rebuilds an equally valid document.
        let job_dir = dir.join("data").join(&id);
        assert!(job_dir.join(crate::trace::SPANS_FILE).is_file());
        let rebuilt = crate::trace::assemble_dir(&job_dir).unwrap();
        spindle_obs::trace_event::check_document(&rebuilt)
            .unwrap_or_else(|e| panic!("offline assembly produced a bad document: {e}"));

        handle.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poison_specs_quarantine_and_open_the_breaker() {
        let (handle, addr, dir) = test_daemon_with("poison", 4, 1, |c| {
            c.retry_base_ms = 1;
            c.max_retries = 1;
        });
        // Span 888 SIGKILLs itself on every attempt.
        let body = r#"{"kind":"generate","env":"web","span":888,"seed":1}"#;
        let r = submit(&addr, body);
        assert_eq!(r.status, 201, "{}", r.body);
        let id = spindle_obs::json::parse(r.body.trim())
            .unwrap()
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        wait_for("quarantine", || job_state(&addr, &id) == "quarantined");
        let detail = request(&addr, "GET", &format!("/jobs/{id}"), None).unwrap();
        assert!(
            detail.body.contains("retries exhausted after 2 attempt(s)"),
            "{}",
            detail.body
        );
        // The identical spec is now fast-rejected with advice...
        let again = submit(&addr, body);
        assert_eq!(again.status, 409, "{}", again.body);
        let retry: u64 = again
            .header("retry-after")
            .expect("breaker Retry-After")
            .parse()
            .unwrap();
        assert!(retry >= 1, "{retry}");
        assert!(again.body.contains("retries exhausted"), "{}", again.body);
        // ...while any other spec still passes admission.
        let other = submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":10,"seed":2}"#,
        );
        assert_eq!(other.status, 201, "{}", other.body);
        let other_id = spindle_obs::json::parse(other.body.trim())
            .unwrap()
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        wait_for("healthy job done", || job_state(&addr, &other_id) == "done");
        let metrics = request(&addr, "GET", "/metrics", None).unwrap().body;
        assert!(metrics.contains("serve_jobs_quarantined 1"), "{metrics}");
        assert!(metrics.contains("serve_jobs_poisoned 1"), "{metrics}");
        assert!(metrics.contains("serve_jobs_retried 1"), "{metrics}");
        handle.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deadlines_kill_overrunning_jobs_terminally() {
        let (handle, addr, dir) = test_daemon_with("deadline", 4, 2, |c| {
            c.default_deadline_secs = Some(1);
            c.max_deadline_secs = 2;
        });
        // One blocker rides the 1s default; the other asks for 600s
        // and gets clamped to the 2s ceiling.
        let a = submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":2000,"seed":1}"#,
        );
        let b = submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":2000,"seed":2,"deadline_secs":600}"#,
        );
        assert_eq!((a.status, b.status), (201, 201));
        let id_of = |r: &Response| {
            spindle_obs::json::parse(r.body.trim())
                .unwrap()
                .get("id")
                .and_then(Json::as_str)
                .unwrap()
                .to_owned()
        };
        let (a_id, b_id) = (id_of(&a), id_of(&b));
        wait_for("default deadline", || {
            job_state(&addr, &a_id) == "timed_out"
        });
        wait_for("clamped deadline", || {
            job_state(&addr, &b_id) == "timed_out"
        });
        let detail = request(&addr, "GET", &format!("/jobs/{a_id}"), None).unwrap();
        let doc = spindle_obs::json::parse(detail.body.trim()).unwrap();
        assert!(
            doc.get("error")
                .and_then(Json::as_str)
                .is_some_and(|e| e.contains("deadline of 1s exceeded")),
            "{}",
            detail.body
        );
        // Deadline kills are terminal, never retried.
        assert_eq!(doc.get("attempt").and_then(Json::as_u64), Some(0));
        let metrics = request(&addr, "GET", "/metrics", None).unwrap().body;
        assert!(metrics.contains("serve_jobs_timed_out 2"), "{metrics}");
        handle.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drain_stops_admission_and_leaves_unfinished_work_for_resume() {
        let (handle, addr, dir) = test_daemon("drain", 4, 1);
        let blocker = submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":2000,"seed":1}"#,
        );
        assert_eq!(blocker.status, 201);
        let blocker_id = spindle_obs::json::parse(blocker.body.trim())
            .unwrap()
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        wait_for("blocker running", || {
            job_state(&addr, &blocker_id) == "running"
        });
        let queued = submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":10,"seed":2}"#,
        );
        assert_eq!(queued.status, 201);

        handle.begin_drain();
        let refused = submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":10,"seed":3}"#,
        );
        assert_eq!(refused.status, 503, "{}", refused.body);
        assert!(refused.header("retry-after").is_some(), "{refused:?}");
        assert!(refused.body.contains("draining"), "{}", refused.body);

        // The blocker outlives the grace period and is drain-killed;
        // the queued job is never claimed. Neither gets a terminal
        // journal record.
        handle.drain(Duration::from_millis(300));
        let loaded = journal::load(&dir.join("data").join(JOURNAL_FILE)).unwrap();
        let unfinished = loaded.iter().filter(|j| j.finished.is_none()).count();
        assert_eq!((loaded.len(), unfinished), (2, 2));

        // A resume restart re-adopts both losslessly.
        let mut config = ServeConfig::new("127.0.0.1:0", dir.join("data"));
        config.queue_bound = 4;
        config.parallel = 1;
        config.spindle_bin = fake_bin(&dir);
        config.experiments_bin = None;
        config.resume = true;
        let registry: &'static MetricsRegistry = Box::leak(Box::default());
        let handle = serve_with_registry(config, registry).expect("resume starts");
        let addr = handle.local_addr().to_string();
        // The re-run blocker would sleep 20s; cancel it so the small
        // job behind it completes.
        wait_for("blocker re-running", || {
            job_state(&addr, &blocker_id) == "running"
        });
        request(&addr, "DELETE", &format!("/jobs/{blocker_id}"), None).unwrap();
        wait_for("drained job completes on resume", || {
            job_state(&addr, "job-0002") == "done"
        });
        let stdout = request(&addr, "GET", "/jobs/job-0002/artifacts/stdout.txt", None).unwrap();
        assert_eq!(stdout.body, "fake:generate --env web --span 10 --seed 2\n");
        handle.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_seeds_retry_after_from_journaled_durations() {
        let dir = std::env::temp_dir().join(format!("spindle-serve-ewma-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join("data")).unwrap();
        let spec =
            spec::JobSpec::parse(r#"{"kind":"generate","env":"dev","span":10,"seed":9}"#).unwrap();
        // History says jobs take ~30s each.
        let mut journal = Journal::open(&dir.join("data").join(JOURNAL_FILE)).unwrap();
        journal.submitted("job-0001", &spec).unwrap();
        journal
            .finished("job-0001", JobState::Done, Some(0), 30.0)
            .unwrap();
        drop(journal);

        let mut config = ServeConfig::new("127.0.0.1:0", dir.join("data"));
        config.queue_bound = 1;
        config.parallel = 1;
        config.spindle_bin = fake_bin(&dir);
        config.experiments_bin = None;
        config.resume = true;
        let registry: &'static MetricsRegistry = Box::leak(Box::default());
        let handle = serve_with_registry(config, registry).expect("resume starts");
        let addr = handle.local_addr().to_string();

        let blocker = submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":2000,"seed":1}"#,
        );
        assert_eq!(blocker.status, 201);
        let blocker_id = spindle_obs::json::parse(blocker.body.trim())
            .unwrap()
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        wait_for("blocker running", || {
            job_state(&addr, &blocker_id) == "running"
        });
        let fill = submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":10,"seed":2}"#,
        );
        assert_eq!(fill.status, 201);
        let rejected = submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":10,"seed":3}"#,
        );
        assert_eq!(rejected.status, 429, "{}", rejected.body);
        let retry: u64 = rejected
            .header("retry-after")
            .expect("Retry-After")
            .parse()
            .unwrap();
        // Cold-start advice would be 1s (DEFAULT_JOB_MS); the seeded
        // EWMA knows jobs take ~30s.
        assert!(
            retry >= 10,
            "seeded Retry-After should reflect history: {retry}"
        );
        request(&addr, "DELETE", &format!("/jobs/{blocker_id}"), None).unwrap();
        handle.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn event_stream_limit_gets_503_with_retry_after_and_counter() {
        use std::io::{Read, Write};
        let (handle, addr, dir) = test_daemon("sse-limit", 4, 1);
        let r = submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":2000,"seed":1}"#,
        );
        assert_eq!(r.status, 201);
        let id = spindle_obs::json::parse(r.body.trim())
            .unwrap()
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        wait_for("blocker running", || job_state(&addr, &id) == "running");

        // Fill every stream slot, confirming each registered by
        // reading its response header off the wire.
        let mut streams = Vec::new();
        for _ in 0..8 {
            let mut s = std::net::TcpStream::connect(&addr).unwrap();
            write!(s, "GET /jobs/{id}/events HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut head = [0u8; 15];
            s.read_exact(&mut head).unwrap();
            assert!(
                String::from_utf8_lossy(&head).contains("200"),
                "stream should open: {}",
                String::from_utf8_lossy(&head)
            );
            streams.push(s);
        }
        // The ninth watcher is refused with advice, and the refusal is
        // counted.
        let ninth = request(&addr, "GET", &format!("/jobs/{id}/events"), None).unwrap();
        assert_eq!(ninth.status, 503, "{}", ninth.body);
        let retry: u64 = ninth
            .header("retry-after")
            .expect("SSE 503 Retry-After")
            .parse()
            .unwrap();
        assert!(retry >= 1, "{retry}");
        assert!(ninth.body.contains("event streams"), "{}", ninth.body);
        let metrics = request(&addr, "GET", "/metrics", None).unwrap().body;
        assert!(metrics.contains("serve_events_rejected 1"), "{metrics}");

        request(&addr, "DELETE", &format!("/jobs/{id}"), None).unwrap();
        wait_for("cancelled", || job_state(&addr, &id) == "cancelled");
        drop(streams);
        handle.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    fn job_id(r: &Response) -> String {
        assert_eq!(r.status, 201, "{}", r.body);
        spindle_obs::json::parse(r.body.trim())
            .unwrap()
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned()
    }

    #[test]
    fn stop_wakes_handlers_blocked_in_accept() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let (handle, _, dir) = test_daemon_with("stop-wake", 4, 1, |c| {
                c.addr = bind.to_owned();
            });
            let port = handle.local_addr().port();
            let r = request(&format!("127.0.0.1:{port}"), "GET", "/healthz", None).unwrap();
            assert_eq!(r.status, 200, "{bind}: {}", r.body);
            let t = Instant::now();
            handle.stop();
            assert!(
                t.elapsed() < Duration::from_secs(1),
                "{bind}: stop took {:?}",
                t.elapsed()
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn back_to_back_jobs_finish_well_inside_one_child_poll() {
        let (handle, addr, dir) = test_daemon("back-to-back", 4, 1);
        let mut secs = Vec::new();
        for seed in 0..20 {
            let id = job_id(&submit(
                &addr,
                &format!(r#"{{"kind":"generate","env":"web","span":10,"seed":{seed}}}"#),
            ));
            wait_for("job done", || job_state(&addr, &id) == "done");
            let r = request(
                &addr,
                "GET",
                &format!("/jobs/{id}/artifacts/result.json"),
                None,
            )
            .unwrap();
            let doc = spindle_obs::json::parse(r.body.trim()).unwrap();
            secs.push(doc.get("secs").and_then(Json::as_f64).expect("secs"));
        }
        secs.sort_by(f64::total_cmp);
        let median = secs[secs.len() / 2];
        // A runner that slept a whole poll before its first look could
        // not report a job under one poll.
        assert!(
            median < runner::CHILD_POLL.as_secs_f64(),
            "median attempt {median}s, all {secs:?}"
        );
        handle.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_silent_job_never_ends_a_parallel_jobs_stream() {
        let (handle, addr, dir) = test_daemon("parallel-sinks", 4, 2);
        let bin = dir.join("fake-spindle.sh");
        let marker = |kind: &str| PathBuf::from(format!("{}.{kind}.5", bin.display()));
        let streamer = job_id(&submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":555,"seed":5}"#,
        ));
        let mut sink = None;
        wait_for("the streamer's sink address", || {
            sink = std::fs::read_to_string(marker("sink"))
                .ok()
                .and_then(|a| a.trim().parse::<std::net::SocketAddr>().ok());
            sink.is_some()
        });
        // A job whose child never connects runs start to finish while
        // the streamer's sink still waits for its connection: the
        // silent job's wake must land on its own sink only.
        let silent = job_id(&submit(
            &addr,
            r#"{"kind":"generate","env":"web","span":10,"seed":6}"#,
        ));
        wait_for("silent job done", || job_state(&addr, &silent) == "done");

        let mut wire = spindle_obs::frame::Frame::Hello {
            pid: 1,
            label: "streamer".to_owned(),
            epoch_ns: 0,
        }
        .encode();
        wire.extend(
            spindle_obs::frame::Frame::Progress {
                completed: 1,
                total: 1,
                phase: "done".to_owned(),
            }
            .encode(),
        );
        wire.extend(
            spindle_obs::frame::Frame::Bye {
                frames_sent: 2,
                spans_dropped: 0,
            }
            .encode(),
        );
        let mut stream = std::net::TcpStream::connect(sink.expect("parsed")).unwrap();
        std::io::Write::write_all(&mut stream, &wire).unwrap();
        drop(stream);
        std::fs::write(marker("go"), "").unwrap();
        wait_for("streamer done", || job_state(&addr, &streamer) == "done");

        for (id, frames) in [(&streamer, 3), (&silent, 0)] {
            let r = request(&addr, "GET", &format!("/jobs/{id}/timescales"), None).unwrap();
            let doc = spindle_obs::json::parse(r.body.trim()).unwrap();
            assert_eq!(
                doc.get("frames").and_then(Json::as_u64),
                Some(frames),
                "{}",
                r.body
            );
            assert_eq!(doc.get("decode_errors").and_then(Json::as_u64), Some(0));
            assert_eq!(doc.get("torn"), Some(&Json::Bool(false)), "{}", r.body);
        }
        handle.stop();
        std::fs::remove_dir_all(&dir).ok();
    }
}
