//! Per-job supervision: the watchdog thread, retry scheduling with
//! deterministic backoff, the poison-spec circuit breaker, and
//! graceful-drain state.
//!
//! The runner stays the sole owner of each child process; supervision
//! only ever *requests* kills by setting a job's [`KillReason`] flag
//! and decides what happens after an attempt ends:
//!
//! * **Deadlines** — a running job past its effective `deadline_secs`
//!   is killed and finished `timed_out` (terminal; a deadline is a
//!   budget, not a transient).
//! * **Stalls** — a child that spoke the telemetry frame protocol and
//!   then went silent for `--stall-timeout` seconds is killed; stalls
//!   are treated as transient and retried.
//! * **Retries** — transient failures (killed child, stall) re-enqueue
//!   with exponential backoff plus deterministic jitter derived from
//!   the job id and attempt ordinal, so a resumed daemon replays the
//!   same schedule. Each retry is the job's `queued` transition, which
//!   journals it as an `attempt` record before the job can run again.
//! * **Quarantine + breaker** — a spec that burns every attempt
//!   finishes `quarantined` (or `stalled` when the last failure was a
//!   stall) and opens a circuit breaker keyed by the spec fingerprint:
//!   identical resubmissions are fast-rejected (409) until a cooldown
//!   elapses, at which point the breaker half-opens and one attempt is
//!   admitted again.
//! * **Drain** — `begin_drain` stops admission (503 + `Retry-After`)
//!   and stops runners from claiming queued work; running jobs get up
//!   to the drain timeout before a `Drain` kill. Drain-killed and
//!   still-queued jobs write no terminal journal record, so a restart
//!   with `--resume-dir` re-adopts every one of them.

use crate::job::{Job, JobState, KillReason, Outcome, Retry, Transition};
use crate::queue::PushError;
use crate::Shared;
use spindle_obs::hash::fnv1a64;
use spindle_obs::json::Json;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Watchdog cadence: how often deadlines, stalls, and due retries are
/// checked. Coarse enough to be free, fine enough that a 1-second
/// deadline means roughly one second.
const WATCHDOG_TICK: Duration = Duration::from_millis(100);

/// How long a poison spec's circuit breaker stays open before it
/// half-opens and admits one real attempt again.
const BREAKER_COOLDOWN: Duration = Duration::from_secs(60);

/// Ceiling on a computed retry backoff.
const MAX_BACKOFF_MS: u64 = 30_000;

/// Bound on tracked poison fingerprints; oldest entries fall off so a
/// hostile client cannot grow the breaker table without bound.
const BREAKER_CAP: usize = 64;

/// A job waiting out its retry backoff (it is in the table as
/// `queued` but deliberately not in the run queue yet).
struct PendingRetry {
    id: String,
    due: Instant,
}

/// One open breaker entry: a spec fingerprint and when it half-opens.
struct BreakerEntry {
    fingerprint: u64,
    open_until: Instant,
    reason: String,
}

/// Supervision state shared across the daemon.
#[derive(Default)]
pub(crate) struct Supervisor {
    draining: AtomicBool,
    pending: Mutex<Vec<PendingRetry>>,
    breaker: Mutex<Vec<BreakerEntry>>,
}

impl Supervisor {
    /// Whether the daemon is draining (admission and runner claims
    /// both check this).
    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Flips to draining; `true` on the first call.
    pub(crate) fn begin_drain(&self) -> bool {
        !self.draining.swap(true, Ordering::AcqRel)
    }

    /// Parks a retry until `due`.
    fn schedule(&self, id: String, due: Instant) {
        self.pending
            .lock()
            .expect("pending retries lock")
            .push(PendingRetry { id, due });
    }

    /// Opens (or re-opens) the breaker for a fingerprint.
    pub(crate) fn breaker_open(&self, fingerprint: u64, reason: String, cooldown: Duration) {
        let mut breaker = self.breaker.lock().expect("breaker lock");
        breaker.retain(|e| e.fingerprint != fingerprint);
        breaker.push(BreakerEntry {
            fingerprint,
            open_until: Instant::now() + cooldown,
            reason,
        });
        while breaker.len() > BREAKER_CAP {
            breaker.remove(0);
        }
    }

    /// Checks a fingerprint against open breakers. Returns the stored
    /// reason and the seconds until half-open when the breaker is
    /// still open; an expired entry is removed (half-open: the next
    /// identical spec gets one real attempt again).
    pub(crate) fn breaker_check(&self, fingerprint: u64) -> Option<(String, u64)> {
        let mut breaker = self.breaker.lock().expect("breaker lock");
        let now = Instant::now();
        breaker.retain(|e| e.fingerprint != fingerprint || e.open_until > now);
        breaker
            .iter()
            .find(|e| e.fingerprint == fingerprint)
            .map(|e| {
                let secs = e.open_until.saturating_duration_since(now).as_secs().max(1);
                (e.reason.clone(), secs)
            })
    }
}

/// FNV-1a over a spec's canonical JSON: the breaker's identity key.
/// Canonical rendering means field order cannot disguise a poison
/// spec.
#[must_use]
pub(crate) fn fingerprint(spec: &crate::spec::JobSpec) -> u64 {
    fnv1a64(spec.to_json().to_string().as_bytes())
}

/// `base * 2^attempt` plus deterministic jitter in `[0, base)` mixed
/// from the job id and attempt ordinal, capped at
/// [`MAX_BACKOFF_MS`]. Same id + attempt always backs off the same
/// amount, so a replayed journal reproduces the schedule exactly.
#[must_use]
pub(crate) fn backoff_ms(base_ms: u64, attempt: u32, id: &str) -> u64 {
    let base = base_ms.max(1);
    let exp = base.saturating_mul(1u64 << attempt.min(16));
    let mut mix = fnv1a64(id.as_bytes()) ^ (u64::from(attempt)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // splitmix64 finalizer: spreads the low bits the modulo keeps.
    mix = (mix ^ (mix >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    mix = (mix ^ (mix >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    mix ^= mix >> 31;
    let jitter = mix % base;
    exp.saturating_add(jitter).min(MAX_BACKOFF_MS)
}

/// The text joining a retryable failure's reason to the detail of a
/// spent retry budget.
const EXHAUSTED: &str = "; retries exhausted after ";

/// The failure reason in the error of a job whose retries were spent.
pub(crate) fn exhausted_reason(error: &str) -> Option<&str> {
    error.split_once(EXHAUSTED).map(|(reason, _)| reason)
}

/// Decides what a retryable failure becomes. `None` means another
/// attempt was scheduled: the job's `queued` transition is recorded
/// (journal line, SSE `retry` event, backoff span) and the job parked
/// until its backoff elapses. `Some((state, detail))` means the retry
/// budget is spent: the breaker is already open and the caller finishes
/// the job as `state` — [`JobState::Stalled`] for stall kills,
/// [`JobState::Quarantined`] otherwise — with `detail` as the error.
pub(crate) fn handle_retryable(
    shared: &Shared,
    id: &str,
    exhausted: JobState,
    reason: &str,
    error: Option<&str>,
    attempt_secs: f64,
) -> Option<(JobState, String)> {
    let (attempt, spec) = shared
        .table
        .with(id, |j| (j.attempt(), Arc::clone(&j.spec)))?;
    if attempt >= shared.config.max_retries {
        let detail = format!(
            "{reason}{EXHAUSTED}{} attempt(s){}",
            u64::from(attempt) + 1,
            error.map(|e| format!(": {e}")).unwrap_or_default()
        );
        shared
            .supervisor
            .breaker_open(fingerprint(&spec), detail.clone(), BREAKER_COOLDOWN);
        return Some((exhausted, detail));
    }
    let backoff_ms = backoff_ms(shared.config.retry_base_ms, attempt, id);
    let retry = Retry {
        reason: reason.to_owned(),
        backoff_ms,
        secs: attempt_secs,
    };
    let queued = Transition::Queued {
        attempt: attempt + 1,
        retry: Some(retry),
    };
    if let Ok(at) = shared.record(id, queued) {
        let due = at + Duration::from_millis(backoff_ms);
        shared.supervisor.schedule(id.to_owned(), due);
    }
    None
}

/// The watchdog thread body: promotes due retries into the run queue,
/// kills running jobs past their deadline, and kills children whose
/// telemetry went silent.
pub(crate) fn spawn_watchdog(shared: &Arc<Shared>) -> std::thread::JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name("serve-watchdog".to_owned())
        .spawn(move || {
            while !shared.stop.load(Ordering::Acquire) {
                promote_due_retries(&shared);
                check_running(&shared);
                std::thread::sleep(WATCHDOG_TICK);
            }
        })
        .expect("spawn watchdog thread")
}

fn promote_due_retries(shared: &Shared) {
    let now = Instant::now();
    let due: Vec<PendingRetry> = (shared.supervisor.pending.lock())
        .expect("pending retries lock")
        .extract_if(.., |p| p.due <= now)
        .collect();
    for PendingRetry { id, .. } in due {
        let Some(kill) = shared.table.with(&id, Job::kill_reason) else {
            continue;
        };
        if kill == Some(KillReason::Cancel) {
            // Cancelled while waiting out the backoff: finish without
            // ever re-running.
            let _ = shared.record(&id, Transition::Terminal(Outcome::cancelled()));
            continue;
        }
        if shared.supervisor.is_draining() {
            // Deliberately dropped on the floor: the journal has no
            // terminal record for it, so a resume restart re-adopts.
            continue;
        }
        match shared.queue.push(id.clone()) {
            Ok(()) => {}
            // Queue momentarily full of fresh admissions: try again
            // next tick.
            Err(PushError::Full) => shared.supervisor.schedule(id, now),
            Err(PushError::Closed) => {}
        }
    }
}

fn check_running(shared: &Shared) {
    shared.table.for_each(|job| {
        let Some((t0, _)) = job.running() else {
            return;
        };
        if job.kill_reason().is_some() {
            return;
        }
        let tel = &job.telemetry;
        if let Some(deadline) = job.deadline_secs {
            if t0.elapsed().as_secs_f64() > deadline as f64 {
                if job.request_kill(KillReason::Deadline) {
                    tel.event(
                        "watchdog",
                        vec![
                            ("action", Json::Str("deadline-kill".to_owned())),
                            ("deadline_secs", Json::Uint(deadline)),
                        ],
                    );
                }
                return;
            }
        }
        // Only children that spoke the frame protocol can stall;
        // silence from a mute child means nothing.
        let stall = shared.config.stall_timeout_secs;
        if let (Some(stall), Some(silence)) = (stall, tel.frame_silence_secs()) {
            if silence > stall as f64 && job.request_kill(KillReason::Stall) {
                tel.event(
                    "watchdog",
                    vec![
                        ("action", Json::Str("stall-kill".to_owned())),
                        ("silence_secs", Json::Num(silence)),
                    ],
                );
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_deterministically_and_caps() {
        let b0 = backoff_ms(500, 0, "job-0001");
        let b1 = backoff_ms(500, 1, "job-0001");
        let b2 = backoff_ms(500, 2, "job-0001");
        assert!((500..1000).contains(&b0), "{b0}");
        assert!((1000..1500).contains(&b1), "{b1}");
        assert!((2000..2500).contains(&b2), "{b2}");
        assert_eq!(b1, backoff_ms(500, 1, "job-0001"), "deterministic");
        assert_ne!(
            backoff_ms(500, 1, "job-0001") - 1000,
            backoff_ms(500, 1, "job-0002") - 1000,
            "different ids jitter differently"
        );
        assert_eq!(backoff_ms(500, 32, "job-0001"), MAX_BACKOFF_MS, "capped");
        assert!(backoff_ms(0, 0, "job-0001") >= 1, "zero base never spins");
    }

    #[test]
    fn breaker_opens_rejects_then_half_opens() {
        let sup = Supervisor::default();
        assert_eq!(sup.breaker_check(42), None, "closed by default");
        sup.breaker_open(42, "poison".to_owned(), Duration::from_secs(60));
        let (reason, retry_after) = sup.breaker_check(42).expect("open");
        assert_eq!(reason, "poison");
        assert!((1..=60).contains(&retry_after), "{retry_after}");
        assert_eq!(sup.breaker_check(43), None, "other fingerprints pass");
        // Cooldown elapsed: the entry half-opens (is removed) and the
        // next identical spec gets a real attempt.
        sup.breaker_open(42, "poison".to_owned(), Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(sup.breaker_check(42), None, "half-open after cooldown");
        // The table is bounded.
        for fp in 0..200u64 {
            sup.breaker_open(fp, "x".to_owned(), Duration::from_secs(60));
        }
        assert!(sup.breaker.lock().unwrap().len() <= BREAKER_CAP);
    }

    #[test]
    fn fingerprints_are_stable_and_field_order_blind() {
        let a =
            crate::spec::JobSpec::parse(r#"{"kind":"generate","env":"web","span":10,"seed":1}"#)
                .unwrap();
        let b =
            crate::spec::JobSpec::parse(r#"{"seed":1,"span":10,"env":"web","kind":"generate"}"#)
                .unwrap();
        let c =
            crate::spec::JobSpec::parse(r#"{"kind":"generate","env":"web","span":10,"seed":2}"#)
                .unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b), "canonical rendering");
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn drain_flag_flips_once() {
        let sup = Supervisor::default();
        assert!(!sup.is_draining());
        assert!(sup.begin_drain(), "first call flips");
        assert!(!sup.begin_drain(), "second call is a no-op");
        assert!(sup.is_draining());
    }
}
