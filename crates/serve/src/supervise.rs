//! Per-job supervision policy: retry scheduling with deterministic
//! backoff and the poison-spec circuit breaker.
//!
//! The runner stays the sole owner of each child process: it enforces
//! the attempt's deadline and stall timeout itself, and calls in here
//! to decide what a transient failure becomes:
//!
//! * **Retries** — transient failures (killed child, stall) go back in
//!   the run queue, due after an exponential backoff plus deterministic
//!   jitter derived from the job id and attempt ordinal, so a resumed
//!   daemon replays the same schedule. Each retry is the job's `queued`
//!   transition, which journals it as an `attempt` record before the
//!   job can run again. A job backing off waits in the run queue like
//!   any other, so cancelling it is immediate.
//! * **Quarantine + breaker** — a spec that burns every attempt
//!   finishes `quarantined` (or `stalled` when the last failure was a
//!   stall) and opens a circuit breaker keyed by the spec fingerprint:
//!   identical resubmissions are fast-rejected (409) until a cooldown
//!   elapses, at which point the breaker half-opens and one attempt is
//!   admitted again.

use crate::job::{JobState, Retry, Transition};
use crate::Shared;
use spindle_obs::hash::fnv1a64;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a poison spec's circuit breaker stays open before it
/// half-opens and admits one real attempt again.
const BREAKER_COOLDOWN: Duration = Duration::from_secs(60);

/// Ceiling on a computed retry backoff.
const MAX_BACKOFF_MS: u64 = 30_000;

/// Bound on tracked poison fingerprints; oldest entries fall off so a
/// hostile client cannot grow the breaker table without bound.
const BREAKER_CAP: usize = 64;

/// One open breaker entry: a spec fingerprint and when it half-opens.
struct BreakerEntry {
    fingerprint: u64,
    open_until: Instant,
    reason: String,
}

/// The poison-spec circuit breaker shared across the daemon.
#[derive(Default)]
pub(crate) struct Supervisor {
    breaker: Mutex<Vec<BreakerEntry>>,
}

impl Supervisor {
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
/// (journal line, SSE `retry` event, backoff span) and the job goes
/// back in the run queue, due when its backoff elapses.
/// `Some((state, detail))` means the retry budget is spent: the
/// breaker is already open and the caller finishes the job as `state`
/// — [`JobState::Stalled`] for stall kills, [`JobState::Quarantined`]
/// otherwise — with `detail` as the error.
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
        // A closed queue (the daemon is stopping) leaves the job queued
        // with no terminal journal record, for `--resume-dir` to re-adopt.
        let due = at + Duration::from_millis(backoff_ms);
        let _ = shared.queue.push(id.to_owned(), due);
    }
    None
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
}
