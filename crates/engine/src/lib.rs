//! Deterministic parallel execution for the spindle workspace.
//!
//! The engine provides three building blocks, all implemented on `std`
//! alone (`std::thread` scoped threads, `Mutex`/`Condvar`, atomics — no
//! external runtime):
//!
//! * [`pool::Pool`] — a scoped work-stealing thread pool. Tasks are
//!   dealt round-robin into per-worker injector queues; an idle worker
//!   steals from the back of the deepest peer queue. Results flow back
//!   over a bounded channel and are merged **in ordinal order**, so the
//!   output of [`Pool::map`] is bit-identical to the sequential path
//!   regardless of worker count or scheduling.
//! * [`channel`] — bounded MPSC channels with blocking backpressure,
//!   used both inside the pool and for streaming trace replay at fixed
//!   memory (SPSC is the one-producer special case).
//! * [`shard`] — the [`ShardPlan`]/[`Reduce`] abstraction: each shard
//!   owns an RNG stream derived from `(seed, shard_id)` via
//!   [`shard_seed`], and reducers consume results keyed by a stable
//!   ordinal, never by completion order.
//!
//! # Determinism contract
//!
//! A computation run through the engine must be a pure function of its
//! `(ordinal, input)` pair — in particular each shard seeds its own RNG
//! from [`shard_seed`] and never touches shared mutable state. Under
//! that contract the engine guarantees the reduced output is identical
//! for every `--jobs` value, because reduction order is defined by
//! ordinals, not by thread timing.

pub mod channel;
pub mod pool;
pub mod shard;

pub use pool::{panic_text, Pool, PoolMetrics};
pub use shard::{shard_seed, PairCollect, Reduce, RunOutcome, ShardFailure, ShardPlan, VecCollect};

/// Environment variable consulted by [`default_jobs`] before falling
/// back to the machine's available parallelism. CI sets this to force a
/// specific worker count across an entire test run.
pub const JOBS_ENV: &str = "SPINDLE_JOBS";

/// Parses a `--jobs` value: a positive integer.
///
/// # Errors
///
/// Returns a human-readable message for `0` or non-numeric input; the
/// caller prefixes it with the offending flag name.
pub fn parse_jobs(s: &str) -> Result<usize, String> {
    match s.trim().parse::<usize>() {
        Ok(0) => Err("jobs must be at least 1".to_owned()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("expected a positive integer, got `{s}`")),
    }
}

/// Default worker count: `SPINDLE_JOBS` if set to a valid value,
/// otherwise [`std::thread::available_parallelism`], otherwise 1.
#[must_use]
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var(JOBS_ENV) {
        if let Ok(n) = parse_jobs(&v) {
            return n;
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_jobs_accepts_positive_integers() {
        assert_eq!(parse_jobs("1"), Ok(1));
        assert_eq!(parse_jobs(" 8 "), Ok(8));
    }

    #[test]
    fn parse_jobs_rejects_zero_and_garbage() {
        assert!(parse_jobs("0").is_err());
        assert!(parse_jobs("").is_err());
        assert!(parse_jobs("two").is_err());
        assert!(parse_jobs("-3").is_err());
        assert!(parse_jobs("1.5").is_err());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
