//! Deterministic parallel execution for the spindle workspace.
//!
//! The engine provides three building blocks, all implemented on `std`
//! alone (`std::thread` scoped threads, `Mutex`/`Condvar`, atomics — no
//! external runtime):
//!
//! * [`pool::Pool`] — a scoped thread pool. [`Pool::run`] is its one
//!   primitive: workers take tasks from one shared FIFO queue in
//!   ordinal order, and each `(ordinal, result)` reaches the caller in
//!   strictly increasing ordinal order, a panicking task as an `Err`.
//!   [`Pool::map`] is `run` plus a collect, so its output is
//!   bit-identical to the sequential path regardless of worker count
//!   or scheduling.
//! * [`channel`] — bounded MPSC channels with blocking backpressure,
//!   used both inside the pool and for streaming trace replay at fixed
//!   memory (SPSC is the one-producer special case).
//! * [`shard_seed`] — the RNG seed a piece of split work derives from
//!   `(seed, ordinal)`.
//!
//! # Determinism contract
//!
//! A computation run through the engine must be a pure function of its
//! `(ordinal, input)` pair — in particular a task that draws random
//! numbers seeds its own RNG from [`shard_seed`] and never touches
//! shared mutable state. Under that contract the engine guarantees the
//! output is identical for every `--jobs` value, because results are
//! delivered in ordinal order, not in the order threads finish.

pub mod channel;
pub mod pool;
pub mod shard;

pub use pool::{panic_text, Pool, PoolMetrics};
pub use shard::shard_seed;

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
