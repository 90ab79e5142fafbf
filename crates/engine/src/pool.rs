//! Scoped thread pool with ordinal-ordered delivery.
//!
//! [`Pool::run`] is the one way the engine runs tasks. Workers take the
//! next `(ordinal, item)` from one shared FIFO queue, so tasks start in
//! ordinal order and a caller that lists its heaviest tasks first gets
//! longest-first list scheduling. Results travel over a bounded
//! [`channel`] back to the calling thread, which buffers
//! out-of-order arrivals and delivers every `(ordinal, result)` in
//! strictly increasing ordinal order. [`Pool::map`] is `run` plus a
//! collect. With one worker (or at most one item) no thread or channel
//! is created: the tasks run inline, in order, on the calling thread.
//!
//! # Panic isolation
//!
//! Every task body runs under [`std::panic::catch_unwind`]. Through
//! [`Pool::run`] a panic reaches the caller as `Err(payload)` at the
//! task's ordinal while every other task completes, so surviving
//! output is byte-identical to a fault-free run at any worker count.
//! [`Pool::map`] re-raises the payload instead; tasks not yet started
//! are abandoned.
//!
//! # Observability
//!
//! With [`PoolMetrics`] attached, every task publishes
//! `engine.worker.<n>.tasks_executed` and `.busy_us` (and the pool-wide
//! `engine.tasks_executed`, plus `harden.shard_failures` for a caught
//! panic) the moment it finishes, so a live scraper sees utilization
//! evolve mid-call. A worker never waits while the queue holds work;
//! its `.idle_us` is its wait at the end of a call, from the moment it
//! finds the queue empty to the call's last delivery. When a
//! [`FlightRecorder`] is installed (see
//! [`spindle_obs::recorder::install`]), each worker records the same
//! story as `run`, `fault` and `idle` wall slices under a `worker<n>`
//! thread label. Without an installed recorder the per-task cost is one
//! relaxed atomic load.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use spindle_obs::json::Json;
use spindle_obs::registry::Counter;
use spindle_obs::{FlightRecorder, MetricsRegistry};

use crate::channel;

/// Attaches a metrics registry to a [`Pool`]; per-worker counters are
/// published under `engine.worker.<n>.*` plus pool-wide totals.
#[derive(Debug, Clone, Copy)]
pub struct PoolMetrics {
    registry: &'static MetricsRegistry,
}

impl PoolMetrics {
    /// Publishes pool counters into `registry`.
    #[must_use]
    pub fn new(registry: &'static MetricsRegistry) -> Self {
        PoolMetrics { registry }
    }

    fn worker(&self, w: usize) -> WorkerMetrics {
        WorkerMetrics {
            executed: self
                .registry
                .counter(&format!("engine.worker.{w}.tasks_executed")),
            busy_us: self.registry.counter(&format!("engine.worker.{w}.busy_us")),
            idle_us: self.registry.counter(&format!("engine.worker.{w}.idle_us")),
            total_executed: self.registry.counter("engine.tasks_executed"),
            failures: self.registry.counter("harden.shard_failures"),
        }
    }
}

/// Cloned counter handles one worker updates as it drains tasks.
struct WorkerMetrics {
    executed: Counter,
    busy_us: Counter,
    idle_us: Counter,
    total_executed: Counter,
    /// Pool-wide quarantine count (`harden.shard_failures`).
    failures: Counter,
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Renders a caught panic payload to a string: the message of a
/// `panic!` with a literal or formatted message, else a placeholder.
#[must_use]
pub fn panic_text(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Runs one task under `catch_unwind` and accounts for it: a `run` or
/// `fault` wall slice on the installed recorder, and the worker's
/// counters.
fn execute<I, T, F>(
    f: &F,
    ord: usize,
    item: I,
    flight: Option<&FlightRecorder>,
    metrics: Option<&WorkerMetrics>,
) -> Result<T, String>
where
    F: Fn(usize, I) -> T + Sync,
{
    let t0 = Instant::now();
    let out =
        std::panic::catch_unwind(AssertUnwindSafe(|| f(ord, item))).map_err(|p| panic_text(&*p));
    let dur = t0.elapsed();
    if let Some(rec) = flight {
        let name = if out.is_err() { "fault" } else { "run" };
        let args = vec![("ordinal".to_owned(), Json::Uint(ord as u64))];
        rec.wall_slice(name, t0, dur, args);
    }
    if let Some(m) = metrics {
        if out.is_err() {
            m.failures.add(1);
        }
        m.executed.add(1);
        m.total_executed.add(1);
        m.busy_us.add(micros(dur));
    }
    out
}

/// A fixed-width pool of scoped workers.
///
/// The pool itself is cheap to construct; threads exist only for the
/// duration of each [`Pool::run`] call (scoped threads, so task
/// closures may borrow from the caller's stack).
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    jobs: usize,
    metrics: Option<PoolMetrics>,
}

impl Pool {
    /// A pool with exactly `jobs` workers.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero; use [`crate::parse_jobs`] to validate
    /// user input first.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        assert!(jobs > 0, "a pool needs at least one worker");
        Pool {
            jobs,
            metrics: None,
        }
    }

    /// A pool sized by [`crate::default_jobs`] (the `SPINDLE_JOBS`
    /// environment variable, else available parallelism).
    #[must_use]
    pub fn with_default_jobs() -> Self {
        Pool::new(crate::default_jobs())
    }

    /// A single-worker pool: tasks run inline on the caller thread.
    #[must_use]
    pub fn sequential() -> Self {
        Pool::new(1)
    }

    /// Publishes per-worker counters and `engine.map` span timings into
    /// the given registry. Metrics never influence task results.
    #[must_use]
    pub fn metrics(mut self, m: PoolMetrics) -> Self {
        self.metrics = Some(m);
        self
    }

    /// Applies `f` to every `(ordinal, item)` and returns the results
    /// in ordinal order — identical output for any worker count.
    ///
    /// A task panic propagates to the caller with its payload
    /// preserved (rendered to a string); use [`Pool::run`] to keep the
    /// other results instead.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        let mut out = Vec::with_capacity(items.len());
        self.run(items, f, |_, res| match res {
            Ok(v) => out.push(v),
            Err(payload) => std::panic::panic_any(payload),
        });
        out
    }

    /// Applies `f` to every `(ordinal, item)` and hands each
    /// `(ordinal, result)` to `on_result` in strictly increasing ordinal
    /// order, as soon as the results before it have been delivered. A
    /// panicking task arrives as `Err(payload)` at its own ordinal.
    pub fn run<I, T, F>(
        &self,
        items: Vec<I>,
        f: F,
        mut on_result: impl FnMut(usize, Result<T, String>),
    ) where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        let span_start = Instant::now();
        let jobs = self.jobs.min(items.len()).max(1);
        if let Some(m) = &self.metrics {
            m.registry
                .gauge("engine.pool.workers")
                .set(i64::try_from(jobs).unwrap_or(i64::MAX));
        }
        if jobs == 1 {
            let wm = self.metrics.map(|m| m.worker(0));
            let flight = spindle_obs::recorder::installed();
            for (ord, item) in items.into_iter().enumerate() {
                on_result(ord, execute(&f, ord, item, flight.as_deref(), wm.as_ref()));
            }
        } else {
            let queue = Mutex::new(items.into_iter().enumerate());
            // Held by the draining caller until its last delivery. A
            // worker that accounts for its time waits on it once it finds
            // the queue empty, so its closing idle interval ends when the
            // call does.
            let drain = Mutex::new(());
            std::thread::scope(|s| {
                let draining = drain.lock().unwrap_or_else(PoisonError::into_inner);
                // Made inside the scope so that a panicking `on_result`
                // (`map` re-raising) drops the receiver while unwinding:
                // workers then stop at their next send instead of
                // blocking on a full channel the scope waits for.
                let (tx, rx) = channel::bounded(jobs * 2);
                for w in 0..jobs {
                    let worker = Worker {
                        id: w,
                        queue: &queue,
                        drain: &drain,
                        tx: tx.clone(),
                        metrics: self.metrics.map(|m| m.worker(w)),
                    };
                    let f = &f;
                    s.spawn(move || worker.work(f));
                }
                drop(tx);
                // The buffer holds at most (arrived − delivered) results:
                // bounded by scheduling skew, not by the item count.
                let mut pending = BTreeMap::new();
                let mut next = 0usize;
                while let Some((ord, res)) = rx.recv() {
                    pending.insert(ord, res);
                    while let Some(res) = pending.remove(&next) {
                        on_result(next, res);
                        next += 1;
                    }
                }
                debug_assert!(pending.is_empty(), "results lost ordinals");
                drop(draining);
            });
        }
        if let Some(m) = &self.metrics {
            m.registry.record_span("engine.map", span_start.elapsed());
        }
    }
}

/// One worker's share of a [`Pool::run`] call.
struct Worker<'a, I, T> {
    id: usize,
    queue: &'a Mutex<std::iter::Enumerate<std::vec::IntoIter<I>>>,
    drain: &'a Mutex<()>,
    tx: channel::Sender<(usize, Result<T, String>)>,
    metrics: Option<WorkerMetrics>,
}

impl<I, T> Worker<'_, I, T> {
    fn work<F>(self, f: &F)
    where
        F: Fn(usize, I) -> T + Sync,
    {
        let flight = spindle_obs::recorder::installed();
        if flight.is_some() {
            spindle_obs::recorder::set_thread_label(format!("worker{}", self.id));
        }
        loop {
            // The guard is a temporary: the lock is held for `next` only.
            let task = self
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .next();
            let Some((ord, item)) = task else { break };
            let out = execute(f, ord, item, flight.as_deref(), self.metrics.as_ref());
            if self.tx.send((ord, out)).is_err() {
                break; // receiver gone: the call is being abandoned
            }
        }
        let empty_at = Instant::now();
        drop(self.tx);
        if flight.is_none() && self.metrics.is_none() {
            return;
        }
        drop(self.drain.lock());
        let idle = empty_at.elapsed();
        if let Some(rec) = &flight {
            rec.wall_slice("idle", empty_at, idle, Vec::new());
        }
        if let Some(m) = &self.metrics {
            m.idle_us.add(micros(idle));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard_seed;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Serializes the tests that install the process-wide flight
    /// recorder with the tests whose tasks panic: every caught panic
    /// records a fault slice into whatever recorder is installed, and
    /// one test's uninstall would remove another's recorder.
    static RECORDER_TESTS: Mutex<()> = Mutex::new(());

    fn recorder_tests() -> std::sync::MutexGuard<'static, ()> {
        // The guarded tests panic on purpose; the unit value survives.
        RECORDER_TESTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Every `(ordinal, result)` one `run` call delivers, in order.
    fn run_all<T: Send>(
        pool: &Pool,
        n: usize,
        f: impl Fn(usize, usize) -> T + Sync,
    ) -> Vec<(usize, Result<T, String>)> {
        let mut seen = Vec::new();
        pool.run((0..n).collect(), f, |ord, res| seen.push((ord, res)));
        seen
    }

    #[test]
    fn run_delivers_in_ordinal_order_and_runs_every_task_once() {
        let _serial = recorder_tests();
        const N: usize = 24;
        const FAULT: usize = 7;
        for jobs in [1, 2, 8] {
            let registry: &'static MetricsRegistry = Box::leak(Box::default());
            let pool = Pool::new(jobs).metrics(PoolMetrics::new(registry));
            let runs: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
            let seen = run_all(&pool, N, |ord, x| {
                runs[ord].fetch_add(1, Ordering::Relaxed);
                // Later ordinals finish first.
                std::thread::sleep(Duration::from_micros(200 * (N - ord) as u64));
                assert!(ord != FAULT, "injected fault at {FAULT}");
                x * 10
            });
            let ordinals: Vec<usize> = seen.iter().map(|(ord, _)| *ord).collect();
            assert_eq!(ordinals, (0..N).collect::<Vec<_>>(), "jobs={jobs}");
            let ok: Vec<usize> = seen
                .iter()
                .filter_map(|(ord, res)| {
                    res.as_ref().ok().map(|v| {
                        assert_eq!(*v, ord * 10);
                        *ord
                    })
                })
                .collect();
            let expect: Vec<usize> = (0..N).filter(|&o| o != FAULT).collect();
            assert_eq!(ok, expect, "exactly one gap, at the fault (jobs={jobs})");
            assert_eq!(seen[FAULT].1.as_ref().unwrap_err(), "injected fault at 7");
            for (ord, count) in runs.iter().enumerate() {
                assert_eq!(count.load(Ordering::Relaxed), 1, "task {ord} ran once");
            }
            let snap = registry.snapshot();
            assert_eq!(snap.counter("engine.tasks_executed"), Some(N as u64));
        }
    }

    #[test]
    fn map_preserves_ordinal_order() {
        for jobs in [1, 2, 3, 8] {
            let pool = Pool::new(jobs);
            let items: Vec<u64> = (0..97).collect();
            let out = pool.map(items, |i, x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            assert_eq!(out, (0..97).map(|x| x * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_output_matches_sequential() {
        // A stateful per-item computation: a small PRNG walk seeded by
        // the item's shard seed. Identical across worker counts by
        // contract.
        let run = |jobs: usize| -> Vec<u64> {
            let seeds: Vec<u64> = (0..41).map(|i| shard_seed(20090, i)).collect();
            Pool::new(jobs).map(seeds, |_ord, seed| {
                let mut acc = seed;
                for i in 0..1000u64 {
                    acc = shard_seed(acc, i);
                }
                acc
            })
        };
        let seq = run(1);
        assert_eq!(seq, run(2));
        assert_eq!(seq, run(8));
    }

    #[test]
    fn uneven_tasks_all_complete() {
        // Every fourth task is slow; the others keep draining the queue
        // around it.
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..32).collect();
        let out = pool.map(items, |i, x| {
            if i % 4 == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
            x + 1
        });
        assert_eq!(out, (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let pool = Pool::new(4);
        let out: Vec<u8> = pool.map(Vec::<u8>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn metrics_count_every_task() {
        let registry: &'static MetricsRegistry = Box::leak(Box::default());
        let pool = Pool::new(3).metrics(PoolMetrics::new(registry));
        let out = pool.map((0..50u64).collect(), |_, x| x);
        assert_eq!(out.len(), 50);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("engine.tasks_executed"), Some(50));
        let per_worker: u64 = (0..3)
            .map(|w| {
                snap.counter(&format!("engine.worker.{w}.tasks_executed"))
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(per_worker, 50);
        assert!(snap.span("engine.map").is_some());
    }

    #[test]
    fn live_utilization_counters_are_published() {
        let registry: &'static MetricsRegistry = Box::leak(Box::default());
        let pool = Pool::new(2).metrics(PoolMetrics::new(registry));
        let out = pool.map((0..16u64).collect(), |_, x| {
            std::thread::sleep(Duration::from_micros(500));
            x
        });
        assert_eq!(out.len(), 16);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("engine.pool.workers"), Some(2));
        let busy: u64 = (0..2)
            .map(|w| {
                snap.counter(&format!("engine.worker.{w}.busy_us"))
                    .unwrap_or(0)
            })
            .sum();
        assert!(busy > 0, "workers accumulate busy time, got {busy}us");

        // The inline path publishes under worker 0 and reports width 1.
        let registry: &'static MetricsRegistry = Box::leak(Box::default());
        let seq = Pool::sequential().metrics(PoolMetrics::new(registry));
        let _ = seq.map(vec![1u8, 2], |_, x| {
            std::thread::sleep(Duration::from_micros(200));
            x
        });
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("engine.pool.workers"), Some(1));
        assert!(snap.counter("engine.worker.0.busy_us").unwrap_or(0) > 0);
        assert_eq!(snap.counter("engine.worker.0.tasks_executed"), Some(2));
    }

    #[test]
    fn idle_is_the_wait_for_the_last_delivery() {
        // The barrier puts the two tasks on different workers at once;
        // the worker with the quick one then finds the queue empty and
        // waits out the other's sleep before the call ends.
        let registry: &'static MetricsRegistry = Box::leak(Box::default());
        let pool = Pool::new(2).metrics(PoolMetrics::new(registry));
        let both_started = std::sync::Barrier::new(2);
        let _ = pool.map(vec![0u8, 1], |ord, x| {
            both_started.wait();
            if ord == 0 {
                std::thread::sleep(Duration::from_millis(50));
            }
            x
        });
        let snap = registry.snapshot();
        let idle: u64 = (0..2)
            .map(|w| {
                snap.counter(&format!("engine.worker.{w}.idle_us"))
                    .unwrap_or(0)
            })
            .sum();
        assert!(
            idle >= 20_000,
            "the early finisher waits ~50 ms, got {idle}us"
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_jobs_panics() {
        let _ = Pool::new(0);
    }

    #[test]
    fn workers_record_activity_to_an_installed_recorder() {
        let _serial = recorder_tests();
        use spindle_obs::recorder;

        let rec = Arc::new(FlightRecorder::new());
        recorder::install(Arc::clone(&rec));
        let out = Pool::new(3).map((0..64u64).collect(), |_, x| {
            std::thread::sleep(Duration::from_micros(200));
            x
        });
        // Sequential path records on the caller thread before uninstall.
        let seq = Pool::sequential().map(vec![1u8, 2, 3], |_, x| x);
        recorder::uninstall();
        assert_eq!(out.len(), 64);
        assert_eq!(seq, vec![1, 2, 3]);

        let wall = rec.wall_slices();
        assert!(
            wall.iter()
                .any(|w| w.name == "run" && w.thread.starts_with("worker")),
            "expected worker run slices, got {} slices",
            wall.len()
        );
        assert!(
            wall.iter()
                .any(|w| w.name == "run" && w.args.iter().any(|(k, _)| k == "ordinal")),
            "run slices carry the task ordinal"
        );
        for w in 0..3 {
            assert!(
                wall.iter()
                    .any(|s| s.name == "idle" && s.thread == format!("worker{w}")),
                "worker{w} closes the call with an idle slice"
            );
        }
    }

    #[test]
    fn map_reduce_still_propagates_panics() {
        let _serial = recorder_tests();
        // Far more tasks than the result channel holds: the abandoned
        // call must still join its workers.
        for jobs in [1, 2] {
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                Pool::new(jobs).map((0..200u64).collect(), |i, x| {
                    assert!(i != 1, "task exploded");
                    std::thread::sleep(Duration::from_micros(100));
                    x
                })
            }))
            .unwrap_err();
            let msg = err.downcast_ref::<String>().expect("string payload");
            assert!(msg.contains("task exploded"), "jobs={jobs}");
        }
    }

    #[test]
    fn try_map_quarantines_the_panicking_shard() {
        let _serial = recorder_tests();
        for jobs in [1, 2, 8] {
            let seen = run_all(&Pool::new(jobs), 16, |i, x| {
                assert!(i != 5, "injected fault: task panic at ordinal 5");
                x * 2
            });
            let failed: Vec<_> = seen.iter().filter(|(_, r)| r.is_err()).collect();
            assert_eq!(failed.len(), 1, "exactly one task fails");
            assert_eq!(failed[0].0, 5);
            assert!(failed[0].1.as_ref().unwrap_err().contains("injected fault"));
            // Survivors keep their original ordinals and values — the
            // fault-free subset, byte-identical at every worker count.
            let survivors: Vec<(usize, usize)> = seen
                .into_iter()
                .filter_map(|(ord, r)| r.ok().map(|v| (ord, v)))
                .collect();
            let expect: Vec<(usize, usize)> =
                (0..16).filter(|&x| x != 5).map(|x| (x, x * 2)).collect();
            assert_eq!(survivors, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn try_map_clean_run_has_no_failures() {
        let seen = run_all(&Pool::new(2), 3, |_, x| x + 1);
        assert_eq!(seen, vec![(0, Ok(1)), (1, Ok(2)), (2, Ok(3))]);
    }

    #[test]
    fn failures_are_counted_in_metrics() {
        let _serial = recorder_tests();
        let registry: &'static MetricsRegistry = Box::leak(Box::default());
        let pool = Pool::new(2).metrics(PoolMetrics::new(registry));
        let seen = run_all(&pool, 8, |i, x| {
            assert!(i % 4 != 1, "every fourth-plus-one task dies");
            x
        });
        assert_eq!(seen.iter().filter(|(_, r)| r.is_err()).count(), 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("harden.shard_failures"), Some(2));
        assert_eq!(snap.counter("engine.tasks_executed"), Some(8));
    }

    #[test]
    fn quarantine_records_fault_slices() {
        let _serial = recorder_tests();
        use spindle_obs::recorder;

        let rec = Arc::new(FlightRecorder::new());
        recorder::install(Arc::clone(&rec));
        let seen = run_all(&Pool::new(2), 8, |i, x| {
            assert!(i != 2, "dies for the trace");
            x
        });
        recorder::uninstall();
        assert_eq!(seen.iter().filter(|(_, r)| r.is_err()).count(), 1);
        let wall = rec.wall_slices();
        let faults: Vec<_> = wall.iter().filter(|w| w.name == "fault").collect();
        assert_eq!(faults.len(), 1, "one fault interval on the wall track");
        assert!(faults[0]
            .args
            .iter()
            .any(|(k, v)| k == "ordinal" && *v == Json::Uint(2)));
    }
}
