//! Scoped work-stealing thread pool with ordinal-ordered reduction.
//!
//! Tasks are dealt round-robin into per-worker injector queues before
//! any worker starts; a worker pops from the front of its own queue and,
//! when that runs dry, steals from the back of the deepest peer queue.
//! Results travel over a bounded [`channel`](crate::channel) back to the
//! caller thread, which buffers out-of-order arrivals and feeds the
//! [`Reduce`] strictly in ordinal order. With `jobs == 1` no threads or
//! channels are created at all — the tasks run inline, in order, on the
//! caller thread, which is exactly the pre-engine sequential path.
//!
//! # Panic isolation
//!
//! Every task body runs under [`std::panic::catch_unwind`]. Through
//! [`Pool::map`]/[`Pool::map_reduce`] a task panic still propagates to
//! the caller (with its payload preserved), exactly as before. The
//! `try_` variants — [`Pool::try_map`], [`Pool::try_map_reduce`],
//! [`Pool::try_run_shards`] — instead *quarantine* the panicking shard:
//! the remaining shards complete, surviving results reach the reducer
//! keyed by their original ordinals (so surviving output is
//! byte-identical to a fault-free run at any worker count), and the
//! returned [`RunOutcome`] carries one [`ShardFailure`] per quarantined
//! shard. Queue mutexes recover from poisoning
//! ([`PoisonError::into_inner`]) so one panicking worker cannot wedge
//! queue access for the rest of the pool.
//!
//! When a [`FlightRecorder`] is installed (see
//! [`spindle_obs::recorder::install`]), each worker additionally records
//! its activity — `run`, `steal`, `idle`, and `fault` intervals — on
//! the wall-clock timeline under a `worker<n>` thread label, so a trace
//! export shows exactly how the pool spent its time, including where a
//! shard was quarantined. Without an installed recorder the per-task
//! cost is one relaxed atomic load.

use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use spindle_obs::json::Json;
use spindle_obs::registry::{Counter, Gauge};
use spindle_obs::{FlightRecorder, MetricsRegistry};

use crate::channel;
use crate::shard::{PairCollect, Reduce, RunOutcome, ShardFailure, ShardPlan, VecCollect};

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
            stolen: self
                .registry
                .counter(&format!("engine.worker.{w}.tasks_stolen")),
            busy_us: self.registry.counter(&format!("engine.worker.{w}.busy_us")),
            idle_us: self.registry.counter(&format!("engine.worker.{w}.idle_us")),
            depth: self
                .registry
                .gauge(&format!("engine.worker.{w}.queue_depth")),
            total_executed: self.registry.counter("engine.tasks_executed"),
            total_stolen: self.registry.counter("engine.tasks_stolen"),
            failures: self.registry.counter("harden.shard_failures"),
        }
    }

    fn set_pool_width(&self, jobs: usize) {
        self.registry
            .gauge("engine.pool.workers")
            .set(i64::try_from(jobs).unwrap_or(i64::MAX));
    }
}

/// Cloned counter handles one worker updates as it drains tasks.
///
/// Every update is *incremental* — published the moment a task
/// finishes or an idle interval closes — so a live scraper
/// (`spindle-pulse`'s `/status`, the `--live` dashboard) sees
/// utilization evolve mid-run instead of a burst of totals when the
/// map call returns.
struct WorkerMetrics {
    executed: Counter,
    stolen: Counter,
    busy_us: Counter,
    idle_us: Counter,
    depth: Gauge,
    total_executed: Counter,
    total_stolen: Counter,
    /// Pool-wide quarantine count (`harden.shard_failures`); bumped
    /// immediately on a caught task panic, not batched at settle time.
    failures: Counter,
}

impl WorkerMetrics {
    /// Publishes one finished task.
    fn task_done(&self, was_steal: bool, busy: Duration) {
        self.executed.add(1);
        self.total_executed.add(1);
        if was_steal {
            self.stolen.add(1);
            self.total_stolen.add(1);
        }
        self.busy_us
            .add(u64::try_from(busy.as_micros()).unwrap_or(u64::MAX));
    }

    /// Publishes one closed idle interval.
    fn idle_for(&self, idle: Duration) {
        self.idle_us
            .add(u64::try_from(idle.as_micros()).unwrap_or(u64::MAX));
    }

    /// Worker exit: the queue is drained.
    fn settle(&self) {
        self.depth.set(0);
    }
}

/// Locks a worker queue, recovering from poison: a queue mutex is only
/// ever held around `VecDeque` operations that cannot leave the deque
/// in a torn state, so the data is valid even after a panicking thread
/// held the guard.
fn lock_queue<'a, I>(q: &'a Mutex<VecDeque<(usize, I)>>) -> MutexGuard<'a, VecDeque<(usize, I)>> {
    q.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs one task under `catch_unwind`, rendering any panic payload to
/// a string.
fn run_task<I, T, F>(f: &F, ord: usize, item: I) -> Result<T, String>
where
    F: Fn(usize, I) -> T + Sync,
{
    std::panic::catch_unwind(AssertUnwindSafe(|| f(ord, item))).map_err(|p| {
        if let Some(s) = p.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = p.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_owned()
        }
    })
}

/// A fixed-width pool of scoped workers.
///
/// The pool itself is cheap to construct; threads exist only for the
/// duration of each [`Pool::map_reduce`] call (scoped threads, so task
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

    /// Worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f` to every `(ordinal, item)` and returns the results
    /// in ordinal order — identical output for any worker count.
    ///
    /// A task panic propagates to the caller; use [`Pool::try_map`] to
    /// quarantine failing tasks instead.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        let n = items.len();
        self.map_reduce(items, f, VecCollect::with_capacity(n))
    }

    /// Runs every shard of `plan` through `f(ordinal, shard_seed)` and
    /// returns the results in ordinal order.
    pub fn run_shards<T, F>(&self, plan: &ShardPlan, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, u64) -> T + Sync,
    {
        let seeds: Vec<u64> = plan.iter().map(|(_, s)| s).collect();
        self.map(seeds, f)
    }

    /// Applies `f` to every `(ordinal, item)` and feeds the results to
    /// `reducer` strictly in ordinal order, regardless of which worker
    /// finished first.
    ///
    /// A task panic propagates to the caller with its payload
    /// preserved (rendered to a string); remaining queued work is
    /// abandoned. Use [`Pool::try_map_reduce`] to quarantine instead.
    pub fn map_reduce<I, T, F, R>(&self, items: Vec<I>, f: F, mut reducer: R) -> R::Output
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
        R: Reduce<Item = T>,
    {
        self.run_ordered(items, &f, |ord, res| match res {
            Ok(v) => reducer.push(ord, v),
            Err(payload) => std::panic::panic_any(payload),
        });
        reducer.finish()
    }

    /// Panic-isolating [`Pool::map`]: surviving results come back as
    /// `(original_ordinal, value)` pairs; panicking tasks are
    /// quarantined into the outcome's failure report.
    pub fn try_map<I, T, F>(&self, items: Vec<I>, f: F) -> RunOutcome<Vec<(usize, T)>>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        let n = items.len();
        self.try_map_reduce(items, f, PairCollect::with_capacity(n))
    }

    /// Panic-isolating [`Pool::run_shards`]: each failure additionally
    /// carries the quarantined shard's RNG seed for offline replay.
    pub fn try_run_shards<T, F>(&self, plan: &ShardPlan, f: F) -> RunOutcome<Vec<(usize, T)>>
    where
        T: Send,
        F: Fn(usize, u64) -> T + Sync,
    {
        let seeds: Vec<u64> = plan.iter().map(|(_, s)| s).collect();
        let mut outcome = self.try_map(seeds, f);
        for fail in &mut outcome.failures {
            fail.shard_seed = Some(plan.seed_of(fail.ordinal));
        }
        outcome
    }

    /// Panic-isolating [`Pool::map_reduce`]: a panicking task is
    /// quarantined — converted into a [`ShardFailure`] — while every
    /// other shard completes. Surviving results reach `reducer` keyed
    /// by their *original* ordinals (strictly increasing, with gaps at
    /// quarantined shards), so surviving output is byte-identical to a
    /// fault-free run at any worker count.
    pub fn try_map_reduce<I, T, F, R>(
        &self,
        items: Vec<I>,
        f: F,
        mut reducer: R,
    ) -> RunOutcome<R::Output>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
        R: Reduce<Item = T>,
    {
        let mut failures = Vec::new();
        self.run_ordered(items, &f, |ord, res| match res {
            Ok(v) => reducer.push(ord, v),
            Err(payload) => failures.push(ShardFailure {
                ordinal: ord,
                shard_seed: None,
                payload,
            }),
        });
        RunOutcome {
            output: reducer.finish(),
            failures,
        }
    }

    /// The shared execution core: runs every task (inline or across
    /// workers) and delivers `(ordinal, Result)` to `on_result` in
    /// strictly increasing ordinal order.
    fn run_ordered<I, T, F>(
        &self,
        items: Vec<I>,
        f: &F,
        mut on_result: impl FnMut(usize, Result<T, String>),
    ) where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        let span_start = Instant::now();
        let jobs = self.jobs.min(items.len());
        if let Some(m) = &self.metrics {
            m.set_pool_width(jobs.max(1));
        }
        if jobs <= 1 {
            let wm = self.metrics.as_ref().map(|m| m.worker(0));
            let flight = spindle_obs::recorder::installed();
            for (i, item) in items.into_iter().enumerate() {
                let t0 = Instant::now();
                let out = run_task(f, i, item);
                let dur = t0.elapsed();
                if let Some(rec) = &flight {
                    let name = if out.is_err() { "fault" } else { "run" };
                    record_task(rec, name, i, t0, dur);
                }
                if let Some(m) = &wm {
                    if out.is_err() {
                        m.failures.add(1);
                    }
                    m.task_done(false, dur);
                }
                on_result(i, out);
            }
            if let Some(m) = &wm {
                m.settle();
            }
            if let Some(m) = &self.metrics {
                m.registry.record_span("engine.map", span_start.elapsed());
            }
            return;
        }

        // Deal tasks round-robin so every worker starts with work and
        // contiguous ordinals spread across workers.
        let queues: Vec<Mutex<VecDeque<(usize, I)>>> =
            (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, item) in items.into_iter().enumerate() {
            lock_queue(&queues[i % jobs]).push_back((i, item));
        }

        let (tx, rx) = channel::bounded::<(usize, Result<T, String>)>(jobs * 2);
        std::thread::scope(|s| {
            for w in 0..jobs {
                let tx = tx.clone();
                let queues = &queues;
                let wm = self.metrics.as_ref().map(|m| m.worker(w));
                s.spawn(move || worker_loop(w, queues, &tx, f, wm.as_ref()));
            }
            drop(tx);

            // Ordered drain: buffer out-of-order arrivals, release in
            // ordinal order. The buffer holds at most (arrived − next)
            // items — bounded by scheduling skew, not stream length.
            let mut pending: BTreeMap<usize, Result<T, String>> = BTreeMap::new();
            let mut next = 0usize;
            while let Some((ord, val)) = rx.recv() {
                if ord == next {
                    on_result(next, val);
                    next += 1;
                    while let Some(v) = pending.remove(&next) {
                        on_result(next, v);
                        next += 1;
                    }
                } else {
                    pending.insert(ord, val);
                }
            }
            debug_assert!(pending.is_empty(), "results lost ordinals");
        });
        if let Some(m) = &self.metrics {
            m.registry.record_span("engine.map", span_start.elapsed());
        }
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::with_default_jobs()
    }
}

fn worker_loop<I, T, F>(
    me: usize,
    queues: &[Mutex<VecDeque<(usize, I)>>],
    tx: &channel::Sender<(usize, Result<T, String>)>,
    f: &F,
    metrics: Option<&WorkerMetrics>,
) where
    F: Fn(usize, I) -> T + Sync,
{
    let flight = spindle_obs::recorder::installed();
    if flight.is_some() {
        spindle_obs::recorder::set_thread_label(format!("worker{me}"));
    }
    // Open idle interval: set when this worker first fails to find a
    // task, closed (recorded to the flight recorder and published to
    // the idle counter) when the next task arrives or the worker exits.
    let track_idle = flight.is_some() || metrics.is_some();
    let mut idle_since: Option<Instant> = None;
    let close_idle = |begin: Instant| {
        if let Some(rec) = &flight {
            rec.wall_slice("idle", begin, begin.elapsed(), Vec::new());
        }
        if let Some(m) = metrics {
            m.idle_for(begin.elapsed());
        }
    };
    loop {
        let (task, was_steal) = match pop_own(queues, me, metrics) {
            Some(t) => (Some(t), false),
            None => (steal(queues, me), true),
        };
        let Some((ord, item)) = task else {
            if all_empty(queues) {
                break;
            }
            if track_idle && idle_since.is_none() {
                idle_since = Some(Instant::now());
            }
            // Lost a steal race while work remains elsewhere; rescan.
            std::thread::yield_now();
            continue;
        };
        if let Some(begin) = idle_since.take() {
            close_idle(begin);
        }
        let t0 = Instant::now();
        let out = run_task(f, ord, item);
        let dur = t0.elapsed();
        if let Some(rec) = &flight {
            let name = if out.is_err() {
                "fault"
            } else if was_steal {
                "steal"
            } else {
                "run"
            };
            record_task(rec, name, ord, t0, dur);
        }
        if let Some(m) = metrics {
            if out.is_err() {
                m.failures.add(1);
            }
            m.task_done(was_steal, dur);
        }
        if tx.send((ord, out)).is_err() {
            break; // receiver gone: the map call is being abandoned
        }
    }
    if let Some(begin) = idle_since {
        close_idle(begin);
    }
    if let Some(m) = metrics {
        m.settle();
    }
}

/// Records one executed task on the wall-clock timeline.
fn record_task(rec: &Arc<FlightRecorder>, name: &str, ord: usize, begin: Instant, dur: Duration) {
    rec.wall_slice(
        name,
        begin,
        dur,
        vec![("ordinal".to_owned(), Json::Uint(ord as u64))],
    );
}

fn pop_own<I>(
    queues: &[Mutex<VecDeque<(usize, I)>>],
    me: usize,
    metrics: Option<&WorkerMetrics>,
) -> Option<(usize, I)> {
    let (task, depth) = {
        let mut q = lock_queue(&queues[me]);
        let t = q.pop_front();
        (t, q.len())
    };
    if let Some(m) = metrics {
        m.depth.set(i64::try_from(depth).unwrap_or(i64::MAX));
    }
    task
}

/// Steals one task from the back of the deepest peer queue.
fn steal<I>(queues: &[Mutex<VecDeque<(usize, I)>>], me: usize) -> Option<(usize, I)> {
    let mut victim: Option<(usize, usize)> = None;
    for (i, q) in queues.iter().enumerate() {
        if i == me {
            continue;
        }
        let len = lock_queue(q).len();
        if len > 0 && victim.is_none_or(|(_, best)| len > best) {
            victim = Some((i, len));
        }
    }
    let (v, _) = victim?;
    lock_queue(&queues[v]).pop_back()
}

fn all_empty<I>(queues: &[Mutex<VecDeque<(usize, I)>>]) -> bool {
    queues.iter().all(|q| lock_queue(q).is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard_seed;

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
        // A stateful per-shard computation: a small PRNG walk seeded by
        // the shard seed. Identical across worker counts by contract.
        let run = |jobs: usize| -> Vec<u64> {
            let plan = ShardPlan::new(41, 20090);
            Pool::new(jobs).run_shards(&plan, |_ord, seed| {
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
        // Worker 0's round-robin share is pathologically slow, forcing
        // the other workers to steal from it.
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
    }

    #[test]
    fn map_reduce_still_propagates_panics() {
        let _serial = recorder_tests();
        let pool = Pool::sequential();
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(vec![0u8, 1, 2], |i, x| {
                assert!(i != 1, "task exploded");
                x
            })
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("task exploded"));
    }

    #[test]
    fn try_map_quarantines_the_panicking_shard() {
        let _serial = recorder_tests();
        for jobs in [1, 2, 8] {
            let pool = Pool::new(jobs);
            let outcome = pool.try_map((0..16u64).collect(), |i, x| {
                assert!(i != 5, "injected fault: task panic at ordinal 5");
                x * 2
            });
            assert_eq!(outcome.failures.len(), 1, "exactly one shard fails");
            let fail = &outcome.failures[0];
            assert_eq!(fail.ordinal, 5);
            assert_eq!(fail.shard_seed, None);
            assert!(fail.payload.contains("injected fault"));
            // Survivors keep their original ordinals and values — the
            // fault-free subset, byte-identical at every worker count.
            let expect: Vec<(usize, u64)> = (0..16u64)
                .filter(|&x| x != 5)
                .map(|x| (x as usize, x * 2))
                .collect();
            assert_eq!(outcome.output, expect, "jobs={jobs}");
            assert!(!outcome.is_clean());
        }
    }

    #[test]
    fn try_run_shards_reports_the_failed_seed() {
        let _serial = recorder_tests();
        let plan = ShardPlan::new(8, 20090);
        let outcome = Pool::new(4).try_run_shards(&plan, |ord, seed| {
            assert!(ord != 3, "shard 3 dies");
            seed
        });
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].shard_seed, Some(plan.seed_of(3)));
        assert_eq!(outcome.output.len(), 7);
    }

    #[test]
    fn try_map_clean_run_has_no_failures() {
        let outcome = Pool::new(2).try_map(vec![1u8, 2, 3], |_, x| x + 1);
        assert!(outcome.is_clean());
        assert_eq!(outcome.output, vec![(0, 2), (1, 3), (2, 4)]);
    }

    #[test]
    fn failures_are_counted_in_metrics() {
        let _serial = recorder_tests();
        let registry: &'static MetricsRegistry = Box::leak(Box::default());
        let pool = Pool::new(2).metrics(PoolMetrics::new(registry));
        let outcome = pool.try_map((0..8u8).collect(), |i, x| {
            assert!(i % 4 != 1, "every fourth-plus-one task dies");
            x
        });
        assert_eq!(outcome.failures.len(), 2);
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
        let outcome = Pool::new(2).try_map((0..8u8).collect(), |i, x| {
            assert!(i != 2, "dies for the trace");
            x
        });
        recorder::uninstall();
        assert_eq!(outcome.failures.len(), 1);
        let wall = rec.wall_slices();
        let faults: Vec<_> = wall.iter().filter(|w| w.name == "fault").collect();
        assert_eq!(faults.len(), 1, "one fault interval on the wall track");
        assert!(faults[0]
            .args
            .iter()
            .any(|(k, v)| k == "ordinal" && *v == Json::Uint(2)));
    }

    #[test]
    fn lock_queue_recovers_from_poison() {
        let q: Mutex<VecDeque<(usize, u8)>> = Mutex::new(VecDeque::new());
        lock_queue(&q).push_back((0, 7));
        // Poison the mutex by panicking while holding the guard.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = q.lock().unwrap();
            panic!("poison");
        }));
        assert!(q.is_poisoned());
        assert_eq!(lock_queue(&q).pop_front(), Some((0, 7)));
    }
}
