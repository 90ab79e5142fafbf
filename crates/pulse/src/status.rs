//! Shared run-progress state and the `/status` document.
//!
//! A front end (the `experiments` binary, the `spindle` CLI) creates
//! one [`RunStatus`], publishes phase transitions and per-experiment
//! completions into it, and hands clones to the
//! [`server`](crate::server) and [`live`](crate::live) consumers. The
//! struct is a few atomics plus one mutex-guarded string, so
//! publishing costs nanoseconds and never touches computed results.
//!
//! [`status_json`] renders the full `/status` document: phase,
//! progress, throughput and ETA over the sampler's recent-rate window,
//! and per-worker utilization derived from the engine's live
//! `engine.worker.<n>.busy_us`/`idle_us` counters (the same
//! run/fault/idle accounting the flight recorder draws as wall
//! slices).

use crate::sampler::Sampler;
use spindle_obs::json::Json;
use spindle_obs::registry::Snapshot;
use spindle_obs::Counter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Registry counter the front ends bump once per completed experiment;
/// the sampler's window over it provides the completion rate the ETA
/// is derived from.
pub const PROGRESS_METRIC: &str = "matrix.completed";

/// Shared, thread-safe run progress.
#[derive(Debug)]
pub struct RunStatus {
    phase: Mutex<String>,
    completed: AtomicU64,
    total: AtomicU64,
    epoch: Instant,
    /// Mirror of `completed` in the metrics registry, so the sampler
    /// (and any scraper) sees progress as a time series.
    progress: Mutex<Option<Counter>>,
}

impl RunStatus {
    /// A fresh status in phase `"starting"` with `total` units of work.
    #[must_use]
    pub fn new(total: u64) -> Self {
        RunStatus {
            phase: Mutex::new("starting".to_owned()),
            completed: AtomicU64::new(0),
            total: AtomicU64::new(total),
            epoch: Instant::now(),
            progress: Mutex::new(None),
        }
    }

    /// Mirrors completions into `counter` (normally
    /// [`PROGRESS_METRIC`] resolved against the global registry) so the
    /// sampler can window them.
    pub fn set_progress_counter(&self, counter: Counter) {
        *self.progress.lock().expect("status progress lock") = Some(counter);
    }

    /// Names the current run phase (e.g. `"running"`, `"exporting"`).
    pub fn set_phase(&self, phase: &str) {
        *self.phase.lock().expect("status phase lock") = phase.to_owned();
    }

    /// The current run phase.
    #[must_use]
    pub fn phase(&self) -> String {
        self.phase.lock().expect("status phase lock").clone()
    }

    /// Grows the total by `n` units. Long-lived front ends (the serve
    /// daemon) learn their workload incrementally — each accepted job
    /// adds to the total instead of replacing it, so `completed/total`
    /// stays a truthful lifetime fraction.
    pub fn add_total(&self, n: u64) {
        self.total.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one completed unit of work.
    pub fn complete_one(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = self.progress.lock().expect("status progress lock").as_ref() {
            c.inc();
        }
    }

    /// Completed units so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Total units of work.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Seconds since the status was created.
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// One worker's live utilization view, derived from the engine's
/// incremental `engine.worker.<n>.*` counters.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStat {
    /// Worker index.
    pub worker: u64,
    /// Microseconds spent executing tasks.
    pub busy_us: u64,
    /// Microseconds spent idle: each pool call's tail after the queue empties.
    pub idle_us: u64,
    /// Tasks executed so far.
    pub tasks_executed: u64,
}

impl WorkerStat {
    /// Busy share of accounted time, `None` before anything was
    /// accounted.
    #[must_use]
    pub fn utilization(&self) -> Option<f64> {
        let denom = self.busy_us + self.idle_us;
        (denom > 0).then(|| self.busy_us as f64 / denom as f64)
    }
}

/// Extracts per-worker stats from a registry snapshot by scanning the
/// `engine.worker.<n>.*` counter namespace.
#[must_use]
pub fn worker_stats(snapshot: &Snapshot) -> Vec<WorkerStat> {
    let mut stats: Vec<WorkerStat> = Vec::new();
    fn stat(stats: &mut Vec<WorkerStat>, worker: u64) -> &mut WorkerStat {
        if let Some(i) = stats.iter().position(|s| s.worker == worker) {
            return &mut stats[i];
        }
        stats.push(WorkerStat {
            worker,
            busy_us: 0,
            idle_us: 0,
            tasks_executed: 0,
        });
        stats.last_mut().expect("just pushed")
    }
    for (name, v) in &snapshot.counters {
        let Some(rest) = name.strip_prefix("engine.worker.") else {
            continue;
        };
        let Some((idx, field)) = rest.split_once('.') else {
            continue;
        };
        let Ok(worker) = idx.parse::<u64>() else {
            continue;
        };
        match field {
            "busy_us" => stat(&mut stats, worker).busy_us = *v,
            "idle_us" => stat(&mut stats, worker).idle_us = *v,
            "tasks_executed" => stat(&mut stats, worker).tasks_executed = *v,
            _ => {}
        }
    }
    stats.sort_by_key(|s| s.worker);
    stats
}

/// Renders the `/status` JSON document.
#[must_use]
pub fn status_json(status: &RunStatus, snapshot: &Snapshot, sampler: &Sampler) -> Json {
    let completed = status.completed();
    let total = status.total();
    let window = sampler.progress();
    let rate = window.rate_per_sec().filter(|r| *r > 0.0);
    // The ETA derives from the *steady* rate: right after startup the
    // recent-rate window holds one or two points and the naive
    // extrapolation whipsaws by orders of magnitude, so the field stays
    // null until the window has enough samples to mean something.
    let eta = window.eta_secs(completed, total);
    let workers: Vec<Json> = worker_stats(snapshot)
        .into_iter()
        .map(|w| {
            Json::Obj(vec![
                ("worker".to_owned(), Json::Uint(w.worker)),
                ("busy_us".to_owned(), Json::Uint(w.busy_us)),
                ("idle_us".to_owned(), Json::Uint(w.idle_us)),
                ("tasks_executed".to_owned(), Json::Uint(w.tasks_executed)),
                (
                    "utilization".to_owned(),
                    w.utilization().map_or(Json::Null, Json::Num),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("phase".to_owned(), Json::Str(status.phase())),
        ("completed".to_owned(), Json::Uint(completed)),
        ("total".to_owned(), Json::Uint(total)),
        ("elapsed_secs".to_owned(), Json::Num(status.elapsed_secs())),
        (
            "rate_per_sec".to_owned(),
            rate.map_or(Json::Null, Json::Num),
        ),
        ("eta_secs".to_owned(), eta.map_or(Json::Null, Json::Num)),
        ("workers".to_owned(), Json::Arr(workers)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_obs::MetricsRegistry;
    use std::time::Duration;

    #[test]
    fn status_tracks_phase_and_progress() {
        let s = RunStatus::new(5);
        assert_eq!(s.phase(), "starting");
        assert_eq!((s.completed(), s.total()), (0, 5));
        s.set_phase("running");
        s.complete_one();
        s.complete_one();
        assert_eq!(s.phase(), "running");
        assert_eq!(s.completed(), 2);
        assert!(s.elapsed_secs() >= 0.0);
    }

    #[test]
    fn progress_counter_mirrors_completions() {
        let registry = MetricsRegistry::new();
        let s = RunStatus::new(3);
        s.set_progress_counter(registry.counter(PROGRESS_METRIC));
        s.complete_one();
        s.complete_one();
        assert_eq!(registry.snapshot().counter(PROGRESS_METRIC), Some(2));
    }

    #[test]
    fn worker_stats_parse_the_engine_namespace() {
        let registry = MetricsRegistry::new();
        registry.counter("engine.worker.0.busy_us").add(900);
        registry.counter("engine.worker.0.idle_us").add(100);
        registry.counter("engine.worker.0.tasks_executed").add(7);
        registry.counter("engine.worker.1.busy_us").add(10);
        registry.counter("engine.tasks_executed").add(7);
        registry.counter("unrelated").add(1);
        let stats = worker_stats(&registry.snapshot());
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].worker, 0);
        assert_eq!(stats[0].tasks_executed, 7);
        assert!((stats[0].utilization().unwrap() - 0.9).abs() < 1e-12);
        assert_eq!(stats[1].worker, 1);
        assert_eq!(stats[1].utilization(), Some(1.0));
    }

    #[test]
    fn status_json_carries_progress_and_workers() {
        let registry: &'static MetricsRegistry = Box::leak(Box::default());
        registry.counter("engine.worker.0.busy_us").add(50);
        registry.counter("engine.worker.0.idle_us").add(50);
        let status = RunStatus::new(10);
        status.set_progress_counter(registry.counter(PROGRESS_METRIC));
        status.set_phase("running");
        let sampler = Sampler::start(registry, Duration::from_secs(3600), 8);
        // Enough ticks for the steady-rate window to engage (the ETA
        // stays null below MIN_STEADY_SAMPLES — tested separately).
        status.complete_one();
        for _ in 1..crate::sampler::MIN_STEADY_SAMPLES {
            std::thread::sleep(Duration::from_millis(3));
            status.complete_one();
            sampler.sample_now();
        }
        let doc = status_json(&status, &registry.snapshot(), &sampler);
        assert_eq!(doc.get("phase").and_then(Json::as_str), Some("running"));
        assert_eq!(doc.get("completed").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.get("total").and_then(Json::as_u64), Some(10));
        let rate = doc.get("rate_per_sec").and_then(Json::as_f64).unwrap();
        assert!(rate > 0.0);
        let eta = doc.get("eta_secs").and_then(Json::as_f64).unwrap();
        assert!(eta > 0.0);
        let Some(Json::Arr(workers)) = doc.get("workers") else {
            panic!("workers is an array");
        };
        assert_eq!(workers.len(), 1);
        assert_eq!(
            workers[0].get("utilization").and_then(Json::as_f64),
            Some(0.5)
        );
        // The document round-trips through the crate's own parser.
        let text = doc.to_string();
        assert_eq!(spindle_obs::json::parse(&text).unwrap(), doc);
        sampler.stop();
    }

    #[test]
    fn eta_is_suppressed_while_the_rate_window_is_thin() {
        let registry: &'static MetricsRegistry = Box::leak(Box::default());
        let status = RunStatus::new(100);
        status.set_progress_counter(registry.counter(PROGRESS_METRIC));
        let sampler = Sampler::start(registry, Duration::from_secs(3600), 8);
        status.complete_one();
        std::thread::sleep(Duration::from_millis(5));
        status.complete_one();
        sampler.sample_now();
        // Two samples: the raw rate exists, but extrapolating 98 more
        // units from it would be noise — the ETA must stay null.
        let doc = status_json(&status, &registry.snapshot(), &sampler);
        assert!(doc.get("rate_per_sec").and_then(Json::as_f64).is_some());
        assert_eq!(doc.get("eta_secs"), Some(&Json::Null));
        sampler.stop();
    }
}
