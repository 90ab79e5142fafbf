//! Background sampler: the progress window behind every rate and ETA.
//!
//! A [`Sampler`] thread snapshots a [`MetricsRegistry`] at a fixed
//! cadence. Each snapshot feeds the sampler's own wall-axis rollup
//! wheel (the source of `/timescales`, the windowed `/metrics` series
//! and the dashboard sparkline), and the progress counter ([`PROGRESS_METRIC`]) lands in one bounded
//! [`SampleWindow`] stamped with monotonic milliseconds since the
//! sampler started. The window is what turns the lifetime count into a
//! *recent* rate: the throughput and ETA in `/status` and on the
//! `--live` line both come from it rather than from a whole-run
//! average that goes stale the moment throughput shifts. The serve
//! daemon keeps one window per job, fed by the job's progress frames.
//!
//! Memory is bounded by construction: `capacity` samples, independent
//! of run length.

use crate::status::PROGRESS_METRIC;
use spindle_obs::rollup::NS_PER_MS;
use spindle_obs::{MetricsRegistry, RollupSet};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Minimum retained samples before a window reports a steady rate.
/// Right after startup one or two samples produce wildly unstable
/// rates — and therefore ETAs that swing by orders of magnitude — so
/// the ETA stays `None` until the window holds this many points.
pub const MIN_STEADY_SAMPLES: usize = 4;

/// One sampled value of a progress series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Milliseconds since the window's epoch (monotonic).
    pub t_ms: u64,
    /// The series' value at that instant.
    pub value: f64,
}

/// The last `capacity` samples of one progress series, oldest first,
/// with the rate and the one ETA rule behind `/status`, the `--live`
/// line and served jobs.
#[derive(Debug, Clone)]
pub struct SampleWindow {
    samples: VecDeque<Sample>,
    capacity: usize,
}

impl SampleWindow {
    /// An empty window of `capacity` samples (clamped to at least 2 so
    /// a rate is computable once two samples exist).
    #[must_use]
    pub fn new(capacity: usize) -> SampleWindow {
        let capacity = capacity.max(2);
        SampleWindow {
            samples: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Appends a sample, evicting the oldest once the window is full.
    pub fn push(&mut self, t_ms: u64, value: f64) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(Sample { t_ms, value });
    }

    /// Rate of change per second between the oldest and newest sample;
    /// `None` without two distinct timestamps.
    #[must_use]
    pub(crate) fn rate_per_sec(&self) -> Option<f64> {
        let (first, last) = (self.samples.front()?, self.samples.back()?);
        if last.t_ms <= first.t_ms {
            return None;
        }
        let dt = (last.t_ms - first.t_ms) as f64 / 1e3;
        Some((last.value - first.value) / dt)
    }

    /// The rate, but `None` until the window holds
    /// [`MIN_STEADY_SAMPLES`] points (or when the rate is not finite) —
    /// the clamp that keeps early-run ETAs from whipsawing.
    #[must_use]
    pub(crate) fn steady_rate_per_sec(&self) -> Option<f64> {
        if self.samples.len() < MIN_STEADY_SAMPLES {
            return None;
        }
        self.rate_per_sec().filter(|r| r.is_finite())
    }

    /// Seconds until `completed` reaches `total` at the steady rate.
    /// `None` until the window is steady, without a positive rate, or
    /// with no work left.
    #[must_use]
    pub fn eta_secs(&self, completed: u64, total: u64) -> Option<f64> {
        let rate = self.steady_rate_per_sec().filter(|r| *r > 0.0)?;
        (total > completed).then(|| (total - completed) as f64 / rate)
    }
}

#[derive(Debug)]
struct Shared {
    registry: &'static MetricsRegistry,
    progress: Mutex<SampleWindow>,
    epoch: Instant,
    stop: AtomicBool,
    /// Wall-axis rollup wheel fed one snapshot per tick.
    rollups: Arc<RollupSet>,
}

impl Shared {
    fn sample_once(&self) {
        let t_ms = u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX);
        let snap = self.registry.snapshot();
        self.rollups
            .ingest_snapshot(t_ms.saturating_mul(NS_PER_MS), &snap);
        if let Some(done) = snap.counter(PROGRESS_METRIC) {
            self.progress
                .lock()
                .expect("sampler window not poisoned")
                .push(t_ms, done as f64);
        }
    }
}

/// A background sampler thread over one registry.
///
/// Dropping the sampler stops the thread.
#[derive(Debug)]
pub struct Sampler {
    shared: Arc<Shared>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Sampler {
    /// Starts sampling `registry` every `cadence` into a progress
    /// window of `capacity` samples and a fresh wall-axis
    /// [`RollupSet`] (each snapshot stamped with milliseconds since the
    /// sampler epoch, converted to nanoseconds on the wheel axis).
    #[must_use]
    pub fn start(
        registry: &'static MetricsRegistry,
        cadence: Duration,
        capacity: usize,
    ) -> Arc<Sampler> {
        let shared = Arc::new(Shared {
            registry,
            progress: Mutex::new(SampleWindow::new(capacity)),
            epoch: Instant::now(),
            stop: AtomicBool::new(false),
            rollups: Arc::new(RollupSet::wall()),
        });
        // The first sample lands before `start` returns, so consumers
        // never see a completely empty window.
        shared.sample_once();
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("pulse-sampler".to_owned())
            .spawn(move || {
                while !worker.stop.load(Ordering::Acquire) {
                    std::thread::park_timeout(cadence);
                    if worker.stop.load(Ordering::Acquire) {
                        break;
                    }
                    worker.sample_once();
                }
            })
            .expect("sampler thread spawns");
        Arc::new(Sampler {
            shared,
            handle: Mutex::new(Some(handle)),
        })
    }

    /// Takes one sample immediately, outside the cadence (used by
    /// tests and by the dashboard's final frame).
    pub fn sample_now(&self) {
        self.shared.sample_once();
    }

    /// The wall-axis rollup wheel every sample feeds.
    #[must_use]
    pub fn rollups(&self) -> &Arc<RollupSet> {
        &self.shared.rollups
    }

    /// A copy of the progress window, so a reader's rate and ETA come
    /// from the same samples.
    #[must_use]
    pub fn progress(&self) -> SampleWindow {
        self.shared
            .progress
            .lock()
            .expect("sampler window not poisoned")
            .clone()
    }

    /// Stops the sampler thread and waits for it to exit. Idempotent;
    /// also called on drop.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Release);
        let handle = self.handle.lock().expect("sampler handle lock").take();
        if let Some(h) = handle {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaked_registry() -> &'static MetricsRegistry {
        Box::leak(Box::default())
    }

    #[test]
    fn samples_only_the_progress_counter() {
        let registry = leaked_registry();
        registry.counter(PROGRESS_METRIC).add(3);
        registry.counter("work.done").add(7);
        registry.gauge("depth").set(-2);
        registry.record_span("phase", Duration::from_millis(1));
        let sampler = Sampler::start(registry, Duration::from_secs(3600), 8);
        // The startup sample holds the progress count and nothing else.
        let window = sampler.progress();
        assert_eq!(window.samples.len(), 1);
        assert_eq!(window.samples[0].value, 3.0);
        sampler.stop();
        // Without a progress counter the window stays empty.
        let idle = Sampler::start(leaked_registry(), Duration::from_secs(3600), 8);
        idle.sample_now();
        assert!(idle.progress().samples.is_empty());
    }

    #[test]
    fn rings_are_bounded() {
        let registry = leaked_registry();
        let c = registry.counter(PROGRESS_METRIC);
        let sampler = Sampler::start(registry, Duration::from_secs(3600), 4);
        for i in 0..20 {
            c.add(i);
            sampler.sample_now();
        }
        let window = sampler.progress();
        let series = window.samples;
        assert_eq!(series.len(), 4, "window keeps only the last N samples");
        // Oldest-first and monotone in time.
        for (a, b) in series.iter().zip(series.iter().skip(1)) {
            assert!(a.t_ms <= b.t_ms);
            assert!(a.value <= b.value);
        }
        sampler.stop();
    }

    #[test]
    fn rate_needs_two_distinct_timestamps() {
        let registry = leaked_registry();
        let c = registry.counter(PROGRESS_METRIC);
        c.add(10);
        let sampler = Sampler::start(registry, Duration::from_secs(3600), 8);
        // One sample: no rate yet.
        assert!(sampler.progress().rate_per_sec().is_none());
        std::thread::sleep(Duration::from_millis(5));
        c.add(10);
        sampler.sample_now();
        let rate = sampler.progress().rate_per_sec().expect("two samples");
        assert!(rate > 0.0, "rate={rate}");
        sampler.stop();
    }

    #[test]
    fn steady_rate_requires_a_filled_window() {
        let registry = leaked_registry();
        let c = registry.counter(PROGRESS_METRIC);
        let sampler = Sampler::start(registry, Duration::from_secs(3600), 8);
        // Take samples until just below the threshold: still None even
        // though the plain rate is already computable.
        for _ in 1..MIN_STEADY_SAMPLES - 1 {
            std::thread::sleep(Duration::from_millis(3));
            c.add(5);
            sampler.sample_now();
        }
        assert!(sampler.progress().rate_per_sec().is_some());
        assert!(sampler.progress().steady_rate_per_sec().is_none());
        std::thread::sleep(Duration::from_millis(3));
        c.add(5);
        sampler.sample_now();
        let rate = sampler
            .progress()
            .steady_rate_per_sec()
            .expect("window filled");
        assert!(rate > 0.0);
        sampler.stop();
    }

    #[test]
    fn eta_follows_the_steady_rate_of_the_window() {
        let mut window = SampleWindow::new(4);
        for (t_ms, done) in [(0, 0.0), (500, 1.0), (1000, 2.0)] {
            window.push(t_ms, done);
        }
        assert_eq!(window.eta_secs(2, 10), None, "three samples are not steady");
        window.push(1500, 3.0);
        assert_eq!(window.eta_secs(3, 10), Some(3.5), "2 per second, 7 left");
        assert_eq!(window.eta_secs(10, 10), None, "no work left");
        // A fifth push evicts the oldest sample; the rate spans the rest.
        window.push(2500, 3.0);
        assert_eq!(window.samples.len(), 4);
        assert_eq!(window.rate_per_sec(), Some(1.0));
    }

    #[test]
    fn ticks_feed_the_attached_rollup_wheel() {
        let registry = leaked_registry();
        let c = registry.counter("rolled.count");
        c.add(2);
        let sampler = Sampler::start(registry, Duration::from_secs(3600), 8);
        c.add(3);
        sampler.sample_now();
        let snap = sampler.rollups().snapshot();
        let run = snap.resolution("run").expect("run wheel");
        assert_eq!(run.merged().counters["rolled.count"], 5);
        sampler.stop();
    }

    #[test]
    fn stop_is_idempotent_and_drop_safe() {
        let registry = leaked_registry();
        let sampler = Sampler::start(registry, Duration::from_millis(1), 8);
        sampler.stop();
        sampler.stop();
        drop(sampler);
    }
}
