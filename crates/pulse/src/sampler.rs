//! Background metrics sampler: bounded per-metric time series.
//!
//! A [`Sampler`] thread snapshots a [`MetricsRegistry`] at a fixed
//! cadence and appends one [`Sample`] per counter and gauge (plus
//! histogram and span counts) to a bounded in-memory ring — the last
//! `capacity` samples per metric, stamped with monotonic milliseconds
//! since the sampler started. The rings are what turns lifetime
//! aggregates into *recent* rates: the ETA in `/status` and the
//! experiments/sec readout of the `--live` dashboard both come from
//! [`Sampler::rate_per_sec`] over this window rather than from a
//! whole-run average that goes stale the moment throughput shifts.
//!
//! Memory is bounded by construction: `capacity` samples × metrics
//! sampled, independent of run length.

use spindle_obs::rollup::NS_PER_MS;
use spindle_obs::{MetricsRegistry, RollupSet};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Minimum retained samples before [`steady_rate`] reports a rate.
/// Right after startup one or two samples produce wildly unstable
/// rates — and therefore ETAs that swing by orders of magnitude — so
/// rate consumers suppress the readout until the window holds this
/// many points.
pub const MIN_STEADY_SAMPLES: usize = 4;

/// One sampled value of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Milliseconds since the sampler started (monotonic).
    pub t_ms: u64,
    /// The metric's value at that instant.
    pub value: f64,
}

#[derive(Debug)]
struct Shared {
    registry: &'static MetricsRegistry,
    series: Mutex<BTreeMap<String, VecDeque<Sample>>>,
    capacity: usize,
    epoch: Instant,
    stop: AtomicBool,
    /// Wall-axis rollup wheel fed one snapshot per tick, when attached.
    rollups: Option<Arc<RollupSet>>,
}

impl Shared {
    fn sample_once(&self) {
        let t_ms = u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX);
        let snap = self.registry.snapshot();
        if let Some(roll) = &self.rollups {
            roll.ingest_snapshot(t_ms.saturating_mul(NS_PER_MS), &snap);
        }
        let mut series = self.series.lock().expect("sampler series not poisoned");
        let mut push = |name: &str, value: f64| {
            let ring = series.entry(name.to_owned()).or_default();
            ring.push_back(Sample { t_ms, value });
            while ring.len() > self.capacity {
                ring.pop_front();
            }
        };
        for (name, v) in &snap.counters {
            push(name, *v as f64);
        }
        for (name, v) in &snap.gauges {
            push(name, *v as f64);
        }
        for (name, h) in &snap.histograms {
            push(&format!("{name}.count"), h.count as f64);
        }
        for (name, s) in &snap.spans {
            push(&format!("{name}.count"), s.count as f64);
        }
    }
}

/// A background sampler thread over one registry.
///
/// Dropping the sampler stops the thread.
#[derive(Debug)]
pub struct Sampler {
    shared: Arc<Shared>,
    cadence: Duration,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Sampler {
    /// Starts sampling `registry` every `cadence` into rings of
    /// `capacity` samples per metric (`capacity` is clamped to at
    /// least 2 so a rate is always computable once two samples exist).
    #[must_use]
    pub fn start(
        registry: &'static MetricsRegistry,
        cadence: Duration,
        capacity: usize,
    ) -> Arc<Sampler> {
        Sampler::start_with_rollups(registry, cadence, capacity, None)
    }

    /// Like [`Sampler::start`], additionally feeding every snapshot
    /// into a wall-axis [`RollupSet`] (stamped with milliseconds since
    /// the sampler epoch, converted to nanoseconds on the wheel axis).
    #[must_use]
    pub fn start_with_rollups(
        registry: &'static MetricsRegistry,
        cadence: Duration,
        capacity: usize,
        rollups: Option<Arc<RollupSet>>,
    ) -> Arc<Sampler> {
        let shared = Arc::new(Shared {
            registry,
            series: Mutex::new(BTreeMap::new()),
            capacity: capacity.max(2),
            epoch: Instant::now(),
            stop: AtomicBool::new(false),
            rollups,
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
            cadence,
            handle: Mutex::new(Some(handle)),
        })
    }

    /// The sampling cadence.
    #[must_use]
    pub fn cadence(&self) -> Duration {
        self.cadence
    }

    /// Takes one sample immediately, outside the cadence (used by
    /// tests and by the dashboard's final frame).
    pub fn sample_now(&self) {
        self.shared.sample_once();
    }

    /// The retained samples of `name`, oldest first.
    #[must_use]
    pub fn series(&self, name: &str) -> Vec<Sample> {
        self.shared
            .series
            .lock()
            .expect("sampler series not poisoned")
            .get(name)
            .map(|r| r.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The metric's rate of change per second over the retained
    /// window, `None` until two samples with distinct timestamps
    /// exist. Counters yield throughput; a decreasing gauge yields a
    /// negative rate.
    #[must_use]
    pub fn rate_per_sec(&self, name: &str) -> Option<f64> {
        rate(&self.series(name))
    }

    /// [`steady_rate`] over the metric's retained window.
    #[must_use]
    pub fn steady_rate_per_sec(&self, name: &str) -> Option<f64> {
        steady_rate(&self.series(name))
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

/// Rate of change per second between the first and last sample of
/// `window` (oldest first); `None` without two distinct timestamps.
fn rate(window: &[Sample]) -> Option<f64> {
    let (first, last) = (window.first()?, window.last()?);
    if last.t_ms <= first.t_ms {
        return None;
    }
    let dt = (last.t_ms - first.t_ms) as f64 / 1e3;
    Some((last.value - first.value) / dt)
}

/// The rate over `window`, but `None` until it holds
/// [`MIN_STEADY_SAMPLES`] points (or when the rate is not finite) —
/// the clamp that keeps early-run ETAs from whipsawing.
fn steady_rate(window: &[Sample]) -> Option<f64> {
    if window.len() < MIN_STEADY_SAMPLES {
        return None;
    }
    rate(window).filter(|r| r.is_finite())
}

/// Seconds until `completed` reaches `total` at the steady rate of
/// `window`, a progress series (oldest first): the one ETA rule behind
/// `/status`, the `--live` line and served jobs. `None` until the
/// window is steady, without a positive rate, or with no work left.
#[must_use]
pub fn eta_secs(completed: u64, total: u64, window: &[Sample]) -> Option<f64> {
    let rate = steady_rate(window).filter(|r| *r > 0.0)?;
    (total > completed).then(|| (total - completed) as f64 / rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaked_registry() -> &'static MetricsRegistry {
        Box::leak(Box::default())
    }

    #[test]
    fn samples_counters_gauges_and_counts() {
        let registry = leaked_registry();
        registry.counter("work.done").add(3);
        registry.gauge("depth").set(-2);
        registry.histogram("lat").record(9);
        registry.record_span("phase", Duration::from_millis(1));
        let sampler = Sampler::start(registry, Duration::from_secs(3600), 8);
        // The startup sample covers everything that existed at start.
        let done = sampler.series("work.done");
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].value, 3.0);
        assert_eq!(sampler.series("depth")[0].value, -2.0);
        assert_eq!(sampler.series("lat.count")[0].value, 1.0);
        assert_eq!(sampler.series("phase.count")[0].value, 1.0);
        assert!(sampler.series("missing").is_empty());
        sampler.stop();
    }

    #[test]
    fn rings_are_bounded() {
        let registry = leaked_registry();
        let c = registry.counter("bounded.count");
        let sampler = Sampler::start(registry, Duration::from_secs(3600), 4);
        for i in 0..20 {
            c.add(i);
            sampler.sample_now();
        }
        let series = sampler.series("bounded.count");
        assert_eq!(series.len(), 4, "ring keeps only the last N samples");
        // Oldest-first and monotone in time.
        for pair in series.windows(2) {
            assert!(pair[0].t_ms <= pair[1].t_ms);
            assert!(pair[0].value <= pair[1].value);
        }
        sampler.stop();
    }

    #[test]
    fn rate_needs_two_distinct_timestamps() {
        let registry = leaked_registry();
        let c = registry.counter("rate.count");
        c.add(10);
        let sampler = Sampler::start(registry, Duration::from_secs(3600), 8);
        // One sample: no rate yet.
        assert!(sampler.rate_per_sec("rate.count").is_none());
        std::thread::sleep(Duration::from_millis(5));
        c.add(10);
        sampler.sample_now();
        let rate = sampler.rate_per_sec("rate.count").expect("two samples");
        assert!(rate > 0.0, "rate={rate}");
        sampler.stop();
    }

    #[test]
    fn steady_rate_requires_a_filled_window() {
        let registry = leaked_registry();
        let c = registry.counter("steady.count");
        let sampler = Sampler::start(registry, Duration::from_secs(3600), 8);
        // Take samples until just below the threshold: still None even
        // though the plain rate is already computable.
        for _ in 1..MIN_STEADY_SAMPLES - 1 {
            std::thread::sleep(Duration::from_millis(3));
            c.add(5);
            sampler.sample_now();
        }
        assert!(sampler.rate_per_sec("steady.count").is_some());
        assert!(sampler.steady_rate_per_sec("steady.count").is_none());
        std::thread::sleep(Duration::from_millis(3));
        c.add(5);
        sampler.sample_now();
        let rate = sampler
            .steady_rate_per_sec("steady.count")
            .expect("window filled");
        assert!(rate > 0.0);
        sampler.stop();
    }

    #[test]
    fn ticks_feed_the_attached_rollup_wheel() {
        let registry = leaked_registry();
        let c = registry.counter("rolled.count");
        c.add(2);
        let rollups = Arc::new(RollupSet::wall());
        let sampler = Sampler::start_with_rollups(
            registry,
            Duration::from_secs(3600),
            8,
            Some(Arc::clone(&rollups)),
        );
        c.add(3);
        sampler.sample_now();
        let snap = rollups.snapshot();
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
